"""The two headline pipelines and the stage runner they share.

`pipeline_thm15` (thm15 shape) runs a 3XOR system and a game-form strategy
through the 2-to-2 reduction to a quantum 2d-colouring of the eta digraph;
the classical value, the colour count, the dimension and every note are
read off the run.  `pipeline_magic_square` runs it on the magic square,
where the perfectness layer passes exactly and level-1 commutation provably
cannot hold (it would make all nine grid observables commute, and so make
the system classically satisfiable).  `pipeline_machinery` (thm14 shape)
runs a classically-lifted d-to-1 seed through the d-to-d chain, the
colouring reduction and two line-digraph steps, enforcing the ledger
10 -> 4 -> 1 by verifier runs, to a verified 3-colouring witness.

Each stage runs inside `PipelineReport.stage`, and `PipelineReport.write`
writes the artifacts.  Every verification is an exact full sweep; the only
randomness is the thm14 seed instance, so reports reproduce bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import colouring, csp, dkkms, dmr, qop, relstruct, serialize
from .relstruct import ABOVE_CAP, clique, relabel

# left vertices the left-regular stage of the thm14 chain may build
_MACHINERY_BUDGET = 5_000_000


@dataclass
class Stage:
    name: str
    details: dict
    seconds: float


@dataclass
class PipelineReport:
    pipeline: str
    seed: int
    stages: list = field(default_factory=list)
    verdict: str = ""
    outdir: Optional[str] = None

    def add(self, name: str, details: dict, seconds: float) -> None:
        self.stages.append(Stage(name, details, seconds))

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the body with `perf_counter` and record the details dict it
        fills as the stage `name`; a body that raises records nothing."""
        details: dict = {}
        t0 = time.perf_counter()
        yield details
        self.add(name, details, time.perf_counter() - t0)

    def write(self, name: str, encode, value) -> None:
        """Write `encode(value)` as the artifact `name` in `outdir`, when one
        is set; without one, `value` is never encoded."""
        if self.outdir:
            os.makedirs(self.outdir, exist_ok=True)
            serialize.dump(encode(value), os.path.join(self.outdir, name))

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "seed": self.seed,
            "verdict": self.verdict,
            "stages": [
                {"name": s.name, "seconds": round(s.seconds, 3), **s.details}
                for s in self.stages
            ],
        }

    def summary(self) -> str:
        lines = [f"pipeline {self.pipeline} (seed {self.seed})"]
        for s in self.stages:
            lines.append(f"  [{s.seconds:7.2f}s] {s.name}")
            for key, value in s.details.items():
                lines.append(f"      {key}: {value}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _collector_paused(pipeline):
    """Run `pipeline` with the cyclic garbage collector off, and put the
    collector back as it was on return or on a raise.  The pipelines build
    hundreds of thousands of acyclic tuples, dicts and projector families
    and no reference cycles, so collections there walk live objects and
    free nothing; reference counting frees everything the run drops."""

    @functools.wraps(pipeline)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return pipeline(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_collector_paused
def pipeline_magic_square(seed: int = 0, *, outdir: Optional[str] = None) -> PipelineReport:
    """`pipeline_thm15` on the magic square and its Mermin-Peres strategy;
    the run is deterministic and `seed` only labels the report."""
    system, strategy = qop.mermin_peres()
    return pipeline_thm15(system, strategy, seed, outdir=outdir)


@_collector_paused
def pipeline_thm15(
    system: dkkms.XorSystem, strategy: qop.QuantumAssignment, seed: int, *, outdir: Optional[str] = None
) -> PipelineReport:
    """3XOR system -> rho -> eta for a game-form strategy of `system`, with
    exact verification everywhere; `seed` only labels the report."""
    report = PipelineReport("thm15", seed, outdir=outdir)

    with report.stage("magic-square") as details:
        sat = system.sat_value()
        game_check = dkkms.verify_game_assignment(system, 1, strategy)
        passed = game_check.passed
        game_form = "pass" if passed else "FAIL"
        details.update(sat=str(sat), pseudo_telepathic=sat < 1 and passed, game_form=game_form, dim=strategy.dim)
    if not passed:
        report.verdict = "FAIL at the magic-square stage"
        return report

    with report.stage("rho-reduction") as details:
        rho1 = dkkms.build_rho1(system, 1, 2)
        rho2 = dkkms.build_rho2(rho1)
        # the strategy passed the game-form check of the magic-square stage
        transferred = dkkms.transfer_checked_strategy(rho2, strategy)
        x1, a1 = csp.to_structures(rho1.instance)
        x2, a2 = csp.to_structures(rho2.instance)
        perfect_rho1 = qop.verify_assignment(x1, a1, transferred, 0)
        perfect_rho2 = qop.verify_assignment(x2, a2, transferred, 0)
        level1 = qop.verify_assignment(x2, a2, transferred, 1)
        profile = csp.classify_label_cover(rho2.instance)
        details.update(
            vertices=len(rho2.instance.variables),
            alphabet=len(rho2.instance.alphabet),
            tags={t: rho1.tags.count(t) for t in sorted(set(rho1.tags))},
            d_to_d=(profile.d_to_d.m, profile.d_to_d.d) if profile.d_to_d else None,
            perfect_rho1=perfect_rho1.summary(),
            perfect_rho2=perfect_rho2.summary(),
            level1_commutators=level1.summary(),
            level1_note=_level1_note(system, sat, level1.passed),
        )
    if not (perfect_rho1.perfect and perfect_rho2.perfect):
        report.verdict = "FAIL at the rho stage"
        return report

    with report.stage("eta-colouring") as details:
        eta, coloured, ctx = colouring.eta_quantum_transfer(rho2.instance, transferred, 0)
        colours = 2 * ctx.d
        verification = qop.verify_assignment(eta, clique(colours), coloured, 0)
        bipartite, lower_bound = _chromatic_lower_bound(eta)
        details.update(
            vertices=len(eta.domain),
            edges=len(eta.relations["E"]),
            dim=coloured.dim,
            verification=verification.summary(),
            chromatic_lower_bound=lower_bound,
            bipartite=bipartite,
            soundness_note=_soundness_note(bipartite, lower_bound, profile.bipartite is not None),
        )
    report.write("rho_assignment.json", serialize.assignment_to_dict, transferred)
    report.write("rho2_instance.json", serialize.instance_to_dict, rho2.instance)
    report.verdict = (
        f"perfect quantum {colours}-colouring on dim {coloured.dim} (exact-zero forbidden "
        "products); level-1 commutation " + ("holds" if level1.passed else "fails as recorded")
        if verification.perfect
        else "FAIL at the eta stage"
    )
    return report


def _level1_note(system: dkkms.XorSystem, sat: Fraction, passed: bool) -> str:
    """What the level-1 check of the transferred strategy shows.  A failure
    is intrinsic when the system has no classical solution and any two of
    its variables lie in equations that share a variable: a perfect
    level-1-compatible family would make all variable observables commute,
    and a common eigenvector would solve the system."""
    if passed:
        return "the transferred strategy is level-1 compatible"
    scopes = [set(scope) for scope, _ in system.equations]
    near = [set().union(*(f for e in scopes if v in e for f in scopes if e & f)) for v in system.variables]
    if sat < 1 and all(len(n) == len(system.variables) for n in near):
        return (
            "commutator failures are intrinsic: a perfect level-1-compatible "
            "family for this instance would force a classical solution"
        )
    return "commutator failures are recorded, not shown intrinsic"


def _soundness_note(bipartite: bool, lower_bound: int, split: bool) -> str:
    """What the eta digraph shows about classical colourings; `split` says
    that every 2-to-2 constraint runs from one side to the other."""
    if not bipartite:
        head = f"is not bipartite (a clique probe bounds its chromatic number below by {lower_bound})"
    elif split:
        head = "is bipartite (the reduction's constraint graph splits into row and column tuples)"
    else:
        head = "is bipartite"
    return (
        f"at one repetition the reduced graph {head}; large classical chromatic "
        "number only emerges asymptotically and is not claimed here"
    )


_CLIQUE_TRIES = 64


def _chromatic_lower_bound(X: relstruct.RelStructure) -> tuple[bool, int]:
    """(bipartite, lower bound): a BFS 2-colouring, and for a graph that is
    not bipartite a greedy clique probe from the highest-degree vertices."""
    if relstruct.is_bipartite(X):  # so loop-free: any edge needs two colours
        return True, 2 if X.relations[X.graph_symbol()] else 1
    adj = X.gaifman_adjacency()
    best_clique = 3
    by_degree = sorted(X.domain, key=lambda v: -len(adj[v]))[:_CLIQUE_TRIES]
    neighbour_sets: dict = {}

    def nbrs(w):
        if w not in neighbour_sets:
            neighbour_sets[w] = set(adj[w])
        return neighbour_sets[w]

    for v in by_degree:
        members = [v]
        for u in adj[v]:
            if all(u in nbrs(w) for w in members):
                members.append(u)
        best_clique = max(best_clique, len(members))
    return False, best_clique


def machinery_seed_instance(seed: int) -> tuple[csp.CspInstance, dict]:
    """A tiny satisfiable d-to-1 instance (d = 2, one right vertex, single-
    letter right alphabet) with seed-dependent weights, plus a perfect
    classical assignment."""
    rng = random.Random(seed)
    pred = {("a0", "b0"), ("a1", "b0")}
    # weights bounded so the copy counts of the equalisation stage stay >= 1
    w1 = Fraction(rng.randint(1, 3), 1)
    w2 = Fraction(rng.randint(1, 3), 1)
    inst = csp.CspInstance(
        ["p", "q", "y"],
        ["a0", "a1", "b0"],
        [(("p", "y"), pred), (("q", "y"), pred)],
        [w1, w2],
    )
    assignment = {"p": "a0", "q": rng.choice(["a0", "a1"]), "y": "b0"}
    return inst, assignment


@_collector_paused
def pipeline_machinery(i: int = 2, seed: int = 0, *, outdir: Optional[str] = None) -> PipelineReport:
    """Classically-lifted end-to-end run of the full reduction machinery,
    with the compatibility ledger 3*2^i - 2 -> ... -> 1 enforced by verifier
    runs at every step (i = 2 gives 10 -> 4 -> 1)."""
    if i != 2:
        raise dmr.SizeBudgetExceeded("the desk-scale machinery run supports i = 2")
    report = PipelineReport("thm14", seed, outdir=outdir)
    k_ladder = (10, 4, 1)  # 3 * 2^i - 2 at i = 2, then k -> (k - 2) / 2 per line digraph

    with report.stage("dmr-chain") as details:
        inst, classical = machinery_seed_instance(seed)
        lift = qop.lift_classical(classical)
        final, dmr_report, tracked = dmr.dmr_pipeline(
            inst, Fraction(12), k_ladder[0], 1, lift, budget=_MACHINERY_BUDGET
        )
        details.update(
            parameters={k: str(v) for k, v in dmr_report.parameters.items()},
            certificates=dmr_report.certificates,
            quantum=dmr_report.quantum_ledger,
            final=repr(final),
        )

    with report.stage("eta") as details:
        eta, eta_assignment, ctx = colouring.eta_quantum_transfer(final, tracked, k_ladder[0])
        eta, mapping = relabel(eta, "g")
        eta_assignment = eta_assignment.renamed(mapping)
        k4 = clique(4)
        check0 = qop.verify_assignment(eta, k4, eta_assignment, k_ladder[0])
        details.update(
            vertices=len(eta.domain),
            edges=len(eta.relations["E"]),
            level=k_ladder[0],
            verification=check0.summary(),
        )

    current_x, current_y = eta, k4
    current = eta_assignment
    ledger = [k_ladder[0]]
    for step, k_next in enumerate(k_ladder[1:], start=1):
        with report.stage(f"line-digraph-{step}") as details:
            line_x = colouring.line_digraph(current_x)
            transferred = colouring.linedigraph_quantum_transfer(
                current_x, current_y, current, k_next, gamma_x=line_x
            )
            current_y = colouring.line_digraph(current_y)
            current_x, mapping = relabel(line_x, f"d{step}_")
            current = transferred.renamed(mapping)
            check = qop.verify_assignment(current_x, current_y, current, k_next)
            ledger.append(k_next)
            details.update(
                vertices=len(current_x.domain),
                edges=current_x.count("E"),
                level=k_next,
                verification=check.summary(),
            )
        if not check.passed:
            report.verdict = f"FAIL at line-digraph step {step}"
            return report

    with report.stage("three-colouring") as details:
        # current_y is delta^2 K4 as the last transfer named it, so the colouring composes
        chi = relstruct.chromatic_number(current_y, 4)
        to_k3 = relstruct.find_homomorphism(current_y, clique(3))
        final_assignment = qop.compose_sandwich(
            {v: v for v in current.pvms}, current, to_k3, k=0
        )
        check_final = qop.verify_assignment(current_x, clique(3), final_assignment, 0)
        details.update(
            chi_delta2_k4=chi if chi is not ABOVE_CAP else "above cap",
            ledger=ledger,
            verification=check_final.summary(),
            final_bipartite=relstruct.is_bipartite(current_x),
            bipartite_note="a bipartite output would already be quantum 2-colourable",
        )
    report.write("three_colouring_witness.json", serialize.assignment_to_dict, final_assignment)
    report.write("final_digraph.json", serialize.structure_to_dict, current_x)
    report.verdict = (
        f"ledger {'->'.join(map(str, ledger))}; verified 3-colouring witness"
        if check_final.passed and chi == 3
        else "FAIL at the final colouring stage"
    )
    return report
