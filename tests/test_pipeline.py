"""The thm15 runner on satisfiable systems and on a rejected strategy.

The reference-mode run calls `pipeline_thm15` twice per system with a
classical-lift game strategy: once on the fast layers, and once with each
fast layer rebound, in every `chromagap` module, to its `tests/helpers.py`
reference (as `benchmarks/tracer.py` rebinds its wrappers).  The two
reports must agree once `seconds` is stripped, and every conclusion in
them must be the one the run supports.
"""

import itertools
import random
import sys

import pytest

from chromagap import colouring, dkkms, pipeline, pultr, qop, relstruct
from chromagap.dkkms import XorSystem
from helpers import (
    random_regular_system,
    reference_build_rho1,
    reference_chromatic_lower_bound,
    reference_eta_apply,
    reference_is_bipartite,
    reference_lambda_quotient,
    reference_left_apply,
    reference_transfer_lambda,
    reference_verify_assignment,
    reference_xi_colouring,
)

# each fast layer, by module and name, and the reference that replaces it
REFERENCES = {
    (pultr, "left_apply"): reference_left_apply,
    (pultr, "transfer_lambda"): reference_transfer_lambda,
    (pultr, "lambda_quotient"): reference_lambda_quotient,
    (colouring, "eta_apply"): reference_eta_apply,
    (colouring, "xi_colouring"): reference_xi_colouring,
    (qop, "verify_assignment"): reference_verify_assignment,
    (dkkms, "build_rho1"): reference_build_rho1,
    (relstruct, "is_bipartite"): reference_is_bipartite,
    (pipeline, "_chromatic_lower_bound"): reference_chromatic_lower_bound,
}

# satisfiable regular systems whose equations meet, so 2-to-2 constraints
# survive: a path of two equations, a 4-cycle, and the triangle drawn by
# `random_regular_system(random.Random(0), 3, 7)`, whose eta digraph has an
# odd cycle
SYSTEMS = {
    "path": XorSystem.from_equations([(("a", "b", "c"), 0), (("c", "d", "e"), 1)]),
    "square": XorSystem.from_equations(
        [(("a", "b", "c"), 1), (("c", "d", "e"), 0), (("e", "f", "g"), 1), (("g", "h", "a"), 0)]
    ),
    "triangle": random_regular_system(random.Random(0), 3, 7),
}


def _chromagap_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "chromagap" or name.startswith("chromagap.")]


def _rebind_references(monkeypatch) -> None:
    """Bind each reference wherever a `chromagap` module binds the fast
    layer it replaces; no module keeps a fast one."""
    swaps = {id(getattr(module, name)): (getattr(module, name), ref) for (module, name), ref in REFERENCES.items()}
    for module in _chromagap_modules():
        for attr, value in list(vars(module).items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                monkeypatch.setattr(module, attr, hit[1])
    left = [(m.__name__, a) for m in _chromagap_modules() for a, v in vars(m).items() if id(v) in swaps]
    assert not left, left


def _classical_game_strategy(system: XorSystem) -> qop.QuantumAssignment:
    """The dimension-1 lift, in game form, of the first solution of `system`
    in binary order: each question gets the solution's values on its
    variables."""
    solution = next(
        values
        for bits in itertools.product((0, 1), repeat=len(system.variables))
        for values in [dict(zip(system.variables, bits))]
        if all(sum(map(values.__getitem__, scope)) % 2 == rhs for scope, rhs in system.equations)
    )
    return qop.lift_classical(
        {
            t: tuple(sorted((v, solution[v]) for v in dkkms.tuple_variables(system, t)))
            for t in dkkms.legitimate_tuples(system, 1)
        }
    )


def _without_seconds(report) -> dict:
    d = report.to_dict()
    d["stages"] = [{k: v for k, v in s.items() if k != "seconds"} for s in d["stages"]]
    return d


def test_thm15_runner_matches_its_reference_mode_run(monkeypatch):
    """Same report from the fast layers and from the references, on each
    system.  The systems are satisfiable, so no run is pseudo-telepathy and
    the level-1 check passes; the triangle's eta digraph is not bipartite,
    and its note says so."""
    strategies = {name: _classical_game_strategy(system) for name, system in SYSTEMS.items()}
    fast = {name: _without_seconds(pipeline.pipeline_thm15(SYSTEMS[name], strategies[name], 0)) for name in SYSTEMS}
    _rebind_references(monkeypatch)
    for name, system in SYSTEMS.items():
        assert _without_seconds(pipeline.pipeline_thm15(system, strategies[name], 0)) == fast[name], name

    for name, report in fast.items():
        square, rho, eta = report["stages"]
        assert report["verdict"] == (
            "perfect quantum 4-colouring on dim 1 (exact-zero forbidden products); level-1 commutation holds"
        )
        assert square["sat"] == "1" and square["pseudo_telepathic"] is False and square["dim"] == 1
        assert rho["level1_note"] == "the transferred strategy is level-1 compatible"
        assert eta["dim"] == 1 and eta["verification"].startswith("pass")
        note = eta["soundness_note"]
        if name == "triangle":
            assert eta["bipartite"] is False and eta["chromatic_lower_bound"] >= 3
            assert "not bipartite" in note and "is bipartite" not in note and "row and column" not in note
        else:
            assert eta["bipartite"] is True and "is bipartite" in note


def test_thm15_runner_stops_at_a_failed_game_check():
    """The magic square with two answers of its first row's question
    swapped: the game-form check fails, the run stops there, and no later
    stage is recorded."""
    system, strategy = qop.mermin_peres()
    pvms = {t: dict(fam) for t, fam in strategy.pvms.items()}
    first, second = list(pvms[(0,)])[:2]
    pvms[(0,)][first], pvms[(0,)][second] = pvms[(0,)][second], pvms[(0,)][first]
    report = pipeline.pipeline_thm15(system, qop.QuantumAssignment(strategy.dim, 0, pvms), 0)
    assert report.verdict == "FAIL at the magic-square stage"
    assert [s.name for s in report.stages] == ["magic-square"]
    assert report.stages[0].details["game_form"] == "FAIL"
    assert report.stages[0].details["pseudo_telepathic"] is False


def test_stage_records_only_a_body_that_returns(tmp_path):
    """A stage that raises leaves no record; `write` encodes and writes only
    with an outdir, creating it."""
    report = pipeline.PipelineReport("thm15", 0)
    with report.stage("kept") as details:
        details["x"] = 1
    with pytest.raises(RuntimeError):
        with report.stage("dropped"):
            raise RuntimeError("stage failed")
    assert [(s.name, s.details) for s in report.stages] == [("kept", {"x": 1})]

    def refuse(value):
        raise AssertionError("encoded without an outdir")

    report.write("a.json", refuse, None)
    report.outdir = str(tmp_path / "out")
    report.write("a.json", lambda value: {"v": value}, 3)
    assert (tmp_path / "out" / "a.json").read_text() == '{"v": 3}\n'
