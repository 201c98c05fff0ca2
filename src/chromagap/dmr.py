"""The d-to-1 to d-to-d preprocessing chain with quantum tracking.

Three stages: equalise the left marginals by vertex copying, force left-
regularity by edge-slot expansion, and collapse pairs of edges through a
shared right vertex into d-to-d constraints on the left part.  Each stage
carries an optional quantum assignment along (projectors are reused on
copies; the collapse first cleans cross-part projectors, then restricts to
the left alphabet), with compatibility 2k in and 2k, 2k, k out per stage.
The classical soundness bounds of the chain are asymptotic counting facts,
not decided at desk scale; the pipeline verifies only the structural
certificates (uniform marginals, left-regularity, the d-to-d certificate)
plus the quantum ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .csp import CspInstance, classify_label_cover, to_structures
from .qop import QuantumAssignment, VerificationFailure, cleanup_bipartite, verify_assignment
from .relstruct import SizeBudgetExceeded


class ZeroCopyCount(Exception):
    pass


class NotLeftRegular(Exception):
    pass


class NotDto1(Exception):
    pass


def _marginals(inst: CspInstance, left: frozenset) -> dict:
    pi: dict = {x: Fraction(0) for x in left}
    for c in inst.constraints:
        pi[c.scope[0]] += c.weight
    return pi


def equalize_marginals(
    inst: CspInstance,
    h: int,
    assignment: Optional[QuantumAssignment] = None,
) -> tuple[CspInstance, Optional[QuantumAssignment]]:
    """Replace each left vertex x by floor(h * |X1| * pi_x) copies carrying
    weight pi(x, y) / (|X1'| * pi_x); the new left marginals are exactly
    uniform.  A zero copy count rejects the instance: the construction would
    silently orphan the vertex."""
    profile = classify_label_cover(inst)
    if profile.bipartite is None:
        raise NotDto1("marginal equalisation needs a bipartite instance")
    left, right = profile.bipartite
    pi = _marginals(inst, left)
    counts = {x: math.floor(h * len(left) * pi[x]) for x in left}
    bad = [x for x, a in counts.items() if a == 0]
    if bad:
        raise ZeroCopyCount(f"vertices {bad[:3]!r} would get zero copies")
    total_copies = sum(counts.values())
    copy_vars = [
        (x, i) for x in inst.variables if x in left for i in range(1, counts[x] + 1)
    ]
    variables = copy_vars + [x for x in inst.variables if x in right]
    scopes = []
    weights = []
    for c in inst.constraints:
        x, y = c.scope
        for i in range(1, counts[x] + 1):
            scopes.append((((x, i), y), c.allowed))
            weights.append(c.weight / (total_copies * pi[x]))
    out = CspInstance(variables, inst.alphabet, scopes, weights)
    new_pi = _marginals(out, frozenset(copy_vars))
    if any(v != Fraction(1, total_copies) for v in new_pi.values()):
        raise VerificationFailure("marginals failed to equalise exactly")
    transferred = None
    if assignment is not None:
        pvms = {(x, i): dict(assignment.pvms[x]) for (x, i) in copy_vars}
        pvms.update({y: dict(assignment.pvms[y]) for y in inst.variables if y in right})
        transferred = QuantumAssignment(assignment.dim, assignment.k, pvms)
    return out, transferred


def left_regularize(
    inst: CspInstance,
    ell: int,
    m: int,
    assignment: Optional[QuantumAssignment] = None,
    *,
    budget: Optional[int] = None,
) -> tuple[CspInstance, Optional[QuantumAssignment]]:
    """Unweighted left-regular form: each left vertex x gets one variable
    (x, i_vec) per ell-tuple of edge slots drawn from a length-(m * |X2|)
    neighbour list; slot counts floor(alpha * pi(e)) per non-reserved edge,
    the lexicographically least incident edge absorbing the remainder."""
    profile = classify_label_cover(inst)
    if profile.bipartite is None or profile.d_to_1 is None:
        raise NotDto1("left regularisation expects a d-to-1 instance")
    left, right = profile.bipartite
    pi = _marginals(inst, left)
    if len({pi[x] for x in left}) != 1:
        raise VerificationFailure("left marginals must be uniform before this stage")
    right_order = {y: i for i, y in enumerate(inst.variables) if y in right}
    alpha = m * len(right)
    if budget is not None and len(left) * alpha**ell > budget:
        raise SizeBudgetExceeded(f"{len(left)} * {alpha}^{ell} left vertices exceed budget")

    incident: dict = {x: [] for x in left}
    for idx, c in enumerate(inst.constraints):
        incident[c.scope[0]].append((right_order[c.scope[1]], idx, c))
    neighbour_lists: dict = {}
    for x in left:
        edges = sorted(incident[x], key=lambda e: (e[0], e[1]))
        if not edges:
            raise ZeroCopyCount(f"left vertex {x!r} has no incident edge")
        reserved = edges[0]
        slots = []
        used = 0
        for e in edges:
            if e is reserved:
                continue
            count = math.floor(alpha * e[2].weight)
            used += count
            slots.append((e, count))
        if used > alpha:
            raise VerificationFailure("slot counts overflow the degree target")
        slots.insert(0, (reserved, alpha - used))
        ordered = sorted(slots, key=lambda s: (s[0][0], s[0][1]))
        listing = []
        for e, count in ordered:
            listing.extend([e[2]] * count)
        neighbour_lists[x] = listing

    variables = []
    scopes = []
    import itertools as _it

    for x in inst.variables:
        if x not in left:
            continue
        listing = neighbour_lists[x]
        for ivec in _it.product(range(alpha), repeat=ell):
            var = (x, ivec)
            variables.append(var)
            for j in range(ell):
                c = listing[ivec[j]]
                scopes.append(((var, c.scope[1]), c.allowed))
    variables.extend(y for y in inst.variables if y in right)
    out = CspInstance(variables, inst.alphabet, scopes)
    degrees = {}
    for c in out.constraints:
        degrees[c.scope[0]] = degrees.get(c.scope[0], 0) + 1
    if any(deg != ell for deg in degrees.values()):
        raise VerificationFailure("left degrees are not uniformly ell")
    transferred = None
    if assignment is not None:
        pvms = {}
        for var in out.variables:
            source = var if var in right else var[0]
            pvms[var] = dict(assignment.pvms[source])
        transferred = QuantumAssignment(assignment.dim, assignment.k, pvms)
    return out, transferred


def collapse_to_d2d(
    inst: CspInstance,
    assignment: Optional[QuantumAssignment] = None,
) -> tuple[CspInstance, Optional[QuantumAssignment]]:
    """Join every ordered pair of distinct edge instances through a common
    right vertex into one constraint on the left part, with the composed
    predicate; the result is d-to-d with blocks of size d.  A supplied
    assignment is first cleaned of cross-part projectors, then restricted to
    the left alphabet; Gaifman distances halve, so 2k-compatibility in gives
    k out."""
    profile = classify_label_cover(inst)
    if profile.d_to_1 is None or profile.projective is None or profile.bipartite is None:
        raise NotDto1("collapse expects a d-to-1 instance")
    left, right = profile.bipartite
    a1, a2 = profile.projective
    degrees: dict = {}
    for c in inst.constraints:
        degrees[c.scope[0]] = degrees.get(c.scope[0], 0) + 1
    if len(set(degrees.values())) > 1:
        raise NotLeftRegular(f"left degrees {sorted(set(degrees.values()))}")
    if len({c.weight for c in inst.constraints}) > 1:
        raise NotLeftRegular("collapse expects an unweighted (uniform) instance")

    by_right: dict = {}
    for idx, c in enumerate(inst.constraints):
        by_right.setdefault(c.scope[1], []).append((idx, c))
    alphabet = [a for a in inst.alphabet if a in a1]
    variables = [x for x in inst.variables if x in left]
    scopes = []
    for y in inst.variables:
        if y not in right:
            continue
        edges = by_right.get(y, [])
        for ia, ca in edges:
            for ib, cb in edges:
                if ia == ib:
                    continue
                composed = frozenset(
                    (a, ap)
                    for a in alphabet
                    for ap in alphabet
                    if any(
                        (a, b) in ca.allowed and (ap, b) in cb.allowed
                        for b in inst.alphabet
                        if b in a2
                    )
                )
                scopes.append(((ca.scope[0], cb.scope[0]), composed))
    out = CspInstance(variables, alphabet, scopes)
    out_profile = classify_label_cover(out)
    if out_profile.d_to_d is None:
        raise VerificationFailure("collapsed instance failed d-to-d certification")
    transferred = None
    if assignment is not None:
        cleaned = cleanup_bipartite(inst, profile, assignment)
        pvms = {
            x: {a: m for a, m in cleaned.pvms[x].items() if a in a1}
            for x in variables
        }
        transferred = QuantumAssignment(cleaned.dim, max(assignment.k // 2, 0), pvms)
    return out, transferred


@dataclass
class DmrReport:
    parameters: dict
    stage_sizes: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    quantum_ledger: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"parameters: {self.parameters}"]
        lines += [f"stage {name}: {size}" for name, size in self.stage_sizes]
        lines += [f"certificate {name}: {ok}" for name, ok in self.certificates]
        lines += [f"quantum {name}: {entry}" for name, entry in self.quantum_ledger]
        return "\n".join(lines)


def pipeline_parameters(eps: Fraction, t: int, d: int) -> dict:
    """The exact rational parameter cascade of the chained reduction; eps
    must be positive and t at least 1 (ValueError otherwise)."""
    eps = Fraction(eps)
    if eps <= 0 or t < 1:
        raise ValueError(f"need eps > 0 and t >= 1, got eps={eps}, t={t}")
    delta = eps / (3 * t**2)
    ell = math.ceil(1 / delta)
    eps1 = eps / (3 * d * ell**2 * t**2)
    eps2 = eps1 / 2
    eps3 = delta * eps2 / 2
    return {
        "eps": eps,
        "delta": delta,
        "eps_prime": eps1,
        "eps_double_prime": eps2,
        "eps_triple_prime": eps3,
        "h": 2,
        "ell": ell,
        "m": math.ceil(2 / eps1),
    }


def dmr_pipeline(
    inst: CspInstance,
    eps: Fraction,
    k: int,
    t: int,
    assignment: Optional[QuantumAssignment] = None,
    *,
    budget: Optional[int] = None,
) -> tuple[CspInstance, DmrReport, Optional[QuantumAssignment]]:
    """Chain the three stages with the exact parameter cascade; verify each
    stage's structural certificate, and when an assignment is tracked, run
    the verifier at the contracted levels (2k after the first two stages, k
    after the collapse).  A negative k raises ValueError."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    profile = classify_label_cover(inst)
    if profile.d_to_1 is None:
        raise NotDto1("the pipeline starts from a d-to-1 instance")
    params = pipeline_parameters(eps, t, profile.d_to_1)
    report = DmrReport(parameters=params)

    def record_quantum(name: str, stage_inst: CspInstance, q, level: int) -> None:
        if q is None:
            report.quantum_ledger.append((name, "not tracked"))
            return
        X, A = to_structures(stage_inst)
        rep = verify_assignment(X, A, q, level)
        report.quantum_ledger.append((name, f"level {level}: {rep.summary()}"))
        if not rep.passed:
            raise VerificationFailure(f"stage {name} lost the quantum certificate")

    stage1, q1 = equalize_marginals(inst, params["h"], assignment)
    report.stage_sizes.append(("marginals", repr(stage1)))
    report.certificates.append(("uniform-marginals", True))
    record_quantum("marginals", stage1, q1, 2 * k)

    stage2, q2 = left_regularize(stage1, params["ell"], params["m"], q1, budget=budget)
    report.stage_sizes.append(("left-regular", repr(stage2)))
    report.certificates.append(("left-regular", True))
    record_quantum("left-regular", stage2, q2, 2 * k)

    stage3, q3 = collapse_to_d2d(stage2, q2)
    report.stage_sizes.append(("d-to-d", repr(stage3)))
    report.certificates.append(
        ("d-to-d", classify_label_cover(stage3).d_to_d is not None)
    )
    record_quantum("d-to-d", stage3, q3, k)
    return stage3, report, q3
