import math
from fractions import Fraction

import pytest

from chromagap.csp import CspInstance, classify_label_cover, to_structures
from chromagap.dmr import (
    NotDto1,
    NotLeftRegular,
    ZeroCopyCount,
    collapse_to_d2d,
    dmr_pipeline,
    equalize_marginals,
    left_regularize,
    pipeline_parameters,
)
from chromagap.qop import lift_classical, verify_assignment


def d_to_1_instance(w1=Fraction(1, 3), w2=Fraction(2, 3)):
    pred = {("a0", "b0"), ("a1", "b0"), ("a2", "b1"), ("a3", "b1")}
    return CspInstance(
        ["p", "q", "y"],
        ["a0", "a1", "a2", "a3", "b0", "b1"],
        [(("p", "y"), pred), (("q", "y"), pred)],
        [w1, w2],
    )


def classical_lift():
    return lift_classical({"p": "a0", "q": "a1", "y": "b0"})


def test_equalize_copy_counts_and_marginals():
    inst = d_to_1_instance()
    out, _ = equalize_marginals(inst, 3)
    copies = [v for v in out.variables if isinstance(v, tuple)]
    by_base = {}
    for (x, i) in copies:
        by_base.setdefault(x, []).append(i)
    assert sorted(len(v) for v in by_base.values()) == [2, 4]
    marginals = {}
    for c in out.constraints:
        marginals[c.scope[0]] = marginals.get(c.scope[0], Fraction(0)) + c.weight
    assert set(marginals.values()) == {Fraction(1, 6)}


def test_equalize_zero_copy_rejected():
    inst = d_to_1_instance(Fraction(1, 10), Fraction(9, 10))
    with pytest.raises(ZeroCopyCount):
        equalize_marginals(inst, 2)


def test_equalize_transfers_lift_perfectly():
    inst = d_to_1_instance()
    out, q = equalize_marginals(inst, 3, classical_lift())
    X, A = to_structures(out)
    assert verify_assignment(X, A, q, 2).passed


def test_left_regularize_degrees():
    inst = d_to_1_instance()
    stage1, q1 = equalize_marginals(inst, 3, classical_lift())
    stage2, q2 = left_regularize(stage1, 2, 1, q1)
    degrees = {}
    for c in stage2.constraints:
        degrees[c.scope[0]] = degrees.get(c.scope[0], 0) + 1
    left = [v for v in stage2.variables if v not in ("y",)]
    assert all(degrees[v] == 2 for v in left)
    assert {c.weight for c in stage2.constraints} == {
        Fraction(1, len(stage2.constraints))
    }
    X, A = to_structures(stage2)
    assert verify_assignment(X, A, q2, 2).passed


def test_left_regularize_needs_uniform_marginals():
    from chromagap.qop import VerificationFailure

    with pytest.raises(VerificationFailure):
        left_regularize(d_to_1_instance(), 1, 1)


def test_collapse_composes_predicates():
    pred = {("a0", "b0"), ("a1", "b1")}  # 1-to-1 style
    inst = CspInstance(
        ["p", "q", "y"],
        ["a0", "a1", "b0", "b1"],
        [(("p", "y"), pred), (("q", "y"), pred)],
    )
    out, _ = collapse_to_d2d(inst)
    assert set(out.variables) == {"p", "q"}
    for c in out.constraints:
        assert c.allowed == frozenset({("a0", "a0"), ("a1", "a1")})
    profile = classify_label_cover(out)
    assert profile.d_to_d is not None and profile.d_to_d.d == 1


def test_collapse_certifies_d_to_d_and_transfers():
    inst = d_to_1_instance(Fraction(1, 2), Fraction(1, 2))
    stage1, q1 = equalize_marginals(inst, 2, classical_lift())
    stage2, q2 = left_regularize(stage1, 1, 1, q1)
    out, q3 = collapse_to_d2d(stage2, q2)
    profile = classify_label_cover(out)
    assert profile.d_to_d is not None and profile.d_to_d.d == 2
    X, A = to_structures(out)
    assert verify_assignment(X, A, q3, 1).passed


def test_collapse_rejects_irregular_left_side():
    pred = {("a0", "b0"), ("a1", "b0")}
    inst = CspInstance(
        ["p", "q", "y", "z"],
        ["a0", "a1", "b0"],
        [(("p", "y"), pred), (("q", "y"), pred), (("p", "z"), pred)],
    )
    with pytest.raises(NotLeftRegular):
        collapse_to_d2d(inst)


def test_parameter_cascade_exact():
    """The rational cascade recomputed independently, digit for digit."""
    params = pipeline_parameters(Fraction(1, 2), 2, 2)
    eps = Fraction(1, 2)
    delta = eps / 12
    assert params["delta"] == delta == Fraction(1, 24)
    ell = math.ceil(1 / delta)
    assert params["ell"] == ell == 24
    eps1 = eps / (3 * 2 * ell**2 * 4)
    assert params["eps_prime"] == eps1 == Fraction(1, 27648)
    assert params["eps_double_prime"] == eps1 / 2 == Fraction(1, 55296)
    assert params["eps_triple_prime"] == delta * (eps1 / 2) / 2 == Fraction(1, 2654208)
    assert params["h"] == 2
    assert params["m"] == math.ceil(2 / eps1) == 55296


@pytest.mark.parametrize("eps, t", [(0, 1), (Fraction(-1, 2), 1), (Fraction(1, 2), 0), (12, -1)])
def test_parameter_cascade_rejects_eps_at_most_zero_and_t_below_one(eps, t):
    with pytest.raises(ValueError, match="need eps > 0 and t >= 1"):
        pipeline_parameters(eps, t, 2)


def test_pipeline_runs_with_desk_parameters():
    inst = d_to_1_instance(Fraction(1, 2), Fraction(1, 2))
    final, report, q = dmr_pipeline(inst, Fraction(12), 3, 1, classical_lift())
    assert [name for name, ok in report.certificates] == [
        "uniform-marginals",
        "left-regular",
        "d-to-d",
    ]
    assert all(ok for _, ok in report.certificates)
    levels = [entry.split(":")[0] for _, entry in report.quantum_ledger]
    assert levels == ["level 6", "level 6", "level 3"]
    assert classify_label_cover(final).d_to_d is not None


def test_pipeline_requires_d_to_1():
    # unique-game style (d = 1) runs through the chain too
    pred = {("a0", "b0"), ("a1", "b1")}
    inst = CspInstance(
        ["x", "x2", "y"],
        ["a0", "a1", "b0", "b1"],
        [(("x", "y"), pred), (("x2", "y"), pred)],
    )
    final, report, _ = dmr_pipeline(inst, Fraction(12), 1, 1)
    assert classify_label_cover(final).d_to_d is not None
    not_bip = CspInstance(["x"], [0], [(("x", "x"), {(0, 0)})])
    with pytest.raises(NotDto1):
        dmr_pipeline(not_bip, Fraction(12), 1, 1)


def test_pipeline_rejects_a_negative_level():
    inst = d_to_1_instance(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="k must be >= 0, got -3"):
        dmr_pipeline(inst, Fraction(12), -3, 1, classical_lift())
