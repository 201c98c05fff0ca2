import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromagap.f2linalg import (
    AmbientMismatch,
    ExtensionConflict,
    F2Ambient,
    F2Functional,
    F2Subspace,
    F2Vector,
    RespectViolation,
    _rref,
    eliminate_with_values,
    enumerate_subspaces,
    extend_functional,
    functional_from_constraints,
)
from helpers import (
    reference_evaluate_bits,
    reference_functional_from_constraints,
    reference_intersect,
    reference_rref,
)

AMB3 = F2Ambient(("x", "y", "z"))


def span(*supports):
    return F2Subspace.spanned_by([AMB3.vector(s) for s in supports])


def members(space: F2Subspace) -> set:
    return {v.bits for v in space.vectors()}


def test_self_intersection():
    U = span(("x", "y"), ("z",))
    assert U.intersect(U).equals(U)


def test_sum_of_unit_spans():
    U = span(("x",))
    V = span(("y",))
    assert U.sum(V).dim == 2


def test_intersection_matches_enumeration():
    U = span(("x", "y"))
    V = span(("x",))
    inter = U.intersect(V)
    assert inter.dim == 0
    # oracle: enumerate the 4 + 2 member vectors
    assert members(U) & members(V) == {0}


def test_contains_and_equals_canonical():
    U = span(("x", "y"), ("y", "z"))
    V = span(("x", "z"), ("y", "z"))
    assert U.equals(V) == (U.basis == V.basis)
    assert U.contains(AMB3.vector(("x", "y")))
    assert not U.contains(AMB3.vector(("x",)))


def test_ambient_mismatch():
    other = F2Ambient(("p", "q"))
    with pytest.raises(AmbientMismatch):
        span(("x",)).sum(F2Subspace.spanned_by([other.vector(("p",))]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dimension_formula_random_pairs(data):
    amb = F2Ambient(tuple(f"v{i}" for i in range(9)))
    def rand_space():
        k = data.draw(st.integers(0, 4))
        vecs = [
            F2Vector(amb, data.draw(st.integers(1, 2**9 - 1))) for _ in range(k)
        ]
        if not vecs:
            return F2Subspace.zero(amb)
        return F2Subspace.spanned_by(vecs)

    U, V = rand_space(), rand_space()
    assert U.sum(V).dim + U.intersect(V).dim == U.dim + V.dim


def test_enumerate_dimension_zero():
    full = F2Subspace.full(AMB3)
    out = enumerate_subspaces(full, 0)
    assert len(out) == 1 and out[0].dim == 0


def test_enumerate_planes_avoiding_vector():
    full = F2Subspace.full(AMB3)
    avoid = span(("x", "y", "z"))
    out = enumerate_subspaces(full, 2, avoid)
    assert len(out) == 4  # 7 planes in F2^3, 3 contain a fixed nonzero vector
    all_planes = enumerate_subspaces(full, 2)
    assert len(all_planes) == 7
    # oracle on the avoided ones
    for plane in all_planes:
        contains = avoid.basis[0] in members(plane)
        assert contains == (plane not in out)


def test_enumerate_avoid_everything():
    full = F2Subspace.full(AMB3)
    assert enumerate_subspaces(full, 1, full) == []


def test_enumeration_has_no_duplicates():
    amb = F2Ambient(tuple(f"v{i}" for i in range(4)))
    full = F2Subspace.full(amb)
    out = enumerate_subspaces(full, 2)
    assert len({s.basis for s in out}) == len(out) == 35


def test_functional_evaluation_by_back_substitution():
    U = span(("x", "y"), ("z",))
    psi = F2Functional(U, (1, 0))
    assert psi.evaluate(AMB3.vector(("x", "y"))) == 1
    assert psi.evaluate(AMB3.vector(("z",))) == 0
    assert psi.evaluate(AMB3.vector(("x", "y", "z"))) == 1
    with pytest.raises(AmbientMismatch):
        psi.evaluate(AMB3.vector(("x",)))


def test_extend_with_same_conditions_is_identity():
    U = span(("x", "y"))
    psi = F2Functional(U, (1,))
    cond = [(AMB3.vector(("x", "y")), 1)]
    out = extend_functional(psi, cond, cond)
    assert out.domain.equals(U)
    assert out.values == psi.values


def test_extend_disjoint_single_equations_forced():
    amb = F2Ambient(tuple("abcdef"))
    u_vec = amb.vector(("a", "b", "c"))
    w_vec = amb.vector(("d", "e", "f"))
    low = F2Subspace.spanned_by([amb.vector(("a",)), amb.vector(("b",))])
    domain = low.sum(F2Subspace.spanned_by([u_vec]))
    psi = functional_from_constraints(
        [(amb.vector(("a",)).bits, 1), (amb.vector(("b",)).bits, 0), (u_vec.bits, 1)],
        amb,
    )
    out = extend_functional(psi, [(u_vec, 1)], [(w_vec, 0)])
    assert out.domain.dim == domain.dim + 1
    assert out.evaluate(w_vec) == 0
    assert out.evaluate(u_vec) == 1
    # brute-force: the extension respecting the new condition is unique
    candidates = 0
    for bit in (0, 1):
        try:
            cand = extend_functional(psi, [(u_vec, 1)], [(w_vec, bit)])
        except ExtensionConflict:
            continue
        if cand.evaluate(w_vec) == 0:
            candidates += 1
    assert candidates == 1


def test_respect_violation_raises():
    U = span(("x", "y"))
    psi = F2Functional(U, (1,))
    with pytest.raises(RespectViolation):
        extend_functional(psi, [(AMB3.vector(("x", "y")), 0)], [])


def test_extension_conflict_raises():
    with pytest.raises(ExtensionConflict):
        functional_from_constraints(
            [(AMB3.vector(("x",)).bits, 1), (AMB3.vector(("x",)).bits, 0)], AMB3
        )


def test_canonical_rref_under_random_generators():
    rng = random.Random(9)
    amb = F2Ambient(tuple(f"v{i}" for i in range(6)))
    for _ in range(30):
        vecs = [F2Vector(amb, rng.randrange(1, 64)) for _ in range(rng.randint(1, 4))]
        space = F2Subspace.spanned_by(vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        again = F2Subspace.spanned_by(shuffled)
        assert space.basis == again.basis
        for v in space.vectors():
            assert space.contains(v)


def test_elimination_matches_the_reference_on_random_inputs():
    """The pivot-keyed elimination against the parent's re-sorting one:
    equal canonical bases, intersections, functionals and values, and the
    same errors on inconsistent constraints and on vectors outside the
    domain."""
    rng = random.Random(25)
    conflicts = outside = inside = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        amb = F2Ambient(tuple(f"v{i}" for i in range(n)))
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(0, n + 2))]
        # some rows are sums of earlier ones, so that values can conflict
        for _ in range(rng.randint(0, 3) if rows else 0):
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        assert _rref(rows) == reference_rref(rows)
        U = F2Subspace(amb, _rref(rows[: len(rows) // 2]))
        V = F2Subspace(amb, _rref(rows[len(rows) // 2 :]))
        assert U.intersect(V).basis == reference_intersect(U, V).basis
        constraints = [(r, rng.randint(0, 1)) for r in rows]
        try:
            expected = reference_functional_from_constraints(constraints, amb)
        except ExtensionConflict:
            conflicts += 1
            with pytest.raises(ExtensionConflict):
                functional_from_constraints(constraints, amb)
            continue
        psi = functional_from_constraints(constraints, amb)
        assert (psi.domain.basis, psi.values) == (expected.domain.basis, expected.values)
        for _ in range(8):
            bits = rng.randrange(1 << n)
            try:
                value = reference_evaluate_bits(psi, bits)
            except AmbientMismatch:
                outside += 1
                with pytest.raises(AmbientMismatch):
                    psi.evaluate_bits(bits)
                continue
            inside += 1
            assert psi.evaluate_bits(bits) == psi.evaluate(F2Vector(amb, bits)) == value
    assert conflicts >= 100 and outside >= 300 and inside >= 300


def test_value_columns_match_the_reference_letter_by_letter():
    """One elimination with ell + 1 value columns against the reference
    functional construction run once per letter a, whose prescribed values
    are the parities of the row words masked by a | 1 << ell: the same
    basis, letter a's values read from the words the same way, and
    ExtensionConflict exactly when some letter's system raises it."""
    rng = random.Random(7)
    consistent = every_letter = some_letters = 0
    for _ in range(300):
        ell = rng.randint(1, 3)
        n = rng.randint(1, 8)
        amb = F2Ambient(tuple(f"v{i}" for i in range(n)))
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(0, n + 1))]
        # some rows are sums of earlier ones, so that values can conflict
        for _ in range(rng.randint(0, 3) if rows else 0):
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        words = [rng.randrange(1 << (ell + 1)) for _ in rows]
        expected = {}
        for a in range(2**ell):
            selector = a | 1 << ell
            try:
                expected[a] = reference_functional_from_constraints(
                    [(r, (w & selector).bit_count() & 1) for r, w in zip(rows, words)], amb
                )
            except ExtensionConflict:
                pass
        if len(expected) < 2**ell:
            if expected:
                some_letters += 1
            else:
                every_letter += 1
            with pytest.raises(ExtensionConflict):
                eliminate_with_values([r | w << n for r, w in zip(rows, words)], amb)
            continue
        consistent += 1
        domain, out = eliminate_with_values([r | w << n for r, w in zip(rows, words)], amb)
        for a, psi in expected.items():
            assert domain.basis == psi.domain.basis
            assert tuple((w & (a | 1 << ell)).bit_count() & 1 for w in out) == psi.values
    assert consistent >= 60 and every_letter >= 60 and some_letters >= 100
