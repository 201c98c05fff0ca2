"""Differential tests: the integer projector kernel against entry-by-entry
`Fraction` arithmetic from `helpers`, on dims 1-4 with denominators
1, 2, 4, 5 and 25, zero, identity, diagonal and Hermitian matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromagap.qop import GQ, PMatrix, _kron
from helpers import (
    ref_add,
    ref_conj_transpose,
    ref_diag_support,
    ref_identity,
    ref_is_hermitian,
    ref_is_identity,
    ref_is_zero,
    ref_kron,
    ref_matmul,
    ref_scale,
    ref_sub,
    ref_trace,
    ref_zero,
)

DENOMINATORS = (1, 2, 4, 5, 25)

fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS))
scalars = st.one_of(
    st.just((Fraction(0), Fraction(0))),
    st.tuples(fractions, st.just(Fraction(0))),
    st.tuples(fractions, fractions),
)


@st.composite
def ref_matrices(draw, n):
    kind = draw(st.sampled_from(("zero", "identity", "diagonal", "hermitian", "dense")))
    if kind == "zero":
        return ref_zero(n)
    if kind == "identity":
        return ref_identity(n)
    rows = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    if kind == "diagonal":
        rows = [[rows[i][j] if i == j else (Fraction(0), Fraction(0)) for j in range(n)] for i in range(n)]
    m = tuple(tuple(row) for row in rows)
    if kind == "hermitian":
        m = ref_add(m, ref_conj_transpose(m))
    return m


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(ref_matrices(n)), draw(ref_matrices(n))


def kernel(ref: tuple) -> PMatrix:
    return PMatrix([[GQ(re, im) for re, im in row] for row in ref])


def view(m: PMatrix) -> tuple:
    return tuple(tuple((e.re, e.im) for e in row) for row in m.entries)


def same(m: PMatrix, ref: tuple) -> bool:
    """The kernel result matches the reference entry by entry, and equals
    (with the same hash) the matrix built directly from the reference."""
    direct = kernel(ref)
    return view(m) == ref and m == direct and hash(m) == hash(direct)


DIFFERENTIAL = settings(max_examples=150, deadline=None)


@DIFFERENTIAL
@given(matrix_pairs())
def test_binary_operations_match_reference(pair):
    ra, rb = pair
    a, b = kernel(ra), kernel(rb)
    assert view(a) == ra and view(b) == rb
    assert same(a @ b, ref_matmul(ra, rb))
    assert same(a + b, ref_add(ra, rb))
    assert same(a - b, ref_sub(ra, rb))
    assert (a == b) == (ra == rb)
    if ra == rb:
        assert hash(a) == hash(b)


@DIFFERENTIAL
@given(matrix_pairs(), scalars)
def test_unary_operations_match_reference(pair, c):
    ra, _ = pair
    a = kernel(ra)
    assert same(a.scale(GQ(*c)), ref_scale(ra, c))
    tr = a.trace()
    assert isinstance(tr, GQ) and (tr.re, tr.im) == ref_trace(ra)
    assert a.is_zero() == ref_is_zero(ra)
    assert a.is_hermitian() == ref_is_hermitian(ra)
    assert a.is_identity() == ref_is_identity(ra)
    assert a.diag_support() == ref_diag_support(ra)


@DIFFERENTIAL
@given(matrix_pairs(), matrix_pairs())
def test_kron_matches_reference(p, q):
    assert same(_kron(kernel(p[0]), kernel(q[0])), ref_kron(p[0], q[0]))


@DIFFERENTIAL
@given(matrix_pairs())
def test_canonical_form_is_path_independent(pair):
    """Results reached by different routes are equal and hash alike."""
    ra, rb = pair
    a, b = kernel(ra), kernel(rb)
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)
    fifth = GQ(Fraction(1, 5))
    rescaled = a.scale(GQ(5)).scale(fifth)
    assert rescaled == a and hash(rescaled) == hash(a)
    assert (a - a) == PMatrix.zeros(a.dim) and (a - a).is_zero()


def test_zero_and_identity_constructors_match_reference():
    for n in range(1, 5):
        assert same(PMatrix.zeros(n), ref_zero(n))
        assert same(PMatrix.identity(n), ref_identity(n))
        assert PMatrix.identity(n).is_identity()
        assert PMatrix.zeros(n).diag_support() == frozenset()


def test_entries_view_is_read_only_tuples():
    m = PMatrix.from_rows([[Fraction(1, 2), (0, Fraction(-1, 4))], [(0, Fraction(1, 4)), 1]])
    assert isinstance(m.entries, tuple) and all(isinstance(row, tuple) for row in m.entries)
    with pytest.raises(AttributeError):
        m.entries = ()


@pytest.mark.parametrize("bad", [1, Fraction(1, 2), 0.5, 1j, (1, 0), "1"])
def test_non_gq_entry_raises_type_error_naming_it(bad):
    with pytest.raises(TypeError) as err:
        PMatrix([[GQ(1), GQ(0)], [GQ(0), bad]])
    assert "(1, 1)" in str(err.value) and repr(bad) in str(err.value)
