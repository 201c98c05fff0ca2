"""Exact linear algebra over GF(2) with int bitsets.

Vectors are bitmasks over a fixed ambient coordinate list; subspaces carry a
canonical reduced-row-echelon basis with strictly increasing pivots, so two
equal subspaces always have identical basis tuples.  Linear functionals are
stored by their values on that canonical basis and evaluated elsewhere by
back-substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class AmbientMismatch(Exception):
    pass


class RespectViolation(Exception):
    pass


class ExtensionConflict(Exception):
    pass


@dataclass(frozen=True)
class F2Ambient:
    """Ordered coordinate names; index in `names` is the bit position."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be unique")

    @property
    def dim(self) -> int:
        return len(self.names)

    def unit(self, name: str) -> "F2Vector":
        return F2Vector(self, 1 << self.names.index(name))

    def vector(self, support: Iterable[str]) -> "F2Vector":
        bits = 0
        for name in support:
            bits ^= 1 << self.names.index(name)
        return F2Vector(self, bits)


@dataclass(frozen=True)
class F2Vector:
    ambient: F2Ambient
    bits: int

    def __post_init__(self) -> None:
        if self.bits >> self.ambient.dim:
            raise ValueError("vector has bits outside the ambient space")

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.ambient != other.ambient:
            raise AmbientMismatch("vectors live in different ambient spaces")
        return F2Vector(self.ambient, self.bits ^ other.bits)

    def support(self) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.ambient.names) if (self.bits >> i) & 1)

    def is_zero(self) -> bool:
        return self.bits == 0


def _pivot(bits: int) -> int:
    """Index of the lowest set bit."""
    return (bits & -bits).bit_length() - 1


def _rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced basis: pivots strictly increasing, each pivot bit
    cleared from every other row.  In RREF a reducing pass in ascending pivot
    order is complete, because rows only carry non-pivot bits besides their
    own pivot."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if (row >> _pivot(b)) & 1:
                row ^= b
        if row:
            p = _pivot(row)
            for i in range(len(basis)):
                if (basis[i] >> p) & 1:
                    basis[i] ^= row
            basis.append(row)
            basis.sort(key=_pivot)
    return tuple(basis)


@dataclass(frozen=True)
class F2Subspace:
    """A subspace of the ambient space in canonical RREF basis form."""

    ambient: F2Ambient
    basis: tuple[int, ...]

    @staticmethod
    def spanned_by(vectors: Sequence[F2Vector]) -> "F2Subspace":
        if not vectors:
            raise ValueError("need at least one vector to infer the ambient")
        ambient = vectors[0].ambient
        for v in vectors:
            if v.ambient != ambient:
                raise AmbientMismatch("spanning vectors in different ambients")
        return F2Subspace(ambient, _rref(v.bits for v in vectors))

    @staticmethod
    def zero(ambient: F2Ambient) -> "F2Subspace":
        return F2Subspace(ambient, ())

    @staticmethod
    def full(ambient: F2Ambient) -> "F2Subspace":
        return F2Subspace(ambient, tuple(1 << i for i in range(ambient.dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, bits: int) -> int:
        for b in self.basis:
            if (bits >> _pivot(b)) & 1:
                bits ^= b
        return bits

    def contains(self, v: F2Vector) -> bool:
        if v.ambient != self.ambient:
            raise AmbientMismatch("vector in a different ambient space")
        return self.reduce(v.bits) == 0

    def coordinates(self, bits: int) -> Optional[tuple[int, ...]]:
        """Coefficients of bits over the basis, or None if outside the span."""
        coeffs = []
        for b in self.basis:
            c = (bits >> _pivot(b)) & 1
            coeffs.append(c)
            if c:
                bits ^= b
        return tuple(coeffs) if bits == 0 else None

    def _check(self, other: "F2Subspace") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("subspaces in different ambient spaces")

    def sum(self, other: "F2Subspace") -> "F2Subspace":
        self._check(other)
        return F2Subspace(self.ambient, _rref(self.basis + other.basis))

    def intersect(self, other: "F2Subspace") -> "F2Subspace":
        """Zassenhaus: eliminate on the first block of [U|U; V|0]; rows whose
        first block vanished carry an intersection basis in the second."""
        self._check(other)
        n = self.ambient.dim
        rows = [b | (b << n) for b in self.basis] + [b for b in other.basis]
        echelon: list[int] = []
        for row in rows:
            for e in echelon:
                if (row >> _pivot(e)) & 1:
                    row ^= e
            if row:
                echelon.append(row)
                echelon.sort(key=_pivot)
        mask = (1 << n) - 1
        inter = [e >> n for e in echelon if (e & mask) == 0]
        return F2Subspace(self.ambient, _rref(inter))

    def equals(self, other: "F2Subspace") -> bool:
        self._check(other)
        return self.basis == other.basis

    def vectors(self) -> Iterable[F2Vector]:
        """All 2^dim member vectors."""
        for coeffs in itertools.product((0, 1), repeat=self.dim):
            bits = 0
            for c, b in zip(coeffs, self.basis):
                if c:
                    bits ^= b
            yield F2Vector(self.ambient, bits)


def enumerate_subspaces(
    restriction: F2Subspace, dim: int, avoid: Optional[F2Subspace] = None
) -> list[F2Subspace]:
    """All dim-dimensional subspaces of `restriction` meeting `avoid` only in
    zero, each exactly once, in a canonical deterministic order.

    Enumeration runs over RREF matrices in the coordinate space of the
    restriction's basis (one matrix per subspace), mapped back to the ambient.
    """
    if dim < 0 or dim > restriction.dim:
        return []
    if avoid is not None and avoid.ambient != restriction.ambient:
        raise AmbientMismatch("avoid-space in a different ambient")
    r = restriction.dim
    out: list[F2Subspace] = []
    for pivots in itertools.combinations(range(r), dim):
        free_positions: list[tuple[int, int]] = []
        for row_i, p in enumerate(pivots):
            for col in range(p + 1, r):
                if col not in pivots:
                    free_positions.append((row_i, col))
        for bits in itertools.product((0, 1), repeat=len(free_positions)):
            rows = [1 << p for p in pivots]
            for (row_i, col), val in zip(free_positions, bits):
                if val:
                    rows[row_i] |= 1 << col
            ambient_rows = []
            for row in rows:
                acc = 0
                for j in range(r):
                    if (row >> j) & 1:
                        acc ^= restriction.basis[j]
                ambient_rows.append(acc)
            space = F2Subspace(restriction.ambient, _rref(ambient_rows))
            if space.dim != dim:
                continue
            if avoid is not None and space.intersect(avoid).dim != 0:
                continue
            out.append(space)
    out.sort(key=lambda s: s.basis)
    return out


@dataclass(frozen=True)
class F2Functional:
    """A linear map domain -> GF(2), stored on the canonical basis."""

    domain: F2Subspace
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.domain.dim:
            raise ValueError("one value bit per basis vector required")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be bits")

    def evaluate(self, v: F2Vector) -> int:
        coeffs = self.domain.coordinates(v.bits)
        if coeffs is None:
            raise AmbientMismatch("vector outside the functional's domain")
        return sum(c & 1 for c, val in zip(coeffs, self.values) if val) & 1

    def evaluate_bits(self, bits: int) -> int:
        coeffs = self.domain.coordinates(bits)
        if coeffs is None:
            raise AmbientMismatch("vector outside the functional's domain")
        acc = 0
        for c, val in zip(coeffs, self.values):
            acc ^= c & val
        return acc

    def respects(self, conditions: Sequence[tuple[F2Vector, int]]) -> bool:
        """True iff the functional meets every (vector, bit) condition whose
        vector lies inside the domain."""
        for vec, bit in conditions:
            if self.domain.contains(vec) and self.evaluate(vec) != bit:
                return False
        return True


def functional_from_constraints(
    constraints: Sequence[tuple[int, int]], ambient: F2Ambient
) -> F2Functional:
    """The unique functional on span(vectors) with the prescribed values.

    Raises ExtensionConflict when the (vector, bit) system is inconsistent.
    """
    echelon: list[tuple[int, int]] = []
    for bits, val in constraints:
        for eb, ev in echelon:
            if (bits >> _pivot(eb)) & 1:
                bits ^= eb
                val ^= ev
        if bits == 0:
            if val:
                raise ExtensionConflict("inconsistent functional constraints")
            continue
        echelon.append((bits, val))
        echelon.sort(key=lambda r: _pivot(r[0]))
    space = F2Subspace(ambient, _rref(b for b, _ in echelon))

    def value_on(bits: int) -> int:
        acc = 0
        for eb, ev in echelon:
            if (bits >> _pivot(eb)) & 1:
                bits ^= eb
                acc ^= ev
        if bits:
            raise ExtensionConflict("basis vector escapes the echelon span")
        return acc

    return F2Functional(space, tuple(value_on(b) for b in space.basis))


def extend_functional(
    psi: F2Functional,
    respected: Sequence[tuple[F2Vector, int]],
    new_conditions: Sequence[tuple[F2Vector, int]],
) -> F2Functional:
    """Uniquely extend psi to its domain plus the span of the new vectors.

    `respected` are (vector, bit) side conditions psi must already satisfy on
    its own domain (RespectViolation otherwise).  The extension is forced:
    every new vector's value is prescribed, and any linear dependence among
    {domain basis} + {new vectors} must agree on values, else
    ExtensionConflict is raised, never repaired.
    """
    if not psi.respects(respected):
        raise RespectViolation("functional violates its declared side conditions")
    constraints = [(b, v) for b, v in zip(psi.domain.basis, psi.values)]
    for vec, bit in new_conditions:
        if vec.ambient != psi.domain.ambient:
            raise AmbientMismatch("extension vector in a different ambient")
        constraints.append((vec.bits, bit))
    return functional_from_constraints(constraints, psi.domain.ambient)
