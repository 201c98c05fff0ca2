"""Exact linear algebra over GF(2) with int bitsets.

Vectors are bitmasks over a fixed ambient coordinate list; subspaces carry a
canonical reduced-row-echelon basis with strictly increasing pivots, so two
equal subspaces always have identical basis tuples.  Linear functionals are
stored by their values on that canonical basis; a member vector's coordinate
on a basis row is its bit at that row's pivot, so a functional evaluates as
the parity of the vector masked by the pivots whose value is 1.

Prescribed values ride as a word of value columns above each row's ambient
bits (`eliminate_with_values`), so one elimination solves a family of
functionals whose values are affine in a parameter, one column per
parameter bit and one for the constant, for every parameter value at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Fully reduced echelon form of the rows, keyed by each row's pivot bit
    (its lowest set bit).  Every pivot bit is set in its own row only, so
    reducing a new row by the rows whose pivots it has is complete in any
    order; a row that stays nonzero has its pivot cleared from the others."""
    echelon: dict[int, int] = {}
    for row in rows:
        for p, e in echelon.items():
            if row & p:
                row ^= e
        if row:
            p = row & -row
            for q, e in echelon.items():
                if e & p:
                    echelon[q] = e ^ row
            echelon[p] = row
    return echelon


def _rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced basis: pivots strictly increasing, each pivot bit
    cleared from every other row."""
    return tuple(e for _, e in sorted(_echelon(rows).items()))


@dataclass(frozen=True)
class F2Subspace:
    """A subspace of the ambient space in canonical RREF basis form."""

    ambient: F2Ambient
    basis: tuple[int, ...]
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    """The pivot bit (lowest set bit) of each basis row."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "pivots", tuple(b & -b for b in self.basis))

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
        for p, b in zip(self.pivots, self.basis):
            if bits & p:
                bits ^= b
        return bits

    def contains(self, v: F2Vector) -> bool:
        if v.ambient != self.ambient:
            raise AmbientMismatch("vector in a different ambient space")
        return self.reduce(v.bits) == 0

    def _check(self, other: "F2Subspace") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("subspaces in different ambient spaces")

    def sum(self, other: "F2Subspace") -> "F2Subspace":
        self._check(other)
        return F2Subspace(self.ambient, _rref(self.basis + other.basis))

    def intersect(self, other: "F2Subspace") -> "F2Subspace":
        """Zassenhaus: eliminate [U|U; V|0] with the first block in the low
        bits; the rows whose pivot lies in the second block carry the
        canonical basis of the intersection there."""
        self._check(other)
        n = self.ambient.dim
        echelon = _echelon([b | (b << n) for b in self.basis] + list(other.basis))
        return F2Subspace(self.ambient, tuple(e >> n for p, e in sorted(echelon.items()) if p >> n))

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
    mask: int = field(init=False, repr=False, compare=False)
    """The pivot bits of the basis rows whose value is 1."""

    def __post_init__(self) -> None:
        if len(self.values) != self.domain.dim:
            raise ValueError("one value bit per basis vector required")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be bits")
        mask = 0
        for p, v in zip(self.domain.pivots, self.values):
            if v:
                mask |= p
        object.__setattr__(self, "mask", mask)

    def evaluate(self, v: F2Vector) -> int:
        return self.evaluate_bits(v.bits)

    def evaluate_bits(self, bits: int) -> int:
        if self.domain.reduce(bits):
            raise AmbientMismatch("vector outside the functional's domain")
        return (bits & self.mask).bit_count() & 1

    def respects(self, conditions: Sequence[tuple[F2Vector, int]]) -> bool:
        """True iff the functional meets every (vector, bit) condition whose
        vector lies inside the domain."""
        for vec, bit in conditions:
            if self.domain.contains(vec) and self.evaluate(vec) != bit:
                return False
        return True


def eliminate_with_values(rows: Iterable[int], ambient: F2Ambient) -> tuple[F2Subspace, tuple[int, ...]]:
    """The span of the rows' ambient bits and, per canonical basis row, the
    word of value columns the elimination carried along: the values forced
    on that row.  A row reduced to value bits alone is a dependence whose
    values disagree in some column: ExtensionConflict."""
    n = ambient.dim
    echelon = _echelon(rows)
    if max(echelon, default=0) >> n:
        raise ExtensionConflict("inconsistent functional constraints")
    rows = [e for _, e in sorted(echelon.items())]
    low = (1 << n) - 1
    return F2Subspace(ambient, tuple(e & low for e in rows)), tuple(e >> n for e in rows)


def functional_from_constraints(constraints: Sequence[tuple[int, int]], ambient: F2Ambient) -> F2Functional:
    """The unique functional on span(vectors) with the prescribed values:
    `eliminate_with_values` with one value column.  Raises ExtensionConflict
    when the (vector, bit) system is inconsistent."""
    n = ambient.dim
    return F2Functional(*eliminate_with_values((bits | (val << n) for bits, val in constraints), ambient))


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
