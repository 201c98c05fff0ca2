"""Exact complex projector algebra and quantum-assignment verification.

All matrix entries are Gaussian rationals.  A matrix keeps them
fraction-free, as integer real and imaginary numerators over one common
denominator in lowest terms, so projector identities, forbidden-product zero
tests, and commutators are exact integer comparisons with no tolerances.
`GQ` (a pair of `fractions.Fraction`) is the scalar type at the boundary:
matrices are built from and viewed as `GQ` entries, and traces are `GQ`.
Assignments are sparse: a missing label means the zero projector.

The verifier realises the two projector conditions that characterise perfect
k-compatible quantum assignments between structures: ordered products over a
constraint scope vanish on every non-allowed label tuple, and projectors of
variables within Gaifman distance k commute.  Diagonal families (classical
lifts) take an exact fast path through supports.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import getitem, itemgetter
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .relstruct import RelStructure, _columns, gaifman_balls, product_sides


class DimMismatch(Exception):
    pass


class KeyMismatch(Exception):
    pass


class VerificationFailure(Exception):
    pass


class NotBipartiteProjective(Exception):
    pass


class GQ:
    """A Gaussian rational: exact complex number with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0) -> None:
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other: "GQ") -> "GQ":
        return GQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GQ") -> "GQ":
        return GQ(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GQ") -> "GQ":
        return GQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GQ) and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


GQ_ZERO = GQ(0)
GQ_ONE = GQ(1)
GQ_I = GQ(0, 1)


class PMatrix:
    """An immutable dim x dim matrix of Gaussian rationals.

    Stored fraction-free: a positive denominator `den` and a flat row-major
    tuple `num` of 2*dim*dim integer numerators, the real and imaginary part
    of each entry side by side.  The gcd of `den` and all numerators is 1,
    so the form is canonical and equality and hashing are tuple operations.
    """

    __slots__ = ("dim", "den", "num", "_hash", "_entries", "_diag_support")

    def __init__(self, entries: Sequence[Sequence[GQ]]) -> None:
        rows = [tuple(row) for row in entries]
        dim = len(rows)
        parts = []
        for i, row in enumerate(rows):
            if len(row) != dim:
                raise DimMismatch("matrix must be square")
            for j, e in enumerate(row):
                if not isinstance(e, GQ):
                    raise TypeError(
                        f"matrix entry ({i}, {j}) is {e!r} of type "
                        f"{type(e).__name__}, not GQ"
                    )
                parts.append(e.re)
                parts.append(e.im)
        den = lcm(*(p.denominator for p in parts))
        self._set(dim, den, [p.numerator * (den // p.denominator) for p in parts])

    def _set(self, dim: int, den: int, num) -> None:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
        self.dim = dim
        self.den = den
        self.num = tuple(num)
        self._hash = None
        self._entries = None
        self._diag_support = None

    @staticmethod
    def _of(dim: int, den: int, num) -> "PMatrix":
        """Build from integer parts, reducing to the canonical form."""
        m = object.__new__(PMatrix)
        m._set(dim, den, num)
        return m

    @property
    def entries(self) -> tuple:
        """Read-only rows of `GQ` entries, built on first use."""
        if self._entries is None:
            n, den, num = self.dim, self.den, self.num
            self._entries = tuple(
                tuple(
                    GQ(Fraction(num[p], den), Fraction(num[p + 1], den))
                    for p in range(2 * n * i, 2 * n * (i + 1), 2)
                )
                for i in range(n)
            )
        return self._entries

    @staticmethod
    def zeros(dim: int) -> "PMatrix":
        return PMatrix._of(dim, 1, [0] * (2 * dim * dim))

    @staticmethod
    def identity(dim: int) -> "PMatrix":
        step = 2 * dim + 2
        return PMatrix._of(
            dim, 1, [int(p % step == 0) for p in range(2 * dim * dim)]
        )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[complex | int | Fraction | tuple]]) -> "PMatrix":
        conv = []
        for row in rows:
            out = []
            for e in row:
                if isinstance(e, GQ):
                    out.append(e)
                elif isinstance(e, tuple):
                    out.append(GQ(Fraction(e[0]), Fraction(e[1])))
                elif isinstance(e, complex):
                    out.append(GQ(Fraction(e.real), Fraction(e.imag)))
                else:
                    out.append(GQ(Fraction(e)))
            conv.append(out)
        return PMatrix(conv)

    def _check(self, other: "PMatrix") -> None:
        if self.dim != other.dim:
            raise DimMismatch(f"{self.dim} != {other.dim}")

    def _common(self, other: "PMatrix") -> tuple:
        """Numerators of both operands over their least common denominator."""
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return da, self.num, other.num
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return da * fa, [x * fa for x in self.num], [y * fb for y in other.num]

    def __add__(self, other: "PMatrix") -> "PMatrix":
        den, a, b = self._common(other)
        return PMatrix._of(self.dim, den, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "PMatrix") -> "PMatrix":
        den, a, b = self._common(other)
        return PMatrix._of(self.dim, den, [x - y for x, y in zip(a, b)])

    def __matmul__(self, other: "PMatrix") -> "PMatrix":
        self._check(other)
        n = self.dim
        w = 2 * n
        a, b = self.num, other.num
        out = []
        for r in range(0, n * w, w):
            terms = [
                (a[r + k], a[r + k + 1], k * n)
                for k in range(0, w, 2)
                if a[r + k] or a[r + k + 1]
            ]
            for c in range(0, w, 2):
                re = im = 0
                for ar, ai, kw in terms:
                    br = b[kw + c]
                    bi = b[kw + c + 1]
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
                out.append(re)
                out.append(im)
        return PMatrix._of(n, self.den * other.den, out)

    def scale(self, c: GQ) -> "PMatrix":
        cd = lcm(c.re.denominator, c.im.denominator)
        cr = c.re.numerator * (cd // c.re.denominator)
        ci = c.im.numerator * (cd // c.im.denominator)
        num = self.num
        out = []
        for p in range(0, len(num), 2):
            x, y = num[p], num[p + 1]
            out.append(x * cr - y * ci)
            out.append(x * ci + y * cr)
        return PMatrix._of(self.dim, self.den * cd, out)

    def trace(self) -> GQ:
        step = 2 * self.dim + 2
        return GQ(
            Fraction(sum(self.num[::step]), self.den),
            Fraction(sum(self.num[1::step]), self.den),
        )

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_hermitian(self) -> bool:
        n, num = self.dim, self.num
        for i in range(n):
            for j in range(i, n):
                p, q = 2 * (i * n + j), 2 * (j * n + i)
                if num[p] != num[q] or num[p + 1] != -num[q + 1]:
                    return False
        return True

    def is_identity(self) -> bool:
        step = 2 * self.dim + 2
        return self.den == 1 and all(
            x == (p % step == 0) for p, x in enumerate(self.num)
        )

    def diag_support(self):
        """frozenset of nonzero diagonal indices if diagonal, else None."""
        if self._diag_support is None:
            step = 2 * self.dim + 2
            num = self.num
            diagonal = not any(
                x for p, x in enumerate(num) if p % step > 1
            )
            if diagonal:
                self._diag_support = frozenset(
                    i for i in range(self.dim) if num[i * step] or num[i * step + 1]
                )
            else:
                self._diag_support = False
        return self._diag_support if self._diag_support is not False else None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PMatrix)
            and self.dim == other.dim
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, self.den, self.num))
        return self._hash

    def __repr__(self) -> str:
        return f"PMatrix({self.dim}x{self.dim})"


def matrix_sum(ms: Iterable[PMatrix], dim: int) -> PMatrix:
    acc = PMatrix.zeros(dim)
    for m in ms:
        acc = acc + m
    return acc


@dataclass
class PvmReport:
    hermitian: bool
    idempotent: bool
    orthogonal: bool
    complete: bool
    issues: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.hermitian and self.idempotent and self.orthogonal and self.complete


def verify_pvm(family: Sequence[PMatrix]) -> PvmReport:
    """Exact projector-family check: Hermitian, idempotent, mutually
    orthogonal, and summing to the identity."""
    return _pvm_report(family, _ProductCache())


def _pvm_report(family: Sequence[PMatrix], cache: "_ProductCache") -> PvmReport:
    """`verify_pvm` with its products read through `cache`, shared by families."""
    if not family:
        raise DimMismatch("empty family")
    dim = family[0].dim
    for m in family:
        if m.dim != dim:
            raise DimMismatch("mixed dimensions in family")
    report = PvmReport(True, True, True, True)
    for i, m in enumerate(family):
        if not m.is_hermitian():
            report.hermitian = False
            report.issues.append(("hermitian", i))
        if not (cache.product(m, m) == m):
            report.idempotent = False
            report.issues.append(("idempotent", i))
    for i, m in enumerate(family):
        for j in range(i + 1, len(family)):
            if not cache.product_is_zero(m, family[j]):
                report.orthogonal = False
                report.issues.append(("orthogonal", i, j))
    if not matrix_sum(family, dim).is_identity():
        report.complete = False
        report.issues.append(("complete",))
    return report


class QuantumAssignment:
    """Per-variable PVMs over a shared exact Hilbert space.

    `pvms[x][y]` is the projector for labelling variable x with y; labels not
    present are the zero projector.  `k` is the declared compatibility level;
    verification, not construction, decides whether it holds.  Zero
    projectors are dropped and dimensions checked once per projector object.

    The family table: `families` holds one copy of each distinct family
    object given, in the order of its first variable, never the caller's
    dict, and variables that were given one object share its copy;
    `family_ids` lists, per variable in the order of `pvms`, the index of
    its family in `families`.  Families are read-only by contract, as a
    write through one variable would reach the others.
    """

    __slots__ = ("dim", "k", "pvms", "families", "family_ids")

    def __init__(self, dim: int, k: int, pvms: Mapping[Hashable, Mapping[Hashable, PMatrix]]) -> None:
        self.dim = dim
        self.k = k
        index: dict = {}  # id of a given family object -> its index in the table
        self.families, self.family_ids = [], []
        for fam in pvms.values():
            i = index.get(id(fam))
            if i is None:
                i = index[id(fam)] = len(self.families)
                self.families.append(dict(fam))
            self.family_ids.append(i)
        del index
        self.pvms = dict(zip(pvms, map(self.families.__getitem__, self.family_ids)))
        distinct = {id(m): m for fam in self.families for m in fam.values()}
        zeros = {i for i, m in distinct.items() if m.is_zero()}
        if zeros:
            for fam in self.families:
                for y in [y for y, m in fam.items() if id(m) in zeros]:
                    del fam[y]
        if any(m.dim != dim for i, m in distinct.items() if i not in zeros):
            raise DimMismatch("projector dimension differs from declared dim")

    def renamed(self, mapping: Mapping) -> "QuantumAssignment":
        """The same family table under the keys mapping[x], one-to-one, not
        filtered or checked again; variables that shared a family still
        share it."""
        out = QuantumAssignment.__new__(QuantumAssignment)
        out.dim, out.k, out.families, out.family_ids = self.dim, self.k, self.families, self.family_ids
        out.pvms = {mapping[x]: f for x, f in self.pvms.items()}
        return out

    def all_diagonal(self) -> bool:
        return all(m.diag_support() is not None for fam in self.families for m in fam.values())

    def __repr__(self) -> str:
        return f"QuantumAssignment(dim={self.dim}, k={self.k}, |X|={len(self.pvms)})"


@dataclass
class Violation:
    kind: str
    witness: tuple

    def __repr__(self) -> str:
        return f"{self.kind}{self.witness!r}"


@dataclass
class VerificationReport:
    pvm_ok: bool
    product_violations: list
    commutator_violations: list
    products_checked: int
    commutators_checked: int
    pvm_issues: list = field(default_factory=list)

    @property
    def perfect(self) -> bool:
        return self.pvm_ok and not self.product_violations

    @property
    def passed(self) -> bool:
        return self.perfect and not self.commutator_violations

    def summary(self) -> str:
        s = "pass" if self.passed else "FAIL"
        return (
            f"{s}: pvm_ok={self.pvm_ok} products={self.products_checked} "
            f"(viol {len(self.product_violations)}) commutators={self.commutators_checked} "
            f"(viol {len(self.commutator_violations)})"
        )


class _ProductCache:
    """Memoised pairwise products, sums, zero-tests of products, and
    commutators; content-hashed, so structurally shared projectors are
    handled once."""

    def __init__(self) -> None:
        self.prod: dict = {}
        self.comm: dict = {}
        self.mul: dict = {}
        self.add: dict = {}

    def product(self, a: PMatrix, b: PMatrix) -> PMatrix:
        hit = self.mul.get((a, b))
        if hit is None:
            hit = self.mul[a, b] = a @ b
        return hit

    def plus(self, a: PMatrix, b: PMatrix) -> PMatrix:
        hit = self.add.get((a, b))
        if hit is None:
            hit = self.add[a, b] = a + b
        return hit

    def product_is_zero(self, a: PMatrix, b: PMatrix) -> bool:
        sa, sb = a.diag_support(), b.diag_support()
        if sa is not None and sb is not None:
            return not (sa & sb)
        key = (a, b)
        hit = self.prod.get(key)
        if hit is None:
            hit = (a @ b).is_zero()
            self.prod[key] = hit
        return hit

    def commute(self, a: PMatrix, b: PMatrix) -> bool:
        if a.diag_support() is not None and b.diag_support() is not None:
            return True
        key = (a, b)
        hit = self.comm.get(key)
        if hit is None:
            hit = (a @ b) == (b @ a)
            self.comm[key] = hit
        return hit


def _ordered_product_is_zero(mats: Sequence[PMatrix], cache: _ProductCache) -> bool:
    if len(mats) == 2:
        return cache.product_is_zero(mats[0], mats[1])
    supports = [m.diag_support() for m in mats]
    if all(s is not None for s in supports):
        acc = supports[0]
        for s in supports[1:]:
            acc = acc & s
        return not acc
    acc = mats[0]
    for m in mats[1:]:
        acc = acc @ m
        if acc.is_zero():
            return True
    return acc.is_zero()


def verify_assignment(
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
    *,
    max_witnesses: int = 25,
) -> VerificationReport:
    """Exact verification of a perfect k-compatible quantum assignment.

    Checks, in order: every family is a PVM; for every symbol R, scope tuple
    in R(X) and label tuple outside R(Y) the scope-ordered projector product
    is the zero matrix; and all projector pairs of variables within Gaifman
    distance k of each other commute.  Absent labels are zero projectors, so
    product checks iterate over present labels only, which is sound and
    complete.  Each family of the assignment's table is read once, for its
    labels and its items, however many variables share it.  Each distinct
    list of projectors gets one PVM check, looked up once per distinct
    family.  Scope tuples over the same families are counted once, and per
    symbol and label lists each distinct tuple of projectors at a label
    tuple outside R(Y) is decided once; the sweep goes tuple by tuple only
    when a product is nonzero, to name witnesses.
    A negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if set(assignment.pvms) != set(X.domain):
        raise KeyMismatch("assignment keys differ from the variable domain")
    for fam in assignment.families:
        for y in fam:
            if y not in Y:
                raise KeyMismatch(f"label {y!r} outside the target domain")

    # families numbered by their (label, projector) items as given, which the
    # PVM check and its issue indexes read; one PVM check per projector list
    given: dict = {}
    gid_of = [given.setdefault(tuple(fam.items()), len(given)) for fam in assignment.families]
    gids = list(map(gid_of.__getitem__, assignment.family_ids))
    cache = _ProductCache()
    pvm_reports: dict = {}
    reports = []
    for items in given:
        mats = tuple(m for _, m in items)
        if mats and mats not in pvm_reports:
            pvm_reports[mats] = _pvm_report(mats, cache)
        reports.append(pvm_reports.get(mats))  # None for an empty family
    pvm_ok = all(rep is not None and rep.passed for rep in reports)
    pvm_issues = []
    if not pvm_ok:
        gid = dict(zip(assignment.pvms, gids))
        for x in X.domain:
            rep = reports[gid[x]]
            if rep is None:
                pvm_issues.append((x, "empty"))
            elif not rep.passed:
                pvm_issues.append((x, list(rep.issues)))

    product_violations: list[Violation] = []

    def full_sweep():
        for name, t in X.all_tuples():
            rel = Y.relations[name]
            for combo in itertools.product(*(assignment.pvms[v] for v in t)):
                if combo not in rel:
                    yield name, t, combo

    # scope tuples of one symbol over the same families, keyed by their
    # (label, projector) items in Y's domain order, have the same checks with
    # the same verdicts, so each distinct one is checked once; the sweep runs
    # tuple by tuple only when a product is nonzero, to name witnesses
    label_order = Y._index.__getitem__
    family_id: dict = {}
    canonical = [
        family_id.setdefault(tuple(sorted(items, key=lambda item: label_order(item[0]))), len(family_id))
        for items in given
    ]
    fid = dict(zip(assignment.pvms, map(canonical.__getitem__, gids)))
    pid: dict = {}  # one int per distinct projector
    list_id: dict = {}  # one int per distinct label list
    fam_list = [list_id.setdefault(tuple(y for y, _ in items), len(list_id)) for items in family_id]
    fam_pids = [tuple(pid.setdefault(m, len(pid)) for _, m in items) for items in family_id]
    label_lists = list(list_id)
    projectors = list(pid)
    keys: dict = {}  # per symbol, the family ids of its scope tuples, counted
    groups = X._blocks
    for s, arity in X.signature.symbols:
        counts = keys[s] = Counter()
        # copies are disjoint when the view says so, or when their sizes add up
        # to the relation's, as they union to it
        if X._disjoint or (
            groups is not None and sum(len(g.relations[s]) * len(ms) for g, ms in groups) == len(X.relations[s])
        ):
            for gadget, maps in groups:
                # a view known disjoint (a line digraph's) is tested for product
                # gadgets; on others the test would cost a pass over each gadget
                sides = X._disjoint and arity == 2 and product_sides(gadget, s)
                if sides:
                    # a copy of P x Q holds each pair of a P id and a Q id as often
                    # as the product of their counts; copies with equal ids count once
                    for ids, copies in Counter(map(tuple, map(map, itertools.repeat(fid.__getitem__), maps))).items():
                        left, right = (Counter(map(ids.__getitem__, side)) for side in sides)
                        counts.update({(a, b): copies * ca * cb for a, ca in left.items() for b, cb in right.items()})
                    continue
                places = [list(map(gadget._index.__getitem__, c)) for c in _columns(gadget.scan(s), arity)]
                for m in maps:
                    ids = list(map(fid.__getitem__, m))
                    counts.update(zip(*[map(ids.__getitem__, p) for p in places]))
            continue
        counts.update(zip(*[map(fid.__getitem__, c) for c in _columns(X.scan(s), arity)]))
    zero: dict = {}  # projector ids in scope order -> whether their product is 0

    def is_zero(key: tuple) -> bool:
        if key not in zero:
            zero[key] = _ordered_product_is_zero([projectors[p] for p in key], cache)
        return zero[key]

    def products_if_all_zero() -> Optional[int]:
        """The number of products the keys stand for, or None at the first
        nonzero one.  The keys of a symbol are grouped by their label lists,
        which fix the label positions outside Y; per position tuple, each
        distinct tuple of projector ids among a group's keys is decided once."""
        total = 0
        for name, counts in keys.items():
            by_lists: dict = {}
            for lists, key in zip(map(tuple, map(map, itertools.repeat(fam_list.__getitem__), counts)), counts):
                by_lists.setdefault(lists, []).append(key)
            for lists, group in by_lists.items():
                labels = list(map(label_lists.__getitem__, lists))
                outside = [
                    ps for ps in itertools.product(*map(range, map(len, labels)))
                    if tuple(map(getitem, labels, ps)) not in Y.relations[name]
                ]
                pids = [list(map(fam_pids.__getitem__, col)) for col in zip(*group)]
                for ps in outside:
                    if not all(map(is_zero, set(zip(*[map(itemgetter(p), col) for p, col in zip(ps, pids)])))):
                        return None
                total += sum(map(counts.__getitem__, group)) * len(outside)
        return total

    checks = ()
    products_checked = products_if_all_zero()
    if products_checked is None:
        checks, products_checked = full_sweep(), 0
    for name, t, combo in checks:
        products_checked += 1
        mats = [assignment.pvms[v][y] for v, y in zip(t, combo)]
        if not _ordered_product_is_zero(mats, cache):
            if len(product_violations) < max_witnesses:
                product_violations.append(Violation("product", (name, t, combo)))
            else:
                product_violations.append(Violation("product", ("...",)))
                break

    commutator_violations: list[Violation] = []
    commutators_checked = 0
    if k >= 1 and not assignment.all_diagonal():
        balls = gaifman_balls(X, k)
        index = {v: i for i, v in enumerate(X.domain)}
        done = False
        for x in X.domain:
            if done:
                break
            for xp in sorted(balls[x], key=index.__getitem__):
                if index[xp] <= index[x]:
                    continue
                for ya, ma in assignment.pvms[x].items():
                    for yb, mb in assignment.pvms[xp].items():
                        commutators_checked += 1
                        if not cache.commute(ma, mb):
                            commutator_violations.append(
                                Violation("commutator", (x, xp, ya, yb))
                            )
                            if len(commutator_violations) >= max_witnesses:
                                done = True
                if done:
                    break
    return VerificationReport(
        pvm_ok,
        product_violations,
        commutator_violations,
        products_checked,
        commutators_checked,
        pvm_issues,
    )


@dataclass
class QsatResult:
    value: Fraction
    imag: Fraction

    @property
    def real(self) -> bool:
        return self.imag == 0

    def __repr__(self) -> str:
        if self.real:
            return f"qsat={self.value}"
        return f"qsat={self.value}+{self.imag}i (flagged non-real)"


def qsat(inst, assignment: QuantumAssignment) -> QsatResult:
    """Exact weighted trace value of the assignment on a CSP instance.

    The value is (1/dim) E_pi sum over allowed label tuples of the trace of
    the scope-ordered projector product.  A nonzero imaginary part (possible
    only without 1-compatibility at arity >= 3) is surfaced, never truncated.
    """
    for v in inst.variables:
        if v not in assignment.pvms:
            raise KeyMismatch(f"variable {v!r} has no PVM")
    total = GQ_ZERO
    for c in inst.constraints:
        label_lists = [list(assignment.pvms[v].keys()) for v in c.scope]
        acc = GQ_ZERO
        for combo in itertools.product(*label_lists):
            if combo in c.allowed:
                mats = [assignment.pvms[v][y] for v, y in zip(c.scope, combo)]
                prod = mats[0]
                for m in mats[1:]:
                    prod = prod @ m
                acc = acc + prod.trace()
        w = GQ(c.weight)
        total = total + w * acc
    scale = GQ(Fraction(1, assignment.dim))
    total = scale * total
    return QsatResult(total.re, total.im)


COMPAT_ANY = 2**30
"""Declared compatibility of classical lifts: diagonal families commute
globally, so any finite level verifies."""


def lift_classical(f: Mapping) -> QuantumAssignment:
    """Dimension-1 assignment of a classical map: Q[x][f(x)] = [1]."""
    one = PMatrix([[GQ_ONE]])
    pvms = {x: {y: one} for x, y in f.items()}
    return QuantumAssignment(1, COMPAT_ANY, pvms)


def compose_sandwich(
    f: Mapping,
    assignment: QuantumAssignment,
    g: Mapping,
    *,
    k: Optional[int] = None,
) -> QuantumAssignment:
    """Pull back along f and push forward along g:
    W[x][y] = sum of Q[f(x)][y'] over y' with g(y') = y.

    Sums run inside a single PVM, so outputs are projectors and the
    compatibility level of the input carries over unchanged.  Each sum of a
    partial sum and a projector is computed once per call, as one object,
    and each family of the source's table is summed once: the variables
    that read it share one output family.
    """
    out: dict = {}
    cache = _ProductCache()
    family_of = dict(zip(assignment.pvms, assignment.family_ids))
    summed: list = [None] * len(assignment.families)  # per family of the table, its sums
    for x, xp in f.items():
        i = family_of[xp]
        acc = summed[i]
        if acc is None:
            acc = summed[i] = {}
            for yp, m in assignment.families[i].items():
                y = g[yp]
                acc[y] = cache.plus(acc[y], m) if y in acc else m
        out[x] = acc
    return QuantumAssignment(assignment.dim, assignment.k if k is None else k, out)


def cleanup_bipartite(inst, profile, assignment: QuantumAssignment) -> QuantumAssignment:
    """Zero out every projector pairing a variable with the wrong alphabet
    side of a bipartite projective instance, merging its mass into one
    canonical same-side label; the weighted quantum value never decreases.
    """
    if profile.bipartite is None or profile.projective is None:
        raise NotBipartiteProjective("need verified bipartite and projective certificates")
    x1, x2 = profile.bipartite
    a1, a2 = profile.projective
    side_of_var = {**{v: 0 for v in x1}, **{v: 1 for v in x2}}
    side_of_lab = {**{a: 0 for a in a1}, **{a: 1 for a in a2}}
    canonical = {
        0: next(a for a in inst.alphabet if side_of_lab[a] == 0),
        1: next(a for a in inst.alphabet if side_of_lab[a] == 1),
    }
    before = qsat(inst, assignment)
    new_pvms: dict = {}
    for x, fam in assignment.pvms.items():
        want = side_of_var[x]
        keep: dict = {}
        stray = None
        for y, m in fam.items():
            if side_of_lab[y] == want:
                keep[y] = keep[y] + m if y in keep else m
            else:
                stray = m if stray is None else stray + m
        if stray is not None:
            anchor = canonical[want]
            keep[anchor] = keep[anchor] + stray if anchor in keep else stray
        new_pvms[x] = keep
    out = QuantumAssignment(assignment.dim, assignment.k, new_pvms)
    after = qsat(inst, out)
    if not (after.real and before.real and after.value >= before.value):
        raise VerificationFailure("cleanup decreased the quantum value")
    for x, fam in out.pvms.items():
        rep = verify_pvm(list(fam.values()))
        if not rep.passed:
            raise VerificationFailure(f"cleanup broke the PVM at {x!r}")
    return out


# -- the magic square -------------------------------------------------------


def _pauli() -> dict:
    X = PMatrix.from_rows([[0, 1], [1, 0]])
    Y = PMatrix([[GQ_ZERO, GQ(0, -1)], [GQ(0, 1), GQ_ZERO]])
    Z = PMatrix.from_rows([[1, 0], [0, -1]])
    I = PMatrix.identity(2)
    return {"I": I, "X": X, "Y": Y, "Z": Z}


def _kron(a: PMatrix, b: PMatrix) -> PMatrix:
    n, m = a.dim, b.dim
    out = []
    for i in range(n):
        for k in range(m):
            for j in range(n):
                p = 2 * (i * n + j)
                ar, ai = a.num[p], a.num[p + 1]
                for l in range(m):
                    q = 2 * (k * m + l)
                    br, bi = b.num[q], b.num[q + 1]
                    out.append(ar * br - ai * bi)
                    out.append(ar * bi + ai * br)
    return PMatrix._of(n * m, a.den * b.den, out)


MAGIC_SQUARE_OBSERVABLES = (
    ("ZI", "IZ", "ZZ"),
    ("IX", "XI", "XX"),
    ("ZX", "XZ", "YY"),
)
"""Pauli words for the nine grid observables; every row and the first two
columns multiply to +I, the last column to -I."""


def mermin_peres():
    """The magic-square system and its dimension-4 quantum strategy.

    Returns (system, assignment) where the system has six equations (three
    rows, three columns; only the last column has right-hand side 1) over
    nine variables, and the assignment attaches to each single-equation
    question the four rank-one joint eigenprojectors of its commuting
    observable triple.  Every pair of answers that disagrees on a shared
    variable has exactly-zero projector product, while the classical value
    of the system is 5/6: the game is pseudo-telepathic.  The declared level
    is 0: no perfect strategy of this game is level-1 compatible, since
    commuting row and column contexts would pin nine commuting cell
    observables and so a classical solution.
    """
    from .dkkms import XorSystem

    grid = [[f"x{r}{c}" for c in range(3)] for r in range(3)]
    equations = []
    for r in range(3):
        equations.append(((grid[r][0], grid[r][1], grid[r][2]), 0))
    for c in range(3):
        equations.append(((grid[0][c], grid[1][c], grid[2][c]), 1 if c == 2 else 0))
    system = XorSystem.from_equations(equations)

    pauli = _pauli()
    obs: dict[str, PMatrix] = {}
    for r in range(3):
        for c in range(3):
            word = MAGIC_SQUARE_OBSERVABLES[r][c]
            obs[grid[r][c]] = _kron(pauli[word[0]], pauli[word[1]])

    ident = PMatrix.identity(4)
    half = GQ(Fraction(1, 2))
    pvms: dict = {}
    for eq_index, (variables, rhs) in enumerate(equations):
        fam: dict = {}
        for bits in itertools.product((0, 1), repeat=3):
            if sum(bits) % 2 != rhs:
                continue
            proj = ident
            for var, bit in zip(variables, bits):
                sign = GQ_ONE if bit == 0 else GQ(-1)
                proj = proj @ (ident + obs[var].scale(sign)).scale(half)
            label = tuple(sorted(zip(variables, bits)))
            fam[label] = proj
        pvms[(eq_index,)] = fam
    assignment = QuantumAssignment(4, 0, pvms)
    return system, assignment
