"""3XOR systems, the consistent-repetition game, and the 2-to-2 reduction.

The reduction maps a regular 3XOR system S to a label-cover instance whose
variables are direct sums L + H_u of an l-dimensional space L with the span
H_u of the equation vectors of a legitimate n-tuple u, and whose labels are
the 2^l linear functionals on L, identified with their unique extensions to
L + H_u that respect u.  Constraints compare functional extensions across
shared subspaces; the first stage tags every constraint 1-to-1 or 2-to-2 and
the second stage keeps only the 2-to-2 ones (uniform weights, same domain).

A perfect strategy for the repetition game transfers label by label: the
projector of (L + H_u, psi) is the sum of the tuple projectors Q[u][theta]
over satisfying assignments theta whose induced functional restricts to psi.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .csp import CspInstance, to_structures
from .f2linalg import (
    AmbientMismatch,
    F2Ambient,
    F2Functional,
    F2Subspace,
    F2Vector,
    RespectViolation,
    eliminate_with_values,
    enumerate_subspaces,
)
from .qop import QuantumAssignment, VerificationFailure, VerificationReport, verify_assignment
from .relstruct import SizeBudgetExceeded


class NotRegular(Exception):
    pass


class AllConstraintsDiscarded(Exception):
    pass


class NoVertices(Exception):
    pass


@dataclass(frozen=True)
class XorSystem:
    """Boolean equations x + y + z = b over an ordered variable set."""

    variables: tuple[str, ...]
    equations: tuple[tuple[tuple[str, str, str], int], ...]

    @staticmethod
    def from_equations(equations: Sequence[tuple[Sequence[str], int]]) -> "XorSystem":
        variables: list[str] = []
        eqs = []
        for vars_, rhs in equations:
            vars_ = tuple(vars_)
            if len(vars_) != 3 or len(set(vars_)) != 3:
                raise ValueError("each equation needs three distinct variables")
            if rhs not in (0, 1):
                raise ValueError("right-hand side must be a bit")
            for v in vars_:
                if v not in variables:
                    variables.append(v)
            eqs.append((vars_, rhs))
        return XorSystem(tuple(variables), tuple(eqs))

    @staticmethod
    def parse(text: str) -> "XorSystem":
        """Text format: one `x y z = b` line per equation."""
        eqs = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            lhs, rhs = line.split("=")
            eqs.append((tuple(lhs.split()), int(rhs.strip())))
        return XorSystem.from_equations(eqs)

    def format(self) -> str:
        return "\n".join(f"{' '.join(vs)} = {b}" for vs, b in self.equations) + "\n"

    def ambient(self) -> F2Ambient:
        return F2Ambient(self.variables)

    def equation_vector(self, index: int) -> F2Vector:
        vars_, _ = self.equations[index]
        return self.ambient().vector(vars_)

    def sat_value(self) -> Fraction:
        """Exact classical value by brute force over all assignments."""
        best = 0
        names = self.variables
        for bits in itertools.product((0, 1), repeat=len(names)):
            val = dict(zip(names, bits))
            good = sum(
                1
                for vars_, rhs in self.equations
                if (val[vars_[0]] ^ val[vars_[1]] ^ val[vars_[2]]) == rhs
            )
            best = max(best, good)
        return Fraction(best, len(self.equations))


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    p: int
    max_occurrence: int
    offending_pair: Optional[tuple[int, int]]


def is_regular(system: XorSystem, p: int) -> RegularityReport:
    """Every variable in at most p equations; two equations share at most one
    variable."""
    occ: dict[str, int] = {}
    for vars_, _ in system.equations:
        for v in vars_:
            occ[v] = occ.get(v, 0) + 1
    max_occ = max(occ.values(), default=0)
    offending = None
    for i, (vi, _) in enumerate(system.equations):
        for j in range(i + 1, len(system.equations)):
            if len(set(vi) & set(system.equations[j][0])) > 1:
                offending = (i, j)
                break
        if offending:
            break
    return RegularityReport(max_occ <= p and offending is None, p, max_occ, offending)


def legitimate_tuples(system: XorSystem, n: int) -> list[tuple[int, ...]]:
    """Index tuples (ascending) of n distinct, variable-disjoint equations
    such that no equation of the system joins variables taken from two
    different members of the tuple; n < 1 raises ValueError."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    var_sets = [set(vs) for vs, _ in system.equations]
    out = []
    for combo in itertools.combinations(range(len(system.equations)), n):
        ok = True
        for a, b in itertools.combinations(combo, 2):
            if var_sets[a] & var_sets[b]:
                ok = False
                break
        if not ok:
            continue
        for a, b in itertools.combinations(combo, 2):
            for vs, _ in system.equations:
                vset = set(vs)
                if vset & var_sets[a] and vset & var_sets[b]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(combo)
    return out


def tuple_variables(system: XorSystem, indices: Sequence[int]) -> tuple[str, ...]:
    """Variables of the tuple's equations, in system order."""
    seen = set()
    for i in indices:
        seen.update(system.equations[i][0])
    return tuple(v for v in system.variables if v in seen)


def satisfying_assignments(system: XorSystem, indices: Sequence[int]) -> list[tuple]:
    """Canonical encodings of all assignments on the tuple's variables that
    satisfy each of its equations; an encoding is the sorted (var, bit) tuple."""
    vars_ = tuple_variables(system, indices)
    out = []
    for bits in itertools.product((0, 1), repeat=len(vars_)):
        val = dict(zip(vars_, bits))
        if all(
            (val[a] ^ val[b] ^ val[c]) == rhs
            for (a, b, c), rhs in (system.equations[i] for i in indices)
        ):
            out.append(tuple(sorted(val.items())))
    return out


def _consistent(theta: tuple, theta_p: tuple) -> bool:
    da, db = dict(theta), dict(theta_p)
    return all(db[v] == b for v, b in da.items() if v in db)


def game_csp(
    system: XorSystem,
    n: int,
    *,
    budget: Optional[int] = None,
) -> CspInstance:
    """The consistent-repetition game as a CSP: variables are the legitimate
    equation tuples (those feeding the reduction), labels encode assignments,
    a unary constraint pins each tuple to its satisfying assignments, and a
    binary consistency constraint joins every two tuples with intersecting
    variable sets."""
    tuples = legitimate_tuples(system, n)
    if budget is not None and len(tuples) > budget:
        raise SizeBudgetExceeded(f"{len(tuples)} question tuples exceed budget")
    sats = {t: satisfying_assignments(system, t) for t in tuples}
    alphabet: list[tuple] = []
    for t in tuples:
        for theta in sats[t]:
            if theta not in alphabet:
                alphabet.append(theta)
    constraints: list[tuple] = []
    for t in tuples:
        constraints.append(((t,), {(theta,) for theta in sats[t]}))
    for a, b in itertools.combinations(range(len(tuples)), 2):
        ta, tb = tuples[a], tuples[b]
        va, vb = set(tuple_variables(system, ta)), set(tuple_variables(system, tb))
        if va & vb:
            allowed = {
                (x, y) for x in sats[ta] for y in sats[tb] if _consistent(x, y)
            }
            constraints.append(((ta, tb), allowed))
    return CspInstance(tuples, alphabet, constraints)


def verify_game_assignment(
    system: XorSystem, n: int, assignment: QuantumAssignment
) -> VerificationReport:
    """Perfect-strategy check in game form: `verify_assignment` at level 0
    on the structures of `game_csp` over the legitimate question tuples
    (those feeding the reduction), so each question tuple carries a PVM
    over its satisfying assignments and answers that disagree on a shared
    variable have exactly-zero projector product.  Local compatibility is
    deliberately not part of this check."""
    X, A = to_structures(game_csp(system, n))
    return verify_assignment(X, A, assignment, 0)


# -- the reduction ----------------------------------------------------------


@dataclass(frozen=True)
class RhoVertex:
    indices: tuple[int, ...]
    low_space: F2Subspace
    space: F2Subspace

    @property
    def key(self) -> tuple:
        return (self.indices, self.low_space.basis)


@dataclass
class RhoInstance:
    system: XorSystem
    n: int
    ell: int
    instance: CspInstance
    vertices: dict
    tags: tuple[str, ...]
    labels: dict
    """labels[vertex_key][a] is the functional on the vertex space encoding
    alphabet letter a by its bits on the low space's canonical basis."""


def _word_of(domain: F2Subspace, words: Sequence[int], bits: int) -> int:
    """The value word of a domain member: the sum of its basis rows' words."""
    return functools.reduce(operator.xor, (w for p, w in zip(domain.pivots, words) if bits & p), 0)


def _extend_labels(domain: F2Subspace, words: Sequence[int], respected: list, new_rows: list) -> tuple:
    """`extend_functional` for all labels of a vertex, given by the value
    words of the domain's basis rows, in one elimination.  RespectViolation
    unless each respected row whose vector is in the domain has its own word
    there: a value is one bit for all letters only with letter coefficients 0."""
    n = domain.ambient.dim
    for row in respected:
        bits = row & ((1 << n) - 1)
        if not domain.reduce(bits) and _word_of(domain, words, bits) != row >> n:
            raise RespectViolation("functional violates its declared side conditions")
    return eliminate_with_values([b | w << n for b, w in zip(domain.basis, words)] + new_rows, domain.ambient)


def build_rho1(system: XorSystem, n: int, ell: int) -> RhoInstance:
    """First reduction stage: the tagged 1-to-1 / 2-to-2 label-cover instance.

    Vertices are (tuple, L) pairs with L an ell-dimensional subspace of the
    tuple's coordinate space meeting H_u trivially; two vertices are joined
    when their spaces satisfy one of the two dimension conditions, and a
    label pair is allowed when the forced extensions agree on the overlap.
    Without vertices (ell > 2n leaves none) it raises NoVertices.

    A label is affine in its letter a, so one elimination gives all labels
    of a vertex, and one per (vertex, other tuple) all their extensions:
    each row carries an (ell + 1)-bit value word, bit j the coefficient of
    letter bit j and bit ell the constant.  A pair's tag, joint spaces and
    overlap are found once per pair of (tuple, space), the signatures once
    per (vertex, other tuple, overlap).
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    reg = is_regular(system, 2)
    if not reg.regular:
        raise NotRegular(repr(reg))
    ambient = system.ambient()
    tuples = legitimate_tuples(system, n)
    h_spaces = {}
    vertices: dict = {}
    for t in tuples:
        h_space = h_spaces[t] = F2Subspace.spanned_by([system.equation_vector(i) for i in t])
        if h_space.dim != n:
            raise NotRegular(f"equation vectors of {t} are dependent")
        coord = F2Subspace.spanned_by([ambient.unit(v) for v in tuple_variables(system, t)])
        for low in enumerate_subspaces(coord, ell, avoid=h_space):
            vertex = RhoVertex(t, low, low.sum(h_space))
            vertices[vertex.key] = vertex
    if not vertices:
        raise NoVertices(f"no {n}-tuple of equations has a low space of dimension {ell} avoiding its H_u")
    keys = sorted(vertices)
    alphabet = tuple(range(2**ell))
    selectors = [a | 1 << ell for a in alphabet]
    word_at = ambient.dim  # the value word's lowest bit in a row
    eq_rows = {
        t: [system.equation_vector(i).bits | system.equations[i][1] << (word_at + ell) for i in t] for t in tuples
    }
    solved = []  # per vertex: its space, the value words on its basis, its conditions
    labels = {}
    for key in keys:
        vertex = vertices[key]
        low_rows = [b | 1 << (word_at + j) for j, b in enumerate(vertex.low_space.basis)]
        domain, words = eliminate_with_values(low_rows + eq_rows[vertex.indices], ambient)
        solved.append((domain, words, eq_rows[vertex.indices]))
        labels[key] = {
            a: F2Functional(domain, tuple((w & s).bit_count() & 1 for w in words))
            for a, s in zip(alphabet, selectors)
        }

    ext_cache, sig_cache, pair_cache = {}, {}, {}

    def signatures(i, other_tuple, joint: F2Subspace, overlap: F2Subspace) -> tuple:
        """Each label's values on the overlap basis, read from its extension
        to V + H_other once that is the joint space; the letters by them."""
        ck = (i, other_tuple, overlap.basis)
        if ck not in sig_cache:
            if (i, other_tuple) not in ext_cache:
                ext_cache[i, other_tuple] = _extend_labels(*solved[i], eq_rows[other_tuple])
            ext_domain, ext_words = ext_cache[i, other_tuple]
            if ext_domain != joint or any(map(joint.reduce, overlap.basis)):
                raise AmbientMismatch("label extension does not contain the overlap")
            o_words = [_word_of(ext_domain, ext_words, o) for o in overlap.basis]
            sigs = [tuple((w & s).bit_count() & 1 for w in o_words) for s in selectors]
            by_signature: dict = {}
            for a, sig in zip(alphabet, sigs):
                by_signature.setdefault(sig, []).append(a)
            sig_cache[ck] = sigs, by_signature
        return sig_cache[ck]

    def space_pair(va: RhoVertex, vb: RhoVertex) -> Optional[tuple]:
        joint_a = va.space.sum(h_spaces[vb.indices])
        joint_b = vb.space.sum(h_spaces[va.indices])
        total = va.space.sum(vb.space)
        if joint_a.dim == joint_b.dim == total.dim:
            return "1-to-1", joint_a, joint_b, joint_a.intersect(joint_b)
        if joint_a.dim == joint_b.dim == total.dim - 1:
            return "2-to-2", joint_a, joint_b, joint_a.intersect(joint_b)
        return None

    space_ids: dict = {}
    sids = [space_ids.setdefault((k[0], vertices[k].space.basis), len(space_ids)) for k in keys]
    constraints = []
    tags = []
    for ia, ib in itertools.combinations(range(len(keys)), 2):
        ka, kb = keys[ia], keys[ib]
        sk = (sids[ia], sids[ib])
        if sk not in pair_cache:
            pair_cache[sk] = space_pair(vertices[ka], vertices[kb])
        if pair_cache[sk] is None:
            continue
        tag, joint_a, joint_b, overlap = pair_cache[sk]
        # a label pair is allowed when the extensions agree on the overlap,
        # that is when their signatures are equal
        sig_a, _ = signatures(ia, kb[0], joint_a, overlap)
        _, by_signature = signatures(ib, ka[0], joint_b, overlap)
        allowed = {(a, b) for a, sig in zip(alphabet, sig_a) for b in by_signature.get(sig, ())}
        constraints.append(((ka, kb), allowed))
        tags.append(tag)
    inst = CspInstance(keys, alphabet, constraints)
    return RhoInstance(system, n, ell, inst, vertices, tuple(tags), labels)


def build_rho2(rho1: RhoInstance) -> RhoInstance:
    """Second stage: drop every 1-to-1 constraint, keep the variable set, and
    weight the surviving 2-to-2 constraints uniformly."""
    keep = [
        (c.scope, c.allowed)
        for c, tag in zip(rho1.instance.constraints, rho1.tags)
        if tag == "2-to-2"
    ]
    if not keep:
        raise AllConstraintsDiscarded("no 2-to-2 constraints survive")
    inst = CspInstance(rho1.instance.variables, rho1.instance.alphabet, keep)
    return RhoInstance(
        rho1.system,
        rho1.n,
        rho1.ell,
        inst,
        rho1.vertices,
        tuple("2-to-2" for _ in keep),
        rho1.labels,
    )


def rho_quantum_transfer(
    system: XorSystem,
    n: int,
    ell: int,
    assignment: QuantumAssignment,
    *,
    rho1: Optional[RhoInstance] = None,
) -> tuple[RhoInstance, QuantumAssignment]:
    """Transfer a perfect game strategy to the reduced instance.

    W[(u, L)][psi] sums the tuple projectors Q[u][theta] over satisfying
    theta whose induced linear functional restricts to psi on L + H_u.  Empty
    fibres are legal (zero projectors); completeness per vertex holds because
    the fibres partition the satisfying assignments.  The output carries the
    input's declared level: constraints only join vertices whose tuples
    intersect, so vertices within Gaifman distance k sit on tuples within
    distance k in the game.  A strategy that fails `verify_game_assignment`
    raises VerificationFailure.

    `rho1`, when given, is used in place of `build_rho1(system, n, ell)`:
    the rho1 or the rho2 of the same (system, n, ell) both serve, because
    they share vertices and labels.  One built from another triple raises
    ValueError.
    """
    if rho1 is not None and (rho1.system, rho1.n, rho1.ell) != (system, n, ell):
        raise ValueError("rho1 was built from another (system, n, ell)")
    report = verify_game_assignment(system, n, assignment)
    if not report.passed:
        raise VerificationFailure(
            f"game-form verification failed: {report.summary()} "
            f"{report.product_violations[:3]}"
        )
    rho = rho1 if rho1 is not None else build_rho1(system, n, ell)
    return rho, transfer_checked_strategy(rho, assignment)


def transfer_checked_strategy(rho: RhoInstance, assignment: QuantumAssignment) -> QuantumAssignment:
    """The transfer of `rho_quantum_transfer` for a strategy that has
    already passed `verify_game_assignment` on rho's (system, n)."""
    pvms: dict = {}
    for key, vertex in rho.vertices.items():
        fam: dict = {}
        q_fam = assignment.pvms[vertex.indices]
        for theta, mat in q_fam.items():
            values = dict(theta)
            target = None
            for a, functional in rho.labels[key].items():
                if all(
                    functional.evaluate_bits(b)
                    == _parity_on(values, vertex.space.ambient, b)
                    for b in vertex.space.basis
                ):
                    target = a
                    break
            if target is None:
                raise VerificationFailure(
                    f"no label matches the restriction of {theta} at {key}"
                )
            fam[target] = fam[target] + mat if target in fam else mat
        pvms[key] = fam
    return QuantumAssignment(assignment.dim, assignment.k, pvms)


def _parity_on(values: dict, ambient: F2Ambient, bits: int) -> int:
    acc = 0
    for i, name in enumerate(ambient.names):
        if (bits >> i) & 1:
            acc ^= values[name]
    return acc
