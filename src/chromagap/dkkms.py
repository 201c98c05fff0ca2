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

import itertools
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
    enumerate_subspaces,
    extend_functional,
    functional_from_constraints,
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


def _vertex_functional(
    system: XorSystem, vertex: RhoVertex, letter: int
) -> F2Functional:
    constraints = []
    for j, basis_vec in enumerate(vertex.low_space.basis):
        constraints.append((basis_vec, (letter >> j) & 1))
    for i in vertex.indices:
        constraints.append((system.equation_vector(i).bits, system.equations[i][1]))
    return functional_from_constraints(constraints, system.ambient())


def build_rho1(
    system: XorSystem,
    n: int,
    ell: int,
) -> RhoInstance:
    """First reduction stage: the tagged 1-to-1 / 2-to-2 label-cover instance.

    Vertices are (tuple, L) pairs with L an ell-dimensional subspace of the
    tuple's coordinate space meeting H_u trivially; two vertices are joined
    when their spaces satisfy one of the two dimension conditions, and a
    label pair is allowed when the forced extensions agree on the overlap.
    Without vertices (ell > 2n leaves none) it raises NoVertices.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    reg = is_regular(system, 2)
    if not reg.regular:
        raise NotRegular(repr(reg))
    ambient = system.ambient()
    tuples = legitimate_tuples(system, n)
    vertices: dict = {}
    for t in tuples:
        h_vecs = [system.equation_vector(i) for i in t]
        h_space = F2Subspace.spanned_by(h_vecs)
        if h_space.dim != n:
            raise NotRegular(f"equation vectors of {t} are dependent")
        coord = F2Subspace.spanned_by(
            [ambient.unit(v) for v in tuple_variables(system, t)]
        )
        for low in enumerate_subspaces(coord, ell, avoid=h_space):
            vertex = RhoVertex(t, low, low.sum(h_space))
            vertices[vertex.key] = vertex
    if not vertices:
        raise NoVertices(f"no {n}-tuple of equations has a low space of dimension {ell} avoiding its H_u")
    keys = sorted(vertices)
    alphabet = tuple(range(2**ell))
    labels = {
        key: {a: _vertex_functional(system, vertices[key], a) for a in alphabet}
        for key in keys
    }

    h_spaces = {
        t: F2Subspace.spanned_by([system.equation_vector(i) for i in t]) for t in tuples
    }
    eq_conditions = {
        t: [(system.equation_vector(i), system.equations[i][1]) for i in t]
        for t in tuples
    }
    ext_cache: dict = {}
    joint_cache: dict = {}

    def get_ext(key, other_tuple) -> list:
        """The forced extension of each label to V + H_other, in alphabet order."""
        ck = (key, other_tuple)
        if ck not in ext_cache:
            conditions = eq_conditions[vertices[key].indices]
            ext_cache[ck] = [
                extend_functional(labels[key][a], conditions, eq_conditions[other_tuple])
                for a in alphabet
            ]
        return ext_cache[ck]

    def get_joint(key, other_tuple) -> F2Subspace:
        ck = (key, other_tuple)
        if ck not in joint_cache:
            joint_cache[ck] = vertices[key].space.sum(h_spaces[other_tuple])
        return joint_cache[ck]

    def signatures(ext: list, joint: F2Subspace, overlap: F2Subspace) -> list:
        """Each label's values on the overlap basis, read through its mask
        once every extension is known to live on the joint space."""
        if any(f.domain != joint for f in ext) or any(map(joint.reduce, overlap.basis)):
            raise AmbientMismatch("label extension does not contain the overlap")
        return [tuple((o & f.mask).bit_count() & 1 for o in overlap.basis) for f in ext]

    constraints = []
    tags = []
    for ia, ib in itertools.combinations(range(len(keys)), 2):
        ka, kb = keys[ia], keys[ib]
        va, vb = vertices[ka], vertices[kb]
        joint_a = get_joint(ka, vb.indices)
        joint_b = get_joint(kb, va.indices)
        total = va.space.sum(vb.space)
        if joint_a.dim == joint_b.dim == total.dim:
            tag = "1-to-1"
        elif joint_a.dim == joint_b.dim == total.dim - 1:
            tag = "2-to-2"
        else:
            continue
        overlap = joint_a.intersect(joint_b)
        ext_a = get_ext(ka, vb.indices)
        ext_b = get_ext(kb, va.indices)
        # a label pair is allowed when the extensions agree on the overlap,
        # that is when their signatures are equal
        sig_a = signatures(ext_a, joint_a, overlap)
        by_signature: dict = {}
        for b, sig in zip(alphabet, signatures(ext_b, joint_b, overlap)):
            by_signature.setdefault(sig, []).append(b)
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
