"""Weighted CSP instances, exact sat/isat values, and label-cover analysis.

An instance holds a multiset of constraints (scope, allowed-tuple set, weight).
Weights are exact rationals normalised to sum 1 on ingestion; zero or negative
weights are rejected.  The structure pair view (`to_structures`) bridges to the
homomorphism machinery in `relstruct`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .relstruct import (
    RelStructure,
    Signature,
    SignatureMismatch,
    gaifman_balls,
)

Label = Hashable
Var = Hashable


class NotBinary(Exception):
    pass


@dataclass(frozen=True)
class Constraint:
    scope: tuple
    allowed: frozenset
    weight: Fraction

    @property
    def arity(self) -> int:
        return len(self.scope)


class CspInstance:
    """Variables, a constraint multiset, an alphabet, and exact weights."""

    __slots__ = ("variables", "alphabet", "constraints", "_var_index")

    def __init__(
        self,
        variables: Iterable[Var],
        alphabet: Iterable[Label],
        constraints: Iterable[tuple],
        weights: Optional[Sequence[Fraction]] = None,
    ) -> None:
        self.variables = tuple(dict.fromkeys(variables))
        self.alphabet = tuple(dict.fromkeys(alphabet))
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        letters = set(self.alphabet)
        raw = []
        for scope, allowed in constraints:
            scope = tuple(scope)
            for v in scope:
                if v not in self._var_index:
                    raise ValueError(f"scope entry {v!r} is not a variable")
            allowed = frozenset(tuple(t) for t in allowed)
            for t in allowed:
                if len(t) != len(scope):
                    raise ValueError("allowed tuple arity does not match scope")
                for a in t:
                    if a not in letters:
                        raise ValueError(f"allowed entry {a!r} not in alphabet")
            raw.append((scope, allowed))
        if weights is None:
            ws = [Fraction(1, len(raw))] * len(raw) if raw else []
        else:
            ws = [Fraction(w) for w in weights]
            if len(ws) != len(raw):
                raise ValueError("one weight per constraint required")
            if any(w <= 0 for w in ws):
                raise ValueError("weights must be strictly positive")
            total = sum(ws, Fraction(0))
            ws = [w / total for w in ws]
        self.constraints = tuple(
            Constraint(scope, allowed, w) for (scope, allowed), w in zip(raw, ws)
        )

    def __repr__(self) -> str:
        return (
            f"CspInstance(|X|={len(self.variables)}, |A|={len(self.alphabet)}, "
            f"|E|={len(self.constraints)})"
        )

    def is_binary(self) -> bool:
        return all(c.arity == 2 for c in self.constraints)

    def value_of(self, f: Mapping) -> Fraction:
        """Weighted satisfied fraction of the classical assignment f."""
        total = Fraction(0)
        for c in self.constraints:
            if tuple(f[v] for v in c.scope) in c.allowed:
                total += c.weight
        return total


def sat_value(inst: CspInstance) -> Fraction:
    """Exact maximum weighted satisfied fraction over classical assignments.

    Branch and bound over the variables in canonical order: a branch is cut
    when even satisfying every still-undecided constraint cannot beat the
    incumbent.
    """
    variables = inst.variables
    pos = {v: i for i, v in enumerate(variables)}
    decided_at: list[list[Constraint]] = [[] for _ in variables]
    for c in inst.constraints:
        if c.scope:
            decided_at[max(pos[v] for v in c.scope)].append(c)
    pending_after = [Fraction(0)] * (len(variables) + 1)
    for i in range(len(variables) - 1, -1, -1):
        pending_after[i] = pending_after[i + 1] + sum(
            (c.weight for c in decided_at[i]), Fraction(0)
        )
    best = Fraction(0)
    assignment: dict = {}

    def bt(i: int, current: Fraction) -> None:
        nonlocal best
        if i == len(variables):
            if current > best:
                best = current
            return
        if current + pending_after[i] <= best:
            return
        v = variables[i]
        for a in inst.alphabet:
            assignment[v] = a
            gained = sum(
                (c.weight for c in decided_at[i]
                 if tuple(assignment[u] for u in c.scope) in c.allowed),
                Fraction(0),
            )
            bt(i + 1, current + gained)
            del assignment[v]

    if not inst.variables:
        return Fraction(1) if not inst.constraints else Fraction(0)
    try:
        bt(0, Fraction(0))
    finally:
        del bt  # frees the self-referencing closure without the cyclic collector
    return best


def _subsets_at_most(alphabet: Sequence, t: int) -> list[frozenset]:
    out = [frozenset()]
    for size in range(1, t + 1):
        out.extend(frozenset(c) for c in itertools.combinations(alphabet, size))
    return out


def isat_value(inst: CspInstance, t: int) -> Fraction:
    """Largest relative size of a variable set whose induced constraints are
    satisfiable by an assignment of at-most-t-element label sets.

    A binary constraint is satisfied by set-valued f when some allowed pair
    (a, b) has a in f(x1) and b in f(x2).  Constraints are induced by S when
    both scope endpoints lie in S.  Searches subsets by descending size with
    forward pruning; exact.  A negative t raises ValueError.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not inst.is_binary():
        raise NotBinary("isat is defined for binary instances only")
    variables = inst.variables
    n = len(variables)
    if n == 0:
        return Fraction(1)
    choices = _subsets_at_most(inst.alphabet, t)
    by_pair: dict[tuple, list[frozenset]] = {}
    for c in inst.constraints:
        by_pair.setdefault(c.scope, []).append(c.allowed)

    def compatible(sx: frozenset, sy: frozenset, allowed: frozenset) -> bool:
        return any(a in sx and b in sy for (a, b) in allowed)

    def satisfiable(S: tuple) -> bool:
        inside = set(S)
        order = {v: i for i, v in enumerate(S)}
        # constraints checked when their later endpoint gets its label set
        relevant: dict[Var, list[tuple[Var, frozenset, bool]]] = {v: [] for v in S}
        for (x, y), alloweds in by_pair.items():
            if x in inside and y in inside:
                later, earlier = (y, x) if order[x] <= order[y] else (x, y)
                for allowed in alloweds:
                    relevant[later].append((earlier, allowed, later is y))
        chosen: dict[Var, frozenset] = {}

        def bt(i: int) -> bool:
            if i == len(S):
                return True
            v = S[i]
            for sv in choices:
                ok = True
                for earlier, allowed, v_is_second in relevant[v]:
                    if earlier == v:
                        sx = sy = sv  # self-pair constraint (x, x)
                    else:
                        other = chosen[earlier]
                        sx, sy = (other, sv) if v_is_second else (sv, other)
                    if not compatible(sx, sy, allowed):
                        ok = False
                        break
                if ok:
                    chosen[v] = sv
                    if bt(i + 1):
                        return True
                    del chosen[v]
            return False

        try:
            return bt(0)
        finally:
            del bt  # frees the self-referencing closure without the cyclic collector

    for size in range(n, -1, -1):
        for S in itertools.combinations(variables, size):
            if satisfiable(S):
                return Fraction(size, n)
    return Fraction(0)


@dataclass(frozen=True)
class DtoDCertificate:
    m: int
    d: int
    permutations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    """Per-constraint (mu, nu): position -> alphabet index, block i occupies
    positions [d*i, d*i + d)."""


@dataclass(frozen=True)
class LabelCoverProfile:
    bipartite: Optional[tuple[frozenset, frozenset]] = None
    projective: Optional[tuple[frozenset, frozenset]] = None
    d_to_1: Optional[int] = None
    d_to_d: Optional[DtoDCertificate] = None


def _bipartite_split(inst: CspInstance) -> Optional[tuple[frozenset, frozenset]]:
    """Orient every scope left-to-right: first entries left, second entries
    right, unconstrained variables left; no variable may be on both sides."""
    firsts = {c.scope[0] for c in inst.constraints}
    seconds = {c.scope[1] for c in inst.constraints}
    if firsts & seconds:
        return None
    left = frozenset(v for v in inst.variables if v not in seconds)
    right = frozenset(v for v in inst.variables if v in seconds)
    return left, right


def _projective_split(inst: CspInstance) -> Optional[tuple[frozenset, frozenset, int]]:
    first = set()
    second = set()
    for c in inst.constraints:
        for (a, b) in c.allowed:
            first.add(a)
            second.add(b)
    if first & second or (first | second) != set(inst.alphabet):
        return None
    d = None
    for c in inst.constraints:
        partners = {a: [b for (aa, b) in c.allowed if aa == a] for a in first}
        if any(len(v) != 1 for v in partners.values()):
            return None
        fibres = {b: [a for (a, bb) in c.allowed if bb == b] for b in second}
        sizes = {len(v) for v in fibres.values()}
        if len(sizes) != 1:
            return None
        this_d = sizes.pop()
        if d is None:
            d = this_d
        elif d != this_d:
            return None
    if d is None:
        return None
    return frozenset(first), frozenset(second), d


def _d_to_d_certificate(inst: CspInstance) -> Optional[DtoDCertificate]:
    """Factor every predicate as block-diagonal J_d blocks under permutations.

    mu and nu are canonicalised least-lexicographically: blocks in order of
    their smallest row index, rows and columns ascending inside each block.
    """
    alpha_index = {a: i for i, a in enumerate(inst.alphabet)}
    n = len(inst.alphabet)
    perms = []
    md = None
    for c in inst.constraints:
        rows: dict[int, set[int]] = {i: set() for i in range(n)}
        for (a, b) in c.allowed:
            rows[alpha_index[a]].add(alpha_index[b])
        supports = [frozenset(rows[i]) for i in range(n)]
        sizes = {len(s) for s in supports}
        if len(sizes) != 1:
            return None
        d = sizes.pop()
        if d == 0 or n % d != 0:
            return None
        m = n // d
        groups: dict[frozenset, list[int]] = {}
        for i, s in enumerate(supports):
            groups.setdefault(s, []).append(i)
        if len(groups) != m or any(len(g) != d for g in groups.values()):
            return None
        cols_seen = set().union(*groups.keys()) if groups else set()
        if cols_seen != set(range(n)):
            return None
        if any(len(s) != d for s in groups.keys()):
            return None
        blocks = sorted(groups.items(), key=lambda kv: min(kv[1]))
        mu: list[int] = []
        nu: list[int] = []
        for support, row_group in blocks:
            mu.extend(sorted(row_group))
            nu.extend(sorted(support))
        if md is None:
            md = (m, d)
        elif md != (m, d):
            return None
        # re-expansion check: (a, b) allowed iff positions in the same block
        mu_inv = {inst.alphabet[a]: p for p, a in enumerate(mu)}
        nu_inv = {inst.alphabet[b]: p for p, b in enumerate(nu)}
        rebuilt = frozenset(
            (a, b)
            for a in inst.alphabet
            for b in inst.alphabet
            if mu_inv[a] // d == nu_inv[b] // d
        )
        if rebuilt != c.allowed:
            return None
        perms.append((tuple(mu), tuple(nu)))
    if md is None:
        return None
    return DtoDCertificate(md[0], md[1], tuple(perms))


def classify_label_cover(inst: CspInstance) -> LabelCoverProfile:
    """Detect bipartite, projective, d-to-1 and d-to-d certificates.

    Every reported flag is backed by a verified certificate: the d-to-d
    permutations re-expand to the predicate bit-exactly.
    """
    if not inst.is_binary():
        raise NotBinary("label-cover classification needs binary constraints")
    bip = _bipartite_split(inst)
    proj = _projective_split(inst)
    projective = (proj[0], proj[1]) if proj else None
    d_to_1 = proj[2] if (proj and bip) else None
    return LabelCoverProfile(
        bipartite=bip,
        projective=projective,
        d_to_1=d_to_1,
        d_to_d=_d_to_d_certificate(inst),
    )


def augment_k(inst: CspInstance, k: int) -> CspInstance:
    """Add a full-predicate binary constraint for every distinct variable pair
    at Gaifman distance <= k; halve original weights, spread the other half
    uniformly over the new constraints."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # structures have no arity-0 symbols; an empty scope joins no variables
    scoped = [(c.scope, c.allowed) for c in inst.constraints if c.scope]
    balls = gaifman_balls(to_structures(CspInstance(inst.variables, inst.alphabet, scoped))[0], k)
    pairs = [
        (x, y)
        for i, x in enumerate(inst.variables)
        for y in inst.variables[i + 1:]
        if y in balls[x]
    ]
    if not pairs:
        return CspInstance(
            inst.variables,
            inst.alphabet,
            [(c.scope, c.allowed) for c in inst.constraints],
            [c.weight for c in inst.constraints],
        )
    full = frozenset(itertools.product(inst.alphabet, inst.alphabet))
    alpha = len(pairs)
    scopes = [(c.scope, c.allowed) for c in inst.constraints]
    weights = [c.weight / 2 for c in inst.constraints]
    for p in pairs:
        scopes.append((p, full))
        weights.append(Fraction(1, 2 * alpha))
    return CspInstance(inst.variables, inst.alphabet, scopes, weights)


def to_structures(inst: CspInstance) -> tuple[RelStructure, RelStructure]:
    """Split an instance into (variable-side, alphabet-side) structures.

    One symbol per distinct predicate table, named by first occurrence.
    Constraint multiplicity and weights collapse; they are irrelevant to
    perfect-assignment semantics.
    """
    tables: dict[tuple[int, frozenset], str] = {}
    x_rels: dict[str, set] = {}
    a_rels: dict[str, set] = {}
    for c in inst.constraints:
        key = (c.arity, c.allowed)
        if key not in tables:
            name = f"R{len(tables)}"
            tables[key] = name
            x_rels[name] = set()
            a_rels[name] = set(c.allowed)
        x_rels[tables[key]].add(c.scope)
    sig = Signature(tuple((name, ar) for (ar, _), name in tables.items()))
    X = RelStructure(sig, inst.variables, x_rels)
    A = RelStructure(sig, inst.alphabet, a_rels)
    return X, A


def from_structures(
    X: RelStructure,
    A: RelStructure,
    weights: Optional[Mapping[tuple[str, tuple], Fraction]] = None,
) -> CspInstance:
    """Rebuild the CSP whose scopes are X's tuples and whose predicate tables
    are A's relations; `weights` may assign a positive rational per (symbol,
    scope), defaulting to uniform."""
    if X.signature != A.signature:
        raise SignatureMismatch("variable and alphabet structures must share a signature")
    scopes = []
    ws = [] if weights is not None else None
    for name in X.signature.names():
        for t in X.ordered(name):
            scopes.append((t, A.relations[name]))
            if ws is not None:
                ws.append(Fraction(weights[(name, t)]))
    return CspInstance(X.domain, A.domain, scopes, ws)
