"""Finite relational structures, homomorphism search, and graph utilities.

Structures are immutable: a signature (named symbols with arities), an ordered
vertex domain, and one set of tuples per symbol.  Everything downstream
(CSP instances, Pultr functors, quantum-assignment verification) is keyed by
these objects, so all searches here iterate in the canonical domain order and
return deterministic results.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, Optional, Sequence

Vertex = Hashable

INFINITY = float("inf")


class SignatureMismatch(Exception):
    pass


class PartialMap(Exception):
    pass


class UnknownVertex(Exception):
    pass


class NotAGraphSignature(Exception):
    pass


class SearchBudgetExceeded(Exception):
    pass


class SizeBudgetExceeded(Exception):
    """A construction would exceed its size budget; raised before building."""


class _AboveCap:
    """Sentinel returned when an exact search exhausts its colour cap."""

    def __repr__(self) -> str:  # pragma: no cover
        return "AboveCap"


ABOVE_CAP = _AboveCap()


@dataclass(frozen=True)
class Signature:
    """A finite set of relation symbols with positive arities."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("relation symbol names must be unique")
        for name, arity in self.symbols:
            if arity < 1:
                raise ValueError(f"arity of {name!r} must be >= 1")

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)


GRAPH_SIGNATURE = Signature((("E", 2),))


class RelStructure:
    """A finite relational structure over a fixed signature.

    The domain order is canonical: searches and enumerations iterate vertices
    in this order, which makes every result of this module reproducible.
    Relation sets are duplicate-free; constraint multiplicity belongs to CSP
    instances, not to structures.  `relations` holds frozensets for
    membership; `ordered` lists the same tuples in the canonical tuple order
    (lexicographic by domain index), and order-sensitive walks read it.
    A structure glued from gadget copies may keep them as `_blocks`: one
    list of groups (gadget, maps), each map one copy's vertices in the
    gadget's domain order; for every symbol, the images of the gadgets'
    tuples union, overlapping or not, to the relation.  `_disjoint` records
    that no tuple lies in two copies (a line digraph's view); False means
    unknown.  `relations` may be deferred: `_trusted` then takes a builder,
    a callable run on their first read (see `_Deferred`); a builder that
    lists a symbol's tuples in canonical order saves `ordered` its sort,
    and `ordered` reads that list without freezing the relations."""

    __slots__ = (
        "signature", "domain", "relations", "_index", "_ordered", "_gaifman", "_supports", "_blocks", "_disjoint"
    )

    def __init__(
        self,
        signature: Signature,
        domain: Iterable[Vertex],
        relations: Mapping[str, Iterable[tuple]],
    ) -> None:
        self.signature = signature
        self.domain = tuple(dict.fromkeys(domain))
        self._index = index = {v: i for i, v in enumerate(self.domain)}
        rels: dict[str, frozenset] = {}
        for name, arity in signature.symbols:
            given = relations.get(name, ())
            if iter(given) is given:  # a one-pass iterator is read once, kept for the rescan
                given = tuple(given)
            tuples = frozenset(map(tuple, given))
            if _bad_tuple(tuples, name, arity, index):
                # only on failure: name the first bad tuple in the order given
                raise ValueError(_bad_tuple(map(tuple, given), name, arity, index))
            rels[name] = tuples
        unknown = set(relations) - set(signature.names())
        if unknown:
            raise ValueError(f"relations for unknown symbols: {sorted(map(str, unknown))}")
        self.relations = rels
        self._ordered: dict = {}
        self._gaifman: Optional[dict] = None
        self._supports: dict = {}
        self._blocks: Optional[list] = None
        self._disjoint = False

    @classmethod
    def _trusted(
        cls, signature: Signature, domain: tuple, tuples: Mapping, blocks: Optional[list] = None, disjoint: bool = False
    ) -> "RelStructure":
        """A structure from checked parts, not checked again: `domain` without
        repeats; per symbol, tuples over it of its arity, as a list in canonical
        tuple order without repeats, or as a set in any order (frozen by insertion,
        so it iterates as the public constructor's would; `ordered` sorts it),
        or a builder of them; `blocks`, if given, the gadget copies every
        symbol's tuples are made of, `disjoint` whether no two share a tuple."""
        self = cls.__new__(_Deferred if callable(tuples) else cls)
        self.signature, self.domain = signature, domain
        self._index = {v: i for i, v in enumerate(domain)}
        self._ordered, self._gaifman, self._supports = {}, None, {}
        self._blocks, self._disjoint = blocks, disjoint
        if callable(tuples):
            self._build = tuples
        else:
            self._freeze(tuples)
        return self

    def _freeze(self, tuples: Mapping) -> dict:
        self.relations = {}
        for name in self.signature.names():
            ts = tuples[name]
            if not isinstance(ts, (set, frozenset)):
                ts = self._ordered.setdefault(name, tuple(ts))
            self.relations[name] = ts if type(ts) is frozenset else frozenset(iter(ts))
        return self.relations

    def index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(repr(v)) from None

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def ordered(self, name: str) -> tuple:
        """The tuples of `name` in the canonical tuple order, sorted on first
        use unless a deferred build listed them in that order."""
        if name not in self._ordered:
            ix = self._index.__getitem__
            ts = sorted(self.relations[name], key=lambda t: tuple(map(ix, t)))
            self._ordered[name] = tuple(ts)
        return self._ordered[name]

    def scan(self, name: str) -> Iterable[tuple]:
        """Tuples of `name` in any order; the sorted list if built, as it reads faster."""
        ts = self._ordered.get(name)
        return self.relations[name] if ts is None else ts

    def count(self, name: str) -> int:
        """The number of tuples of `name`; summed over the copies when they
        are known disjoint, so a deferred build does not run for it."""
        if self._disjoint:
            return sum(len(g.relations[name]) * len(maps) for g, maps in self._blocks)
        return len(self.relations[name])

    def all_tuples(self) -> Iterable[tuple[str, tuple]]:
        for name in self.signature.names():
            for t in self.ordered(name):
                yield name, t

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelStructure)
            and self.signature == other.signature
            and set(self.domain) == set(other.domain)
            and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.signature, frozenset(self.domain)))

    def __repr__(self) -> str:
        sizes = {name: len(ts) for name, ts in self.relations.items()}
        return f"RelStructure(|domain|={len(self.domain)}, tuples={sizes})"

    # -- Gaifman graph -------------------------------------------------

    def gaifman_adjacency(self) -> dict:
        """Adjacency lists of the Gaifman graph (co-occurrence in a tuple)."""
        if self._gaifman is None:
            # neighbours as domain indexes, repeats allowed, sorted as ints
            idx, dom = self._index, self.domain
            adj: list = [[] for _ in dom]
            for name, arity in self.signature.symbols:
                if arity == 2:
                    for a, b in self.relations[name]:
                        i, j = idx[a], idx[b]
                        if i != j:
                            adj[i].append(j)
                            adj[j].append(i)
                    continue
                for t in self.relations[name]:
                    its = [idx[v] for v in t]
                    for i in its:
                        adj[i].extend(j for j in its if j != i)
            self._gaifman = {v: tuple([dom[j] for j in sorted(set(a))]) for v, a in zip(dom, adj)}
        return self._gaifman

    # -- support index -------------------------------------------------

    def supports(self, name: str) -> tuple:
        """Support index of one symbol, built on first use and cached.

        Entry p maps each value to the tuples of `name` that carry it at
        position p; for a binary symbol, to the values at the other end
        instead.  Both are listed in lexicographic domain order.
        """
        index = self._supports.get(name)
        if index is None:
            arity = self.signature.arity(name)
            by_pos: list = [{} for _ in range(arity)]
            for t in self.ordered(name):
                for p, v in enumerate(t):
                    by_pos[p].setdefault(v, []).append(t[1 - p] if arity == 2 else t)
            index = tuple({v: tuple(s) for v, s in m.items()} for m in by_pos)
            self._supports[name] = index
        return index

    def is_graph(self) -> bool:
        return len(self.signature.symbols) == 1 and self.signature.symbols[0][1] == 2

    def graph_symbol(self) -> str:
        if not self.is_graph():
            raise NotAGraphSignature(str(self.signature))
        return self.signature.symbols[0][0]


class _Deferred(RelStructure):
    """Relations built on first read, which falls through to `__getattr__`;
    a subclass, so that attribute reads on other structures stay specialised.
    A symbol the builder lists is ordered from its output without freezing
    the relations; the builder runs once either way."""

    __slots__ = ("_build",)

    def ordered(self, name: str) -> tuple:
        if self._build is not None and name not in self._ordered:
            tuples = self._build()
            for n, ts in tuples.items():
                if not isinstance(ts, (set, frozenset)):
                    tuples[n] = self._ordered[n] = tuple(ts)
            self._build = lambda: tuples
        return RelStructure.ordered(self, name)

    def __getattr__(self, name: str):
        if name != "relations":
            raise AttributeError(name)
        tuples, self._build = self._build(), None
        return self._freeze(tuples)


def _bad_tuple(tuples: Iterable[tuple], name: str, arity: int, index: Mapping) -> Optional[str]:
    """Why the first of `tuples`, in iteration order, that has the wrong
    arity or an entry outside the domain is bad; None if all are good."""
    for t in tuples:
        if len(t) != arity:
            return f"tuple {t!r} has wrong arity for {name!r}"
        for entry in t:
            if entry not in index:
                return f"tuple entry {entry!r} not in domain"
    return None


def _columns(tuples: Iterable[tuple], arity: int) -> list:
    """One iterator per position over the entries of `tuples` there, all
    in the iteration order of `tuples`; zip(*columns) gives them back."""
    return [map(itemgetter(p), tuples) for p in range(arity)]


def check_homomorphism(f: Mapping, X: RelStructure, Y: RelStructure) -> bool:
    """Return True iff f maps every tuple of X into the matching relation of Y.

    Raises PartialMap if f misses a vertex of X and SignatureMismatch if the
    two structures disagree on the signature.
    """
    if X.signature != Y.signature:
        raise SignatureMismatch("structures have different signatures")
    known = Y._index
    for v in X.domain:
        if v not in f:
            raise PartialMap(repr(v))
        if f[v] not in known:
            raise UnknownVertex(repr(f[v]))
    image, groups = f.__getitem__, X._blocks
    for name, arity in X.signature.symbols:
        rel = Y.relations[name]
        if groups is None and not rel.issuperset(zip(*[map(image, c) for c in _columns(X.scan(name), arity)])):
            return False
        # the copies' images union to the relation: f must map each copy into Y
        for g, maps in groups or ():
            at = [list(map(g._index.__getitem__, c)) for c in _columns(g.scan(name), arity)]
            for m in maps if at[0] else ():
                img = list(map(image, m))
                if not rel.issuperset(zip(*[map(img.__getitem__, c) for c in at])):
                    return False
    return True


def _search_homomorphisms(
    X: RelStructure,
    Y: RelStructure,
    *,
    order: Optional[Sequence[Vertex]] = None,
    fixed: Optional[Mapping] = None,
    limit: Optional[int] = None,
    budget: Optional[int] = None,
):
    """Backtracking with forward checking; yields maps in lexicographic order.

    Variables are assigned in `order` (domain order by default); candidate
    labels are tried in Y's domain order, so the first map produced is the
    canonically-least homomorphism for that order.

    Forward checking: once a tuple of X has exactly one unassigned variable
    u, u's candidates shrink to the values that complete the tuple in Y.
    The support of the value just assigned, read from `Y.supports`, lists
    those values (or the Y-tuples to draw them from) in Y's domain order,
    so when it is shorter than u's list the new list is read from it;
    otherwise u's list is scanned.  Both sides give the same list, so the
    output, its order and the node count do not depend on the side read.
    """
    if X.signature != Y.signature:
        raise SignatureMismatch("structures have different signatures")
    var_order = list(order) if order is not None else list(X.domain)
    pos = {v: i for i, v in enumerate(var_order)}
    n = len(var_order)

    # Per symbol and variable v: the tuples through v and another variable
    # (a wider tuple is paired with its distinct variables).  Once all but
    # one variable of such a tuple are assigned, forward checking leaves the
    # last one only values that complete it, so it never needs checking
    # when full.  A tuple on one variable is checked when that is assigned.
    groups: list[tuple[str, int, dict]] = []
    single: list[list[tuple[str, tuple]]] = [[] for _ in range(n)]
    for name, arity in X.signature.symbols:
        through: dict[Vertex, list] = {v: [] for v in var_order}
        for t in X.relations[name]:
            if arity == 2:
                a, b = t
                if a != b:
                    through[a].append(t)
                    through[b].append(t)
                    continue
            else:
                distinct = tuple(set(t))
                if len(distinct) > 1:
                    for w in distinct:
                        through[w].append((t, distinct))
                    continue
            single[pos[t[0]]].append((name, t))
        groups.append((name, arity, through))

    full = list(Y.domain)
    candidates: dict[Vertex, Sequence] = {v: full for v in var_order}
    assignment: dict = {}
    if fixed:
        for v, y in fixed.items():
            candidates[v] = [y]

    nodes = 0
    found = 0

    def consistent_tuple(name: str, t: tuple) -> bool:
        return tuple(assignment[v] for v in t) in Y.relations[name]

    def propagate(v: Vertex) -> tuple[list[tuple[Vertex, Sequence]], bool]:
        """Forward-check tuples touching v with exactly one unassigned slot."""
        trimmed: list[tuple[Vertex, Sequence]] = []
        a = assignment[v]
        for name, arity, through in groups:
            rel = Y.relations[name]
            index = None
            for entry in through[v]:
                if arity == 2:
                    t = entry
                    at = 0 if t[0] == v else 1
                    u = t[1 - at]
                    if u in assignment:
                        continue
                else:
                    t, distinct = entry
                    unassigned = [w for w in distinct if w not in assignment]
                    if len(unassigned) != 1:
                        continue
                    u = unassigned[0]
                    at = t.index(v)
                cands = candidates[u]
                if len(cands) > 1:
                    if index is None:
                        index = Y.supports(name)
                    support = index[at].get(a, ())
                else:
                    support = cands  # one value is scanned without the index
                if len(support) < len(cands):
                    if arity != 2:
                        # the Y-tuples with a at position `at`, cut to those
                        # agreeing with the assignment and repeating one value
                        # wherever u stands
                        ui = t.index(u)
                        support = [
                            yt[ui]
                            for yt in support
                            if yt == tuple(yt[ui] if w == u else assignment[w] for w in t)
                        ]
                    if cands is full:
                        ok = support
                    else:
                        kept = set(cands)
                        ok = [y for y in support if y in kept]
                elif arity != 2:
                    ok = [
                        y
                        for y in cands
                        if tuple(y if w == u else assignment[w] for w in t) in rel
                    ]
                elif at == 0:
                    ok = [y for y in cands if (a, y) in rel]
                else:
                    ok = [y for y in cands if (y, a) in rel]
                if len(ok) < len(cands):
                    trimmed.append((u, cands))
                    candidates[u] = ok
                    if not ok:
                        return trimmed, True
        return trimmed, False

    def undo(trimmed: list[tuple[Vertex, Sequence]]) -> None:
        # restore in reverse: one propagate call can trim the same variable
        # twice, and forward order would resurrect the intermediate list
        for u, old in reversed(trimmed):
            candidates[u] = old

    # iterative depth-first search; recursion would overflow on the large
    # structures produced by iterated constructions.  Candidate lists are
    # replaced, never changed in place, so they are iterated without a copy.
    if n == 0:
        yield {}
        return
    iters: list = [None] * n
    trims: list = [None] * n
    iters[0] = iter(candidates[var_order[0]])
    i = 0
    while i >= 0:
        v = var_order[i]
        descended = False
        for y in iters[i]:
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded(f"homomorphism search exceeded {budget} nodes")
            assignment[v] = y
            if not all(consistent_tuple(name, t) for name, t in single[i]):
                del assignment[v]
                continue
            trimmed, dead = propagate(v)
            if dead:
                undo(trimmed)
                del assignment[v]
                continue
            if i == n - 1:
                found += 1
                yield dict(assignment)
                undo(trimmed)
                del assignment[v]
                if limit is not None and found >= limit:
                    return
                continue
            trims[i] = trimmed
            i += 1
            iters[i] = iter(candidates[var_order[i]])
            descended = True
            break
        if not descended:
            i -= 1
            if i >= 0:
                undo(trims[i])
                trims[i] = None
                del assignment[var_order[i]]


def find_homomorphism(
    X: RelStructure,
    Y: RelStructure,
    *,
    budget: Optional[int] = None,
) -> Optional[dict]:
    """Return the canonically-least homomorphism X -> Y, or None."""
    for f in _search_homomorphisms(X, Y, limit=1, budget=budget):
        return f
    return None


def enumerate_homomorphisms(
    X: RelStructure,
    Y: RelStructure,
    *,
    budget: Optional[int] = None,
) -> list[dict]:
    """All homomorphisms X -> Y in canonical (lexicographic) order."""
    return list(_search_homomorphisms(X, Y, budget=budget))


def gaifman_balls(X: RelStructure, radius: int) -> dict:
    """For each vertex, the set of vertices within `radius` Gaifman steps."""
    adj = X.gaifman_adjacency()
    return {v: set(_bfs_distances(adj, v, radius)) for v in X.domain}


def _bfs_distances(adj: Mapping | Sequence, source: Vertex, radius: float = INFINITY) -> dict:
    """Gaifman distances from `source` to every vertex it reaches within
    `radius` steps (all of them by default), in BFS order."""
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth < radius:
        depth += 1
        nxt = []
        for w in frontier:
            for x in adj[w]:
                if x not in dist:
                    dist[x] = depth
                    nxt.append(x)
        frontier = nxt
    return dist


def gaifman_distance(X: RelStructure, u: Vertex, v: Vertex):
    """BFS distance between u and v in the Gaifman graph; inf if disconnected."""
    X.index(u)
    X.index(v)
    return _bfs_distances(X.gaifman_adjacency(), u).get(v, INFINITY)


def is_connected(X: RelStructure) -> bool:
    """Whether the Gaifman graph is connected, decided by one BFS."""
    if not X.domain:
        return True
    return len(_bfs_distances(X.gaifman_adjacency(), X.domain[0])) == len(X.domain)


def diameter_and_connectivity(X: RelStructure) -> tuple[bool, object]:
    """(connected, diameter); diameter is inf when disconnected."""
    if not X.domain:
        return True, 0
    adj = X.gaifman_adjacency()
    diameter = 0
    for v in X.domain:
        dist = _bfs_distances(adj, v)
        if len(dist) < len(X.domain):
            return False, INFINITY
        diameter = max(diameter, max(dist.values()))
    return True, diameter


def clique(n: int) -> RelStructure:
    """The n-clique: both orientations of every pair of distinct vertices."""
    if n < 1:
        raise ValueError("clique size must be >= 1")
    dom = [f"k{i}" for i in range(n)]
    edges = [(a, b) for a in dom for b in dom if a != b]
    return RelStructure(GRAPH_SIGNATURE, dom, {"E": edges})


def symmetrize(D: RelStructure) -> RelStructure:
    """Close the single binary relation of a digraph under tuple reversal."""
    sym = D.graph_symbol()
    edges = set(D.relations[sym])
    edges |= {(b, a) for (a, b) in edges}
    return RelStructure(D.signature, D.domain, {sym: edges})


def product_sides(gadget: RelStructure, name: str) -> Optional[tuple]:
    """(P, Q), the domain indexes at the first and at the second position
    of the binary relation `name` of `gadget`, each in order of first
    occurrence, when that relation is exactly P x Q (a complete bipartite
    digraph from P to Q); else None."""
    ix = gadget._index.__getitem__
    sides = [list(dict.fromkeys(map(ix, c))) for c in _columns(gadget.scan(name), 2)]
    return tuple(sides) if len(sides[0]) * len(sides[1]) == len(gadget.relations[name]) else None


def is_bipartite(G: RelStructure) -> bool:
    """Whether the graph G has a homomorphism to K2: BFS depths over lists
    of neighbour indexes, taken from each unvisited vertex in domain order,
    must differ in parity across every edge (so a loop rules it out).

    When every gadget of G's block view is a complete bipartite digraph
    P x Q (`product_sides`), the BFS runs on the side graph instead: per
    copy, a node joined to its P vertices, a node joined to its Q vertices,
    and an edge between the two.  A 2-colouring of it gives each copy's P
    vertices one colour and its Q vertices the other, so it exists iff G's
    does, and it has an edge per copy vertex, not per edge of G."""
    sym = G.graph_symbol()
    sides = [product_sides(g, sym) for g, _ in G._blocks or ()]
    if G._blocks is None or None in sides:
        edges = G.scan(sym)
        heads, tails = (list(map(G._index.__getitem__, c)) for c in _columns(edges, 2))
        n = len(G.domain)
    else:
        heads, tails, n = [], [], len(G.domain)
        ix = G._index.__getitem__
        for (_, maps), (p_side, q_side) in zip(G._blocks, sides):
            p_nodes, q_nodes = range(n, n + 2 * len(maps), 2), range(n + 1, n + 2 * len(maps), 2)
            for positions, nodes in ((p_side, p_nodes), (q_side, q_nodes)):
                for at in positions:
                    heads += map(ix, map(itemgetter(at), maps))
                    tails += nodes
            heads += p_nodes
            tails += q_nodes
            n += 2 * len(maps)
    adj: list = [[] for _ in range(n)]
    for i, j in zip(heads, tails):
        adj[i].append(j)
        adj[j].append(i)
    depth: dict = {}
    for i in range(len(adj)):
        if i not in depth:
            depth.update(_bfs_distances(adj, i))
    at = depth.__getitem__
    return all((a - b) % 2 for a, b in zip(map(at, heads), map(at, tails)))


def chromatic_number(G: RelStructure, cap: int):
    """Least n <= cap with a homomorphism G -> K_n, else the ABOVE_CAP sentinel.

    Exact search: vertices are coloured in descending Gaifman-degree order
    with new-colour symmetry breaking, which is sound for clique targets.
    A cap below 1 raises ValueError.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    sym = G.graph_symbol()
    adj = G.gaifman_adjacency()
    loops = any(a == b for (a, b) in G.relations[sym])
    if loops:
        return ABOVE_CAP
    order = sorted(G.domain, key=lambda v: (-len(adj[v]), G.index(v)))
    colour: dict = {}

    def colourable(k: int) -> bool:
        colour.clear()

        def bt(i: int, used: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            forbidden = {colour[u] for u in adj[v] if u in colour}
            for c in range(min(k, used + 1)):
                if c in forbidden:
                    continue
                colour[v] = c
                if bt(i + 1, max(used, c + 1)):
                    return True
                del colour[v]
            return False

        try:
            return bt(0, 0)
        finally:
            # bt reaches itself through its own closure cell; emptying the
            # cell lets reference counting free it without the cyclic collector
            del bt

    for k in range(1, cap + 1):
        if colourable(k):
            return k
    return ABOVE_CAP


def independence_number(G: RelStructure, cap: Optional[int] = None) -> int:
    """Exact maximum independent set size in the single binary relation.

    `cap` bounds the answer from above (search stops early once reached);
    a negative cap raises ValueError.
    """
    if cap is not None and cap < 0:
        raise ValueError("cap must be >= 0")
    sym = G.graph_symbol()
    adj = G.gaifman_adjacency()
    loopers = {a for (a, b) in G.relations[sym] if a == b}
    verts = [v for v in sorted(G.domain, key=lambda v: (-len(adj[v]), G.index(v))) if v not in loopers]
    best = 0
    target = cap if cap is not None else len(verts)

    def bt(i: int, chosen: set) -> None:
        nonlocal best
        if best >= target:
            return
        if len(chosen) > best:
            best = len(chosen)
        if i == len(verts) or len(chosen) + (len(verts) - i) <= best:
            return
        v = verts[i]
        if not any(u in chosen for u in adj[v]):
            chosen.add(v)
            bt(i + 1, chosen)
            chosen.remove(v)
        bt(i + 1, chosen)

    try:
        bt(0, set())
    finally:
        del bt  # frees the self-referencing closure, as in chromatic_number
    return min(best, target)


def digraph(edges: Iterable[tuple]) -> RelStructure:
    """Convenience constructor for a single-binary-symbol structure on the
    vertices of its edges, in order of first occurrence."""
    edges = [tuple(e) for e in edges]
    return RelStructure(GRAPH_SIGNATURE, dict.fromkeys(v for e in edges for v in e), {"E": edges})


def relabel(X: RelStructure, prefix: str = "n") -> tuple[RelStructure, dict]:
    """Rename vertices to compact prefix+index strings (domain order);
    returns the renamed structure and the old-to-new map.  Deeply nested
    vertex names from iterated constructions stay cheap this way.  The
    block view's copies are renamed with it, and the renamed relations are
    built on first read."""
    mapping = {v: f"{prefix}{i}" for i, v in enumerate(X.domain)}
    image = mapping.__getitem__

    def ordered() -> dict:
        # the renaming keeps every domain index, so it keeps the tuple order
        return {
            n: list(zip(*(map(image, column) for column in _columns(X.ordered(n), arity))))
            for n, arity in X.signature.symbols
        }

    blocks = None if X._blocks is None else [(g, [tuple(map(image, m)) for m in maps]) for g, maps in X._blocks]
    return RelStructure._trusted(X.signature, tuple(mapping.values()), ordered, blocks, X._disjoint), mapping
