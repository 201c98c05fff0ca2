"""Brute-force oracles for the small-queries workload.

They work on the plain Python data the generator emits (lists, dicts,
tuples, Fractions) and share no code with chromagap: homomorphisms are found
by trying every map, values by trying every assignment, and projector facts
by exact 2x2 / 4x4 Gaussian-rational arithmetic written out here.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

# -- relational structures: {"domain": [...], "rels": {name: [tuples]}} ---


def is_hom(f: dict, X: dict, Y: dict) -> bool:
    for name, tuples in X["rels"].items():
        target = Y["relset"][name]
        for t in tuples:
            if tuple(f[v] for v in t) not in target:
                return False
    return True


def all_homs(X: dict, Y: dict) -> list:
    """Every homomorphism X -> Y, in lexicographic order of the image list."""
    out = []
    for images in itertools.product(Y["domain"], repeat=len(X["domain"])):
        f = dict(zip(X["domain"], images))
        if is_hom(f, X, Y):
            out.append(f)
    return out


def hom_exists(X: dict, Y: dict) -> bool:
    for images in itertools.product(Y["domain"], repeat=len(X["domain"])):
        if is_hom(dict(zip(X["domain"], images)), X, Y):
            return True
    return False


def chromatic(domain: list, edges: list, cap: int):
    """Least n <= cap with a proper n-colouring of the undirected graph, or
    None when there is a loop or no n <= cap works."""
    if any(a == b for a, b in edges):
        return None
    for n in range(1, cap + 1):
        for colours in itertools.product(range(n), repeat=len(domain)):
            c = dict(zip(domain, colours))
            if all(c[a] != c[b] for a, b in edges):
                return n
    return None


def gamma_side(template: dict, X: dict, Y: dict) -> bool:
    """X -> Gamma(Y), with Gamma(Y) built from all maps A -> Y and B_T -> Y."""
    A = template["A"]
    a_dom = A["domain"]
    gamma_dom = [tuple(h[a] for a in a_dom) for h in all_homs(A, Y)]
    gamma_rels = {}
    for name, maps in template["eps"].items():
        tuples = set()
        for ell in all_homs(template["B"][name], Y):
            tuples.add(tuple(tuple(ell[m[a]] for a in a_dom) for m in maps))
        gamma_rels[name] = tuples
    G = {"domain": gamma_dom, "rels": gamma_rels, "relset": gamma_rels}
    return hom_exists(X, G)


# -- weighted binary CSPs: variables, alphabet, [(scope, allowed, weight)] --


def sat_value(variables, alphabet, constraints) -> Fraction:
    total = sum((w for _, _, w in constraints), Fraction(0))
    best = Fraction(0)
    for labels in itertools.product(alphabet, repeat=len(variables)):
        f = dict(zip(variables, labels))
        got = sum(
            (w for scope, allowed, w in constraints if tuple(f[v] for v in scope) in allowed),
            Fraction(0),
        )
        best = max(best, got)
    return best / total if constraints else Fraction(1)


def isat_value(variables, alphabet, constraints, t: int) -> Fraction:
    """Largest |S|/n whose induced constraints some t-set assignment meets.
    Larger label sets only help, so sets of exactly min(t, |alphabet|)
    labels suffice."""
    n = len(variables)
    size = min(t, len(alphabet))
    choices = [frozenset(c) for c in itertools.combinations(alphabet, size)]
    for k in range(n, -1, -1):
        for S in itertools.combinations(variables, k):
            inside = set(S)
            induced = [(sc, al) for sc, al, _ in constraints if set(sc) <= inside]
            for sets in itertools.product(choices, repeat=k):
                f = dict(zip(S, sets))
                if all(
                    any(a in f[sc[0]] and b in f[sc[1]] for a, b in al)
                    for sc, al in induced
                ):
                    return Fraction(k, n)
    return Fraction(0)


def bipartite(variables, constraints) -> bool:
    """Some side map puts every scope's first entry left, second right."""
    for sides in itertools.product((0, 1), repeat=len(variables)):
        s = dict(zip(variables, sides))
        if all(s[sc[0]] == 0 and s[sc[1]] == 1 for sc, _, _ in constraints):
            return True
    return False


def projective_d(alphabet, constraints):
    """d when first and second labels split the alphabet and every
    constraint maps each first label to exactly one second label with all
    fibres of size d; otherwise None."""
    first = {a for _, al, _ in constraints for a, _ in al}
    second = {b for _, al, _ in constraints for _, b in al}
    if first & second or first | second != set(alphabet):
        return None
    d = None
    for _, al, _ in constraints:
        for a in first:
            if sum(1 for x, _ in al if x == a) != 1:
                return None
        sizes = {sum(1 for _, y in al if y == b) for b in second}
        if len(sizes) != 1:
            return None
        this = sizes.pop()
        if d not in (None, this):
            return None
        d = this
    return d


def block_shape(alphabet, allowed):
    """(m, d) when allowed is a disjoint union of m full d x d blocks that
    cover the alphabet on both sides; otherwise None."""
    rows = {a: frozenset(b for x, b in allowed if x == a) for a in alphabet}
    sizes = {len(r) for r in rows.values()}
    if len(sizes) != 1:
        return None
    d = sizes.pop()
    if d == 0:
        return None
    blocks = {}
    for a, r in rows.items():
        blocks.setdefault(r, []).append(a)
    supports = list(blocks)
    if any(len(rs) != d for rs in blocks.values()):
        return None
    seen = set()
    for s in supports:
        if seen & s:
            return None
        seen |= s
    if seen != set(alphabet):
        return None
    return len(alphabet) // d, d


def d_to_d_shape(alphabet, constraints):
    shapes = {block_shape(alphabet, al) for _, al, _ in constraints}
    if len(shapes) != 1 or None in shapes:
        return None
    return shapes.pop()


# -- 3XOR systems to the first 2-to-2 stage, over GF(2) bitmasks -----------


def _span(vectors) -> frozenset:
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return frozenset(out)


def _dim(space: frozenset) -> int:
    return int(math.log2(len(space)))


def rho1_shape(equations: list) -> tuple:
    """(vertices, 1-to-1 constraints, 2-to-2 constraints) of the n = 1,
    ell = 2 reduction, from the dimension conditions on the vertex spaces."""
    names = []
    for vs, _ in equations:
        for v in vs:
            if v not in names:
                names.append(v)
    bit = {v: 1 << i for i, v in enumerate(names)}
    h = [sum(bit[v] for v in vs) for vs, _ in equations]
    vertices = []
    for i, (vs, _) in enumerate(equations):
        coord = _span([bit[v] for v in vs])
        planes = set()
        for a, b in itertools.combinations(sorted(coord - {0}), 2):
            plane = _span([a, b])
            if h[i] not in plane:
                planes.add(plane)
        for plane in planes:
            vertices.append((i, _span(list(plane) + [h[i]])))
    one, two = 0, 0
    for (i, va), (j, vb) in itertools.combinations(vertices, 2):
        joint_a = _dim(_span(list(va) + [h[j]]))
        joint_b = _dim(_span(list(vb) + [h[i]]))
        total = _dim(_span(list(va) + list(vb)))
        if joint_a == joint_b == total:
            one += 1
        elif joint_a == joint_b == total - 1:
            two += 1
    return len(vertices), one, two


# -- exact projector algebra: entries are (re, im) Fraction pairs --------

ZERO = (Fraction(0), Fraction(0))


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = cadd(acc, cmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def is_zero(a) -> bool:
    return all(e == ZERO for row in a for e in row)


def _hermitian(a) -> bool:
    n = len(a)
    return all(a[i][j] == (a[j][i][0], -a[j][i][1]) for i in range(n) for j in range(n))


def _is_pvm(family, mul) -> bool:
    if not family:
        return False
    n = len(family[0])
    acc = [[ZERO] * n for _ in range(n)]
    for p in family:
        if not _hermitian(p) or mul(p, p) != p:
            return False
        acc = [[cadd(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(acc, p)]
    for p, q in itertools.combinations(family, 2):
        if not is_zero(mul(p, q)):
            return False
    one = (Fraction(1), Fraction(0))
    return all(acc[i][j] == (one if i == j else ZERO) for i in range(n) for j in range(n))


def verify(X: dict, Y: dict, pvms: dict, k: int) -> dict:
    """pvm_ok / perfect / passed of an assignment, from the definitions:
    PVM families, zero ordered products on forbidden label tuples, and
    commuting projectors for distinct variables within distance k."""
    memo: dict = {}

    def mul(a, b):
        # families share matrix objects, so products repeat; the memo holds
        # a and b, which keeps their ids valid
        key = (id(a), id(b))
        if key not in memo:
            memo[key] = (a, b, matmul(a, b))
        return memo[key][2]

    pvm_ok = all(_is_pvm(list(pvms[x].values()), mul) for x in X["domain"])
    perfect = pvm_ok
    for name, tuples in X["rels"].items():
        for t in tuples:
            for combo in itertools.product(*(list(pvms[v]) for v in t)):
                if combo in Y["relset"][name]:
                    continue
                acc = pvms[t[0]][combo[0]]
                for v, y in zip(t[1:], combo[1:]):
                    acc = mul(acc, pvms[v][y])
                if not is_zero(acc):
                    perfect = False
    passed = perfect
    if passed and k >= 1:
        adj = {v: set() for v in X["domain"]}
        for tuples in X["rels"].values():
            for t in tuples:
                for a in t:
                    adj[a].update(b for b in t if b != a)
        for x in X["domain"]:
            dist = {x: 0}
            queue = deque([x])
            while queue:
                u = queue.popleft()
                if dist[u] == k:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            for xp in dist:
                if xp == x:
                    continue
                for p in pvms[x].values():
                    for q in pvms[xp].values():
                        if mul(p, q) != mul(q, p):
                            passed = False
    return {"pvm_ok": pvm_ok, "perfect": perfect, "passed": passed}
