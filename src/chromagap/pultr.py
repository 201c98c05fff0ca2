"""Pultr templates, the left and central functors, and quantum transfers.

A template consists of a gadget structure A, one gadget B_T per target
symbol, and homomorphisms eps_{i,T}: A -> B_T.  The central functor sends Y
to the structure of homomorphisms A -> Y; the left functor glues copies of
the gadgets along the eps maps and quotients.  The two are thin adjoints:
Lambda X -> Y iff X -> Gamma Y.

Quantum transfers follow the adjunction: towards Gamma, the projector of
(x, h) is the ordered product of the copy projectors Q[a^(x), h(a)], which
requires compatibility level (k+1) * diam(template) on the input; towards
Lambda, projectors are fibre sums and gadget products at the same level k.
All outputs are rechecked structurally (projector factors commute before
multiplying; quotient classes agree exactly), so a violated contract raises
instead of producing garbage.  Maps out of a gadget are decided by
relstruct's `check_homomorphism` or its search; column passes only take
the path on which every check holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, getitem, itemgetter
from typing import Hashable, Mapping, Optional, Sequence

from .qop import PMatrix, QuantumAssignment, _ProductCache, compose_sandwich
from .relstruct import (
    RelStructure,
    Signature,
    _columns,
    _search_homomorphisms,
    check_homomorphism,
    diameter_and_connectivity,
    enumerate_homomorphisms,
    find_homomorphism,
    is_connected,
    product_sides,
)


class NotConnected(Exception):
    pass


class NotFaithful(Exception):
    pass


class CompatibilityTooLow(Exception):
    pass


class WellDefinednessViolation(Exception):
    pass


@dataclass(frozen=True)
class PultrTemplate:
    """Gadget data (A, {B_T}, {eps_{i,T}}) for a (rho, tau) functor pair."""

    rho: Signature
    tau: Signature
    A: RelStructure
    B: Mapping[str, RelStructure]
    eps: Mapping[str, tuple]
    """eps[T] is a tuple of arity(T) maps, each a dict A.domain -> B_T.domain."""

    def __post_init__(self) -> None:
        if self.A.signature != self.rho:
            raise ValueError("gadget A must be a rho-structure")
        for name, arity in self.tau.symbols:
            if name not in self.B:
                raise ValueError(f"missing gadget for symbol {name!r}")
            if self.B[name].signature != self.rho:
                raise ValueError(f"gadget for {name!r} must be a rho-structure")
            maps = self.eps[name]
            if len(maps) != arity:
                raise ValueError(f"need {arity} eps maps for {name!r}")
            for m in maps:
                if not check_homomorphism(m, self.A, self.B[name]):
                    raise ValueError(f"eps map for {name!r} is not a homomorphism")

    @cached_property
    def eps_parts(self) -> Optional[dict]:
        """Per symbol T, the inverse of the eps maps: b -> (i, A-index of a)
        for the unique eps_i(a) = b.  Defined when, for every T, each eps_i
        is injective on exactly A's domain and the images are disjoint and
        cover B_T's domain; None otherwise."""
        a_index = {a: ai for ai, a in enumerate(self.A.domain)}
        out = {}
        for name, arity in self.tau.symbols:
            maps, bdom = self.eps[name], self.B[name].domain
            if any(m.keys() != a_index.keys() for m in maps):
                return None
            inverse = {m[a]: (i, ai) for i, m in enumerate(maps) for a, ai in a_index.items()}
            if len(inverse) != arity * len(a_index) or inverse.keys() != set(bdom):
                return None
            out[name] = inverse
        return out


@dataclass(frozen=True)
class TemplateReport:
    connected: bool
    faithful: bool
    diameter: Optional[int]


def template_predicates(template: PultrTemplate) -> TemplateReport:
    """Connectivity (gadgets connected and every gadget tuple an eps-image),
    faithfulness (gadgets are disjoint isomorphic eps-copies of A), and the
    diameter (max gadget Gaifman diameter, defined when connected)."""
    structures = [template.A] + [template.B[name] for name, _ in template.tau.symbols]
    connected = all(is_connected(s) for s in structures) and all(
        template.B[name].relations[rname]
        <= {tuple(map(m.__getitem__, at)) for m in template.eps[name] for at in template.A.relations[rname]}
        for name, _ in template.tau.symbols
        for rname, _ in template.rho.symbols
    )
    # the all-pairs sweep runs only once every structure is known connected
    diameter = (
        max(diameter_and_connectivity(s)[1] for s in structures) if connected else None
    )
    return TemplateReport(connected, _is_faithful(template), int(diameter) if connected else None)


def _is_faithful(template: PultrTemplate) -> bool:
    """The gadgets are disjoint isomorphic eps-copies of A: the eps images
    partition B_T, and the gadget tuples inside the image of eps_i, those
    with every entry in part i, are exactly the eps_i-images of A's tuples."""
    for name, _ in template.tau.symbols:
        bt = template.B[name]
        maps = template.eps[name]
        images = [frozenset(m.values()) for m in maps]
        if any(len(img) != len(template.A.domain) for img in images):
            return False
        if set().union(*images) != set(bt.domain) or sum(map(len, images)) != len(bt.domain):
            return False
        part = {b: i for i, img in enumerate(images) for b in img}
        inside: dict = {}  # (relation, i) -> the gadget tuples inside the image of eps_i
        for rname, r_arity in template.rho.symbols:
            ts = bt.relations[rname]
            # only a part met at every position can hold a whole tuple, so the
            # tuples are read one by one only when some part is
            if set.intersection(*[set(map(part.__getitem__, set(c))) for c in _columns(ts, r_arity)]):
                for t in ts:
                    ps = set(map(part.__getitem__, t))
                    if len(ps) == 1:
                        inside.setdefault((rname, ps.pop()), set()).add(t)
        for i, m in enumerate(maps):
            for rname, r_arity in template.rho.symbols:
                at = _columns(template.A.relations[rname], r_arity)
                if set(zip(*[map(m.__getitem__, c) for c in at])) != inside.get((rname, i), set()):
                    return False
    return True


def central_apply(
    template: PultrTemplate, X: RelStructure, *, budget: Optional[int] = None
) -> RelStructure:
    """The structure of homomorphisms A -> X; a tau-tuple for every gadget
    homomorphism ell: B_T -> X, formed by the compositions ell o eps_i."""
    if X.signature != template.rho:
        raise ValueError("central functor expects a rho-structure")
    a_order = template.A.domain
    homs = enumerate_homomorphisms(template.A, X, budget=budget)
    domain = [tuple(h[a] for a in a_order) for h in homs]
    relations: dict[str, set] = {name: set() for name, _ in template.tau.symbols}
    for name, arity in template.tau.symbols:
        maps = template.eps[name]
        for ell in enumerate_homomorphisms(template.B[name], X, budget=budget):
            relations[name].add(
                tuple(
                    tuple(ell[maps[i][a]] for a in a_order) for i in range(arity)
                )
            )
    return RelStructure(template.tau, domain, relations)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass
class LambdaQuotient:
    """The glued-copy quotient underlying the left functor.

    Tags are ("A", x, a) for copy vertices of A and ("B", T, xt, b) for copy
    vertices of gadgets: A's first, by x and a in domain order, then per
    symbol by xt in canonical order and b in B_T's domain order.
    `class_of_id` gives each tag id its class's least tag id, and each class
    is named by that least tag, or by a renaming of it (the eta digraph's
    (x, z))."""

    tags: list
    tag_ids: dict
    class_of_id: list
    class_name: dict

    def cls(self, tag) -> Hashable:
        return self.class_name[self.class_of_id[self.tag_ids[tag]]]


def lambda_quotient(template: PultrTemplate, X: RelStructure) -> LambdaQuotient:
    """The quotient of the disjoint gadget copies over X by the gluing
    ("A", xt[i], a) ~ ("B", T, xt, eps_i(a)) for every tau-tuple xt.

    When the eps maps of every symbol partition B_T (`eps_parts`), each
    gadget tag joins exactly one A tag and no two A tags meet, so every A
    tag is its own class and ("B", T, xt, b) is in the class of
    ("A", xt[i], a) for eps_i(a) = b: read off the table, in closed form.
    Any other template (the line digraph's, with eps_1(a2) = eps_2(a1))
    is quotiented by a union-find over the gluing pairs.  Both give each
    class its least tag id and name it by that tag."""
    if X.signature != template.tau:
        raise ValueError("left functor expects a tau-structure")
    a_dom = template.A.domain
    tags = [("A", x, a) for x in X.domain for a in a_dom]
    for name in template.tau.names():
        bdom = template.B[name].domain
        tags += [("B", name, xt, b) for xt in X.ordered(name) for b in bdom]
    tag_ids = dict(zip(tags, itertools.count()))
    table = template.eps_parts
    if table is not None:
        n_a = len(a_dom)
        x_start = {x: n_a * j for j, x in enumerate(X.domain)}
        a_ids = list(range(len(X.domain) * n_a))
        class_of_id = a_ids[:]
        for name in template.tau.names():
            inverse = list(map(table[name].__getitem__, template.B[name].domain))
            parts, offsets = [i for i, _ in inverse], [ai for _, ai in inverse]
            for xt in X.ordered(name):
                starts = list(map(x_start.__getitem__, xt))
                # ids read back from a_ids, so every B tag shares its class's int
                class_of_id += map(a_ids.__getitem__, map(add, map(starts.__getitem__, parts), offsets))
        return LambdaQuotient(tags, tag_ids, class_of_id, dict(zip(a_ids, tags)))
    uf = _UnionFind(len(tags))
    for name, arity in template.tau.symbols:
        maps = template.eps[name]
        for xt in X.relations[name]:
            for j in range(arity):
                for a in a_dom:
                    uf.union(
                        tag_ids[("A", xt[j], a)],
                        tag_ids[("B", name, xt, maps[j][a])],
                    )
    class_of_id = [uf.find(i) for i in range(len(tags))]
    # a root is its class's least tag id, so roots come in tag order
    return LambdaQuotient(tags, tag_ids, class_of_id, {root: tags[root] for root in dict.fromkeys(class_of_id)})


def left_apply(
    template: PultrTemplate, X: RelStructure, *, quotient: Optional[LambdaQuotient] = None
) -> RelStructure:
    """Glue a copy of A per vertex and a copy of B_T per tau-tuple along the
    eps maps.  The copies, in canonical order and as class names over their
    gadget's domain, are the block view; the gadget relations are pushed to
    the quotient on first read."""
    q = quotient if quotient is not None else lambda_quotient(template, X)
    names = [q.class_name[root] for root in q.class_of_id]

    def copies(gadget: RelStructure, prefixes: list) -> list:
        # a copy's tags are consecutive in q.tags, in its gadget's domain order
        n = len(gadget.domain)
        starts = [q.tag_ids[(*p, gadget.domain[0])] for p in prefixes] if n else [0] * len(prefixes)
        return [names[s : s + n] for s in starts]

    A = template.A
    groups = [(A, copies(A, [("A", x) for x in X.domain]))]
    for t in template.tau.names():
        groups.append((template.B[t], copies(template.B[t], [("B", t, xt) for xt in X.ordered(t)])))

    def relations() -> dict:
        # images appended in canonical copy and tuple order, frozen once; the
        # frozenset drops the repeats of overlapping copies
        relations: dict = {}
        for rname, arity in template.rho.symbols:
            images: list = []
            for at in A.ordered(rname):
                images += zip(*[map(itemgetter(A.index(a)), groups[0][1]) for a in at])
            for bt, maps in groups[1:]:
                flat = list(map(bt._index.__getitem__, itertools.chain.from_iterable(bt.ordered(rname))))
                for m in maps if flat else ():
                    images += zip(*[map(m.__getitem__, flat)] * arity)
            relations[rname] = frozenset(images)
        return relations

    # lists index faster; the view keeps its maps as tuples
    blocks = [(g, list(map(tuple, maps))) for g, maps in groups]
    return RelStructure._trusted(template.rho, tuple(dict.fromkeys(names)), relations, blocks)


def adjunction_oracle(
    template: PultrTemplate,
    X: RelStructure,
    Y: RelStructure,
    *,
    budget: Optional[int] = None,
) -> tuple[bool, bool]:
    """Decide Lambda X -> Y and X -> Gamma Y independently; the two booleans
    agree for every template, which downstream tests use as an oracle."""
    lam = left_apply(template, X)
    lam_side = find_homomorphism(lam, Y, budget=budget) is not None
    gam = central_apply(template, Y, budget=budget)
    gam_side = find_homomorphism(X, gam, budget=budget) is not None
    return lam_side, gam_side


# -- quantum transfers ------------------------------------------------------


def transfer_gamma(
    template: PultrTemplate,
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
) -> QuantumAssignment:
    """From Lambda X ~> Y at level (k+1)*diam to X ~> Gamma Y at level k.

    W[x, h] is the product of Q[a^(x), h(a)] over the gadget domain in
    canonical order; the factors' pairwise commutators are rechecked exactly
    before any product is trusted (CompatibilityTooLow on failure).
    """
    if not template_predicates(template).connected:
        raise NotConnected("transfer towards the central functor needs a connected template")
    q = lambda_quotient(template, X)
    gy = central_apply(template, Y)
    a_order = template.A.domain
    return _gamma_products(
        X, gy, assignment, k, lambda x: [q.cls(("A", x, a)) for a in a_order]
    )


def _gamma_products(
    X: RelStructure, gy: RelStructure, assignment: QuantumAssignment, k: int, copies
) -> QuantumAssignment:
    """W[x, h] for x in X and h in gy: the product, in the canonical order
    of A, of the families of the variables copies(x) at the labels of h.

    The families of the source's table are interned by equal items, one id
    per distinct items.  Each distinct tuple of family ids is checked for
    commutation and multiplied out once, at its first vertex in domain
    order, so CompatibilityTooLow names the first vertex whose copy
    projectors do not commute.  Vertices with equal tuples share one output
    family, read-only as every family is."""
    cache = _ProductCache()
    commuting: set = set()  # the sets of copy projectors already checked
    index = gy._index  # label tuples over present labels, in gy's order
    ids: dict = {}  # a family's items -> its family id
    id_of = [ids.setdefault(tuple(fam.items()), len(ids)) for fam in assignment.families]
    fid = dict(zip(assignment.pvms, map(id_of.__getitem__, assignment.family_ids)))
    del ids, id_of
    built: dict = {}  # a tuple of family ids -> its output family
    pvms: dict = {}
    for x in X.domain:
        key = tuple(map(fid.__getitem__, copies(x)))
        if key in built:
            pvms[x] = built[key]
            continue
        fams = [assignment.pvms[v] for v in copies(x)]
        mats = frozenset(m for fam in fams for m in fam.values())
        if mats not in commuting:
            if not all(cache.commute(ma, mb) for ma, mb in itertools.combinations(mats, 2)):
                raise CompatibilityTooLow(
                    f"copy projectors over {x!r} do not commute; "
                    f"declared level {assignment.k} is insufficient"
                )
            commuting.add(mats)
        fam_out = built[key] = pvms[x] = {}
        for _, h in sorted((index[h], h) for h in itertools.product(*fams) if h in index):
            prod: Optional[PMatrix] = None
            for fam, y in zip(fams, h):
                prod = fam[y] if prod is None else cache.product(prod, fam[y])
            if prod is not None:  # QuantumAssignment drops the zero products
                fam_out[h] = prod
    return QuantumAssignment(assignment.dim, k, pvms)


def transfer_lambda(
    template: PultrTemplate,
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
    *,
    quotient: Optional[LambdaQuotient] = None,
) -> QuantumAssignment:
    """From X ~> Gamma Y at level k to Lambda X ~> Y at the same level.

    Copy vertices of A get fibre sums over their hom-labels; copy vertices of
    gadgets get sums of gadget products over glued label tuples that form
    homomorphisms B_T -> Y.  Families are built per source, not per tag:
    the family of x for A's copy over x, and per tau-tuple and part the part
    sums its gadget tags read.  A source's labels are read as one column per
    A index; a column without repeats pairs them with the source's projectors
    (interned by exact equality), and a repeated value sums through a memo.
    Every member of every quotient class is compared exactly with the
    class's least tag; the first class in class order with a disagreeing
    member raises WellDefinednessViolation naming it and that member.

    A glued label tuple that is a copy of B_T in Y's block view is a
    homomorphism by construction; any other is decided by
    `check_homomorphism`, once per tuple.  `quotient`, if given, must be
    `lambda_quotient(template, X)`, its classes renamed or not.
    """
    # a gadget vertex as (part i, A-index of its eps_i preimage)
    parts = template.eps_parts
    if parts is None or not _is_faithful(template):
        raise NotFaithful("transfer towards the left functor needs a faithful template")
    q = quotient if quotient is not None else lambda_quotient(template, X)
    n_a = len(template.A.domain)
    hom_cache: dict = {}
    # per symbol, the copies of B_T in Y's block view: glued labels that form
    # a map B_T -> Y by construction
    copies = {
        name: {m for g, maps in Y._blocks or () if g is template.B[name] for m in maps}
        for name in template.tau.names()
    }
    # per symbol, the part and the A-index of each gadget vertex in domain order
    where = {name: list(zip(*map(parts[name].__getitem__, template.B[name].domain))) or [(), ()]
             for name in template.tau.names()}

    def glued_is_hom(name: str, labels: tuple) -> bool:
        key = (name, labels)
        if key not in hom_cache:
            bt, (part_of, offset) = template.B[name], where[name]
            glued = tuple(map(getitem, map(labels.__getitem__, part_of), offset))
            hom_cache[key] = glued in copies[name] or check_homomorphism(dict(zip(bt.domain, glued)), bt, Y)
        return hom_cache[key]

    cache = _ProductCache()  # products and sums, each computed once
    zero = PMatrix.zeros(assignment.dim)
    interned: dict = {zero: zero}  # one object per projector value

    def families(source: Mapping) -> list:
        """Per A index ai, the family of a copy vertex that reads `source`:
        its projectors grouped by the value h[ai] of each label h, summed,
        the zero sums dropped; an empty source gives empty families."""
        kept = [(h, m) for h, m in zip(source, map(interned.setdefault, source.values(), source.values()))
                if m is not zero]
        labels, mats = zip(*kept) if kept else ((), ())
        out = list(map(dict, map(zip, list(zip(*labels)) or [()] * n_a, itertools.repeat(mats))))
        for ai in [ai for ai, size in enumerate(map(len, out)) if size < len(mats)]:  # a repeated value
            fam = {}
            for y, m in zip(map(itemgetter(ai), labels), mats):
                fam[y] = cache.plus(fam[y], m) if y in fam else m
            out[ai] = {y: m for y, m in fam.items() if not m.is_zero()}
        return out

    # in the quotient's tag order: A's copies by x, then per symbol the
    # gadget copies by tuple, each in its gadget's domain order
    fam_of_tag: list = []
    for x in X.domain:
        fam_of_tag += map(families(assignment.pvms[x]).__getitem__, range(n_a))
    for name in template.tau.names():
        part_of, offset = where[name]
        for xt in X.ordered(name):
            # the part sums: per part i, each label h of xt[i] with the sum of
            # the scope-ordered products over the glued label tuples that carry
            # h there and form homomorphisms B_T -> Y; a zero product adds
            # nothing, so its glued labels go untested
            fams = [assignment.pvms[xj] for xj in xt]
            found: list = [{} for _ in xt]
            for labels in itertools.product(*fams):
                prod = fams[0][labels[0]]
                for fam, h in zip(fams[1:], labels[1:]):
                    prod = cache.product(prod, fam[h])
                if not prod.is_zero() and glued_is_hom(name, labels):
                    for part, h in zip(found, labels):
                        part[h] = cache.plus(part[h], prod) if h in part else prod
            per_part = list(map(families, found))
            fam_of_tag += map(getitem, map(per_part.__getitem__, part_of), offset)

    heads = q.class_of_id  # each tag's class head, the class's least tag id
    if fam_of_tag != list(map(fam_of_tag.__getitem__, heads)):
        head, other = min((h, i) for i, (fam, h) in enumerate(zip(fam_of_tag, heads)) if fam != fam_of_tag[h])
        raise WellDefinednessViolation(
            f"class {q.class_name[head]!r}: members {q.tags[head]!r} and {q.tags[other]!r} disagree"
        )
    return QuantumAssignment(assignment.dim, k, {q.class_name[h]: fam_of_tag[h] for h in dict.fromkeys(heads)})


def adjunction_unit(template: PultrTemplate, Y: RelStructure, quotient: LambdaQuotient) -> dict:
    """The unit Y -> Gamma Lambda Y: y -> (a -> class of a^(y)), read off
    `quotient`, the quotient of Lambda Y."""
    return {y: tuple(quotient.cls(("A", y, a)) for a in template.A.domain) for y in Y.domain}


def lambda_functor(
    template: PultrTemplate,
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
) -> QuantumAssignment:
    """Functorial action on quantum assignments: X ~> Y gives
    Lambda X ~> Lambda Y at the same level, via the adjunction unit
    composed with the faithful transfer."""
    qy = lambda_quotient(template, Y)
    lifted = compose_sandwich({x: x for x in assignment.pvms}, assignment, adjunction_unit(template, Y, qy))
    return transfer_lambda(template, X, left_apply(template, Y, quotient=qy), lifted, k)


def gamma_functor(
    template: PultrTemplate,
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
    *,
    gamma_x: Optional[RelStructure] = None,
) -> QuantumAssignment:
    """Functorial action towards the central functor: X ~> Y at level
    (k+1)*diam gives Gamma X ~> Gamma Y at level k, via the adjunction
    counit Lambda Gamma X -> X composed with the connected transfer.

    Lambda Gamma X is not built: its quotient unions exactly the gluing
    pairs (A, ht[j], a) ~ (B, T, ht, eps_j(a)) over the tau-tuples ht, so
    the counit (A, h, a) -> h(a), (B, T, ht, b) -> ell(b) for a gadget
    witness ell of ht is well defined iff ell(eps_j(a)) == ht[j](a) on
    every pair; the class of (A, h, a) then carries the family of h(a).
    When Gamma X has a block view of complete bipartite copies and no
    gadget vertex is free, the gluing is checked per copy (`_copies_glue`):
    the witness of every tuple is then its forced values, so the counit is
    well defined.  Otherwise, or when a copy fails, both sides of every
    pair are compared as columns over the tuples, the place columns read
    once and shared with the gadget witnesses; only when a pair differs are
    the tuples read one by one, so the error names the first tuple in
    canonical order that breaks a pair.
    `gamma_x`, if given, must equal central_apply(template, X); otherwise
    Gamma X is built by an unbounded homomorphism enumeration.
    """
    if not template_predicates(template).connected:
        raise NotConnected("transfer towards the central functor needs a connected template")
    gx = gamma_x if gamma_x is not None else central_apply(template, X)
    a_index = {a: i for i, a in enumerate(template.A.domain)}
    for name, _ in template.tau.symbols:
        plan = _gluing_plan(template, name, a_index)
        if _copies_glue(template, name, gx, X, plan):
            continue
        hts = gx.ordered(name)
        pairs = plan[0]
        at = _place_columns(hts, pairs)
        ell = dict(zip(template.B[name].domain, _gadget_witnesses(template, name, hts, X, plan, at)))
        if not all(ell[b] == at[j, ai] for j, ai, b in pairs):
            for n, ht in enumerate(hts):
                for j, ai, b in pairs:
                    if ell[b][n] != ht[j][ai]:
                        raise WellDefinednessViolation(
                            f"counit ill-defined: symbol {name!r}, tuple {ht!r}, gadget vertex {b!r}"
                        )
    return _gamma_products(gx, central_apply(template, Y), assignment, k, lambda h: h)


def _gluing_plan(template: PultrTemplate, name: str, a_index: dict) -> tuple:
    """The gluing of symbol `name`, found once per symbol: the pairs (j,
    a-index, b) in eps order, each forcing b to ht[j][a-index] for a tau-tuple
    ht; the index pairs ((j, ai), (j', ai')) of a later pair on an already
    forced b and its first pair, where ht must agree; the unforced vertices;
    the place (j, ai) of each forced gadget vertex in domain order (None if
    free); per symbol, the domain positions of each gadget tuple."""
    pairs = [(j, a_index[a], b) for j, m in enumerate(template.eps[name]) for a, b in m.items()]
    first: dict = {}
    agree = []
    for j, ai, b in pairs:
        if b in first:
            agree.append((first[b], (j, ai)))
        else:
            first[b] = (j, ai)
    bt = template.B[name]
    free = [b for b in bt.domain if b not in first]
    shapes = [(r, [tuple(map(bt.index, t)) for t in bt.ordered(r)]) for r in bt.signature.names()]
    return pairs, agree, free, [first.get(b) for b in bt.domain], shapes


def _copies_glue(template: PultrTemplate, name: str, gx: RelStructure, X: RelStructure, plan: tuple) -> bool:
    """Whether the gadget witnesses of the binary symbol `name` are its
    forced values on every tau-tuple of gx, decided per copy of gx's block
    view; False also when that is not decided per copy: no view, a copy
    that is not a complete bipartite P x Q (`product_sides`), or a free
    gadget vertex.  A tau-tuple of a copy m is (m[p], m[q]), so
    - a cross-side agreement ((0, ai), (1, aj)) holds on P x Q exactly when
      the copy has one value c with m[p][ai] = c and m[q][aj] = c for all
      p and q;
    - a same-side agreement, the place of a forced vertex in X's domain and
      the image of a gadget tuple whose entries all have a place on one
      side j (among the places glued to them) are checks on each copy
      vertex of the side; a gadget tuple with no such side is not decided
      per copy.
    `plan` is `_gluing_plan(template, name, a_index)`."""
    pairs, agree, free, places, shapes = plan
    bt = template.B[name]
    if free or gx._blocks is None or template.tau.arity(name) != 2 or bt.signature != X.signature:
        return False
    glued: list = [[] for _ in bt.domain]  # per gadget vertex, the places glued to it
    for j, ai, b in pairs:
        glued[bt.index(b)].append((j, ai))
    reads = []  # per gadget tuple, its relation and a place of each entry, all on one side
    for r, positions in shapes:
        for ps in positions:
            for side in (0, 1):
                on = [next((p for p in glued[i] if p[0] == side), None) for i in ps]
                if None not in on:
                    reads.append((r, on))
                    break
            else:
                return False
    for gadget, maps in gx._blocks:
        sides = product_sides(gadget, name)
        if sides is None:
            return False
        if not sides[0]:  # no tuples of `name` in these copies
            continue
        # per side, its copy vertices position by position, each over all copies
        vertices = [list(itertools.chain.from_iterable(map(itemgetter(v), maps) for v in side)) for side in sides]
        at = {(j, ai): list(map(itemgetter(ai), vertices[j])) for j, ai, _ in pairs}
        for p, q in agree:
            if p[0] == q[0]:
                if at[p] != at[q]:
                    return False
                continue
            one = at[p][: len(maps)]  # per copy, the value at its first vertex on p's side
            if at[p] != one * len(sides[p[0]]) or at[q] != one * len(sides[q[0]]):
                return False
        if not (
            all(map(X._index.__contains__, itertools.chain.from_iterable(map(at.__getitem__, set(places)))))
            and all(X.relations[r].issuperset(zip(*map(at.__getitem__, ps))) for r, ps in reads)
        ):
            return False
    return True


def _place_columns(hts: Sequence, pairs: Sequence) -> dict:
    """Per place (j, ai) of the gluing pairs, the list of ht[j][ai] over
    the tau-tuples ht in hts."""
    return {(j, ai): list(map(itemgetter(ai), map(itemgetter(j), hts))) for j, ai, _ in pairs}


def _gadget_witnesses(
    template: PultrTemplate, name: str, hts: Sequence, X: RelStructure, plan: tuple, at: Optional[dict] = None
) -> list:
    """Gadget witnesses for the tau-tuples hts of Gamma X, as one column per
    gadget vertex in B_T's domain order: entry n of the column of b is
    ell(b) for the witness ell of hts[n].  A witness is a homomorphism
    ell: B_T -> X with ell o eps_i equal to the i-th component of its tuple.
    Vertices covered by eps images are forced; the rest are found by a
    search per tuple with the forced values fixed, so each witness is the
    canonically-least homomorphism extending them.  `plan` is
    `_gluing_plan(template, name, a_index)`; `at`, if given, must be
    `_place_columns(hts, plan[0])`.

    With nothing free, the agreements, the signature, the known images and
    the image of each gadget tuple in X are checked column-wise, and the
    columns are the witnesses when all pass.  Otherwise the tuples are
    checked one at a time, in order, by the agreements and then
    `check_homomorphism` or the search, and the first failure raises."""
    pairs, agree, free, places, shapes = plan
    bt = template.B[name]
    if not free:
        at = at if at is not None else _place_columns(hts, pairs)
        image = [at[p] for p in places]
        if (
            all(at[p] == at[q] for p, q in agree)
            and bt.signature == X.signature
            and all(map(X._index.__contains__, itertools.chain.from_iterable(image)))
            and all(
                X.relations[r].issuperset(zip(*map(image.__getitem__, ps)))
                for r, positions in shapes
                for ps in positions
            )
        ):
            return image
    witnesses = []
    for ht in hts:
        if any(ht[i][ai] != ht[j][aj] for (i, ai), (j, aj) in agree):
            raise WellDefinednessViolation(f"incompatible eps images while gluing {name!r}: {ht!r}")
        forced = {b: ht[j][ai] for j, ai, b in pairs}
        if free:
            h = next(_search_homomorphisms(bt, X, fixed=forced, limit=1), None)
        else:
            h = forced if check_homomorphism(forced, bt, X) else None
        if h is None:
            raise WellDefinednessViolation(f"no gadget witness for {name!r} tuple {ht!r}")
        witnesses.append(h)
    return [list(map(itemgetter(b), witnesses)) for b in bt.domain]
