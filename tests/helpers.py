"""Seeded generators and independent brute-force oracles for the tests.

The oracles never share code paths with the implementations they check:
homomorphism existence enumerates all maps, subspace facts enumerate all
member vectors, functional extensions try every candidate value table,
projector arithmetic runs entry by entry on `Fraction` pairs, template
predicates run the all-pairs Gaifman sweep on every structure, the
reference homomorphism search scans every candidate list in full, the
reference Gamma functor builds the whole quotient Lambda Gamma X (it shares
only the product routine, through `transfer_gamma`, with `gamma_functor`),
and the reference eta-stage layers (faithful transfer, left functor,
canonical colouring, composition, verifier, eta pair lists) work tag by
tag, vertex by vertex and tuple by tuple.  The per-tuple references
(homomorphism check, faithfulness test, part patterns, eta digraph) are
those from before the column passes and the unvalidated builds, and the
reference quotient is the union-find that the closed form replaces where
the eps maps partition the gadgets.  The
reference graph walks are the per-caller BFS loops that the shared
Gaifman BFS in `relstruct` replaced, and `reference_is_bipartite` is the
edge-by-edge bipartite test from before line digraphs kept their copies.
`reference_instance_error` is the `CspInstance` check from before the
alphabet was read as a set.  The reference builders (line
digraph, relabelling, Gaifman adjacency, Gamma products, gadget witness)
are those from before structures kept a canonical tuple order.  The
reference GF(2) layer (`reference_rref`, `reference_intersect`,
`reference_functional_from_constraints`, `reference_evaluate_bits`) is the
elimination from before it was keyed by pivot and evaluation from before
pivot masks, and `reference_build_rho1` compares every label pair of every
rho1 constraint on the overlap basis with it.  The reference encoders
(`reference_structure_to_dict`, `reference_instance_to_dict`) sort tuples
by one `json.dumps` each.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction

from typing import Mapping, Optional, Sequence

from chromagap import colouring, dkkms, pultr, qop, relstruct
from chromagap.csp import CspInstance, classify_label_cover
from chromagap.f2linalg import (
    AmbientMismatch,
    ExtensionConflict,
    F2Ambient,
    F2Functional,
    F2Subspace,
    RespectViolation,
)
from chromagap.qop import PMatrix, QuantumAssignment
from chromagap.serialize import encode_id
from chromagap.relstruct import (
    GRAPH_SIGNATURE,
    INFINITY,
    PartialMap,
    RelStructure,
    SearchBudgetExceeded,
    Signature,
    SignatureMismatch,
    UnknownVertex,
    Vertex,
    diameter_and_connectivity,
)
from chromagap.pultr import LambdaQuotient, PultrTemplate, TemplateReport, lambda_quotient


def cyclic_garbage_of(call):
    """`call()`'s result and the number of unreachable objects it left for
    the cyclic collector: collected first, the collector is off during the
    call and is on again after it, also when the call raises."""
    gc.collect()
    gc.disable()
    try:
        result = call()
        return result, gc.collect()
    finally:
        gc.enable()


def run_under_hash_seeds(code: str, seeds) -> list[str]:
    """The standard output of `code` run by a fresh interpreter under each
    PYTHONHASHSEED in `seeds`, with the package imported from `src/`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def brute_force_hom_exists(X: RelStructure, Y: RelStructure) -> bool:
    """Try every map domain(X) -> domain(Y)."""
    for images in itertools.product(Y.domain, repeat=len(X.domain)):
        f = dict(zip(X.domain, images))
        ok = True
        for name, t in X.all_tuples():
            if tuple(f[v] for v in t) not in Y.relations[name]:
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_all_homs(X: RelStructure, Y: RelStructure) -> list[dict]:
    out = []
    for images in itertools.product(Y.domain, repeat=len(X.domain)):
        f = dict(zip(X.domain, images))
        if all(
            tuple(f[v] for v in t) in Y.relations[name] for name, t in X.all_tuples()
        ):
            out.append(f)
    return out


def random_digraph(rng: random.Random, max_vertices: int = 4, max_edges: int = 5) -> RelStructure:
    n = rng.randint(1, max_vertices)
    dom = [f"v{i}" for i in range(n)]
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        edges.add((rng.choice(dom), rng.choice(dom)))
    return RelStructure(GRAPH_SIGNATURE, dom, {"E": edges})


def random_structure(rng: random.Random, sig: Signature, max_vertices: int = 4) -> RelStructure:
    n = rng.randint(1, max_vertices)
    dom = [f"v{i}" for i in range(n)]
    rels = {}
    for name, arity in sig.symbols:
        count = rng.randint(0, 4)
        rels[name] = {
            tuple(rng.choice(dom) for _ in range(arity)) for _ in range(count)
        }
    return RelStructure(sig, dom, rels)


def random_template(rng: random.Random) -> PultrTemplate:
    """A small random template: gadgets are copies of a random connected A
    with random extra identifications and tuples, so both connected and
    faithful instances appear in the mix."""
    rho = GRAPH_SIGNATURE
    n_a = rng.randint(1, 3)
    a_dom = [f"a{i}" for i in range(n_a)]
    a_edges = set()
    for i in range(1, n_a):  # random tree keeps A connected
        a_edges.add((a_dom[rng.randrange(i)], a_dom[i]))
    if n_a > 1 and rng.random() < 0.5:
        a_edges.add((rng.choice(a_dom), rng.choice(a_dom)))
    A = RelStructure(rho, a_dom, {"E": a_edges})

    tau_names = ["S"] if rng.random() < 0.7 else ["S", "T"]
    tau = Signature(tuple((name, rng.randint(1, 2)) for name in tau_names))
    gadgets = {}
    eps = {}
    for name, arity in tau.symbols:
        copies = [[(name, i, a) for a in a_dom] for i in range(arity)]
        merged = {v: v for copy in copies for v in copy}
        # glue the copies at one random vertex pair each so they connect
        for i in range(1, arity):
            va = copies[0][rng.randrange(n_a)]
            vb = copies[i][rng.randrange(n_a)]
            merged[vb] = merged[va]
        dom = sorted({merged[v] for copy in copies for v in copy})
        edges = set()
        for i in range(arity):
            for (x, y) in a_edges:
                edges.add(
                    (merged[(name, i, x)], merged[(name, i, y)])
                )
        B = RelStructure(rho, dom, {"E": edges})
        gadgets[name] = B
        eps[name] = tuple(
            {a: merged[(name, i, a)] for a in a_dom} for i in range(arity)
        )
    return PultrTemplate(rho, tau, A, gadgets, eps)


def random_faithful_template(rng: random.Random) -> PultrTemplate:
    """Gadgets are disjoint copies of A: faithful by construction."""
    rho = GRAPH_SIGNATURE
    n_a = rng.randint(1, 3)
    a_dom = [f"a{i}" for i in range(n_a)]
    a_edges = set()
    for _ in range(rng.randint(0, 3)):
        a_edges.add((rng.choice(a_dom), rng.choice(a_dom)))
    A = RelStructure(rho, a_dom, {"E": a_edges})
    tau = Signature((("S", rng.randint(1, 2)),))
    name, arity = tau.symbols[0]
    dom = [(i, a) for i in range(arity) for a in a_dom]
    edges = {((i, x), (i, y)) for i in range(arity) for (x, y) in a_edges}
    B = RelStructure(rho, dom, {"E": edges})
    eps = {name: tuple({a: (i, a) for a in a_dom} for i in range(arity))}
    return PultrTemplate(rho, tau, A, {name: B}, {name: eps[name]})


def structure_with_hom_from(rng: random.Random, X: RelStructure, size: int = 3) -> tuple[RelStructure, dict]:
    """A target structure built as the image closure of a random map from X,
    plus that map (a homomorphism by construction)."""
    dom = [f"y{i}" for i in range(size)]
    f = {v: rng.choice(dom) for v in X.domain}
    rels = {}
    for name, arity in X.signature.symbols:
        image = {tuple(f[v] for v in t) for t in X.relations[name]}
        for _ in range(rng.randint(0, 2)):
            image.add(tuple(rng.choice(dom) for _ in range(arity)))
        rels[name] = image
    return RelStructure(X.signature, dom, rels), f


def uniform_instance(variables, alphabet, constraints):
    from chromagap.csp import CspInstance

    return CspInstance(variables, alphabet, constraints)


# -- reference projector arithmetic -----------------------------------------
# A reference matrix is a tuple of rows of (re, im) Fraction pairs; every
# operation works entry by entry, with no common denominator.


def ref_zero(n: int) -> tuple:
    return tuple(tuple((Fraction(0), Fraction(0)) for _ in range(n)) for _ in range(n))


def ref_identity(n: int) -> tuple:
    return tuple(
        tuple((Fraction(int(i == j)), Fraction(0)) for j in range(n)) for i in range(n)
    )


def ref_add(a: tuple, b: tuple) -> tuple:
    return tuple(
        tuple((x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def ref_sub(a: tuple, b: tuple) -> tuple:
    return tuple(
        tuple((x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def ref_mul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_matmul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = (Fraction(0), Fraction(0))
            for k in range(n):
                p = ref_mul(a[i][k], b[k][j])
                acc = (acc[0] + p[0], acc[1] + p[1])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def ref_scale(a: tuple, c: tuple) -> tuple:
    return tuple(tuple(ref_mul(c, x) for x in row) for row in a)


def ref_conj(a: tuple) -> tuple:
    return tuple(tuple((x[0], -x[1]) for x in row) for row in a)


def ref_transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def ref_conj_transpose(a: tuple) -> tuple:
    return ref_transpose(ref_conj(a))


def ref_kron(a: tuple, b: tuple) -> tuple:
    n, m = len(a), len(b)
    return tuple(
        tuple(ref_mul(a[i // m][j // m], b[i % m][j % m]) for j in range(n * m))
        for i in range(n * m)
    )


def ref_trace(a: tuple) -> tuple:
    return (sum(a[i][i][0] for i in range(len(a))), sum(a[i][i][1] for i in range(len(a))))


def ref_is_zero(a: tuple) -> bool:
    return all(x == (0, 0) for row in a for x in row)


def ref_is_hermitian(a: tuple) -> bool:
    return a == ref_conj_transpose(a)


def ref_is_identity(a: tuple) -> bool:
    return a == ref_identity(len(a))


def ref_diag_support(a: tuple):
    n = len(a)
    if any(a[i][j] != (0, 0) for i in range(n) for j in range(n) if i != j):
        return None
    return frozenset(i for i in range(n) if a[i][i] != (0, 0))


# -- reference template predicates ------------------------------------------


def all_pairs_template_predicates(template: PultrTemplate) -> TemplateReport:
    """Connectivity, faithfulness and diameter from the all-pairs Gaifman
    sweep of every structure, with no early exit."""
    structures = [template.A] + [template.B[name] for name, _ in template.tau.symbols]
    sweeps = [diameter_and_connectivity(s) for s in structures]
    connected = all(flag for flag, _ in sweeps)
    for name, arity in template.tau.symbols:
        maps = template.eps[name]
        for rname, _ in template.rho.symbols:
            images = {
                tuple(maps[i][a] for a in at)
                for i in range(arity)
                for at in template.A.relations[rname]
            }
            if not template.B[name].relations[rname] <= images:
                connected = False
    diameter = int(max(d for _, d in sweeps)) if connected else None

    faithful = True
    for name, arity in template.tau.symbols:
        bt = template.B[name]
        maps = template.eps[name]
        images = [set(maps[i].values()) for i in range(arity)]
        if any(len(img) != len(template.A.domain) for img in images):
            faithful = False
            continue
        if sum(len(img) for img in images) != len(bt.domain) or set().union(*images) != set(bt.domain):
            faithful = False
            continue
        for i in range(arity):
            for rname, _ in template.rho.symbols:
                mapped = {tuple(maps[i][a] for a in at) for at in template.A.relations[rname]}
                induced = {t for t in bt.relations[rname] if set(t) <= images[i]}
                if mapped != induced:
                    faithful = False
    return TemplateReport(connected, faithful, diameter)


# -- reference homomorphism search --------------------------------------------
# The forward-checking search as it was before the support index: every
# variable starts with all of Y's domain, and each forward check builds and
# tests one image tuple per candidate.


def reference_search_homomorphisms(
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
    """
    if X.signature != Y.signature:
        raise SignatureMismatch("structures have different signatures")
    var_order = list(order) if order is not None else list(X.domain)
    pos = {v: i for i, v in enumerate(var_order)}
    n = len(var_order)

    # Constraints indexed by the position at which they become fully assigned,
    # plus (tuple, slot) pairs for forward checking.
    full_at: list[list[tuple[str, tuple]]] = [[] for _ in range(n)]
    touching: dict[Vertex, list[tuple[str, tuple]]] = {v: [] for v in var_order}
    for name, t in X.all_tuples():
        last = max(pos[v] for v in t)
        full_at[last].append((name, t))
        for v in set(t):
            touching[v].append((name, t))

    y_dom = list(Y.domain)
    candidates: dict[Vertex, list] = {v: list(y_dom) for v in var_order}
    assignment: dict = {}
    if fixed:
        for v, y in fixed.items():
            candidates[v] = [y]

    nodes = 0
    found = 0

    def consistent_tuple(name: str, t: tuple) -> bool:
        return tuple(assignment[v] for v in t) in Y.relations[name]

    def propagate(v: Vertex) -> tuple[list[tuple[Vertex, list]], bool]:
        """Forward-check tuples touching v with exactly one unassigned slot."""
        trimmed: list[tuple[Vertex, list]] = []
        for name, t in touching[v]:
            unassigned = [u for u in set(t) if u not in assignment]
            if len(unassigned) != 1:
                continue
            u = unassigned[0]
            rel = Y.relations[name]
            ok = []
            for y in candidates[u]:
                image = tuple(y if w == u else assignment[w] for w in t)
                if image in rel:
                    ok.append(y)
            if len(ok) < len(candidates[u]):
                trimmed.append((u, candidates[u]))
                candidates[u] = ok
                if not ok:
                    return trimmed, True
        return trimmed, False

    def undo(trimmed: list[tuple[Vertex, list]]) -> None:
        # restore in reverse: one propagate call can trim the same variable
        # twice, and forward order would resurrect the intermediate list
        for u, old in reversed(trimmed):
            candidates[u] = old

    # iterative depth-first search; recursion would overflow on the large
    # structures produced by iterated constructions
    if n == 0:
        yield {}
        return
    iters: list = [None] * n
    trims: list = [None] * n
    iters[0] = iter(list(candidates[var_order[0]]))
    i = 0
    while i >= 0:
        v = var_order[i]
        descended = False
        for y in iters[i]:
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded(f"homomorphism search exceeded {budget} nodes")
            assignment[v] = y
            if not all(consistent_tuple(name, t) for name, t in full_at[i]):
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
            iters[i] = iter(list(candidates[var_order[i]]))
            descended = True
            break
        if not descended:
            i -= 1
            if i >= 0:
                undo(trims[i])
                trims[i] = None
                del assignment[var_order[i]]


# -- reference homomorphism check -----------------------------------------------
# The check as it was before it read Y's index and relations directly.


def reference_check_homomorphism(f: Mapping, X: RelStructure, Y: RelStructure) -> bool:
    """Return True iff f maps every tuple of X into the matching relation of Y.

    Raises PartialMap if f misses a vertex of X and SignatureMismatch if the
    two structures disagree on the signature.
    """
    if X.signature != Y.signature:
        raise SignatureMismatch("structures have different signatures")
    for v in X.domain:
        if v not in f:
            raise PartialMap(repr(v))
        if f[v] not in Y:
            raise UnknownVertex(repr(f[v]))
    for name, t in X.all_tuples():
        if tuple(f[v] for v in t) not in Y.relations[name]:
            return False
    return True


# -- per-tuple references of the column passes -----------------------------------
# The homomorphism check, the faithfulness test and the part patterns of the
# faithful transfer as they were before they ran over columns of the tuples,
# and the eta digraph as it was built before it skipped the public
# constructor's validation.


def reference_tuple_check_homomorphism(f: Mapping, X: RelStructure, Y: RelStructure) -> bool:
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
    image = f.__getitem__
    for name, tuples in X.relations.items():
        rel = Y.relations[name]
        for t in tuples:
            if tuple(map(image, t)) not in rel:
                return False
    return True


def reference_is_faithful(template: PultrTemplate) -> bool:
    """The gadgets are disjoint isomorphic eps-copies of A."""
    for name, arity in template.tau.symbols:
        bt = template.B[name]
        maps = template.eps[name]
        images = [frozenset(maps[i].values()) for i in range(arity)]
        if any(len(img) != len(template.A.domain) for img in images):
            return False
        union: set = set()
        total = 0
        for img in images:
            union |= img
            total += len(img)
        if union != set(bt.domain) or total != len(bt.domain):
            return False
        for i in range(arity):
            img = images[i]
            for rname, _ in template.rho.symbols:
                mapped = {tuple(maps[i][a] for a in at) for at in template.A.relations[rname]}
                induced = {t for t in bt.relations[rname] if set(t) <= img}
                if mapped != induced:
                    return False
    return True


def reference_eta_apply(ctx) -> RelStructure:
    """The reduced digraph of the context's instance: vertices (x, z) for z
    in [2d]^n, an edge per constraint and per pair of z-strings whose
    permuted d-blocks are entrywise disjoint (the support of the certified
    transition matrix)."""
    base = 2 * ctx.d
    z_count = base**ctx.n
    variables = ctx.instance.variables
    # vertex tuples are shared between the domain and every edge that uses
    # them, which keeps the edge set light at full scale
    by_x = {x: [(x, z) for z in range(z_count)] for x in variables}
    vertices = [v for x in variables for v in by_x[x]]
    edges = []
    for name in ctx.symbols:
        for x, xp in ctx.variable_structure.ordered(name):
            left, right = by_x[x], by_x[xp]
            for (_, z), (_, zp) in ctx.template.B[name].ordered("E"):
                edges.append((left[z], right[zp]))
    return RelStructure(GRAPH_SIGNATURE, vertices, {"E": edges})


# -- block views -------------------------------------------------------------------


def block_images(X: RelStructure, name: str) -> list:
    """The images of the gadget tuples of `name` under every map of X's block
    view, repeats kept, group by group and map by map."""
    out = []
    for gadget, maps in X._blocks:
        for m in maps:
            out += [tuple(m[gadget.index(v)] for v in t) for t in gadget.relations[name]]
    return out


def without_view(X: RelStructure) -> RelStructure:
    """X rebuilt through the public constructor, which sets no block view."""
    rebuilt = RelStructure(X.signature, X.domain, X.relations)
    assert rebuilt._blocks is None
    return rebuilt


# -- reference Gamma functor ------------------------------------------------------
# The functor action as it was before the counit was checked on gluing pairs:
# it builds Lambda Gamma X, evaluates the counit on every member of every
# class, and hands the lifted assignment to transfer_gamma.  The witness of
# each tuple is read through `pultr._gadget_witnesses` on a one-tuple list,
# looked up on the module, so a test that patches it reaches both paths.


def reference_gamma_functor(
    template: PultrTemplate,
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
    *,
    budget: Optional[int] = None,
) -> QuantumAssignment:
    """Functorial action towards the central functor: X ~> Y at level
    (k+1)*diam gives Gamma X ~> Gamma Y at level k, via the adjunction
    counit Lambda Gamma X -> X composed with the connected transfer."""
    gx = pultr.central_apply(template, X, budget=budget)
    q = pultr.lambda_quotient(template, gx)
    a_order = template.A.domain
    a_index = {a: i for i, a in enumerate(a_order)}

    witness_cache: dict = {}

    def counit_of_tag(tag):
        if tag[0] == "A":
            _, h, a = tag
            return h[a_index[a]]
        _, name, ht, b = tag
        key = (name, ht)
        ell = witness_cache.get(key)
        if ell is None:
            plan = pultr._gluing_plan(template, name, a_index)
            columns = pultr._gadget_witnesses(template, name, [ht], X, plan)
            ell = {b: column[0] for b, column in zip(template.B[name].domain, columns)}
            witness_cache[key] = ell
        return ell[b]

    counit: dict = {}
    for class_name, members in quotient_classes(q).items():
        images = {counit_of_tag(t) for t in members}
        if len(images) != 1:
            raise pultr.WellDefinednessViolation(
                f"adjunction counit ill-defined on class {class_name!r}"
            )
        counit[class_name] = images.pop()

    composed = {
        z: dict(assignment.pvms[xv]) for z, xv in counit.items()
    }
    lifted = QuantumAssignment(assignment.dim, assignment.k, composed)
    return pultr.transfer_gamma(template, gx, Y, lifted, k)


# -- copy-product test helper ----------------------------------------------------


def gamma_product_for_map(
    template: PultrTemplate,
    X: RelStructure,
    assignment: QuantumAssignment,
    x,
    h: Mapping,
    *,
    quotient: Optional[LambdaQuotient] = None,
) -> PMatrix:
    """The ordered copy-projector product for an arbitrary map h: A -> Y;
    zero whenever h is not a homomorphism (a property tests rely on)."""
    q = quotient if quotient is not None else lambda_quotient(template, X)
    prod: Optional[PMatrix] = None
    for a in template.A.domain:
        fam = assignment.pvms[q.cls(("A", x, a))]
        m = fam.get(h[a])
        if m is None:
            return PMatrix.zeros(assignment.dim)
        prod = m if prod is None else prod @ m
    return prod if prod is not None else PMatrix.identity(assignment.dim)


# -- reference eta-stage layers --------------------------------------------------
# The left functor, the faithful transfer, the canonical colouring, the
# composition, the verifier and the eta pair lists as they were before the
# eta stage did its work once per scope, per source and per distinct family:
# per-vertex class lookups, per-tag families and colours over the quotient's
# classes, per-tag label products behind a hash-keyed cache, every sum
# computed afresh, one PVM check per variable, a per-tuple product sweep,
# and an all-pairs block test.  Names are read `pultr.`-, `qop.`- and
# `relstruct.`-qualified, so the helpers they call are the library's own.


def quotient_classes(q: LambdaQuotient) -> dict:
    """Each class name of the quotient with its member tags in tag order."""
    members: dict = {}
    for tag, i in q.tag_ids.items():
        members.setdefault(q.class_name[q.class_of_id[i]], []).append(tag)
    return members


def _faithful_parts(template: PultrTemplate, name: str) -> dict:
    """For a faithful template: gadget vertex -> (part index, A-preimage)."""
    maps = template.eps[name]
    out: dict = {}
    for i, m in enumerate(maps):
        for a, b in m.items():
            out[b] = (i, a)
    return out


def reference_transfer_lambda(
    template: PultrTemplate,
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
    *,
    quotient: Optional[pultr.LambdaQuotient] = None,
) -> QuantumAssignment:
    """From X ~> Gamma Y at level k to Lambda X ~> Y at the same level.

    Copy vertices of A get fibre sums over their hom-labels; copy vertices of
    gadgets get sums of gadget products over glued label tuples that form
    homomorphisms B_T -> Y.  Every member of a quotient class is computed
    independently and compared exactly; a mismatch raises
    WellDefinednessViolation naming the class.
    """
    report = pultr.template_predicates(template)
    if not report.faithful:
        raise pultr.NotFaithful("transfer towards the left functor needs a faithful template")
    q = quotient if quotient is not None else pultr.lambda_quotient(template, X)
    a_order = template.A.domain
    a_index = {a: i for i, a in enumerate(a_order)}
    parts = {name: _faithful_parts(template, name) for name, _ in template.tau.symbols}
    dim = assignment.dim

    hom_cache: dict = {}
    product_cache: dict = {}

    def glued_is_hom(name: str, labels: tuple) -> bool:
        key = (name, labels)
        hit = hom_cache.get(key)
        if hit is not None:
            return hit
        bt = template.B[name]
        part = parts[name]
        ok = True
        for rname, _ in template.rho.symbols:
            rel = Y.relations[rname]
            for btuple in bt.relations[rname]:
                image = tuple(labels[part[b][0]][a_index[part[b][1]]] for b in btuple)
                if image not in rel:
                    ok = False
                    break
            if not ok:
                break
        hom_cache[key] = ok
        return ok

    def scope_product(xt: tuple, labels: tuple) -> qop.PMatrix:
        key = (xt, labels)
        prod = product_cache.get(key)
        if prod is None:
            prod = assignment.pvms[xt[0]][labels[0]]
            for xj, h in zip(xt[1:], labels[1:]):
                prod = prod @ assignment.pvms[xj][h]
            product_cache[key] = prod
        return prod

    def member_family(tag) -> dict:
        fam: dict = {}
        if tag[0] == "A":
            _, x, a = tag
            ai = a_index[a]
            for h, m in assignment.pvms[x].items():
                y = h[ai]
                fam[y] = fam[y] + m if y in fam else m
        else:
            _, name, xt, b = tag
            part = parts[name]
            i_b, a_b = part[b]
            label_lists = [list(assignment.pvms[xj].keys()) for xj in xt]
            for labels in itertools.product(*label_lists):
                if not glued_is_hom(name, labels):
                    continue
                y = labels[i_b][a_index[a_b]]
                prod = scope_product(xt, labels)
                fam[y] = fam[y] + prod if y in fam else prod
        return {y: m for y, m in fam.items() if not m.is_zero()}

    pvms: dict = {}
    for class_name, members in quotient_classes(q).items():
        first = member_family(members[0])
        for other in members[1:]:
            if member_family(other) != first:
                raise pultr.WellDefinednessViolation(
                    f"class {class_name!r}: members {members[0]!r} and {other!r} disagree"
                )
        pvms[class_name] = first
    return QuantumAssignment(dim, k, pvms)


def reference_xi_colouring(ctx) -> tuple:
    """The canonical 2d-colouring of the glued target, tag by tag: every
    member of every class gets its colour from its own tag, and a class
    whose members disagree raises naming its sorted colours."""
    base = 2 * ctx.d
    alpha_index = {a: i for i, a in enumerate(ctx.instance.alphabet)}
    quotient = pultr.lambda_quotient(ctx.template, ctx.target)
    lam_target = pultr.left_apply(ctx.template, ctx.target, quotient=quotient)
    k2d = relstruct.clique(base)

    def colour_of_tag(tag) -> str:
        if tag[0] == "A":
            _, y, z = tag
            return f"k{digit(z, alpha_index[y], base)}"
        _, name, yt, b = tag
        part, z = b
        return f"k{digit(z, alpha_index[yt[part - 1]], base)}"

    xi: dict = {}
    for class_name, members in quotient_classes(quotient).items():
        colours = {colour_of_tag(t) for t in members}
        if len(colours) != 1:
            raise qop.VerificationFailure(
                f"colouring ill-defined on class {class_name!r}: {sorted(colours)}"
            )
        xi[class_name] = colours.pop()
    if not relstruct.check_homomorphism(xi, lam_target, k2d):
        raise qop.VerificationFailure("canonical colouring is not a homomorphism")
    return xi, lam_target, quotient


def reference_compose_sandwich(f: Mapping, assignment: QuantumAssignment, g: Mapping, *, k=None) -> QuantumAssignment:
    """W[x][y] = sum of Q[f(x)][y'] over y' with g(y') = y, every sum
    computed afresh."""
    out: dict = {}
    for x, xp in f.items():
        fam = assignment.pvms[xp]
        acc: dict = {}
        for yp, m in fam.items():
            y = g[yp]
            acc[y] = acc[y] + m if y in acc else m
        out[x] = acc
    return QuantumAssignment(assignment.dim, assignment.k if k is None else k, out)


def reference_lambda_quotient(template: PultrTemplate, X: RelStructure) -> LambdaQuotient:
    """The quotient of the gadget copies over X by a union-find over every
    gluing pair, on every template: tags added one at a time, each class
    named by its first tag in enumeration order."""
    if X.signature != template.tau:
        raise ValueError("left functor expects a tau-structure")
    tags: list = []
    tag_ids: dict = {}

    def add(tag) -> int:
        if tag not in tag_ids:
            tag_ids[tag] = len(tags)
            tags.append(tag)
        return tag_ids[tag]

    for x in X.domain:
        for a in template.A.domain:
            add(("A", x, a))
    for name, arity in template.tau.symbols:
        bdom = template.B[name].domain
        for xt in X.ordered(name):
            for b in bdom:
                add(("B", name, xt, b))
    uf = pultr._UnionFind(len(tags))
    for name, arity in template.tau.symbols:
        maps = template.eps[name]
        for xt in X.relations[name]:
            for j in range(arity):
                for a in template.A.domain:
                    uf.union(
                        tag_ids[("A", xt[j], a)],
                        tag_ids[("B", name, xt, maps[j][a])],
                    )
    class_of_id = [uf.find(i) for i in range(len(tags))]
    class_name: dict = {}
    for i, tag in enumerate(tags):
        root = class_of_id[i]
        if root not in class_name:
            class_name[root] = tag  # first tag in enumeration order is least
    return LambdaQuotient(tags, tag_ids, class_of_id, class_name)


def reference_left_apply(
    template: PultrTemplate, X: RelStructure, *, quotient: Optional[pultr.LambdaQuotient] = None
) -> RelStructure:
    """Glue a copy of A per vertex and a copy of B_T per tau-tuple along the
    eps maps, and push all gadget relations to the quotient, copies and
    tuples in canonical order."""
    q = quotient if quotient is not None else pultr.lambda_quotient(template, X)
    domain = []
    seen = set()
    for i, tag in enumerate(q.tags):
        name = q.class_name[q.class_of_id[i]]
        if name not in seen:
            seen.add(name)
            domain.append(name)
    relations: dict[str, list] = {name: [] for name, _ in template.rho.symbols}
    for rname, _ in template.rho.symbols:
        for at in template.A.ordered(rname):
            for x in X.domain:
                relations[rname].append(tuple(q.cls(("A", x, a)) for a in at))
        for tname, _ in template.tau.symbols:
            bt = template.B[tname]
            for xt in X.ordered(tname):
                for btuple in bt.ordered(rname):
                    relations[rname].append(
                        tuple(q.cls(("B", tname, xt, b)) for b in btuple)
                    )
    return RelStructure(template.rho, domain, relations)


def reference_verify_assignment(
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
    *,
    max_witnesses: int = 25,
) -> qop.VerificationReport:
    """Exact verification of a perfect k-compatible quantum assignment.

    Checks, in order: every family is a PVM; for every symbol R, scope tuple
    in R(X) and label tuple outside R(Y) the scope-ordered projector product
    is the zero matrix; and all projector pairs of variables within Gaifman
    distance k of each other commute.  Absent labels are zero projectors, so
    product checks iterate over present labels only, which is sound and
    complete.
    """
    if set(assignment.pvms) != set(X.domain):
        raise qop.KeyMismatch("assignment keys differ from the variable domain")
    for fam in assignment.pvms.values():
        for y in fam:
            if y not in Y:
                raise qop.KeyMismatch(f"label {y!r} outside the target domain")

    pvm_ok = True
    pvm_issues = []
    for x in X.domain:
        fam = assignment.pvms[x]
        mats = list(fam.values())
        if not mats:
            pvm_ok = False
            pvm_issues.append((x, "empty"))
            continue
        rep = qop.verify_pvm(mats)
        if not rep.passed:
            pvm_ok = False
            pvm_issues.append((x, rep.issues))

    cache = qop._ProductCache()
    product_violations: list[qop.Violation] = []
    labels_of = {x: tuple(assignment.pvms[x].keys()) for x in X.domain}

    def full_sweep():
        for name, t in X.all_tuples():
            rel = Y.relations[name]
            for combo in itertools.product(*(labels_of[v] for v in t)):
                if combo not in rel:
                    yield name, t, combo

    products_checked = 0
    for name, t, combo in full_sweep():
        products_checked += 1
        mats = [assignment.pvms[v][y] for v, y in zip(t, combo)]
        if not qop._ordered_product_is_zero(mats, cache):
            if len(product_violations) < max_witnesses:
                product_violations.append(qop.Violation("product", (name, t, combo)))
            else:
                product_violations.append(qop.Violation("product", ("...",)))
                break

    commutator_violations: list[qop.Violation] = []
    commutators_checked = 0
    if k >= 1 and not assignment.all_diagonal():
        balls = reference_gaifman_balls(X, k)
        done = False
        for i, x in enumerate(X.domain):
            if done:
                break
            for xp in X.domain[i + 1:]:
                if xp not in balls[x]:
                    continue
                for ya, ma in assignment.pvms[x].items():
                    for yb, mb in assignment.pvms[xp].items():
                        commutators_checked += 1
                        if not cache.commute(ma, mb):
                            commutator_violations.append(
                                qop.Violation("commutator", (x, xp, ya, yb))
                            )
                            if len(commutator_violations) >= max_witnesses:
                                done = True
                if done:
                    break
    return qop.VerificationReport(
        pvm_ok,
        product_violations,
        commutator_violations,
        products_checked,
        commutators_checked,
        pvm_issues,
    )


def digit(z: int, position: int, base: int) -> int:
    """The base-`base` digit of z at `position`."""
    return (z // base**position) % base


def reference_blocks(z: int, perm: Sequence[int], d: int, base: int) -> tuple:
    """The d-blocks of z under perm, digit by digit: block i holds the
    base-`base` digits of z at the places perm[d*i : d*i + d]."""
    m = len(perm) // d
    return tuple(
        tuple(digit(z, perm[d * i + j], base) for j in range(d)) for i in range(m)
    )


def reference_eta_pair_lists(ctx) -> dict:
    """The (z, z') pairs of every symbol of an eta context, from the
    all-pairs test of its permuted d-blocks."""
    d, n = ctx.d, ctx.n
    base = 2 * d
    disjoint = {
        (a, b)
        for a in itertools.product(range(base), repeat=d)
        for b in itertools.product(range(base), repeat=d)
        if not set(a) & set(b)
    }
    z_all = range(base**n)
    pair_lists: dict = {}
    for name, (mu, nu) in ctx.mu_nu.items():
        mu_blocks = [reference_blocks(z, mu, d, base) for z in z_all]
        nu_blocks = [reference_blocks(zp, nu, d, base) for zp in z_all]
        pairs = [
            (z, zp)
            for z, zb in enumerate(mu_blocks)
            for zp, zpb in enumerate(nu_blocks)
            if all((a, b) in disjoint for a, b in zip(zb, zpb))
        ]
        pair_lists[name] = pairs
    return pair_lists


def reference_eta_context(inst: CspInstance, *, budget: Optional[int] = None) -> colouring.EtaContext:
    """The eta context as built before it read its structures from
    `csp.to_structures`: constraints grouped by their permutation pair, one
    symbol T<i> per pair, the target rebuilt from (mu, nu) and rechecked
    against the predicates."""
    cert = classify_label_cover(inst).d_to_d
    if cert is None:
        raise colouring.NotDtoD("instance has no verified d-to-d certificate")
    d, m = cert.d, cert.m
    if d < 2:
        raise ValueError("d must be >= 2")
    n = len(inst.alphabet)
    base = 2 * d
    if budget is not None and len(inst.variables) * base**n > budget:
        raise relstruct.SizeBudgetExceeded(
            f"{len(inst.variables)} * (2d)^{n} vertices exceed the budget"
        )
    block_values = list(itertools.product(range(base), repeat=d))
    partners = {a: [b for b in block_values if not set(a) & set(b)] for a in block_values}

    pair_to_symbol: dict = {}
    scopes_by_symbol: dict = {}
    for c, (mu, nu) in zip(inst.constraints, cert.permutations):
        key = (mu, nu)
        if key not in pair_to_symbol:
            pair_to_symbol[key] = f"T{len(pair_to_symbol)}"
            scopes_by_symbol[pair_to_symbol[key]] = set()
        scopes_by_symbol[pair_to_symbol[key]].add(c.scope)
    symbols = tuple(pair_to_symbol[key] for key in pair_to_symbol)
    tau = Signature(tuple((name, 2) for name in symbols))
    rho = GRAPH_SIGNATURE

    z_all = range(base**n)
    A = RelStructure._trusted(rho, tuple(z_all), {"E": []})
    gadgets: dict = {}
    eps: dict = {}
    for (mu, nu), name in pair_to_symbol.items():
        by_blocks: dict = {}
        for zp in z_all:
            by_blocks.setdefault(reference_blocks(zp, nu, d, base), []).append(zp)
        pairs = []
        for z in z_all:
            choices = [partners[a] for a in reference_blocks(z, mu, d, base)]
            zps = [zp for bs in itertools.product(*choices) for zp in by_blocks.get(bs, ())]
            pairs += [(z, zp) for zp in sorted(zps)]
        left, right = [(1, z) for z in z_all], [(2, z) for z in z_all]
        edges = [(left[z], right[zp]) for z, zp in pairs]
        gadgets[name] = RelStructure._trusted(rho, (*left, *right), {"E": edges})
        eps[name] = (dict(zip(z_all, left)), dict(zip(z_all, right)))
    template = PultrTemplate(rho, tau, A, gadgets, eps)

    alpha_index = {a: i for i, a in enumerate(inst.alphabet)}
    x_struct = RelStructure(tau, inst.variables, scopes_by_symbol)
    target_rels: dict = {}
    for (mu, nu), name in pair_to_symbol.items():
        mu_pos = {a: p for p, a in enumerate(mu)}
        nu_pos = {b: p for p, b in enumerate(nu)}
        target_rels[name] = {
            (a, b)
            for a in inst.alphabet
            for b in inst.alphabet
            if mu_pos[alpha_index[a]] // d == nu_pos[alpha_index[b]] // d
        }
    target = RelStructure(tau, inst.alphabet, target_rels)
    mu_nu = {name: key for key, name in pair_to_symbol.items()}
    for c, (mu, nu) in zip(inst.constraints, cert.permutations):
        name = pair_to_symbol[(mu, nu)]
        if target_rels[name] != set(c.allowed):
            raise qop.VerificationFailure(
                f"target relation {name!r} differs from the predicate of scope {c.scope!r}"
            )
    return colouring.EtaContext(inst, cert, d, m, n, symbols, mu_nu, x_struct, target, template)


# -- reference graph walks --------------------------------------------------
# The per-caller BFS loops that `relstruct.is_bipartite`, `_bfs_distances`
# and `gaifman_balls` replaced, kept as they were (the CspInstance methods
# as functions of the instance), and the edge-by-edge BFS of `is_bipartite`
# from before it read a line digraph's copies.


def reference_is_bipartite(G: RelStructure) -> bool:
    """Whether the graph G has a homomorphism to K2: BFS depths over lists
    of neighbour indexes, taken from each unvisited vertex in domain order,
    must differ in parity across every edge (so a loop rules it out)."""
    edges = G.scan(G.graph_symbol())
    heads, tails = (list(map(G._index.__getitem__, c)) for c in relstruct._columns(edges, 2))
    adj: list = [[] for _ in G.domain]
    for i, j in zip(heads, tails):
        adj[i].append(j)
        adj[j].append(i)
    depth: dict = {}
    for i in range(len(adj)):
        if i not in depth:
            depth.update(relstruct._bfs_distances(adj, i))
    at = depth.__getitem__
    return all((a - b) % 2 for a, b in zip(map(at, heads), map(at, tails)))


def reference_gaifman_distance(X: RelStructure, u: Vertex, v: Vertex):
    """BFS distance between u and v in the Gaifman graph; inf if disconnected."""
    X.index(u)
    X.index(v)
    if u == v:
        return 0
    adj = X.gaifman_adjacency()
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for x in adj[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                if x == v:
                    return dist[x]
                queue.append(x)
    return INFINITY


def reference_gaifman_balls(X: RelStructure, radius: int) -> dict:
    """For each vertex, the set of vertices within `radius` Gaifman steps."""
    adj = X.gaifman_adjacency()
    balls = {}
    for v in X.domain:
        seen = {v}
        frontier = [v]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for x in adj[w]:
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        balls[v] = seen
    return balls


def reference_chromatic_lower_bound(X: RelStructure, clique_tries: int = 64) -> tuple[bool, int]:
    """(bipartite, lower bound): one BFS 2-colouring pass for odd cycles,
    plus a bounded greedy clique probe from the highest-degree vertices."""
    adj = X.gaifman_adjacency()
    if all(not ns for ns in adj.values()):
        return True, 1
    colour: dict = {}
    bipartite = True
    for start in X.domain:
        if start in colour:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue and bipartite:
            u = queue.popleft()
            for v in adj[u]:
                if v == u:
                    bipartite = False
                    break
                if v not in colour:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    bipartite = False
                    break
        if not bipartite:
            break
    best_clique = 2
    by_degree = sorted(X.domain, key=lambda v: -len(adj[v]))[:clique_tries]
    neighbour_sets: dict = {}

    def nbrs(w):
        if w not in neighbour_sets:
            neighbour_sets[w] = set(adj[w])
        return neighbour_sets[w]

    for v in by_degree:
        members = [v]
        for u in adj[v]:
            if all(u in nbrs(w) for w in members):
                members.append(u)
        best_clique = max(best_clique, len(members))
    lower = 2 if bipartite else max(3, best_clique)
    return bipartite, max(lower, best_clique)


def reference_bipartite_split(inst: CspInstance) -> Optional[tuple[frozenset, frozenset]]:
    """Orient every scope left-to-right; propagate sides per component."""
    side: dict = {}
    adj: dict = {v: [] for v in inst.variables}
    for c in inst.constraints:
        x, y = c.scope
        if x == y:
            return None
        adj[x].append((y, 1))
        adj[y].append((x, 0))
    # Seed each component from a vertex that occurs first in some scope when
    # possible, so orientation and 2-colouring are decided together.
    firsts = {c.scope[0] for c in inst.constraints}
    for v in inst.variables:
        if v in side:
            continue
        side[v] = 0 if (v in firsts or not adj[v]) else 1
        queue = deque([v])
        while queue:
            w = queue.popleft()
            for u, s in adj[w]:
                # s == 1: scope (w, u) forces side[w]=0, side[u]=1;
                # s == 0: scope (u, w) forces side[w]=1, side[u]=0.
                expect_w = 0 if s == 1 else 1
                if side[w] != expect_w:
                    return None
                expect_u = 1 - expect_w
                if u in side:
                    if side[u] != expect_u:
                        return None
                else:
                    side[u] = expect_u
                    queue.append(u)
    left = frozenset(v for v in inst.variables if side.get(v, 0) == 0)
    right = frozenset(v for v in inst.variables if side.get(v) == 1)
    return left, right


def reference_csp_gaifman_adjacency(inst: CspInstance) -> dict:
    adj: dict = {v: set() for v in inst.variables}
    for c in inst.constraints:
        for a in c.scope:
            for b in c.scope:
                if a != b:
                    adj[a].add(b)
    return adj


def reference_csp_gaifman_distance(inst: CspInstance, u, v):
    if u == v:
        return 0
    adj = reference_csp_gaifman_adjacency(inst)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for x in adj[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                if x == v:
                    return dist[x]
                queue.append(x)
    return float("inf")


def reference_augment_k(inst: CspInstance, k: int) -> CspInstance:
    """Add a full-predicate binary constraint for every distinct variable pair
    at Gaifman distance <= k; halve original weights, spread the other half
    uniformly over the new constraints."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = []
    for i, x in enumerate(inst.variables):
        for y in inst.variables[i + 1:]:
            dist = reference_csp_gaifman_distance(inst, x, y)
            if dist <= k:
                pairs.append((x, y))
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


def random_csp_instance(rng: random.Random, arity: int, max_variables: int = 6) -> CspInstance:
    """A random instance of one arity over a small alphabet: scopes may
    repeat a variable, repeat a scope, or leave variables unconstrained."""
    variables = [f"x{i}" for i in range(rng.randint(1, max_variables))]
    alphabet = [0, 1]
    constraints = []
    for _ in range(rng.randint(0, 2 * len(variables))):
        scope = tuple(rng.choice(variables) for _ in range(arity))
        allowed = {
            t for t in itertools.product(alphabet, repeat=arity) if rng.random() < 0.5
        }
        constraints.append((scope, allowed))
    weights = [rng.randint(1, 3) for _ in constraints]
    return CspInstance(variables, alphabet, constraints, weights)


def reference_instance_error(variables, alphabet, constraints) -> Optional[str]:
    """The ValueError message of the `CspInstance` scope and allowed-tuple
    checks as they were before the alphabet was read as a set: each entry is
    looked up by a scan of the alphabet tuple, the allowed tuples in the
    iteration order of their frozenset; None when every check passes."""
    var_index = {v: i for i, v in enumerate(dict.fromkeys(variables))}
    alphabet = tuple(dict.fromkeys(alphabet))
    for scope, allowed in constraints:
        scope = tuple(scope)
        for v in scope:
            if v not in var_index:
                return f"scope entry {v!r} is not a variable"
        allowed = frozenset(tuple(t) for t in allowed)
        for t in allowed:
            if len(t) != len(scope):
                return "allowed tuple arity does not match scope"
            for a in t:
                if a not in alphabet:
                    return f"allowed entry {a!r} not in alphabet"
    return None


# -- reference builders ----------------------------------------------------------
# The builders as they were before structures kept a canonical tuple order:
# each validates its output through the public constructor, sorts by domain
# index on its own, or scans the whole candidate domain.  The gadget witness
# re-checks the forced map with `check_homomorphism`; it reads the first three
# parts of the gluing plan, which is all it read then.


def reference_line_digraph(X: RelStructure) -> RelStructure:
    """Vertices are the edges of X; (e, f) is an edge when e ends where f
    starts."""
    sym = X.graph_symbol()
    edges = sorted(X.relations[sym], key=lambda t: (X.index(t[0]), X.index(t[1])))
    by_tail: dict = {}
    for e in edges:
        by_tail.setdefault(e[0], []).append(e)
    new_edges = []
    for e in edges:
        for f in by_tail.get(e[1], ()):
            new_edges.append((e, f))
    return RelStructure(GRAPH_SIGNATURE, edges, {sym: new_edges})


def reference_relabel(X: RelStructure, prefix: str = "n") -> tuple[RelStructure, dict]:
    """Rename vertices to compact prefix+index strings (domain order);
    returns the renamed structure and the old-to-new map.  Deeply nested
    vertex names from iterated constructions stay cheap this way."""
    mapping = {v: f"{prefix}{i}" for i, v in enumerate(X.domain)}
    relations = {
        name: [tuple(mapping[v] for v in t) for t in X.relations[name]]
        for name, _ in X.signature.symbols
    }
    renamed = RelStructure(X.signature, [mapping[v] for v in X.domain], relations)
    return renamed, mapping


def reference_gaifman_adjacency(X: RelStructure) -> dict:
    """Adjacency lists of the Gaifman graph (co-occurrence in a tuple)."""
    adj: dict = {v: set() for v in X.domain}
    for _, t in X.all_tuples():
        for a in t:
            for b in t:
                if a != b:
                    adj[a].add(b)
    return {v: tuple(sorted(ns, key=X.index)) for v, ns in adj.items()}


def reference_gamma_products(
    X: RelStructure, gy: RelStructure, assignment: QuantumAssignment, k: int, copies
) -> QuantumAssignment:
    """W[x, h] for x in X and h in gy: the product, in the canonical order
    of A, of the families of the variables copies(x) at the labels of h."""
    cache = qop._ProductCache()
    pvms: dict = {}
    for x in X.domain:
        fams = [assignment.pvms[v] for v in copies(x)]
        mats = [m for fam in fams for m in fam.values()]
        if not all(
            cache.commute(ma, mb) for ma, mb in itertools.combinations(mats, 2)
        ):
            raise pultr.CompatibilityTooLow(
                f"copy projectors over {x!r} do not commute; "
                f"declared level {assignment.k} is insufficient"
            )
        fam_out: dict = {}
        for h in gy.domain:
            prod: Optional[PMatrix] = None
            ok = True
            for fam, y in zip(fams, h):
                if y not in fam:
                    ok = False
                    break
                prod = fam[y] if prod is None else prod @ fam[y]
            if ok and prod is not None and not prod.is_zero():
                fam_out[h] = prod
        pvms[x] = fam_out
    return QuantumAssignment(assignment.dim, k, pvms)


def reference_gadget_witness(template: PultrTemplate, name: str, ht: tuple, X: RelStructure, plan: tuple):
    """A homomorphism ell: B_T -> X with ell o eps_i equal to the i-th
    component of the tau-tuple ht of Gamma X; ht is in the relation, so a
    witness exists.  Vertices covered by eps images are forced; the rest are
    found by a search with the forced values fixed, so the witness is the
    canonically-least homomorphism extending them.  `plan` is
    `_gluing_plan(template, name, a_index)`."""
    pairs, agree, free = plan[:3]
    for (i, ai), (j, aj) in agree:
        if ht[i][ai] != ht[j][aj]:
            raise pultr.WellDefinednessViolation(f"incompatible eps images while gluing {name!r}: {ht!r}")
    bt = template.B[name]
    forced = {b: ht[j][ai] for j, ai, b in pairs}
    if not free:
        if not relstruct.check_homomorphism(forced, bt, X):
            raise pultr.WellDefinednessViolation(f"no gadget witness for {name!r} tuple {ht!r}")
        return forced
    for h in relstruct._search_homomorphisms(bt, X, fixed=forced, limit=1):
        return h
    raise pultr.WellDefinednessViolation(f"no gadget witness for {name!r} tuple {ht!r}")


# -- reference GF(2) layer ---------------------------------------------------------
# The elimination, Zassenhaus intersection, functional construction and
# evaluation as they were before the pivot-keyed elimination: echelon lists
# re-sorted after every row, the intersection and the functional each reduced
# twice, and evaluation by back-substitution over the basis.  The reference
# rho1 build compares every label pair on the overlap basis with them.


def _reference_pivot(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def reference_rref(rows) -> tuple:
    basis: list = []
    for row in rows:
        for b in basis:
            if (row >> _reference_pivot(b)) & 1:
                row ^= b
        if row:
            p = _reference_pivot(row)
            for i in range(len(basis)):
                if (basis[i] >> p) & 1:
                    basis[i] ^= row
            basis.append(row)
            basis.sort(key=_reference_pivot)
    return tuple(basis)


def reference_intersect(U: F2Subspace, V: F2Subspace) -> F2Subspace:
    if U.ambient != V.ambient:
        raise AmbientMismatch("subspaces in different ambient spaces")
    n = U.ambient.dim
    rows = [b | (b << n) for b in U.basis] + list(V.basis)
    echelon: list = []
    for row in rows:
        for e in echelon:
            if (row >> _reference_pivot(e)) & 1:
                row ^= e
        if row:
            echelon.append(row)
            echelon.sort(key=_reference_pivot)
    mask = (1 << n) - 1
    return F2Subspace(U.ambient, reference_rref(e >> n for e in echelon if (e & mask) == 0))


def reference_functional_from_constraints(constraints, ambient: F2Ambient) -> F2Functional:
    echelon: list = []
    for bits, val in constraints:
        for eb, ev in echelon:
            if (bits >> _reference_pivot(eb)) & 1:
                bits ^= eb
                val ^= ev
        if bits == 0:
            if val:
                raise ExtensionConflict("inconsistent functional constraints")
            continue
        echelon.append((bits, val))
        echelon.sort(key=lambda r: _reference_pivot(r[0]))
    space = F2Subspace(ambient, reference_rref(b for b, _ in echelon))

    def value_on(bits: int) -> int:
        acc = 0
        for eb, ev in echelon:
            if (bits >> _reference_pivot(eb)) & 1:
                bits ^= eb
                acc ^= ev
        if bits:
            raise ExtensionConflict("basis vector escapes the echelon span")
        return acc

    return F2Functional(space, tuple(value_on(b) for b in space.basis))


def reference_evaluate_bits(psi: F2Functional, bits: int) -> int:
    acc = 0
    for b, val in zip(psi.domain.basis, psi.values):
        c = (bits >> _reference_pivot(b)) & 1
        if c:
            bits ^= b
        acc ^= c & val
    if bits:
        raise AmbientMismatch("vector outside the functional's domain")
    return acc


def reference_build_rho1(system, n: int, ell: int):
    """`dkkms.build_rho1` with every label built and extended by the
    reference functional construction, and every label pair of every
    constraint compared on each overlap basis vector in turn."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    reg = dkkms.is_regular(system, 2)
    if not reg.regular:
        raise dkkms.NotRegular(repr(reg))
    ambient = system.ambient()
    tuples = dkkms.legitimate_tuples(system, n)
    h_spaces = {t: F2Subspace.spanned_by([system.equation_vector(i) for i in t]) for t in tuples}
    eq_bits = {t: [(system.equation_vector(i).bits, system.equations[i][1]) for i in t] for t in tuples}
    vertices: dict = {}
    for t in tuples:
        if h_spaces[t].dim != n:
            raise dkkms.NotRegular(f"equation vectors of {t} are dependent")
        coord = F2Subspace.spanned_by([ambient.unit(v) for v in dkkms.tuple_variables(system, t)])
        for low in dkkms.enumerate_subspaces(coord, ell, avoid=h_spaces[t]):
            vertex = dkkms.RhoVertex(t, low, low.sum(h_spaces[t]))
            vertices[vertex.key] = vertex
    keys = sorted(vertices)
    alphabet = tuple(range(2**ell))
    labels = {
        key: {
            a: reference_functional_from_constraints(
                [(b, (a >> j) & 1) for j, b in enumerate(vertices[key].low_space.basis)]
                + eq_bits[vertices[key].indices],
                ambient,
            )
            for a in alphabet
        }
        for key in keys
    }

    def extended(key, other_tuple) -> dict:
        out = {}
        for a, psi in labels[key].items():
            for bits, val in eq_bits[vertices[key].indices]:
                if reference_evaluate_bits(psi, bits) != val:
                    raise RespectViolation("functional violates its declared side conditions")
            out[a] = reference_functional_from_constraints(
                list(zip(psi.domain.basis, psi.values)) + eq_bits[other_tuple], ambient
            )
        return out

    constraints = []
    tags = []
    for ka, kb in itertools.combinations(keys, 2):
        va, vb = vertices[ka], vertices[kb]
        joint_a = va.space.sum(h_spaces[vb.indices])
        joint_b = vb.space.sum(h_spaces[va.indices])
        total = va.space.sum(vb.space)
        if joint_a.dim == joint_b.dim == total.dim:
            tag = "1-to-1"
        elif joint_a.dim == joint_b.dim == total.dim - 1:
            tag = "2-to-2"
        else:
            continue
        overlap = reference_intersect(joint_a, joint_b)
        ext_a = extended(ka, vb.indices)
        ext_b = extended(kb, va.indices)
        allowed = set()
        for a in alphabet:
            for b in alphabet:
                if all(
                    reference_evaluate_bits(ext_a[a], bits) == reference_evaluate_bits(ext_b[b], bits)
                    for bits in overlap.basis
                ):
                    allowed.add((a, b))
        constraints.append(((ka, kb), allowed))
        tags.append(tag)
    inst = CspInstance(keys, alphabet, constraints)
    return dkkms.RhoInstance(system, n, ell, inst, vertices, tuple(tags), labels)


# draws `random_regular_system` makes before it gives up on the sizes asked
REGULAR_SYSTEM_ATTEMPTS = 2_000


def random_regular_system(rng: random.Random, equations: int, variables: int):
    """A regular 3XOR system: each variable in at most two equations, any two
    equations sharing at most one variable; variable names z0, z1, ...
    Equation triples are drawn until one is regular; after
    REGULAR_SYSTEM_ATTEMPTS draws (none may exist, as for 3 equations on 5
    variables) it raises ValueError naming the sizes."""
    pool = [f"z{j}" for j in range(variables)]
    for _ in range(REGULAR_SYSTEM_ATTEMPTS):
        eqs = [(tuple(rng.sample(pool, 3)), rng.randint(0, 1)) for _ in range(equations)]
        system = dkkms.XorSystem.from_equations(eqs)
        if dkkms.is_regular(system, 2).regular:
            return system
    raise ValueError(
        f"no regular system of {equations} equations on {variables} variables "
        f"in {REGULAR_SYSTEM_ATTEMPTS} draws"
    )


# -- reference encoders ----------------------------------------------------------
# `serialize.structure_to_dict` and `serialize.instance_to_dict` as they were
# before the sort keys were joined from per-identifier texts: one
# `json.dumps` of each encoded tuple as its sort key.


def reference_structure_to_dict(s: RelStructure) -> dict:
    return {
        "signature": [{"name": n, "arity": a} for n, a in s.signature.symbols],
        "domain": [encode_id(v) for v in s.domain],
        "relations": {
            name: sorted(
                ([encode_id(v) for v in t] for t in s.relations[name]),
                key=lambda t: json.dumps(t, sort_keys=True),
            )
            for name, _ in s.signature.symbols
        },
    }


def reference_instance_to_dict(inst: CspInstance) -> dict:
    return {
        "variables": [encode_id(v) for v in inst.variables],
        "alphabet": [encode_id(a) for a in inst.alphabet],
        "constraints": [
            {
                "scope": [encode_id(v) for v in c.scope],
                "allowed": sorted(
                    ([encode_id(a) for a in t] for t in c.allowed),
                    key=lambda t: json.dumps(t, sort_keys=True),
                ),
                "weight": str(c.weight),
            }
            for c in inst.constraints
        ],
    }
