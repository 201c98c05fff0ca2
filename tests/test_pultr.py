import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

from chromagap.colouring import eta_context, line_digraph, linedigraph_template
from chromagap import pultr, serialize
from chromagap.csp import CspInstance
from chromagap.pultr import (
    CompatibilityTooLow,
    NotConnected,
    PultrTemplate,
    WellDefinednessViolation,
    adjunction_oracle,
    central_apply,
    gamma_functor,
    lambda_functor,
    lambda_quotient,
    left_apply,
    template_predicates,
    transfer_gamma,
    transfer_lambda,
)
from chromagap.qop import PMatrix, QuantumAssignment, lift_classical, verify_assignment
from chromagap.relstruct import (
    GRAPH_SIGNATURE,
    PartialMap,
    RelStructure,
    Signature,
    SignatureMismatch,
    UnknownVertex,
    check_homomorphism,
    clique,
    digraph,
    enumerate_homomorphisms,
    find_homomorphism,
    product_sides,
)
from helpers import (
    all_pairs_template_predicates,
    block_images,
    gamma_product_for_map,
    quotient_classes,
    random_digraph,
    random_faithful_template,
    random_template,
    random_structure,
    reference_gadget_witness,
    reference_gamma_functor,
    reference_gamma_products,
    reference_is_faithful,
    reference_lambda_quotient,
    reference_left_apply,
    reference_transfer_lambda,
    structure_with_hom_from,
    without_view,
)


def exponential_template(G: RelStructure) -> PultrTemplate:
    """Product / exponential pair for a fixed digraph G: the gadget is the
    direct product G x K2 with the two natural injections."""
    rho = GRAPH_SIGNATURE
    A = RelStructure(rho, G.domain, {"E": []})
    dom = [(g, i) for g in G.domain for i in (0, 1)]
    edges = set()
    for (g, gp) in G.relations["E"]:
        edges.add(((g, 0), (gp, 1)))
        edges.add(((g, 1), (gp, 0)))
    B = RelStructure(rho, dom, {"E": edges})
    eps = ({g: (g, 0) for g in G.domain}, {g: (g, 1) for g in G.domain})
    return PultrTemplate(rho, rho, A, {"E": B}, {"E": eps})


def exponential_digraph(G: RelStructure, Y: RelStructure) -> RelStructure:
    """Direct construction of the exponential over the undirected-K2 product
    gadget: vertices are all maps, and (f, h) is an edge when every edge
    (g, g') of G maps across in both orders, (f(g), h(g')) and (h(g), f(g'))
    both landing in the edges of Y."""
    maps = [dict(zip(G.domain, images)) for images in itertools.product(Y.domain, repeat=len(G.domain))]
    keys = [tuple(m[g] for g in G.domain) for m in maps]
    edges = set()
    for f, kf in zip(maps, keys):
        for h, kh in zip(maps, keys):
            if all(
                (f[u], h[v]) in Y.relations["E"] and (h[u], f[v]) in Y.relations["E"]
                for (u, v) in G.relations["E"]
            ):
                edges.add((kf, kh))
    return RelStructure(GRAPH_SIGNATURE, keys, {"E": edges})


def test_linedigraph_template_predicates():
    report = template_predicates(linedigraph_template())
    assert report.connected and not report.faithful and report.diameter == 2


def test_exponential_template_is_faithful():
    G = digraph([("g0", "g1")])
    report = template_predicates(exponential_template(G))
    assert report.faithful


def test_central_functor_is_line_digraph():
    for seed in range(6):
        X = random_digraph(random.Random(seed), 5, 6)
        gx = central_apply(linedigraph_template(), X)
        dx = line_digraph(X)
        assert set(gx.domain) == set(dx.domain)
        assert gx.relations["E"] == dx.relations["E"]


def test_central_functor_is_line_digraph_in_domain_order():
    """Gamma of the line-digraph template is the line digraph itself, with
    the same vertex order; the thm14 chain relies on this identity."""
    rng = random.Random(41)
    seen_loop = seen_isolated = False
    for _ in range(60):
        X = random_digraph(rng, 6, 9)
        gx = central_apply(linedigraph_template(), X)
        dx = line_digraph(X)
        assert gx.domain == dx.domain
        assert gx.relations == dx.relations
        seen_loop |= any(a == b for a, b in X.relations["E"])
        touched = {v for t in X.relations["E"] for v in t}
        seen_isolated |= len(touched) < len(X.domain)
    assert seen_loop and seen_isolated


def test_central_functor_matches_exponential_graph():
    for seed in range(4):
        rng = random.Random(seed)
        G = random_digraph(rng, 2, 2)
        Y = random_digraph(rng, 3, 4)
        template = exponential_template(G)
        ours = central_apply(template, Y)
        direct = exponential_digraph(G, Y)
        assert set(ours.domain) == set(direct.domain)
        assert ours.relations["E"] == direct.relations["E"]


def test_left_functor_on_line_digraph_template():
    X = digraph([("a", "b")])
    lam = left_apply(linedigraph_template(), X)
    # one arc per vertex, glued: a path of length 2
    assert len(lam.domain) == 3
    assert len(lam.relations["E"]) == 2
    single = left_apply(linedigraph_template(), RelStructure(GRAPH_SIGNATURE, ["a"], {}))
    assert len(single.domain) == 2 and len(single.relations["E"]) == 1


def test_left_functor_empty_tuple_structure_is_copy_of_a():
    template = random_faithful_template(random.Random(1))
    X = RelStructure(template.tau, ["x"], {name: [] for name, _ in template.tau.symbols})
    lam = left_apply(template, X)
    assert len(lam.domain) == len(template.A.domain)
    for name, _ in template.rho.symbols:
        assert len(lam.relations[name]) == len(template.A.relations[name])


def test_oracle_trivial_on_loop_target():
    template = linedigraph_template()
    X = random_digraph(random.Random(0), 3, 4)
    Y = RelStructure(GRAPH_SIGNATURE, ["y"], {"E": [("y", "y")]})
    assert adjunction_oracle(template, X, Y) == (True, True)


def test_oracle_line_digraph_c5_k2():
    C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    assert adjunction_oracle(linedigraph_template(), C5, clique(2)) == (False, False)


def test_template_predicates_match_all_pairs_reference():
    """Connectivity is decided by one BFS per structure and the diameter
    sweep runs only on connected templates; the report is unchanged."""
    rng = random.Random(7)
    templates = [linedigraph_template(), exponential_template(digraph([("g0", "g1")]))]
    templates += [random_template(rng) for _ in range(60)]
    templates += [random_faithful_template(rng) for _ in range(60)]
    outcomes = set()
    for template in templates:
        report = template_predicates(template)
        assert report == all_pairs_template_predicates(template)
        outcomes.add((report.connected, report.faithful))
    assert {c for c, _ in outcomes} == {True, False}
    assert {f for _, f in outcomes} == {True, False}


def test_left_apply_reuses_a_given_quotient():
    rng = random.Random(19)
    for _ in range(30):
        template = random_template(rng) if rng.random() < 0.5 else random_faithful_template(rng)
        X = random_digraph(rng, 3, 4)
        X = RelStructure(
            template.tau,
            X.domain,
            {
                name: {tuple(rng.choice(X.domain) for _ in range(arity)) for _ in range(rng.randint(0, 3))}
                for name, arity in template.tau.symbols
            },
        )
        plain = left_apply(template, X)
        given = left_apply(template, X, quotient=lambda_quotient(template, X))
        assert given.domain == plain.domain
        assert given.relations == plain.relations


def _witness(template, name, ht, X, plan):
    """The gadget witness of one tau-tuple, as a map, read off the columns
    that `_gadget_witnesses` returns for a one-tuple list."""
    columns = pultr._gadget_witnesses(template, name, [ht], X, plan)
    return {b: column[0] for b, column in zip(template.B[name].domain, columns)}


def _first_filtered_witness(template, name, ht, X, plan):
    """The gadget witness as the first homomorphism B_T -> X, in canonical
    order, that agrees with the eps images forced by ht."""
    a_index = {a: i for i, a in enumerate(template.A.domain)}
    forced = {
        b: ht[i][a_index[a]] for i, m in enumerate(template.eps[name]) for a, b in m.items()
    }
    for h in enumerate_homomorphisms(template.B[name], X):
        if all(h[b] == y for b, y in forced.items()):
            return h
    return None


def _tuple_by_tuple(witness):
    """The column form of a one-tuple gadget witness routine: it is run on
    each tuple in order, so the first tuple that fails raises."""

    def witnesses(template, name, hts, X, plan, at=None):
        ells = [witness(template, name, ht, X, plan) for ht in hts]
        return [[ell[b] for ell in ells] for b in template.B[name].domain]

    return witnesses


def test_gadget_witness_with_free_gadget_vertices():
    """Gadgets with vertices outside every eps image: the witness found with
    the forced values fixed is the first witness of the filtered enumeration."""
    rho = GRAPH_SIGNATURE
    A = RelStructure(rho, ["a1", "a2"], {"E": [("a1", "a2")]})
    # b3 hangs off the single eps image; b4 and b5 sit between two images
    one = RelStructure(rho, ["b1", "b2", "b3"], {"E": [("b1", "b2"), ("b2", "b3")]})
    two = RelStructure(
        rho,
        ["b1", "b2", "b3", "b4", "b5"],
        {"E": [("b1", "b2"), ("b4", "b5"), ("b2", "b3"), ("b3", "b4"), ("b5", "b5")]},
    )
    templates = [
        PultrTemplate(rho, Signature((("S", 1),)), A, {"S": one}, {"S": ({"a1": "b1", "a2": "b2"},)}),
        PultrTemplate(
            rho,
            Signature((("S", 2),)),
            A,
            {"S": two},
            {"S": ({"a1": "b1", "a2": "b2"}, {"a1": "b4", "a2": "b5"})},
        ),
    ]
    rng = random.Random(8)
    checked = 0
    for template in templates:
        assert not template_predicates(template).connected
        plan = pultr._gluing_plan(template, "S", {a: i for i, a in enumerate(template.A.domain)})
        for _ in range(15):
            X = random_digraph(rng, 5, 9)
            gx = central_apply(template, X)
            for ht in gx.relations["S"]:
                witness = _witness(template, "S", ht, X, plan)
                assert witness == _first_filtered_witness(template, "S", ht, X, plan)
                checked += 1
            with pytest.raises(NotConnected):
                gamma_functor(template, X, X, lift_classical({v: v for v in X.domain}), 0)
    assert checked > 50


def test_gadget_witness_rejects_tuples_that_disagree_on_a_glued_vertex():
    """b2 is the head of the first eps image and the tail of the second, so
    two arcs that do not meet there cannot be glued."""
    template = linedigraph_template()
    X = digraph([("a", "b"), ("b", "c"), ("c", "d")])
    plan = pultr._gluing_plan(template, "E", {"a1": 0, "a2": 1})
    assert _witness(template, "E", (("a", "b"), ("b", "c")), X, plan) == {
        "b1": "a",
        "b2": "b",
        "b3": "c",
    }
    with pytest.raises(WellDefinednessViolation, match="incompatible eps images while gluing 'E'"):
        _witness(template, "E", (("a", "b"), ("c", "d")), X, plan)
    with pytest.raises(WellDefinednessViolation, match="no gadget witness for 'E' tuple"):
        _witness(template, "E", (("a", "b"), ("b", "a")), X, plan)


def test_gadget_witness_errors_name_the_failing_tuple():
    """Both witness errors end with the tuple they stopped at, on the fast
    path and on the reference alike."""
    template = linedigraph_template()
    X = digraph([("a", "b"), ("b", "c"), ("c", "d")])
    plan = pultr._gluing_plan(template, "E", {"a1": 0, "a2": 1})
    for ht in ((("a", "b"), ("c", "d")), (("a", "b"), ("b", "a"))):
        for witness in (_witness, reference_gadget_witness):
            with pytest.raises(WellDefinednessViolation) as info:
                witness(template, "E", ht, X, plan)
            assert str(info.value).endswith(repr(ht))


def test_gamma_functor_unchanged_with_filtered_witness(monkeypatch):
    rng = random.Random(4)
    cases = []
    for _ in range(10):
        X = random_digraph(rng, 4, 6)
        f = find_homomorphism(X, clique(4))
        if f is not None:
            cases.append((X, lift_classical(f)))
    outputs = [gamma_functor(linedigraph_template(), X, clique(4), q, 1) for X, q in cases]
    monkeypatch.setattr(pultr, "_gadget_witnesses", _tuple_by_tuple(_first_filtered_witness))
    for (X, q), out in zip(cases, outputs):
        again = gamma_functor(linedigraph_template(), X, clique(4), q, 1)
        assert again.pvms == out.pvms and again.k == out.k
    assert len(cases) >= 5


def test_oracle_agreement_on_random_cases():
    rng = random.Random(123)
    for _ in range(40):
        template = random_template(rng)
        X = random_digraph(rng, 3, 4)
        X = RelStructure(
            template.tau,
            X.domain,
            {
                name: {
                    tuple(rng.choice(X.domain) for _ in range(arity))
                    for _ in range(rng.randint(0, 3))
                }
                for name, arity in template.tau.symbols
            },
        )
        Y = random_digraph(rng, 3, 4)
        lam, gam = adjunction_oracle(template, X, Y)
        assert lam == gam


# -- quantum transfers ------------------------------------------------------


def adjoint_of_lambda_hom(template, X, Y, f, quotient):
    """Classical adjoint of f: Lambda X -> Y, namely x -> (a -> f(a^(x)))."""
    return {
        x: tuple(f[quotient.cls(("A", x, a))] for a in template.A.domain)
        for x in X.domain
    }


def test_transfer_gamma_matches_classical_adjoint():
    rng = random.Random(5)
    done = 0
    while done < 20:
        template = random_template(rng)
        if not template_predicates(template).connected:
            continue
        X = RelStructure(
            template.tau,
            [f"x{i}" for i in range(rng.randint(1, 3))],
            {name: set() for name, _ in template.tau.symbols},
        )
        for name, arity in template.tau.symbols:
            rel = {
                tuple(rng.choice(X.domain) for _ in range(arity))
                for _ in range(rng.randint(0, 2))
            }
            X = RelStructure(template.tau, X.domain, {**X.relations, name: rel})
        quotient = lambda_quotient(template, X)
        lam = left_apply(template, X)
        Y, f = structure_with_hom_from(rng, lam, 3)
        lift = lift_classical(f)
        out = transfer_gamma(template, X, Y, lift, 1)
        gy = central_apply(template, Y)
        report = verify_assignment(X, gy, out, 1)
        assert report.passed
        assert out.dim == lift.dim == 1
        adjoint = adjoint_of_lambda_hom(template, X, Y, f, quotient)
        assert check_homomorphism(adjoint, X, gy)
        expected = lift_classical(adjoint)
        assert out.pvms == expected.pvms
        done += 1


def test_transfer_gamma_zero_on_non_homomorphisms():
    template = linedigraph_template()
    X = digraph([("a", "b"), ("b", "a")])
    Y = digraph([("y0", "y1"), ("y1", "y0")])  # constant maps are not homs
    quotient = lambda_quotient(template, X)
    lam = left_apply(template, X)
    f = find_homomorphism(lam, Y)
    assert f is not None
    lift = lift_classical(f)
    bad = {a: "y0" for a in template.A.domain}
    product = gamma_product_for_map(template, X, lift, "a", bad, quotient=quotient)
    assert product.is_zero()


def test_transfer_gamma_rejects_noncommuting_factors():
    from chromagap.qop import mermin_peres

    system, assignment = mermin_peres()
    template = linedigraph_template()
    # fabricate a structure whose copy classes alias two intersecting
    # question tuples; their projectors do not commute
    X = digraph([("p", "q")])
    quotient = lambda_quotient(template, X)
    keys = {
        quotient.cls(("A", "p", "a1")): (0,),
        quotient.cls(("A", "p", "a2")): (3,),
        quotient.cls(("A", "q", "a2")): (1,),
    }
    pvms = {cls: dict(assignment.pvms[t]) for cls, t in keys.items()}
    noncommuting = QuantumAssignment(4, 4, pvms)
    with pytest.raises(CompatibilityTooLow):
        transfer_gamma(template, X, clique(4), noncommuting, 1)


def test_transfer_lambda_matches_classical_adjoint():
    rng = random.Random(6)
    done = 0
    while done < 20:
        template = random_faithful_template(rng)
        dom = [f"x{i}" for i in range(rng.randint(1, 3))]
        X = RelStructure(
            template.tau,
            dom,
            {
                name: {
                    tuple(rng.choice(dom) for _ in range(arity))
                    for _ in range(rng.randint(0, 2))
                }
                for name, arity in template.tau.symbols
            },
        )
        gy_source = random_digraph(rng, 3, 4)
        gy = central_apply(template, gy_source)
        g = find_homomorphism(X, gy)
        if g is None:
            continue
        lift = lift_classical(g)
        quotient = lambda_quotient(template, X)
        out = transfer_lambda(template, X, gy_source, lift, 1, quotient=quotient)
        lam = left_apply(template, X)
        report = verify_assignment(lam, gy_source, out, 1)
        assert report.passed
        assert out.dim == 1
        done += 1


def test_lambda_functor_preserves_level_and_dim():
    rng = random.Random(9)
    done = 0
    while done < 10:
        template = random_faithful_template(rng)
        X = RelStructure(
            template.tau,
            [f"x{i}" for i in range(2)],
            {
                name: {tuple("x0" for _ in range(arity))}
                for name, arity in template.tau.symbols
            },
        )
        Y, f = structure_with_hom_from(rng, X, 2)
        lift = lift_classical(f)
        out = lambda_functor(template, X, Y, lift, 1)
        lam_x = left_apply(template, X)
        lam_y = left_apply(template, Y)
        report = verify_assignment(lam_x, lam_y, out, 1)
        assert report.passed and out.dim == 1
        done += 1


def test_gamma_functor_line_digraph_classical():
    """The functor action on a classical colouring matches the direct
    classical construction edge-for-edge."""
    X = digraph([("a", "b"), ("b", "c"), ("c", "a"), ("b", "d")])
    K4 = clique(4)
    f = find_homomorphism(X, K4)
    out = gamma_functor(linedigraph_template(), X, K4, lift_classical(f), 1)
    dx = line_digraph(X)
    dk4 = line_digraph(K4)
    assert verify_assignment(dx, dk4, out, 1).passed
    # the induced classical map sends an edge to its image edge
    for (u, v) in dx.domain:
        label = next(iter(out.pvms[(u, v)]))
        assert label == (f[u], f[v])


# -- the Gamma functor against the quotient-building reference ---------------

HALF = Fraction(1, 2)
STANDARD = (PMatrix.from_rows([[1, 0], [0, 0]]), PMatrix.from_rows([[0, 0], [0, 1]]))
HADAMARD = (
    PMatrix.from_rows([[HALF, HALF], [HALF, HALF]]),
    PMatrix.from_rows([[HALF, -HALF], [-HALF, HALF]]),
)


def _dim2_assignment(rng, X, Y, bases) -> QuantumAssignment:
    """Each vertex splits the plane over two labels in one of `bases`, or
    puts the identity on one label; vertices split in different bases give
    non-commuting copy projectors."""
    pvms = {}
    for x in X.domain:
        if rng.random() < 0.25:
            pvms[x] = {rng.choice(Y.domain): PMatrix.identity(2)}
        else:
            p, q = rng.choice(bases)
            y0, y1 = rng.sample(Y.domain, 2)
            pvms[x] = {y0: p, y1: q}
    return QuantumAssignment(2, 4, pvms)


def _outcome(functor, *args, **kwargs):
    """The output as ordered (vertex, ordered family) pairs with dim and k,
    or the type of the exception raised."""
    try:
        out = functor(*args, **kwargs)
    except Exception as exc:  # compared by type across the two paths
        return type(exc)
    return out.dim, out.k, [(v, list(fam.items())) for v, fam in out.pvms.items()]


def _wrong_witness_at(vertex):
    """Gadget witnesses that are right except in the column of one gadget
    vertex, where each names another vertex of X."""
    real = pultr._gadget_witnesses

    def witnesses(template, name, hts, X, plan, at=None):
        columns = list(real(template, name, hts, X, plan, at))
        at = template.B[name].index(vertex)
        columns[at] = [next(v for v in X.domain if v != y) for y in columns[at]]
        return columns

    return witnesses


def _view(signature: Signature, name: str, domain, blocks: list) -> RelStructure:
    """A structure over the binary symbol `name` with the block view
    `blocks`: its relation is the union of the copies' images, its domain
    `domain` followed by the copy vertices outside it."""
    images = {tuple(m[g.index(v)] for v in t) for g, maps in blocks for m in maps for t in g.relations[name]}
    dom = dict.fromkeys(domain)
    dom.update(dict.fromkeys(v for _, maps in blocks for m in maps for v in m))
    return RelStructure._trusted(signature, tuple(dom), {name: images}, blocks)


def _product_gadget(signature: Signature, name: str, p: int, q: int, extra=()) -> RelStructure:
    """The complete bipartite digraph from 0..p-1 to p..p+q-1, plus the
    arcs `extra` between its vertices."""
    return RelStructure(signature, range(p + q), {name: [(i, j) for i in range(p) for j in range(p, p + q)] + list(extra)})


def _corrupted_line_views(rng, X: RelStructure) -> list:
    """(kind, view): the line digraph of X with one copy changed, view and
    relation alike.  "two-heads" swaps an in-arc of a copy for an arc that
    ends elsewhere; "not-an-arc" swaps an in-arc for a pair that is not an
    arc of X, over X's vertices or not; "loop" merges a copy's last in-arc
    with its first out-arc into one vertex on both sides; "isolated" drops a
    copy, leaving its vertices in no tuple; "non-product" adds an arc from
    an out-arc back to an in-arc, so the gadget is no longer P x Q."""
    lx = line_digraph(X)
    found = [(gadget, m) for gadget, maps in lx._blocks for m in maps]
    if not found:
        return []
    gadget, m = rng.choice(found)
    sig, p, b = lx.signature, len(product_sides(gadget, "E")[0]), m[0][1]
    q = len(m) - p
    changed = []  # (kind, the changed copy as a block, or None)
    elsewhere = [e for e in X.ordered("E") if e[1] != b]
    if elsewhere:
        i = rng.randrange(p)
        changed.append(("two-heads", (gadget, m[:i] + (rng.choice(elsewhere),) + m[i + 1 :])))
    non_arcs = [(u, b) for u in X.domain if (u, b) not in X.relations["E"]] + [("zz", b)]
    i = rng.randrange(p)
    changed.append(("not-an-arc", (gadget, m[:i] + (rng.choice(non_arcs),) + m[i + 1 :])))
    merged = RelStructure(sig, range(p + q - 1), {"E": [(i, j) for i in range(p) for j in range(p - 1, p + q - 1)]})
    changed.append(("loop", (merged, m[:p] + m[p + 1 :])))
    changed.append(("isolated", None))
    changed.append(("non-product", (_product_gadget(sig, "E", p, q, [(p, 0)]), m)))
    rest = [(g, [c for c in maps if c is not m]) for g, maps in lx._blocks]
    return [
        (kind, _view(sig, "E", lx.domain, rest + ([(block[0], [block[1]])] if block else [])))
        for kind, block in changed
    ]


def _first_gluing_failure(template: PultrTemplate, gx: RelStructure, X: RelStructure):
    """The type and message of the reference witness of the first tuple of
    gx, in canonical order, that has none; None if every tuple has one."""
    plan = pultr._gluing_plan(template, "E", {a: i for i, a in enumerate(template.A.domain)})
    for ht in gx.ordered("E"):
        failure = _witness_outcome(reference_gadget_witness, template, "E", ht, X, plan)
        if isinstance(failure, tuple):
            return failure
    return None


def test_gamma_functor_matches_reference(monkeypatch):
    """Same PVMs, dim and k, or the same exception type, as the reference
    that builds Lambda Gamma X; passing gamma_x = line_digraph(X) changes
    nothing; a witness wrong at one gadget vertex raises on both paths.
    Views of the line digraph with one copy corrupted (`_corrupted_line_views`)
    give the same output, or the same exception and message, checked per
    copy as read without the view; a corrupted view raises the error of the
    first tuple in canonical order that has no witness."""
    template = linedigraph_template()
    targets = [clique(3), clique(4), line_digraph(clique(4))]
    rng = random.Random(23)
    kinds = set()
    views = set()
    seen_loop = seen_isolated = False
    for case in range(150):
        X = random_digraph(rng, 5, 8)
        if rng.random() < 0.4:
            X = RelStructure(GRAPH_SIGNATURE, X.domain + ("iso",), X.relations)
        Y = targets[case % 3]
        if case % 2 == 0:
            f = find_homomorphism(X, Y) or {x: rng.choice(Y.domain) for x in X.domain}
            assignment = lift_classical(f)
        else:
            bases = [STANDARD] if rng.random() < 0.5 else [STANDARD, HADAMARD]
            assignment = _dim2_assignment(rng, X, Y, bases)
        k = rng.randint(0, 2)
        expected = _outcome(reference_gamma_functor, template, X, Y, assignment, k)
        assert _outcome(gamma_functor, template, X, Y, assignment, k) == expected
        given = _outcome(gamma_functor, template, X, Y, assignment, k, gamma_x=line_digraph(X))
        assert given == expected
        kinds.add(expected if isinstance(expected, type) else ("dim", expected[0]))
        for kind, view in _corrupted_line_views(rng, X):
            got = _lambda_outcome(gamma_functor, template, X, Y, assignment, k, gamma_x=view)
            assert got == _lambda_outcome(gamma_functor, template, X, Y, assignment, k, gamma_x=without_view(view))
            first = _first_gluing_failure(template, view, X)
            assert first is None or got == first
            views.add((kind, first[1].split(" ")[0] if first else "glued"))
        seen_loop |= any(a == b for a, b in X.relations["E"])
        seen_isolated |= "iso" in X.domain
        if len(X.domain) > 1 and line_digraph(X).relations["E"]:
            b = rng.choice(template.B["E"].domain)
            with monkeypatch.context() as patch:
                patch.setattr(pultr, "_gadget_witnesses", _wrong_witness_at(b))
                assert _outcome(reference_gamma_functor, template, X, Y, assignment, k) is (
                    WellDefinednessViolation
                )
                assert _outcome(gamma_functor, template, X, Y, assignment, k) is (
                    WellDefinednessViolation
                )
    assert kinds == {("dim", 1), ("dim", 2), CompatibilityTooLow}
    assert seen_loop and seen_isolated
    assert {kind for kind, _ in views} == {"two-heads", "not-an-arc", "loop", "isolated", "non-product"}
    assert {"glued", "incompatible", "no", "'zz'"} <= {how for _, how in views}


@pytest.mark.parametrize("vertex", ["b1", "b2", "b3"])
def test_gamma_functor_rejects_a_wrong_witness(monkeypatch, vertex):
    """b2 is glued by both eps maps, b1 only by the first, b3 only by the
    second; a witness wrong at any of them makes the counit ill-defined."""
    X = digraph([("a", "b"), ("b", "c"), ("c", "a")])
    lift = lift_classical(find_homomorphism(X, clique(3)))
    monkeypatch.setattr(pultr, "_gadget_witnesses", _wrong_witness_at(vertex))
    for functor in (reference_gamma_functor, gamma_functor):
        with pytest.raises(WellDefinednessViolation):
            functor(linedigraph_template(), X, clique(3), lift, 1)


def test_gamma_functor_names_the_first_tuple_in_canonical_order(monkeypatch):
    """A witness wrong on every tau-tuple of the 80 of Gamma K5: the error
    names the first one in the canonical tuple order, whatever the hash seed."""
    X = digraph([(f"v{i}", f"v{j}") for i in range(5) for j in range(5) if i != j])
    lift = lift_classical(find_homomorphism(X, clique(5)))
    first = line_digraph(X).ordered("E")[0]
    monkeypatch.setattr(pultr, "_gadget_witnesses", _wrong_witness_at("b3"))
    with pytest.raises(WellDefinednessViolation, match=re.escape(f"tuple {first!r},")):
        gamma_functor(linedigraph_template(), X, clique(5), lift, 1)


def test_gamma_functor_rejects_a_disconnected_template_before_enumerating(monkeypatch):
    rho = GRAPH_SIGNATURE
    line = linedigraph_template()
    loose = RelStructure(rho, ["b1", "b2", "b3", "b4"], line.B["E"].relations)
    template = PultrTemplate(rho, rho, line.A, {"E": loose}, line.eps)
    assert not template_predicates(template).connected

    def unexpected(*args, **kwargs):
        raise AssertionError("central_apply ran before the connectivity check")

    monkeypatch.setattr(pultr, "central_apply", unexpected)
    X = digraph([("a", "b")])
    with pytest.raises(NotConnected):
        gamma_functor(template, X, X, lift_classical({v: v for v in X.domain}), 0)


# -- the faithful transfer and the left functor against their references ------


def _lambda_outcome(functor, *args, **kwargs):
    """Ordered (vertex, ordered family) pairs with dim and k, or the type
    and message of the exception raised."""
    try:
        out = functor(*args, **kwargs)
    except Exception as exc:  # compared by type and message across the two paths
        return type(exc), str(exc)
    return out.dim, out.k, [(v, list(fam.items())) for v, fam in out.pvms.items()]


def _random_tau_structure(rng, template, size):
    dom = [f"x{i}" for i in range(rng.randint(1, size))]
    return RelStructure(
        template.tau,
        dom,
        {
            name: {tuple(rng.choice(dom) for _ in range(arity)) for _ in range(rng.randint(0, 3))}
            for name, arity in template.tau.symbols
        },
    )


def _labelled_assignment(rng, template, X, Y, bases) -> QuantumAssignment:
    """Labels are maps A -> Y in A's domain order, homomorphisms or not, so
    the glued hom check filters; a vertex splits the plane over two labels
    in one of `bases`, keeps one of those halves only (not a PVM), or puts
    the identity on one label."""
    maps = list(itertools.product(Y.domain, repeat=len(template.A.domain)))
    pvms = {}
    for x in X.domain:
        roll = rng.random()
        if roll < 0.2 or len(maps) < 2:
            pvms[x] = {rng.choice(maps): PMatrix.identity(2)}
        else:
            p, q = rng.choice(bases)
            h0, h1 = rng.sample(maps, 2)
            pvms[x] = {h0: p} if roll < 0.3 else {h0: p, h1: q}
    return QuantumAssignment(2, 2, pvms)


def test_transfer_lambda_matches_reference():
    """Same ordered PVMs, or the same WellDefinednessViolation message, as the
    reference that sums each gadget tag over every glued label tuple; dim-2
    assignments in the standard basis or mixed with the Hadamard basis, on
    random faithful templates and on gadgets with edges across the copies."""
    rng = random.Random(41)
    kinds = set()
    for case in range(240):
        template = random_faithful_template(rng)
        if case % 3 == 2:
            # an edge from the first copy into the last makes the hom check bite
            name, arity = template.tau.symbols[0]
            bt = template.B[name]
            edge = (
                rng.choice([b for b in bt.domain if b[0] == 0]),
                rng.choice([b for b in bt.domain if b[0] == arity - 1]),
            )
            bt = RelStructure(bt.signature, bt.domain, {"E": set(bt.relations["E"]) | {edge}})
            template = PultrTemplate(template.rho, template.tau, template.A, {name: bt}, template.eps)
        X = _random_tau_structure(rng, template, 3)
        Y = random_digraph(rng, 3, 5)
        bases = [STANDARD] if case % 2 == 0 else [STANDARD, HADAMARD]
        assignment = _labelled_assignment(rng, template, X, Y, bases)
        expected = _lambda_outcome(reference_transfer_lambda, template, X, Y, assignment, 1)
        assert _lambda_outcome(transfer_lambda, template, X, Y, assignment, 1) == expected
        quotient = lambda_quotient(template, X)
        assert _lambda_outcome(transfer_lambda, template, X, Y, assignment, 1, quotient=quotient) == expected
        if isinstance(expected[0], type):
            kinds.add(expected[0].__name__)
        else:
            mats = [m for _, fam in expected[2] for _, m in fam]
            kinds.add("diagonal" if all(m.diag_support() is not None for m in mats) else "mixed")
    assert {"WellDefinednessViolation", "diagonal", "mixed"} <= kinds


def _arc_template() -> PultrTemplate:
    """A is one vertex and B_E one arc from its first copy to its second:
    faithful, and Lambda X is X with its vertices renamed."""
    rho = GRAPH_SIGNATURE
    A = RelStructure(rho, ["a"], {"E": []})
    B = RelStructure(rho, [(0, "a"), (1, "a")], {"E": [((0, "a"), (1, "a"))]})
    return PultrTemplate(rho, rho, A, {"E": B}, {"E": ({"a": (0, "a")}, {"a": (1, "a")})})


def test_transfer_lambda_names_the_first_class_not_the_first_bad_tag():
    """On x0 -> x1 and x2 -> x1 into the arc a -> b, x2 at b puts a nonzero
    product off the arc, so the copy over (x2, x1) disagrees with both x2
    and x1.  Its member in x2's class comes first in tag order, but x1's
    class comes first in class order: the error names x1's class and that
    class's first disagreeing member, a gadget tag, as the reference does.
    The classical case leaves both part sources of the copy empty."""
    template = _arc_template()
    X = digraph([("x0", "x1"), ("x2", "x1")])
    Y = digraph([("a", "b")])
    identity = PMatrix.identity(2)
    (h0, h1) = HADAMARD
    cases = [
        {"x0": {("a",): identity}, "x1": {("b",): identity}, "x2": {("b",): identity}},
        {"x0": {("a",): identity}, "x1": {("b",): identity}, "x2": {("b",): h0, ("a",): h1}},
    ]
    message = (
        "class ('A', 'x1', 'a'): members ('A', 'x1', 'a') and "
        "('B', 'E', ('x2', 'x1'), (1, 'a')) disagree"
    )
    for pvms in cases:
        assignment = QuantumAssignment(2, 1, pvms)
        expected = _lambda_outcome(reference_transfer_lambda, template, X, Y, assignment, 1)
        assert expected == (WellDefinednessViolation, message)
        assert _lambda_outcome(transfer_lambda, template, X, Y, assignment, 1) == expected


def test_transfer_lambda_reads_an_empty_part_source_as_empty_families():
    """A vertex with no labels leaves every part source of its copies
    empty, so each A index reads an empty family: the transfer goes through
    when the other end has no labels either, and otherwise names the other
    end's class, both as the reference does."""
    template = _arc_template()
    X = digraph([("x0", "x1")])
    Y = digraph([("a", "b")])
    identity = PMatrix.identity(2)
    empty = QuantumAssignment(2, 1, {"x0": {}, "x1": {}})
    expected = _lambda_outcome(reference_transfer_lambda, template, X, Y, empty, 1)
    assert expected[2] == [(("A", "x0", "a"), []), (("A", "x1", "a"), [])]
    assert _lambda_outcome(transfer_lambda, template, X, Y, empty, 1) == expected
    half = QuantumAssignment(2, 1, {"x0": {}, "x1": {("b",): identity}})
    expected = _lambda_outcome(reference_transfer_lambda, template, X, Y, half, 1)
    assert expected[0] is WellDefinednessViolation and "class ('A', 'x1', 'a')" in expected[1]
    assert _lambda_outcome(transfer_lambda, template, X, Y, half, 1) == expected


def test_left_apply_matches_reference():
    """Equal domains in order, equal relations, and the same iteration order
    of every relation, on random connected, faithful and edged templates."""
    rng = random.Random(43)
    for case in range(200):
        template = random_template(rng) if case % 2 else random_faithful_template(rng)
        X = _random_tau_structure(rng, template, 4)
        got = left_apply(template, X)
        want = reference_left_apply(template, X)
        assert got.domain == want.domain
        assert got.relations == want.relations
        assert all(list(got.relations[r]) == list(want.relations[r]) for r in got.relations)


def _glued_template(rng) -> PultrTemplate:
    """Every gadget vertex an eps image: copies of a random A over arity-1, 2
    and 3 symbols, glued at random vertex pairs."""
    rho = Signature((("U", 1), ("E", 2), ("R", 3)))
    A = random_structure(rng, rho, 3)
    arity = rng.randint(1, 3)
    copies = [[(i, a) for a in A.domain] for i in range(arity)]
    merged = {v: v for copy in copies for v in copy}
    for _ in range(rng.randint(0, 2)):
        kept, glued = rng.choice(rng.choice(copies)), rng.choice(rng.choice(copies))
        merged[glued] = merged[kept]
    maps = tuple({a: merged[(i, a)] for a in A.domain} for i in range(arity))
    relations = {
        name: {tuple(m[a] for a in t) for m in maps for t in A.relations[name]}
        for name, _ in rho.symbols
    }
    B = RelStructure(rho, [merged[v] for copy in copies for v in copy], relations)
    tau = Signature((("S", arity),))
    return PultrTemplate(rho, tau, A, {"S": B}, {"S": maps})


def _witness_outcome(witness, *args):
    try:
        return witness(*args)
    except Exception as exc:  # compared by type and message across the two paths
        return type(exc), str(exc)


def test_gadget_witness_matches_check_homomorphism_reference():
    """With every gadget vertex forced, the check read through the gluing
    plan gives the reference's witness or its exception, message and all:
    tuples that disagree on a glued vertex, unknown vertices, tuples outside
    X's relations, and a target over another signature."""
    rng = random.Random(51)
    kinds = set()
    for case in range(300):
        template = linedigraph_template() if case % 5 == 0 else _glued_template(rng)
        name = template.tau.symbols[0][0]
        X = random_structure(rng, template.rho, 4)
        if case % 7 == 0:
            other = Signature(tuple((n + "'", ar) for n, ar in template.rho.symbols))
            X = RelStructure(other, X.domain, {n + "'": ts for n, ts in X.relations.items()})
        plan = pultr._gluing_plan(template, name, {a: i for i, a in enumerate(template.A.domain)})
        assert not plan[2]
        bt = template.B[name]
        for _ in range(8):
            g = {b: rng.choice(X.domain + ("unknown",) * (rng.random() < 0.2)) for b in bt.domain}
            ht = [[g[m[a]] for a in template.A.domain] for m in template.eps[name]]
            if rng.random() < 0.2:
                row = rng.choice(ht)
                row[rng.randrange(len(row))] = rng.choice(X.domain)
            ht = tuple(map(tuple, ht))
            expected = _witness_outcome(reference_gadget_witness, template, name, ht, X, plan)
            assert _witness_outcome(_witness, template, name, ht, X, plan) == expected
            kinds.add("witness" if isinstance(expected, dict) else expected[1].split(" ")[0])
    assert kinds == {"witness", "incompatible", "'unknown'", "no", "structures"}


def _free_template() -> PultrTemplate:
    """b3 hangs off the single eps image, so it is found by search."""
    rho = GRAPH_SIGNATURE
    A = RelStructure(rho, ["a1", "a2"], {"E": [("a1", "a2")]})
    B = RelStructure(rho, ["b1", "b2", "b3"], {"E": [("b1", "b2"), ("b2", "b3")]})
    eps = {"S": ({"a1": "b1", "a2": "b2"},)}
    return PultrTemplate(rho, Signature((("S", 1),)), A, {"S": B}, eps)


def test_gadget_witnesses_match_the_reference_tuple_by_tuple():
    """Lists of tau-tuples of Gamma X with bad tuples mixed in after the
    first: the same columns as the reference run tuple by tuple, or its
    exception and message, which the first failing tuple decides; bad
    tuples disagree on a glued vertex, name an unknown vertex, or map a
    gadget tuple outside X, and some targets have another signature."""
    reference = _tuple_by_tuple(reference_gadget_witness)
    fixed = [linedigraph_template(), _free_template()]
    rng = random.Random(57)
    kinds = set()
    late = 0
    for case in range(300):
        template = fixed[case % 5] if case % 5 < 2 else _glued_template(rng)
        name = template.tau.symbols[0][0]
        X = random_structure(rng, template.rho, 4)
        good = list(central_apply(template, X).ordered(name))
        plan = pultr._gluing_plan(template, name, {a: i for i, a in enumerate(template.A.domain)})
        bt = template.B[name]
        hts = rng.sample(good, min(len(good), rng.randint(1, 6)))
        for _ in range(rng.randint(0, 2)):
            g = {b: rng.choice(X.domain + ("unknown",) * (rng.random() < 0.2)) for b in bt.domain}
            ht = [[g[m[a]] for a in template.A.domain] for m in template.eps[name]]
            if rng.random() < 0.3:
                row = rng.choice(ht)
                row[rng.randrange(len(row))] = rng.choice(X.domain)
            hts.insert(rng.randint(min(1, len(hts)), len(hts)), tuple(map(tuple, ht)))
        if case % 7 == 0:
            other = Signature(tuple((n + "'", ar) for n, ar in template.rho.symbols))
            X = RelStructure(other, X.domain, {n + "'": ts for n, ts in X.relations.items()})
        expected = _witness_outcome(reference, template, name, hts, X, plan)
        assert _witness_outcome(pultr._gadget_witnesses, template, name, hts, X, plan) == expected
        if isinstance(expected, list):
            kinds.add("witnesses" if hts else "empty")
        else:
            kinds.add(expected[1].split(" ")[0])
            late += _witness_outcome(reference, template, name, hts[:1], X, plan) != expected
    assert kinds == {"witnesses", "empty", "incompatible", "'unknown'", "no", "structures"}
    assert late > 20


def _binary_templates() -> list:
    """Templates over one binary tau symbol that the per-copy check does
    not decide: a line-digraph gadget with an arc from b1 to b3, which lies
    inside no eps image, and one with the free vertex b3."""
    line = linedigraph_template()
    rho = line.rho
    crossing = RelStructure(rho, line.B["E"].domain, {"E": [*line.B["E"].relations["E"], ("b1", "b3")]})
    free = RelStructure(rho, ["b1", "b2", "b3", "b4", "b5"], {"E": [("b1", "b2"), ("b2", "b3"), ("b4", "b5")]})
    maps = ({"a1": "b1", "a2": "b2"}, {"a1": "b4", "a2": "b5"})
    return [
        PultrTemplate(rho, rho, line.A, {"E": crossing}, line.eps),
        PultrTemplate(rho, Signature((("S", 2),)), line.A, {"S": free}, {"S": maps}),
    ]


def test_copies_glue_decides_like_the_column_pass():
    """Views of complete bipartite copies over vertices of Gamma X and
    random A-maps: the line digraph's own copies, stars of tau-tuples around
    a head or a tail, random products, copies without tuples.  When every
    gadget tuple lies inside one eps image, no gadget vertex is free and
    the signatures match, the per-copy check holds exactly when the column
    pass over all tuples finds every witness; otherwise it leaves the
    decision to the column pass."""
    rng = random.Random(59)
    fixed = [linedigraph_template(), *_binary_templates()]
    seen = set()
    for case in range(400):
        template = fixed[case % 6] if case % 6 < 3 else _glued_template(rng)
        name, arity = template.tau.symbols[0]
        if arity != 2:
            continue
        X = random_structure(rng, template.rho, 4)
        gamma = central_apply(template, X)
        good = gamma.ordered(name)
        blocks = list(line_digraph(X)._blocks) if name == "E" and case % 6 == 0 else []
        stars: dict = {}
        for ht in good:
            side = rng.randrange(2)
            stars.setdefault((side, ht[side]), []).append(ht[1 - side])
        copies = [([v], vs) if side == 0 else (vs, [v]) for (side, v), vs in stars.items()]
        pool = list(gamma.domain) + [tuple(rng.choice(X.domain + ("unknown",)) for _ in template.A.domain)]
        for _ in range(rng.randint(0, 2)):
            copies.append((rng.choices(pool, k=rng.randint(1, 2)), rng.choices(pool, k=rng.randint(1, 2))))
        sig = template.tau
        for ps, qs in copies:
            blocks.append((_product_gadget(sig, name, len(ps), len(qs)), [(*ps, *qs)]))
        if rng.random() < 0.2:
            blocks.append((_product_gadget(sig, name, 0, 0), [()]))
        if case % 7 == 0:
            other = Signature(tuple((n + "'", ar) for n, ar in template.rho.symbols))
            X = RelStructure(other, X.domain, {n + "'": ts for n, ts in X.relations.items()})
        gx = _view(sig, name, gamma.domain, blocks)
        plan = pultr._gluing_plan(template, name, {a: i for i, a in enumerate(template.A.domain)})
        bt = template.B[name]
        images = [set(m.values()) for m in template.eps[name]]
        decided = X.signature == bt.signature and not plan[2] and all(
            any(set(t) <= image for image in images) for r in bt.signature.names() for t in bt.relations[r]
        )
        passes = isinstance(_witness_outcome(pultr._gadget_witnesses, template, name, gx.ordered(name), X, plan), list)
        assert pultr._copies_glue(template, name, gx, X, plan) == (decided and passes)
        seen.add((decided, passes))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_gamma_products_matches_reference():
    """Same products in the same order, as ordered items, or the same
    exception and message, which names the first vertex whose copy
    projectors do not commute, as the reference that scans all of gy per
    vertex: dim-2 families that share labels, copies that repeat a
    variable, and copy projectors in two bases that need not commute.  Then families whose
    projectors are equal but distinct objects, and label triples whose
    prefix products agree but whose last factors differ: each product is
    taken once per content of its two factors, so copies with equal factor
    sequences share their product objects."""
    rng = random.Random(52)
    kinds = set()
    for case in range(150):
        template = linedigraph_template() if case % 2 else random_template(rng)
        Y = random_digraph(rng, 4, 9)
        gy = central_apply(template, Y)
        X = random_digraph(rng, 4, 3)
        bases = [STANDARD] if rng.random() < 0.6 else [STANDARD, HADAMARD]
        assignment = _dim2_assignment(rng, X, Y, bases) if len(Y.domain) > 1 else lift_classical(
            {x: Y.domain[0] for x in X.domain}
        )
        copies = {x: [rng.choice(X.domain) for _ in template.A.domain] for x in X.domain}
        k = rng.randint(0, 2)
        args = (X, gy, assignment, k, copies.__getitem__)
        expected = _lambda_outcome(reference_gamma_products, *args)
        assert _lambda_outcome(pultr._gamma_products, *args) == expected
        if isinstance(expected[0], type):
            kinds.add(expected[0])
        else:  # whether some vertex has two products, whose order then shows
            kinds.add(max(len(fam) for _, fam in expected[2]) > 1)
    assert kinds == {True, False, CompatibilityTooLow}

    def fresh(basis: str) -> dict:  # new PMatrix objects on every call
        if basis == "I":
            return {"c": PMatrix.identity(2)}
        return {y: PMatrix(m.entries) for y, m in zip("ab", STANDARD if basis == "S" else HADAMARD)}

    assignment = QuantumAssignment(2, 4, {v: fresh(b) for v, b in enumerate("SSSSSSHHHII")})
    labels = list(itertools.product("abc", repeat=3))
    rng.shuffle(labels)
    gy = RelStructure(GRAPH_SIGNATURE, labels, {"E": []})
    copies = {"s": (0, 1, 2), "s'": (3, 4, 5), "h": (6, 7, 9), "h'": (8, 6, 10), "mixed": (0, 6, 2)}
    outcomes = []
    for xs in (["s", "mixed"], ["s", "s'", "h", "h'"]):
        args = (RelStructure(GRAPH_SIGNATURE, xs, {"E": []}), gy, assignment, 1, copies.__getitem__)
        outcomes.append(_lambda_outcome(pultr._gamma_products, *args))
        assert outcomes[-1] == _lambda_outcome(reference_gamma_products, *args)
    assert outcomes[0] == (CompatibilityTooLow, "copy projectors over 'mixed' do not commute; declared level 4 is insufficient")
    out = pultr._gamma_products(*args)
    assert [len(out.pvms[x]) for x in xs] == [2, 2, 2, 2]
    for x, twin in (("s", "s'"), ("h", "h'")):
        assert all(out.pvms[twin][h] is m for h, m in out.pvms[x].items())


def test_gamma_products_share_one_family_per_distinct_source_tuple():
    """Vertices whose copies read families with equal items, as one object
    or as equal ones, share one output family; a vertex that differs in any
    copy gets its own.  `renamed` keeps the sharing, and a constructed
    assignment shares one copy per family object given, never the caller's,
    and its family table lists those copies and each variable's index."""
    one, two = {"a": STANDARD[0], "b": STANDARD[1]}, {"a": STANDARD[1], "b": STANDARD[0]}
    equal = {"a": PMatrix(STANDARD[0].entries), "b": PMatrix(STANDARD[1].entries)}
    given = {"s": one, "s'": one, "t": equal, "h": two}
    assignment = QuantumAssignment(2, 4, given)
    assert assignment.pvms["s"] is assignment.pvms["s'"] is not one
    assert assignment.pvms["t"] is not assignment.pvms["s"] and assignment.pvms["t"] is not equal
    assert assignment.family_ids == [0, 0, 1, 2]
    assert [id(fam) for fam in assignment.families] == [id(assignment.pvms[x]) for x in ("s", "t", "h")]
    labels = list(itertools.product("ab", repeat=2))
    gy = RelStructure(GRAPH_SIGNATURE, labels, {"E": []})
    copies = {"x": ("s", "s"), "x'": ("s'", "t"), "y": ("s", "h"), "y'": ("t", "h"), "z": ("h", "s")}
    X = RelStructure(GRAPH_SIGNATURE, list(copies), {"E": []})
    out = pultr._gamma_products(X, gy, assignment, 1, copies.__getitem__)
    assert out.pvms["x"] is out.pvms["x'"] and out.pvms["y"] is out.pvms["y'"]
    assert len({id(out.pvms[x]) for x in ("x", "y", "z")}) == 3
    assert _lambda_outcome(pultr._gamma_products, X, gy, assignment, 1, copies.__getitem__) == _lambda_outcome(
        reference_gamma_products, X, gy, assignment, 1, copies.__getitem__
    )
    renamed = out.renamed({x: f"r{x}" for x in copies})
    assert renamed.pvms["rx"] is out.pvms["x"] is renamed.pvms["rx'"]
    assert renamed.pvms["ry"] is renamed.pvms["ry'"] is not renamed.pvms["rz"]
    assert renamed.families is out.families and renamed.family_ids is out.family_ids


def _copies_template(rng) -> PultrTemplate:
    """Disjoint eps-copies of a random A over arity-1, 2 and 3 symbols, one
    per position of a tau symbol of arity 1 to 3, plus random gadget tuples
    inside one copy (not faithful) or across copies (still faithful, with
    a second part pattern)."""
    rho = Signature((("U", 1), ("E", 2), ("R", 3)))
    A = random_structure(rng, rho, 3)
    maps = tuple({a: (i, a) for a in A.domain} for i in range(rng.randint(1, 3)))
    dom = [m[a] for m in maps for a in A.domain]
    relations = {
        name: {tuple(map(m.__getitem__, t)) for m in maps for t in A.relations[name]}
        for name in rho.names()
    }
    for _ in range(rng.randint(0, 3)):
        name, arity = rng.choice(rho.symbols)
        relations[name].add(tuple(rng.choice(dom) for _ in range(arity)))
    tau = Signature((("S", len(maps)),))
    return PultrTemplate(rho, tau, A, {"S": RelStructure(rho, dom, relations)}, {"S": maps})


def test_faithfulness_matches_the_per_tuple_reference():
    """The column passes of the faithfulness test agree with the per-tuple
    ones: the same verdict, or the same KeyError, on templates with symbols
    of arity 1, 2 and 3 holding no, one or several tuples, and on eps maps
    that miss an A-vertex."""
    rng = random.Random(61)
    makers = [_copies_template, _glued_template, random_template, random_faithful_template]
    verdicts = set()
    for case in range(400):
        template = makers[case % 4](rng)
        if case % 10 == 9 and template.A.domain:
            # a foreign key in place of an A-vertex keeps the image size
            m = rng.choice(template.eps["S"])
            m["foreign"] = m.pop(rng.choice(template.A.domain))
        faithful = _witness_outcome(pultr._is_faithful, template)
        assert faithful == _witness_outcome(reference_is_faithful, template)
        verdicts.add(faithful if isinstance(faithful, bool) else faithful[0])
    assert verdicts == {True, False, KeyError}
    # the eta templates, as built and with one gadget edge added inside one
    # eps image (not faithful) or across the two (still faithful)
    eta_verdicts = set()
    for template in _eta_templates():
        name = template.tau.names()[0]
        bt = template.B[name]
        for edge in [None, ((1, 0), (1, 1)), ((2, 1), (2, 1)), ((2, 0), (1, 0))]:
            if edge is None:
                t = template
            else:
                edges = bt.relations["E"] | {edge}
                t = dataclasses.replace(template, B={**template.B, name: RelStructure(bt.signature, bt.domain, {"E": edges})})
            faithful = pultr._is_faithful(t)
            assert faithful == reference_is_faithful(t)
            eta_verdicts.add(faithful)
    assert eta_verdicts == {True, False}


def _eta_templates() -> list:
    """The gadget templates of two small 2-to-2 instances: one symbol over
    a two-letter alphabet, and two symbols over four letters."""
    full = {(a, b) for a in range(2) for b in range(2)}
    same_half = {(a, b) for a in range(4) for b in range(4) if a // 2 == b // 2}
    parity_half = {(a, b) for a in range(4) for b in range(4) if a % 2 == b // 2}
    instances = [
        CspInstance(["x", "y"], range(2), [(("x", "y"), full)]),
        CspInstance(["x", "y", "z"], range(4), [(("x", "y"), same_half), (("y", "z"), parity_half)]),
    ]
    return [eta_context(inst).template for inst in instances]


def _assert_same_quotient(got, want):
    """Equal tags, tag ids, class ids and class names, the dicts in the
    same order, and the same classes with their members in tag order."""
    assert got.tags == want.tags
    assert list(got.tag_ids.items()) == list(want.tag_ids.items())
    assert got.class_of_id == want.class_of_id
    assert list(got.class_name.items()) == list(want.class_name.items())
    assert list(quotient_classes(got).items()) == list(quotient_classes(want).items())


def test_closed_form_quotient_matches_union_find_reference():
    """Where the eps maps partition every gadget, the quotient read off
    `eps_parts` equals the union-find's: on random faithful templates, on
    disjoint copies with extra gadget tuples, and on the eta templates over
    scopes with repeated entries and a scope under two symbols.  Templates
    whose eps maps glue copies together (random glued templates) have no
    table and take the union-find, with the same result."""
    rng = random.Random(131)
    paths = set()
    makers = [random_faithful_template, _copies_template, random_template, _glued_template]
    for case in range(200):
        template = makers[case % 4](rng)
        X = _random_tau_structure(rng, template, 4)
        _assert_same_quotient(lambda_quotient(template, X), reference_lambda_quotient(template, X))
        paths.add(template.eps_parts is not None)
    assert paths == {True, False}
    for template in _eta_templates():
        first, *others = template.tau.names()
        scopes = {first: [("x", "x"), ("x", "y"), ("z", "x")]}
        for other in others:
            scopes[other] = [("x", "y"), ("y", "y")]  # ("x", "y") under both symbols
        X = RelStructure(template.tau, ["x", "y", "z", "w"], scopes)
        assert template.eps_parts is not None
        _assert_same_quotient(lambda_quotient(template, X), reference_lambda_quotient(template, X))


def test_linedigraph_template_keeps_the_union_find():
    """eps_1(a2) = eps_2(a1) = b2 in the line-digraph template, so it has
    no inverse table, and its quotient, gluing consecutive arcs, is the
    union-find's."""
    template = linedigraph_template()
    assert template.eps_parts is None
    rng = random.Random(137)
    for _ in range(20):
        X = random_digraph(rng, 5, 7)
        _assert_same_quotient(lambda_quotient(template, X), reference_lambda_quotient(template, X))


def test_eps_parts_inverts_the_eps_maps_exactly_when_they_partition():
    """b -> (i, A-index of a) for eps_i(a) = b, on every gadget vertex; None
    when an eps map is not injective, two images meet, the images miss a
    gadget vertex, or an eps map's keys are not A's domain."""
    rng = random.Random(139)
    for _ in range(50):
        template = random_faithful_template(rng)
        table = template.eps_parts
        for name in template.tau.names():
            assert set(table[name]) == set(template.B[name].domain)
            for i, m in enumerate(template.eps[name]):
                for ai, a in enumerate(template.A.domain):
                    assert table[name][m[a]] == (i, ai)
    A = RelStructure(GRAPH_SIGNATURE, ["a", "b"], {})
    B = RelStructure(GRAPH_SIGNATURE, [0, 1, 2, 3], {})
    sig = Signature((("S", 2),))

    def parts(*maps, B=B):
        return PultrTemplate(GRAPH_SIGNATURE, sig, A, {"S": B}, {"S": maps}).eps_parts

    assert parts({"a": 0, "b": 1}, {"a": 2, "b": 3}) == {"S": {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}}
    assert parts({"a": 0, "b": 0}, {"a": 2, "b": 3}) is None  # not injective
    assert parts({"a": 0, "b": 1}, {"a": 1, "b": 2}) is None  # images meet
    assert parts({"a": 0, "b": 1}, {"a": 2, "b": 3}, B=RelStructure(GRAPH_SIGNATURE, range(5), {})) is None
    assert parts({"a": 0, "b": 1, "c": 4}, {"a": 2, "b": 3}, B=RelStructure(GRAPH_SIGNATURE, range(5), {})) is None


# -- the block view of the left functor ------------------------------------------


def _edged_template(rng) -> PultrTemplate:
    """Disjoint copies of an edgeless A, one per place of one or two tau
    symbols, with random gadget edges inside and across the copies: the
    copies of B_T are the only edges of Lambda X, disjoint or not."""
    rho = GRAPH_SIGNATURE
    A = RelStructure(rho, [f"a{i}" for i in range(rng.randint(1, 3))], {})
    tau = Signature(tuple((name, rng.randint(1, 2)) for name in ["S", "T"][: rng.randint(1, 2)]))
    gadgets, eps = {}, {}
    for name, arity in tau.symbols:
        dom = [(i, a) for i in range(arity) for a in A.domain]
        edges = {(rng.choice(dom), rng.choice(dom)) for _ in range(rng.randint(1, 4))}
        gadgets[name] = RelStructure(rho, dom, {"E": edges})
        eps[name] = tuple({a: (i, a) for a in A.domain} for i in range(arity))
    return PultrTemplate(rho, tau, A, gadgets, eps)


def test_left_apply_block_view_is_its_copies_and_unions_to_the_relations():
    """One list of groups, one for A and one per tau symbol, holding the
    gadgets themselves and one map per vertex or tau-tuple; per symbol their
    images union to the relation, and they overlap where a copy of B_T repeats a copy of A
    or two copies meet."""
    rng = random.Random(71)
    makers = [random_template, random_faithful_template, _edged_template]
    overlaps = set()
    for case in range(240):
        template = makers[case % 3](rng)
        X = _random_tau_structure(rng, template, 4)
        lam = left_apply(template, X)
        gadgets = [template.A] + [template.B[t] for t in template.tau.names()]
        groups = lam._blocks
        assert all(g is want for (g, _), want in zip(groups, gadgets)) and len(groups) == len(gadgets)
        assert [len(maps) for _, maps in groups] == [len(X.domain)] + [
            len(X.relations[t]) for t in template.tau.names()
        ]
        for rname in template.rho.names():
            images = block_images(lam, rname)
            assert set(images) == lam.relations[rname]
            overlaps.add(len(images) > len(lam.relations[rname]))
    assert overlaps == {True, False}


def _unit_labelled_assignment(rng, template, X, Z, lam, bases) -> QuantumAssignment:
    """Labels are mostly the copies of A over the vertices of Z in
    lam = Lambda Z, whose glued maps are copies of B_T in lam's view, and
    sometimes arbitrary maps A -> lam; families as in _labelled_assignment."""
    q = lambda_quotient(template, Z)
    units = [tuple(q.cls(("A", z, a)) for a in template.A.domain) for z in Z.domain]
    others = [tuple(rng.choice(lam.domain) for _ in template.A.domain) for _ in range(2)]
    pool = units * 3 + others
    pvms = {}
    for x in X.domain:
        roll = rng.random()
        if roll < 0.2 or len(set(pool)) < 2:
            pvms[x] = {rng.choice(pool): PMatrix.identity(2)}
        else:
            p, q_ = rng.choice(bases)
            h0, h1 = rng.sample(sorted(set(pool)), 2)
            pvms[x] = {h0: p} if roll < 0.3 else {h0: p, h1: q_}
    return QuantumAssignment(2, 2, pvms)


def test_transfer_lambda_same_on_a_viewed_and_a_rebuilt_target():
    """The same ordered PVMs or the same error on Lambda Z with its block
    view and on Lambda Z rebuilt without one.  The transfer's gadget may
    carry an edge across its copies that the gadget Lambda Z was glued from
    lacks: the view's copies are then of another gadget under the same
    symbol name and vertex names, and must not be taken as copies of it."""
    rng = random.Random(73)
    kinds = set()
    for case in range(240):
        base = random_faithful_template(rng)
        name, arity = base.tau.symbols[0]
        template = base
        if arity == 2 and case % 2:
            bt = base.B[name]
            edge = (
                rng.choice([b for b in bt.domain if b[0] == 0]),
                rng.choice([b for b in bt.domain if b[0] == 1]),
            )
            bt = RelStructure(bt.signature, bt.domain, {"E": set(bt.relations["E"]) | {edge}})
            template = PultrTemplate(base.rho, base.tau, base.A, {name: bt}, base.eps)
        glued_from = base if case % 4 < 2 else template
        Z = _random_tau_structure(rng, base, 3)
        lam = left_apply(glued_from, Z)
        X = _random_tau_structure(rng, template, 3)
        bases = [STANDARD] if case % 3 == 0 else [STANDARD, HADAMARD]
        assignment = _unit_labelled_assignment(rng, glued_from, X, Z, lam, bases)
        got = _lambda_outcome(transfer_lambda, template, X, lam, assignment, 1)
        assert got == _lambda_outcome(transfer_lambda, template, X, without_view(lam), assignment, 1)
        if isinstance(got[0], type):
            kinds.add(got[0].__name__)
        else:
            kinds.add("other gadget" if glued_from is not template else "same gadget")
    assert kinds == {"WellDefinednessViolation", "other gadget", "same gadget"}


def test_verify_assignment_same_with_and_without_the_left_functor_view():
    """Equal reports, witnesses and counts included, on Lambda Z with its
    block view and rebuilt without one: perfect dim-2 assignments split over
    two homomorphisms into a 3-vertex target, and the same with one
    projector turned into a non-diagonal one, at witness caps 1 and 25."""
    rng = random.Random(79)
    seen = set()
    for case in range(240):
        template = [random_template, _edged_template][case % 2](rng)
        Z = _random_tau_structure(rng, template, 4)
        lam = left_apply(template, Z)
        f, g = ({v: rng.choice("abc") for v in lam.domain} for _ in range(2))
        edges = {(h[u], h[v]) for h in (f, g) for u, v in lam.relations["E"]}
        Y = RelStructure(GRAPH_SIGNATURE, "abc", {"E": edges})
        p, q = rng.choice([STANDARD, HADAMARD])
        pvms = {x: {f[x]: p, g[x]: q} if f[x] != g[x] else {f[x]: p + q} for x in lam.domain}
        if case % 3:
            x = rng.choice(lam.domain)
            pvms[x] = dict(pvms[x])
            pvms[x][rng.choice(sorted(pvms[x]))] = HADAMARD[rng.randint(0, 1)]
        assignment = QuantumAssignment(2, 0, pvms)
        cap, k = rng.choice([1, 25]), rng.randint(0, 1)
        got = verify_assignment(lam, Y, assignment, k, max_witnesses=cap)
        assert got == verify_assignment(without_view(lam), Y, assignment, k, max_witnesses=cap)
        disjoint = len(block_images(lam, "E")) == len(lam.relations["E"])
        seen.add(("disjoint" if disjoint else "overlapping", "perfect" if got.perfect else "not perfect"))
    assert seen == {(a, b) for a in ("disjoint", "overlapping") for b in ("perfect", "not perfect")}


def test_quotient_classes_are_in_tag_order():
    template = random_faithful_template(random.Random(83))
    X = _random_tau_structure(random.Random(89), template, 4)
    q = lambda_quotient(template, X)
    classes = quotient_classes(q)
    fresh: dict = {}
    for tag in q.tags:
        fresh.setdefault(q.cls(tag), []).append(tag)
    assert list(classes.items()) == list(fresh.items())


# -- relations built on first read -------------------------------------------------


def _unbuilt(X: RelStructure) -> bool:
    """Whether X's relations are deferred and not yet read."""
    return getattr(X, "_build", None) is not None


def test_left_apply_defers_its_relations_and_reads_like_an_eager_structure():
    """Each reader, run first on a fresh Lambda X, gives what it gives on the
    same structure rebuilt by the public constructor: equality, repr, the
    canonical tuple lists, the tuples in any order, the Gaifman adjacency,
    the support index and the serialised form.  The builder runs once, on
    the first read of `relations`, whose every later read is that object."""
    rng = random.Random(107)
    readers = [
        repr,
        lambda s: [s.ordered(r) for r in s.signature.names()],
        lambda s: [sorted(s.scan(r), key=repr) for r in s.signature.names()],
        lambda s: list(s.all_tuples()),
        lambda s: s.gaifman_adjacency(),
        lambda s: [s.supports(r) for r in s.signature.names()],
        serialize.structure_to_dict,
    ]
    makers = [random_template, random_faithful_template, _glued_template]
    for case in range(60):
        template = makers[case % 3](rng)
        X = _random_tau_structure(rng, template, 4)
        eager = without_view(left_apply(template, X))
        for read in readers:
            lam = left_apply(template, X)
            assert _unbuilt(lam) and lam._blocks is not None
            got = read(lam)
            assert not _unbuilt(lam)
            assert got == read(eager)
        lam = left_apply(template, X)
        assert hash(lam) == hash(eager) and _unbuilt(lam)
        assert lam == eager and eager == lam and not _unbuilt(lam)
    calls = []

    def build():
        calls.append(1)
        return {"E": {("a", "b"), ("b", "a")}}

    X = RelStructure._trusted(GRAPH_SIGNATURE, ("a", "b"), build)
    assert not calls and X.domain == ("a", "b") and X.index("b") == 1
    relations = X.relations
    assert X.relations is relations and X.scan("E") is relations["E"] and len(calls) == 1
    assert X == digraph([("a", "b"), ("b", "a")])
    with pytest.raises(AttributeError):
        X.missing


def test_check_homomorphism_per_copy_matches_the_relations():
    """The verdict on Lambda X, read copy by copy from its block view, equals
    the verdict on Lambda X rebuilt without the view and on the reference
    left functor's structure, and the check leaves the relations unbuilt:
    for maps into targets that contain their image (homomorphisms), for
    those maps with one vertex moved, and for the homomorphisms the search
    finds into random targets; on templates whose copies overlap and whose
    gadgets have empty relations.  A partial map, an image outside the
    target and a target of another signature raise the same errors."""
    rng = random.Random(109)
    makers = [random_template, random_faithful_template, _glued_template, _edged_template]
    seen = set()
    errors = set()
    for case in range(320):
        template = makers[case % 4](rng)
        X = _random_tau_structure(rng, template, 4)
        ref, plain = reference_left_apply(template, X), without_view(left_apply(template, X))
        Y = random_structure(rng, template.rho, 3)
        g = {v: rng.choice(Y.domain) for v in ref.domain}
        covering = RelStructure(template.rho, Y.domain, {
            r: set(Y.relations[r]) | {tuple(map(g.__getitem__, t)) for t in ref.relations[r]}
            for r in template.rho.names()
        })
        moved = dict(g)
        if moved:
            moved[rng.choice(ref.domain)] = rng.choice(Y.domain)
        found = find_homomorphism(ref, Y)
        partial = {v: y for v, y in g.items() if v != rng.choice(ref.domain)}
        outside = {**g, rng.choice(ref.domain): "nowhere"} if g else g
        other = clique(2) if template.rho != GRAPH_SIGNATURE else RelStructure(Signature((("F", 2),)), ["a"], {})
        checks = [(g, covering), (moved, covering), (moved, Y), (partial, covering), (outside, covering), (g, other)]
        checks += [(found, Y)] if found is not None else []
        for f, target in checks:
            lam = left_apply(template, X)
            got = _witness_outcome(check_homomorphism, f, lam, target)
            assert _unbuilt(lam)
            assert got == _witness_outcome(check_homomorphism, f, ref, target)
            assert got == _witness_outcome(check_homomorphism, f, plain, target)
            if isinstance(got, tuple):
                errors.add(got[0])
                continue
            overlapping = any(len(block_images(lam, r)) > len(plain.relations[r]) for r in plain.signature.names())
            empty = any(not gadget.relations[r] for r in plain.signature.names() for gadget, _ in lam._blocks)
            seen.add((overlapping, empty, got))
    assert errors == {PartialMap, UnknownVertex, SignatureMismatch}
    assert seen == {(o, e, v) for o in (True, False) for e in (True, False) for v in (True, False)}, seen


def test_transfer_lambda_with_off_relation_products_matches_reference():
    """Inputs with nonzero products on glued labels outside Lambda Z, and
    inputs without: the same ordered PVMs or the same error as the
    reference on the reference left functor's structure.  Only a nonzero
    product on glued labels that are not a copy of B_T builds Lambda Z's
    relations."""
    rng = random.Random(113)
    kinds = set()
    for case in range(240):
        template = random_faithful_template(rng)
        Z = _random_tau_structure(rng, template, 3)
        lam = left_apply(template, Z)
        X = _random_tau_structure(rng, template, 3)
        bases = [STANDARD] if case % 3 == 0 else [STANDARD, HADAMARD]
        assignment = _unit_labelled_assignment(rng, template, X, Z, lam, bases)
        got = _lambda_outcome(transfer_lambda, template, X, lam, assignment, 1)
        built = not _unbuilt(lam)
        assert got == _lambda_outcome(reference_transfer_lambda, template, X, reference_left_apply(template, Z), assignment, 1)
        kinds.add((built, got[0].__name__ if isinstance(got[0], type) else "transferred"))
    assert kinds == {(b, k) for b in (True, False) for k in ("transferred", "WellDefinednessViolation")}, kinds
