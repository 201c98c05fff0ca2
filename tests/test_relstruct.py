import itertools
import random

import pytest

from chromagap import relstruct
from chromagap.colouring import line_digraph
from chromagap.relstruct import (
    ABOVE_CAP,
    GRAPH_SIGNATURE,
    PartialMap,
    RelStructure,
    SearchBudgetExceeded,
    Signature,
    SignatureMismatch,
    SizeBudgetExceeded,
    UnknownVertex,
    _search_homomorphisms,
    check_homomorphism,
    chromatic_number,
    clique,
    diameter_and_connectivity,
    digraph,
    enumerate_homomorphisms,
    find_homomorphism,
    gaifman_balls,
    gaifman_distance,
    independence_number,
    is_bipartite,
    relabel,
    symmetrize,
)
from helpers import (
    brute_force_all_homs,
    brute_force_hom_exists,
    cyclic_garbage_of,
    random_digraph,
    random_structure,
    reference_check_homomorphism,
    reference_tuple_check_homomorphism,
    reference_gaifman_adjacency,
    reference_gaifman_balls,
    reference_gaifman_distance,
    reference_relabel,
    reference_search_homomorphisms,
    run_under_hash_seeds,
    without_view,
)

C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])


def test_constructor_names_the_first_bad_tuple_in_the_order_given():
    """Several bad tuples: the error names the first in the order given,
    read from a list or from a one-pass generator; good input passes."""
    rows = [("a", "a"), ("a", "x3"), ("a",), ("x1", "a")]
    for given, first in ((rows, "x3"), ((t for t in rows), "x3"), (rows[::-1], "x1")):
        with pytest.raises(ValueError, match=f"tuple entry '{first}' not in domain"):
            RelStructure(GRAPH_SIGNATURE, ["a"], {"E": given})
    with pytest.raises(ValueError, match=r"tuple \('a',\) has wrong arity for 'E'"):
        RelStructure(GRAPH_SIGNATURE, ["a"], {"E": iter([("a", "a"), ("a",), ("a", "b")])})
    with pytest.raises(ValueError, match=r"relations for unknown symbols: \['F'\]"):
        RelStructure(GRAPH_SIGNATURE, ["a"], {"E": [("a", "a")], "F": []})
    X = RelStructure(GRAPH_SIGNATURE, ["a", "b"], {"E": (t for t in [("a", "b"), ("b", "b")])})
    assert X.relations["E"] == {("a", "b"), ("b", "b")}


def test_constructor_error_is_the_same_under_every_hash_seed():
    """Ten bad tuples: the one named is the first given, whatever the hash seed."""
    code = (
        "from chromagap.relstruct import GRAPH_SIGNATURE, RelStructure\n"
        "try:\n"
        "    RelStructure(GRAPH_SIGNATURE, ['a'], {'E': [('a', f'x{i}') for i in range(10)]})\n"
        "except ValueError as exc:\n"
        "    print(exc)"
    )
    assert run_under_hash_seeds(code, (1, 2, 3)) == ["tuple entry 'x0' not in domain\n"] * 3


def test_identity_is_homomorphism():
    K3 = clique(3)
    assert check_homomorphism({v: v for v in K3.domain}, K3, K3)


def test_constant_map_on_clique_rejected():
    K2 = clique(2)
    assert not check_homomorphism({v: K2.domain[0] for v in K2.domain}, K2, K2)


def test_partial_map_raises():
    K2 = clique(2)
    with pytest.raises(PartialMap):
        check_homomorphism({K2.domain[0]: K2.domain[0]}, K2, K2)


def test_signature_mismatch_raises():
    sig = RelStructure(GRAPH_SIGNATURE, ["a"], {"E": []})
    other = RelStructure(
        GRAPH_SIGNATURE.__class__((("F", 2),)), ["a"], {"F": []}
    )
    with pytest.raises(SignatureMismatch):
        check_homomorphism({"a": "a"}, sig, other)


def test_c5_to_k3_matches_brute_force():
    K3 = clique(3)
    witness = find_homomorphism(C5, K3)
    assert witness is not None
    assert check_homomorphism(witness, C5, K3)
    assert brute_force_hom_exists(C5, K3)


def test_c5_to_k2_none():
    K2 = clique(2)
    assert find_homomorphism(C5, K2) is None
    assert not brute_force_hom_exists(C5, K2)


def test_self_homomorphism_always_found():
    for seed in range(8):
        X = random_digraph(random.Random(seed))
        assert find_homomorphism(X, X) is not None


def test_enumeration_matches_brute_force():
    K3 = clique(3)
    ours = enumerate_homomorphisms(C5, K3)
    brute = brute_force_all_homs(C5, K3)
    assert len(ours) == len(brute)
    assert {tuple(sorted(h.items())) for h in ours} == {
        tuple(sorted(h.items())) for h in brute
    }


def test_enumeration_complete_under_double_propagation():
    """Regression: one assignment can forward-trim the same future variable
    through two constraints; a forward-order undo used to resurrect the
    intermediate candidate list and lose solutions."""
    A = RelStructure(
        GRAPH_SIGNATURE,
        ["a0", "a1", "a2"],
        {"E": [("a0", "a1"), ("a1", "a0"), ("a1", "a2")]},
    )
    Y = RelStructure(
        GRAPH_SIGNATURE,
        ["v0", "v1", "v2", "v3"],
        {"E": [("v2", "v0"), ("v2", "v2"), ("v3", "v0"), ("v3", "v1")]},
    )
    ours = enumerate_homomorphisms(A, Y)
    brute = brute_force_all_homs(A, Y)
    assert len(ours) == len(brute) == 2


def test_enumeration_complete_on_random_pairs():
    rng = random.Random(990)
    for _ in range(40):
        X = random_digraph(rng, 3, 4)
        Y = random_digraph(rng, 3, 5)
        ours = enumerate_homomorphisms(X, Y)
        brute = brute_force_all_homs(X, Y)
        assert {tuple(sorted(h.items())) for h in ours} == {
            tuple(sorted(h.items())) for h in brute
        }


def test_first_witness_is_lexicographically_least():
    K3 = clique(3)
    first = find_homomorphism(C5, K3)
    all_keys = sorted(
        tuple(h[v] for v in C5.domain) for h in brute_force_all_homs(C5, K3)
    )
    assert tuple(first[v] for v in C5.domain) == all_keys[0]


def test_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded):
        find_homomorphism(clique(5), clique(5), budget=3)


def test_one_size_budget_error_raised_by_every_builder():
    from chromagap import colouring, dkkms, dmr
    from chromagap.csp import CspInstance

    assert dmr.SizeBudgetExceeded is colouring.SizeBudgetExceeded is dkkms.SizeBudgetExceeded
    assert dmr.SizeBudgetExceeded is SizeBudgetExceeded
    full = {(a, b) for a in range(2) for b in range(2)}
    with pytest.raises(SizeBudgetExceeded):
        colouring.eta_context(CspInstance(["x", "y"], range(2), [(("x", "y"), full)]), budget=1)
    system = dkkms.XorSystem.from_equations([(("a", "b", "c"), 0), (("d", "e", "f"), 1)])
    with pytest.raises(SizeBudgetExceeded):
        dkkms.game_csp(system, 1, budget=1)
    pred = {("a0", "b0"), ("a1", "b0")}
    scopes = [(("p", "y"), pred), (("q", "y"), pred)]
    d_to_1 = CspInstance(["p", "q", "y"], ["a0", "a1", "b0"], scopes)
    with pytest.raises(SizeBudgetExceeded):
        dmr.left_regularize(d_to_1, 1, 1, budget=1)


def test_gaifman_distance_basics():
    path = digraph([("a", "b"), ("b", "c")])
    assert gaifman_distance(path, "a", "a") == 0
    assert gaifman_distance(path, "a", "c") == 2
    two = RelStructure(GRAPH_SIGNATURE, ["a", "b", "c", "d"], {"E": [("a", "b"), ("c", "d")]})
    assert gaifman_distance(two, "a", "c") == float("inf")


def test_gaifman_metric_triangle_inequality():
    rng = random.Random(5)
    for _ in range(10):
        X = random_digraph(rng, 5, 7)
        for u in X.domain:
            for v in X.domain:
                for w in X.domain:
                    duv = gaifman_distance(X, u, v)
                    dvw = gaifman_distance(X, v, w)
                    duw = gaifman_distance(X, u, w)
                    assert duw <= duv + dvw


def test_gaifman_distance_matches_reference():
    rng = random.Random(6)
    for _ in range(40):
        X = random_digraph(rng, 6, 6)
        for u in X.domain:
            for v in X.domain:
                assert gaifman_distance(X, u, v) == reference_gaifman_distance(X, u, v)


def test_gaifman_balls_match_reference():
    """Random structures over arity-1, 2 and 3 symbols, and sparse digraphs
    with long paths, with loops, isolated vertices and several components,
    at radii 0 to 4."""
    rng = random.Random(9)
    sig = Signature((("U", 1), ("E", 2), ("T", 3)))
    kinds = {"loop": 0, "isolated": 0, "components": 0, "grows at 4": 0}
    for trial in range(300):
        X = random_structure(rng, sig, max_vertices=9) if trial % 3 else random_digraph(rng, 14, 14)
        adj = X.gaifman_adjacency()
        kinds["loop"] += any(len(set(t)) < len(t) for _, t in X.all_tuples())
        kinds["isolated"] += any(not adj[v] for v in X.domain)
        kinds["components"] += not diameter_and_connectivity(X)[0]
        balls = [gaifman_balls(X, radius) for radius in range(5)]
        for radius, got in enumerate(balls):
            assert got == reference_gaifman_balls(X, radius)
            assert list(got) == list(X.domain)
        kinds["grows at 4"] += balls[4] != balls[3]
    assert min(kinds.values()) >= 20, kinds


def _two_sided_digraph(rng: random.Random, n: int, inside: int) -> RelStructure:
    """2n tuple-named vertices in shuffled domain order, 2n to 3n random
    arcs across the two sides in either orientation, and `inside` arcs
    within a side."""
    dom = [(side, (i, "v")) for i in range(n) for side in (0, 1)]
    rng.shuffle(dom)
    edges = []
    for _ in range(rng.randint(2 * n, 3 * n)):
        a, b = (0, (rng.randrange(n), "v")), (1, (rng.randrange(n), "v"))
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    for _ in range(inside):
        side = rng.randrange(2)
        edges.append(((side, (rng.randrange(n), "v")), (side, (rng.randrange(n), "v"))))
    return RelStructure(GRAPH_SIGNATURE, dom, {"E": edges})


def _unexpected_sort(*args, **kwargs):
    raise AssertionError("sorted called")


def _k2_search(G: RelStructure) -> bool:
    """Whether symmetrize(G) -> K2 exists, by the homomorphism search with
    vertices in BFS order and the first vertex of each component fixed (K2
    swaps its two colours), so that large graphs need no backtracking."""
    adj = reference_gaifman_adjacency(G)
    order: dict = {}
    roots = {}
    for v in G.domain:
        if v not in order:
            roots[v] = "k0"
            queue = [v]
            order[v] = None
            for w in queue:
                fresh = [u for u in adj[w] if u not in order]
                order.update(dict.fromkeys(fresh))
                queue.extend(fresh)
    search = _search_homomorphisms(symmetrize(G), clique(2), order=list(order), fixed=roots, limit=1)
    return next(search, None) is not None


def test_is_bipartite_matches_k2_search():
    """Random digraphs with loops, isolated vertices and several components
    against the homomorphism search to K2 of their symmetrisation; then
    graphs of 200 or more tuple-named vertices, built by the constructor
    and through `_trusted` (line digraphs, relabelled copies), in both
    verdicts, with the Gaifman adjacency left unbuilt and nothing sorted;
    a line digraph's edges are not even built."""
    rng = random.Random(8)
    K2 = clique(2)
    kinds = {"loop": 0, "isolated": 0, "components": 0, "bipartite": 0, "odd": 0}
    for trial in range(400):
        G = random_digraph(rng, 8, 9) if trial % 4 else random_digraph(rng, 16, 16)
        expected = find_homomorphism(symmetrize(G), K2) is not None
        assert is_bipartite(G) == expected
        assert G._gaifman is None
        adj = G.gaifman_adjacency()
        kinds["loop"] += any(a == b for a, b in G.relations["E"])
        kinds["isolated"] += any(not adj[v] for v in G.domain)
        kinds["components"] += not diameter_and_connectivity(G)[0]
        kinds["bipartite" if expected else "odd"] += 1
    assert min(kinds.values()) >= 20, kinds
    large: dict = {}

    def check(built: str, H: RelStructure) -> None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relstruct, "sorted", _unexpected_sort, raising=False)
            got = is_bipartite(H)
        assert H._gaifman is None
        assert getattr(H, "_build", None) is not None or not H._disjoint
        assert got == _k2_search(H)
        assert len(H.domain) >= 200
        large[built, got] = large.get((built, got), 0) + 1

    rng = random.Random(81)
    for trial in range(24):
        G = _two_sided_digraph(rng, rng.randint(100, 130), trial % 3)
        check("public", G)  # before line_digraph(G) sorts its tuples
        n = rng.choice([201, 202])  # a directed cycle, odd or even
        cycle = digraph([((i, "c"), ((i + 1) % n, "c")) for i in range(n)])
        for H in (line_digraph(G), relabel(G)[0], line_digraph(cycle)):
            check("trusted", H)
    assert len(large) == 4 and min(large.values()) >= 10, large


def test_diameter_and_connectivity():
    assert diameter_and_connectivity(clique(4)) == (True, 1)
    two = RelStructure(GRAPH_SIGNATURE, ["a", "b", "c", "d"], {"E": [("a", "b"), ("c", "d")]})
    assert two is not None and diameter_and_connectivity(two) == (False, float("inf"))
    assert diameter_and_connectivity(digraph([("a", "b"), ("b", "c")])) == (True, 2)


def test_clique_counts():
    assert len(clique(2).relations["E"]) == 2
    assert len(clique(3).relations["E"]) == 6
    assert len(clique(1).relations["E"]) == 0


def test_chromatic_number_cliques():
    for n in range(1, 9):
        assert chromatic_number(clique(n), 9) == n


def test_chromatic_number_c5():
    assert chromatic_number(C5, 5) == 3


def test_chromatic_number_leaves_no_cyclic_garbage():
    chi, garbage = cyclic_garbage_of(lambda: chromatic_number(line_digraph(line_digraph(clique(4))), 4))
    assert (chi, garbage) == (3, 0)


def test_chromatic_above_cap():
    assert chromatic_number(clique(4), 3) is ABOVE_CAP


@pytest.mark.parametrize("cap", [0, -1])
def test_chromatic_number_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap must be >= 1"):
        chromatic_number(RelStructure(GRAPH_SIGNATURE, [], {}), cap)


def test_chromatic_ignores_orientation():
    rng = random.Random(11)
    for _ in range(10):
        X = random_digraph(rng, 5, 6)
        if any(a == b for a, b in X.relations["E"]):
            continue
        assert chromatic_number(X, 6) == chromatic_number(symmetrize(X), 6)


def test_independence_number():
    assert independence_number(clique(4)) == 1
    empty = RelStructure(GRAPH_SIGNATURE, [f"u{i}" for i in range(5)], {"E": []})
    assert independence_number(empty) == 5
    assert independence_number(C5) == 2


def test_independence_number_rejects_a_negative_cap():
    assert independence_number(C5, 0) == 0
    with pytest.raises(ValueError, match="cap must be >= 0"):
        independence_number(C5, -1)


def test_independence_number_leaves_no_cyclic_garbage():
    assert cyclic_garbage_of(lambda: independence_number(clique(5))) == (1, 0)


def test_symmetrize():
    one = digraph([("a", "b")])
    assert symmetrize(one).relations["E"] == {("a", "b"), ("b", "a")}
    assert symmetrize(symmetrize(one)) == symmetrize(one)
    tri = digraph([("a", "b"), ("b", "c"), ("c", "a")])
    assert len(symmetrize(tri).relations["E"]) == 6


def test_composition_closure():
    rng = random.Random(3)
    for _ in range(10):
        X = random_digraph(rng, 3, 4)
        Y = random_digraph(rng, 3, 4)
        Z = clique(3)
        f = find_homomorphism(X, Y)
        g = find_homomorphism(Y, Z)
        if f is None or g is None:
            continue
        assert check_homomorphism({v: g[f[v]] for v in X.domain}, X, Z)


def test_relabel_preserves_shape():
    renamed, mapping = relabel(C5, "x")
    assert len(renamed.domain) == 5
    assert chromatic_number(renamed, 5) == 3
    assert {mapping[v] for v in C5.domain} == set(renamed.domain)


def _outcome(search, X, Y, **kwargs):
    """The maps a search yields, in order, and whether it ran out of budget."""
    out = []
    try:
        for f in search(X, Y, **kwargs):
            out.append(f)
    except SearchBudgetExceeded:
        return out, True
    return out, False


def _dense_structure(rng, sig, n):
    """A structure on n vertices holding each possible tuple with a random
    density, so support lists are sometimes shorter and sometimes longer
    than the candidate lists they are compared with."""
    dom = [f"y{i}" for i in range(n)]
    rels = {}
    for name, arity in sig.symbols:
        density = rng.choice((0.15, 0.4, 0.7, 1.0))
        rels[name] = [t for t in itertools.product(dom, repeat=arity) if rng.random() < density]
    return RelStructure(sig, dom, rels)


def test_search_matches_reference_search():
    """The indexed search yields the reference search's maps in the same
    order, and runs out of budget at exactly the same budgets, with every
    combination of order, fixed, limit and budget."""
    rng = random.Random(2024)
    budget_sweeps = 0
    for case in range(300):
        arities = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        if case % 3 == 0:
            arities[0] = 2
        sig = Signature(tuple((f"R{j}", a) for j, a in enumerate(arities)))
        X = random_structure(rng, sig, 5)
        if rng.random() < 0.5:
            Y = _dense_structure(rng, sig, rng.randint(1, 6))
        else:
            Y = random_structure(rng, sig, 4)
        kwargs = {}
        if rng.random() < 0.5:
            order = list(X.domain)
            rng.shuffle(order)
            kwargs["order"] = order
        if rng.random() < 0.4:
            kwargs["fixed"] = {
                v: rng.choice(Y.domain) for v in rng.sample(X.domain, rng.randint(1, len(X.domain)))
            }
        if rng.random() < 0.4:
            kwargs["limit"] = rng.randint(1, 3)
        expected = _outcome(reference_search_homomorphisms, X, Y, **kwargs)
        assert _outcome(_search_homomorphisms, X, Y, **kwargs) == expected, case
        if case % 4 == 0:
            # the least budget that suffices is the node count; compare at it,
            # around it and below it
            low, high = 0, 1
            while _outcome(reference_search_homomorphisms, X, Y, budget=high, **kwargs)[1]:
                low, high = high, 2 * high
            while low < high:
                mid = (low + high) // 2
                if _outcome(reference_search_homomorphisms, X, Y, budget=mid, **kwargs)[1]:
                    low = mid + 1
                else:
                    high = mid
            for budget in {0, 1, rng.randint(0, low), low // 2, low - 1, low, low + 1}:
                expected = _outcome(reference_search_homomorphisms, X, Y, budget=budget, **kwargs)
                assert expected[1] == (budget < low)
                assert _outcome(_search_homomorphisms, X, Y, budget=budget, **kwargs) == expected, (case, budget)
            budget_sweeps += 1
    assert budget_sweeps == 75


def test_search_matches_reference_on_larger_digraph_targets():
    """Digraph targets large enough that forward checks read supports both
    from the full domain and from lists trimmed twice over."""
    rng = random.Random(11)
    for _ in range(12):
        Y = random_digraph(rng, 12, 40)
        X = random_digraph(rng, 5, 7)
        assert _outcome(_search_homomorphisms, X, Y) == _outcome(reference_search_homomorphisms, X, Y)


def test_supports_list_matching_tuples_in_domain_order():
    rng = random.Random(7)
    for _ in range(40):
        sig = Signature((("E", 2), ("R", 3), ("U", 1)))
        Y = _dense_structure(rng, sig, rng.randint(1, 4))
        assert Y.supports("E") is Y.supports("E")
        for name, arity in sig.symbols:
            ordered = sorted(Y.relations[name], key=lambda t: [Y.index(v) for v in t])
            index = Y.supports(name)
            assert len(index) == arity
            for p in range(arity):
                for value in Y.domain:
                    matching = [t for t in ordered if t[p] == value]
                    want = tuple(t[1 - p] for t in matching) if arity == 2 else tuple(matching)
                    assert index[p].get(value, ()) == want


def _check_outcome(check, f, X, Y):
    try:
        return check(f, X, Y)
    except (SignatureMismatch, PartialMap, UnknownVertex) as exc:
        return type(exc), str(exc)


def test_check_homomorphism_matches_reference():
    """Same verdict, or the same exception with the same message, on
    homomorphisms, non-homomorphisms, partial maps, unknown images and
    mismatched signatures."""
    rng = random.Random(31)
    signatures = [
        GRAPH_SIGNATURE,
        Signature((("U", 1), ("R", 3))),
        Signature((("E", 2), ("U", 1), ("S", 2))),
    ]
    seen = set()
    for _ in range(400):
        sig = rng.choice(signatures)
        X = random_structure(rng, sig, 4)
        Y = random_structure(rng, sig, 3)
        kind = rng.choice(["hom", "any", "partial", "unknown", "signature"])
        homs = brute_force_all_homs(X, Y)
        if kind == "hom" and homs:
            f = dict(rng.choice(homs))
        else:
            f = {x: rng.choice(Y.domain) for x in X.domain}
        if kind == "partial":
            del f[rng.choice(X.domain)]
            if f and rng.random() < 0.5:
                f[rng.choice(list(f))] = "outside"  # the domain order decides which raises
        elif kind == "unknown":
            f[rng.choice(X.domain)] = "outside"
        elif kind == "signature":
            Y = random_structure(rng, rng.choice([t for t in signatures if t != sig]), 3)
        outcome = _check_outcome(check_homomorphism, f, X, Y)
        assert outcome == _check_outcome(reference_check_homomorphism, f, X, Y)
        seen.add(outcome if isinstance(outcome, bool) else outcome[0])
    assert seen == {True, False, SignatureMismatch, PartialMap, UnknownVertex}


MIXED_SIGNATURE = Signature((("U", 1), ("E", 2), ("R", 3)))


def _random_mixed_structures(seed: int, count: int):
    """Arity-1, 2 and 3 symbols over up to 7 vertices; repeated draws give
    loops and tuples that repeat a vertex, and vertex names are mixed types
    whose own order differs from the domain order."""
    rng = random.Random(seed)
    for _ in range(count):
        X = random_structure(rng, MIXED_SIGNATURE, 7)
        names = rng.sample([9, "a", (1, 0), "z", 3, ("b",), 0], len(X.domain))
        rename = dict(zip(X.domain, names))
        yield RelStructure(
            MIXED_SIGNATURE,
            names,
            {name: {tuple(rename[v] for v in t) for t in ts} for name, ts in X.relations.items()},
        )


def _fresh_sort(X: RelStructure, name: str) -> tuple:
    return tuple(sorted(X.relations[name], key=lambda t: [X.index(v) for v in t]))


def test_ordered_is_the_tuples_sorted_by_domain_index():
    seen_loop = False
    for X in _random_mixed_structures(31, 200):
        for name in X.signature.names():
            assert X.ordered(name) == _fresh_sort(X, name)
            assert X.ordered(name) is X.ordered(name)
            seen_loop |= any(len(set(t)) < len(t) for t in X.relations[name])
        assert list(X.all_tuples()) == [(n, t) for n in X.signature.names() for t in X.ordered(n)]
    assert seen_loop


def test_ordered_reads_a_deferred_list_without_sorting(monkeypatch):
    """A deferred build that lists a symbol's tuples in canonical order,
    a line digraph's or a hand-made one's, is ordered (and scanned) as
    listed with no sort and without freezing the relations; the builder
    runs once, and the ordered tuple stays the same object once the
    relations are read.  A deferred set is sorted by domain index as
    before."""
    listed = [("a", "b"), ("b", "a"), ("b", "c")]
    runs = []

    def build() -> dict:
        runs.append(1)
        return {"E": list(listed)}

    X = RelStructure._trusted(GRAPH_SIGNATURE, ("a", "b", "c"), build)
    D = line_digraph(C5)
    monkeypatch.setattr(relstruct, "sorted", _unexpected_sort, raising=False)
    first = X.ordered("E")
    assert first == tuple(listed) and X.scan("E") is first and getattr(X, "_build", None) is not None
    assert X.relations["E"] == set(listed) and X.ordered("E") is first and runs == [1]
    assert D.ordered("E") == _fresh_sort(without_view(D), "E")
    monkeypatch.undo()
    Y = RelStructure._trusted(GRAPH_SIGNATURE, ("c", "b", "a"), lambda: {"E": set(listed)})
    assert Y.ordered("E") == (("b", "c"), ("b", "a"), ("a", "b"))


def test_relabel_matches_reference():
    """Same domain, relations and map as the public-constructor reference,
    and the canonical tuple order of a freshly sorted structure."""
    for X in _random_mixed_structures(32, 200):
        got, mapping = relabel(X, "r")
        expected, expected_map = reference_relabel(X, "r")
        assert mapping == expected_map and list(mapping) == list(expected_map)
        assert got.domain == expected.domain and got.relations == expected.relations
        for name in X.signature.names():
            assert got.ordered(name) == _fresh_sort(expected, name)


def test_gaifman_adjacency_matches_reference():
    rng = random.Random(33)
    structures = list(_random_mixed_structures(33, 200))
    # past 8 vertices a set of neighbour indexes no longer iterates sorted
    structures += [random_digraph(rng, 24, 60) for _ in range(100)]
    for X in structures:
        got = X.gaifman_adjacency()
        expected = reference_gaifman_adjacency(X)
        assert list(got.items()) == list(expected.items())


def test_column_check_homomorphism_matches_per_tuple_reference():
    """The column check gives the per-tuple check's verdict, or raises the
    same exception with the same message: arities 1, 2 and 3, all relations
    empty or all holding one tuple, tuples scanned from the frozenset or
    from the sorted list, and maps that miss a vertex, leave the target or
    cross signatures."""
    rng = random.Random(59)
    seen = set()
    shapes = set()
    for case in range(600):
        X = random_structure(rng, MIXED_SIGNATURE, 5)
        Y = random_structure(rng, MIXED_SIGNATURE, 3)
        if case % 3 == 1:
            X = RelStructure(MIXED_SIGNATURE, X.domain, {})
        elif case % 3 == 2:  # one tuple per symbol: a one-entry column per position
            one = {
                name: [tuple(rng.choice(X.domain) for _ in range(arity))]
                for name, arity in MIXED_SIGNATURE.symbols
            }
            X = RelStructure(MIXED_SIGNATURE, X.domain, one)
        shapes.add(frozenset(map(len, X.relations.values())))
        if rng.random() < 0.5:
            for name in MIXED_SIGNATURE.names():
                X.ordered(name)
        kind = rng.choice(["hom", "any", "partial", "unknown", "signature"])
        homs = brute_force_all_homs(X, Y) if kind == "hom" else []
        f = dict(rng.choice(homs)) if homs else {x: rng.choice(Y.domain) for x in X.domain}
        if kind == "partial":
            del f[rng.choice(X.domain)]
        elif kind == "unknown":
            f[rng.choice(X.domain)] = "outside"
        elif kind == "signature":
            Y = random_structure(rng, GRAPH_SIGNATURE, 3)
        outcome = _check_outcome(check_homomorphism, f, X, Y)
        assert outcome == _check_outcome(reference_tuple_check_homomorphism, f, X, Y)
        seen.add(outcome if isinstance(outcome, bool) else outcome[0])
    assert seen == {True, False, SignatureMismatch, PartialMap, UnknownVertex}
    assert {frozenset({0}), frozenset({1})} <= shapes
