import itertools
import random
from fractions import Fraction

import pytest

from chromagap.csp import CspInstance, classify_label_cover, to_structures
from chromagap.dkkms import game_csp, verify_game_assignment
from chromagap.qop import (
    GQ,
    DimMismatch,
    PMatrix,
    QuantumAssignment,
    cleanup_bipartite,
    compose_sandwich,
    lift_classical,
    mermin_peres,
    qsat,
    verify_assignment,
    verify_pvm,
)
from chromagap.relstruct import (
    RelStructure,
    Signature,
    clique,
    diameter_and_connectivity,
    digraph,
    find_homomorphism,
)
from helpers import (
    random_digraph,
    random_structure,
    reference_compose_sandwich,
    reference_verify_assignment,
    run_under_hash_seeds,
    structure_with_hom_from,
)


def diag(*entries):
    dim = len(entries)
    return PMatrix.from_rows(
        [[entries[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    )


def test_verify_pvm_identity():
    assert verify_pvm([PMatrix.identity(3)]).passed


def test_verify_pvm_diagonal_split():
    assert verify_pvm([diag(1, 0), diag(0, 1)]).passed


def test_verify_pvm_duplicate_fails():
    report = verify_pvm([diag(1, 0), diag(1, 0)])
    assert not report.complete and not report.orthogonal


def test_verify_pvm_non_projector():
    half = PMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    report = verify_pvm([half, half])
    assert not report.idempotent


# -- magic square -----------------------------------------------------------


@pytest.fixture(scope="module")
def magic():
    return mermin_peres()


def test_magic_square_shape(magic):
    system, assignment = magic
    assert len(system.equations) == 6
    assert len(system.variables) == 9
    assert sum(rhs for _, rhs in system.equations) == 1
    assert assignment.dim == 4


def test_magic_square_classical_value(magic):
    system, _ = magic
    assert system.sat_value() == Fraction(5, 6)


def test_magic_square_pvms_are_rank_one(magic):
    _, assignment = magic
    for fam in assignment.pvms.values():
        assert len(fam) == 4
        for mat in fam.values():
            assert mat.trace() == GQ(1)
        assert verify_pvm(list(fam.values())).passed


def test_magic_square_game_form(magic):
    system, assignment = magic
    report = verify_game_assignment(system, 1, assignment)
    assert report.passed
    assert report.products_checked == 72


def test_magic_square_perfect_on_game_structures(magic):
    system, assignment = magic
    game = game_csp(system, 1)
    X, A = to_structures(game)
    report = verify_assignment(X, A, assignment, 0)
    assert report.passed
    assert report.products_checked == 72


def test_magic_square_fails_at_gaifman_diameter(magic):
    """Full compatibility would collapse the strategy to a classical
    solution, which cannot exist at classical value 5/6."""
    system, assignment = magic
    game = game_csp(system, 1)
    X, A = to_structures(game)
    connected, diam = diameter_and_connectivity(X)
    assert connected and diam == 2
    report = verify_assignment(X, A, assignment, int(diam))
    assert report.commutator_violations


def test_magic_square_qsat_is_one(magic):
    system, assignment = magic
    game = game_csp(system, 1)
    result = qsat(game, assignment)
    assert result.real and result.value == 1


def test_renamed_keeps_the_family_objects(magic, monkeypatch):
    """Renaming the keys trusts the families as built: the same dict objects
    under the mapped keys, in the same order, with the same dim and k, and
    no projector is tested for zero again."""
    _, assignment = magic
    mapping = {x: ("renamed", i) for i, x in enumerate(reversed(list(assignment.pvms)))}
    monkeypatch.setattr(PMatrix, "is_zero", lambda self: pytest.fail("is_zero called"))
    out = assignment.renamed(mapping)
    assert (out.dim, out.k) == (assignment.dim, assignment.k)
    assert list(out.pvms) == [mapping[x] for x in assignment.pvms]
    assert all(out.pvms[mapping[x]] is fam for x, fam in assignment.pvms.items())


# -- classical lifts --------------------------------------------------------


def test_lift_classical_verifies_at_any_level():
    C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    K3 = clique(3)
    f = find_homomorphism(C5, K3)
    lift = lift_classical(f)
    for k in (0, 1, 2, 5):
        assert verify_assignment(C5, K3, lift, k).passed


def test_failing_verification_is_the_same_under_every_hash_seed():
    """A constant colouring of K12 into K3 violates every edge; the report,
    witnesses and their order included, must not depend on PYTHONHASHSEED."""
    code = (
        "from chromagap.qop import lift_classical, verify_assignment\n"
        "from chromagap.relstruct import clique\n"
        "X = clique(12)\n"
        "f = lift_classical(dict.fromkeys(X.domain, 'k0'))\n"
        "print(repr(verify_assignment(X, clique(3), f, 0)))"
    )
    reports = run_under_hash_seeds(code, ("1", "2"))
    assert "product('E', ('k0', 'k1'), ('k0', 'k0'))" in reports[0]
    assert reports[0] == reports[1]


def test_commutator_witnesses_come_in_domain_order_under_every_hash_seed():
    """A star c -> l0..l19 with c in the standard basis and every leaf in the
    Hadamard basis: at level 1 each (c, leaf) pair fails to commute, and the
    witnesses, and the count checked before the cap, follow domain order."""
    code = (
        "from fractions import Fraction as F\n"
        "from chromagap.qop import PMatrix, QuantumAssignment, verify_assignment\n"
        "from chromagap.relstruct import digraph\n"
        "X = digraph([('c', f'l{i}') for i in range(20)])\n"
        "Y = digraph([(a, b) for a in (0, 1) for b in (0, 1)])\n"
        "h = F(1, 2)\n"
        "std = {0: PMatrix.from_rows([[1, 0], [0, 0]]), 1: PMatrix.from_rows([[0, 0], [0, 1]])}\n"
        "had = {0: PMatrix.from_rows([[h, h], [h, h]]), 1: PMatrix.from_rows([[h, -h], [-h, h]])}\n"
        "pvms = {x: std if x == 'c' else had for x in X.domain}\n"
        "r = verify_assignment(X, Y, QuantumAssignment(2, 1, pvms), 1, max_witnesses=6)\n"
        "print(r.commutators_checked, [v.witness[:2] for v in r.commutator_violations])"
    )
    reports = run_under_hash_seeds(code, ("1", "2", "3"))
    assert reports[0].split(" ", 1) == [
        "8",
        "[('c', 'l0'), ('c', 'l0'), ('c', 'l0'), ('c', 'l0'), "
        "('c', 'l1'), ('c', 'l1'), ('c', 'l1'), ('c', 'l1')]\n",
    ]
    assert reports[0] == reports[1] == reports[2]


def test_lift_qsat_equals_classical_value_exhaustive():
    rng = random.Random(4)
    for _ in range(12):
        n = rng.randint(1, 4)
        variables = [f"x{i}" for i in range(n)]
        constraints = []
        for _ in range(rng.randint(1, 3)):
            arity = rng.randint(1, 2)
            scope = tuple(rng.choice(variables) for _ in range(arity))
            allowed = {
                t
                for t in itertools.product((0, 1), repeat=arity)
                if rng.random() < 0.6
            }
            constraints.append((scope, allowed))
        inst = CspInstance(variables, [0, 1], constraints)
        for bits in itertools.product((0, 1), repeat=n):
            f = dict(zip(variables, bits))
            result = qsat(inst, lift_classical(f))
            assert result.real
            assert result.value == inst.value_of(f)


def test_compose_with_identities_is_identity(magic):
    _, assignment = magic
    ident_vars = {x: x for x in assignment.pvms}
    labels = {y for fam in assignment.pvms.values() for y in fam}
    out = compose_sandwich(ident_vars, assignment, {y: y for y in labels})
    assert out.pvms == assignment.pvms


def test_compose_collapsing_labels_keeps_pvm(magic):
    _, assignment = magic
    labels = sorted({y for fam in assignment.pvms.values() for y in fam})
    g = {y: 0 for y in labels}
    out = compose_sandwich({x: x for x in assignment.pvms}, assignment, g)
    for fam in out.pvms.values():
        assert verify_pvm(list(fam.values())).passed
        assert fam[0].is_identity()


def test_quantum_assignment_drops_zero_projectors_and_checks_dimensions():
    """Zero projectors are dropped in order, whatever their dimension, and
    the families are copies of the caller's; a nonzero projector of another
    dimension raises DimMismatch, also when several families share it."""
    one = PMatrix.identity(2)
    given = {"x": {"a": one, "b": PMatrix.zeros(2), "c": one}, "y": {"d": PMatrix.zeros(3)}, "z": {"e": one}}
    qa = QuantumAssignment(2, 0, given)
    assert [(x, list(fam.items())) for x, fam in qa.pvms.items()] == [
        ("x", [("a", one), ("c", one)]), ("y", []), ("z", [("e", one)])
    ]
    kept = QuantumAssignment(2, 0, {"z": given["z"]})
    assert kept.pvms == {"z": {"e": one}} and kept.pvms["z"] is not given["z"]
    wrong = PMatrix.identity(3)
    with pytest.raises(DimMismatch, match="projector dimension differs from declared dim"):
        QuantumAssignment(2, 0, {"x": {"a": one}, "y": {"b": wrong}, "z": {"c": wrong}})


def test_compose_sandwich_matches_the_reference_on_repeated_and_cancelling_sums():
    """Sources shared by several variables, labels collapsed onto few, and
    families that hold a matrix and its negative: the memoised sums give the
    reference's families in order, a sum that cancels is dropped, a repeated
    sum is one object, and variables that read one source share one family."""
    rng = random.Random(53)
    half = Fraction(1, 2)
    pool = [diag(1, 0), diag(0, 1), PMatrix.from_rows([[half, half], [half, half]]), PMatrix.identity(2)]
    pool += [m.scale(GQ(-1)) for m in pool]
    cancelled = shared = 0
    for _ in range(60):
        sources = {f"s{i}": {f"y{j}": rng.choice(pool) for j in range(rng.randint(0, 5))} for i in range(3)}
        assignment = QuantumAssignment(2, 1, sources)
        f = {f"x{i}": rng.choice(sorted(sources)) for i in range(6)}
        g = {f"y{j}": rng.choice(["a", "b"]) for j in range(5)}
        got = compose_sandwich(f, assignment, g, k=0)
        want = reference_compose_sandwich(f, assignment, g, k=0)
        assert (got.dim, got.k) == (want.dim, want.k) == (2, 0)
        assert [(x, list(fam.items())) for x, fam in got.pvms.items()] == [
            (x, list(fam.items())) for x, fam in want.pvms.items()
        ]
        cancelled += sum(len(set(map(g.get, sources[f[x]]))) > len(got.pvms[x]) for x in f)
        by_source = {}
        for x, xp in f.items():
            again = xp in by_source
            first = by_source.setdefault(xp, got.pvms[x])
            assert all(first[y] is m for y, m in got.pvms[x].items())
            shared += again and first is got.pvms[x] and len(sources[xp]) > len(first)
    assert cancelled >= 10 and shared >= 10


def test_compose_preserves_perfectness_on_random_triples():
    """X -> X' ~> Y' -> Y stays perfect; checked on 100 seeded cases with
    classical-lift middles."""
    rng = random.Random(77)
    cases = 0
    while cases < 100:
        Xp = random_digraph(rng, 3, 4)
        Yp, middle = structure_with_hom_from(rng, Xp, 3)
        X = random_digraph(rng, 3, 4)
        f = find_homomorphism(X, Xp)
        if f is None:
            continue
        Y, g = structure_with_hom_from(rng, Yp, 3)
        lift = lift_classical(middle)
        assert verify_assignment(Xp, Yp, lift, 1).passed
        composed = compose_sandwich(f, lift, g)
        assert verify_assignment(X, Y, composed, 1).passed
        assert composed.dim == lift.dim
        cases += 1


# -- cleanup ----------------------------------------------------------------


def bipartite_instance():
    pred = {("a0", "b0"), ("a1", "b1")}
    return CspInstance(["x", "y"], ["a0", "a1", "b0", "b1"], [(("x", "y"), pred)])


def test_cleanup_leaves_clean_assignment_alone():
    inst = bipartite_instance()
    profile = classify_label_cover(inst)
    lift = lift_classical({"x": "a0", "y": "b0"})
    out = cleanup_bipartite(inst, profile, lift)
    assert out.pvms == lift.pvms


def test_cleanup_merges_single_cross_projector():
    inst = bipartite_instance()
    profile = classify_label_cover(inst)
    pvms = {
        "x": {"a0": diag(1, 0), "b0": diag(0, 1)},  # b0 is on the wrong side
        "y": {"b0": diag(1, 0), "b1": diag(0, 1)},
    }
    q = QuantumAssignment(2, 1, pvms)
    before = qsat(inst, q)
    out = cleanup_bipartite(inst, profile, q)
    after = qsat(inst, out)
    assert after.value >= before.value
    for x, fam in out.pvms.items():
        side = profile.projective[0] if x == "x" else profile.projective[1]
        assert set(fam) <= set(side)
        assert verify_pvm(list(fam.values())).passed


def test_cleanup_requires_certificates():
    inst = bipartite_instance()
    profile = classify_label_cover(inst)
    bad = CspInstance(["x", "y"], [0, 1], [(("x", "y"), {(0, 0)})])
    bad_profile = classify_label_cover(bad)
    from chromagap.qop import NotBipartiteProjective

    lift = lift_classical({"x": 0, "y": 0})
    with pytest.raises(NotBipartiteProjective):
        cleanup_bipartite(bad, type(profile)(bipartite=bad_profile.bipartite, projective=None), lift)


# -- qsat edge cases ---------------------------------------------------------


def test_qsat_flags_nonreal_trace():
    """A ternary constraint over non-commuting projectors can have a complex
    trace; the value is surfaced, never truncated."""
    p0 = diag(1, 0)
    plus = PMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    circ = PMatrix(
        [
            [GQ(Fraction(1, 2)), GQ(0, Fraction(-1, 2))],
            [GQ(0, Fraction(1, 2)), GQ(Fraction(1, 2))],
        ]
    )
    ident = PMatrix.identity(2)
    pvms = {
        "x": {0: p0, 1: ident - p0},
        "y": {0: plus, 1: ident - plus},
        "z": {0: circ, 1: ident - circ},
    }
    inst = CspInstance(["x", "y", "z"], [0, 1], [(("x", "y", "z"), {(0, 0, 0)})])
    result = qsat(inst, QuantumAssignment(2, 0, pvms))
    assert not result.real
    assert result.imag != 0


HALF = Fraction(1, 2)
_STANDARD = (diag(1, 0), diag(0, 1))
_HADAMARD = (
    PMatrix.from_rows([[HALF, HALF], [HALF, HALF]]),
    PMatrix.from_rows([[HALF, -HALF], [-HALF, HALF]]),
)


def _family_pool(rng, labels) -> list:
    """A few dim-2 families over `labels`: splits in the standard or the
    Hadamard basis, each with its labels swapped and its projectors listed
    in both orders, the identity on one label, and a non-PVM that repeats a
    projector."""
    pool = []
    for _ in range(4):
        y0, y1 = rng.sample(labels, 2)
        p, q = rng.choice([_STANDARD, _HADAMARD])
        pool += [{y0: p, y1: q}, {y1: p, y0: q}, {y0: q, y1: p}, {y1: q, y0: p}]
    pool.append({rng.choice(labels): PMatrix.identity(2)})
    pool.append({labels[0]: _STANDARD[0], labels[1]: _STANDARD[0]})
    rng.shuffle(pool)
    return pool


def test_verify_assignment_matches_reference():
    """Field-for-field equal reports (PVM issues, witnesses in order and
    counts) as the per-variable, per-tuple reference, on passing and
    failing inputs whose families are shared by many vertices, with witness
    caps of 1, 2 and 25 that the violations exceed."""
    rng = random.Random(47)
    seen = set()
    for case in range(300):
        cap = [1, 2, 25][case % 3]
        X = random_digraph(rng, 4 * cap + 5, 4 * cap + 14)
        Y = [clique(2), clique(3), digraph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")])][case % 4 % 3]
        labels = list(Y.domain)
        if case % 4 == 0:
            f = find_homomorphism(X, Y) if len(X.domain) < 15 else None
            pvms = lift_classical(f or {x: rng.choice(labels) for x in X.domain}).pvms
            assignment = QuantumAssignment(1, 0, pvms)
        else:
            pool = _family_pool(rng, labels)[: rng.randint(2, 10)]
            assignment = QuantumAssignment(2, 0, {x: rng.choice(pool) for x in X.domain})
        k = rng.randint(0, 2)
        args = (X, Y, assignment, k)
        got = verify_assignment(*args, max_witnesses=cap)
        assert got == reference_verify_assignment(*args, max_witnesses=cap)
        seen.add("pass" if got.passed else "fail")
        if len(got.product_violations) > cap:
            seen.add(f"capped at {cap}")
        if got.pvm_issues:
            seen.add("pvm issues")
    assert seen >= {"pass", "fail", "capped at 1", "capped at 2", "capped at 25", "pvm issues"}


def _shuffled(rng, family: dict) -> dict:
    items = list(family.items())
    rng.shuffle(items)
    return dict(items)


def test_verify_assignment_on_shuffled_label_orders_matches_reference():
    """Families that list their labels in different orders share a label
    group of the product sweep, and the report still equals the per-tuple
    reference's, witnesses, counts and PVM issue indexes (which follow each
    family's given order) included: on perfect splits of two maps over
    three labels, on the same with one family repeating a doubled
    projector, and on inputs whose only nonzero forbidden product lies on
    the one tuple of the last symbol, the sweep's last label group."""
    rng = random.Random(151)
    p, q = _STANDARD
    sig = Signature((("E", 2), ("F", 2)))
    seen = set()
    for case in range(240):
        labels = rng.sample("abc", 3)
        dom = [f"x{i}" for i in range(rng.randint(2, 7))]
        edges = {tuple(rng.choice(dom) for _ in range(2)) for _ in range(rng.randint(1, 9))}
        f, g = ({x: rng.choice(labels) for x in dom} for _ in range(2))
        allowed = {(h[u], h[v]) for h in (f, g) for u, v in edges}
        pvms = {x: _shuffled(rng, {f[x]: p, g[x]: q} if f[x] != g[x] else {f[x]: p + q}) for x in dom}
        if case % 3 == 1:
            y0, y1 = rng.sample(labels, 2)
            pvms[rng.choice(dom)] = _shuffled(rng, {y0: p + p, y1: q})
        if case % 3 == 2:
            dom += ["u", "w"]
            pvms["u"] = _shuffled(rng, {"a": p, "b": q})
            pvms["w"] = _shuffled(rng, {"a": _HADAMARD[1], "b": _HADAMARD[0]})
            X = RelStructure(sig, dom, {"E": edges, "F": {("u", "w")}})
            F = set(itertools.product(labels, repeat=2)) - {("a", "a")}
        else:
            X = RelStructure(sig, dom, {"E": edges, "F": set()})
            F = set()
        Y = RelStructure(sig, labels, {"E": allowed, "F": F})
        args = (X, Y, QuantumAssignment(2, 0, pvms), rng.randint(0, 1))
        cap = rng.choice([1, 25])
        got = verify_assignment(*args, max_witnesses=cap)
        assert got == reference_verify_assignment(*args, max_witnesses=cap)
        if case % 3 == 2:
            assert [v.witness for v in got.product_violations] == [("F", ("u", "w"), ("a", "a"))]
        seen.add((case % 3, got.perfect, bool(got.pvm_issues)))
    assert seen == {(0, True, False), (1, False, True), (2, False, False)}


def test_verify_assignment_matches_reference_on_mixed_arities():
    """Field-for-field equal reports as the per-tuple reference on
    structures with arity-1, 2 and 3 symbols whose vertices carry at least
    three distinct families: two homomorphisms f and g split over the
    standard basis (passing, with forbidden products to check), lifts of
    random maps, and dim-2 families drawn from a shared pool."""
    sig = Signature((("U", 1), ("E", 2), ("R", 3)))
    p, q = _STANDARD
    rng = random.Random(53)
    seen = set()
    for case in range(300):
        X = random_structure(rng, sig, 8)
        f, g = ({x: rng.choice("abc") for x in X.domain} for _ in range(2))
        Y = RelStructure(
            sig,
            "abc",
            {
                name: {tuple(h[v] for v in t) for h in (f, g) for t in X.relations[name]}
                | {tuple(rng.choice("abc") for _ in range(arity))}
                for name, arity in sig.symbols
            },
        )
        if case % 3 == 0:
            pvms = {x: {f[x]: p, g[x]: q} if f[x] != g[x] else {f[x]: p + q} for x in X.domain}
            assignment = QuantumAssignment(2, 0, pvms)
        elif case % 3 == 1:
            assignment = lift_classical({x: rng.choice(Y.domain) for x in X.domain})
        else:
            pool = _family_pool(rng, list(Y.domain))[: rng.randint(3, 10)]
            assignment = QuantumAssignment(2, 0, {x: rng.choice(pool) for x in X.domain})
        if len({tuple(fam.items()) for fam in assignment.pvms.values()}) < 3:
            continue
        args = (X, Y, assignment, rng.randint(0, 2))
        kwargs = dict(max_witnesses=rng.choice([1, 3, 25]))
        got = verify_assignment(*args, **kwargs)
        assert got == reference_verify_assignment(*args, **kwargs)
        if got.products_checked:
            seen.add("pass" if not got.product_violations else "fail")
    assert seen == {"pass", "fail"}


def test_verify_assignment_tells_apart_families_that_differ_in_labels_only():
    """v0 and v2 carry the same projectors in the same order under swapped
    labels: the edge v0 -> v1 is perfect, the edge v1 -> v2 is not."""
    p, q = _STANDARD
    X = digraph([("v0", "v1"), ("v1", "v2")])
    pvms = {"v0": {"k0": p, "k1": q}, "v1": {"k0": q, "k1": p}, "v2": {"k1": p, "k0": q}}
    report = verify_assignment(X, clique(2), QuantumAssignment(2, 0, pvms), 0)
    assert [v.witness for v in report.product_violations] == [
        ("E", ("v1", "v2"), ("k0", "k0")),
        ("E", ("v1", "v2"), ("k1", "k1")),
    ]
    assert report.products_checked == 4


def test_verify_assignment_rejects_a_negative_level():
    X = digraph([("a", "b")])
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        verify_assignment(X, clique(2), lift_classical({"a": "k0", "b": "k1"}), -1)
