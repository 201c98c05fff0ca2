import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from chromagap import dkkms
from chromagap.csp import classify_label_cover, sat_value, to_structures
from chromagap.dkkms import (
    AllConstraintsDiscarded,
    NotRegular,
    RhoInstance,
    XorSystem,
    build_rho1,
    build_rho2,
    game_csp,
    is_regular,
    legitimate_tuples,
    rho_quantum_transfer,
    satisfying_assignments,
    tuple_variables,
    verify_game_assignment,
)
from chromagap.f2linalg import AmbientMismatch, F2Subspace, RespectViolation, extend_functional
from chromagap.qop import (
    KeyMismatch,
    QuantumAssignment,
    VerificationFailure,
    matrix_sum,
    mermin_peres,
    verify_assignment,
)
from chromagap.serialize import instance_to_dict
from helpers import random_regular_system, reference_build_rho1


@pytest.fixture(scope="module")
def magic():
    return mermin_peres()


def test_parse_format_round_trip():
    text = "a b c = 1\nd e f = 0\n"
    system = XorSystem.parse(text)
    assert system.format() == text
    assert system.variables == ("a", "b", "c", "d", "e", "f")


def test_regularity_of_magic_square(magic):
    system, _ = magic
    report = is_regular(system, 2)
    assert report.regular and report.max_occurrence == 2


def test_sharing_two_variables_is_irregular():
    system = XorSystem.from_equations([(("a", "b", "c"), 0), (("a", "b", "d"), 0)])
    assert not is_regular(system, 5).regular


def test_empty_system_is_regular():
    assert is_regular(XorSystem((), ()), 1).regular


def test_legitimate_singletons(magic):
    system, _ = magic
    assert legitimate_tuples(system, 1) == [(i,) for i in range(6)]


def test_no_legitimate_pairs_in_magic_square(magic):
    """Any two disjoint equations of the square are crossed by a third, so
    the exclusion condition empties every tuple length above one."""
    system, _ = magic
    assert legitimate_tuples(system, 2) == []
    assert legitimate_tuples(system, 4) == []


@pytest.mark.parametrize("n", [0, -1])
def test_legitimate_tuples_reject_a_length_below_one(magic, n):
    system, _ = magic
    with pytest.raises(ValueError, match="n must be >= 1"):
        legitimate_tuples(system, n)


def test_legitimate_pairs_in_disjoint_system():
    system = XorSystem.from_equations(
        [(("a", "b", "c"), 0), (("d", "e", "f"), 1), (("a", "d", "g"), 0)]
    )
    pairs = legitimate_tuples(system, 2)
    # 0 and 1 are disjoint but joined by equation 2 through a and d; the
    # other pairs share a variable outright
    assert pairs == []


def test_game_csp_shape(magic):
    system, _ = magic
    game = game_csp(system, 1)
    assert len(game.variables) == 6
    assert len(game.alphabet) == 24
    assert len(game.constraints) == 15  # 6 unary + 9 consistency
    for t in game.variables:
        sats = satisfying_assignments(system, t)
        assert len(sats) == 4


def test_game_csp_disjoint_tuples_unconstrained(magic):
    system, _ = magic
    game = game_csp(system, 1)
    scopes = {c.scope for c in game.constraints if len(c.scope) == 2}
    for (a,), (b,) in itertools.combinations([(i,) for i in range(6)], 2):
        va = set(tuple_variables(system, (a,)))
        vb = set(tuple_variables(system, (b,)))
        joined = ((a,), (b,)) in scopes or ((b,), (a,)) in scopes
        assert joined == bool(va & vb)


def test_game_value_is_14_of_15(magic):
    system, _ = magic
    game = game_csp(system, 1)
    assert sat_value(game) == Fraction(14, 15) < 1


def test_rho1_counts(magic):
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    assert len(rho1.instance.variables) == 24
    assert len(rho1.instance.alphabet) == 4
    assert set(rho1.tags) == {"1-to-1", "2-to-2"}


def test_rho1_requires_regularity():
    bad = XorSystem.from_equations([(("a", "b", "c"), 0), (("a", "b", "d"), 0)])
    with pytest.raises(NotRegular):
        build_rho1(bad, 1, 2)


def test_rho1_tags_match_classifier(magic):
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    from chromagap.csp import CspInstance

    for c, tag in zip(rho1.instance.constraints, rho1.tags):
        single = CspInstance(
            rho1.instance.variables, rho1.instance.alphabet, [(c.scope, c.allowed)]
        )
        profile = classify_label_cover(single)
        assert profile.d_to_d is not None
        expected_d = 1 if tag == "1-to-1" else 2
        assert profile.d_to_d.d == expected_d


def test_rho1_same_space_edges_pair_equal_functionals(magic):
    """Two vertices over the same question tuple carry the same total space,
    so a label pair is allowed exactly when the two functionals coincide as
    functions (the indexings differ: each side uses its own basis)."""
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    for c, tag in zip(rho1.instance.constraints, rho1.tags):
        ka, kb = c.scope
        if ka[0] != kb[0]:
            continue
        assert tag == "1-to-1"
        space = rho1.vertices[ka].space
        assert rho1.vertices[kb].space.equals(space)
        for a in rho1.instance.alphabet:
            for b in rho1.instance.alphabet:
                same_function = all(
                    rho1.labels[ka][a].evaluate_bits(bits)
                    == rho1.labels[kb][b].evaluate_bits(bits)
                    for bits in space.basis
                )
                assert ((a, b) in c.allowed) == same_function


def test_rho2_keeps_vertices_and_uniform_weights(magic):
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    rho2 = build_rho2(rho1)
    assert rho2.instance.variables == rho1.instance.variables
    assert len(rho2.instance.constraints) == 144
    assert {c.weight for c in rho2.instance.constraints} == {Fraction(1, 144)}
    profile = classify_label_cover(rho2.instance)
    assert profile.d_to_d is not None and profile.d_to_d.d == 2


def test_rho2_with_nothing_left_raises(magic):
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    only_ones = RhoInstance(
        system,
        1,
        2,
        rho1.instance,
        rho1.vertices,
        tuple("1-to-1" for _ in rho1.tags),
        rho1.labels,
    )
    with pytest.raises(AllConstraintsDiscarded):
        build_rho2(only_ones)


def test_no_edge_joins_variable_disjoint_tuples(magic):
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    for c in rho1.instance.constraints:
        (ta, _), (tb, _) = c.scope
        va = set(tuple_variables(system, ta))
        vb = set(tuple_variables(system, tb))
        assert va & vb


def test_transfer_completeness_per_vertex(magic):
    system, assignment = magic
    rho, transferred = rho_quantum_transfer(system, 1, 2, assignment)
    for key, fam in transferred.pvms.items():
        total = matrix_sum(list(fam.values()), transferred.dim)
        assert total.is_identity()


def test_transfer_rejects_a_rho_of_another_triple(magic):
    """A rho built from another ell or another system is refused instead of
    being trusted for its vertices and labels."""
    system, assignment = magic
    rho2 = build_rho2(build_rho1(system, 1, 2))
    (scope, rhs), *rest = system.equations
    flipped = XorSystem(system.variables, ((scope, 1 - rhs), *rest))
    for other in (replace(rho2, ell=3), replace(rho2, system=flipped)):
        with pytest.raises(ValueError, match="another"):
            rho_quantum_transfer(system, 1, 2, assignment, rho1=other)


def test_transfer_perfect_on_both_stages(magic):
    system, assignment = magic
    rho1 = build_rho1(system, 1, 2)
    rho2 = build_rho2(rho1)
    _, transferred = rho_quantum_transfer(system, 1, 2, assignment, rho1=rho2)
    for inst in (rho1.instance, rho2.instance):
        X, A = to_structures(inst)
        report = verify_assignment(X, A, transferred, 0)
        assert report.perfect and report.passed


def test_game_form_rejects_a_corrupted_strategy(magic):
    """Swapping two answers' projectors in the first row's family leaves a
    PVM but breaks 8 of the 72 consistency products; the rho transfer
    refuses that strategy, and one without the first row's question is a
    key mismatch."""
    system, assignment = magic
    pvms = {t: dict(fam) for t, fam in assignment.pvms.items()}
    row = pvms[(0,)]
    first, second = list(row)[:2]
    row[first], row[second] = row[second], row[first]
    corrupted = QuantumAssignment(4, 0, pvms)
    report = verify_game_assignment(system, 1, corrupted)
    assert report.pvm_ok and not report.passed
    assert report.products_checked == 72 and len(report.product_violations) == 8
    with pytest.raises(VerificationFailure, match="game-form"):
        rho_quantum_transfer(system, 1, 2, corrupted)
    del pvms[(0,)]
    with pytest.raises(KeyMismatch):
        verify_game_assignment(system, 1, QuantumAssignment(4, 0, pvms))


def test_transfer_of_classical_solution_is_classical():
    system = XorSystem.from_equations(
        [(("a", "b", "c"), 0), (("d", "e", "f"), 1)]
    )
    # a perfect classical solution lifted to tuple questions
    solution = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 0, "f": 0}
    from chromagap.qop import PMatrix, QuantumAssignment

    one = PMatrix.identity(1)
    pvms = {}
    for t in legitimate_tuples(system, 1):
        theta = tuple(sorted((v, solution[v]) for v in tuple_variables(system, t)))
        pvms[t] = {theta: one}
    game_like = QuantumAssignment(1, 1, pvms)
    assert verify_game_assignment(system, 1, game_like).passed
    rho, transferred = rho_quantum_transfer(system, 1, 2, game_like)
    X, A = to_structures(rho.instance)
    assert verify_assignment(X, A, transferred, 0).passed
    assert transferred.dim == 1
    assert all(len(fam) == 1 for fam in transferred.pvms.values())


def test_extension_lemma_exhaustive_small(magic):
    """Every respecting functional at every (tuple, other-tuple, subspace)
    triple of the square's build has exactly one extension respecting the
    other tuple, found both by brute force and by the solver."""
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    ambient = system.ambient()
    checked = 0
    for key, vertex in list(rho1.vertices.items())[:6]:
        u = vertex.indices
        u_conditions = [(system.equation_vector(i), system.equations[i][1]) for i in u]
        for w in legitimate_tuples(system, 1):
            w_conditions = [
                (system.equation_vector(i), system.equations[i][1]) for i in w
            ]
            for a, psi in rho1.labels[key].items():
                out = extend_functional(psi, u_conditions, w_conditions)
                # brute force over every functional on the extended space
                target = psi.domain.sum(
                    F2Subspace.spanned_by([v for v, _ in w_conditions])
                )
                count = 0
                for bits in itertools.product((0, 1), repeat=target.dim):
                    from chromagap.f2linalg import F2Functional

                    cand = F2Functional(target, bits)
                    if all(
                        cand.evaluate_bits(b) == psi.evaluate_bits(b)
                        for b in psi.domain.basis
                    ) and cand.respects(w_conditions):
                        count += 1
                        assert cand.values == out.values
                assert count == 1
                checked += 1
    assert checked == 6 * 6 * 4


# -- build_rho1 against the reference pair loop ----------------------------------


def assert_rho1_equal(rho, ref):
    assert json.dumps(instance_to_dict(rho.instance), sort_keys=True) == json.dumps(
        instance_to_dict(ref.instance), sort_keys=True
    )
    assert rho.tags == ref.tags
    assert rho.labels.keys() == ref.labels.keys()
    for key, fam in rho.labels.items():
        assert [(f.domain.basis, f.values) for f in fam.values()] == [
            (f.domain.basis, f.values) for f in ref.labels[key].values()
        ]


def test_build_rho1_matches_reference_on_magic_square(magic):
    """ell = 2 matches the reference; at ell = 3 > 2n the reference build is
    empty and build_rho1 raises NoVertices instead."""
    system, _ = magic
    assert_rho1_equal(build_rho1(system, 1, 2), reference_build_rho1(system, 1, 2))
    empty = reference_build_rho1(system, 1, 3)
    assert not empty.instance.variables and not empty.instance.constraints
    with pytest.raises(dkkms.NoVertices, match="no 1-tuple of equations has a low space of dimension 3 "):
        build_rho1(system, 1, 3)


def test_build_rho1_matches_reference_on_random_regular_systems():
    rng = random.Random(25)
    tags = []
    for i in range(12):
        system = random_regular_system(rng, 3 + i % 2, 9 + i % 3)
        rho = build_rho1(system, 1, 2)
        assert_rho1_equal(rho, reference_build_rho1(system, 1, 2))
        tags += rho.tags
    assert tags.count("1-to-1") >= 20 and tags.count("2-to-2") >= 20


def test_random_regular_system_names_sizes_it_cannot_fill():
    """3 equations on 5 variables fill 9 places, but at most 3 variables can
    lie in two equations, which gives at most 8: the draws stop at their
    bound with a ValueError naming the sizes."""
    with pytest.raises(ValueError, match="no regular system of 3 equations on 5 variables"):
        random_regular_system(random.Random(0), 3, 5)


def test_build_rho1_matches_reference_on_pairs_of_equations(monkeypatch):
    """n = 2 with ell = 2 and 3 (alphabet 8).  Each tuple has hundreds of
    low spaces, so both builds read the same seeded sample of four per
    tuple."""
    full = dkkms.enumerate_subspaces

    def sampled(restriction, dim, avoid=None):
        spaces = full(restriction, dim, avoid)
        rng = random.Random(repr((restriction.basis, avoid.basis)))
        return sorted(rng.sample(spaces, min(4, len(spaces))), key=lambda s: s.basis)

    monkeypatch.setattr(dkkms, "enumerate_subspaces", sampled)
    rng = random.Random(2)
    for ell in (2, 3, 2, 3, 2, 3):
        system = random_regular_system(rng, 4, 12)
        while len(legitimate_tuples(system, 2)) < 2:
            system = random_regular_system(rng, 4, 12)
        rho = build_rho1(system, 2, ell)
        assert len(rho.instance.alphabet) == 2**ell and rho.instance.constraints
        assert_rho1_equal(rho, reference_build_rho1(system, 2, ell))


def test_build_rho1_rejects_extensions_off_the_joint_space(magic, monkeypatch):
    """An extension that does not reach V + H_other fails the once-per-side
    domain check instead of being read through its value words."""
    system, _ = magic
    monkeypatch.setattr(dkkms, "_extend_labels", lambda domain, words, respected, new_rows: (domain, words))
    with pytest.raises(AmbientMismatch, match="does not contain the overlap"):
        build_rho1(system, 1, 2)


def test_extend_labels_matches_extend_functional_letter_by_letter(magic):
    """The one-elimination extension of a vertex's labels against
    `extend_functional` run once per label: the same extended basis and,
    letter by letter, the same values.  A respected condition whose word
    differs from its value bit times the constant column (its bit flipped,
    or a letter coefficient set) raises RespectViolation, as
    `extend_functional` does for at least one letter."""
    system, _ = magic
    rho1 = build_rho1(system, 1, 2)
    ell = rho1.ell
    n = system.ambient().dim
    conditions = {
        t: [(system.equation_vector(i), system.equations[i][1]) for i in t]
        for t in legitimate_tuples(system, 1)
    }

    def rows(conds, extra=0):
        return [v.bits | (b << ell ^ extra) << n for v, b in conds]

    checked = 0
    for key, vertex in list(rho1.vertices.items())[::3]:
        fam = rho1.labels[key]
        domain = fam[0].domain
        # a label's values are affine in its letter: recover the value words
        words = [
            sum((fam[1 << j].values[i] ^ fam[0].values[i]) << j for j in range(ell)) | fam[0].values[i] << ell
            for i in range(domain.dim)
        ]
        own = conditions[vertex.indices]
        for other, new in conditions.items():
            ext_domain, ext_words = dkkms._extend_labels(domain, words, rows(own), rows(new))
            for a, psi in fam.items():
                out = extend_functional(psi, own, new)
                assert out.domain.basis == ext_domain.basis
                assert out.values == tuple((w & (a | 1 << ell)).bit_count() & 1 for w in ext_words)
                checked += 1
        for extra in (1 << ell, 1, 2):
            with pytest.raises(RespectViolation):
                dkkms._extend_labels(domain, words, rows(own, extra), [])
            violated = []
            for a, psi in fam.items():
                flip = (extra & (a | 1 << ell)).bit_count() & 1
                try:
                    extend_functional(psi, [(v, b ^ flip) for v, b in own], [])
                except RespectViolation:
                    violated.append(a)
                assert (a in violated) == bool(flip)
            assert violated
    assert checked == 8 * 6 * 4
