import itertools
import random
from fractions import Fraction

import pytest

from chromagap.csp import (
    CspInstance,
    NotBinary,
    _bipartite_split,
    augment_k,
    classify_label_cover,
    from_structures,
    isat_value,
    sat_value,
    to_structures,
)
from chromagap.relstruct import clique, digraph, find_homomorphism
from helpers import (
    brute_force_hom_exists,
    cyclic_garbage_of,
    random_csp_instance,
    reference_augment_k,
    reference_bipartite_split,
    reference_instance_error,
)


def xor_instance():
    """The magic-square system as a plain ternary CSP over bits."""
    grid = [[f"x{r}{c}" for c in range(3)] for r in range(3)]
    eqs = []
    for r in range(3):
        eqs.append(((grid[r][0], grid[r][1], grid[r][2]), 0))
    for c in range(3):
        eqs.append(((grid[0][c], grid[1][c], grid[2][c]), 1 if c == 2 else 0))
    constraints = []
    for scope, rhs in eqs:
        allowed = {
            bits for bits in itertools.product((0, 1), repeat=3) if sum(bits) % 2 == rhs
        }
        constraints.append((scope, allowed))
    return CspInstance([v for row in grid for v in row], [0, 1], constraints)


def test_sat_all_tuples_predicate():
    full = set(itertools.product((0, 1), repeat=2))
    inst = CspInstance(["x", "y"], [0, 1], [(("x", "y"), full)])
    assert sat_value(inst) == 1


def test_sat_magic_square_is_five_sixths():
    inst = xor_instance()
    assert sat_value(inst) == Fraction(5, 6)
    # brute-force oracle over all 2^9 assignments
    best = 0
    for bits in itertools.product((0, 1), repeat=9):
        f = dict(zip(inst.variables, bits))
        best = max(best, inst.value_of(f))
    assert best == Fraction(5, 6)


def test_sat_single_equation():
    allowed = {b for b in itertools.product((0, 1), repeat=3) if sum(b) % 2 == 1}
    inst = CspInstance(["x", "y", "z"], [0, 1], [(("x", "y", "z"), allowed)])
    assert sat_value(inst) == 1


def test_constructor_checks_match_the_tuple_scan_reference():
    """Random constraint lists with bad scope entries, wrong arities and
    several letters outside the alphabet (strings, floats, None, a tuple):
    the same ValueError message as the tuple-scan reference, so the same bad
    entry is named first, or the same accepted instance.  Letters equal to
    an alphabet entry of another type (True for 1, 2.0 for 2) are in it.
    Default weights are one shared Fraction(1, n)."""
    rng = random.Random(47)
    alphabet = [0, 1, 2, "a"]
    strays = ["b", 3.5, None, (0, 1), -1]
    kinds: set = set()
    for _ in range(300):
        variables = [f"x{i}" for i in range(rng.randint(1, 4))]
        constraints = []
        for _ in range(rng.randint(0, 4)):
            arity = rng.randint(1, 3)
            scope = [rng.choice(variables + ["ghost"] * (rng.random() < 0.05)) for _ in range(arity)]
            letters = alphabet + [True, 2.0] + strays * (rng.random() < 0.3)
            allowed = {
                tuple(rng.choice(letters) for _ in range(arity + (rng.random() < 0.03)))
                for _ in range(rng.randint(1, 6))
            }
            constraints.append((scope, allowed))
        expected = reference_instance_error(variables, alphabet, constraints)
        try:
            inst = CspInstance(variables, alphabet, constraints)
        except ValueError as exc:
            assert str(exc) == expected
            kinds.add(" ".join(expected.split()[:2]))
            continue
        assert expected is None
        weights = [c.weight for c in inst.constraints]
        assert all(w is weights[0] for w in weights) and sum(weights) == (1 if weights else 0)
        kinds.add("accepted")
    assert kinds == {"scope entry", "allowed tuple", "allowed entry", "accepted"}, kinds


def test_sat_weights_reject_zero():
    with pytest.raises(ValueError):
        CspInstance(["x"], [0], [(("x",), {(0,)})], [Fraction(0)])


def test_isat_full_alphabet_sets():
    eq = {(a, a) for a in range(3)}
    inst = CspInstance(["x", "y"], range(3), [(("x", "y"), eq)])
    assert isat_value(inst, 3) == 1


def test_isat_perfectly_satisfiable_t1():
    eq = {(a, a) for a in range(3)}
    inst = CspInstance(["x", "y"], range(3), [(("x", "y"), eq)])
    assert isat_value(inst, 1) == 1


def test_isat_empty_predicate_drops_one_endpoint():
    inst = CspInstance(["x", "y"], [0, 1], [(("x", "y"), set())])
    assert isat_value(inst, 2) == Fraction(1, 2)


def test_isat_rejects_a_negative_set_size():
    inst = CspInstance(["x", "y"], [0, 1], [(("x", "y"), {(0, 1)})])
    assert isat_value(inst, 0) == Fraction(1, 2)
    with pytest.raises(ValueError, match="t must be >= 0"):
        isat_value(inst, -1)


def test_isat_monotone_in_t():
    rng = random.Random(2)
    for _ in range(6):
        n = rng.randint(2, 4)
        variables = [f"x{i}" for i in range(n)]
        constraints = []
        for _ in range(rng.randint(1, 4)):
            scope = tuple(rng.sample(variables, 2))
            allowed = {
                (a, b)
                for a in range(3)
                for b in range(3)
                if rng.random() < 0.4
            }
            constraints.append((scope, allowed))
        inst = CspInstance(variables, range(3), constraints)
        values = [isat_value(inst, t) for t in (1, 2, 3)]
        assert values == sorted(values)


def test_sat_and_isat_leave_no_cyclic_garbage():
    differ = {(0, 1), (1, 0)}
    triangle = CspInstance(
        ["x", "y", "z"], [0, 1], [(("x", "y"), differ), (("y", "z"), differ), (("x", "z"), differ)]
    )
    assert cyclic_garbage_of(lambda: sat_value(triangle)) == (Fraction(2, 3), 0)
    assert cyclic_garbage_of(lambda: isat_value(triangle, 1)) == (Fraction(2, 3), 0)


def test_isat_requires_binary():
    inst = CspInstance(["x"], [0], [(("x",), {(0,)})])
    with pytest.raises(NotBinary):
        isat_value(inst, 1)


def test_classify_equality_is_one_to_one():
    eq = {(a, a) for a in range(4)}
    inst = CspInstance(["x", "y"], range(4), [(("x", "y"), eq)])
    profile = classify_label_cover(inst)
    assert profile.d_to_d is not None
    assert (profile.d_to_d.m, profile.d_to_d.d) == (4, 1)


def test_classify_full_predicate_is_d_to_d_single_block():
    full = {(a, b) for a in range(2) for b in range(2)}
    inst = CspInstance(["x", "y"], range(2), [(("x", "y"), full)])
    profile = classify_label_cover(inst)
    assert profile.d_to_d is not None
    assert (profile.d_to_d.m, profile.d_to_d.d) == (1, 2)


def test_classify_projective_d_to_1():
    pred = {("a0", "b0"), ("a1", "b0"), ("a2", "b1"), ("a3", "b1")}
    inst = CspInstance(
        ["x", "y"], ["a0", "a1", "a2", "a3", "b0", "b1"], [(("x", "y"), pred)]
    )
    profile = classify_label_cover(inst)
    assert profile.bipartite is not None
    assert profile.projective is not None
    assert profile.d_to_1 == 2


def test_classify_certificate_re_expands():
    """Soundness of the d-to-d certificate: the permutations rebuild the
    predicate bit-exactly (checked inside, re-checked here independently)."""
    rng = random.Random(7)
    for _ in range(10):
        d = rng.choice([1, 2])
        m = rng.choice([1, 2])
        n = m * d
        mu = list(range(n))
        nu = list(range(n))
        rng.shuffle(mu)
        rng.shuffle(nu)
        allowed = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if mu.index(a) // d == nu.index(b) // d
        }
        inst = CspInstance(["x", "y"], range(n), [(("x", "y"), allowed)])
        profile = classify_label_cover(inst)
        assert profile.d_to_d is not None
        assert profile.d_to_d.d == d and profile.d_to_d.m == m
        mu_c, nu_c = profile.d_to_d.permutations[0]
        rebuilt = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if mu_c.index(a) // d == nu_c.index(b) // d
        }
        assert rebuilt == allowed


def test_augment_weights():
    full = {(a, b) for a in (0, 1) for b in (0, 1)}
    inst = CspInstance(["x", "y"], [0, 1], [(("x", "y"), {(0, 1)})])
    out = augment_k(inst, 1)
    assert len(out.constraints) == 2
    assert out.constraints[0].weight == Fraction(1, 2)
    assert out.constraints[1].weight == Fraction(1, 2)
    assert out.constraints[1].allowed == frozenset(full)


def test_augment_k_at_diameter_covers_all_pairs():
    inst = CspInstance(
        ["x", "y", "z"],
        [0, 1],
        [(("x", "y"), {(0, 0)}), (("y", "z"), {(0, 0)})],
    )
    out = augment_k(inst, 2)
    new = [c for c in out.constraints if len(c.allowed) == 4]
    assert len(new) == 3  # all three unordered pairs


def test_augment_isolated_variables_untouched():
    inst = CspInstance(["x", "y", "z"], [0], [(("x", "y"), {(0, 0)})])
    out = augment_k(inst, 3)
    scopes = {c.scope for c in out.constraints}
    assert ("x", "z") not in scopes and ("z", "x") not in scopes


def test_bipartite_split_matches_reference():
    """Binary instances with self-scopes and unconstrained variables."""
    rng = random.Random(12)
    outcomes = {"split": 0, "none": 0, "self": 0, "free": 0}
    for _ in range(400):
        inst = random_csp_instance(rng, 2)
        got, want = _bipartite_split(inst), reference_bipartite_split(inst)
        assert got == want
        if got is not None:  # the sides iterate in the same order too
            assert [list(side) for side in got] == [list(side) for side in want]
        outcomes["none" if got is None else "split"] += 1
        outcomes["self"] += any(c.scope[0] == c.scope[1] for c in inst.constraints)
        used = {v for c in inst.constraints for v in c.scope}
        outcomes["free"] += len(used) < len(inst.variables)
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize("arity", [2, 3])
def test_augment_k_matches_reference(arity):
    """Same scopes, in the same order, with the same weights; some instances
    carry an arity-0 constraint, which joins no variables."""
    rng = random.Random(13 + arity)
    for trial in range(150):
        inst = random_csp_instance(rng, arity)
        if trial % 4 == 0:
            extra = [((), {()})] + [(c.scope, c.allowed) for c in inst.constraints]
            inst = CspInstance(inst.variables, inst.alphabet, extra)
        k = rng.randint(1, 3)
        got, want = augment_k(inst, k), reference_augment_k(inst, k)
        assert got.variables == want.variables and got.alphabet == want.alphabet
        assert [(c.scope, c.allowed, c.weight) for c in got.constraints] == [
            (c.scope, c.allowed, c.weight) for c in want.constraints
        ]


def test_structures_round_trip():
    inst = xor_instance()
    X, A = to_structures(inst)
    back = from_structures(X, A)
    assert set(back.variables) == set(inst.variables)
    assert sat_value(back) == sat_value(inst)


def test_two_identical_predicates_share_symbol():
    eq = {(0, 0), (1, 1)}
    inst = CspInstance(["x", "y", "z"], [0, 1], [(("x", "y"), eq), (("y", "z"), eq)])
    X, A = to_structures(inst)
    assert len(X.signature.symbols) == 1
    assert len(X.relations["R0"]) == 2


def test_sat_one_iff_homomorphism():
    C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    for target in (clique(2), clique(3)):
        inst = from_structures(C5, target)
        assert (sat_value(inst) == 1) == brute_force_hom_exists(C5, target)
        assert (sat_value(inst) == 1) == (find_homomorphism(C5, target) is not None)


def test_from_structures_c5_k3_perfect():
    C5 = digraph([(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    inst = from_structures(C5, clique(3))
    assert sat_value(inst) == 1


def test_augmentation_preserves_optimal_assignments():
    inst = xor_instance()
    out = augment_k(inst, 1)
    # the new constraints are always satisfied, so optima coincide
    assert sat_value(out) == Fraction(1, 2) + sat_value(inst) / 2
