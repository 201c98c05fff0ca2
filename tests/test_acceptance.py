"""Acceptance criteria, one test per criterion, with a printed verdict line.

Criteria 1, 2 and 5 concern the magic-square strategy, which cannot be made
level-1 compatible in game form on any Hilbert space (README, "Acceptance
status and a mathematical limit").  The consistency constraints force the row
marginal and the column marginal of each grid cell to be the same projector;
commutation across intersecting questions would then make all nine cell
observables commute, and a common eigenvector would solve the
5/6-satisfiable system classically.  These criteria check the proof's finite
premises on the objects the package builds, assert that the verifier rejects
level 1 with row/column commutator witnesses only, and assert level 1 where it
holds: on the nine cell observables over the system's own parity structure.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from chromagap import colouring, csp, dkkms, dmr, pultr, qop, relstruct
from chromagap.cli import pipeline_machinery
from chromagap.relstruct import ABOVE_CAP, clique, digraph
from helpers import random_digraph, random_faithful_template, random_template, structure_with_hom_from


from conftest import record_verdict


def verdict(number: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    record_verdict(line)


ROWS = range(3)
COLUMNS = range(3, 6)
"""Equation indices of the magic square's rows and columns."""


def is_row_column(a: int, b: int) -> bool:
    low, high = sorted((a, b))
    return low in ROWS and high in COLUMNS


def cell_marginal(family: dict, cell: str, bit: int, dim: int) -> qop.PMatrix:
    """The projector for `cell` = `bit` inside one equation's PVM."""
    return qop.matrix_sum([m for label, m in family.items() if dict(label)[cell] == bit], dim)


def parity_instance(system) -> csp.CspInstance:
    """The system's own structure: the grid cells as variables, one ternary
    parity constraint per equation."""
    return csp.CspInstance(
        system.variables,
        (0, 1),
        [
            (cells, {bits for bits in itertools.product((0, 1), repeat=3) if sum(bits) % 2 == rhs})
            for cells, rhs in system.equations
        ],
    )


def label_colourings(labelled: qop.QuantumAssignment, coloured: qop.QuantumAssignment) -> dict:
    """For each coloured vertex (x, z), the colour of each label of x, in the
    label order of `labelled`.  Every colour projector must be the sum of x's
    label projectors over one label set; it is looked up among all subset
    sums, so no matrix product is formed."""
    subset_sums = {}
    for x, family in labelled.pvms.items():
        subset_sums[x] = {
            qop.matrix_sum([family[a] for a in subset], labelled.dim): subset
            for size in range(1, len(family) + 1)
            for subset in itertools.combinations(family, size)
        }
    out = {}
    for (x, z), family in coloured.pvms.items():
        colour_of = {}
        for colour, projector in family.items():
            subset = subset_sums[x].get(projector)
            assert subset is not None, f"colour {colour} at {(x, z)!r} is no sum of label projectors"
            colour_of.update(dict.fromkeys(subset, colour))
        out[(x, z)] = tuple(colour_of[a] for a in labelled.pvms[x])
    return out


def separates(colourings, size: int) -> bool:
    """Whether the label colourings jointly tell all `size` labels apart."""
    return len({tuple(c[i] for c in colourings) for i in range(size)}) == size


@pytest.fixture(scope="module")
def magic():
    return qop.mermin_peres()


@pytest.fixture(scope="module")
def rho(magic):
    system, assignment = magic
    rho1 = dkkms.build_rho1(system, 1, 2)
    rho2 = dkkms.build_rho2(rho1)
    _, transferred = dkkms.rho_quantum_transfer(system, 1, 2, assignment, rho1=rho2)
    return rho1, rho2, transferred


@pytest.fixture(scope="module")
def eta_bundle(rho):
    _, rho2, transferred = rho
    eta, coloured, ctx = colouring.eta_quantum_transfer(rho2.instance, transferred, 0)
    return eta, coloured, ctx


def test_criterion_01_magic_square_pseudo_telepathy(magic):
    """sat(S) = 5/6 exactly, and the dimension-4 assignment is perfect with
    exact-zero forbidden products.  Level 1 holds where it can: the row and
    the column marginal of each cell are one projector, and the nine cell
    observables pass level 1 on the system's parity structure, while the
    game form is rejected on row/column commutators only."""
    system, assignment = magic
    t0 = time.time()
    brute = Fraction(
        max(
            sum(
                1
                for (vs, rhs) in system.equations
                if (bits[system.variables.index(vs[0])]
                    ^ bits[system.variables.index(vs[1])]
                    ^ bits[system.variables.index(vs[2])]) == rhs
            )
            for bits in itertools.product((0, 1), repeat=9)
        ),
        6,
    )
    sat_seconds = time.time() - t0
    assert brute == system.sat_value() == Fraction(5, 6)
    assert sat_seconds < 1.0
    assert assignment.dim == 4
    assert assignment.k == 0

    game = dkkms.game_csp(system, 1)
    X, A = csp.to_structures(game)
    perfect = qop.verify_assignment(X, A, assignment, 0)
    assert perfect.perfect and perfect.products_checked == 72

    # premise of the proof: perfectness pins one observable per cell
    observables = {}
    for cell in system.variables:
        row, column = (i for i, (vs, _) in enumerate(system.equations) if cell in vs)
        assert is_row_column(row, column)
        observables[cell] = {
            bit: cell_marginal(assignment.pvms[(row,)], cell, bit, assignment.dim)
            for bit in (0, 1)
        }
        for bit in (0, 1):
            column_marginal = cell_marginal(assignment.pvms[(column,)], cell, bit, assignment.dim)
            assert column_marginal == observables[cell][bit]

    # level 1 where it holds: each equation's three cells commute
    cells = qop.QuantumAssignment(assignment.dim, 1, observables)
    PX, PA = csp.to_structures(parity_instance(system))
    own = qop.verify_assignment(PX, PA, cells, 1)
    assert own.passed and own.products_checked == 24 and own.commutators_checked == 72
    # cells in different rows and columns need not commute
    beyond = qop.verify_assignment(PX, PA, cells, 2)
    assert beyond.perfect and beyond.commutator_violations

    # and where it cannot: across the intersecting questions of the game
    level1 = qop.verify_assignment(X, A, assignment, 1)
    assert level1.pvm_ok and not level1.product_violations
    assert not level1.passed and level1.commutator_violations
    assert all(
        is_row_column(w.witness[0][0], w.witness[1][0]) for w in level1.commutator_violations
    )
    verdict(
        1,
        True,
        f"sat=5/6 exact, forbidden products exact-zero ({perfect.products_checked}); "
        f"row and column marginals equal on 9 cells; cell observables level 1 on "
        f"the parity structure ({own.commutators_checked} commutators); game form "
        f"rejected at level 1 on row/column commutators only",
    )


def test_criterion_02_rho_at_desk_scale(magic, rho):
    """24 vertices, alphabet 4, only 1-to-1/2-to-2 tags, and full exact
    perfectness of the transferred assignment, within 30 s.  Every row/column
    equation pair is joined by a 2-to-2 constraint and every vertex carries
    its equation's game family relabelled, so level 1 on the instance is
    level 1 in game form: the verifier must reject it on row/column
    commutators only."""
    _, assignment = magic
    t0 = time.time()
    rho1, rho2, transferred = rho
    assert len(rho1.instance.variables) == 24
    assert len(rho1.instance.alphabet) == 4
    assert set(rho1.tags) <= {"1-to-1", "2-to-2"}
    assert transferred.k == assignment.k == 0

    X, A = csp.to_structures(rho2.instance)
    perfect = qop.verify_assignment(X, A, transferred, 0)
    assert perfect.perfect and perfect.products_checked == 1152

    def equation(vertex_key) -> int:
        (index,) = rho2.vertices[vertex_key].indices
        return index

    joined = {
        tuple(sorted(equation(v) for v in c.scope)) for c in rho2.instance.constraints
    }
    assert joined == {(r, c) for r in ROWS for c in COLUMNS}
    for key, family in transferred.pvms.items():
        game_family = assignment.pvms[(equation(key),)]
        assert len(family) == len(game_family)
        assert set(family.values()) == set(game_family.values())

    level1 = qop.verify_assignment(X, A, transferred, 1)
    seconds = time.time() - t0
    assert seconds < 30
    assert level1.pvm_ok and not level1.product_violations
    assert not level1.passed and level1.commutator_violations
    assert all(
        is_row_column(equation(w.witness[0]), equation(w.witness[1]))
        for w in level1.commutator_violations
    )
    verdict(
        2,
        True,
        f"24 vertices, alphabet 4, tags ok, full exact perfectness "
        f"({perfect.products_checked} products) in {seconds:.1f}s; all 9 row/column "
        f"pairs joined, 24 game families relabelled; level 1 rejected on "
        f"row/column commutators only",
    )


def test_criterion_03_eta_quantum_four_colouring(eta_bundle):
    """A verified quantum 4-colouring of the 6144-vertex reduced digraph on
    dimension 4: every forbidden product exactly zero."""
    eta, coloured, _ = eta_bundle
    assert len(eta.domain) == 6144
    assert coloured.dim == 4
    t0 = time.time()
    full = qop.verify_assignment(eta, clique(4), coloured, 0)
    full_seconds = time.time() - t0
    assert full.perfect and full.products_checked == 1_254_528
    assert full_seconds < 600
    verdict(
        3,
        True,
        f"6144 vertices, dim 4; full {full.products_checked} products "
        f"exact-zero in {full_seconds:.0f}s",
    )


def test_criterion_04_adjunction_oracle_two_hundred_cases():
    """The two sides of the adjunction agree on 200 seeded random cases."""
    rng = random.Random(2026)
    agreements = 0
    for _ in range(200):
        template = random_template(rng)
        dom = [f"x{i}" for i in range(rng.randint(1, 4))]
        X = relstruct.RelStructure(
            template.tau,
            dom,
            {
                name: {
                    tuple(rng.choice(dom) for _ in range(arity))
                    for _ in range(rng.randint(0, 3))
                }
                for name, arity in template.tau.symbols
            },
        )
        Y = random_digraph(rng, 4, 5)
        lam_side, gamma_side = pultr.adjunction_oracle(template, X, Y)
        assert lam_side == gamma_side
        agreements += 1
    verdict(4, True, f"lambda side equals gamma side on {agreements}/200 seeded cases")


def test_criterion_05_quantum_adjunction_transfers(rho, eta_bundle):
    """100 seeded classical-lift transfer cases at the contracted level with
    the dimension invariant, plus the line-digraph case built on the
    magic-square-derived colouring: it is perfect but not level-1 compatible,
    and both the verifier and the transfer must detect that."""
    rng = random.Random(515)
    gamma_cases = 0
    while gamma_cases < 50:
        template = random_template(rng)
        report = pultr.template_predicates(template)
        if not report.connected:
            continue
        dom = [f"x{i}" for i in range(rng.randint(1, 3))]
        X = relstruct.RelStructure(
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
        lam = pultr.left_apply(template, X)
        Y, f = structure_with_hom_from(rng, lam, 3)
        lift = qop.lift_classical(f)
        k = rng.choice([0, 1, 2])
        out = pultr.transfer_gamma(template, X, Y, lift, k)
        gy = pultr.central_apply(template, Y)
        assert qop.verify_assignment(X, gy, out, k).passed
        assert out.dim == lift.dim
        gamma_cases += 1

    lambda_cases = 0
    while lambda_cases < 50:
        template = random_faithful_template(rng)
        dom = [f"x{i}" for i in range(rng.randint(1, 3))]
        X = relstruct.RelStructure(
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
        Yb = random_digraph(rng, 3, 4)
        gy = pultr.central_apply(template, Yb)
        g = relstruct.find_homomorphism(X, gy)
        if g is None:
            continue
        lift = qop.lift_classical(g)
        k = rng.choice([0, 1, 2])
        out = pultr.transfer_lambda(template, X, Yb, lift, k)
        lam = pultr.left_apply(template, X)
        assert qop.verify_assignment(lam, Yb, out, k).passed
        assert out.dim == 1
        lambda_cases += 1

    # the line-digraph case derived from the magic square: its colouring is
    # perfect, but the transfer needs level 2k+2 and the colouring cannot
    # even be level 1, which the precheck must detect
    _, rho2, transferred = rho
    eta, coloured, _ = eta_bundle
    k4 = clique(4)
    precheck = qop.verify_assignment(eta, k4, coloured, 1, max_witnesses=1)
    assert precheck.pvm_ok and not precheck.product_violations
    assert not precheck.passed and precheck.commutator_violations

    # premise: at every vertex (x, z), the colour classes of its neighbours
    # over each adjacent rho2 variable x' separate the labels of x', so each
    # label projector of x' is a product of neighbouring colour projectors;
    # the (x, z) over all z separate the labels of x in the same way.  Level 1
    # on the colouring would then make the rho2 families commute at level 1,
    # which they do not (criterion 2).
    rho_x, rho_a = csp.to_structures(rho2.instance)
    assert qop.verify_assignment(rho_x, rho_a, transferred, 1, max_witnesses=1).commutator_violations
    rho_adjacency = rho_x.gaifman_adjacency()
    colourings = label_colourings(transferred, coloured)
    groups = 0
    for v, neighbours in eta.gaifman_adjacency().items():
        by_variable: dict = {}
        for w in neighbours:
            by_variable.setdefault(w[0], set()).add(colourings[w])
        assert set(by_variable) == set(rho_adjacency[v[0]])
        for xp, around in by_variable.items():
            assert separates(around, len(transferred.pvms[xp])), (v, xp)
            groups += 1
    by_x: dict = {}
    for (x, _), c in colourings.items():
        by_x.setdefault(x, set()).add(c)
    assert all(separates(cs, len(transferred.pvms[x])) for x, cs in by_x.items())

    # the witness arc alone is perfect, and the transfer refuses it
    u, v = precheck.commutator_violations[0].witness[:2]
    arc = (u, v) if (u, v) in eta.relations["E"] else (v, u)
    assert arc in eta.relations["E"]
    restricted = qop.QuantumAssignment(coloured.dim, coloured.k, {w: coloured.pvms[w] for w in arc})
    assert qop.verify_assignment(digraph([arc]), k4, restricted, 0).perfect
    with pytest.raises(pultr.CompatibilityTooLow):
        colouring.linedigraph_quantum_transfer(digraph([arc]), k4, restricted, 0)
    verdict(
        5,
        True,
        f"100/100 classical-lift transfers verified at contracted levels, dim invariant; "
        f"magic-square line-digraph case: level-1 precheck rejected on a commutator, "
        f"neighbour colour classes separate labels in all {groups} groups, "
        f"transfer on the witness arc raises CompatibilityTooLow",
    )


def test_criterion_06_line_digraph_chromatic():
    """chi of the doubly iterated line digraph of the 4-clique is exactly 3,
    and both colour-transfer implications hold on seeded digraphs."""
    t0 = time.time()
    delta2 = colouring.line_digraph(colouring.line_digraph(clique(4)))
    chi = relstruct.chromatic_number(delta2, 6)
    seconds = time.time() - t0
    assert chi == 3 and seconds < 10

    rng = random.Random(46)
    checked = 0
    while checked < 40:
        X = random_digraph(rng, 4, 5)
        if any(a == b for a, b in X.relations["E"]):
            continue
        dx = colouring.line_digraph(X)
        if not dx.domain:
            continue
        for n in (2, 3):
            alpha_n, beta_n = colouring.alpha_beta(n)
            if relstruct.chromatic_number(dx, n) is not ABOVE_CAP:
                assert relstruct.chromatic_number(X, alpha_n) is not ABOVE_CAP
            if relstruct.chromatic_number(X, beta_n) is not ABOVE_CAP:
                assert relstruct.chromatic_number(dx, n) is not ABOVE_CAP
            checked += 1
    verdict(6, True, f"chi(delta^2 K4) = 3 in {seconds:.1f}s; both bounds on {checked} seeded checks")


def test_criterion_07_transition_matrix_certificate():
    tm = colouring.build_transition_matrix(2)
    import numpy as np

    assert len(tm.states) == 16
    assert np.array_equal(tm.matrix, tm.matrix.T)
    assert tm.row_sum_residual < 1e-12
    assert tm.second_modulus < 1 - 1e-8
    for i, s in enumerate(tm.states):
        for j, t in enumerate(tm.states):
            intersects = bool(set(s) & set(t))
            assert (tm.matrix[i, j] == 0.0) == intersects
    verdict(
        7,
        True,
        f"16 states, symmetric, residual {tm.row_sum_residual:.1e}, "
        f"second modulus {tm.second_modulus:.3f}, zeros exactly on intersecting pairs",
    )


def test_criterion_08_extension_lemma_exhaustive(magic, rho):
    """Every (tuple, other-tuple, subspace, respecting functional) of the
    magic-square build has exactly one extension respecting the other tuple,
    and the solver returns it; zero discrepancies."""
    system, _ = magic
    rho1, _, _ = rho
    from chromagap.f2linalg import F2Functional, F2Subspace, extend_functional

    conditions = {
        t: [(system.equation_vector(i), system.equations[i][1]) for i in t]
        for t in dkkms.legitimate_tuples(system, 1)
    }
    checked = 0
    discrepancies = 0
    for key, vertex in rho1.vertices.items():
        for w, w_conditions in conditions.items():
            for a, psi in rho1.labels[key].items():
                out = extend_functional(psi, conditions[vertex.indices], w_conditions)
                target = psi.domain.sum(
                    F2Subspace.spanned_by([v for v, _ in w_conditions])
                )
                matches = []
                for bits in itertools.product((0, 1), repeat=target.dim):
                    cand = F2Functional(target, bits)
                    if all(
                        cand.evaluate_bits(b) == psi.evaluate_bits(b)
                        for b in psi.domain.basis
                    ) and cand.respects(w_conditions):
                        matches.append(cand)
                if len(matches) != 1 or matches[0].values != out.values:
                    discrepancies += 1
                checked += 1
    assert checked == 24 * 6 * 4
    assert discrepancies == 0
    verdict(8, True, f"{checked} extensions, brute force agrees, zero discrepancies")


def test_criterion_09_dmr_parameter_echo_and_ledger():
    params = dmr.pipeline_parameters(Fraction(1, 2), 2, 2)
    eps = Fraction(1, 2)
    delta = eps / (3 * 4)
    ell = math.ceil(1 / delta)
    eps1 = eps / (3 * 2 * ell**2 * 4)
    assert params["delta"] == delta
    assert params["ell"] == ell == 24
    assert params["eps_prime"] == eps1
    assert params["eps_double_prime"] == eps1 / 2
    assert params["eps_triple_prime"] == delta * eps1 / 4
    assert params["h"] == 2 and params["m"] == math.ceil(2 / eps1)

    pred = {("a0", "b0"), ("a1", "b0")}
    inst = csp.CspInstance(
        ["p", "q", "y"],
        ["a0", "a1", "b0"],
        [(("p", "y"), pred), (("q", "y"), pred)],
        [Fraction(1, 2), Fraction(1, 2)],
    )
    lift = qop.lift_classical({"p": "a0", "q": "a1", "y": "b0"})
    final, report, tracked = dmr.dmr_pipeline(inst, Fraction(12), 2, 1, lift)
    assert all(ok for _, ok in report.certificates)
    levels = [entry.split(":")[0] for _, entry in report.quantum_ledger]
    assert levels == ["level 4", "level 4", "level 2"]
    assert all("pass" in entry for _, entry in report.quantum_ledger)
    verdict(
        9,
        True,
        "parameter cascade exact (delta=1/24, eps'=1/27648, ...); certificates verified; "
        "quantum ledger 2k -> 2k -> k enforced by verifier runs",
    )


def test_criterion_10_machinery_end_to_end():
    t0 = time.time()
    report = pipeline_machinery(2, seed=0)
    seconds = time.time() - t0
    assert seconds < 300
    final_stage = report.stages[-1]
    assert final_stage.details["ledger"] == [10, 4, 1]
    assert "pass" in final_stage.details["verification"]
    assert final_stage.details["chi_delta2_k4"] == 3
    assert final_stage.details["final_bipartite"] is False
    assert not report.verdict.startswith("FAIL")
    verdict(
        10,
        True,
        f"ledger 10->4->1, verified 3-colouring witness, {seconds:.0f}s",
    )
