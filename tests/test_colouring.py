import collections
import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from chromagap import colouring, pultr
from chromagap.colouring import (
    alpha_beta,
    build_transition_matrix,
    eta_apply,
    eta_context,
    eta_quantum_transfer,
    line_digraph,
    linedigraph_quantum_transfer,
    xi_colouring,
)
from chromagap.csp import CspInstance
from chromagap.dkkms import build_rho1, build_rho2
from chromagap.pultr import left_apply, template_predicates
from chromagap.qop import (
    PMatrix,
    QuantumAssignment,
    VerificationFailure,
    lift_classical,
    mermin_peres,
    verify_assignment,
)
from chromagap.relstruct import (
    ABOVE_CAP,
    GRAPH_SIGNATURE,
    RelStructure,
    UnknownVertex,
    chromatic_number,
    clique,
    digraph,
    find_homomorphism,
    is_bipartite,
    product_sides,
    relabel,
    symmetrize,
)
from helpers import (
    all_pairs_template_predicates,
    block_images,
    digit,
    quotient_classes,
    random_digraph,
    reference_eta_apply,
    reference_eta_context,
    reference_eta_pair_lists,
    reference_is_bipartite,
    reference_left_apply,
    reference_line_digraph,
    reference_relabel,
    reference_verify_assignment,
    reference_transfer_lambda,
    reference_xi_colouring,
    without_view,
)


def test_line_digraph_two_path():
    out = line_digraph(digraph([("a", "b"), ("b", "c")]))
    assert set(out.domain) == {("a", "b"), ("b", "c")}
    assert out.relations["E"] == {(("a", "b"), ("b", "c"))}


def test_line_digraph_single_edge():
    out = line_digraph(digraph([("a", "b")]))
    assert len(out.domain) == 1 and not out.relations["E"]


def test_line_digraph_symmetrized_k2():
    out = line_digraph(symmetrize(digraph([("a", "b")])))
    assert len(out.domain) == 2
    assert out.relations["E"] == {
        (("a", "b"), ("b", "a")),
        (("b", "a"), ("a", "b")),
    }


def test_line_digraph_matches_reference():
    """Same domain, relations and canonical tuple order as the reference
    built through the public constructor, on digraphs with loops, isolated
    vertices and a domain order unlike the vertex names' own order, and on
    iterated line digraphs."""
    rng = random.Random(41)
    seen_loop = False
    for case in range(200):
        X = random_digraph(rng, 7, 16)
        names = list(reversed(X.domain)) + ["iso"]
        X = RelStructure(GRAPH_SIGNATURE, names, X.relations)
        if case % 10 == 0:
            X = line_digraph(X)
        got, expected = line_digraph(X), reference_line_digraph(X)
        assert got.domain == expected.domain and got.relations == expected.relations
        index = expected.index
        assert list(got.ordered("E")) == sorted(expected.relations["E"], key=lambda t: tuple(map(index, t)))
        seen_loop |= any(a == b for a, b in X.relations["E"])
    assert seen_loop


def _unbuilt(X: RelStructure) -> bool:
    """Whether X's relation sets are deferred and not yet built."""
    return getattr(X, "_build", None) is not None


def _with_source_sink_and_isolated(rng: random.Random) -> RelStructure:
    """A random digraph, loops allowed, with a source, a sink and an
    isolated vertex added, in shuffled domain order."""
    X = random_digraph(rng, 6, 12)
    edges = set(X.relations["E"]) | {("src", rng.choice(X.domain)), (rng.choice(X.domain), "snk")}
    names = [*X.domain, "src", "snk", "iso"]
    rng.shuffle(names)
    return RelStructure(GRAPH_SIGNATURE, names, {"E": edges})


def test_line_digraph_copies_and_their_readers_match_the_references():
    """Random digraphs with loops, a source, a sink and an isolated vertex,
    and their first and second line digraphs.  The block view holds one
    copy per vertex b with in- and out-edges, in domain order: in(b), then
    out(b), each in canonical order, on a complete bipartite gadget.  The
    copies cover the reference's edges without overlap, and `count` reads
    their number without building the edges.  `relabel` renames the copies
    and defers its relations, which match the reference's.  `is_bipartite`
    gives the edge-by-edge reference's verdict on the line digraph and on
    its relabelling, before either builds its edges, and on the structure
    without its view; both verdicts occur at every depth."""
    rng = random.Random(53)
    shapes: set = set()
    verdicts: collections.Counter = collections.Counter()
    for _ in range(40):
        X = _with_source_sink_and_isolated(rng)
        for depth in (1, 2):
            got, expected = line_digraph(X), reference_line_digraph(X)
            assert got.domain == expected.domain and got._disjoint and _unbuilt(got)
            assert got.count("E") == len(expected.relations["E"]) and _unbuilt(got)
            middles = [b for b in X.domain if any(e[1] == b for e in got.domain) and any(e[0] == b for e in got.domain)]
            copies = {}
            for gadget, maps in got._blocks:
                p_side, q_side = product_sides(gadget, "E")
                assert (p_side, q_side) == (list(range(len(p_side))), list(range(len(p_side), len(gadget.domain))))
                shapes.add((len(p_side), len(q_side)))
                for m in maps:
                    b = m[0][1]
                    assert list(m) == [e for e in got.domain if e[1] == b] + [e for e in got.domain if e[0] == b]
                    copies[b] = m
            assert sorted(copies, key=X.index) == middles
            images = block_images(got, "E")
            assert len(images) == len(set(images)) and set(images) == expected.relations["E"]

            renamed, mapping = relabel(got, "r")
            ref_renamed, ref_mapping = reference_relabel(expected, "r")
            verdict = reference_is_bipartite(expected)
            assert is_bipartite(got) == is_bipartite(renamed) == verdict
            assert _unbuilt(got) and _unbuilt(renamed) and renamed._disjoint
            assert mapping == ref_mapping and set(block_images(renamed, "E")) == ref_renamed.relations["E"]
            assert renamed.domain == ref_renamed.domain and renamed.relations == ref_renamed.relations
            assert is_bipartite(without_view(got)) == verdict
            verdicts[depth, verdict] += 1
            X = got
    assert min(verdicts[depth, v] for depth in (1, 2) for v in (True, False)) >= 3, verdicts
    assert len(shapes) >= 3, shapes


def _broken_at_one_vertex(D: RelStructure, Y: RelStructure, assignment: QuantumAssignment) -> QuantumAssignment:
    """The assignment with the family of the tail e of D's first edge (e, f)
    replaced by the identity on one label h of Y, chosen so that (h, h') is
    outside Y's relation for a label h' of f: a nonzero forbidden product."""
    e, f = D.ordered("E")[0]
    h = next(h for h in Y.domain if any((h, hf) not in Y.relations["E"] for hf in assignment.pvms[f]))
    return QuantumAssignment(assignment.dim, assignment.k, {**assignment.pvms, e: {h: PMatrix.identity(2)}})


def test_verify_assignment_on_line_digraphs_matches_the_references():
    """Classical lifts, of homomorphisms and of random maps, and dim-2
    assignments transferred once and twice from Hadamard-basis splits over
    two 4-colourings, one of them broken at one vertex so that a product is
    nonzero and the witnesses must agree: on first and second line
    digraphs, the same report at levels 0 and 1 as the tuple-by-tuple
    reference and as the verifier on the structure without its view.  A
    passing classical check leaves the line digraph's edges unbuilt."""
    rng = random.Random(61)
    K4 = clique(4)
    shift = {f"k{i}": f"k{(i + 1) % 4}" for i in range(4)}  # an automorphism of K4 without fixed points
    kinds: set = set()
    for case in range(40):
        X = _with_source_sink_and_isolated(rng)
        if case % 2 == 0:
            Y = [clique(3), line_digraph(clique(3))][case % 4 // 2]
            D = line_digraph(X)
            f = find_homomorphism(reference_line_digraph(X), Y) if case % 8 < 4 else None
            f = f or {v: rng.choice(Y.domain) for v in D.domain}
            runs = [(D, Y, lift_classical(f), "classical")]
        else:
            X = RelStructure(GRAPH_SIGNATURE, X.domain, {"E": [e for e in X.relations["E"] if e[0] != e[1]]})
            f = find_homomorphism(X, K4)
            splits = QuantumAssignment(2, 10, {x: {f[x]: HADAMARD[0], shift[f[x]]: HADAMARD[1]} for x in X.domain})
            D, DY = line_digraph(X), line_digraph(K4)
            once = linedigraph_quantum_transfer(X, K4, splits, 4, gamma_x=D)
            DD = line_digraph(D)
            twice = linedigraph_quantum_transfer(D, DY, once, 1, gamma_x=DD)
            runs = [(D, DY, once, "dim 2"), (DD, line_digraph(DY), twice, "dim 2")]
            if D.relations["E"]:
                runs.append((D, DY, _broken_at_one_vertex(D, DY, once), "broken"))
        for D, Y, assignment, kind in runs:
            for k in (0, 1):
                got = verify_assignment(D, Y, assignment, k)
                if kind == "classical" and got.passed and k == 0:  # the first read of D
                    assert _unbuilt(D)
                    kinds.add("unbuilt")
                assert got == reference_verify_assignment(D, Y, assignment, k)
                assert got == verify_assignment(without_view(D), Y, assignment, k)
                assert kind != "broken" or got.product_violations
                kinds.add((kind, got.passed))
    assert kinds == {("classical", True), ("classical", False), ("dim 2", True), ("broken", False), "unbuilt"}, kinds


def test_alpha_beta_values():
    assert alpha_beta(2) == (4, 2)
    assert alpha_beta(4) == (16, 6)
    for n in range(1, 21):
        a, b = alpha_beta(n)
        assert a >= b


def test_transition_matrix_certificate():
    tm = build_transition_matrix(2)
    assert len(tm.states) == 16
    assert tm.row_sum_residual < 1e-12
    assert np.array_equal(tm.matrix, tm.matrix.T)
    assert tm.second_modulus < 1 - 1e-8
    assert list(tm.spectrum) == sorted(np.linalg.eigvalsh(tm.matrix).tolist())
    assert tm.spectrum[-1] == max(tm.spectrum) and tm.second_modulus == max(map(abs, tm.spectrum[:-1]))
    for i, s in enumerate(tm.states):
        for j, t in enumerate(tm.states):
            if set(s) & set(t):
                assert tm.matrix[i, j] == 0.0
                assert (i, j) not in tm.support
            else:
                assert tm.matrix[i, j] > 0.0
                assert (i, j) in tm.support


def test_transition_matrix_rows_sum_to_one():
    tm = build_transition_matrix(2)
    assert np.abs(tm.matrix.sum(axis=1) - 1).max() < 1e-12


def full_d2_instance():
    """Two variables, one constraint with the full binary predicate over a
    two-letter alphabet: d-to-d with one block."""
    full = {(a, b) for a in range(2) for b in range(2)}
    return CspInstance(["x", "y"], range(2), [(("x", "y"), full)])


def test_eta_constraint_free_variables_become_isolated_blocks():
    full = {(a, b) for a in range(2) for b in range(2)}
    inst = CspInstance(["x", "y", "z"], range(2), [(("x", "y"), full)])
    ctx = eta_context(inst)
    eta = eta_apply(ctx)
    assert len(eta.domain) == 3 * 16
    isolated = [v for v in eta.domain if v[0] == "z"]
    adj = eta.gaifman_adjacency()
    assert all(not adj[v] for v in isolated)


def test_eta_edge_count_matches_brute_force():
    inst = full_d2_instance()
    ctx = eta_context(inst)
    eta = eta_apply(ctx)
    mu, nu = ctx.mu_nu[ctx.symbols[0]]
    base, n = 4, 2
    count = 0
    for z in range(base**n):
        za = {(z // base ** mu[0]) % base, (z // base ** mu[1]) % base}
        for zp in range(base**n):
            zb = {(zp // base ** nu[0]) % base, (zp // base ** nu[1]) % base}
            if not za & zb:
                count += 1
    assert len(eta.relations["E"]) == count == 84


def two_symbol_instance():
    """A 2-to-2 instance on four labels whose constraints fall into two
    permutation pairs, one of them shared by two scopes."""
    same_half = {(a, b) for a in range(4) for b in range(4) if a // 2 == b // 2}
    parity_half = {(a, b) for a in range(4) for b in range(4) if a % 2 == b // 2}
    return CspInstance(
        ["x", "y", "z"],
        range(4),
        [(("x", "y"), same_half), (("y", "z"), parity_half), (("x", "z"), same_half)],
    )


def _gadget_pairs(ctx, name) -> list:
    """The (z, z') pairs of a symbol, read off its gadget's edges in order."""
    return [(z, zp) for (_, z), (_, zp) in ctx.template.B[name].ordered("E")]


def test_eta_apply_edges_are_the_gadget_edges_in_order():
    inst = two_symbol_instance()
    ctx = eta_context(inst)
    assert len(ctx.symbols) == 2
    base = 2 * ctx.d
    var_pos = {x: i for i, x in enumerate(inst.variables)}
    expected = []
    for name in ctx.symbols:
        mu, nu = ctx.mu_nu[name]
        # pairs in (z, z') order, by a direct digit test of block disjointness
        pairs = [
            (z, zp)
            for z in range(base**ctx.n)
            for zp in range(base**ctx.n)
            if all(
                not {(z // base ** mu[ctx.d * i + j]) % base for j in range(ctx.d)}
                & {(zp // base ** nu[ctx.d * i + j]) % base for j in range(ctx.d)}
                for i in range(ctx.m)
            )
        ]
        gadget = ctx.template.B[name].relations["E"]
        assert _gadget_pairs(ctx, name) == pairs
        assert {((1, z), (2, zp)) for z, zp in pairs} == gadget
        scopes = sorted(
            ctx.variable_structure.relations[name], key=lambda t: tuple(var_pos[v] for v in t)
        )
        for x, xp in scopes:
            expected += [((x, z), (xp, zp)) for (_, z), (_, zp) in sorted(gadget)]
    eta = eta_apply(ctx)
    assert len(expected) == len(eta.relations["E"]) == 3 * 7056
    # the same edges, inserted in the same order, iterate identically
    assert list(eta.relations["E"]) == list(frozenset(expected))


def test_eta_apply_inserts_the_scopes_in_canonical_order():
    """The copies go in canonical scope order, not in the scope set's order:
    on a 5-cycle of integer variables, whose scope set iterates in a fixed
    order unlike the canonical one, the edges iterate as the gadget edges
    inserted scope by scope in canonical order, and the block view lists
    the copies in that order."""
    same_half = {(a, b) for a in range(4) for b in range(4) if a // 2 == b // 2}
    inst = CspInstance(range(5), range(4), [((i, (i + 1) % 5), same_half) for i in range(5)])
    ctx = eta_context(inst)
    [name] = ctx.symbols
    scopes = ctx.variable_structure.ordered(name)
    assert list(ctx.variable_structure.relations[name]) != list(scopes)
    pairs = _gadget_pairs(ctx, name)
    expected = [((x, z), (xp, zp)) for x, xp in scopes for z, zp in pairs]
    eta = eta_apply(ctx)
    assert list(eta.relations["E"]) == list(frozenset(expected))
    _, (_, maps) = eta._blocks
    assert [(m[0][0], m[-1][0]) for m in maps] == list(scopes)


def test_eta_apply_rejects_classes_it_cannot_name():
    """eta_apply names each class of the left functor after its one copy
    vertex of A; with a non-injective eps_1 gadget vertices are glued to no
    copy of A, and with both eps maps onto one copy of the gadget copies of
    A merge.  Either raises instead of returning a digraph with merged
    vertices or vertices named after gadget tags."""
    ctx = eta_context(two_symbol_instance())
    name = ctx.symbols[0]
    eps1, eps2 = ctx.template.eps[name]
    collapsed = {z: eps1[0] for z in eps1}
    one_copy = RelStructure(GRAPH_SIGNATURE, list(eps1.values()), {})
    variants = [
        ({}, (collapsed, eps2), "has no copy vertex of A"),
        ({name: one_copy}, (eps1, eps1), "classes for .* copy vertices of A"),
    ]
    for gadgets, maps, message in variants:
        template = dataclasses.replace(
            ctx.template, B={**ctx.template.B, **gadgets}, eps={**ctx.template.eps, name: maps}
        )
        with pytest.raises(VerificationFailure, match=message):
            eta_apply(dataclasses.replace(ctx, template=template))


def test_eta_template_predicates_match_all_pairs_reference():
    for inst in (full_d2_instance(), two_symbol_instance()):
        template = eta_context(inst).template
        report = template_predicates(template)
        assert report == all_pairs_template_predicates(template)
        assert not report.connected and report.diameter is None and report.faithful


def test_eta_equals_left_functor_on_small_instance():
    inst = full_d2_instance()
    ctx = eta_context(inst)
    eta = eta_apply(ctx)
    lam = left_apply(ctx.template, ctx.variable_structure)
    rename = {}
    for class_name, members in quotient_classes(pultr.lambda_quotient(ctx.template, ctx.variable_structure)).items():
        a_tags = [t for t in members if t[0] == "A"]
        assert len(a_tags) == 1
        rename[class_name] = (a_tags[0][1], a_tags[0][2])
    renamed_edges = {
        (rename[u], rename[v]) for (u, v) in lam.relations["E"]
    }
    assert renamed_edges == set(eta.relations["E"])
    assert {rename[v] for v in lam.domain} == set(eta.domain)


def test_xi_colouring_is_well_defined_homomorphism():
    inst = full_d2_instance()
    ctx = eta_context(inst)
    xi, lam_target, _ = xi_colouring(ctx)
    # image uses all 2d colours
    assert set(xi.values()) == {f"k{i}" for i in range(4)}


def _xi_outcome(colour, ctx):
    """The colouring in class order with the quotient's tags, heads and
    class names, or the type and message of the exception raised."""
    try:
        xi, lam_target, q = colour(ctx)
    except Exception as exc:  # compared by type and message across the two paths
        return type(exc), str(exc)
    return list(xi.items()), lam_target.domain, q.tags, q.class_of_id, list(q.class_name.items())


def test_xi_colouring_matches_the_tag_by_tag_reference():
    """The colour columns give the reference's colouring on small instances
    and on the rho2 instance; with the eps maps of every symbol swapped, a
    gadget vertex reads the other end's digit and the colouring is
    ill-defined, and with the last two labels of the alphabet swapped the
    colouring is well defined but not a homomorphism: the same error and
    message either way."""
    system, _ = mermin_peres()
    contexts = [eta_context(inst) for inst in (full_d2_instance(), two_symbol_instance())]
    contexts.append(eta_context(build_rho2(build_rho1(system, 1, 2)).instance))
    template = contexts[1].template
    swapped = dataclasses.replace(template, eps={name: maps[::-1] for name, maps in template.eps.items()})
    inst = contexts[1].instance
    swapped_labels = CspInstance(inst.variables, (0, 1, 3, 2), [(c.scope, c.allowed) for c in inst.constraints])
    contexts.append(dataclasses.replace(contexts[1], template=swapped))
    contexts.append(dataclasses.replace(contexts[1], instance=swapped_labels))
    got = [_xi_outcome(xi_colouring, ctx) for ctx in contexts]
    assert got == [_xi_outcome(reference_xi_colouring, ctx) for ctx in contexts]
    assert got[3] == (VerificationFailure, "colouring ill-defined on class ('A', 0, 1): ['k0', 'k1']")
    assert got[4] == (VerificationFailure, "canonical colouring is not a homomorphism")
    assert not any(isinstance(out[0], type) for out in got[:3])


def test_eta_quantum_transfer_of_classical_lift_matches_xi_composition():
    inst = full_d2_instance()
    ctx = eta_context(inst)
    f = {"x": 0, "y": 1}
    lift = lift_classical(f)
    eta, coloured, _ = eta_quantum_transfer(inst, lift, 1)
    assert coloured.dim == 1
    report = verify_assignment(eta, clique(4), coloured, 1)
    assert report.passed
    # classical comparison: (v, z) gets colour z(f(v))
    for (v, z), fam in coloured.pvms.items():
        label = next(iter(fam))
        digit = (z // 4 ** f[v]) % 4
        assert label == f"k{digit}"


def test_thm_line_digraph_colour_bounds_random():
    """Both colour-transfer directions hold on random digraphs: n-colourable
    line digraph forces 2^n-colourable base, and binomial(n, n/2)-colourable
    base forces n-colourable line digraph."""
    rng = random.Random(31)
    for _ in range(25):
        X = random_digraph(rng, 4, 5)
        if any(a == b for a, b in X.relations["E"]):
            continue
        dx = line_digraph(X)
        if not dx.domain:
            continue
        for n in (2, 3):
            a_n, b_n = alpha_beta(n)
            chi_dx = chromatic_number(dx, n)
            if chi_dx is not ABOVE_CAP and chi_dx <= n:
                assert chromatic_number(X, a_n) is not ABOVE_CAP
            chi_x = chromatic_number(X, b_n)
            if chi_x is not ABOVE_CAP and chi_x <= b_n:
                assert chromatic_number(dx, n) is not ABOVE_CAP


def test_linedigraph_quantum_transfer_levels():
    X = digraph([("a", "b"), ("b", "c"), ("c", "a"), ("b", "d")])
    K4 = clique(4)
    lift = lift_classical(find_homomorphism(X, K4))
    out = linedigraph_quantum_transfer(X, K4, lift, 1)
    dx, dk4 = line_digraph(X), line_digraph(K4)
    assert verify_assignment(dx, dk4, out, 1).passed
    assert out.dim == 1


def test_eta_context_rejects_one_to_one_instances():
    """A permutation constraint is 1-to-1; the reduction needs d >= 2."""
    inst = CspInstance(["x", "y"], [0, 1], [(("x", "y"), {(0, 1), (1, 0)})])
    with pytest.raises(ValueError, match="d must be >= 2"):
        eta_context(inst)


def test_eta_pair_lists_match_all_pairs_reference_on_rho2():
    system, _ = mermin_peres()
    ctx = eta_context(build_rho2(build_rho1(system, 1, 2)).instance)
    assert len(ctx.symbols) == 15
    assert {name: _gadget_pairs(ctx, name) for name in ctx.symbols} == reference_eta_pair_lists(ctx)


def test_eta_gadget_edges_and_eps_maps_hold_the_domain_vertices():
    """Each gadget's edges and eps maps refer to its domain's own vertex
    objects, not equal copies: one object per vertex, whatever the number
    of edges it lies on."""
    ctx = eta_context(two_symbol_instance())
    for name in ctx.symbols:
        bt = ctx.template.B[name]
        own = {id(v) for v in bt.domain}
        assert {id(v) for e in bt.relations["E"] for v in e} <= own
        assert {id(v) for m in ctx.template.eps[name] for v in m.values()} == own

HALF = Fraction(1, 2)
STANDARD = (PMatrix.from_rows([[1, 0], [0, 0]]), PMatrix.from_rows([[0, 0], [0, 1]]))
HADAMARD = (
    PMatrix.from_rows([[HALF, HALF], [HALF, HALF]]),
    PMatrix.from_rows([[HALF, -HALF], [-HALF, HALF]]),
)


def _eta_outcome(inst, assignment):
    try:
        eta, coloured, _ = eta_quantum_transfer(inst, assignment, 0, check_input=False)
    except Exception as exc:  # compared by type and message across the two paths
        return type(exc), str(exc)
    return (
        eta.domain,
        eta.relations,
        [(v, list(fam.items())) for v, fam in coloured.pvms.items()],
    )


def test_eta_transfer_matches_reference_layers(monkeypatch):
    """The eta transfer gives the same digraph and ordered families, or the
    same exception, when the faithful transfer and the left functor are the
    references: for a classical lift, diagonal and non-diagonal perfect
    inputs, and an input whose transfer is ill-defined."""
    inst = two_symbol_instance()
    # two solutions side by side, one per basis vector or per Hadamard vector
    s1, s2 = {"x": 0, "y": 0, "z": 1}, {"x": 2, "y": 3, "z": 2}

    def split(p, q, v):
        return {s1[v]: p, s2[v]: q}

    assignments = [
        lift_classical(s1),
        QuantumAssignment(2, 0, {v: split(*STANDARD, v) for v in inst.variables}),
        QuantumAssignment(2, 0, {v: split(*HADAMARD, v) for v in inst.variables}),
        QuantumAssignment(
            2, 0, {v: split(*(HADAMARD if v == "y" else STANDARD), v) for v in inst.variables}
        ),
    ]
    got = [_eta_outcome(inst, a) for a in assignments]
    monkeypatch.setattr(pultr, "transfer_lambda", reference_transfer_lambda)
    monkeypatch.setattr(pultr, "left_apply", reference_left_apply)
    monkeypatch.setattr(colouring, "left_apply", reference_left_apply)
    assert got == [_eta_outcome(inst, a) for a in assignments]
    assert not any(isinstance(out[0], type) for out in got[:3])
    assert got[3][0] is pultr.WellDefinednessViolation


def test_perfect_eta_transfer_never_builds_the_glued_targets_relations(monkeypatch):
    """With a perfect input, the canonical colouring is checked copy by copy
    and every nonzero product of the faithful transfer lies on a copy of a
    gadget in the glued target's block view, so its relations are never
    built; nor are the returned eta digraph's until the check reads them:
    for a classical lift and for split inputs in the standard and the
    Hadamard basis, on two instances."""
    built = []

    def capturing_left_apply(*args, **kwargs):
        out = left_apply(*args, **kwargs)
        built.append((args[1], out))
        return out

    monkeypatch.setattr(colouring, "left_apply", capturing_left_apply)
    two = two_symbol_instance()
    s1, s2 = {"x": 0, "y": 0, "z": 1}, {"x": 2, "y": 3, "z": 2}
    runs = [(full_d2_instance(), lift_classical({"x": 0, "y": 1}))] + [
        (two, QuantumAssignment(2, 0, {v: {s1[v]: p, s2[v]: q} for v in two.variables}))
        for p, q in (STANDARD, HADAMARD)
    ]
    for inst, assignment in runs:
        built.clear()
        eta, coloured, ctx = eta_quantum_transfer(inst, assignment, 0)
        [lam_target] = [out for X, out in built if X is ctx.target]
        assert lam_target._blocks is not None
        assert getattr(lam_target, "_build", None) is not None  # its builder never ran
        assert getattr(eta, "_build", None) is not None  # nor did the eta digraph's
        assert verify_assignment(eta, clique(4), coloured, 0).passed


def test_eta_transfer_on_rho2_never_checks_a_glued_map(monkeypatch):
    """Every glued label tuple behind a nonzero product of the magic-square
    strategy's transfer on the rho2 instance is a copy of its gadget in the
    glued target's block view, so no map out of a gadget is checked.  The
    same transfer onto the glued target rebuilt without its view has to
    check, for every symbol."""
    from chromagap.dkkms import rho_quantum_transfer

    system, game = mermin_peres()
    rho2 = build_rho2(build_rho1(system, 1, 2))
    _, strategy = rho_quantum_transfer(system, 1, 2, game, rho1=rho2)
    checked = []
    check = pultr.check_homomorphism

    def counted(f, X, Y):
        checked.append(X)
        return check(f, X, Y)

    monkeypatch.setattr(pultr, "check_homomorphism", counted)

    def gadget_checks(template) -> collections.Counter:
        return collections.Counter(name for X in checked for name, B in template.B.items() if X is B)

    eta, coloured, ctx = eta_quantum_transfer(rho2.instance, strategy, 0, check_input=False)
    assert len(ctx.symbols) == 15 and set(coloured.pvms) == set(eta.domain)
    assert gadget_checks(ctx.template) == {}
    inst = two_symbol_instance()
    s1, s2 = {"x": 0, "y": 0, "z": 1}, {"x": 2, "y": 3, "z": 2}
    split = QuantumAssignment(2, 0, {v: {s1[v]: STANDARD[0], s2[v]: STANDARD[1]} for v in inst.variables})
    small = eta_context(inst)
    checked.clear()
    monkeypatch.setattr(pultr, "left_apply", lambda *args, **kwargs: without_view(left_apply(*args, **kwargs)))
    pultr.lambda_functor(small.template, small.variable_structure, small.target, split, 0)
    assert sorted(gadget_checks(small.template)) == list(small.symbols)


def test_eta_transfer_names_an_unknown_vertex_in_a_glued_label():
    """A label that holds a vertex outside the glued target is no map into
    it: the glued check raises UnknownVertex naming that vertex, as
    `check_homomorphism` does, instead of dropping the tuple and reporting
    the class as ill-defined.  The same labels without the bogus vertex
    transfer."""
    inst = two_symbol_instance()
    ctx = eta_context(inst)
    template, X, target = ctx.template, ctx.variable_structure, ctx.target
    qy = pultr.lambda_quotient(template, target)
    unit = pultr.adjunction_unit(template, target, qy)
    Y = left_apply(template, target, quotient=qy)
    labels = {x: unit[c] for x, c in {"x": 0, "y": 0, "z": 1}.items()}
    assert pultr.transfer_lambda(template, X, Y, lift_classical(labels), 0).pvms
    labels["x"] = ("bogus",) + labels["x"][1:]
    with pytest.raises(UnknownVertex, match="'bogus'"):
        pultr.transfer_lambda(template, X, Y, lift_classical(labels), 0)


def test_import_leaves_numpy_unloaded():
    """numpy is imported only where the transition matrix is built: neither
    the import nor an eta context (on the rho2 instance) loads it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = (
        "import sys, chromagap\n"
        "print('numpy' in sys.modules)\n"
        "from chromagap.colouring import eta_context\n"
        "from chromagap.dkkms import build_rho1, build_rho2\n"
        "from chromagap.qop import mermin_peres\n"
        "system, _ = mermin_peres()\n"
        "eta_context(build_rho2(build_rho1(system, 1, 2)).instance)\n"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def _random_two_to_two_instance(rng):
    """Constraints on four labels, each predicate matching the halves of two
    random label orders; the first scope also carries a second predicate,
    so one scope lies in two symbols whenever the two orders differ."""
    variables = ["x", "y", "z", "w"][: rng.randint(2, 4)]

    def predicate():
        mu, nu = rng.sample(range(4), 4), rng.sample(range(4), 4)
        return {(a, b) for a in range(4) for b in range(4) if mu.index(a) // 2 == nu.index(b) // 2}

    scopes = [tuple(rng.sample(variables, 2)) for _ in range(rng.randint(1, 3))]
    constraints = [(scopes[0], predicate())] + [(s, predicate()) for s in scopes]
    return CspInstance(variables, range(4), constraints)


def _assert_same_structure(got, want):
    """Equal domains in order, relations, relation iteration order and
    canonical tuple lists."""
    assert got.signature == want.signature and got.domain == want.domain
    for name in want.signature.names():
        assert got.relations[name] == want.relations[name]
        assert list(got.relations[name]) == list(want.relations[name])
        assert got.ordered(name) == want.ordered(name)


def test_eta_stage_trusted_builds_match_the_public_constructor():
    """The gadgets of `eta_context`, `left_apply` on the variable structure
    and on the target, and `eta_apply` equal what the validating public
    constructor builds from the same tuples, on random 2-to-2 instances,
    some with a scope shared by two symbols, whose repeated edges the
    eta digraph drops."""
    rng = random.Random(67)
    shared = 0
    for case in range(6):
        ctx = eta_context(_random_two_to_two_instance(rng))
        template = ctx.template
        _assert_same_structure(template.A, RelStructure(GRAPH_SIGNATURE, template.A.domain, {}))
        for name in ctx.symbols:
            edges = [((1, z), (2, zp)) for z, zp in _gadget_pairs(ctx, name)]
            want = RelStructure(GRAPH_SIGNATURE, template.B[name].domain, {"E": edges})
            _assert_same_structure(template.B[name], want)
        for X in (ctx.variable_structure, ctx.target) if case < 2 else (ctx.variable_structure,):
            _assert_same_structure(left_apply(template, X), reference_left_apply(template, X))
        eta = eta_apply(ctx)
        _assert_same_structure(eta, reference_eta_apply(ctx))
        scopes = ctx.variable_structure.relations
        emitted = sum(len(template.B[n].relations["E"]) * len(scopes[n]) for n in ctx.symbols)
        shared += len(eta.relations["E"]) < emitted
    assert shared


# -- the block view of the eta digraph ---------------------------------------------


def _block_view_instances(rng) -> list:
    """Random instances with a scope under two symbols, each also without
    its first constraint, which may leave no scope shared."""
    out = []
    for _ in range(4):
        inst = _random_two_to_two_instance(rng)
        rest = [(c.scope, c.allowed) for c in inst.constraints[1:]]
        out += [inst, CspInstance(inst.variables, inst.alphabet, rest)]
    return out


def test_eta_block_view_is_the_gadget_copies_and_unions_to_the_edges():
    """A leading group of A's edgeless copies, one per variable and named
    (x, z), then one group per symbol, holding the context's gadget itself
    and one map per scope; the images union to the edges, and overlap
    exactly when a scope under two symbols repeats an edge."""
    overlaps = set()
    for inst in _block_view_instances(random.Random(97)):
        ctx = eta_context(inst)
        eta = eta_apply(ctx)
        (a_gadget, a_maps), *groups = eta._blocks
        assert a_gadget is ctx.template.A and not a_gadget.relations["E"]
        assert a_maps == [tuple((x, z) for z in a_gadget.domain) for x in inst.variables]
        assert len(groups) == len(ctx.symbols)
        assert all(g is ctx.template.B[name] for (g, _), name in zip(groups, ctx.symbols))
        assert [len(maps) for _, maps in groups] == [
            len(ctx.variable_structure.relations[name]) for name in ctx.symbols
        ]
        images = block_images(eta, "E")
        assert set(images) == eta.relations["E"]
        overlaps.add(len(images) > len(eta.relations["E"]))
    assert overlaps == {True, False}


def _split_colouring(rng, inst, eta, p, q) -> QuantumAssignment:
    """(x, z) splits the plane over the colours z(s(x)) and z(s'(x)) for two
    solutions s, s' of the instance (random maps when it has fewer), which
    is perfect when both are solutions: an edge joins disjoint blocks."""
    maps = [dict(zip(inst.variables, labels)) for labels in itertools.product(inst.alphabet, repeat=len(inst.variables))]
    solutions = [s for s in maps if all((s[c.scope[0]], s[c.scope[1]]) in c.allowed for c in inst.constraints)]
    s1, s2 = rng.sample(solutions, 2) if len(solutions) > 1 else rng.sample(maps, 2)
    pvms = {}
    for x, z in eta.domain:
        c1, c2 = (f"k{digit(z, s[x], 4)}" for s in (s1, s2))
        pvms[(x, z)] = {c1: p, c2: q} if c1 != c2 else {c1: p + q}
    return QuantumAssignment(2, 0, pvms)


def test_verify_assignment_same_with_and_without_the_eta_view():
    """Equal reports, witnesses and counts included, on the eta digraph with
    its block view and rebuilt without one: split colourings in the standard
    and the Hadamard basis, and the same with one projector of one vertex
    replaced by one of the other basis, at witness caps 1 and 25, with and
    without overlapping copies."""
    rng = random.Random(101)
    seen = set()
    for inst in _block_view_instances(rng):
        eta = eta_apply(eta_context(inst))
        for (p, q), other in ((STANDARD, HADAMARD[0]), (HADAMARD, STANDARD[0])):
            split = _split_colouring(rng, inst, eta, p, q)
            corrupted = dict(split.pvms)
            v = rng.choice(eta.domain)
            first = next(iter(corrupted[v]))
            corrupted[v] = {**corrupted[v], first: other}
            for assignment in (split, QuantumAssignment(2, 0, corrupted)):
                cap = rng.choice([1, 25])
                got = verify_assignment(eta, clique(4), assignment, 0, max_witnesses=cap)
                assert got == verify_assignment(without_view(eta), clique(4), assignment, 0, max_witnesses=cap)
                overlapping = len(block_images(eta, "E")) > len(eta.relations["E"])
                if got.products_checked:
                    seen.add((overlapping, got.perfect))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# -- eta_context against its construction before `to_structures` -------------------


def _random_d_to_d_instance(rng):
    """A 2-to-2 instance over four shuffled string labels whose predicates
    come from a pool of two: the first scope carries both, so it lies in two
    symbols when they differ, and the other scopes repeat pool predicates."""
    alphabet = rng.sample("abcd", 4)
    variables = ["x", "y", "z", "w"][: rng.randint(2, 4)]

    def predicate():
        mu, nu = rng.sample(alphabet, 4), rng.sample(alphabet, 4)
        return {(a, b) for a in alphabet for b in alphabet if mu.index(a) // 2 == nu.index(b) // 2}

    pool = [predicate(), predicate()]
    scopes = [tuple(rng.sample(variables, 2)) for _ in range(rng.randint(1, 4))]
    constraints = [(scopes[0], pool[0]), (scopes[0], pool[1])] + [(s, rng.choice(pool)) for s in scopes[1:]]
    return CspInstance(variables, alphabet, constraints)


def _assert_same_eta_context(got, want):
    """Equal contexts up to symbol names, compared symbol by symbol in order."""
    assert got.instance is want.instance and got.certificate == want.certificate
    assert (got.d, got.m, got.n, len(got.symbols)) == (want.d, want.m, want.n, len(want.symbols))
    assert got.variable_structure.domain == want.variable_structure.domain
    assert got.target.domain == want.target.domain
    _assert_same_structure(got.template.A, want.template.A)
    for g, w in zip(got.symbols, want.symbols):
        assert got.mu_nu[g] == want.mu_nu[w]
        assert got.variable_structure.relations[g] == want.variable_structure.relations[w]
        assert got.variable_structure.ordered(g) == want.variable_structure.ordered(w)
        assert got.target.relations[g] == want.target.relations[w]
        assert got.target.ordered(g) == want.target.ordered(w)
        _assert_same_structure(got.template.B[g], want.template.B[w])
        assert got.template.eps[g] == want.template.eps[w]


def _transfer_outcome(inst, assignment, k):
    """The reduced digraph's vertices and the coloured assignment of
    `eta_quantum_transfer`, or the type and text of what it raised."""
    try:
        eta, coloured, _ = eta_quantum_transfer(inst, assignment, k)
    except Exception as exc:  # the same failure is expected of both contexts
        return type(exc), str(exc)
    return eta.domain, coloured.dim, coloured.k, coloured.pvms


def _classical_or_split(rng, inst) -> QuantumAssignment:
    """The lift of a solution of the instance, or a split of two random maps
    that the input verification rejects."""
    maps = [dict(zip(inst.variables, labels)) for labels in itertools.product(inst.alphabet, repeat=len(inst.variables))]
    solutions = [s for s in maps if all((s[c.scope[0]], s[c.scope[1]]) in c.allowed for c in inst.constraints)]
    if solutions:
        return lift_classical(rng.choice(solutions))
    s1, s2 = rng.sample(maps, 2)
    pvms = {x: {s1[x]: STANDARD[0], s2[x]: STANDARD[1]} for x in inst.variables}
    return QuantumAssignment(2, 0, {x: fam if len(fam) == 2 else {s1[x]: PMatrix.identity(2)} for x, fam in pvms.items()})


def test_eta_context_matches_its_grouped_construction(monkeypatch):
    """`eta_context`, read from `to_structures`, equals the construction that
    grouped constraints by permutation pair and rebuilt the target from
    (mu, nu), symbol by symbol in order: structures, gadgets, eps maps and
    (mu, nu), the eta digraph, and the transfer of a perfect assignment, on
    rho2, a two-symbol instance, the thm14 chain's final instance and random
    instances with a scope under two symbols and repeated predicates."""
    from chromagap import cli, dmr
    from chromagap.dkkms import rho_quantum_transfer

    system, game = mermin_peres()
    rho2 = build_rho2(build_rho1(system, 1, 2))
    _, strategy = rho_quantum_transfer(system, 1, 2, game, rho1=rho2)
    s1, s2 = {"x": 0, "y": 0, "z": 1}, {"x": 2, "y": 3, "z": 2}
    split = QuantumAssignment(2, 0, {v: {s1[v]: STANDARD[0], s2[v]: STANDARD[1]} for v in "xyz"})
    seed, classical = cli.machinery_seed_instance(0)
    final, _, tracked = dmr.dmr_pipeline(seed, Fraction(12), 10, 1, lift_classical(classical))
    cases = [(rho2.instance, strategy, 0), (two_symbol_instance(), split, 0), (final, tracked, 10)]
    rng = random.Random(109)
    instances = [_random_d_to_d_instance(rng) for _ in range(8)]
    cases += [(inst, _classical_or_split(rng, inst), 0) for inst in instances]
    symbol_counts, shared, repeated, raised = [], 0, 0, 0
    for inst, assignment, k in cases:
        got, want = eta_context(inst), reference_eta_context(inst)
        _assert_same_eta_context(got, want)
        symbol_counts.append(len(got.symbols))
        scopes = got.variable_structure.relations
        shared += len(set().union(*scopes.values())) < sum(map(len, scopes.values()))
        repeated += len(inst.constraints) > len(got.symbols)
        if inst is not rho2.instance:  # its 1,016,064 edges are compared by the transfer's vertices
            _assert_same_structure(eta_apply(got), eta_apply(want))
        new = _transfer_outcome(inst, assignment, k)
        monkeypatch.setattr(colouring, "eta_context", reference_eta_context)
        assert new == _transfer_outcome(inst, assignment, k)
        monkeypatch.undo()
        raised += isinstance(new[0], type)
    assert symbol_counts[:2] == [15, 2] and shared and repeated > 1 and 0 < raised < len(cases) - 3
