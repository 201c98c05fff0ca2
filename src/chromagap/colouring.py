"""The line-digraph operator, the certified transition matrix, and the
reduction from d-to-d label cover to 2d-colouring.

The reduction's gadget is a Markov chain on [2d]^d whose transition matrix
is symmetric, has a simple top eigenvalue, and vanishes exactly on pairs of
states with intersecting entry sets.  Only the zero/nonzero support of the
matrix feeds the combinatorics, and the eta build computes that support
directly, so the floating-point entries never touch the exact layer; the
spectral facts are certified numerically only by `build_transition_matrix`
(`chromagap transition`), where a failed certificate raises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

from .csp import CspInstance, DtoDCertificate, classify_label_cover, to_structures
from .pultr import (
    LambdaQuotient,
    PultrTemplate,
    adjunction_unit,
    gamma_functor,
    lambda_quotient,
    left_apply,
    transfer_lambda,
)
from .qop import QuantumAssignment, VerificationFailure, compose_sandwich, verify_assignment
from .relstruct import (
    GRAPH_SIGNATURE,
    RelStructure,
    SizeBudgetExceeded,
    check_homomorphism,
    clique,
)


class NotDtoD(Exception):
    pass


class SinkhornDivergence(Exception):
    pass


class SpectralCertificationFailure(Exception):
    pass


def line_digraph(X: RelStructure) -> RelStructure:
    """Vertices are the edges of X, in canonical order; (e, f) is an edge
    when e ends where f starts.  The edges through a vertex b of X are all
    of in(b) x out(b), so the block view holds one copy per vertex b with
    both, in X's domain order: the complete bipartite digraph from in(b) to
    out(b), each list in canonical order.  Copies of one shape (|in|, |out|)
    share one gadget on 0, ..., |in| + |out| - 1, and no edge lies in two
    copies.  The edge list is built on first read, in canonical order."""
    sym = X.graph_symbol()
    edges = X.ordered(sym)
    by_tail: dict = {}
    by_head: dict = {}
    for e in edges:
        by_tail.setdefault(e[0], []).append(e)
        by_head.setdefault(e[1], []).append(e)
    groups: dict = {}  # (|in|, |out|) -> the copies of that shape
    for b in X.domain:
        if b in by_head and b in by_tail:
            ins, outs = by_head[b], by_tail[b]
            groups.setdefault((len(ins), len(outs)), []).append((*ins, *outs))
    blocks = []
    for (p, q), maps in groups.items():
        product = [(i, j) for i in range(p) for j in range(p, p + q)]
        blocks.append((RelStructure._trusted(X.signature, tuple(range(p + q)), {sym: product}), maps))

    def new_edges() -> dict:
        # edges in canonical order give the (e, f) pairs in canonical order
        return {sym: [(e, f) for e in edges for f in by_tail.get(e[1], ())]}

    return RelStructure._trusted(X.signature, edges, new_edges, blocks, disjoint=True)


def alpha_beta(n: int) -> tuple[int, int]:
    """Colour-count transfer functions of the line digraph: 2^n up, the
    middle binomial coefficient down."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2**n, math.comb(n, n // 2)


@dataclass
class TransitionMatrix:
    d: int
    states: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    support: frozenset
    row_sum_residual: float
    second_modulus: float
    iterations: int
    spectrum: tuple[float, ...]  # ascending, the eigenvalues certified


_SINKHORN_ITERATIONS = 100_000
_RESIDUAL_TOL = 1e-12
_SPECTRAL_GAP = 1e-8


def build_transition_matrix(d: int) -> TransitionMatrix:
    """Symmetric Sinkhorn scaling of the disjointness pattern on [2d]^d,
    certified: rows sum to 1 within 1e-12, the matrix is symmetric by
    construction, eigenvalue 1 is simple with all other moduli below
    1 - 1e-8, and the support is exactly the disjoint-state pairs.
    Certification failure raises instead of returning a matrix.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    import numpy as np

    states = tuple(itertools.product(range(2 * d), repeat=d))
    n = len(states)
    pattern = np.zeros((n, n))
    support = set()
    for i, s in enumerate(states):
        ss = set(s)
        for j, t in enumerate(states):
            if not ss & set(t):
                pattern[i, j] = 1.0
                support.add((i, j))
    scaling = np.ones(n)
    for iterations in range(1, _SINKHORN_ITERATIONS + 1):
        row_action = pattern @ scaling
        if np.any(row_action <= 0):
            raise SinkhornDivergence("zero row action; pattern lacks total support")
        scaling = np.sqrt(scaling / row_action)
        matrix = (pattern * scaling[:, None]) * scaling[None, :]
        residual = float(np.abs(matrix.sum(axis=1) - 1.0).max())
        if residual < _RESIDUAL_TOL:
            break
    else:
        raise SinkhornDivergence(
            f"row sums off by {residual:.3e} after {_SINKHORN_ITERATIONS} iterations"
        )
    if not np.array_equal(matrix > 0, pattern > 0):
        raise SpectralCertificationFailure("support drifted during scaling")
    eigenvalues = np.linalg.eigvalsh(matrix)
    top = eigenvalues[-1]
    second = float(np.abs(eigenvalues[:-1]).max())
    if abs(top - 1.0) > 1e-9:
        raise SpectralCertificationFailure(f"top eigenvalue {top} is not 1")
    if second >= 1.0 - _SPECTRAL_GAP:
        raise SpectralCertificationFailure(
            f"second modulus {second} too close to 1 (gap < {_SPECTRAL_GAP})"
        )
    return TransitionMatrix(
        d, states, matrix, frozenset(support), residual, second, iterations, tuple(eigenvalues.tolist())
    )


# -- the reduction ----------------------------------------------------------


@dataclass
class EtaContext:
    """Shared data of one reduction run: the d-to-d certificate, the
    constraint symbols with their permutation pairs, the variable and target
    structures of `csp.to_structures`, and the gadget template.  The gadget
    of a symbol has an edge ((1, z), (2, z')) per pair of z-strings with
    entrywise disjoint permuted blocks, listed by z, then z' (its
    `ordered("E")`)."""

    instance: CspInstance
    certificate: DtoDCertificate
    d: int
    m: int
    n: int
    symbols: tuple[str, ...]
    mu_nu: dict
    variable_structure: RelStructure
    target: RelStructure
    template: PultrTemplate


def eta_context(inst: CspInstance, *, budget: Optional[int] = None) -> EtaContext:
    """Classify the instance, take its structure pair from `to_structures`,
    and materialise the gadget template for exactly its symbols.  A symbol
    stands for one predicate, and a certified predicate has exactly one
    canonical permutation pair (mu, nu), read off the certificate."""
    cert = classify_label_cover(inst).d_to_d
    if cert is None:
        raise NotDtoD("instance has no verified d-to-d certificate")
    d, m = cert.d, cert.m
    if d < 2:
        raise ValueError("d must be >= 2")
    n = len(inst.alphabet)
    base = 2 * d
    if budget is not None and len(inst.variables) * base**n > budget:
        raise SizeBudgetExceeded(
            f"{len(inst.variables)} * (2d)^{n} vertices exceed the budget"
        )
    block_values = list(itertools.product(range(base), repeat=d))
    partners = {a: [b for b in block_values if not set(a) & set(b)] for a in block_values}

    x_struct, target = to_structures(inst)
    symbols = target.signature.names()
    by_predicate = dict(zip((c.allowed for c in inst.constraints), cert.permutations))
    mu_nu = {name: by_predicate[target.relations[name]] for name in symbols}
    rho = GRAPH_SIGNATURE

    z_all = range(base**n)
    A = RelStructure._trusted(rho, tuple(z_all), {"E": []})
    # the digit of every z at place p, one column per place, for all symbols;
    # the block at offset i in starts covers the places perm[i : i + d]
    places = list(zip(*itertools.product(range(base), repeat=n)))[::-1]
    starts = range(0, n - d + 1, d)
    gadgets: dict = {}
    eps: dict = {}
    for name, (mu, nu) in mu_nu.items():
        # z' is paired with z when each of its nu-blocks is a disjoint partner
        # of z's mu-block at the same offset, listed by z, then z'; nu permutes
        # the places, so z' sums its blocks' values, and worth[k][a] holds the
        # value of block k for each partner of a
        worth = [
            {a: [sum(x * base**p for x, p in zip(b, nu[i : i + d])) for b in partners[a]] for a in partners}
            for i in starts
        ]
        mu_blocks = zip(*[zip(*map(places.__getitem__, mu[i : i + d])) for i in starts])
        # one tuple per vertex, shared by the domain, the edges and the eps maps:
        # an equal copy per edge costs memory and a full compare on every lookup
        left, right = [(1, z) for z in z_all], [(2, z) for z in z_all]
        edges: list = []  # in canonical order
        for z, zb in enumerate(mu_blocks):
            zps = sorted(map(sum, itertools.product(*map(dict.__getitem__, worth, zb))))
            edges += zip(itertools.repeat(left[z]), map(right.__getitem__, zps))
        gadgets[name] = RelStructure._trusted(rho, (*left, *right), {"E": edges})
        eps[name] = (dict(zip(z_all, left)), dict(zip(z_all, right)))
    template = PultrTemplate(rho, target.signature, A, gadgets, eps)
    return EtaContext(inst, cert, d, m, n, symbols, mu_nu, x_struct, target, template)


def _eta_quotient(ctx: EtaContext) -> LambdaQuotient:
    """The quotient of the left functor on the variable structure, each class
    named (x, z) after its copy vertex ("A", x, z) of A.  The template is
    faithful, so each class holds exactly one copy vertex of A, and A's tags
    come first, so that vertex is the class's least tag; checked as every
    class named by an A tag and as many classes as A tags."""
    X = ctx.variable_structure
    q = lambda_quotient(ctx.template, X)
    unglued = next((tag for tag in q.class_name.values() if tag[0] != "A"), None)
    if unglued is not None:
        raise VerificationFailure(f"class {unglued!r} has no copy vertex of A")
    a_tags = len(X.domain) * len(ctx.template.A.domain)
    if len(q.class_name) != a_tags:
        raise VerificationFailure(f"{len(q.class_name)} classes for {a_tags} copy vertices of A")
    return replace(q, class_name={root: tag[1:] for root, tag in q.class_name.items()})


def eta_apply(ctx: EtaContext) -> RelStructure:
    """The reduced digraph of the context's instance: the left functor of the
    gadget template on the variable structure, with vertices (x, z) for z in
    [2d]^n, listed by x, then z.  It has an edge per constraint and per pair
    of z-strings whose permuted d-blocks are entrywise disjoint (the support
    of the certified transition matrix), built on first read.  The block view
    holds A's edgeless copies, then per symbol its gadget with one copy per
    scope (x, x')."""
    return left_apply(ctx.template, ctx.variable_structure, quotient=_eta_quotient(ctx))


def xi_colouring(ctx: EtaContext) -> tuple[dict, RelStructure, LambdaQuotient]:
    """The canonical 2d-colouring of the glued target: a class containing the
    copy vertex z^(y) gets colour z(y).  Each label y has one colour column,
    z -> k{digit of z at y's place}: the copy of A over y reads it, and so
    does a gadget vertex (part, z) over yt with y = yt[part - 1].  Every tag's
    colour is compared with its class head's in one pass, so every member
    of every class is checked; the first ill-defined class in class order
    is named with its sorted colours.  The result is verified as a
    homomorphism."""
    base = 2 * ctx.d
    template, target = ctx.template, ctx.target
    quotient = lambda_quotient(template, target)
    lam_target = left_apply(template, target, quotient=quotient)
    names = [f"k{c}" for c in range(base)]
    z_all = template.A.domain  # range(base**n), so a column is indexed by z
    column = {y: [names[z // base**i % base] for z in z_all] for i, y in enumerate(ctx.instance.alphabet)}
    # in the quotient's tag order: A's copies by y, then per symbol the gadget
    # copies by tuple, each in its gadget's domain order
    colours = [c for y in target.domain for c in column[y]]
    for name in template.tau.names():
        bdom = template.B[name].domain
        part_of, at = [part - 1 for part, _ in bdom], [z for _, z in bdom]
        for yt in target.ordered(name):
            cols = list(map(column.__getitem__, yt))
            colours += map(list.__getitem__, map(cols.__getitem__, part_of), at)

    heads = quotient.class_of_id  # each tag's class head, the class's least tag id
    if colours != list(map(colours.__getitem__, heads)):
        head = min(h for c, h in zip(colours, heads) if c != colours[h])
        found = sorted({c for c, h in zip(colours, heads) if h == head})
        raise VerificationFailure(f"colouring ill-defined on class {quotient.class_name[head]!r}: {found}")
    xi = {quotient.class_name[h]: colours[h] for h in dict.fromkeys(heads)}
    if not check_homomorphism(xi, lam_target, clique(base)):
        raise VerificationFailure("canonical colouring is not a homomorphism")
    return xi, lam_target, quotient


def eta_quantum_transfer(
    inst: CspInstance,
    assignment: QuantumAssignment,
    k: int,
    *,
    check_input: bool = True,
) -> tuple[RelStructure, QuantumAssignment, EtaContext]:
    """Push a perfect assignment of a d-to-d instance to a quantum
    2d-colouring of the reduced digraph, preserving the Hilbert space.

    The route is the left functor's action on the assignment followed by
    composition with the canonical colouring xi of the glued target: the
    adjunction unit, read off xi's quotient, lifts the assignment, and
    `transfer_lambda` carries it onto xi's glued target.  Both the transfer
    and the returned digraph, `eta_apply`'s, read one quotient of the left
    functor with classes named (x, z), so the output is keyed by the
    digraph's vertices as built; its edges are left unbuilt.
    """
    ctx = eta_context(inst)
    if check_input:
        report = verify_assignment(ctx.variable_structure, ctx.target, assignment, k)
        if not report.passed:
            raise VerificationFailure(
                f"input verification at level {k} failed: {report.summary()}"
            )
    xi, lam_target, quotient_y = xi_colouring(ctx)
    unit = adjunction_unit(ctx.template, ctx.target, quotient_y)
    lifted = compose_sandwich({x: x for x in assignment.pvms}, assignment, unit)
    quotient_x = _eta_quotient(ctx)
    transferred = transfer_lambda(ctx.template, ctx.variable_structure, lam_target, lifted, k,
                                  quotient=quotient_x)
    del lam_target, quotient_y  # the stage's largest structure, freed before the eta digraph
    coloured = compose_sandwich({v: v for v in transferred.pvms}, transferred, xi, k=k)
    eta = left_apply(ctx.template, ctx.variable_structure, quotient=quotient_x)
    if set(coloured.pvms) != set(eta.domain):
        raise VerificationFailure("transfer domain differs from the reduced digraph")
    return eta, coloured, ctx


# -- line-digraph transfer ---------------------------------------------------


def linedigraph_template() -> PultrTemplate:
    """Gadget pair of the line digraph: a single arc glued head-to-tail
    along a length-2 path; connected with diameter 2, not faithful."""
    rho = GRAPH_SIGNATURE
    A = RelStructure(rho, ["a1", "a2"], {"E": [("a1", "a2")]})
    B = RelStructure(rho, ["b1", "b2", "b3"], {"E": [("b1", "b2"), ("b2", "b3")]})
    eps1 = {"a1": "b1", "a2": "b2"}
    eps2 = {"a1": "b2", "a2": "b3"}
    return PultrTemplate(rho, rho, A, {"E": B}, {"E": (eps1, eps2)})


def linedigraph_quantum_transfer(
    X: RelStructure,
    Y: RelStructure,
    assignment: QuantumAssignment,
    k: int,
    *,
    gamma_x: Optional[RelStructure] = None,
) -> QuantumAssignment:
    """From X ~> Y at level 2k+2 to line digraphs at level k; the gadget has
    diameter 2, so 2k+2 is exactly the contracted input level.  `gamma_x`,
    when given, must be line_digraph(X)."""
    return gamma_functor(linedigraph_template(), X, Y, assignment, k, gamma_x=gamma_x)
