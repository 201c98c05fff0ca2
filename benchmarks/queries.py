"""The small-queries workload: a seeded batch of small independent queries.

Each query goes through the public functions the CLI subcommands use.  Its
inputs are JSON-shaped dicts that the timed call decodes with
`serialize.*_from_dict`; results that are structures, instances or
assignments are encoded with `*_to_dict`.  Expected answers are computed at
generation time, outside the timed region, by `oracles`, which shares no
code with chromagap.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import oracles
from chromagap import csp, dkkms, dmr, pultr, qop, relstruct, serialize

# queries per batch, by kind; the batch is at least 1,000 queries so that
# p99 has ten samples beyond it
MIX = (
    ("hom", 260),
    ("enumerate", 150),
    ("chromatic", 150),
    ("adjunction", 60),
    ("qverify", 200),
    ("sat", 70),
    ("isat", 40),
    ("classify", 60),
    ("rho", 20),
    ("dmr", 30),
)


# -- encoding helpers (the serialize JSON format, written independently) --


def enc(v):
    if isinstance(v, tuple):
        return {"t": [enc(x) for x in v]}
    return v


def _key(v) -> str:
    return json.dumps(enc(v), sort_keys=True)


def _order(items):
    return sorted(items, key=lambda t: json.dumps(enc(t), sort_keys=True))


def structure(domain, rels: dict, arity: int = 2) -> dict:
    """Plain form used by the oracles, plus its serialize dict."""
    rels = {name: _order(set(ts)) for name, ts in rels.items()}
    d = {
        "signature": [{"name": n, "arity": arity} for n in rels],
        "domain": [enc(v) for v in domain],
        "relations": {n: [[enc(v) for v in t] for t in ts] for n, ts in rels.items()},
    }
    return {"domain": list(domain), "rels": rels, "relset": {n: set(ts) for n, ts in rels.items()}, "dict": d}


def digraph(rng, n_max: int, e_max: int, prefix: str = "v", nested: bool = False):
    n = rng.randint(1, n_max)
    dom = [(prefix, i) if nested else f"{prefix}{i}" for i in range(n)]
    edges = {(rng.choice(dom), rng.choice(dom)) for _ in range(rng.randint(0, e_max))}
    return structure(dom, {"E": edges})


def image_target(rng, X: dict, size: int):
    """A digraph that X maps into: the image of a random map plus noise."""
    dom = [f"y{i}" for i in range(size)]
    f = {v: rng.choice(dom) for v in X["domain"]}
    edges = {(f[a], f[b]) for a, b in X["rels"]["E"]}
    edges |= {(rng.choice(dom), rng.choice(dom)) for _ in range(rng.randint(0, 2))}
    return structure(dom, {"E": edges})


def instance_dict(variables, alphabet, constraints) -> dict:
    return {
        "variables": [enc(v) for v in variables],
        "alphabet": [enc(a) for a in alphabet],
        "constraints": [
            {
                "scope": [enc(v) for v in scope],
                "allowed": [[enc(a) for a in t] for t in _order(allowed)],
                "weight": str(w),
            }
            for scope, allowed, w in constraints
        ],
    }


# -- generators: each returns (inputs, expected) ------------------------


def gen_hom(rng, i):
    X = digraph(rng, 4, 5)
    Y = image_target(rng, X, rng.randint(1, 3)) if rng.random() < 0.5 else digraph(rng, 3, 4, "y", nested=True)
    return {"X": X["dict"], "Y": Y["dict"]}, {"exists": oracles.hom_exists(X, Y), "X": X, "Y": Y}


def gen_enumerate(rng, i):
    X = digraph(rng, 3, 3)
    Y = digraph(rng, 3, 5, "y")
    homs = oracles.all_homs(X, Y)
    return {"X": X["dict"], "Y": Y["dict"]}, {"homs": [[enc(f[v]) for v in X["domain"]] for f in homs]}


def gen_chromatic(rng, i):
    n = rng.randint(1, 6)
    dom = [f"v{j}" for j in range(n)]
    edges = set()
    for _ in range(rng.randint(0, 9)):
        a, b = rng.choice(dom), rng.choice(dom)
        if a != b or rng.random() < 0.05:
            edges.add((a, b))
    G = structure(dom, {"E": edges})
    value = oracles.chromatic(dom, sorted(edges), 4)
    return {"G": G["dict"], "cap": 4}, {"chromatic": "above cap" if value is None else value}


def gen_template(rng):
    """A connected A, one symbol S of arity 1 or 2, and a gadget made of
    arity(S) copies of A glued at one vertex pair; vertex ids are tuples."""
    n_a = rng.randint(1, 2)
    a_dom = [f"a{i}" for i in range(n_a)]
    a_edges = {(a_dom[0], a_dom[i]) for i in range(1, n_a)}
    if rng.random() < 0.5:
        a_edges.add((rng.choice(a_dom), rng.choice(a_dom)))
    arity = rng.randint(1, 2)
    merged = {("S", i, a): ("S", i, a) for i in range(arity) for a in a_dom}
    if arity == 2:
        merged[("S", 1, rng.choice(a_dom))] = ("S", 0, rng.choice(a_dom))
    b_dom = sorted(set(merged.values()))
    b_edges = {(merged[("S", i, x)], merged[("S", i, y)]) for i in range(arity) for x, y in a_edges}
    maps = [{a: merged[("S", i, a)] for a in a_dom} for i in range(arity)]
    A = structure(a_dom, {"E": a_edges})
    B = structure(b_dom, {"E": b_edges})
    plain = {"A": A, "B": {"S": B}, "eps": {"S": maps}}
    d = {
        "rho": [{"name": "E", "arity": 2}],
        "tau": [{"name": "S", "arity": arity}],
        "A": A["dict"],
        "B": {"S": B["dict"]},
        "eps": {"S": [{"map": [[enc(a), enc(m[a])] for a in a_dom]} for m in maps]},
    }
    return plain, d, arity


def gen_adjunction(rng, i):
    plain, tdict, arity = gen_template(rng)
    x_dom = [f"x{j}" for j in range(rng.randint(1, 3))]
    s_tuples = {tuple(rng.choice(x_dom) for _ in range(arity)) for _ in range(rng.randint(1, 3))}
    X = structure(x_dom, {"S": s_tuples}, arity)
    Y = digraph(rng, 3, 5, "y")
    side = oracles.gamma_side(plain, X, Y)
    return {"T": tdict, "X": X["dict"], "Y": Y["dict"]}, {"lambda_side": side, "gamma_side": side}


UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def basis(rng, dim: int) -> list:
    """An orthogonal basis of Gaussian-integer vectors: (a, b), (-b*, a*) in
    dimension 2, Kronecker products of two such pairs in dimension 4.  One
    of a, b is a unit and the other twice a unit, so every vector has norm 5
    and every projector the same denominator: the arithmetic cost of a query
    does not depend on the seed."""

    def pair():
        u, w = rng.choice(UNITS), rng.choice(UNITS)
        a, b = u, (2 * w[0], 2 * w[1])
        if rng.random() < 0.5:
            a, b = b, a
        return [[a, b], [(-b[0], b[1]), (a[0], -a[1])]]

    if dim == 2:
        return pair()
    p, q = pair(), pair()
    return [[oracles.cmul(x, y) for x in u for y in v] for u in p for v in q]


def projector(v) -> list:
    norm = sum(x * x + y * y for x, y in v)
    return [
        [
            (Fraction(a[0] * b[0] + a[1] * b[1], norm), Fraction(a[1] * b[0] - a[0] * b[1], norm))
            for b in v
        ]
        for a in v
    ]


def _matrix_dict(m):
    return [[[str(e[0]), str(e[1])] for e in row] for row in m]


def assignment_dict(dim: int, k: int, pvms: dict) -> dict:
    return {
        "dim": dim,
        "k": k,
        "pvms": {_key(x): {_key(y): _matrix_dict(m) for y, m in fam.items()} for x, fam in pvms.items()},
    }


def gen_qverify(rng, i):
    """Mixtures of homomorphisms over a non-diagonal Gaussian-integer basis
    (perfect and commuting), with one map that is not a homomorphism, one
    broken family, or a non-commuting neighbour on a free target.  Sizes
    follow the index, so every seed's batch holds the same mix of shapes."""
    dim = (2, 2, 4)[i % 3]
    case = ("mixture", "mixture", "nonhom", "broken", "noncommuting")[i // 3 % 5]
    k = i // 15 % 2
    n = 1 + i // 30 % 4
    if case == "noncommuting":
        X = structure(["u", "v"], {"E": {("u", "v")}})
        Y = structure(["y0", "y1"], {"E": set(itertools.product(["y0", "y1"], repeat=2))})
        pu = [projector(v) for v in basis(rng, 2)]
        pv = [projector(v) for v in basis(rng, 2)]
        pvms = {"u": {"y0": pu[0], "y1": pu[1]}, "v": {"y0": pv[0], "y1": pv[1]}}
        dim = 2
    else:
        dom = [f"v{j}" for j in range(n)]
        X = structure(dom, {"E": {(rng.choice(dom), rng.choice(dom)) for _ in range(n)}})
        Y = image_target(rng, X, 2 + i // 120 % 2)
        homs = oracles.all_homs(X, Y)
        maps = [rng.choice(homs) for _ in range(dim)]
        if case == "nonhom":
            maps[0] = {v: rng.choice(Y["domain"]) for v in X["domain"]}
        projs = [projector(v) for v in basis(rng, dim)]
        pvms = {}
        for x in X["domain"]:
            fam = {}
            for f, p in zip(maps, projs):
                y = f[x]
                fam[y] = p if y not in fam else [
                    [oracles.cadd(s, t) for s, t in zip(r1, r2)] for r1, r2 in zip(fam[y], p)
                ]
            pvms[x] = fam
        if case == "broken":
            x = rng.choice(X["domain"])
            y = rng.choice(sorted(pvms[x]))
            if len(pvms[x]) > 1 and rng.random() < 0.5:
                del pvms[x][y]
            else:
                pvms[x][y] = [[oracles.cadd(e, e) for e in row] for row in pvms[x][y]]
    expected = oracles.verify(X, Y, pvms, k)
    inputs = {"X": X["dict"], "Y": Y["dict"], "Q": assignment_dict(dim, k, pvms), "k": k}
    return inputs, expected


def random_csp(rng, n_max: int, a_max: int, c_max: int):
    variables = [f"x{i}" for i in range(rng.randint(1, n_max))]
    alphabet = [f"a{i}" for i in range(rng.randint(1, a_max))]
    constraints = []
    pairs = list(itertools.product(alphabet, repeat=2))
    for _ in range(rng.randint(1, c_max)):
        scope = (rng.choice(variables), rng.choice(variables))
        allowed = frozenset(rng.sample(pairs, rng.randint(1, len(pairs))))
        constraints.append((scope, allowed, Fraction(rng.randint(1, 3))))
    return variables, alphabet, constraints


def gen_sat(rng, i):
    v, a, c = random_csp(rng, 4, 3, 5)
    return {"I": instance_dict(v, a, c)}, {"sat": str(oracles.sat_value(v, a, c))}


def gen_isat(rng, i):
    v, a, c = random_csp(rng, 4, 3, 4)
    t = 1 + i % 2
    return {"I": instance_dict(v, a, c), "t": t}, {"isat": str(oracles.isat_value(v, a, c, t))}


def gen_classify(rng, i):
    """Block (d-to-d) predicates under random permutations, the same with
    one pair removed, or d-to-1 predicates from a left to a right alphabet."""
    variables = [f"x{i}" for i in range(rng.randint(2, 4))]
    scopes = [tuple(rng.sample(variables, 2)) for _ in range(rng.randint(1, 3))]
    kind = ("blocks", "blocks", "damaged", "d-to-1")[i % 4]
    constraints = []
    if kind == "d-to-1":
        d = rng.randint(1, 2)
        right = [f"b{j}" for j in range(rng.randint(1, 2))]
        left = [f"a{j}" for j in range(d * len(right))]
        alphabet = left + right
        for scope in scopes:
            image = [right[j // d] for j in range(len(left))]
            rng.shuffle(image)
            constraints.append((scope, frozenset(zip(left, image)), Fraction(1)))
    else:
        d = rng.choice((1, 2))
        m = rng.choice((1, 2, 3))
        alphabet = list(range(m * d))
        for scope in scopes:
            mu, nu = alphabet[:], alphabet[:]
            rng.shuffle(mu)
            rng.shuffle(nu)
            allowed = {(mu[p], nu[q]) for p in alphabet for q in alphabet if p // d == q // d}
            constraints.append((scope, allowed, Fraction(1)))
        if kind == "damaged":
            scope, allowed, w = constraints[0]
            allowed = set(allowed)
            allowed.discard(rng.choice(_order(allowed)))
            constraints[0] = (scope, allowed, w)
    proj = oracles.projective_d(alphabet, constraints)
    bip = oracles.bipartite(variables, constraints)
    shape = oracles.d_to_d_shape(alphabet, constraints)
    expected = {
        "bipartite": bip,
        "projective": proj is not None,
        "d_to_1": proj if bip else None,
        "d_to_d": None if shape is None else {"m": shape[0], "d": shape[1]},
    }
    return {"I": instance_dict(variables, alphabet, constraints)}, expected


def gen_rho(rng, i):
    """A regular 3XOR system of three equations: each variable in at most
    two equations, any two equations sharing at most one variable, and
    i % 4 of the three equation pairs sharing one."""
    pool = [f"z{j}" for j in range(9)]
    while True:
        eqs = [(tuple(rng.sample(pool, 3)), rng.randint(0, 1)) for _ in range(3)]
        occ = {}
        for vs, _ in eqs:
            for v in vs:
                occ[v] = occ.get(v, 0) + 1
        shared = [len(set(a[0]) & set(b[0])) for a, b in itertools.combinations(eqs, 2)]
        if max(occ.values()) <= 2 and max(shared) <= 1 and sum(shared) == i % 4:
            break
    text = "".join(f"{' '.join(vs)} = {b}\n" for vs, b in eqs)
    n_vertices, one, two = oracles.rho1_shape(eqs)
    return {"system": text}, {"vertices": n_vertices, "1-to-1": one, "2-to-2": two}


def gen_dmr(rng, i):
    """A two-left-variable d-to-1 instance with a satisfying classical
    assignment, the shape of the machinery seed with other sizes."""
    d = 1 + i % 2
    right = [f"b{j}" for j in range(1 + i // 2 % 2)]
    left = [f"a{j}" for j in range(d * len(right))]
    fibre = {a: right[j // d] for j, a in enumerate(left)}
    pred = frozenset(fibre.items())
    constraints = [
        (("p", "y"), pred, Fraction(rng.randint(1, 3))),
        (("q", "y"), pred, Fraction(rng.randint(1, 3))),
    ]
    y = rng.choice(right)
    choice = {"y": y}
    for x in ("p", "q"):
        choice[x] = rng.choice([a for a in left if fibre[a] == y])
    one = [[(Fraction(1), Fraction(0))]]
    lift = assignment_dict(1, 2**30, {x: {lab: one} for x, lab in choice.items()})
    k = 1 + i // 4 % 3
    inputs = {"I": instance_dict(["p", "q", "y"], left + right, constraints), "Q": lift, "k": k}
    return inputs, {"certificates": [["uniform-marginals", True], ["left-regular", True], ["d-to-d", True]], "k": k}


GENERATORS = {
    "hom": gen_hom,
    "enumerate": gen_enumerate,
    "chromatic": gen_chromatic,
    "adjunction": gen_adjunction,
    "qverify": gen_qverify,
    "sat": gen_sat,
    "isat": gen_isat,
    "classify": gen_classify,
    "rho": gen_rho,
    "dmr": gen_dmr,
}


def generate(seed: int) -> list:
    """[(kind, inputs, expected)] in a seeded, shuffled order."""
    rng = random.Random(seed)
    out = []
    for kind, count in MIX:
        for i in range(count):
            inputs, expected = GENERATORS[kind](rng, i)
            out.append((kind, inputs, expected))
    rng.shuffle(out)
    return out


# -- the timed calls -----------------------------------------------------------


def run_query(kind: str, q: dict):
    if kind == "hom":
        f = relstruct.find_homomorphism(
            serialize.structure_from_dict(q["X"]), serialize.structure_from_dict(q["Y"])
        )
        return {
            "exists": f is not None,
            "witness": None if f is None else [[serialize.encode_id(k), serialize.encode_id(v)] for k, v in f.items()],
        }
    if kind == "enumerate":
        X = serialize.structure_from_dict(q["X"])
        homs = relstruct.enumerate_homomorphisms(X, serialize.structure_from_dict(q["Y"]))
        return {"homs": [[serialize.encode_id(f[v]) for v in X.domain] for f in homs]}
    if kind == "chromatic":
        value = relstruct.chromatic_number(serialize.structure_from_dict(q["G"]), q["cap"])
        return {"chromatic": "above cap" if value is relstruct.ABOVE_CAP else value}
    if kind == "adjunction":
        lam, gam = pultr.adjunction_oracle(
            serialize.template_from_dict(q["T"]),
            serialize.structure_from_dict(q["X"]),
            serialize.structure_from_dict(q["Y"]),
        )
        return {"lambda_side": lam, "gamma_side": gam}
    if kind == "qverify":
        report = qop.verify_assignment(
            serialize.structure_from_dict(q["X"]),
            serialize.structure_from_dict(q["Y"]),
            serialize.assignment_from_dict(q["Q"]),
            q["k"],
        )
        return {"pvm_ok": report.pvm_ok, "perfect": report.perfect, "passed": report.passed}
    if kind == "sat":
        return {"sat": str(csp.sat_value(serialize.instance_from_dict(q["I"])))}
    if kind == "isat":
        return {"isat": str(csp.isat_value(serialize.instance_from_dict(q["I"]), q["t"]))}
    if kind == "classify":
        profile = csp.classify_label_cover(serialize.instance_from_dict(q["I"]))
        return {
            "bipartite": profile.bipartite is not None,
            "projective": profile.projective is not None,
            "d_to_1": profile.d_to_1,
            "d_to_d": None if profile.d_to_d is None else {"m": profile.d_to_d.m, "d": profile.d_to_d.d},
        }
    if kind == "rho":
        rho1 = dkkms.build_rho1(dkkms.XorSystem.parse(q["system"]), 1, 2)
        return {"instance": serialize.instance_to_dict(rho1.instance), "tags": list(rho1.tags)}
    if kind == "dmr":
        final, report, tracked = dmr.dmr_pipeline(
            serialize.instance_from_dict(q["I"]),
            Fraction(12),
            q["k"],
            1,
            serialize.assignment_from_dict(q["Q"]),
        )
        return {
            "final": serialize.instance_to_dict(final),
            "tracked": serialize.assignment_to_dict(tracked),
            "certificates": [[name, ok] for name, ok in report.certificates],
            "quantum": [[name, entry] for name, entry in report.quantum_ledger],
        }
    raise ValueError(f"unknown query kind {kind!r}")


# -- checks against the expected answers ---------------------------------


def check(kind: str, result: dict, expected: dict) -> bool:
    if kind == "hom":
        if result["exists"] != expected["exists"]:
            return False
        if result["witness"] is None:
            return True
        f = {_decode(k): _decode(v) for k, v in result["witness"]}
        return set(f) == set(expected["X"]["domain"]) and oracles.is_hom(f, expected["X"], expected["Y"])
    if kind == "rho":
        inst, tags = result["instance"], result["tags"]
        sizes_ok = all(
            len(c["allowed"]) == (4 if tag == "1-to-1" else 8)
            for c, tag in zip(inst["constraints"], tags)
        )
        return (
            sizes_ok
            and len(inst["variables"]) == expected["vertices"]
            and len(inst["alphabet"]) == 4
            and tags.count("1-to-1") == expected["1-to-1"]
            and tags.count("2-to-2") == expected["2-to-2"]
            and len(tags) == len(inst["constraints"])
        )
    if kind == "dmr":
        return _check_dmr(result, expected)
    return result == expected


def _decode(v):
    if isinstance(v, dict):
        return tuple(_decode(x) for x in v["t"])
    return v


def _check_dmr(result: dict, expected: dict) -> bool:
    """Certificates as expected, every ledger entry passing at levels 2k,
    2k, k, and the tracked dimension-1 assignment satisfying every
    constraint of a final instance whose predicates are all d x d blocks."""
    if result["certificates"] != expected["certificates"]:
        return False
    k = expected["k"]
    levels = (2 * k, 2 * k, k)
    if len(result["quantum"]) != 3 or not all(
        entry.startswith(f"level {level}: pass:") for (_, entry), level in zip(result["quantum"], levels)
    ):
        return False
    final = result["final"]
    alphabet = [json.dumps(a, sort_keys=True) for a in final["alphabet"]]
    label = {}
    for x, fam in result["tracked"]["pvms"].items():
        if len(fam) != 1 or list(fam.values())[0] != [[["1", "0"]]]:
            return False
        label[x] = next(iter(fam))
    if set(label) != {json.dumps(v, sort_keys=True) for v in final["variables"]}:
        return False
    constraints = []
    for c in final["constraints"]:
        scope = tuple(json.dumps(v, sort_keys=True) for v in c["scope"])
        allowed = {tuple(json.dumps(a, sort_keys=True) for a in t) for t in c["allowed"]}
        if tuple(label[v] for v in scope) not in allowed:
            return False
        constraints.append((scope, allowed, None))
    return oracles.d_to_d_shape(alphabet, constraints) is not None
