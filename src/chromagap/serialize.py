"""JSON (de)serialisation for structures, CSP instances, assignments, and
Pultr templates.

Vertex and label identifiers round-trip through a tagged encoding so that
tuple-shaped names (quotient classes, copy vertices) survive JSON: strings
and integers pass through, tuples become {"t": [...]}, and anything else
(a boolean, a float, null) raises ValueError naming it.  Scalars are rational
strings; complex entries are [re, im] pairs of rational strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Collection

from .csp import CspInstance
from .qop import GQ, PMatrix, QuantumAssignment
from .pultr import PultrTemplate
from .relstruct import RelStructure, Signature


def encode_id(value: Any) -> Any:
    if isinstance(value, str) or isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_id(v) for v in value]}
    raise ValueError(f"cannot encode identifier {value!r}")


def decode_id(value: Any) -> Any:
    if isinstance(value, str) or isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, dict) and set(value) == {"t"} and isinstance(value["t"], list):
        return tuple(decode_id(v) for v in value["t"])
    raise ValueError(f"not an identifier: {value!r}")


def _sorted_encoded(tuples: Collection[tuple], codes: dict) -> list:
    """The tuples encoded, in the order of the JSON texts of their encodings.
    Each identifier is encoded and dumped once into `codes`, which calls may
    share; a tuple's text is its members' texts joined as `json.dumps` would."""
    for t in tuples:
        for v in t:
            if v not in codes:
                code = encode_id(v)
                codes[v] = (code, json.dumps(code, sort_keys=True))
    keyed = sorted(tuples, key=lambda t: "[" + ", ".join([codes[v][1] for v in t]) + "]")
    return [[codes[v][0] for v in t] for t in keyed]


def structure_to_dict(s: RelStructure) -> dict:
    return {
        "signature": [{"name": n, "arity": a} for n, a in s.signature.symbols],
        "domain": [encode_id(v) for v in s.domain],
        "relations": {
            name: _sorted_encoded(s.relations[name], {}) for name, _ in s.signature.symbols
        },
    }


def structure_from_dict(d: dict) -> RelStructure:
    sig = Signature(tuple((s["name"], s["arity"]) for s in d["signature"]))
    domain = [decode_id(v) for v in d["domain"]]
    relations = {
        name: [tuple(decode_id(v) for v in t) for t in tuples]
        for name, tuples in d.get("relations", {}).items()
    }
    return RelStructure(sig, domain, relations)


def instance_to_dict(inst: CspInstance) -> dict:
    """Each variable and label is encoded once per call."""
    variables = {v: encode_id(v) for v in inst.variables}
    labels: dict = {}
    return {
        "variables": list(variables.values()),
        "alphabet": [encode_id(a) for a in inst.alphabet],
        "constraints": [
            {
                "scope": [variables[v] for v in c.scope],
                "allowed": _sorted_encoded(c.allowed, labels),
                "weight": str(c.weight),
            }
            for c in inst.constraints
        ],
    }


def instance_from_dict(d: dict) -> CspInstance:
    scopes = []
    weights = []
    for c in d["constraints"]:
        scopes.append(
            (
                tuple(decode_id(v) for v in c["scope"]),
                [tuple(decode_id(a) for a in t) for t in c["allowed"]],
            )
        )
        weights.append(Fraction(c["weight"]) if "weight" in c else None)
    explicit = None if any(w is None for w in weights) else weights
    return CspInstance(
        [decode_id(v) for v in d["variables"]],
        [decode_id(a) for a in d["alphabet"]],
        scopes,
        explicit,
    )


def _scalar_to_pair(x: GQ) -> list:
    return [str(x.re), str(x.im)]


def _scalar_from_pair(p) -> GQ:
    return GQ(Fraction(p[0]), Fraction(p[1]))


def _key_str(value: Any) -> str:
    """Identifiers as JSON-object keys: always the JSON text of the tagged
    encoding, so tuple- and integer-shaped names survive losslessly."""
    return json.dumps(encode_id(value), sort_keys=True)


def _key_from_str(text: str) -> Any:
    return decode_id(json.loads(text))


def assignment_to_dict(a: QuantumAssignment) -> dict:
    return {
        "dim": a.dim,
        "k": a.k,
        "pvms": {
            _key_str(x): {
                _key_str(y): [[_scalar_to_pair(e) for e in row] for row in m.entries]
                for y, m in fam.items()
            }
            for x, fam in a.pvms.items()
        },
    }


def assignment_from_dict(d: dict) -> QuantumAssignment:
    pvms: dict = {}
    for key, fam_d in d["pvms"].items():
        fam = {
            _key_from_str(label): PMatrix(
                [[_scalar_from_pair(p) for p in row] for row in rows]
            )
            for label, rows in fam_d.items()
        }
        pvms[_key_from_str(key)] = fam
    return QuantumAssignment(d["dim"], d["k"], pvms)


def template_to_dict(t: PultrTemplate) -> dict:
    return {
        "rho": [{"name": n, "arity": a} for n, a in t.rho.symbols],
        "tau": [{"name": n, "arity": a} for n, a in t.tau.symbols],
        "A": structure_to_dict(t.A),
        "B": {name: structure_to_dict(t.B[name]) for name, _ in t.tau.symbols},
        "eps": {
            name: [
                {"map": [[encode_id(a), encode_id(b)] for a, b in m.items()]}
                for m in t.eps[name]
            ]
            for name, _ in t.tau.symbols
        },
    }


def template_from_dict(d: dict) -> PultrTemplate:
    rho = Signature(tuple((s["name"], s["arity"]) for s in d["rho"]))
    tau = Signature(tuple((s["name"], s["arity"]) for s in d["tau"]))
    A = structure_from_dict(d["A"])
    B = {name: structure_from_dict(sd) for name, sd in d["B"].items()}
    eps = {
        name: tuple(
            {decode_id(a): decode_id(b) for a, b in entry["map"]}
            for entry in entries
        )
        for name, entries in d["eps"].items()
    }
    return PultrTemplate(rho, tau, A, B, eps)


def dump(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        # json.dump never uses the C encoder; json.dumps without indent does
        fh.write(json.dumps(obj, sort_keys=True))
        fh.write("\n")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
