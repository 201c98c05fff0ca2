"""Round trips of the JSON encodings, with nested vertex ids and complex
rational matrix entries written as [re, im] pairs of rational strings."""

import json
import random
from fractions import Fraction
from re import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromagap.csp import CspInstance
from chromagap.dkkms import build_rho1, build_rho2
from chromagap.qop import GQ, PMatrix, QuantumAssignment, mermin_peres
from chromagap.relstruct import RelStructure, Signature
from chromagap.serialize import (
    assignment_from_dict,
    assignment_to_dict,
    decode_id,
    encode_id,
    instance_to_dict,
    structure_from_dict,
    structure_to_dict,
)
from helpers import random_regular_system, reference_instance_to_dict, reference_structure_to_dict

ids = st.recursive(
    st.one_of(st.integers(-20, 20), st.text(max_size=3)),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)

fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 5, 25)))
entries = st.tuples(fractions, fractions)


@st.composite
def assignments(draw):
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    variables = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    rows = {}
    pvms = {}
    for x in variables:
        labels = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
        fam = {}
        for y in labels:
            ref = [[draw(entries) for _ in range(dim)] for _ in range(dim)]
            fam[y] = PMatrix([[GQ(re, im) for re, im in row] for row in ref])
            rows[(x, y)] = ref
        pvms[x] = fam
    return QuantumAssignment(dim, k, pvms), rows


@given(ids)
def test_identifier_round_trip(value):
    assert decode_id(json.loads(json.dumps(encode_id(value)))) == value


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_assignment_round_trip(case):
    assignment, rows = case
    encoded = assignment_to_dict(assignment)
    decoded = assignment_from_dict(json.loads(json.dumps(encoded)))
    assert decoded.dim == assignment.dim and decoded.k == assignment.k
    assert decoded.pvms == assignment.pvms
    assert assignment_to_dict(decoded) == encoded
    # the wire format: one [re, im] pair of reduced rational strings per entry
    for x, fam in assignment.pvms.items():
        for y in fam:
            written = encoded["pvms"][json.dumps(encode_id(x), sort_keys=True)][
                json.dumps(encode_id(y), sort_keys=True)
            ]
            assert written == [[[str(re), str(im)] for re, im in row] for row in rows[(x, y)]]


@pytest.mark.parametrize("bad", [True, False, 1.5, None, [1], {"t": "ab"}])
def test_identifiers_are_strings_integers_or_tagged_tuples(bad):
    """A JSON boolean is not read as the vertex 1 or 0, nor a float, null,
    list or malformed tag kept to fail later: both directions raise
    ValueError naming the value."""
    with pytest.raises(ValueError, match=escape(repr(bad))):
        decode_id(bad)
    with pytest.raises(ValueError, match=escape(repr(bad))):
        encode_id(bad)
    with pytest.raises(ValueError, match=escape(repr(bad))):
        decode_id({"t": [0, bad]})


@pytest.mark.parametrize("bad", [True, 1.5])
def test_structure_from_dict_rejects_a_non_identifier_vertex(bad):
    d = {"signature": [{"name": "E", "arity": 2}], "domain": [1, bad, 2], "relations": {"E": [[1, 2]]}}
    with pytest.raises(ValueError, match=escape(repr(bad))):
        structure_from_dict(d)


def mixed_ids(rng: random.Random, count: int) -> list:
    """Distinct identifiers mixing strings, integers on both sides of 10
    (JSON text order is not numeric order there) and nested tuples."""
    out: list = []
    while len(out) < count:
        pick = rng.randrange(4)
        if pick == 0:
            v = rng.choice(["a", "b", "x1", "x10", "é", 'q"'])
        elif pick == 1:
            v = rng.randint(-3, 120)
        elif pick == 2:
            v = (rng.choice(["k", 7, 12]), rng.randint(0, 11))
        else:
            v = (rng.choice(["k", 3]), (rng.randint(9, 11), rng.choice(["m", ()])))
        if v not in out:
            out.append(v)
    return out


def test_encoders_match_the_reference_json_text():
    rng = random.Random(25)
    for _ in range(120):
        domain = mixed_ids(rng, rng.randint(1, 7))
        sig = Signature((("E", 2), ("T", 3)))
        relations = {
            name: {tuple(rng.choice(domain) for _ in range(arity)) for _ in range(rng.randint(0, 12))}
            for name, arity in sig.symbols
        }
        X = RelStructure(sig, domain, relations)
        assert json.dumps(structure_to_dict(X), sort_keys=True) == json.dumps(
            reference_structure_to_dict(X), sort_keys=True
        )
        alphabet = mixed_ids(rng, rng.randint(1, 6))
        constraints = [((), {()})]
        for _ in range(rng.randint(0, 5)):
            scope = tuple(rng.choice(domain) for _ in range(rng.randint(1, 3)))
            allowed = {tuple(rng.choice(alphabet) for _ in scope) for _ in range(rng.randint(1, 10))}
            constraints.append((scope, allowed))
        inst = CspInstance(domain, alphabet, constraints)
        assert json.dumps(instance_to_dict(inst), sort_keys=True) == json.dumps(
            reference_instance_to_dict(inst), sort_keys=True
        )


def test_instance_encoder_matches_the_reference_on_rho_instances():
    """The instance encoder, which encodes each variable and label once per
    call, on the reduction's instances: nested-tuple vertex keys shared by
    many scopes, and integer labels shared by every constraint."""
    rng = random.Random(7)
    systems = [mermin_peres()[0]] + [random_regular_system(rng, 3, 9) for _ in range(4)]
    for system in systems:
        rho1 = build_rho1(system, 1, 2)
        assert "2-to-2" in rho1.tags
        for inst in (rho1.instance, build_rho2(rho1).instance):
            assert json.dumps(instance_to_dict(inst), sort_keys=True) == json.dumps(
                reference_instance_to_dict(inst), sort_keys=True
            )
