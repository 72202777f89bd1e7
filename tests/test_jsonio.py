"""Serialization round trips, loader totality and corpus integrity."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrkit.cones import RationalCone
from ehrkit.corpus import (
    MONOTONE_PAIRS,
    list_cones,
    list_polytopes,
    load_cone,
    load_polytope,
    random_lattice_polytopes,
)
from ehrkit.errors import InputError
from ehrkit.jsonio import (
    cone_from_json,
    cone_to_json,
    dumps,
    load_document,
    polytope_from_json,
    polytope_to_json,
    rat_from_json,
    rat_to_json,
    to_jsonable,
)
from ehrkit.polytope import RationalPolytope, contains_polytope


def test_rational_round_trip():
    for value in [Fraction(0), Fraction(5), Fraction(-3), Fraction(1, 2),
                  Fraction(-7, 3)]:
        assert rat_from_json(rat_to_json(value)) == value
    assert rat_to_json(Fraction(4, 2)) == 2
    assert rat_to_json(Fraction(1, 2)) == "1/2"


def test_rational_rejects_floats_and_garbage():
    with pytest.raises(InputError):
        rat_from_json(0.5)
    with pytest.raises(InputError):
        rat_from_json(True)
    with pytest.raises(InputError):
        rat_from_json("1/0")
    with pytest.raises(InputError):
        rat_from_json("abc")
    with pytest.raises(InputError):
        rat_from_json([1])


def test_polytope_round_trip():
    p = RationalPolytope.from_points([(0, 0), ("1/2", 0), (0, "1/3")], name="demo")
    q = polytope_from_json(polytope_to_json(p))
    assert q == p
    assert q.name == "demo"


def test_polytope_document_validation():
    with pytest.raises(InputError):
        polytope_from_json({"kind": "polytope"})
    with pytest.raises(InputError):
        polytope_from_json({"vertices": []})
    # True == 1 and 1.0 == 1 in Python, yet neither is a JSON integer
    for declared in (2, True, 1.0):
        with pytest.raises(InputError):
            polytope_from_json({"vertices": [[0], [1]], "ambient_dim": declared})


@pytest.mark.parametrize("declared", [5, 1, "x", "2", None, True, 2.0, [2]])
def test_declared_ambient_dim_must_be_the_row_length(tmp_path, declared):
    path = tmp_path / "doc.json"
    for doc, load in [({"rays": [[1, 0], [0, 1]]}, cone_from_json),
                      ({"vertices": [[0, 0], [1, 0], [0, 1]]}, polytope_from_json)]:
        assert load(dict(doc, ambient_dim=2)).ambient_dim == 2
        with pytest.raises(InputError, match="declared ambient dimension"):
            load(dict(doc, ambient_dim=declared))
        path.write_text(json.dumps(dict(doc, ambient_dim=declared)))
        with pytest.raises(InputError, match="declared ambient dimension"):
            load_document(str(path))


def test_loaders_reject_fields_that_are_not_lists_of_lists():
    for doc in [{"vertices": [0, 1]}, {"vertices": 5}, {"vertices": [[0], 1]},
                {"vertices": "[[0]]"}, {"vertices": {"0": [0]}}]:
        with pytest.raises(InputError):
            polytope_from_json(doc)
    for doc in [{"rays": [1, 2]}, {"rays": 5}, {"rays": [[1, 0], None]}]:
        with pytest.raises(InputError):
            cone_from_json(doc)


def test_loaders_reject_a_contradicting_kind(tmp_path):
    with pytest.raises(InputError):
        polytope_from_json({"kind": "cone", "vertices": [[0], [1]]})
    with pytest.raises(InputError):
        cone_from_json({"kind": "polytope", "rays": [[1, 0]]})
    assert polytope_from_json({"kind": "polytope", "vertices": [[0], [1]]}).dim == 1
    assert cone_from_json({"kind": "cone", "rays": [[1, 0]]}).dim == 1
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "cone", "vertices": [[0], [1]]}))
    with pytest.raises(InputError):
        load_document(str(path))


_FIELDS = st.sampled_from(["kind", "vertices", "rays", "name", "ambient_dim"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
    | st.sampled_from(["polytope", "cone", "1/2", "-3", "1/0", "x", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_FIELDS, inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_FIELDS, _JSON, max_size=4) | _JSON)
def test_load_document_loads_or_raises_input_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    try:
        load_document(str(path))
    except InputError:
        pass


def test_cone_round_trip():
    c = RationalCone.from_rays([(1, 0), ("1/2", "1/2")])
    assert cone_from_json(cone_to_json(c)) == c


def test_to_jsonable_nested():
    doc = to_jsonable({"a": [Fraction(1, 2), (1, 2)], "b": None, "c": True})
    assert doc == {"a": ["1/2", [1, 2]], "b": None, "c": True}
    with pytest.raises(InputError):
        to_jsonable(object())


def test_dumps_is_deterministic():
    doc = {"z": [Fraction(1, 3)], "a": 1}
    assert dumps(doc) == dumps(doc)
    assert dumps(doc).endswith("\n")


def test_corpus_inventory():
    names = list_polytopes()
    assert len(names) >= 12
    for expected in ["half_segment", "reeve_2", "reeve_3", "birkhoff_3",
                     "hypercube_4d", "unit_square"]:
        assert expected in names
    assert len(list_cones()) >= 6


def test_corpus_members_load_with_expected_shape():
    dims = set()
    for name in list_polytopes():
        p = load_polytope(name)
        assert p.name == name
        dims.add(p.dim)
    assert {1, 2, 3, 4} <= dims
    rational = load_polytope("half_segment")
    assert rational.vertex_denominator() == 2


def test_corpus_unknown_name():
    with pytest.raises(InputError):
        load_polytope("no_such_polytope")
    with pytest.raises(InputError):
        load_cone("no_such_cone")


def test_monotone_pairs_really_nest():
    for inner_name, outer_name in MONOTONE_PAIRS:
        inner = load_polytope(inner_name)
        outer = load_polytope(outer_name)
        assert contains_polytope(inner, outer), (inner_name, outer_name)


def test_random_polytopes_reproducible():
    first = random_lattice_polytopes(5, seed=11)
    second = random_lattice_polytopes(5, seed=11)
    assert [p.vertices for p in first] == [p.vertices for p in second]
    assert all(1 <= p.dim <= 3 for p in first)
    other = random_lattice_polytopes(5, seed=12)
    assert [p.vertices for p in first] != [p.vertices for p in other]
