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
)
from ehrkit.polytope import RationalPolytope, contains_polytope

from helpers import to_jsonable


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


def test_polytope_name_must_be_a_string():
    for name in ([1, {"a": 2}], 7, None, True, {"x": "y"}):
        with pytest.raises(InputError, match="name"):
            polytope_from_json({"vertices": [[0], [1]], "name": name})
    assert polytope_from_json({"vertices": [[0], [1]], "name": "seg"}).name == "seg"
    assert polytope_from_json({"vertices": [[0], [1]]}).name == ""


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


# every code point, surrogates included, and the ones JSON escapes
_TEXT = st.text(st.characters(codec=None, exclude_categories=())
                | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff\U0001f600'))
_INTS = st.integers() | st.integers(-(2 ** 200), 2 ** 200)
_FRACTIONS = st.fractions() | st.fractions(-3, 3, max_denominator=4)
# small ones too, so that keys such as 1, True, "1" and Fraction(1) collide
_KEYS = (_TEXT | st.sampled_from(["1", "True", "1/2", "-2"]) | st.integers(-2, 2)
         | st.booleans() | _FRACTIONS)


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(_KEYS, inner, max_size=4)),
        max_leaves=16,
    )


_GOOD = st.none() | st.booleans() | _INTS | _TEXT | _FRACTIONS
_BAD = (st.floats() | st.sets(st.integers(), max_size=2) | st.binary(max_size=2)
        | st.builds(object))


@settings(max_examples=200, deadline=None)
@given(_documents(_GOOD))
def test_dumps_matches_json_dumps_of_the_oracle_copy(doc):
    assert dumps(doc) == json.dumps(to_jsonable(doc), indent=2) + "\n"


@settings(max_examples=150, deadline=None)
@given(_documents(_GOOD | _BAD))
def test_dumps_rejects_what_the_oracle_rejects(doc):
    try:
        expected = json.dumps(to_jsonable(doc), indent=2) + "\n"
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            dumps(doc)
        assert str(caught.value) == str(exc)
    else:
        assert dumps(doc) == expected


@pytest.mark.parametrize("bad", [0.5, {1, 2}, b"x", object()])
def test_dumps_names_the_type_it_cannot_serialize(bad):
    for doc in (bad, [1, bad], {"a": {"b": (bad,)}}, {1: bad, "1": 2}):
        with pytest.raises(InputError) as caught:
            dumps(doc)
        assert str(caught.value) == f"cannot serialize {type(bad).__name__} to JSON"


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
