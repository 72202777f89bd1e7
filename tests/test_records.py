"""Record classes: repr, equality, hash and immutability, and a cold import.

The repr strings were recorded from the dataclass versions of these
classes, so a change of format shows here. The expected hash of a frozen
record is the hash of its field tuple, which is also what the dataclass
versions gave.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ehrkit
from ehrkit.cones import ConeGF, HalfOpenSimplicialCone, RationalCone, generating_function
from ehrkit.enumeration import EhrhartResult, ehrhart
from ehrkit.polytope import HRep, RationalPolytope
from ehrkit.ratpoly import HStarData, Poly, QuasiPoly
from ehrkit.report import Report
from ehrkit.semimagic import SemimagicTable
from ehrkit.structure import ABDecomposition, HStarProfile
from ehrkit.triangulation import HStarDecomposition, betke_mcmullen


def _half_segment_result() -> EhrhartResult:
    return ehrhart(RationalPolytope.from_points([[0], [Fraction(1, 2)]]))


# (build, fields compared and shown, repr recorded from the dataclasses)
FROZEN = [
    (lambda: RationalCone(2, ((1, 0), (1, 2))), ("ambient_dim", "generators"),
     "RationalCone(ambient_dim=2, generators=((1, 0), (1, 2)))"),
    (lambda: HalfOpenSimplicialCone(((1, 0), (1, 2)), (False, True)),
     ("generators", "open_flags"),
     "HalfOpenSimplicialCone(generators=((1, 0), (1, 2)), open_flags=(False, True))"),
    (lambda: ConeGF(((((0, 0), (1, 1)), ((1, 0), (1, 2))),)), ("pieces",),
     "ConeGF(pieces=((((0, 0), (1, 1)), ((1, 0), (1, 2))),))"),
    (_half_segment_result, ("dim", "period", "quasi", "quasi_interior", "hstar"),
     "EhrhartResult(dim=1, period=2, quasi=QuasiPoly(period=2, constituents=("
     "Poly(coeffs=(Fraction(1, 1), Fraction(1, 2))), "
     "Poly(coeffs=(Fraction(1, 2), Fraction(1, 2))))), "
     "quasi_interior=QuasiPoly(period=2, constituents=("
     "Poly(coeffs=(Fraction(-1, 1), Fraction(1, 2))), "
     "Poly(coeffs=(Fraction(-1, 2), Fraction(1, 2))))), "
     "hstar=HStarData(coeffs=(1, 1), dim=1, period=2))"),
    (lambda: HRep((((1, 1), 2),), (((-1, 0), 0), ((0, -1), 0))),
     ("equalities", "inequalities"),
     "HRep(equalities=(((1, 1), 2),), inequalities=(((-1, 0), 0), ((0, -1), 0)))"),
    (lambda: Poly([1, Fraction(1, 2), 0]), ("coeffs",),
     "Poly(coeffs=(Fraction(1, 1), Fraction(1, 2)))"),
    (lambda: QuasiPoly(2, [Poly([1]), Poly([0, Fraction(1, 3)])]),
     ("period", "constituents"),
     "QuasiPoly(period=2, constituents=(Poly(coeffs=(Fraction(1, 1),)), "
     "Poly(coeffs=(Fraction(0, 1), Fraction(1, 3)))))"),
    (lambda: HStarData([1, Fraction(3, 2), 0], dim=1, period=2),
     ("coeffs", "dim", "period"),
     "HStarData(coeffs=(1, Fraction(3, 2)), dim=1, period=2)"),
    (lambda: SemimagicTable(2, (1, 2, 3), Poly([1, 1]), Poly([1])),
     ("n", "values", "count_poly", "numerator"),
     "SemimagicTable(n=2, values=(1, 2, 3), "
     "count_poly=Poly(coeffs=(Fraction(1, 1), Fraction(1, 1))), "
     "numerator=Poly(coeffs=(Fraction(1, 1),)))"),
    (lambda: HStarProfile(2, 1, 2, (1, 4)), ("d", "s", "l", "coeffs"),
     "HStarProfile(d=2, s=1, l=2, coeffs=(1, 4))"),
    (lambda: ABDecomposition(Poly([1, 1]), Poly(), 2, 1), ("a", "b", "l", "d"),
     "ABDecomposition(a=Poly(coeffs=(Fraction(1, 1), Fraction(1, 1))), "
     "b=Poly(coeffs=()), l=2, d=1)"),
]
FROZEN_IDS = [case[2].split("(", 1)[0] for case in FROZEN]


@pytest.mark.parametrize("build, fields, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_record_repr_is_pinned(build, fields, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, fields, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_record_equality_and_hash_follow_the_fields(build, fields, text):
    a, b = build(), build()
    values = tuple(getattr(a, name) for name in fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    # a record is no tuple: it equals neither its field tuple nor a stranger
    assert a != values and a != object()
    assert not isinstance(a, tuple)


@pytest.mark.parametrize("build, fields, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_record_rejects_assignment_and_deletion(build, fields, text):
    record = build()
    before = getattr(record, fields[0])
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, fields[0]) is before


@pytest.mark.parametrize("build, fields, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_record_survives_pickle_and_deepcopy(build, fields, text):
    record = build()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and repr(twin) == text
        assert hash(twin) == hash(record)


# the records built by the shared FrozenRecord constructor, one value per field
PLAIN = [RationalCone, EhrhartResult, HRep, SemimagicTable, ABDecomposition,
         HStarDecomposition]


@pytest.mark.parametrize("cls", PLAIN, ids=[cls.__name__ for cls in PLAIN])
def test_plain_record_rejects_a_wrong_number_of_values(cls):
    values = tuple(range(len(cls._fields)))
    record = cls(*values)
    assert tuple(getattr(record, name) for name in cls._fields) == values
    for wrong in (values[:-1], values + (None,), ()):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(values)} values, "
                                            f"got {len(wrong)}$"):
            cls(*wrong)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{cls._fields[-1]: values[-1]})


def test_records_differ_when_a_field_differs():
    assert Poly([1, 2]) != Poly([1, 3])
    assert RationalCone(2, ((1, 0),)) != RationalCone(3, ((1, 0),))
    assert HStarData([1, 1], dim=1) != HStarData([1, 1], dim=2)
    # the same fields in another class
    assert HRep((), ()) != RationalCone((), ())


def test_half_open_cone_solve_is_outside_equality_and_repr():
    gens = ((1, 0), (1, 2))
    computed = HalfOpenSimplicialCone(gens, (False, True))
    given = HalfOpenSimplicialCone(gens, (False, True), solve=("any", "solve"))
    assert given.solve == ("any", "solve")
    assert computed.solve != given.solve
    assert computed == given and hash(computed) == hash(given)
    assert repr(computed) == repr(given)
    assert "solve" not in repr(given)


def test_cone_generating_function_plan_is_made_once_and_not_compared():
    cone = RationalCone.from_rays([(1, 0), (1, 2)])
    gf = generating_function(cone)
    fresh = generating_function(cone)
    point = (Fraction(1, 3), Fraction(2, 5))
    first = gf.evaluate(point)
    plan = gf._plan
    assert plan is not None
    assert gf.evaluate(point) == first == fresh.evaluate(point)
    assert gf.evaluate((Fraction(1, 2), Fraction(1, 7))) == fresh.evaluate(
        (Fraction(1, 2), Fraction(1, 7)))
    assert gf._plan is plan
    assert gf == ConeGF(gf.pieces) and repr(gf) == repr(ConeGF(gf.pieces))


def test_hstar_decomposition_record():
    p = RationalPolytope.from_points([[0, 0], [1, 0], [0, 1]])
    dec = betke_mcmullen(p)
    assert repr(dec) == (
        "HStarDecomposition(hstar=HStarData(coeffs=(1,), dim=2, period=1), "
        f"triangulation={dec.triangulation!r}, contributions=(((), "
        "Poly(coeffs=(Fraction(1, 1),)), Poly(coeffs=(Fraction(1, 1),))),))"
    )
    twin = HStarDecomposition(dec.hstar, dec.triangulation, dec.contributions)
    assert twin == dec and hash(twin) == hash(
        (dec.hstar, dec.triangulation, dec.contributions))
    # the triangulation compares by identity
    assert HStarDecomposition(dec.hstar, betke_mcmullen(p).triangulation,
                              dec.contributions) != dec
    with pytest.raises(AttributeError):
        dec.hstar = None


def test_report_is_mutable_unhashable_and_owns_its_notes():
    a = Report("t", [{"pass": True}], "pass")
    b = Report("t", [{"pass": True}], "pass")
    assert repr(a) == "Report(theorem='t', instances=[{'pass': True}], verdict='pass', notes={})"
    assert a == b
    a.notes["k"] = 1
    assert b.notes == {} and a != b
    a.verdict = "fail"
    assert a.verdict == "fail" and not a.passed
    with pytest.raises(TypeError):
        hash(a)
    given = {"x": 1}
    assert Report("t", [], "pass", given).notes is given
    assert pickle.loads(pickle.dumps(a)) == a


def test_cli_import_in_a_fresh_interpreter_skips_heavy_stdlib_modules():
    """`import ehrkit.cli` is what every CLI call and benchmark worker pays
    first; `dataclasses` pulls in `inspect` (and `ast`, `dis`, `tokenize`),
    `importlib.resources` pulls in zipfile and tempfile, and `typing` would
    be loaded for annotations only."""
    heavy = ("dataclasses", "inspect", "importlib.resources", "typing")
    code = ("import sys; import ehrkit.cli; "
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(ehrkit.__file__).resolve().parents[1]))
    # -S: no site module, so no .pth file imports anything before ehrkit does
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
