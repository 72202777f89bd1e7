"""JSON serialization with exact rationals.

Rationals travel as strings "p/q" (plain integers stay JSON numbers), so a
round trip never loses precision. Polytopes are stored by vertex list,
cones by ray list, reports as their instance dictionaries. All emitted
documents are deterministic: keys are written in a fixed order and nothing
depends on hash iteration.

A document is converted once, as `dumps` writes it: Fractions, tuples and
non-string keys go straight from library values to text, which is
byte-identical to `json.dumps(indent=2)` (`ensure_ascii` on) of the
converted copy that is never made.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cones import RationalCone
from .errors import InputError
from .polytope import RationalPolytope
from .report import Report


def rat_to_json(value: Fraction) -> int | str:
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def rat_from_json(value: object) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"expected an exact rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational string {value!r}") from exc
    raise InputError(f"expected an exact rational, got {value!r}")


_escape = json.encoder.encode_basestring_ascii


def _write(value: object, out: list[str], indent: str) -> None:
    """Append the JSON text of `value`, whose first line is at `indent`, to `out`."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, int):
        out.append("true" if value is True else "false" if value is False
                   else int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        comma = ",\n" + inner
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            sep = comma
            _write(item, out, inner)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        start = len(out)
        inner = indent + "  "
        comma = ",\n" + inner
        sep = "{\n" + inner
        for key, item in value.items():
            if key.__class__ is not str:
                # again with str(key) keys, the last of equal ones winning;
                # a value that a later one replaces must still be writable
                del out[start:]
                keyed = {str(k): v for k, v in value.items()}
                if len(keyed) < len(value):
                    _write(list(value.values()), [], indent)
                _write(keyed, out, indent)
                return
            out.append(sep + _escape(key) + ": ")
            sep = comma
            _write(item, out, inner)
        out.append("\n" + indent + "}")
    elif value is None:
        out.append("null")
    elif isinstance(value, Fraction):
        _write(rat_to_json(value), out, indent)
    else:
        raise InputError(f"cannot serialize {type(value).__name__} to JSON")


def dumps(obj: object) -> str:
    """`obj` as JSON text ending in a newline, written in one pass from
    `dict` (keys as `str(key)`), `list`, `tuple`, `str`, `int`, `bool`,
    `None` and `Fraction` (as `rat_to_json` renders it): byte-identical to
    `json.dumps(indent=2)`, `ensure_ascii` on, of the value so converted.
    Any other value raises InputError."""
    out: list[str] = []
    _write(obj, out, "")
    out.append("\n")
    return "".join(out)


def polytope_to_json(p: RationalPolytope) -> dict:
    doc = {
        "kind": "polytope",
        "ambient_dim": p.ambient_dim,
        "vertices": [[rat_to_json(v) for v in vert] for vert in p.vertices],
    }
    if p.name:
        doc["name"] = p.name
    return doc


def _rows_from_json(doc: dict, kind: str, field: str) -> list[list[Fraction]]:
    """The list of coordinate lists in doc[field] of a `kind` document.

    An "ambient_dim" field, when present, must be an integer (not a bool)
    equal to the length of every row.
    """
    if doc.get("kind", kind) != kind:
        raise InputError(f"a document of kind {doc['kind']!r} cannot be read as a {kind}")
    if field not in doc:
        raise InputError(f"{kind} document needs a {field!r} field")
    rows = doc[field]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f"{kind} field {field!r} must be a list of coordinate lists")
    if "ambient_dim" in doc:
        declared = doc["ambient_dim"]
        if (isinstance(declared, bool) or not isinstance(declared, int)
                or any(len(row) != declared for row in rows)):
            raise InputError(
                f"declared ambient dimension {declared!r} does not match the {field}")
    return [[rat_from_json(v) for v in row] for row in rows]


def polytope_from_json(doc: dict) -> RationalPolytope:
    vertices = _rows_from_json(doc, "polytope", "vertices")
    if not vertices:
        raise InputError("polytope document has no vertices")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InputError(f"polytope name must be a string, got {name!r}")
    return RationalPolytope.from_points(vertices, name=name)


def cone_to_json(c: RationalCone) -> dict:
    return {
        "kind": "cone",
        "ambient_dim": c.ambient_dim,
        "rays": [list(ray) for ray in c.generators],
    }


def cone_from_json(doc: dict) -> RationalCone:
    rays = _rows_from_json(doc, "cone", "rays")
    if not rays:
        raise InputError("cone document has no rays")
    return RationalCone.from_rays(rays)


def report_to_json(report: Report) -> dict:
    """The document of `report`: its instances and notes as they are.

    Their Fractions and tuples are converted by `dumps` as it writes them.
    """
    doc = {
        "theorem": report.theorem,
        "verdict": report.verdict,
        "instances": report.instances,
    }
    if report.notes:
        doc["notes"] = report.notes
    return doc


def load_document(path: str) -> RationalPolytope | RationalCone:
    """Read a polytope or cone JSON file, dispatching on its fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"malformed JSON in {path}: nested too deeply") from exc
    except ValueError as exc:  # an integer longer than `int` converts
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "vertices" in doc:
        return polytope_from_json(doc)
    if "rays" in doc:
        return cone_from_json(doc)
    raise InputError(f"{path}: neither a polytope ('vertices') nor a cone ('rays')")


def load_polytope(path: str) -> RationalPolytope:
    doc = load_document(path)
    if not isinstance(doc, RationalPolytope):
        raise InputError(f"{path} holds a cone; this command needs a polytope")
    return doc


def load_cone(path: str) -> RationalCone:
    doc = load_document(path)
    if isinstance(doc, RationalPolytope):
        raise InputError(f"{path} holds a polytope; this command needs a cone")
    return doc
