"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces public functions of the ehrkit modules with
wrappers that record one span per call: name, start, end, parent span id
and run id, plus work counts derived from the arguments and the result.
Each wrapper is installed in every ehrkit module namespace that binds the
original object, so `from .enumeration import enumerate_points` in
`triangulation` is traced as well. Per-point helpers such as
`HRep.satisfies` and `linalg.dot` are deliberately not wrapped: they run
millions of times and would swamp what they measure.

Spans stay in memory until `write()`; `layer_metrics()` turns them into
the per-layer metrics named in BENCHMARK.json. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import comb, prod


def _box_volume(lo, hi) -> int:
    return prod(max(0, h - l + 1) for l, h in zip(lo, hi))


# -- counts derived from arguments and results ------------------------------


def _from_points_counts(args, kwargs, result, before):
    dim = result.dim
    return {
        "facets": len(result.facets().inequalities),
        "subsets": comb(before, dim) if dim >= 1 else 0,
    }


def _enumerate_counts(args, kwargs, result, before):
    lo, hi = args[0].bounding_box()
    return {"points": len(result), "box_cells": _box_volume(lo, hi)}


def _placing_counts(args, kwargs, result, before):
    return {"points": len(args[0]), "cells": len(result)}


def _betke_counts(args, kwargs, result, before):
    return {"faces": len(result.triangulation.faces())}


def _parallelepiped_counts(args, kwargs, result, before):
    gens = args[0].generators
    n = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(n)]
    return {"kept": len(result), "scanned": _box_volume(lo, hi)}


def _decompose_counts(args, kwargs, result, before):
    return {"pieces": len(result)}


def _evaluate_counts(args, kwargs, result, before):
    gf = args[0]
    return {"monomials": sum(len(num) + len(den) for num, den in gf.pieces)}


def _cache_hits(fn):
    def before(args, kwargs):
        return fn.cache_info().hits, args

    def counts(args, kwargs, result, hits_before):
        return {"hits": fn.cache_info().hits - hits_before}

    return before, counts


def _distinct_points(args, kwargs):
    points = list(args[0])  # the caller may pass a one-shot iterable
    return len({tuple(pt) for pt in points}), (points,) + args[1:]


_STRUCTURE = ("profile", "polytope_profile", "stanley_inequalities",
              "stapledon_inequalities", "ab_decomposition", "ab_report",
              "hibi_check", "athanasiadis_check", "monotonicity_check")
_JSONIO = ("dumps", "load_document", "polytope_from_json", "cone_from_json",
           "polytope_to_json", "cone_to_json", "report_to_json")


def _targets():
    """(span name, module, attribute path, before hook, counts hook).

    A before hook returns (state, args) and sees the call first; the counts
    hook gets that state back with the result.
    """
    from ehrkit import semimagic

    hits_before, hits_counts = _cache_hits(semimagic.count_semimagic)
    targets = [
        ("polytope.from_points", "polytope", "RationalPolytope.from_points",
         _distinct_points, _from_points_counts),
        ("enumeration.enumerate_points", "enumeration", "enumerate_points",
         None, _enumerate_counts),
        ("enumeration.count_points", "enumeration", "count_points", None, None),
        ("enumeration.reciprocity_check", "enumeration", "reciprocity_check",
         None, None),
        ("enumeration.ehrhart", "enumeration", "ehrhart", None, None),
        ("ratpoly.interpolate", "ratpoly", "interpolate", None, None),
        ("ratpoly.hstar_from_counts", "ratpoly", "hstar_from_counts", None, None),
        ("placing.placing_cells", "placing", "placing_cells", None, _placing_counts),
        ("triangulation.betke_mcmullen", "triangulation", "betke_mcmullen",
         None, _betke_counts),
        ("triangulation.box_polynomial", "triangulation", "box_polynomial",
         None, None),
        ("triangulation.link_f_vector", "triangulation", "link_f_vector",
         None, None),
        ("cones.parallelepiped_points", "cones", "parallelepiped_points",
         None, _parallelepiped_counts),
        ("cones.decompose", "cones", "decompose", None, _decompose_counts),
        ("cones.generating_function", "cones", "generating_function", None, None),
        ("cones.ConeGF.evaluate", "cones", "ConeGF.evaluate", None, _evaluate_counts),
        ("semimagic.count_semimagic", "semimagic", "count_semimagic",
         hits_before, hits_counts),
        ("semimagic.adg_report", "semimagic", "adg_report", None, None),
    ]
    targets += [(f"structure.{n}", "structure", n, None, None) for n in _STRUCTURE]
    targets += [(f"jsonio.{n}", "jsonio", n, None, None) for n in _JSONIO]
    return targets


class Tracer:
    """Span recorder for one run; install once per interpreter."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, before=None, counts=None):
        """Wrap `fn` so that every call records a span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before:
                state, args = before(args, kwargs)
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if counts:
                span["counts"] = counts(args, kwargs, result, state)
            return result

        return wrapper

    def install(self) -> None:
        import ehrkit.cli  # noqa: F401  (loads every ehrkit module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ehrkit" or n.startswith("ehrkit.")]
        for name, module_name, path, before, counts in _targets():
            owner = sys.modules[f"ehrkit.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.span(name, original, before, counts)
            if outer:
                raw = inspect.getattr_static(owner, attr)
                setattr(owner, attr,
                        staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, keyed as in BENCHMARK.json."""
    child_ns = [0] * len(spans)
    children: dict[int, list[str]] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
            children.setdefault(s["parent"], []).append(s["name"])
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    totals: dict[str, int] = {}
    for s in spans:
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (s["end"] - s["start"]) - child_ns[s["id"]]
        for key, value in s.get("counts", {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    # ehrhart "hit": a call that ran no enumeration, i.e. a cache hit
    ehrhart_hits = sum(
        1 for s in spans if s["name"] == "enumeration.ehrhart"
        and "enumeration.enumerate_points" not in children.get(s["id"], ())
    )

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_ns.get(name, 0) / 1e9

    def n(key):
        return totals.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["polytope.from_points.calls"] = c("polytope.from_points")
    m["polytope.from_points.self_s"] = t("polytope.from_points")
    m["polytope.from_points.facets"] = n("polytope.from_points.facets")
    m["polytope.from_points.subsets"] = n("polytope.from_points.subsets")
    m["enumeration.enumerate_points.calls"] = c("enumeration.enumerate_points")
    m["enumeration.enumerate_points.self_s"] = t("enumeration.enumerate_points")
    m["enumeration.enumerate_points.points"] = n("enumeration.enumerate_points.points")
    m["enumeration.enumerate_points.box_cells"] = n("enumeration.enumerate_points.box_cells")
    m["enumeration.enumerate_points.yield"] = ratio(
        n("enumeration.enumerate_points.points"),
        n("enumeration.enumerate_points.box_cells"))
    m["enumeration.count_points.self_s"] = t("enumeration.count_points")
    m["enumeration.reciprocity_check.self_s"] = t("enumeration.reciprocity_check")
    m["enumeration.ehrhart.calls"] = c("enumeration.ehrhart")
    m["enumeration.ehrhart.self_s"] = t("enumeration.ehrhart")
    m["enumeration.ehrhart.hit_ratio"] = ratio(ehrhart_hits, c("enumeration.ehrhart"))
    m["ratpoly.interpolate.calls"] = c("ratpoly.interpolate")
    m["ratpoly.interpolate.self_s"] = t("ratpoly.interpolate")
    m["ratpoly.hstar_from_counts.self_s"] = t("ratpoly.hstar_from_counts")
    m["placing.placing_cells.calls"] = c("placing.placing_cells")
    m["placing.placing_cells.self_s"] = t("placing.placing_cells")
    m["placing.placing_cells.points"] = n("placing.placing_cells.points")
    m["placing.placing_cells.cells"] = n("placing.placing_cells.cells")
    m["triangulation.betke_mcmullen.self_s"] = t("triangulation.betke_mcmullen")
    m["triangulation.betke_mcmullen.faces"] = n("triangulation.betke_mcmullen.faces")
    m["triangulation.box_polynomial.calls"] = c("triangulation.box_polynomial")
    m["triangulation.box_polynomial.self_s"] = t("triangulation.box_polynomial")
    m["triangulation.link_f_vector.calls"] = c("triangulation.link_f_vector")
    m["triangulation.link_f_vector.self_s"] = t("triangulation.link_f_vector")
    m["cones.parallelepiped_points.calls"] = c("cones.parallelepiped_points")
    m["cones.parallelepiped_points.self_s"] = t("cones.parallelepiped_points")
    m["cones.parallelepiped_points.kept"] = n("cones.parallelepiped_points.kept")
    m["cones.parallelepiped_points.scanned"] = n("cones.parallelepiped_points.scanned")
    m["cones.parallelepiped_points.kept_ratio"] = ratio(
        n("cones.parallelepiped_points.kept"), n("cones.parallelepiped_points.scanned"))
    m["cones.decompose.self_s"] = t("cones.decompose")
    m["cones.decompose.pieces"] = n("cones.decompose.pieces")
    m["cones.generating_function.self_s"] = t("cones.generating_function")
    m["cones.ConeGF.evaluate.calls"] = c("cones.ConeGF.evaluate")
    m["cones.ConeGF.evaluate.self_s"] = t("cones.ConeGF.evaluate")
    m["cones.ConeGF.evaluate.monomials"] = n("cones.ConeGF.evaluate.monomials")
    m["semimagic.count_semimagic.calls"] = c("semimagic.count_semimagic")
    m["semimagic.count_semimagic.self_s"] = t("semimagic.count_semimagic")
    m["semimagic.count_semimagic.hit_ratio"] = ratio(
        n("semimagic.count_semimagic.hits"), c("semimagic.count_semimagic"))
    m["semimagic.adg_report.self_s"] = t("semimagic.adg_report")
    m["structure.self_s"] = sum(t(f"structure.{f}") for f in _STRUCTURE)
    m["jsonio.self_s"] = sum(t(f"jsonio.{f}") for f in _JSONIO)
    return m
