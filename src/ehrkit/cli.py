"""Command-line interface: JSON in, JSON report out.

Every command reads polytope or cone JSON files (or corpus names via
`corpus-verify`), runs the requested computation, and writes a single JSON
document to stdout or --out. Exit code 0 means every embedded check passed
or was inapplicable to the input; exit code 1 means a check failed or the
input could not be processed. Randomized checks take explicit seeds and
default to fixed ones, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus as corpus_mod
from .cones import (
    partition_check,
    specialization_check,
    stanley_reciprocity_check,
)
from .enumeration import count_points, ehrhart, reciprocity_check
from .errors import EhrkitError, InputError
from .jsonio import dumps, load_document, rat_from_json, report_to_json
from .polytope import RationalPolytope
from .ratpoly import QuasiPoly
from .semimagic import adg_report, birkhoff_polytope, count_semimagic
from .structure import (
    ab_decomposition,
    athanasiadis_check,
    hibi_check,
    monotonicity_check,
    polytope_profile,
    stanley_inequalities,
    stapledon_inequalities,
)
from .triangulation import betke_mcmullen, h_polynomial, placing_triangulation

DEFAULT_SEED = 20240817


def _load_polytope(path: str) -> RationalPolytope:
    doc = load_document(path)
    if not isinstance(doc, RationalPolytope):
        raise InputError(f"{path} holds a cone; this command needs a polytope")
    return doc


def _load_cone(path: str):
    doc = load_document(path)
    if isinstance(doc, RationalPolytope):
        raise InputError(f"{path} holds a polytope; this command needs a cone")
    return doc


def _quasi_doc(quasi: QuasiPoly) -> dict | str:
    if quasi.period == 1:
        return quasi.constituents[0].pretty("n")
    return {
        "period": quasi.period,
        "constituents": [c.pretty("n") for c in quasi.constituents],
    }


def cmd_count(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    value = count_points(p, args.dilate, region=args.region)
    doc = {
        "name": p.name, "dilate": args.dilate, "region": args.region,
        "count": value,
    }
    return doc, True


def cmd_ehrhart(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    result = ehrhart(p)
    doc = {
        "name": p.name,
        "dim": result.dim,
        "period": result.period,
        "poly": _quasi_doc(result.quasi),
        "interior_poly": _quasi_doc(result.quasi_interior),
        "hstar": list(result.hstar.coeffs),
    }
    return doc, True


def cmd_hstar(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    h = ehrhart(p).hstar
    doc = {
        "name": p.name, "dim": h.dim, "period": h.period,
        "hstar": list(h.coeffs), "degree": h.degree(), "codegree": h.codegree(),
    }
    return doc, True


def cmd_reciprocity(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    report = reciprocity_check(p, max_n=args.max_n)
    doc = {"name": p.name, "report": report_to_json(report)}
    return doc, report.passed


def cmd_cone_reciprocity(args) -> tuple[dict, bool]:
    cone = _load_cone(args.file)
    report = stanley_reciprocity_check(cone, trials=args.trials, seed=args.seed)
    doc = {"file": args.file, "report": report_to_json(report)}
    return doc, report.passed


def cmd_specialize(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    x0 = rat_from_json(args.x0)
    report = specialization_check(p, x0, truncation=args.truncation)
    doc = {"name": p.name, "x0": args.x0, "report": report_to_json(report)}
    return doc, report.passed


def cmd_decompose(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    dec = betke_mcmullen(p, use_all_lattice_points=args.all_points)
    contributions = [
        {
            "face": list(face),
            "link_h": list(h_link.coeffs),
            "box": list(box.coeffs),
        }
        for face, h_link, box in dec.contributions
    ]
    doc = {
        "name": p.name,
        "flavor": "all-lattice-points" if args.all_points else "vertices",
        "hstar": list(dec.hstar.coeffs),
        "cells": [list(c) for c in dec.triangulation.cells],
        "unimodular": dec.triangulation.is_unimodular(),
        "contributions": contributions,
    }
    return doc, True


def cmd_triangulate(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    t = placing_triangulation(p, use_all_lattice_points=args.all_points)
    doc = {
        "name": p.name,
        "flavor": "all-lattice-points" if args.all_points else "vertices",
        "points": [list(pt) for pt in t.points],
        "cells": [list(c) for c in t.cells],
        "f_vector": list(t.f_vector()),
        "cell_volumes": [t.cell_volume(c) for c in t.cells],
        "normalized_volume": t.normalized_volume(),
        "unimodular": t.is_unimodular(),
        "h_T": list(h_polynomial(t.f_vector(), t.dim).coeffs),
    }
    return doc, True


def cmd_inequalities(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    pr = polytope_profile(p)
    reports = [
        stanley_inequalities(pr),
        stapledon_inequalities(pr),
        athanasiadis_check(p),
    ]
    doc = {
        "name": p.name,
        "profile": {"d": pr.d, "s": pr.s, "l": pr.l, "hstar": list(pr.coeffs)},
        "reports": [report_to_json(r) for r in reports],
    }
    return doc, all(r.passed for r in reports)


def cmd_hibi(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    report = hibi_check(p)
    doc = {"name": p.name, "report": report_to_json(report)}
    return doc, report.passed


def cmd_ab(args) -> tuple[dict, bool]:
    p = _load_polytope(args.file)
    dec = ab_decomposition(polytope_profile(p))
    doc = {
        "name": p.name, "d": dec.d, "l": dec.l,
        "a": list(dec.a.coeffs), "b": list(dec.b.coeffs),
        "b_is_zero": not dec.b,
    }
    return doc, True


def cmd_monotonic(args) -> tuple[dict, bool]:
    inner = _load_polytope(args.inner)
    outer = _load_polytope(args.outer)
    report = monotonicity_check(inner, outer)
    doc = {
        "inner": inner.name, "outer": outer.name,
        "report": report_to_json(report),
    }
    return doc, report.passed


def cmd_semimagic(args) -> tuple[dict, bool]:
    table, report = adg_report(args.n, rmax=args.rmax)
    doc = {
        "n": table.n,
        "values": list(table.values),
        "poly": table.count_poly.pretty("r"),
        "numerator": list(table.numerator.coeffs),
        "report": report_to_json(report),
    }
    return doc, report.passed


def _verify_polytope(name: str) -> tuple[dict, bool]:
    p = corpus_mod.load_polytope(name)
    result = ehrhart(p)
    reports = [reciprocity_check(p, max_n=4)]
    if p.is_lattice:
        pr = polytope_profile(p)
        reports.append(stanley_inequalities(pr))
        reports.append(stapledon_inequalities(pr))
        reports.append(athanasiadis_check(p))
        dec = betke_mcmullen(p)
        if p.dim == p.ambient_dim:
            reports.append(hibi_check(p))
    entry = {
        "name": name,
        "dim": p.dim,
        "period": result.period,
        "hstar": list(result.hstar.coeffs),
        "reports": [report_to_json(r) for r in reports],
    }
    if p.is_lattice:
        entry["decomposition_hstar"] = list(dec.hstar.coeffs)
    ok = all(r.passed for r in reports)
    return entry, ok


def cmd_corpus_verify(args) -> tuple[dict, bool]:
    seed = args.seed
    # drawn first, so that a bad --random fails before the corpus work
    random_polytopes = corpus_mod.random_lattice_polytopes(args.random, seed=seed)
    all_ok = True
    polytope_entries = []
    for name in corpus_mod.list_polytopes():
        entry, ok = _verify_polytope(name)
        polytope_entries.append(entry)
        all_ok = all_ok and ok
    cone_entries = []
    for name in corpus_mod.list_cones():
        cone = corpus_mod.load_cone(name)
        reports = [
            stanley_reciprocity_check(cone, trials=5, seed=seed),
            partition_check(cone, bound=3),
        ]
        cone_entries.append({
            "name": name,
            "reports": [report_to_json(r) for r in reports],
        })
        all_ok = all_ok and all(r.passed for r in reports)
    pair_entries = []
    for inner_name, outer_name in corpus_mod.MONOTONE_PAIRS:
        inner = corpus_mod.load_polytope(inner_name)
        outer = corpus_mod.load_polytope(outer_name)
        report = monotonicity_check(inner, outer)
        pair_entries.append({
            "inner": inner_name, "outer": outer_name,
            "report": report_to_json(report),
        })
        all_ok = all_ok and report.passed
    random_entries = []
    for p in random_polytopes:
        report = reciprocity_check(p, max_n=3)
        random_entries.append({
            "name": p.name,
            "vertices": [list(v) for v in p.vertices],
            "report": report_to_json(report),
        })
        all_ok = all_ok and report.passed
    semimagic_entries = []
    for n in (2, 3):
        table, report = adg_report(n)
        bridge = birkhoff_polytope(n)
        geometric = [count_points(bridge, r) for r in range(3)]
        bridge_ok = geometric == list(table.values[:3])
        semimagic_entries.append({
            "n": n,
            "values": list(table.values),
            "geometric_counts": geometric,
            "bridge_pass": bridge_ok,
            "report": report_to_json(report),
        })
        all_ok = all_ok and report.passed and bridge_ok
    doc = {
        "seed": seed,
        "polytopes": polytope_entries,
        "cones": cone_entries,
        "monotone_pairs": pair_entries,
        "random_polytopes": random_entries,
        "semimagic": semimagic_entries,
        "verdict": "pass" if all_ok else "fail",
    }
    return doc, all_ok


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file")
    parser = argparse.ArgumentParser(
        prog="ehrkit",
        description="Exact lattice-point counting and h*-vector toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", parents=[common],
                        help="lattice points in a dilate")
    sp.add_argument("file")
    sp.add_argument("--dilate", type=int, default=1)
    sp.add_argument("--region", choices=["closed", "interior"], default="closed")
    sp.set_defaults(run=cmd_count)

    sp = sub.add_parser("ehrhart", parents=[common],
                        help="counting quasipolynomial and series numerator")
    sp.add_argument("file")
    sp.set_defaults(run=cmd_ehrhart)

    sp = sub.add_parser("hstar", parents=[common], help="series numerator only")
    sp.add_argument("file")
    sp.set_defaults(run=cmd_hstar)

    sp = sub.add_parser("reciprocity", parents=[common],
                        help="negative dilates against interior counts")
    sp.add_argument("file")
    sp.add_argument("--max-n", type=int, default=8)
    sp.set_defaults(run=cmd_reciprocity)

    sp = sub.add_parser("cone-reciprocity", parents=[common],
                        help="generating function inversion z -> 1/z")
    sp.add_argument("file")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.set_defaults(run=cmd_cone_reciprocity)

    sp = sub.add_parser("specialize", parents=[common],
                        help="cone generating function against the series")
    sp.add_argument("file")
    sp.add_argument("--x0", default="1/2", help="evaluation point, e.g. 1/2")
    sp.add_argument("--truncation", type=int, default=12)
    sp.set_defaults(run=cmd_specialize)

    sp = sub.add_parser("decompose", parents=[common],
                        help="h* assembled from links and box polynomials")
    sp.add_argument("file")
    sp.add_argument("--all-points", action="store_true",
                    help="triangulate on all lattice points, not just vertices")
    sp.set_defaults(run=cmd_decompose)

    sp = sub.add_parser("triangulate", parents=[common],
                        help="placing triangulation data")
    sp.add_argument("file")
    sp.add_argument("--all-points", action="store_true")
    sp.set_defaults(run=cmd_triangulate)

    sp = sub.add_parser("inequalities", parents=[common],
                        help="coefficient inequality families")
    sp.add_argument("file")
    sp.set_defaults(run=cmd_inequalities)

    sp = sub.add_parser("hibi", parents=[common],
                        help="palindromy against reflexivity of the dilate")
    sp.add_argument("file")
    sp.set_defaults(run=cmd_hibi)

    sp = sub.add_parser("ab", parents=[common], help="palindromic split of h*")
    sp.add_argument("file")
    sp.set_defaults(run=cmd_ab)

    sp = sub.add_parser("monotonic", parents=[common],
                        help="componentwise h* comparison for nested polytopes")
    sp.add_argument("inner")
    sp.add_argument("outer")
    sp.set_defaults(run=cmd_monotonic)

    sp = sub.add_parser("semimagic", parents=[common],
                        help="equal-line-sum matrix counts and structure")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rmax", type=int, default=None)
    sp.set_defaults(run=cmd_semimagic)

    sp = sub.add_parser("corpus-verify", parents=[common],
                        help="run every check across the shipped corpus")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--random", type=int, default=5,
                    help="number of seeded random polytopes to sweep")
    sp.set_defaults(run=cmd_corpus_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, ok = args.run(args)
    except EhrkitError as exc:
        doc, ok = {"error": str(exc)}, False
    text = dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
