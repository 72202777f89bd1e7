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
from .cones import partition_check, specialization_check, stanley_reciprocity_check
from .enumeration import count_points, ehrhart, prefix_box, reciprocity_check
from .errors import EhrkitError, UnsupportedError
from .jsonio import dumps, load_cone, load_polytope, rat_from_json, report_to_json
from .polytope import RationalPolytope, relative_volume
from .ratpoly import QuasiPoly
from .report import Report
from .semimagic import adg_report, birkhoff_polytope
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

# `count` refuses a dilate only when both the lattice points it may expect
# there, vol * n^d, and the prefixes of its walk's box are over this limit.
# The tests count at most 5,045,326 points (B4 at dilate 10), the corpus
# and the benchmark workloads at most 10,981; the segment [0, 10^30] and
# the square [0, 10^5]^2 count more from boxes of 1 and 10^5 + 1 prefixes.
MAX_COUNT_ESTIMATE = 100_000_000


def _quasi_doc(quasi: QuasiPoly) -> dict | str:
    if quasi.period == 1:
        return quasi.constituents[0].pretty("n")
    return {
        "period": quasi.period,
        "constituents": [c.pretty("n") for c in quasi.constituents],
    }


def _with_report(doc: dict, report: Report) -> tuple[dict, bool]:
    """`doc` with the JSON of `report` added last as "report", and its verdict."""
    doc["report"] = report_to_json(report)
    return doc, report.passed


def cmd_count(args) -> tuple[dict, bool]:
    """The lattice points of one dilate, refused with UnsupportedError when
    both vol * n^d, the leading term of the count, and the prefixes of the
    walk's box are over MAX_COUNT_ESTIMATE: a walk visits at most one
    prefix per cell of that box and reads each prefix's run of points at
    once. The refusal is the command line's only: `count_points` walks any
    dilate."""
    p = load_polytope(args.file)
    n = args.dilate
    if n > 0:
        vol = relative_volume(p)
        estimate = vol * n ** p.dim
        if estimate > MAX_COUNT_ESTIMATE and (prefixes := prefix_box(p, n)) > MAX_COUNT_ESTIMATE:
            raise UnsupportedError(
                f"dilate {n} holds about {round(estimate):,} lattice points "
                f"(relative volume {vol} times {n}^{p.dim}) and its walk's box holds "
                f"{prefixes:,} prefixes, both over the limit of {MAX_COUNT_ESTIMATE:,} "
                f"that `count` walks")
    value = count_points(p, n, region=args.region)
    doc = {"name": p.name, "dilate": n, "region": args.region, "count": value}
    return doc, True


def cmd_ehrhart(args) -> tuple[dict, bool]:
    p = load_polytope(args.file)
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
    p = load_polytope(args.file)
    h = ehrhart(p).hstar
    doc = {
        "name": p.name, "dim": h.dim, "period": h.period,
        "hstar": list(h.coeffs), "degree": h.degree(), "codegree": h.codegree(),
    }
    return doc, True


def cmd_reciprocity(args) -> tuple[dict, bool]:
    p = load_polytope(args.file)
    return _with_report({"name": p.name}, reciprocity_check(p, max_n=args.max_n))


def cmd_cone_reciprocity(args) -> tuple[dict, bool]:
    cone = load_cone(args.file)
    report = stanley_reciprocity_check(cone, trials=args.trials, seed=args.seed)
    return _with_report({"file": args.file}, report)


def cmd_specialize(args) -> tuple[dict, bool]:
    p = load_polytope(args.file)
    report = specialization_check(p, rat_from_json(args.x0), truncation=args.truncation)
    return _with_report({"name": p.name, "x0": args.x0}, report)


def cmd_decompose(args) -> tuple[dict, bool]:
    p = load_polytope(args.file)
    dec = betke_mcmullen(p, use_all_lattice_points=args.all_points)
    contributions = [
        {"face": list(face), "link_h": list(h_link.coeffs), "box": list(box.coeffs)}
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
    p = load_polytope(args.file)
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
    p = load_polytope(args.file)
    pr = polytope_profile(p)
    reports = [stanley_inequalities(pr), stapledon_inequalities(pr), athanasiadis_check(p)]
    doc = {
        "name": p.name,
        "profile": {"d": pr.d, "s": pr.s, "l": pr.l, "hstar": list(pr.coeffs)},
        "reports": [report_to_json(r) for r in reports],
    }
    return doc, all(r.passed for r in reports)


def cmd_hibi(args) -> tuple[dict, bool]:
    p = load_polytope(args.file)
    return _with_report({"name": p.name}, hibi_check(p))


def cmd_ab(args) -> tuple[dict, bool]:
    p = load_polytope(args.file)
    dec = ab_decomposition(polytope_profile(p))
    doc = {
        "name": p.name, "d": dec.d, "l": dec.l,
        "a": list(dec.a.coeffs), "b": list(dec.b.coeffs),
        "b_is_zero": not dec.b,
    }
    return doc, True


def cmd_monotonic(args) -> tuple[dict, bool]:
    inner = load_polytope(args.inner)
    outer = load_polytope(args.outer)
    doc = {"inner": inner.name, "outer": outer.name}
    return _with_report(doc, monotonicity_check(inner, outer))


def cmd_semimagic(args) -> tuple[dict, bool]:
    table, report = adg_report(args.n, rmax=args.rmax)
    doc = {
        "n": table.n,
        "values": list(table.values),
        "poly": table.count_poly.pretty("r"),
        "numerator": list(table.numerator.coeffs),
    }
    return _with_report(doc, report)


def _verify_polytope(name: str, p: RationalPolytope) -> tuple[dict, bool]:
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
    return entry, all(r.passed for r in reports)


def _verify_cone(name: str, seed: int) -> tuple[dict, bool]:
    cone = corpus_mod.load_cone(name)
    reports = [stanley_reciprocity_check(cone, trials=5, seed=seed),
               partition_check(cone, bound=3)]
    entry = {"name": name, "reports": [report_to_json(r) for r in reports]}
    return entry, all(r.passed for r in reports)


def _verify_semimagic(n: int) -> tuple[dict, bool]:
    table, report = adg_report(n)
    bridge = birkhoff_polytope(n)
    geometric = [count_points(bridge, r) for r in range(3)]
    bridge_ok = geometric == list(table.values[:3])
    entry, ok = _with_report({
        "n": n,
        "values": list(table.values),
        "geometric_counts": geometric,
        "bridge_pass": bridge_ok,
    }, report)
    return entry, ok and bridge_ok


def cmd_corpus_verify(args) -> tuple[dict, bool]:
    seed = args.seed
    # drawn first, so that a bad --random fails before the corpus work
    random_polytopes = corpus_mod.random_lattice_polytopes(args.random, seed=seed)
    load = corpus_mod.load_polytope
    # each member is read and built once, for its own checks and its pairs
    members = {name: load(name) for name in corpus_mod.list_polytopes()}

    def member(name: str) -> RationalPolytope:
        return members[name] if name in members else load(name)

    sections = {
        "polytopes": [_verify_polytope(name, p) for name, p in members.items()],
        "cones": [_verify_cone(name, seed) for name in corpus_mod.list_cones()],
        "monotone_pairs": [
            _with_report({"inner": inner, "outer": outer},
                         monotonicity_check(member(inner), member(outer)))
            for inner, outer in corpus_mod.MONOTONE_PAIRS
        ],
        "random_polytopes": [
            _with_report({"name": p.name, "vertices": [list(v) for v in p.vertices]},
                         reciprocity_check(p, max_n=3))
            for p in random_polytopes
        ],
        "semimagic": [_verify_semimagic(n) for n in (2, 3)],
    }
    all_ok = all(ok for results in sections.values() for _, ok in results)
    doc = {"seed": seed}
    for key, results in sections.items():
        doc[key] = [entry for entry, _ in results]
    doc["verdict"] = "pass" if all_ok else "fail"
    return doc, all_ok


FILE = ("file", {})
SEED = ("--seed", {"type": int, "default": DEFAULT_SEED})

# subcommand -> (handler, help, its arguments as (name, add_argument keywords))
COMMANDS = {
    "count": (cmd_count, "lattice points in a dilate", [
        FILE,
        ("--dilate", {"type": int, "default": 1}),
        ("--region", {"choices": ["closed", "interior"], "default": "closed"}),
    ]),
    "ehrhart": (cmd_ehrhart, "counting quasipolynomial and series numerator", [FILE]),
    "hstar": (cmd_hstar, "series numerator only", [FILE]),
    "reciprocity": (cmd_reciprocity, "negative dilates against interior counts", [
        FILE, ("--max-n", {"type": int, "default": 8}),
    ]),
    "cone-reciprocity": (cmd_cone_reciprocity, "generating function inversion z -> 1/z", [
        FILE, ("--trials", {"type": int, "default": 10}), SEED,
    ]),
    "specialize": (cmd_specialize, "cone generating function against the series", [
        FILE,
        ("--x0", {"default": "1/2", "help": "evaluation point, e.g. 1/2"}),
        ("--truncation", {"type": int, "default": 12}),
    ]),
    "decompose": (cmd_decompose, "h* assembled from links and box polynomials", [
        FILE,
        ("--all-points", {"action": "store_true",
                          "help": "triangulate on all lattice points, not just vertices"}),
    ]),
    "triangulate": (cmd_triangulate, "placing triangulation data", [
        FILE, ("--all-points", {"action": "store_true"}),
    ]),
    "inequalities": (cmd_inequalities, "coefficient inequality families", [FILE]),
    "hibi": (cmd_hibi, "palindromy against reflexivity of the dilate", [FILE]),
    "ab": (cmd_ab, "palindromic split of h*", [FILE]),
    "monotonic": (cmd_monotonic, "componentwise h* comparison for nested polytopes", [
        ("inner", {}), ("outer", {}),
    ]),
    "semimagic": (cmd_semimagic, "equal-line-sum matrix counts and structure", [
        ("--n", {"type": int, "required": True}), ("--rmax", {"type": int}),
    ]),
    "corpus-verify": (cmd_corpus_verify, "run every check across the shipped corpus", [
        SEED,
        ("--random", {"type": int, "default": 5,
                      "help": "number of seeded random polytopes to sweep"}),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file")
    parser = argparse.ArgumentParser(
        prog="ehrkit",
        description="Exact lattice-point counting and h*-vector toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        for arg, options in arguments:
            sp.add_argument(arg, **options)
        sp.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, ok = args.run(args)
        text = dumps(doc)  # a value it cannot write is an InputError too
    except EhrkitError as exc:
        text, ok = dumps({"error": str(exc)}), False
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = ""
        except OSError as exc:
            text, ok = dumps({"error": f"cannot write {args.out}: {exc}"}), False
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
