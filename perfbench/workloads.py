"""Seeded inputs, library calls and result checks for the three workloads.

Each workload has three parts, kept apart so that the self-test can feed a
checker a planted wrong answer:

- ``inputs(seed)`` builds plain data (point lists, integers) from the seed
  with the stdlib only; it never calls the library.
- ``run(inputs)`` makes the library calls. This is the timed phase.
- ``check(inputs, outputs, checker)`` compares the outputs with facts that
  hold independently of the code under test and records each comparison.

Every seed is turned into a ``random.Random`` from a string, which is
reproducible across interpreters regardless of hash randomisation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import Callable, NamedTuple

# h* of every corpus polytope, recorded from `ehrkit corpus-verify` at the
# commit the benchmark was introduced on. Any seed must reproduce them.
CORPUS_HSTAR = {
    "birkhoff_3": [1, 1, 1],
    "centered_square": [1, 6, 1],
    "cross_2d": [1, 2, 1],
    "half_segment": [1, 1],
    "hypercube_4d": [1, 11, 11, 1],
    "octahedron": [1, 3, 3, 1],
    "reeve_2": [1, 0, 1],
    "reeve_3": [1, 0, 2],
    "segment_01": [1],
    "segment_03": [1, 2],
    "segment_embedded": [1],
    "simplex_3d": [1],
    "simplex_4d": [1],
    "square_02": [1, 6, 1],
    "triangle_3std": [1, 7, 1],
    "triangle_half": [1, 2, 1],
    "triangle_skew": [1, 1],
    "triangle_std": [1],
    "triangle_wide": [1, 2],
    "unit_cube": [1, 4, 1],
    "unit_square": [1, 1],
}

# dilate_counts: polytopes by class (dim, vertex denominator, large dilate
# as a multiple of the period, points). Each is drawn until the number of
# lattice points expected at the large dilate, Euclidean volume *
# (multiple * denominator)^dim, lies in [points, 1.1 * points], which
# holds the counting work steady across seeds. The last class builds one
# long point list, which shows in peak_rss_mb.
DILATE_CLASSES = ((2, 2, 6, 500), (2, 3, 6, 1200), (3, 1, 6, 1200),
                  (3, 2, 6, 1000), (3, 3, 6, 1000), (3, 3, 6, 1000),
                  (4, 1, 6, 800), (4, 1, 6, 800), (2, 1, 30, 10000))
DILATE_COORD = 3
DILATE_WINDOW = Fraction(11, 10)
ADG_N = 4
ADG_RMAX = 14
BRIDGE_RMAX = 3
# Known values of H_4, the count of 4x4 magic squares with line sum r.
H4_KNOWN = {2: 282, 4: 10147, 6: 132724}

# hull_decompose: (dim, distinct points, box side, scan window) for each
# point cloud, drawn from the lattice box [0, side]^dim. Dense clouds have
# hulls close to the box, which holds the work steady across seeds. The
# 20-point cloud gives the subset facet scan C(20, 3) = 1140 candidate
# subsets. In the 0/1 clouds every lattice point is a vertex; the others
# have lattice points that are not vertices. The sparse 5-dim cloud is not
# close to its box: its parallelepiped scans covered 60k to 760k candidates
# over 40 seeds. They follow scan_box(cloud) (correlation 0.95), so that
# cloud is redrawn until scan_box lies in its window, the middle of the
# distribution.
HULL_CLASSES = ((3, 20, 2, None), (3, 16, 2, None), (4, 11, 1, None),
                (4, 12, 1, None), (5, 7, 1, (1800, 2160)))


class Checker:
    """Tally of named pass/fail checks; keeps the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- small exact helpers (stdlib only, independent of the library) -----------


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for r in range(k + 1, n):
            m[r] = [(a * m[k][k] - m[r][k] * b) // prev for a, b in zip(m[r], m[k])]
        prev = m[k][k]
    return sign * m[-1][-1]


def _orient(base: list[tuple], x: tuple) -> int:
    """Signed normalized volume of the simplex `base` + x (integer points)."""
    b0 = base[0]
    rows = [[a - b for a, b in zip(q, b0)] for q in base[1:]]
    rows.append([a - b for a, b in zip(x, b0)])
    return _det(rows)


def normalized_volume(points: list[tuple], limit: int | None = None) -> int:
    """dim! * volume of conv(points) for a simplex, or a simplex plus points.

    The hull of a simplex S and a point q is S together with one pyramid
    over every facet of S that q sees strictly. Integer points only. Stops
    early, with a value above `limit`, once the volume exceeds `limit`.
    """
    dim = len(points[0])
    simplex, extra = points[: dim + 1], points[dim + 1:]
    total = abs(_orient(simplex[:dim], simplex[dim]))
    for q in extra:
        for j in range(dim + 1):
            if limit is not None and total > limit:
                return total
            facet = simplex[:j] + simplex[j + 1:]
            apex_side = _orient(facet, simplex[j])
            q_side = _orient(facet, q)
            if apex_side * q_side < 0:
                total += abs(q_side)
    return total


# -- dilate_counts ----------------------------------------------------------


def _dilate_polytope(rng: random.Random, dim: int, den: int, multiple: int,
                     budget: int) -> list[tuple]:
    lo, hi = -DILATE_COORD * den, DILATE_COORD * den
    # expected points = Euclidean volume * (multiple * den)^dim
    #                 = normalized volume of the numerators * multiple^dim / dim!
    scale = Fraction(multiple ** dim, factorial(dim))
    limit = int(budget * DILATE_WINDOW / scale)
    while True:
        # numerators: the coordinates are these over `den`
        nums = []
        for _ in range(dim + 1 + rng.randint(0, 1)):
            while True:
                pt = tuple(rng.randint(lo, hi) for _ in range(dim))
                # every point carries the full denominator, so whichever
                # points end up as vertices, the period is `den`
                if lcm(*(den // gcd(k, den) for k in pt)) == den:
                    nums.append(pt)
                    break
        if budget <= normalized_volume(nums, limit) * scale <= budget * DILATE_WINDOW:
            return [tuple(Fraction(k, den) for k in pt) for pt in nums]


def dilate_inputs(seed: int) -> dict:
    rng = rng_for("dilate_counts", seed)
    polytopes = [
        (f"dilate-{k}-{dim}d-q{den}-x{multiple}",
         _dilate_polytope(rng, dim, den, multiple, budget), multiple)
        for k, (dim, den, multiple, budget) in enumerate(DILATE_CLASSES)
    ]
    return {"polytopes": polytopes, "adg": (ADG_N, ADG_RMAX),
            "bridge_rmax": BRIDGE_RMAX}


def dilate_run(inputs: dict) -> dict:
    from ehrkit.enumeration import count_points, ehrhart, reciprocity_check
    from ehrkit.errors import EhrkitError
    from ehrkit.polytope import RationalPolytope
    from ehrkit.semimagic import adg_report, birkhoff_polytope, count_semimagic

    results = []
    for name, points, multiple in inputs["polytopes"]:
        try:
            p = RationalPolytope.from_points(points, name=name)
            e = ehrhart(p)
            report = reciprocity_check(p)
            big = multiple * e.period
            results.append({
                "name": name, "error": None, "dim": p.dim, "period": e.period,
                "reciprocity": report.passed, "dilate": big,
                "closed": count_points(p, big),
                "interior": count_points(p, big, "interior"),
                "quasi_closed": e.count(big),
                "quasi_interior": e.interior_count(big),
            })
        except EhrkitError as exc:
            results.append({"name": name, "error": repr(exc)})
    n, rmax = inputs["adg"]
    table, report = adg_report(n, rmax=rmax)
    b3 = birkhoff_polytope(3)
    bridge = [(count_points(b3, r), count_semimagic(3, r))
              for r in range(inputs["bridge_rmax"] + 1)]
    return {"polytopes": results, "adg_values": list(table.values),
            "adg_passed": report.passed, "bridge": bridge}


def dilate_check(inputs: dict, outputs: dict, checker: Checker) -> None:
    for (name, points, _), res in zip(inputs["polytopes"], outputs["polytopes"]):
        if not checker.check(f"{name}: no error", res["error"] is None):
            continue
        dim = len(points[0])
        den = lcm(*(c.denominator for pt in points for c in pt))
        checker.check(f"{name}: full dimension", res["dim"] == dim)
        checker.check(f"{name}: period", res["period"] == den)
        checker.check(f"{name}: reciprocity report", res["reciprocity"])
        checker.check(f"{name}: closed count at {res['dilate']}",
                      res["closed"] == res["quasi_closed"])
        checker.check(f"{name}: interior count at {res['dilate']}",
                      res["interior"] == res["quasi_interior"])
    checker.check("adg report", outputs["adg_passed"])
    values = outputs["adg_values"]
    for r, known in H4_KNOWN.items():
        checker.check(f"H_4({r})", r < len(values) and values[r] == known)
    for r, (geometric, dp) in enumerate(outputs["bridge"]):
        checker.check(f"Birkhoff bridge r={r}", geometric == dp)


# -- hull_decompose ---------------------------------------------------------


def scan_box(cloud: list[tuple]) -> int:
    """Candidates per homogenizing level of a parallelepiped scan over the
    cones of all the points of a cloud with coordinates >= 0: the product
    over the coordinates of (1 + their sum over the cloud)."""
    return prod(1 + sum(pt[j] for pt in cloud) for j in range(len(cloud[0])))


def _cloud(rng: random.Random, dim: int, size: int, side: int,
           window: tuple[int, int] | None) -> list[tuple]:
    while True:
        points: set[tuple] = set()
        while len(points) < size:
            points.add(tuple(rng.randint(0, side) for _ in range(dim)))
        cloud = sorted(points)
        diffs = [[a - b for a, b in zip(q, cloud[0])] for q in cloud[1:]]
        # full dimension iff the Gram matrix of the differences is regular
        gram = [[sum(d[i] * d[j] for d in diffs) for j in range(dim)]
                for i in range(dim)]
        if _det(gram) and (window is None
                            or window[0] <= scan_box(cloud) <= window[1]):
            return cloud


def hull_inputs(seed: int) -> dict:
    rng = rng_for("hull_decompose", seed)
    clouds = [
        (f"cloud-{k}-{dim}d-{size}pts", _cloud(rng, dim, size, side, window))
        for k, (dim, size, side, window) in enumerate(HULL_CLASSES)
    ]
    return {"clouds": clouds}


def hull_run(inputs: dict) -> dict:
    from ehrkit.cones import homogenize, stanley_reciprocity_check
    from ehrkit.errors import EhrkitError
    from ehrkit.polytope import RationalPolytope
    from ehrkit.triangulation import betke_mcmullen

    results = []
    for name, points in inputs["clouds"]:
        try:
            p = RationalPolytope.from_points(points, name=name)
            by_vertices = betke_mcmullen(p, verify=False)
            by_points = betke_mcmullen(p, use_all_lattice_points=True, verify=False)
            cone_report = stanley_reciprocity_check(homogenize(p))
            hrep = p.facets()
            results.append({
                "name": name, "error": None, "dim": p.dim,
                "hstar_vertices": list(by_vertices.hstar.coeffs),
                "hstar_points": list(by_points.hstar.coeffs),
                "volume": by_vertices.triangulation.normalized_volume(),
                "lattice_points": len(by_points.triangulation.points),
                "inside": [hrep.satisfies(pt) for pt in points],
                "cone_reciprocity": cone_report.passed,
            })
        except EhrkitError as exc:
            results.append({"name": name, "error": repr(exc)})
    return {"clouds": results}


def hull_check(inputs: dict, outputs: dict, checker: Checker) -> None:
    for (name, points), res in zip(inputs["clouds"], outputs["clouds"]):
        if not checker.check(f"{name}: no error", res["error"] is None):
            continue
        dim = len(points[0])
        hstar = res["hstar_vertices"]
        checker.check(f"{name}: full dimension", res["dim"] == dim)
        checker.check(f"{name}: same h* from both triangulations",
                      hstar == res["hstar_points"])
        checker.check(f"{name}: sum of h* is the normalized volume",
                      sum(hstar) == res["volume"])
        h1 = hstar[1] if len(hstar) > 1 else 0
        checker.check(f"{name}: h*_1 = |P cap Z^d| - d - 1",
                      h1 == res["lattice_points"] - dim - 1)
        checker.check(f"{name}: every input point satisfies the H-rep",
                      len(res["inside"]) == len(points) and all(res["inside"]))
        checker.check(f"{name}: cone reciprocity report", res["cone_reciprocity"])


# -- corpus_verify ----------------------------------------------------------

# The CLI seed also picks the random polytopes of the command's sweep, five
# by default, and their counting cost differed a hundredfold between seeds.
# The points the sweep enumerated followed sweep_box (correlation 0.85 over
# 225 seeds), so the CLI seed is redrawn until sweep_box lies in this
# window, around the median; within it the spread of the points halved.
SWEEP_COUNT = 5
SWEEP_WINDOW = (2400, 3200)


def sweep_sides(cli_seed: int) -> list[list[int]]:
    """Bounding-box sides of each polytope of the sweep of `corpus-verify
    --seed cli_seed`, from a stdlib replay of the draws of
    `corpus.random_lattice_polytopes(SWEEP_COUNT, cli_seed)`."""
    rng = random.Random(cli_seed)
    sides = []
    while len(sides) < SWEEP_COUNT:
        dim = rng.randint(1, 3)
        n_points = rng.randint(dim + 1, dim + 4)
        points = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n_points)]
        if len(set(points)) > 1:  # the library draws again for a single point
            sides.append([max(c) - min(c) for c in zip(*points)])
    return sides


def sweep_box(cli_seed: int) -> int:
    """Bounding-box cells of the sweep's polytopes at the dilates 1..3 that
    its `reciprocity_check(max_n=3)` enumerates."""
    return sum(prod(n * side + 1 for side in sides)
               for sides in sweep_sides(cli_seed) for n in (1, 2, 3))


def corpus_inputs(seed: int) -> dict:
    rng = rng_for("corpus_verify", seed)
    while True:
        cli_seed = rng.randrange(1, 2**31)
        if SWEEP_WINDOW[0] <= sweep_box(cli_seed) <= SWEEP_WINDOW[1]:
            return {"argv": ["corpus-verify", "--seed", str(cli_seed)]}


def corpus_run(inputs: dict) -> dict:
    from ehrkit.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(inputs["argv"]))
    return {"exit_code": code, "stdout": buf.getvalue()}


def corpus_check(inputs: dict, outputs: dict, checker: Checker) -> None:
    checker.check("exit code 0", outputs["exit_code"] == 0)
    try:
        doc = json.loads(outputs["stdout"])
    except json.JSONDecodeError:
        checker.check("stdout is one JSON document", False)
        return
    checker.check("verdict pass", doc.get("verdict") == "pass")
    checker.check("seed echoed", str(doc.get("seed")) == inputs["argv"][-1])
    found = {entry.get("name"): entry.get("hstar") for entry in doc.get("polytopes", [])}
    checker.check("corpus members", sorted(found) == sorted(CORPUS_HSTAR))
    for name, hstar in CORPUS_HSTAR.items():
        checker.check(f"h* of {name}", found.get(name) == hstar)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_same_bytes(digests: list[tuple[int, str]], checker: Checker) -> None:
    """Every output of one CLI seed must be byte-identical to the first."""
    first: dict[int, str] = {}
    for cli_seed, value in digests:
        if cli_seed in first:
            checker.check(f"identical bytes for seed {cli_seed}",
                          value == first[cli_seed])
        else:
            first[cli_seed] = value


# -- registry ---------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    inputs: Callable[[int], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict, Checker], None]


def iteration_seed(seed: int, iteration: int) -> int:
    """Input seed of one iteration of a run: every iteration differs."""
    return seed * 1000 + iteration


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus_verify", corpus_inputs, corpus_run, corpus_check),
        Workload("dilate_counts", dilate_inputs, dilate_run, dilate_check),
        Workload("hull_decompose", hull_inputs, hull_run, hull_check),
    )
}
