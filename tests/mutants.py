"""Mutants of the library, each with the tests that must kill it.

Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the mutants with these names

Each entry of MUTANTS is one mutant: a file of `src/ehrkit`, the exact text
it replaces, the text put in its place and the tests that must fail on it.
The runner first copies `src/` to a temporary directory and requires the
unmutated copy to pass every named test, and the copy to be the `ehrkit`
those tests import. Then, for each mutant, it makes a fresh copy, requires
the old text to occur there exactly once, so that a mutant whose text the
code no longer holds fails loudly instead of passing, applies the
replacement and requires pytest, run on the named tests with `PYTHONPATH`
on the copy, to exit 1: a failed test, not a collection or usage error.
It exits 1 when any mutant survives or is stale.

The tests are the repository's own; only `src/` is copied. pytest does not
collect this file, so the Tier-1 run does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ehrkit
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant("specialize series stride 1 instead of p", "cones.py",
           "        for n in range(per, truncation + 1):\n"
           "            series[n] += series[n - per]\n",
           "        for n in range(1, truncation + 1):\n"
           "            series[n] += series[n - 1]\n",
           ("tests/test_cones.py::test_specialization_check_rational_and_pole",)),
    Mutant("polynomiality rows skipped", "semimagic.py",
           "    for r in range(poly_degree + 1, rmax + 1):\n",
           "    for r in range(rmax + 1, rmax + 1):\n",
           ("tests/test_semimagic.py::test_report_fails_a_planted_count_at_its_row",)),
    Mutant("monotonicity over the outer's dimension", "structure.py",
           "        hstar_from_counts([ehrhart(q).count(n) for n in range(p * (q.dim + 1))],\n"
           "                          q.dim, period=p)\n",
           "        hstar_from_counts([ehrhart(q).count(n) for n in range(p * (outer.dim + 1))],\n"
           "                          outer.dim, period=p)\n",
           ("tests/test_structure.py::test_monotonicity_mixed_dimension",
            "tests/test_structure.py::test_monotonicity_point_in_triangle")),
    Mutant("j* taken as the first nonzero s_j", "linalg.py",
           "    star = max(j for j, s_j in enumerate(sums) if s_j)\n",
           "    star = min(j for j, s_j in enumerate(sums) if s_j)\n",
           ("tests/test_linalg.py::test_jump_solve_matches_fraction_solve",)),
    Mutant("C rows left unsigned", "linalg.py",
           "    sign = 1 if s > 0 else -1\n",
           "    sign = 1\n",
           ("tests/test_linalg.py::test_jump_solve_matches_fraction_solve",)),
    Mutant("vol without g", "polytope.py",
           "    return Fraction(g * total, scale ** (d + 1) * factorial(d))\n",
           "    return Fraction(total, scale ** (d + 1) * factorial(d))\n",
           ("tests/test_enumeration.py::"
            "test_ehrhart_embedded_segment_whose_dilates_miss_the_lattice",)),
    Mutant("vol without L^(d+1)", "polytope.py",
           "    return Fraction(g * total, scale ** (d + 1) * factorial(d))\n",
           "    return Fraction(g * total, factorial(d))\n",
           ("tests/test_enumeration.py::test_ehrhart_rational_half_segment",)),
    Mutant("every cell counted as index 1", "polytope.py",
           "                else linalg.lattice_normalized_volume([lifted[i] for i in cell])\n",
           "                else 1\n",
           ("tests/test_enumeration.py::test_ehrhart_reeve_hstar_frozen",)),
    Mutant("Bareiss division by the previous pivot dropped", "linalg.py",
           "[(a * pivot - row[k] * b) // prev for a, b in",
           "[(a * pivot - row[k] * b) for a, b in",
           ("tests/test_linalg.py::"
            "test_lattice_normalized_volume_of_square_rows_is_the_determinant",)),
    Mutant("mirror check reverted to zero / degree / lead", "enumeration.py",
           "        mirror = closed_parts[-r % per].coeffs\n"
           "        if c.coeffs != tuple((-1) ** (d + k) * a for k, a in enumerate(mirror)):\n",
           "        mirror = closed_parts[-r % per]\n"
           "        if bool(c) != bool(mirror) or (c and (c.degree() != d\n"
           "                                             or c.coeffs[-1] != mirror.coeffs[-1])):\n",
           ("tests/test_enumeration.py::"
            "test_every_single_count_corruption_is_a_theorem_violation",)),
    Mutant("n-th dilate mapped back with the unscaled shift", "enumeration.py",
           "    fixed = tuple(n // period * y for y in shift)\n",
           "    fixed = shift\n",
           ("tests/test_enumeration.py::"
            "test_dilate_listing_matches_the_listing_of_the_built_dilate",)),
    Mutant("reflexive offset c - <a, z> instead of n c - <a, z>", "structure.py",
           "    if all(n * c - linalg.int_dot(a, z) == 1 for",
           "    if all(c - linalg.int_dot(a, z) == 1 for",
           ("tests/test_polytope.py::"
            "test_reflexive_check_of_a_dilate_matches_the_built_dilate",)),
    Mutant("partition_check skipping the C rows", "cones.py",
           "            if c_rows and any(sum(map(mul, row, cand)) for row in c_rows):\n"
           "                continue\n",
           "",
           ("tests/test_cones.py::test_partition_check_matches_the_located_oracle",)),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp) / "clean")
        imported = subprocess.run(
            [sys.executable, "-c", "import ehrkit; print(ehrkit.__file__)"],
            cwd=ROOT, env=_env(src), capture_output=True, text=True,
        ).stdout.strip()
        if not Path(imported).resolve().is_relative_to(src.resolve()):
            print(f"the tests import {imported or 'no ehrkit'}, not the copy")
            return 1
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        code = _pytest(src, tests)
        print(f"{'passed' if code == 0 else 'FAILED'}  unmutated copy (pytest exit {code})")
        if code != 0:
            return 1
        for i, mutant in enumerate(chosen):
            src = _copy_src(Path(tmp) / str(i))
            target = src / "ehrkit" / mutant.file
            text = target.read_text(encoding="utf-8")
            found = text.count(mutant.old)
            if found != 1:
                print(f"STALE   {mutant.name}: its old text occurs {found} times")
                failed += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            code = _pytest(src, mutant.tests)
            print(f"{'killed' if code == 1 else 'SURVIVED'}  {mutant.name} (pytest exit {code})")
            failed += code != 1
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
