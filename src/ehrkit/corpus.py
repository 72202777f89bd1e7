"""The shipped test corpus: small polytopes and cones with known behavior.

Polytopes live in corpus/*.json, cones in corpus/cones/*.json, both in the
serialization format of jsonio. The corpus spans dimensions 1 through 4,
contains rational members (vertex denominators 2), the two height-q
tetrahedra whose h*-vectors detect non-unimodularity, and the polytope of
3-by-3 doubly stochastic matrices. `random_lattice_polytopes` adds seeded
reproducible instances for property sweeps.

An environment variable EHRKIT_CORPUS can point at an alternative corpus
directory with the same layout.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from . import jsonio
from .cones import RationalCone
from .errors import InputError
from .polytope import RationalPolytope

# pairs (inner, outer) with inner contained in outer, for monotonicity sweeps
MONOTONE_PAIRS = (
    ("unit_square", "square_02"),
    ("triangle_std", "unit_square"),
    ("half_segment", "segment_01"),
    ("segment_embedded", "unit_square"),
    ("triangle_std", "triangle_3std"),
)


def corpus_dir() -> Path:
    """EHRKIT_CORPUS if set, else the package data next to this module.

    The data ship as plain files in the package directory (see
    pyproject.toml), so no `importlib.resources` lookup is needed.
    """
    override = os.environ.get("EHRKIT_CORPUS")
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus"


def _names_in(directory: Path) -> list[str]:
    if not directory.is_dir():
        raise InputError(f"corpus directory {directory} does not exist")
    return sorted(path.stem for path in directory.glob("*.json"))


def list_polytopes() -> list[str]:
    return _names_in(corpus_dir())


def list_cones() -> list[str]:
    return _names_in(corpus_dir() / "cones")


def _member(directory: Path, name: str, kind: str) -> str:
    path = directory / f"{name}.json"
    if not path.is_file():
        raise InputError(f"no corpus {kind} named {name!r}")
    return str(path)


def load_polytope(name: str) -> RationalPolytope:
    return jsonio.load_polytope(_member(corpus_dir(), name, "polytope"))


def load_cone(name: str) -> RationalCone:
    return jsonio.load_cone(_member(corpus_dir() / "cones", name, "cone"))


def random_lattice_polytopes(count: int, seed: int,
                             max_dim: int = 3) -> list[RationalPolytope]:
    """Seeded random lattice polytopes with small coordinates, dim >= 1."""
    if count < 0:
        raise InputError("the number of random polytopes must be nonnegative")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(1, max_dim)
        n_points = rng.randint(dim + 1, dim + 4)
        points = [
            tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n_points)
        ]
        p = RationalPolytope.from_points(points, name=f"random-{seed}-{len(out)}")
        if p.dim < 1:
            continue
        out.append(p)
    return out
