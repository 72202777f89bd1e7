"""Self-test of the benchmark itself, not of ehrkit.

    python3 perfbench/selftest.py

Checks that
- the same seed gives the same inputs, also under another hash seed, and
  another seed gives other inputs;
- each workload's checker passes the real outputs and rejects a planted
  wrong answer, so that a wrong result shows as a failed check;
- the stdlib replay of the corpus-verify sweep draws the same polytopes as
  `corpus.random_lattice_polytopes`, judged by their bounding boxes;
- the tracer reproduces the box-scan counts of a vertex-only
  `betke_mcmullen(verify=False)`: hypercube_4d 299 calls, 80,262 candidates
  scanned, 0 kept; birkhoff_3 55 calls, 214,544 scanned, 0 kept.

Takes about half a minute. Exit status 0 when every check holds.
"""

from __future__ import annotations

import copy
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from workloads import (  # noqa: E402
    SWEEP_COUNT, WORKLOADS, Checker, check_same_bytes, digest, iteration_seed, sweep_sides)

BOX_SCANS = {
    "hypercube_4d": {"calls": 299, "scanned": 80262, "kept": 0},
    "birkhoff_3": {"calls": 55, "scanned": 214544, "kept": 0},
}


def inputs_digest(seed: int) -> str:
    h = hashlib.sha256()
    for name, workload in sorted(WORKLOADS.items()):
        h.update(repr((name, workload.inputs(seed))).encode())
    return h.hexdigest()


def failures(workload, inputs, outputs) -> int:
    checker = Checker()
    workload.check(inputs, outputs, checker)
    return checker.failed


class SelfTest:
    def __init__(self):
        self.failed = 0

    def expect(self, name: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        self.failed += not ok

    def determinism(self) -> None:
        here = inputs_digest(7)
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(SRC))
        code = "import selftest; print(selftest.inputs_digest(7))"
        other = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                               capture_output=True, text=True, timeout=60)
        self.expect("same seed gives the same inputs in another interpreter",
                    other.stdout.strip() == here)
        self.expect("another seed gives other inputs", inputs_digest(8) != here)

    def planted(self, name: str, seed: int, plants) -> dict:
        """Run a workload once; its checker must pass it and reject each plant."""
        workload = WORKLOADS[name]
        inputs = workload.inputs(iteration_seed(seed, 0))
        outputs = workload.run(inputs)
        self.expect(f"{name}: checker passes the real outputs",
                    failures(workload, inputs, outputs) == 0)
        for label, plant in plants:
            wrong = copy.deepcopy(outputs)
            plant(wrong)
            self.expect(f"{name}: checker rejects {label}",
                        failures(workload, inputs, wrong) > 0)
        return outputs

    def corpus_bytes(self, outputs) -> None:
        text = outputs["stdout"]
        pos = text.index('"verdict"')
        changed = text[:pos] + text[pos:].replace("pass", "pasS", 1)
        same, differ = Checker(), Checker()
        check_same_bytes([(7, digest(text)), (7, digest(text))], same)
        check_same_bytes([(7, digest(text)), (7, digest(changed))], differ)
        self.expect("corpus_verify: identical outputs pass the byte check",
                    same.attempted == 1 and same.failed == 0)
        self.expect("corpus_verify: a changed byte fails the byte check",
                    differ.failed == 1)

    def sweep_replay(self) -> None:
        from ehrkit import corpus

        for cli_seed in (1, 7, 12345, 2**31 - 1):
            library = [[max(c) - min(c) for c in zip(*p.vertices)]
                       for p in corpus.random_lattice_polytopes(SWEEP_COUNT, seed=cli_seed)]
            self.expect(f"sweep replay of CLI seed {cli_seed}",
                        sweep_sides(cli_seed) == library)

    def box_scans(self) -> None:
        from tracer import Tracer

        tracer = Tracer(run_id="selftest")
        tracer.install()
        from ehrkit import corpus
        from ehrkit.triangulation import betke_mcmullen

        for name, expected in BOX_SCANS.items():
            p = corpus.load_polytope(name)
            tracer.spans.clear()
            betke_mcmullen(p, verify=False)
            m = tracer.layer_metrics()
            got = {key: m[f"cones.parallelepiped_points.{key}"] for key in expected}
            self.expect(f"traced box scans of {name}: {got}", got == expected)


def bump_hstar(outputs):
    """Change one byte of the document: h*_1 of hypercube_4d, 11 -> 12."""
    text = outputs["stdout"]
    at = text.index('"hstar"', text.index('"hypercube_4d"'))
    pos = text.index("11", at)
    outputs["stdout"] = text[:pos] + "12" + text[pos + 2:]


def main() -> int:
    t = SelfTest()
    t.determinism()

    def h4(outputs):
        outputs["adg_values"][4] += 1

    def closed_count(outputs):
        outputs["polytopes"][0]["closed"] += 1

    def hstar(outputs):
        outputs["clouds"][0]["hstar_points"][1] += 1

    def exit_code(outputs):
        outputs["exit_code"] = 1

    t.planted("dilate_counts", 7, [("a wrong H_4(4)", h4),
                                   ("a closed count off by one", closed_count)])
    t.planted("hull_decompose", 7, [("an h* coefficient off by one", hstar)])
    outputs = t.planted("corpus_verify", 7, [("h*_1 of hypercube_4d off by one", bump_hstar),
                                             ("exit status 1", exit_code)])
    t.corpus_bytes(outputs)
    t.sweep_replay()
    t.box_scans()
    print(f"{t.failed} self-test check(s) failed")
    return 1 if t.failed else 0


if __name__ == "__main__":
    sys.exit(main())
