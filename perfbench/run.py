"""ehrkit benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload corpus_verify --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Runs from the root of a source checkout and benchmarks the ehrkit in its
`src/`. A run is a closed loop with one caller: one iteration at a time,
each in a fresh interpreter (worker.py), until `--seconds` have passed and
at least MIN_ITERATIONS have run. Every
iteration checks its own results. Each metric is the median over the run's
iterations. `wall_s` and `setup_s` are corrected for the speed of the
machine while they were measured (see `corrected`). The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` (checks) and
`metrics`.

With --trace 1 the run alternates untraced and traced iterations on the
same inputs and reports the per-layer metrics of the traced ones, plus the
tracing overhead. Spans go to .perfbench_out/spans/.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark cannot run here (no ehrkit source tree, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out" / "spans"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Checker, check_same_bytes, iteration_seed  # noqa: E402

MIN_ITERATIONS = 4
MIN_PAIRS = 2
# setup_s is the median of at least this many set-ups per run; iterations
# are topped up with set-up-only interpreters.
MIN_SETUPS = 11
# a whole run, set-up-only interpreters included, ends within this
RUN_LIMIT_S = 170
CALIBRATION_LOOPS = 1_000_000
# The fastest time of worker.SpeedProbe's loop on the machine the benchmark
# was introduced on (2-vCPU Xeon VM, Python 3.11): about the 1st percentile
# of 3000 probes in a row.
PROBE_REFERENCE_S = 0.00135

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: context for machine speed."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


def corrected(seconds: float, probes_ns: list[int]) -> float:
    """`seconds` at the machine speed where the probe takes PROBE_REFERENCE_S.

    On a shared host the whole machine slows down and speeds up by half
    over seconds to minutes, as neighbours come and go. The probe, sampled
    in the measured process while it ran, slows down with it, so the
    quotient stays put. ehrkit's own speed does not move the probe: a
    change in ehrkit moves the corrected time as much as the raw one.
    """
    return seconds * PROBE_REFERENCE_S / (statistics.median(probes_ns) / 1e9)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ehrkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Run:
    """Iterations of one workload, with the clock of the whole run."""

    def __init__(self, workload, seed: int, seconds: float, started_ns: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started_ns = started_ns
        self.checker = Checker()
        self.iterations: list[dict] = []
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.digests: list[tuple[int, str]] = []

    def elapsed(self) -> float:
        return (clock_ns() - self.started_ns) / 1e9

    def spawn(self, sub_seed: int, extra: list[str]) -> dict | None:
        """Start worker.py once; None when it failed (counted as a failed check)."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload.name, "--seed", str(sub_seed)] + extra
        env = dict(os.environ, PYTHONPATH=str(SRC))
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        spawned = clock_ns()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.checker.check(f"seed {sub_seed}: worker ended within the run limit", False)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            self.checker.check(f"seed {sub_seed}: worker exit status {proc.returncode}",
                               False)
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(out["ehrkit"]) != (SRC / "ehrkit").resolve():
            raise SystemExit(f"worker imported ehrkit from {out['ehrkit']}, "
                             f"not from {SRC}")
        raw = (out["ready_ns"] - spawned - out["setup_probe_spent_ns"]) / 1e9
        self.raw_setups.append(raw)
        self.setups.append(corrected(raw, out["setup_probe_ns"]))
        return out

    def iteration(self, index: int, trace: bool) -> dict | None:
        sub_seed = iteration_seed(self.seed, index)
        extra = []
        if trace:
            SPANS_DIR.mkdir(parents=True, exist_ok=True)
            spans = SPANS_DIR / f"{self.workload.name}-{self.seed}-{index}.jsonl"
            extra = ["--trace", str(spans)]
        out = self.spawn(sub_seed, extra)
        if out is None:
            return None
        out["raw_wall_s"] = (out["done_ns"] - out["start_ns"]
                             - out["run_probe_spent_ns"]) / 1e9
        # the last three set-up probes ran just before the timed phase
        out["wall_s"] = corrected(out["raw_wall_s"],
                                  out["setup_probe_ns"][3:] + out["run_probe_ns"])
        out["traced"] = trace
        self.checker.attempted += out["attempted"]
        self.checker.failures += [f"seed {sub_seed}: {f}" for f in out["failures"]]
        if "digest" in out:
            self.digests.append((sub_seed, out["digest"]))
        self.iterations.append(out)
        return out

    def loop(self, trace: bool) -> None:
        """Closed loop until the time is up and the minimum count has run."""
        index = 0
        durations: list[float] = []
        while True:
            began = self.elapsed()
            kinds = (False, True) if trace else (False,)
            for traced in kinds:
                if self.iteration(index, traced) is None:
                    return
            durations.append(self.elapsed() - began)
            index += 1
            enough = index >= (MIN_PAIRS if trace else MIN_ITERATIONS)
            if enough and self.elapsed() + statistics.median(durations) > self.seconds:
                return

    def top_up_setups(self) -> None:
        index = 0
        while len(self.setups) < MIN_SETUPS and self.elapsed() < RUN_LIMIT_S - 10:
            if self.spawn(iteration_seed(self.seed, index),
                          ["--setup-only"]) is None:
                return
            index += 1


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(run: Run) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Samples of each metric, and the uncorrected samples of the times."""
    plain = [it for it in run.iterations if not it["traced"]]
    samples = {
        "wall_s": [it["wall_s"] for it in plain],
        "setup_s": run.setups,
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
    }
    raw = {"wall_s": [it["raw_wall_s"] for it in plain], "setup_s": run.raw_setups}
    return samples, raw


def per_layer(run: Run) -> dict[str, float]:
    traced = [it for it in run.iterations if it["traced"]]
    plain = [it for it in run.iterations if not it["traced"]]
    if not traced or not plain:
        return {}
    metrics = {
        key: statistics.median(it["layers"][key] for it in traced)
        for key in traced[0]["layers"]
    }
    # traced iterations run without the speed probe, so these are uncorrected
    traced_wall = statistics.median(it["raw_wall_s"] for it in traced)
    plain_wall = statistics.median(it["raw_wall_s"] for it in plain)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith(".yield"):
        return "ratio"
    return "count"


def bench(workload, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds, clock_ns())
    run.loop(trace)
    if not trace:
        run.top_up_setups()
    check_same_bytes(run.digests, run.checker)
    if not run.iterations:
        return run, {}
    if trace:
        layers = per_layer(run)
        print(f"{workload.name} seed {seed}: "
              f"{sum(it['traced'] for it in run.iterations)} traced iterations")
        for name, value in layers.items():
            print(f"  {name:<44} {value:14.6f} {layer_unit(name)}")
        return run, {name: {"value": value, "unit": layer_unit(name)}
                     for name, value in layers.items()}
    samples, raw = end_to_end(run)
    print(f"{workload.name} seed {seed}: {len(samples['wall_s'])} iterations, "
          f"{len(run.setups)} set-ups")
    for name, values in samples.items():
        lo, hi = quartiles(values)
        print(f"  {name:<12} {statistics.median(values):10.4f} {END_TO_END_UNITS[name]:<3}"
              f" median of {len(values)}; quartiles {lo:.4f} .. {hi:.4f};"
              f" range {min(values):.4f} .. {max(values):.4f}")
        if name in raw:
            lo, hi = quartiles(raw[name])
            print(f"  {'uncorrected':>12} {statistics.median(raw[name]):10.4f}"
                  f" {'':<3} quartiles {lo:.4f} .. {hi:.4f}")
    return run, {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
                 for name, values in samples.items()}


def report_run(run: Run) -> None:
    attempted = run.checker.attempted
    ratio = run.checker.failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':<12} {ratio:10.4f} {'':<3} {run.checker.failed} of "
          f"{attempted} checks failed")
    for failure in run.checker.failures[:20]:
        print(f"    FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ehrkit" / "__init__.py").is_file():
        print(f"no ehrkit source tree at {SRC}", file=sys.stderr)
        return 2

    context = {
        "python": sys.version.split()[0],
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "calibration_s_start": calibrate(),
    }
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run, metrics = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report_run(run)
        results[name] = (run, metrics)
    context["loadavg_end"] = os.getloadavg()
    context["calibration_s_end"] = calibrate()
    print("context " + json.dumps(context))

    attempted = sum(run.checker.attempted for run, _ in results.values())
    failed = sum(run.checker.failed for run, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{name}.{key}": value
                   for name, (_, m) in results.items() for key, value in m.items()}
    correct = failed == 0 and attempted > 0 and all(m for _, m in results.values())
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
