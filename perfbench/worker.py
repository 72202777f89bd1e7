"""One iteration of a workload in a fresh interpreter.

Started by run.py once per iteration, because ehrkit keeps process-wide
caches: a second iteration in the same process would time cache hits, not
the work a command-line user pays for on every call.

Prints one JSON object on stdout: monotonic clock readings (nanoseconds,
comparable with the parent's), peak RSS, the check tally, the speed probes
and, when traced, the per-layer metrics. With --setup-only it stops once
the inputs are ready.

The speed probe is a fixed pure-Python loop that does not touch ehrkit. It
runs three times when the worker starts and three times once the inputs
are ready; during an untraced timed phase it also runs every
PROBE_INTERVAL_S from a SIGALRM handler, in this process, on this core.
run.py divides the measured times by how much slower than usual the probe
ran meanwhile. The time spent in probes is reported so that it can be
taken out of the measured times.

    PYTHONPATH=src python3 perfbench/worker.py --workload hull_decompose --seed 7
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.1


def clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Durations of a fixed loop, sampled while the worker runs."""

    def __init__(self):
        self.samples_ns: list[int] = []
        self.spent_ns = 0

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            began = clock_ns()
            x = 0
            for i in range(PROBE_LOOPS):
                x = (x * 31 + i) % 1000003
            took = clock_ns() - began
            self.samples_ns.append(took)
            self.spent_ns += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_FILE",
                        help="record per-layer spans and write them here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    speed = SpeedProbe()
    speed.probe(3)

    import ehrkit.cli  # noqa: F401  (the import a CLI user pays for)

    from workloads import WORKLOADS, Checker, digest

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    speed.probe(3)
    ready = clock_ns()
    out = {"ehrkit": str(Path(ehrkit.__file__).resolve().parent), "ready_ns": ready,
           "setup_probe_ns": list(speed.samples_ns), "setup_probe_spent_ns": speed.spent_ns}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    run = workload.run
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}:{args.seed}")
        tracer.install()
        run = tracer.span("workload", run)
        start = clock_ns()  # installing wrappers is not part of the timed phase
    else:
        # untraced only: in a traced run the probe would add to the self
        # time of whichever span it interrupts
        speed.start()
        start = ready
    spent_before, first_sample = speed.spent_ns, len(speed.samples_ns)
    outputs = run(inputs)
    checker = Checker()
    workload.check(inputs, outputs, checker)
    speed.stop()  # first, so that no probe runs after `done`
    done = clock_ns()

    out.update({
        "start_ns": start,
        "done_ns": done,
        "run_probe_ns": speed.samples_ns[first_sample:],
        "run_probe_spent_ns": speed.spent_ns - spent_before,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checker.attempted,
        "failures": checker.failures,
    })
    if "stdout" in outputs:
        out["digest"] = digest(outputs["stdout"])
    if tracer:
        tracer.write(args.trace)
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
