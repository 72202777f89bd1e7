"""Structured pass/fail reports for identity and inequality checks.

Every check in the package produces the same shape: a named statement, a
list of instances (each with the exact left and right values and a boolean),
and an overall verdict. "hypothesis-not-met" means the statement's
hypotheses did not apply to the input, which is not a failure. A check
whose row count comes from its caller refuses, through `check_rows`, a
report of more than MAX_REPORT_ROWS rows before any work.
"""

from __future__ import annotations

from .errors import Record, UnsupportedError

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

# Rows a report may hold. Through the CLI (2-vCPU VM, Python 3.11.7) the
# H_2(r) report to rmax 4,998 and 10,000-row `cone-reciprocity` (quadrant),
# `specialize` and `reciprocity` (unit square) reports take 0.2-1.1 s and
# write 1.0-1.5 MB each.
MAX_REPORT_ROWS = 10_000


def check_rows(report: str, rows: int) -> None:
    """Raise UnsupportedError when `report`, named with its arguments,
    would hold more than MAX_REPORT_ROWS rows."""
    if rows > MAX_REPORT_ROWS:
        raise UnsupportedError(f"the {report} holds {rows:,} rows, over the "
                               f"limit of {MAX_REPORT_ROWS:,}")


class Report(Record):
    __slots__ = _fields = ("theorem", "instances", "verdict", "notes")

    def __init__(self, theorem: str, instances: list[dict], verdict: str,
                 notes: dict | None = None):
        self.theorem = theorem
        self.instances = instances
        self.verdict = verdict
        self.notes = {} if notes is None else notes

    @staticmethod
    def from_instances(theorem: str, instances: list[dict], notes: dict | None = None) -> "Report":
        verdict = PASS if all(inst.get("pass", False) for inst in instances) else FAIL
        return Report(theorem, instances, verdict, notes or {})

    @property
    def passed(self) -> bool:
        return self.verdict in (PASS, HYPOTHESIS_NOT_MET)
