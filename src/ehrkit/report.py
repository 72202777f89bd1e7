"""Structured pass/fail reports for identity and inequality checks.

Every check in the package produces the same shape: a named statement, a
list of instances (each with the exact left and right values and a boolean),
and an overall verdict. "hypothesis-not-met" means the statement's
hypotheses did not apply to the input, which is not a failure.
"""

from __future__ import annotations

from .errors import Record

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


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
