"""Validation reports and the exceptions shared by every checker in the package.

A report is a list of named checks.  Each check is one axiom or property
scanned over some finite set of instances; a failing check carries witness
dictionaries with enough detail to reproduce the violation by hand.

Axiom failures are data (they go into reports).  Structural defects --
ragged tables, out-of-range indices, missing state values -- are exceptions,
because there is nothing meaningful to scan yet.
"""

from __future__ import annotations

from typing import Any


class MalformedInputError(ValueError):
    """A structural defect in an input: ragged table, bad index, missing field."""


class PreconditionError(ValueError):
    """An operation was invoked on a structure outside its stated contract."""


class InternalConsistencyError(RuntimeError):
    """A fact that must hold by theorem failed on concrete data.

    Either the input structure lied about its class or there is a bug here;
    both deserve a loud stop rather than a report entry.
    """


# Witness lists are capped so that a thoroughly broken input does not produce
# megabytes of output; the full violation count is always recorded.
MAX_WITNESSES = 8


class Check:
    """Outcome of one named axiom/property scan.  Classification scans (is it
    prelinear? cancellative?) are reported like any other check, but with
    ``required`` false a failure there does not make the subject invalid."""

    def __init__(self, axiom: str, passed: bool, mode: str = "exhaustive",
                 witnesses: list[dict[str, Any]] | None = None, violations: int = 0, note: str = "",
                 required: bool = True):
        self.axiom, self.passed, self.mode = axiom, passed, mode
        self.witnesses = [] if witnesses is None else witnesses
        self.violations, self.note, self.required = violations, note, required

    def __eq__(self, other: object) -> bool:
        return type(other) is Check and vars(self) == vars(other)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "axiom": self.axiom,
            "passed": self.passed,
            "mode": self.mode,
        }
        if not self.passed:
            out["violations"] = self.violations
            out["witnesses"] = self.witnesses
        if not self.required:
            out["required"] = False
        if self.note:
            out["note"] = self.note
        return out


def verdict(
    axiom: str,
    bad: list[dict[str, Any]],
    mode: str = "exhaustive",
    note: str = "",
    violations: int | None = None,
    required: bool = True,
) -> Check:
    """The check for ``axiom``: it passes when nothing is ``bad``.

    ``violations`` is the full count when ``bad`` lists only some of them;
    at most MAX_WITNESSES of ``bad`` are kept either way.
    """
    count = len(bad) if violations is None else violations
    return Check(
        axiom=axiom,
        passed=count == 0,
        mode=mode,
        witnesses=bad[:MAX_WITNESSES],
        violations=count,
        note=note,
        required=required,
    )


class ValidationReport:
    """A bundle of checks about one subject, plus derived classification flags."""

    def __init__(self, subject: str, checks: list[Check] | None = None, flags: dict[str, bool] | None = None):
        self.subject = subject
        self.checks = [] if checks is None else checks
        self.flags = {} if flags is None else flags

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    def merge(self, other: "ValidationReport", prefix: str = "") -> None:
        self.checks.extend(Check(**{**vars(c), "axiom": prefix + c.axiom}) for c in other.checks)

    def check(self, axiom: str) -> Check:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]
