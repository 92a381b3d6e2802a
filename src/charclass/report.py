"""Named pass/fail checks with exact residuals, shared by the verify suites.

Most checks are identities: a row (name, got, want) passes when
``got - want`` is exactly zero, and ``render(got - want)`` is its residual.
:func:`identities` builds those rows and :func:`integrality` the numeric
integrality and sign checks; the few checks that need another verdict are
written out where they are made.  On a numeric table the identity rows run
on plain exact numbers (see :func:`numbers`) instead of constant polynomials.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import lift, render


class Check(NamedTuple):
    """One verification item: a name, a verdict and the exact evidence."""

    name: str
    passed: bool
    residual: str | None = None
    detail: str | None = None

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.residual not in (None, "0"):
            extra += f" residual={self.residual}"
        if self.detail:
            extra += f" ({self.detail})"
        return f"{status} {self.name}{extra}"


def numbers(values) -> list:
    """Constant polynomials as plain exact numbers: int when integral, else Fraction."""
    values = [p.constant_value() for p in values]
    return [v.numerator if v.denominator == 1 else v for v in values]


def identities(prefix: str, rows) -> list:
    """One check ``prefix/name`` per (name, got, want) row of polynomials or
    plain exact numbers."""
    checks = []
    for name, got, want in rows:
        residual = lift(got - want)
        checks.append(Check(f"{prefix}/{name}", residual.is_zero(), render(residual)))
    return checks


def integrality(prefix: str, values: dict, names, non_negative: bool) -> list:
    """One check ``prefix/name`` that each named constant is an integer
    (and, with ``non_negative``, at least zero), with the value as detail."""
    checks = []
    for name in names:
        value = values[name].constant_value()
        ok = value.denominator == 1 and (not non_negative or value >= 0)
        checks.append(Check(f"{prefix}/{name}", ok, detail=f"value {value}"))
    return checks


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)
