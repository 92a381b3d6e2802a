"""Catalogue of universal singularity-class polynomials.

The entries live in ``universal_classes.tab``, one per line in the format
``name | kappa | codim | polynomial | valid_to_weight``.  Locus classes
(``tp`` entries) are exact homogeneous polynomials; the ``sm:``-prefixed
entries are the truncated Euler-characteristic refinements whose leading
term reproduces the corresponding locus class.  Code never re-derives a
table row; the file is the ground truth and is covered by golden tests.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterator

from .algebra import AbstractClass, constant, parse, render
from .report import Check, identities

_DATA_FILE = os.path.join(os.path.dirname(__file__), "universal_classes.tab")
_SSM_PREFIX = "sm:"

# Leading-term references for the Euler-characteristic series: either the
# name of the locus class whose multiple they refine, or a literal constant.
_SSM_LEADING = {
    ("A1", 0): ("A1", Fraction(1)),
    ("A1", 1): ("A1", Fraction(1)),
    ("A0^2", 1): ("A0^2", Fraction(1)),
    ("image", 1): (None, Fraction(1)),
    ("image_double", 1): ("A0^2", Fraction(1, 2)),
}


class TableMissError(KeyError):
    """Requested (name, kappa) pair is not in the catalogue."""


def _parse_line(line: str) -> AbstractClass:
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 5:
        raise ValueError(f"malformed table line: {line!r}")
    name, kappa, codim, body, valid = fields
    kappa = int(kappa)
    return AbstractClass(
        name=name,
        kappa=kappa,
        codim=int(codim),
        body=parse(body, kappa=kappa),
        valid_to_weight=None if valid == "-" else int(valid),
    )


def _raw_lines() -> Iterator[str]:
    with open(_DATA_FILE, encoding="utf-8") as fh:
        text = fh.read()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


_REGISTRY: dict | None = None
_SERIES: dict = {}  # (name, kappa) -> the sm: row under its plain name


def _registry() -> dict:
    global _REGISTRY
    if _REGISTRY is None:
        reg = {}
        for line in _raw_lines():
            entry = _parse_line(line)
            key = (entry.name, entry.kappa)
            if key in reg:
                raise ValueError(f"duplicate table entry {key}")
            reg[key] = entry
            if entry.name.startswith(_SSM_PREFIX):
                name = entry.name[len(_SSM_PREFIX):]
                _SERIES[(name, entry.kappa)] = entry._replace(name=name)
        _REGISTRY = reg
    return _REGISTRY


def thom_polynomial(name: str, kappa: int) -> AbstractClass:
    """The exact locus class for a singularity type at the given kappa."""
    registry = _registry()  # a fault while loading is not a miss
    try:
        return registry[(name, kappa)]
    except KeyError:
        raise TableMissError(f"no locus class for {name!r} at kappa={kappa}") from None


def ssm_series(name: str, kappa: int) -> AbstractClass:
    """The truncated Euler-characteristic series for a locus or image set.

    One object per catalogue row, named without the ``sm:`` prefix.
    """
    _registry()
    try:
        return _SERIES[(name, kappa)]
    except KeyError:
        raise TableMissError(f"no Euler series for {name!r} at kappa={kappa}") from None


def entries() -> list:
    """All stored classes, in file order."""
    return list(_registry().values())


def validate_tables() -> list:
    """Structural validation of the catalogue.

    Locus classes must be homogeneous of their stated codimension under the
    kappa-weighting; every Euler series must open with the matching locus
    class (up to its recorded multiplicity).
    """
    checks = []
    for (name, kappa), entry in _registry().items():
        if name.startswith(_SSM_PREFIX):
            continue
        ok = entry.body.is_homogeneous(entry.codim) and not entry.body.is_zero()
        checks.append(
            Check(
                name=f"tables/homogeneous/{name}@kappa={kappa}",
                passed=ok,
                detail=f"codim {entry.codim}, body {render(entry.body)}",
            )
        )
    rows = []
    for (name, kappa), (ref, factor) in _SSM_LEADING.items():
        series = ssm_series(name, kappa)
        expected = constant(factor) if ref is None else thom_polynomial(ref, kappa).body * factor
        rows.append((f"{name}@kappa={kappa}", series.body.component(series.codim), expected))
    return checks + identities("tables/leading-term", rows)


def golden_roundtrip() -> list:
    """Bit-exact rendering check of each registry entry (file order) against its line."""
    checks = []
    for line, entry in zip(_raw_lines(), _registry().values(), strict=True):
        text = line.split("|")[3].strip()
        ok = render(entry.body) == text
        checks.append(
            Check(
                name=f"tables/golden/{entry.name}@kappa={entry.kappa}",
                passed=ok,
                detail=None if ok else f"file {text!r} != render {render(entry.body)!r}",
            )
        )
    return checks
