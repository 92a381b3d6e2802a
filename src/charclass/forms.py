"""Compiled character forms: numeric tables evaluated without the engine.

Every character is a polynomial in the entries of the degree table, so the
pipeline run once on the symbolic table gives each one for good.
``character_forms.json`` keeps those polynomials, as int numerators over
one denominator with one exponent per table key, and the residual text of
each double-locus identity as proved on the symbolic 3-fold.
:func:`render_forms` is the one writer of that text (``tools/write_forms.py``
saves it, and ``verify --suite all`` compares it with the file), so the
pipeline stays the only source of every value.

:func:`numeric_result` evaluates the forms on a numeric table with ``int``
and ``Fraction`` and runs the report rows of :mod:`charclass.formulas` on
the values.  This is exact: specialising the table is a ring homomorphism,
so a polynomial identity proved on the symbolic context holds on every
numeric table.  Nothing here imports the engine; the file is read on first
use.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import lcm
from typing import Mapping

from .formulas import (
    SURFACE_KEYS,
    THREEFOLD_KEYS,
    SurfaceCharacters,
    ThreefoldCharacters,
    surface_integrality,
    surface_rows,
    threefold_integrality,
    threefold_rows,
)
from .report import Check

FORMS_FILE = os.path.join(os.path.dirname(__file__), "character_forms.json")

_FORMS: dict | None = None  # kind -> (keys, [(name, denominator, terms)], double-locus rows)


def _forms() -> dict:
    global _FORMS
    if _FORMS is None:
        with open(FORMS_FILE, encoding="utf-8") as fh:
            doc = json.load(fh)
        _FORMS = {
            kind: (part["keys"],
                   [(name, form["denominator"], form["terms"])
                    for name, form in part["characters"].items()],
                   list(part.get("double_locus", {}).items()))
            for kind, part in doc.items()
        }
    return _FORMS


def _plain(x: Fraction):
    return x.numerator if x.denominator == 1 else x


def _value(denominator: int, terms: list, xi: list):
    total = 0
    for num, *exponents in terms:
        for x, e in zip(xi, exponents):
            if e:
                num *= x ** e
        total += num
    return _plain(Fraction(total, denominator))


def numeric_result(kind: str, table: Mapping) -> tuple:
    """(characters, report) of a numeric ``"surface"`` or ``"threefold"``
    table, a mapping from each key (``d``, ``xi1``, ...) to an exact number.

    The characters are a :class:`~charclass.formulas.SurfaceCharacters` or
    :class:`~charclass.formulas.ThreefoldCharacters` of ``int`` and
    ``Fraction`` values, the same values and the same report as the
    pipeline's on that table.
    """
    keys, characters, double_locus = _forms()[kind]
    xi = [_plain(Fraction(table[k])) for k in keys]
    values = {name: _value(den, terms, xi) for name, den, terms in characters}
    if kind == "surface":
        v = SurfaceCharacters(**values)
        return v, surface_rows(v, xi) + surface_integrality(v)
    v = ThreefoldCharacters(**values)
    proved = [Check(name, residual == "0", residual) for name, residual in double_locus]
    return v, threefold_rows(v, xi) + proved + threefold_integrality(v)


# ---------------------------------------------------------------------------
# writing the file from the pipeline


def _form(p, keys: tuple) -> dict:
    """A scalar polynomial as a denominator and sorted [numerator, exponents...] rows."""
    from .algebra import var_label

    position = {key: i for i, key in enumerate(keys)}
    terms = []
    for mono, c in p.items():
        exponents = [0] * len(keys)
        for v, e in mono:  # a variable that is no table key raises KeyError
            exponents[position[var_label(v)]] = e
        terms.append((exponents, c))
    den = lcm(*(c.denominator for _, c in terms))
    return {"denominator": den,
            "terms": [[int(c * den), *exps] for exps, c in sorted(terms, reverse=True)]}


def _json_object(rows: list, indent: int) -> str:
    pad = " " * indent
    body = ",\n".join(f"{pad}  {json.dumps(key)}: {text}" for key, text in rows)
    return "{\n" + body + "\n" + pad + "}"


def render_forms(surface_ctx=None, threefold_ctx=None) -> str:
    """The text of ``character_forms.json``, from the pipeline on the
    symbolic surface and 3-fold contexts (built here when not given)."""
    from . import surface, threefold
    from .context import SYMBOLIC, make_context

    surface_ctx = surface_ctx or make_context(2, 3, SYMBOLIC)
    threefold_ctx = threefold_ctx or make_context(3, 4, SYMBOLIC)
    kinds = []
    for kind, keys, ctx, characters in (
            ("surface", SURFACE_KEYS, surface_ctx, surface.surface_characters(surface_ctx)),
            ("threefold", THREEFOLD_KEYS, threefold_ctx,
             threefold.threefold_characters(threefold_ctx))):
        rows = [("keys", json.dumps(keys)),
                ("characters", _json_object(
                    [(name, json.dumps(_form(p, keys))) for name, p in characters._asdict().items()],
                    4))]
        if kind == "threefold":
            rows.append(("double_locus", _json_object(
                [(c.name, json.dumps(c.residual)) for c in threefold.double_locus_rows(ctx)], 4)))
        kinds.append((kind, _json_object(rows, 2)))
    return _json_object(kinds, 0) + "\n"


def forms_check(surface_ctx=None, threefold_ctx=None) -> Check:
    """The verify line: the shipped file is what :func:`render_forms` writes."""
    with open(FORMS_FILE, encoding="utf-8") as fh:
        shipped = fh.read()
    ok = shipped == render_forms(surface_ctx, threefold_ctx)
    return Check("forms/file-matches-pipeline", ok,
                 detail=None if ok else "regenerate with tools/write_forms.py")
