"""Command-line front end.

Subcommands:

* ``surface`` / ``threefold``: read an input document, print the character
  table (``--json`` for the machine-readable result document).
* ``invert``: map characters back to the Chern-degree table.
* ``verify``: run the identity suites; exit status 0 only if all pass.
* ``derive``: print the symbolic polynomial of one named character together
  with the pipeline that produced it.
* ``preset``: list the built-in geometries or print one as an input
  document suitable for piping into ``surface``/``threefold``.

Input documents are strict JSON with every rational given as a string
"p", "-p" or "p/q" (never a float), so exactness survives the trip through
the command line; a key repeated inside one object, a rational or a JSON
integer of more than ``MAX_RATIONAL_DIGITS`` digits, or nesting too deep for
the parser is an input error.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error, 141 when the reader of standard output has gone (as a shell reports
a writer killed by SIGPIPE).  Input faults become :class:`InputError` where
the input is read (the document, its file, the preset name and degree, the
character ``derive`` names) before any engine work; any other exception is
the engine's and prints as ``internal error: <type>: <message>``.

Numeric ``surface`` and ``threefold`` documents and ``invert`` run on the
compiled character forms (:mod:`charclass.forms`) and never load the
engine; symbolic documents, ``verify``, ``derive`` and ``preset`` run the
pipeline.  Importing this module registers the engine modules to load on
first use, so a numeric run compiles none of them.

Run as ``charclass``, ``python -m charclass`` or ``python -m charclass.cli``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import forms, formulas
from .formulas import SURFACE_KEYS, THREEFOLD_KEYS
from .report import Check, all_passed


def _on_first_use(name: str):
    """The module ``charclass.<name>``, registered in ``sys.modules`` and
    executed when one of its attributes is first read."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


# The engine.  Every module is registered now, so tools that look the engine
# up in sys.modules after importing this module (the benchmark's tracer) find
# it; the numeric paths never read an attribute of one.
algebra, context, presets, surface, tables, threefold = map(
    _on_first_use, ["algebra", "context", "presets", "surface", "tables", "threefold"])

SYMBOLIC = "symbolic"  # the chern_data of a symbolic document, as context.SYMBOLIC
SURFACE_CHARACTER_KEYS = ["d", "eps0", "C", "T"]
THREEFOLD_CHARACTER_KEYS = ["d", "mu0", "t", "q", "s_t", "gamma", "chi_C"]

# ASCII digits only: ``\d`` also takes other scripts' digits, and ``$`` a
# trailing newline
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")
_DEGREE_RE = re.compile(r"-?[0-9]+")

# Every printed number (a character, a residual, a check detail) is a
# polynomial of total degree at most 4 in the entries of one document, with
# small coefficients.  Its numerator and denominator then have at most 4
# times the summed digits of the entries (numerators and denominators,
# seven entries at most), plus a few for the coefficients.  Bounding each
# entry keeps that under CPython's default limit of 4300 digits for int/str
# conversion, so every accepted document prints.
MAX_RATIONAL_DIGITS = (4300 - 100) // (4 * len(THREEFOLD_KEYS))


class InputError(ValueError):
    """Invalid input document; the message carries the JSON path."""


class InputDocument(NamedTuple):
    kind: str  # "surface" | "threefold"
    chern_data: object  # dict[str, Fraction] or the string "symbolic"

    def to_context(self):
        """The engine context of a symbolic document; numeric documents are
        evaluated from the compiled forms instead."""
        dims = (2, 3) if self.kind == "surface" else (3, 4)
        return context.make_context(*dims, context.SYMBOLIC)

    def echo(self) -> dict:
        if self.chern_data == SYMBOLIC:
            return {"kind": self.kind, "chern_data": SYMBOLIC}
        return {
            "kind": self.kind,
            "chern_data": {k: str(v) for k, v in self.chern_data.items()},
        }


def _parse_rational(value, path: str) -> Fraction:
    if not isinstance(value, str):
        raise InputError(
            f"{path}: rationals must be strings like \"3\" or \"-1/2\", got {value!r}"
        )
    if not _RATIONAL_RE.fullmatch(value):
        raise InputError(f"{path}: malformed rational {value!r}")
    digits = len(value) - value.count("-") - value.count("/")
    if digits > MAX_RATIONAL_DIGITS:
        raise InputError(
            f"{path}: rational has {digits} digits, the limit is {MAX_RATIONAL_DIGITS}"
        )
    return Fraction(value)


def _parse_keyed_rationals(data, required: list, path: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected an object, got {type(data).__name__}")
    missing = [k for k in required if k not in data]
    if missing:
        raise InputError(f"{path}: missing keys: {', '.join(missing)}")
    extra = [k for k in data if k not in required]
    if extra:
        raise InputError(f"{path}: unknown keys: {', '.join(sorted(extra))}")
    return {k: _parse_rational(data[k], f"{path}.{k}") for k in required}


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _json_int(text: str) -> int:
    # bounded before conversion: CPython refuses to convert more than 4300 digits
    digits = len(text) - text.startswith("-")
    if digits > MAX_RATIONAL_DIGITS:
        raise InputError(f"JSON integer has {digits} digits, the limit is {MAX_RATIONAL_DIGITS}")
    return int(text)


def _load_object(text: str) -> dict:
    """Parse a JSON document whose top level must be an object."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("$: input document must be a JSON object")
    return doc


def parse_input(text: str) -> InputDocument:
    """Validate an input document; raises :class:`InputError` with a path."""
    doc = _load_object(text)
    kind = doc.get("kind")
    if kind not in ("surface", "threefold"):
        raise InputError(f"$.kind: expected \"surface\" or \"threefold\", got {kind!r}")
    unknown = [k for k in doc if k not in ("kind", "chern_data")]
    if unknown:
        raise InputError(f"$: unknown keys: {', '.join(sorted(unknown))}")
    data = doc.get("chern_data")
    if data == SYMBOLIC:
        return InputDocument(kind=kind, chern_data=SYMBOLIC)
    required = SURFACE_KEYS if kind == "surface" else THREEFOLD_KEYS
    return InputDocument(
        kind=kind, chern_data=_parse_keyed_rationals(data, required, "$.chern_data")
    )


def _parse_character_input(text: str, kind: str) -> dict:
    doc = _load_object(text)
    if "kind" in doc and doc["kind"] != kind:
        raise InputError(f"$.kind: document says {doc['kind']!r} but --kind is {kind!r}")
    chars = doc.get("characters")
    required = SURFACE_CHARACTER_KEYS if kind == "surface" else THREEFOLD_CHARACTER_KEYS
    return _parse_keyed_rationals(chars, required, "$.characters")


# ---------------------------------------------------------------------------
# output helpers
#
# Characters, inverted tables and residuals are printed with ``str``, which
# gives the canonical text for int, Fraction and GradedPolynomial alike.


def _check_json(check: Check) -> dict:
    return {k: v for k, v in check._asdict().items() if v is not None}


def _print_result(doc, characters: dict, checks: list, as_json: bool, out) -> None:
    if as_json:
        result = {
            "input": doc.echo(),
            "characters": {k: str(v) for k, v in characters.items()},
            "diagnostics": [_check_json(c) for c in checks],
        }
        print(json.dumps(result, indent=2), file=out)
        return
    width = max(len(k) for k in characters)
    for name, value in characters.items():
        print(f"{name:<{width}}  {value}", file=out)
    failures = [c for c in checks if not c.passed]
    print(f"diagnostics: {len(checks) - len(failures)}/{len(checks)} passed", file=out)
    for c in failures:
        print(f"  {c}", file=out)


def _read_input(args, stdin) -> str:
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                return fh.read()
        return stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from None


def _read_degree(text: str | None) -> int | None:
    """``--degree`` as an int: ASCII digits with an optional minus sign."""
    if text is None:
        return None
    if _DEGREE_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # beyond the digits int() converts; out of range anyway
            pass
    raise InputError(presets.DEGREE_ERROR)


# ---------------------------------------------------------------------------
# verification suites


def _suite(name: str) -> list:
    checks = []
    if name in ("all", "tables"):
        checks.extend(tables.golden_roundtrip())
        checks.extend(tables.validate_tables())
    if name in ("all", "surface"):
        surface_ctx = context.make_context(2, 3, context.SYMBOLIC)
        checks.extend(surface.verify_surface_relations(surface_ctx))
        checks.extend(surface.verify_surface_relations(presets.roman_surface_context()))
        checks.extend(surface.verify_surface_relations(presets.smooth_surface_context(5)))
        checks.extend(surface.surface_typo_diagnostics())
    if name in ("all", "threefold"):
        threefold_ctx = context.make_context(3, 4, context.SYMBOLIC)
        checks.extend(threefold.verify_threefold_identities(threefold_ctx))
        checks.extend(threefold.verify_threefold_identities(presets.veronese_threefold_context()))
        checks.extend(threefold.verify_threefold_identities(presets.smooth_threefold_context(3)))
        checks.extend(threefold.threefold_typo_diagnostics())
    if name == "all":  # on the symbolic characters computed above
        checks.append(forms.forms_check(surface_ctx, threefold_ctx))
    return checks


# ---------------------------------------------------------------------------
# derive: symbolic character with provenance

SURFACE_PROVENANCE = {
    "mu0": "degree entry of the input table",
    "mu1": "integral of the critical-curve class of the plane projection against the hyperplane class",
    "mu2": "Riemann-Hurwitz count on the critical curve: 2*mu1 - chi(critical curve) - kappa_cusps",
    "kappa_cusps": "integral of the cusp class of the plane projection",
    "eps0": "half the integral of the double-point class against the hyperplane class",
    "eps1": "polar count of the resolved double curve: 2*eps0 - (chi(double curve) + 2*T)",
    "rho": "transverse intersection of the double-point and critical curves, minus the crosscaps",
    "C": "integral of the crosscap class",
    "T": "one third of the integral of the triple-point class",
    "chi_critical_curve": "weighted Euler characteristic of the critical curve of the plane projection",
    "chi_double_curve": "weighted Euler characteristic of the double curve in the image",
}

THREEFOLD_PROVENANCE = {
    "d": "degree entry of the input table",
    "mu0": "half the integral of the double-point class against the squared hyperplane class",
    "t": "one third of the triple-point class against the hyperplane class",
    "q": "one quarter of the integral of the quadruple-point class",
    "s_t": "integral of the stationary-point class",
    "gamma": "integral of the crosscap-curve class against the hyperplane class",
    "chi_C": "weighted Euler characteristic of the crosscap curve",
    "m1": "integral of the critical-surface class of the first projection",
    "m2": "polar count on the critical surface minus the cusp count of the first projection",
    "m3": "closed form in the Chern degrees (the projection-chain derivation needs an untabulated Euler series)",
    "K_dot_S": "integral of minus the first source Chern class against the crosscap-curve class",
    "D_swallowtail": "integral of the swallowtail class of the first projection",
    "B_plus_D": "cusp count of the second projection, pushed from the critical surface",
    "total_polar": "critical points of the third projection, pushed down the chain",
}


def _derive(kind: str, character: str):
    if kind == "surface":
        names, provenance = formulas.SurfaceCharacters._fields, SURFACE_PROVENANCE
        # the degree is mu0 among the surface characters but d in the 3-fold's
        character = "mu0" if character == "d" else character
    else:
        names, provenance = formulas.ThreefoldCharacters._fields, THREEFOLD_PROVENANCE
    if character not in names:
        raise InputError(
            f"unknown character {character!r} for kind {kind!r}; "
            f"choose from {', '.join(names)}"
        )
    doc = InputDocument(kind, SYMBOLIC)
    if kind == "surface":
        chars = surface.surface_characters(doc.to_context())
    else:
        chars = threefold.threefold_characters(doc.to_context())
    return getattr(chars, character), provenance[character]


# ---------------------------------------------------------------------------
# command dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charclass",
        description="Exact characteristic-class calculus for singular projective surfaces and 3-folds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in ("surface", "threefold"):
        p = sub.add_parser(kind, help=f"compute {kind} characters from an input document")
        p.add_argument("--input", help="input document file (default: stdin)")
        p.add_argument("--json", action="store_true", help="emit the JSON result document")

    p = sub.add_parser("invert", help="map characters back to the Chern-degree table")
    p.add_argument("--kind", choices=["surface", "threefold"], required=True)
    p.add_argument("--input", help="character document file (default: stdin)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--suite", choices=["all", "tables", "surface", "threefold"], default="all")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derive", help="print one symbolic character with its provenance")
    p.add_argument("--kind", choices=["surface", "threefold"], required=True)
    p.add_argument("--character", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("preset", help="list presets or print one as an input document")
    p.add_argument("name", nargs="?", help="preset name; omit to list")
    p.add_argument("--degree", help="degree for the smooth presets")
    return parser


def run_command(argv: Sequence[str] | None = None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        if args.command in ("surface", "threefold"):
            doc = parse_input(_read_input(args, stdin))
            if doc.kind != args.command:
                raise InputError(
                    f"$.kind: document says {doc.kind!r} but the command is {args.command!r}"
                )
            if doc.chern_data != SYMBOLIC:
                characters, checks = forms.numeric_result(doc.kind, doc.chern_data)
            elif args.command == "surface":
                ctx = doc.to_context()
                characters = surface.surface_characters(ctx)
                checks = surface.verify_surface_relations(ctx)
            else:
                ctx = doc.to_context()
                characters = threefold.threefold_characters(ctx)
                checks = threefold.verify_threefold_identities(ctx)
            _print_result(doc, characters._asdict(), checks, args.json, out)
            return 0 if all_passed(checks) else 1

        if args.command == "invert":
            chars = _parse_character_input(_read_input(args, stdin), args.kind)
            if args.kind == "surface":
                keys, values = SURFACE_KEYS, formulas.surface_invert(**chars)
            else:
                keys, values = THREEFOLD_KEYS, formulas.threefold_invert(**chars)
            table = {"d": str(chars["d"])}
            table.update({k: str(v) for k, v in zip(keys[1:], values)})
            if args.json:
                print(json.dumps({"kind": args.kind, "chern_data": table}, indent=2), file=out)
            else:
                for k, v in table.items():
                    print(f"{k:<6} {v}", file=out)
            return 0

        if args.command == "verify":
            checks = _suite(args.suite)
            if args.json:
                print(json.dumps([_check_json(c) for c in checks], indent=2), file=out)
            else:
                for c in checks:
                    print(c, file=out)
                failures = sum(1 for c in checks if not c.passed)
                print(f"{len(checks) - failures}/{len(checks)} checks passed", file=out)
            return 0 if all_passed(checks) else 1

        if args.command == "derive":
            value, provenance = _derive(args.kind, args.character)
            if args.json:
                print(
                    json.dumps(
                        {"kind": args.kind, "character": args.character,
                         "polynomial": str(value), "provenance": provenance},
                        indent=2,
                    ),
                    file=out,
                )
            else:
                print(f"{args.character} = {value}", file=out)
                print(f"provenance: {provenance}", file=out)
            return 0

        if args.command == "preset":
            if not args.name:
                for name in presets.preset_names():
                    kind, _, needs_degree = presets.PRESETS[name]
                    suffix = " --degree D" if needs_degree else ""
                    print(f"{name}{suffix}  ({kind})", file=out)
                return 0
            degree = _read_degree(args.degree)
            try:
                presets.check_preset(args.name, degree, document=True)
            except ValueError as exc:  # an unknown name or a bad --degree
                raise InputError(str(exc)) from None
            print(json.dumps(presets.preset_document(args.name, degree), indent=2), file=out)
            return 0

        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except BrokenPipeError:  # the reader of stdout has gone; main() ends quietly
        raise
    except Exception as exc:  # every input fault is an InputError by now
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return 3


def main() -> None:
    try:
        code = run_command()
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
    except BrokenPipeError:
        # as the Python docs' "Note on SIGPIPE" advises: point stdout at
        # devnull so the flush at shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    main()
