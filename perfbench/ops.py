"""Running one op against the engine, and checking what came back.

``run_*`` functions are the timed part: they call the engine's public API
(or start a ``charclass`` process) and return its raw output.  ``check``
compares that output with the op's reference answer and raises
:class:`Mismatch` on any disagreement; it runs outside the timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

from charclass import algebra, context, presets, surface, threefold

import reference as R

# The seed engine's report sizes: fewer checks than these means the report
# skipped identities it used to prove.
MIN_CHECKS = {("surface", True): 35, ("surface", False): 27,
              ("threefold", True): 34, ("threefold", False): 21}
MIN_VERIFY_ALL = 228

CLI_CODE = "import sys; from charclass.cli import main; sys.exit(main())"
PROCESS_TIMEOUT_S = 60


class Mismatch(Exception):
    """The engine's output disagrees with the reference."""


def _dims(kind: str) -> tuple:
    return (2, 3) if kind == "surface" else (3, 4)


def _characters_and_report(kind: str, ctx) -> tuple:
    if kind == "surface":
        return surface.surface_characters(ctx).as_dict(), surface.verify_surface_relations(ctx)
    return threefold.threefold_characters(ctx).as_dict(), threefold.verify_threefold_identities(ctx)


def run_numeric(doc: dict) -> tuple:
    """What ``charclass surface|threefold`` computes, minus process and JSON."""
    kind = doc["kind"]
    table = {k: Fraction(v) for k, v in doc["chern_data"].items()}
    return _characters_and_report(kind, context.make_context(*_dims(kind), table))


def run_symbolic(doc: dict) -> tuple:
    kind = doc["kind"]
    if doc["family"] == "smooth":
        _, ctx = presets.preset_context(doc["preset"], None)
    elif doc["chern_data"] == "symbolic":
        ctx = context.make_context(*_dims(kind), context.SYMBOLIC)
    else:
        table = {k: algebra.parse(v) for k, v in doc["chern_data"].items()}
        ctx = context.make_context(*_dims(kind), table)
    return _characters_and_report(kind, ctx)


def run_cli(payload: dict, root: str, launcher: list | None = None) -> tuple:
    """One fresh ``charclass`` process; returns (exit code, stdout, stderr)."""
    argv = (launcher or [sys.executable, "-c", CLI_CODE]) + payload["argv"]
    proc = subprocess.run(argv, input=payload["stdin"], capture_output=True, text=True,
                          cwd=root, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                          timeout=PROCESS_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# checking


def _expect_equal(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: engine {got} != reference {want}")


def _check_characters(texts: dict, expected: dict) -> None:
    """Numeric values printed as text against the reference Fractions."""
    if set(texts) != set(expected):
        raise Mismatch(f"character set {sorted(texts)} != {sorted(expected)}")
    for k, want in expected.items():
        _expect_equal(k, R.evaluate_text(texts[k], {}), want)


def _check_report(kind: str, numeric: bool, passed: list) -> None:
    if len(passed) < MIN_CHECKS[(kind, numeric)]:
        raise Mismatch(f"report has {len(passed)} checks, expected at least "
                       f"{MIN_CHECKS[(kind, numeric)]}")
    if not all(passed):
        raise Mismatch(f"{passed.count(False)} report checks failed")


def check_warm(op, output) -> None:
    """Numeric or symbolic library op: characters plus an all-pass report."""
    chars, checks = output
    texts = {k: str(v) for k, v in chars.items()}
    passed = [c.passed for c in checks]
    if isinstance(op.expect, dict):
        _check_characters(texts, op.expect)
        _check_report(op.kind, True, passed)
        return
    parsed = {k: R.parse_polynomial(v) for k, v in texts.items()}
    for point, expected in op.expect:
        if set(parsed) != set(expected):
            raise Mismatch(f"character set {sorted(parsed)} != {sorted(expected)}")
        for k, want in expected.items():
            _expect_equal(f"{k} at {point}", R.evaluate_polynomial(parsed[k], point), want)
    _check_report(op.kind, False, passed)


def check_cli(op, output) -> None:
    code, out, err = output
    if code != 0:
        raise Mismatch(f"exit code {code}: {err.strip()[-300:]}")
    if op.kind in ("surface", "threefold"):
        doc = json.loads(out)
        _check_characters(doc["characters"], op.expect)
        _check_report(op.kind, True, [d["passed"] for d in doc["diagnostics"]])
    elif op.kind == "invert":
        table = json.loads(out)["chern_data"]
        _check_characters(table, op.expect)
    elif op.kind == "preset":
        doc = json.loads(out)
        _expect_equal("kind", doc["kind"], "threefold")
        _check_characters(doc["chern_data"], op.expect)
    elif op.kind == "derive":
        head = out.splitlines()[0]
        if not head.startswith("m2 = "):
            raise Mismatch(f"unexpected derive output {head!r}")
        terms = R.parse_polynomial(head[len("m2 = "):])
        for point, want in op.expect:
            _expect_equal(f"m2 at {point}", R.evaluate_polynomial(terms, point), want)
    elif op.kind == "verify":
        lines = out.splitlines()
        n = len(lines) - 1
        _expect_equal("summary", lines[-1], f"{n}/{n} checks passed")
        if n < MIN_VERIFY_ALL or not all(line.startswith("PASS ") for line in lines[:-1]):
            raise Mismatch(f"verify printed {n} checks, not all PASS")
    else:
        raise Mismatch(f"no check for {op.kind!r}")


def check(workload: str, op, output) -> None:
    if workload == "cli-oneshot":
        check_cli(op, output)
    else:
        check_warm(op, output)


def runner(workload: str, root: str):
    """The timed function of a workload: op payload -> raw output."""
    if workload == "numeric-batch":
        return run_numeric
    if workload == "symbolic-families":
        return run_symbolic
    return lambda payload: run_cli(payload, root)
