"""Fault injection: an engine function that raises is an internal error.

Every engine function the benchmark traces (``TRACED`` in
``perfbench/spans.py``, the ``cli.*`` entries aside) is made to raise, in
turn, each exception type an input fault could be mistaken for.  Every
subcommand that reaches the function must then exit 3 with
``internal error: <type>:``, never 2, and every function must be reached by
at least one subcommand.  Each run starts from a cold engine, as a
``charclass`` process does: no shared values of the dimensions and no
catalogue loaded, so the functions that only run while those are built are
reached too.
"""

from __future__ import annotations

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from charclass import context, tables
from charclass.cli import run_command  # loads every module the table names

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)
ENGINE = {name: row for name, row in _spans.TRACED.items() if not name.startswith("cli.")}

FAULTS = [ValueError, KeyError, OSError, ZeroDivisionError]

ROMAN = {"d": "4", "xi1": "6", "xi2": "9", "xi01": "3"}
VERONESE = {"d": "8", "xi1": "16", "xi2": "32", "xi01": "12", "xi3": "64", "xi11": "24",
            "xi001": "4"}
SUBCOMMANDS = {
    "surface": (["surface"], {"kind": "surface", "chern_data": ROMAN}),
    "surface symbolic": (["surface"], {"kind": "surface", "chern_data": "symbolic"}),
    "threefold": (["threefold"], {"kind": "threefold", "chern_data": VERONESE}),
    "invert surface": (["invert", "--kind", "surface"],
                       {"characters": {"d": "4", "eps0": "3", "C": "6", "T": "1"}}),
    "invert threefold": (["invert", "--kind", "threefold"],
                         {"characters": {"d": "8", "mu0": "20", "t": "16", "q": "4",
                                         "s_t": "0", "gamma": "24", "chi_C": "0"}}),
    "verify tables": (["verify", "--suite", "tables"], None),
    "verify surface": (["verify", "--suite", "surface"], None),
    "verify threefold": (["verify", "--suite", "threefold"], None),
    "derive surface": (["derive", "--kind", "surface", "--character", "T"], None),
    "derive threefold": (["derive", "--kind", "threefold", "--character", "q"], None),
    "preset": (["preset", "smooth-threefold", "--degree", "2"], None),
}


def _inject(mp: pytest.MonkeyPatch, name: str, fault: type, calls: list) -> None:
    """Make the traced function raise ``fault`` wherever a charclass module holds it."""
    def broken(*args, **kwargs):
        calls.append(name)
        raise fault("injected fault")

    module_name, class_name, attrs = ENGINE[name]
    module = sys.modules[module_name]
    if class_name:
        for attr in attrs:
            mp.setattr(getattr(module, class_name), attr, broken)
        return
    original = getattr(module, attrs[0])
    for holder in [m for key, m in sorted(sys.modules.items())
                   if key == "charclass" or key.startswith("charclass.")]:
        for attr, value in list(vars(holder).items()):
            if value is original:
                mp.setattr(holder, attr, broken)


def _run_cold(name: str, fault: type, subcommand: str) -> tuple:
    """(reached, exit code, stdout, stderr) of one subcommand with one fault."""
    argv, doc = SUBCOMMANDS[subcommand]
    calls: list = []
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context, "_SHARED", {})
        mp.setattr(tables, "_REGISTRY", None)
        mp.setattr(tables, "_SERIES", {})
        _inject(mp, name, fault, calls)
        code = run_command(argv, stdin=io.StringIO(json.dumps(doc) if doc else ""),
                           stdout=out, stderr=err)
    return bool(calls), code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(ENGINE))
def test_a_raising_engine_function_exits_3(name):
    reached = []
    for subcommand in SUBCOMMANDS:
        for fault in FAULTS:
            hit, code, out, err = _run_cold(name, fault, subcommand)
            if not hit:  # the first fault shows the subcommand does not reach it
                assert (fault, code) == (FAULTS[0], 0), (subcommand, fault, err)
                break
            assert (code, out) == (3, ""), (subcommand, fault, err)
            assert err.startswith(f"internal error: {fault.__name__}: "), (subcommand, err)
        else:
            reached.append(subcommand)
    assert reached, f"no subcommand reaches {name}"
