"""The compiled character forms against the pipeline they come from.

A numeric ``surface`` or ``threefold`` run evaluates ``character_forms.json``
instead of running the engine; its output must be the pipeline's, byte for
byte, and the file must be what the pipeline writes.  A numeric run must
also leave the engine modules unexecuted.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charclass
from charclass import cli, forms, presets
from charclass.context import make_context
from charclass.surface import surface_characters, verify_surface_relations
from charclass.threefold import threefold_characters, verify_threefold_identities

from conftest import non_integral_tables

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(charclass.__file__).resolve().parents[1])
KEYS = {"surface": cli.SURFACE_KEYS, "threefold": cli.THREEFOLD_KEYS}
VERONESE = {"d": "8", "xi1": "16", "xi2": "32", "xi01": "12", "xi3": "64", "xi11": "24",
            "xi001": "4"}


def _pipeline_output(kind: str, table: dict, as_json: bool) -> tuple:
    """What the CLI printed when numeric tables ran through the engine."""
    doc = cli.parse_input(json.dumps({"kind": kind, "chern_data": table}))
    if kind == "surface":
        ctx = make_context(2, 3, dict(doc.chern_data))
        chars, checks = surface_characters(ctx), verify_surface_relations(ctx)
    else:
        ctx = make_context(3, 4, dict(doc.chern_data))
        chars, checks = threefold_characters(ctx), verify_threefold_identities(ctx)
    out = io.StringIO()
    cli._print_result(doc, chars._asdict(), checks, as_json, out)
    return 0 if all(c.passed for c in checks) else 1, out.getvalue()


def _compiled_output(kind: str, table: dict, as_json: bool) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps({"kind": kind, "chern_data": table}))
    code = cli.run_command([kind] + ["--json"] * as_json, stdin=stdin, stdout=out, stderr=err)
    assert err.getvalue() == ""
    return code, out.getvalue()


def _assert_same_output(kind: str, table: dict) -> None:
    for as_json in (False, True):
        assert _compiled_output(kind, table, as_json) == _pipeline_output(kind, table, as_json)


PRESET_DOCS = [("roman-surface", None), ("veronese-p3", None)] + [
    (name, degree) for name in ("smooth-surface", "smooth-threefold")
    for degree in (1, 2, 3, 4, 5, 17)]


@pytest.mark.parametrize("name, degree", PRESET_DOCS)
def test_every_preset_matches_the_pipeline(name, degree):
    doc = presets.preset_document(name, degree)
    _assert_same_output(doc["kind"], doc["chern_data"])


@pytest.mark.parametrize("kind", ["surface", "threefold"])
@pytest.mark.parametrize("exponent", [6, 9, 12])
def test_wide_degrees_match_the_pipeline(kind, exponent):
    degree = 10 ** exponent
    doc = presets.preset_document(f"smooth-{kind}", degree)
    _assert_same_output(kind, doc["chern_data"])
    table = {k: str(degree - 7 * i) for i, k in enumerate(KEYS[kind])}  # not geometric
    _assert_same_output(kind, table)


def _integral_tables(kind: str):
    return st.fixed_dictionaries(
        {k: st.integers(-10 ** 12, 10 ** 12).map(str) for k in KEYS[kind]})


@pytest.mark.parametrize("kind", ["surface", "threefold"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_integral_tables_match_the_pipeline(kind, data):
    _assert_same_output(kind, data.draw(_integral_tables(kind)))


@pytest.mark.parametrize("kind, m", [("surface", 2), ("threefold", 3)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_non_integral_tables_match_the_pipeline(kind, m, data):
    table = data.draw(non_integral_tables(m))
    _assert_same_output(kind, {k: str(v) for k, v in table.items()})


def test_the_file_is_what_the_pipeline_writes():
    assert forms.render_forms() == Path(forms.FORMS_FILE).read_text(encoding="utf-8")
    assert forms.forms_check().passed


def test_an_edited_coefficient_is_caught(monkeypatch, tmp_path):
    text = Path(forms.FORMS_FILE).read_text(encoding="utf-8")
    line = '"q": {"denominator": 24, "terms": [[1, 4, '
    assert text.count(line) == 1
    path = tmp_path / "character_forms.json"
    path.write_text(text.replace(line, line.replace("[[1, ", "[[2, ")), encoding="utf-8")
    before = _compiled_output("threefold", VERONESE, True)
    monkeypatch.setattr(forms, "FORMS_FILE", str(path))
    monkeypatch.setattr(forms, "_FORMS", None)
    check = forms.forms_check()
    assert not check.passed and "tools/write_forms.py" in check.detail
    code, out = _compiled_output("threefold", VERONESE, True)
    assert out != before[1]
    assert json.loads(out)["characters"]["q"] == str(5 + Fraction(8 ** 4, 24))  # q is 5


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)


# a name each engine module's body defines; the namespace is read with
# object.__getattribute__, which does not run a module registered to load on
# first use
UNEXECUTED = """
import io, json, sys
from charclass import forms
from charclass.cli import run_command

assert forms._FORMS is None  # read on first use, not at import
doc = json.dumps({"kind": "threefold", "chern_data": json.loads(sys.argv[1])})
out = io.StringIO()
assert run_command(["threefold", "--json"], stdin=io.StringIO(doc), stdout=out) == 0
assert json.loads(out.getvalue())["characters"]["q"] == "5"
body = {"algebra": "GradedPolynomial", "context": "MapContext", "presets": "PRESETS",
        "surface": "surface_characters", "tables": "thom_polynomial",
        "threefold": "threefold_characters"}
print(sorted(name for name, attr in body.items()
             if attr in object.__getattribute__(sys.modules["charclass." + name], "__dict__")))
"""


def test_a_numeric_run_executes_no_engine_module():
    proc = _python(UNEXECUTED, json.dumps(VERONESE))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


TRACED = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from charclass import cli
import spans

tracer = spans.Tracer()
with tracer:
    wrapped = []
    for module_name, class_name, attrs in spans.TRACED.values():
        holder = sys.modules[module_name]
        holder = getattr(holder, class_name) if class_name else holder
        wrapped += [hasattr(getattr(holder, attr), "__wrapped__") for attr in attrs]
    doc = json.dumps({"kind": "threefold", "chern_data": json.loads(sys.argv[2])})
    codes = [cli.run_command(["threefold"], stdin=io.StringIO(doc), stdout=io.StringIO()),
             cli.run_command(["verify", "--suite", "tables"], stdout=io.StringIO())]
called = spans.aggregate(tracer.records())["functions"]
print(json.dumps({"unwrapped": wrapped.count(False), "codes": codes,
                  "called": sorted({"cli.parse_input", "tables.golden_roundtrip",
                                    "algebra.parse"} & set(called))}))
"""


def test_the_benchmark_tracer_resolves_every_name_after_the_cli_import():
    proc = _python(TRACED, str(ROOT / "perfbench"), json.dumps(VERONESE))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "unwrapped": 0, "codes": [0, 0],
        "called": ["algebra.parse", "cli.parse_input", "tables.golden_roundtrip"]}
