"""CLI behaviour: documents, pipelines, exit codes, exact round trips."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import charclass
from charclass import presets, surface, tables, threefold
from charclass.algebra import (
    TARGET_HYPERPLANE_VAR,
    ExponentOverflowError,
    IncompleteSubstitutionError,
    NonUnitSeriesError,
    RingMismatchError,
    atom,
    source_chern,
)
from charclass.cli import (
    MAX_RATIONAL_DIGITS,
    SURFACE_PROVENANCE,
    THREEFOLD_PROVENANCE,
    InputError,
    parse_input,
    run_command,
)
from charclass.context import SYMBOLIC, TruncationError, make_context
from charclass.presets import MAX_DEGREE_DIGITS
from charclass.tables import TableMissError
from charclass.threefold import _gysin_push

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_VERIFY = GOLDEN / "verify_all.txt"

VERONESE_DOC = json.dumps(
    {
        "kind": "threefold",
        "chern_data": {
            "d": "8", "xi1": "16", "xi2": "32", "xi01": "12",
            "xi3": "64", "xi11": "24", "xi001": "4",
        },
    }
)

ROMAN_DOC = json.dumps(
    {"kind": "surface", "chern_data": {"d": "4", "xi1": "6", "xi2": "9", "xi01": "3"}}
)


def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestParseInput:
    def test_veronese_document(self):
        doc = parse_input(VERONESE_DOC)
        assert doc.kind == "threefold"
        assert doc.chern_data["xi11"] == Fraction(24)

    def test_symbolic_document(self):
        doc = parse_input('{"kind":"surface","chern_data":"symbolic"}')
        assert doc.chern_data == "symbolic"
        assert not doc.to_context().is_numeric()

    def test_missing_keys_listed(self):
        with pytest.raises(InputError, match="missing keys: xi1, xi2, xi01"):
            parse_input('{"kind":"surface","chern_data":{"d":"4"}}')

    def test_malformed_rational(self):
        with pytest.raises(InputError, match=r"\$\.chern_data\.xi1"):
            parse_input(
                '{"kind":"surface","chern_data":{"d":"4","xi1":"6.5","xi2":"9","xi01":"3"}}'
            )

    def test_floats_rejected(self):
        with pytest.raises(InputError, match="strings"):
            parse_input(
                '{"kind":"surface","chern_data":{"d":4,"xi1":"6","xi2":"9","xi01":"3"}}'
            )

    def test_unknown_kind(self):
        with pytest.raises(InputError, match=r"\$\.kind"):
            parse_input('{"kind":"fourfold","chern_data":"symbolic"}')

    def test_bad_json_position(self):
        with pytest.raises(InputError, match="line 1 column"):
            parse_input("{nope}")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InputError, match="duplicate key 'kind'"):
            parse_input('{"kind":"threefold","kind":"surface","chern_data":"symbolic"}')

    def test_deep_nesting_is_an_input_error(self):
        for text in ["[" * 100000, '{"a":' * 100000]:
            code, out, err = run(["surface"], stdin_text=text)
            assert (code, out) == (2, "")
            assert err == "error: invalid JSON: arrays or objects nested too deeply\n"

    def test_json_integer_digits_bounded(self):
        doc = '{"kind": "surface", "chern_data": {"d": %s, "xi1": "6", "xi2": "9", "xi01": "3"}}'
        for digits in [MAX_RATIONAL_DIGITS + 1, 5000]:
            code, out, err = run(["surface"], stdin_text=doc % ("-" + "7" * digits))
            assert (code, out) == (2, "")
            assert err == (f"error: JSON integer has {digits} digits, "
                           f"the limit is {MAX_RATIONAL_DIGITS}\n")
        code, _, err = run(["surface"], stdin_text=doc % ("7" * MAX_RATIONAL_DIGITS))
        assert code == 2 and "rationals must be strings" in err

    @pytest.mark.parametrize("digits", [MAX_RATIONAL_DIGITS + 1, 4000, 5000])
    def test_rational_digits_bounded(self, digits):
        entries = {"d": "4", "xi1": "6", "xi2": "9", "xi01": "3"}
        for key, value in [("xi2", "7" * digits), ("xi01", "-1/" + "3" * (digits - 1))]:
            doc = {"kind": "surface", "chern_data": dict(entries, **{key: value})}
            code, out, err = run(["surface", "--json"], stdin_text=json.dumps(doc))
            assert (code, out) == (2, "")
            assert err == (f"error: $.chern_data.{key}: rational has {digits} digits, "
                           f"the limit is {MAX_RATIONAL_DIGITS}\n")
        chars = {"d": "4", "eps0": "3", "C": "7" * digits, "T": "1"}
        code, _, err = run(["invert", "--kind", "surface"],
                           stdin_text=json.dumps({"characters": chars}))
        assert code == 2 and "$.characters.C" in err and f"limit is {MAX_RATIONAL_DIGITS}" in err


def _wide(digits: int, seed: int) -> str:
    """A rational of exactly ``digits`` digits with a large denominator."""
    top = str(10 ** (digits // 2 - 1) + seed)
    bottom = str(10 ** (digits - len(top) - 1) + 2 * seed + 1)
    return f"-{top}/{bottom}"


@pytest.mark.parametrize("kind", ["surface", "threefold"])
def test_rationals_at_the_digit_bound_print_exactly(kind):
    """Entries of the largest accepted size: every value prints, and is exact."""
    keys = ["d", "xi1", "xi2", "xi01"] + (["xi3", "xi11", "xi001"] if kind == "threefold" else [])
    table = {k: _wide(MAX_RATIONAL_DIGITS, i) for i, k in enumerate(keys)}
    assert all(len(v) - 2 == MAX_RATIONAL_DIGITS for v in table.values())
    code, out, err = run([kind, "--json"],
                         stdin_text=json.dumps({"kind": kind, "chern_data": table}))
    assert code == 1, err  # far from geometric: the integrality checks fail
    chars = {k: Fraction(v) for k, v in json.loads(out)["characters"].items()}
    d, x1, x2, x01 = (Fraction(table[k]) for k in ["d", "xi1", "xi2", "xi01"])
    if kind == "surface":
        assert chars["C"] == 6 * d - 4 * x1 + x2 - x01
        assert chars["eps0"] == (d ** 2 - 4 * d + x1) / 2
        assert chars["T"] == (44 * d - 12 * d ** 2 + d ** 3 + (3 * d - 24) * x1
                              + 4 * x2 - 2 * x01) / 6
    else:
        x3, x11, x001 = (Fraction(table[k]) for k in ["xi3", "xi11", "xi001"])
        assert chars["mu0"] == (-5 * d + d ** 2 + x1) / 2
        assert chars["chi_C"] == -60 * d + x001 + 10 * x01 + 55 * x1 - 4 * x11 - 20 * x2 + 3 * x3
        assert chars["q"] == Fraction(1, 4) * (
            -295 * d + Fraction(355, 6) * d ** 2 - 5 * d ** 3 + Fraction(1, 6) * d ** 4
            + 2 * x001 + (25 - Fraction(4, 3) * d) * x01 + (200 - 25 * d + d ** 2) * x1
            + Fraction(1, 2) * x1 ** 2 - 7 * x11 + (-55 + Fraction(8, 3) * d) * x2 + 6 * x3)


class TestPipelines:
    def test_preset_into_threefold(self):
        code, preset_out, _ = run(["preset", "veronese-p3"])
        assert code == 0
        code, out, _ = run(["threefold", "--json"], stdin_text=preset_out)
        assert code == 0
        result = json.loads(out)
        chars = result["characters"]
        assert chars["mu0"] == "20" and chars["t"] == "20"
        assert chars["gamma"] == "20" and chars["q"] == "5"
        assert chars["s_t"] == "40" and chars["chi_C"] == "-20"
        assert chars["m3"] == "4"
        assert all(c["passed"] for c in result["diagnostics"])

    def test_json_round_trips_exactly(self):
        code, out, _ = run(["surface", "--json"], stdin_text=ROMAN_DOC)
        assert code == 0
        result = json.loads(out)
        echoed = result["input"]["chern_data"]
        assert {k: Fraction(v) for k, v in echoed.items()} == {
            "d": 4, "xi1": 6, "xi2": 9, "xi01": 3,
        }
        assert Fraction(result["characters"]["eps0"]) == 3
        assert Fraction(result["characters"]["chi_double_curve"]) == 4

    def test_human_readable_table(self):
        code, out, _ = run(["surface"], stdin_text=ROMAN_DOC)
        assert code == 0
        assert "eps0" in out and "diagnostics:" in out

    def test_symbolic_surface_output(self):
        code, out, _ = run(
            ["surface", "--json"],
            stdin_text='{"kind":"surface","chern_data":"symbolic"}',
        )
        assert code == 0
        chars = json.loads(out)["characters"]
        assert chars["C"] == "6*d - xi01 - 4*xi1 + xi2"

    def test_input_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(ROMAN_DOC)
        code, out, _ = run(["surface", "--input", str(path)])
        assert code == 0

    def test_undecodable_input_file_is_2(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(["surface", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n")

    def test_missing_input_file_is_2(self, tmp_path):
        path = tmp_path / "absent.json"
        code, out, err = run(["surface", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"

    def test_kind_command_mismatch(self):
        code, _, err = run(["threefold"], stdin_text=ROMAN_DOC)
        assert code == 2 and "kind" in err


class TestInvert:
    def test_surface(self):
        doc = '{"kind":"surface","characters":{"d":"4","eps0":"3","C":"6","T":"1"}}'
        code, out, _ = run(["invert", "--kind", "surface", "--json"], stdin_text=doc)
        assert code == 0
        table = json.loads(out)["chern_data"]
        assert table == {"d": "4", "xi1": "6", "xi2": "9", "xi01": "3"}

    def test_threefold(self):
        doc = json.dumps(
            {"kind": "threefold", "characters": {
                "d": "8", "mu0": "20", "t": "20", "q": "5",
                "s_t": "40", "gamma": "20", "chi_C": "-20"}}
        )
        code, out, _ = run(["invert", "--kind", "threefold", "--json"], stdin_text=doc)
        assert code == 0
        table = json.loads(out)["chern_data"]
        assert table["xi3"] == "64" and table["xi001"] == "4"

    def test_missing_character(self):
        doc = '{"kind":"surface","characters":{"d":"4"}}'
        code, _, err = run(["invert", "--kind", "surface"], stdin_text=doc)
        assert code == 2 and "missing keys" in err

    def test_duplicate_character(self):
        doc = '{"kind":"surface","characters":{"d":"4","eps0":"3","C":"6","T":"1","T":"2"}}'
        code, _, err = run(["invert", "--kind", "surface"], stdin_text=doc)
        assert code == 2 and "duplicate key 'T'" in err


class TestVerify:
    def test_all_suites_pass(self):
        code, out, _ = run(["verify", "--suite", "all"])
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_default_suite_matches_golden(self):
        code, out, _ = run(["verify"])
        assert code == 0
        assert out == GOLDEN_VERIFY.read_text(encoding="utf-8")

    def test_tables_suite(self):
        code, out, _ = run(["verify", "--suite", "tables"])
        assert code == 0 and "tables/golden" in out

    def test_json_mode(self):
        code, out, _ = run(["verify", "--suite", "surface", "--json"])
        assert code == 0
        checks = json.loads(out)
        assert checks and all(c["passed"] for c in checks)


@pytest.mark.parametrize(
    "preset, command, golden",
    [
        (["veronese-p3"], "threefold", "veronese_p3_threefold.json"),
        (["roman-surface"], "surface", "roman_surface.json"),
        (["smooth-threefold", "--degree", "1000000000000"], "threefold",
         "smooth_threefold_1e12.json"),
    ],
)
def test_numeric_json_matches_golden(preset, command, golden):
    """`charclass preset ... | charclass <kind> --json`, byte for byte."""
    code, doc, _ = run(["preset", *preset])
    assert code == 0
    code, out, _ = run([command, "--json"], stdin_text=doc)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["surface", "threefold"])
def test_symbolic_json_matches_golden(kind):
    """`charclass <kind> --json` on the symbolic table, byte for byte: the only
    golden that pins how fractional coefficients print in a character table."""
    doc = json.dumps({"kind": kind, "chern_data": "symbolic"})
    code, out, _ = run([kind, "--json"], stdin_text=doc)
    assert code == 0
    assert out == (GOLDEN / f"symbolic_{kind}.json").read_text(encoding="utf-8")


class TestDerive:
    def test_triple_point_polynomial(self):
        code, out, _ = run(["derive", "--kind", "surface", "--character", "T", "--json"])
        assert code == 0
        doc = json.loads(out)
        # equals (44d - 12d^2 + d^3 + (3d-24)xi1 + 4xi2 - 2xi01)/6
        from charclass.algebra import parse, degree_symbol, xi_scalar

        d, x1, x2, x01 = (degree_symbol(), xi_scalar((1,)), xi_scalar((2,)), xi_scalar((0, 1)))
        expected = (44 * d - 12 * d ** 2 + d ** 3 + (3 * d - 24) * x1 + 4 * x2 - 2 * x01) / 6
        assert parse(doc["polynomial"]) == expected
        assert doc["provenance"]

    def test_threefold_character(self):
        code, out, _ = run(["derive", "--kind", "threefold", "--character", "K_dot_S"])
        assert code == 0 and "K_dot_S = " in out

    def test_degree_is_d_for_both_kinds(self):
        for kind in ["surface", "threefold"]:
            code, out, _ = run(["derive", "--kind", kind, "--character", "d", "--json"])
            assert code == 0
            doc = json.loads(out)
            assert (doc["character"], doc["polynomial"]) == ("d", "d")
        code, out, _ = run(["derive", "--kind", "surface", "--character", "mu0"])
        assert code == 0 and out.startswith("mu0 = d\n")

    def test_unknown_character_runs_no_pipeline(self, monkeypatch):
        monkeypatch.setattr(threefold, "threefold_characters", None)
        code, _, err = run(["derive", "--kind", "threefold", "--character", "T"])
        assert code == 2 and err.startswith("error: unknown character 'T' for kind 'threefold'")

    def test_unknown_character(self):
        code, _, err = run(["derive", "--kind", "surface", "--character", "nope"])
        assert code == 2 and "unknown character" in err

    def test_every_character_has_provenance(self):
        # a character without provenance would make `derive` fail with a KeyError
        assert SURFACE_PROVENANCE.keys() == set(surface.SurfaceCharacters._fields)
        assert THREEFOLD_PROVENANCE.keys() == set(threefold.ThreefoldCharacters._fields)


class TestPreset:
    def test_listing(self):
        code, out, _ = run(["preset"])
        assert code == 0
        for name in ["roman-surface", "veronese-p3", "smooth-surface", "smooth-threefold"]:
            assert name in out

    def test_smooth_with_degree(self):
        code, out, _ = run(["preset", "smooth-surface", "--degree", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["chern_data"]["xi1"] == "-5"

    def test_degree_required(self):
        code, _, err = run(["preset", "smooth-surface"])
        assert code == 2 and "--degree" in err

    def test_input_checks_run_before_the_engine(self, monkeypatch):
        def broken(*args):
            raise ValueError("engine fault")

        monkeypatch.setattr(presets, "hypersurface_xi", broken)
        code, out, err = run(["preset", "smooth-surface"])
        assert (code, out, err) == (2, "", "error: preset 'smooth-surface' needs --degree\n")
        # with the checks passed, a ValueError of the engine is the engine's
        code, out, err = run(["preset", "smooth-surface", "--degree", "3"])
        assert (code, out, err) == (3, "", "internal error: ValueError: engine fault\n")

    @pytest.mark.parametrize("preset, kind", [("smooth-surface", "surface"),
                                               ("smooth-threefold", "threefold")])
    def test_degree_bound(self, preset, kind):
        """Every degree `preset` accepts prints a document its kind accepts."""
        code, doc, _ = run(["preset", preset, "--degree", str(10 ** MAX_DEGREE_DIGITS - 1)])
        assert code == 0
        code, out, err = run([kind], stdin_text=doc)
        assert code == 0, err
        for degree in [0, -3, 10 ** MAX_DEGREE_DIGITS, 10 ** 1100]:
            code, out, err = run(["preset", preset, "--degree", str(degree)])
            assert (code, out) == (2, "")
            assert err == ("error: --degree must be a positive integer of at most "
                           f"{MAX_DEGREE_DIGITS} digits\n")

    def test_unknown(self):
        code, _, err = run(["preset", "moebius"])
        assert code == 2 and "unknown preset" in err

    def test_degree_for_a_fixed_preset_is_2(self):
        code, out, err = run(["preset", "roman-surface", "--degree", "3"])
        assert (code, out) == (2, "")
        assert err == "error: preset 'roman-surface' does not take a degree\n"


class TestExitCodes:
    def test_parse_error_is_2(self):
        code, _, err = run(["surface"], stdin_text="not json")
        assert code == 2 and "error:" in err

    def test_verification_failure_is_1(self):
        # non-geometric input: xi1 odd makes the double-curve degree a half
        # integer, which the integrality diagnostics flag
        doc = '{"kind":"surface","chern_data":{"d":"4","xi1":"7","xi2":"9","xi01":"3"}}'
        code, out, _ = run(["surface"], stdin_text=doc)
        assert code == 1
        assert "integrality" in out

    def test_bad_flag_is_2(self):
        code, _, _ = run(["surface", "--bogus"])
        assert code == 2

    @pytest.mark.parametrize(
        "fault",
        [RingMismatchError, NonUnitSeriesError, IncompleteSubstitutionError,
         TruncationError, TableMissError, ExponentOverflowError],
    )
    def test_engine_fault_is_3(self, monkeypatch, fault):
        def broken(ctx):
            raise fault("engine fault")

        monkeypatch.setattr(surface, "surface_characters", broken)
        code, _, err = run(["surface"], stdin_text=ROMAN_DOC)
        assert code == 3
        assert err.startswith("internal error:") and "engine fault" in err

    def test_foreign_variable_in_a_gysin_map_is_3(self, monkeypatch):
        # a target-ring class integrated on the source is an engine bug
        monkeypatch.setattr(surface, "surface_characters",
                            lambda ctx: ctx.integrate(atom(TARGET_HYPERPLANE_VAR)))
        code, _, err = run(["surface"], stdin_text=ROMAN_DOC)
        assert code == 3
        assert err == ("internal error: RingMismatchError: "
                       "variable a does not belong to this ring\n")

    def test_chern_monomial_missing_from_a_gysin_table_is_3(self, monkeypatch):
        # a push table without the image a class needs is an engine bug
        monkeypatch.setattr(surface, "surface_characters",
                            lambda ctx: _gysin_push(atom(source_chern(1)), {}, 3))
        code, _, err = run(["surface"], stdin_text=ROMAN_DOC)
        assert code == 3
        assert err == ("internal error: RingMismatchError: "
                       "no pushforward image for Chern monomial (1,)\n")

    @pytest.mark.parametrize("fault", [KeyError, TypeError, ValueError, ZeroDivisionError,
                                       AttributeError, OSError])
    def test_unexpected_exception_is_3(self, monkeypatch, fault):
        # a bug of any other type is still the engine's, never a verification failure
        def broken(ctx):
            raise fault("engine fault")

        monkeypatch.setattr(surface, "surface_characters", broken)
        code, out, err = run(["surface"], stdin_text=ROMAN_DOC)
        assert (code, out) == (3, "")
        assert err == f"internal error: {fault.__name__}: {fault('engine fault')}\n"

    def test_missing_catalogue_is_3(self, monkeypatch, tmp_path):
        # the catalogue ships with the package: failing to read it is no input fault
        monkeypatch.setattr(tables, "_DATA_FILE", str(tmp_path / "absent.tab"))
        monkeypatch.setattr(tables, "_REGISTRY", None)
        monkeypatch.setattr(tables, "_SERIES", {})
        code, out, err = run(["verify", "--suite", "tables"])
        assert (code, out) == (3, "")
        assert err.startswith("internal error: FileNotFoundError: [Errno 2]")


# a large output breaks while it is printed, a small one at the final flush
@pytest.mark.parametrize("argv", [["verify", "--json"], ["preset", "roman-surface"]])
def test_closed_stdout_exits_141_quietly(argv):
    # a reader that stops early, as in `charclass verify --json | head -1`
    src = str(Path(charclass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "charclass", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("module", ["charclass", "charclass.cli"])
def test_python_m_entry_point(module):
    src = str(Path(charclass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "--suite", "tables"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "36/36 checks passed"


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = str(Path(charclass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import charclass.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_benchmark_spans_resolve_every_traced_name():
    # perfbench/spans.py wraps engine functions by name, so deleting or
    # renaming one must fail the tests, not only the benchmark's self-test
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = threefold.critical_surface_calculus
    tracer = spans.Tracer()
    with tracer:  # charclass.cli is imported above, so every traced module is loaded
        threefold.verify_threefold_identities(make_context(3, 4, SYMBOLIC))
    assert threefold.critical_surface_calculus is original
    called = spans.aggregate(tracer.records())["functions"]
    assert {"threefold.threefold_characters", "threefold.threefold_basic",
            "threefold.elementary_characters", "threefold.critical_surface_calculus",
            "threefold.double_locus_calculus", "threefold.canonical_dot_critical",
            "threefold.threefold_invert"} <= set(called)


INTERN_FIRST = """
import sys
from charclass import algebra
from charclass.cli import run_command

# every variable the pipelines use, interned in reverse canonical order
names = ["c1", "c2", "c3", "s0", "s1", "s2", "s01", "s3", "s11", "s001", "at", "a",
         "d", "xi1", "xi2", "xi01", "xi3", "xi11", "xi001"]
for name in reversed(names):
    algebra.parse(name, kappa=1)
for k in [3, 2, 1]:
    algebra.atom(algebra.source_chern(k))
argv = sys.argv[1:]
stdin = None
if argv[0] == "pipe":
    import io
    preset = io.StringIO()
    run_command(["preset", *argv[2:]], stdout=preset)
    argv, stdin = [argv[1], "--json"], io.StringIO(preset.getvalue())
sys.exit(run_command(argv, stdin=stdin))
"""


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify", "--suite", "all"], "verify_all.txt"),
        (["pipe", "threefold", "veronese-p3"], "veronese_p3_threefold.json"),
        (["pipe", "surface", "roman-surface"], "roman_surface.json"),
        (["pipe", "threefold", "smooth-threefold", "--degree", "1000000000000"],
         "smooth_threefold_1e12.json"),
    ],
)
def test_output_does_not_depend_on_interning_order(argv, golden):
    src = str(Path(charclass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", INTERN_FIRST, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
