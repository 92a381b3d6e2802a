"""Map contexts: quotient classes, Gysin maps, integration, projections."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import charclass
from charclass import context, tables
from charclass.algebra import (
    RingMismatchError,
    SOURCE_HYPERPLANE_VAR,
    TARGET_HYPERPLANE_VAR,
    AbstractClass,
    atom,
    chern_indices,
    constant,
    degree_symbol,
    hyperplane_coefficient,
    quotient_chern,
    source_chern,
    substitute,
    xi_scalar,
)
from charclass.context import (
    SYMBOLIC,
    TruncationError,
    make_context,
    quotient_chern_classes,
    source_chern_total,
    xi_label,
)
from charclass.threefold import _gysin_push, critical_surface_calculus
from charclass.presets import (
    roman_surface_context,
    smooth_surface_context,
    smooth_threefold_context,
    veronese_threefold_context,
)

from conftest import random_numeric_context, random_source_poly, random_target_poly

AT = atom(SOURCE_HYPERPLANE_VAR)
A = atom(TARGET_HYPERPLANE_VAR)
C1 = atom(source_chern(1))
C2 = atom(source_chern(2))
D = degree_symbol()

# Degree table of the Steiner quartic, derived from the conic re-embedding of
# the plane: tangent classes 3h and 3h^2, hyperplane pullback 2h, h^2 of
# degree 1, so the entries are 4, 3*2, 9*1, 3*1.
ROMAN = {"d": 4, "xi1": 6, "xi2": 9, "xi01": 3}


class TestMakeContext:
    def test_roman_surface(self):
        ctx = make_context(2, 3, ROMAN)
        assert ctx.kappa == 1 and ctx.is_numeric()
        assert ctx.xi_scalar("xi1") == 6

    def test_veronese_threefold(self):
        ctx = veronese_threefold_context()
        assert [str(ctx.xi_scalar(k)) for k in
                ["d", "xi1", "xi2", "xi3", "xi01", "xi11", "xi001"]] == [
            "8", "16", "32", "64", "12", "24", "4"]

    def test_symbolic(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert not ctx.is_numeric()
        assert ctx.xi_scalar(()) == D
        assert ctx.xi_scalar((0, 1)) == xi_scalar((0, 1))

    def test_missing_entry(self):
        with pytest.raises(ValueError, match="missing entries: xi01, xi2"):
            make_context(2, 3, {"d": 4, "xi1": 6})

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_context(3, 3, SYMBOLIC)
        with pytest.raises(ValueError):
            make_context(3, 2, SYMBOLIC)

    def test_extra_entry_rejected(self):
        with pytest.raises(ValueError, match="beyond weight"):
            make_context(2, 3, dict(ROMAN, xi3=1))


class TestQuotientChern:
    def test_surface_classes(self):
        cf = make_context(2, 3, ROMAN).quotient_chern()
        assert cf[0] == 4 * AT - C1
        assert cf[1] == 6 * AT ** 2 - 4 * AT * C1 + C1 ** 2 - C2

    def test_threefold_first_class(self):
        # oracle: weight-1 part of (1 + at)^5 / (1 + c1 + ...)
        cf = veronese_threefold_context().quotient_chern()
        assert cf[0] == 5 * AT - C1

    def test_identity_quotient_vanishes(self):
        # a source whose tangent series matches the pulled-back target one:
        # substituting c_k(TM) = binom(n+1, k) at^k kills every quotient class
        ctx = make_context(2, 3, SYMBOLIC)
        images = {
            source_chern(1): 4 * AT,
            source_chern(2): 6 * AT ** 2,
            SOURCE_HYPERPLANE_VAR: AT,
        }
        for c in ctx.quotient_chern():
            assert substitute(c, images, cap=2).is_zero()

    def test_homogeneous(self):
        for k, c in enumerate(make_context(3, 4, SYMBOLIC).quotient_chern(), start=1):
            assert c.is_homogeneous(k)


class TestGysinMaps:
    def test_pushforward_of_one(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.pushforward(constant(1)) == D * A

    def test_pushforward_of_chern(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.pushforward(C1) == xi_scalar((1,)) * A ** 2

    def test_projection_formula_single(self):
        ctx = make_context(2, 3, SYMBOLIC)
        x = C1
        assert ctx.pushforward(AT * x) == A * ctx.pushforward(x)

    def test_projection_formula_random(self):
        rng = random.Random(23)
        for _ in range(100):
            ctx = random_numeric_context(rng)
            x = random_source_poly(rng)
            y = random_target_poly(rng)
            lhs = ctx.pushforward(ctx.pullback(y) * x)
            rhs = (y * ctx.pushforward(x)).truncated(3)
            assert lhs == rhs

    def test_pullback(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.pullback(A) == AT
        assert ctx.pullback(A ** 3).is_zero()
        assert ctx.pullback(D * A) == D * AT

    def test_degree_compatibility(self):
        rng = random.Random(29)
        for _ in range(100):
            ctx = random_numeric_context(rng)
            x = random_source_poly(rng)
            push = ctx.pushforward(x)
            top = push.coefficient(((TARGET_HYPERPLANE_VAR, 3),))
            assert ctx.integrate(x) == top

    @pytest.mark.parametrize(
        "call",
        [
            lambda: make_context(2, 3, SYMBOLIC).pushforward(atom(quotient_chern(1))),
            lambda: make_context(2, 3, SYMBOLIC).pushforward(A),
            lambda: make_context(2, 3, SYMBOLIC).integrate(A),
            lambda: make_context(2, 3, SYMBOLIC).pullback(AT),
            lambda: _gysin_push(
                A, critical_surface_calculus(make_context(3, 4, SYMBOLIC).project()), 3),
            lambda: hyperplane_coefficient(C1, TARGET_HYPERPLANE_VAR, 1),
        ],
        ids=["pushforward-quotient-c1", "pushforward-a", "integrate-a", "pullback-at",
             "critical-push-a", "target-coefficient-c1"],
    )
    def test_foreign_variable_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestLandweberNovikov:
    def test_surface_classes(self):
        ctx = make_context(2, 3, SYMBOLIC)
        x1, x2, x01 = (xi_scalar(i) for i in [(1,), (2,), (0, 1)])
        assert ctx.landweber_novikov((1,)) == (4 * D - x1) * A ** 2
        assert ctx.landweber_novikov((2,)) == (16 * D - 8 * x1 + x2) * A ** 3
        assert ctx.landweber_novikov((0, 1)) == (6 * D - 4 * x1 + x2 - x01) * A ** 3

    def test_empty_index_is_degree(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.landweber_novikov(()) == D * A
        # after projecting to equal dimensions the class is the scalar degree
        assert ctx.project().landweber_novikov(()) == D

    def test_weight_overflow(self):
        ctx = make_context(2, 3, SYMBOLIC)
        with pytest.raises(ValueError):
            ctx.landweber_novikov((3,))


class TestEvaluate:
    def test_crosscap_class_on_surface(self):
        ctx = make_context(2, 3, SYMBOLIC)
        value = ctx.evaluate(tables.thom_polynomial("A1", 1))
        assert value == 6 * AT ** 2 - 4 * AT * C1 + C1 ** 2 - C2

    def test_double_point_class_on_smooth_threefold(self):
        # the class vanishes identically once the adjunction tangent classes
        # are substituted in: c1(f) reduces to d*at, the pullback of s0
        from charclass.presets import hypersurface_tangent_images

        ctx = smooth_threefold_context()  # symbolic degree
        double = ctx.evaluate(tables.thom_polynomial("A0^2", 1))
        assert substitute(double, hypersurface_tangent_images(3)).is_zero()

    def test_triple_points_roman(self):
        # classical count: the Steiner quartic has a single triple point
        ctx = roman_surface_context()
        assert ctx.integrate(ctx.evaluate(tables.thom_polynomial("A0^3", 1))) == 3

    def test_kappa_mismatch(self):
        ctx = make_context(2, 3, SYMBOLIC)
        with pytest.raises(RingMismatchError):
            ctx.evaluate(tables.thom_polynomial("A1", 0))


class TestIntegrate:
    def test_top_hyperplane_power(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.integrate(AT ** 2) == D

    def test_second_chern(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.integrate(C2) == xi_scalar((0, 1))

    def test_threefold_mixed_monomial(self):
        ctx = make_context(3, 4, SYMBOLIC)
        assert ctx.integrate(C1 * AT ** 2) == xi_scalar((1,))

    def test_low_weight_contributes_zero(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.integrate(1 + AT + C1).is_zero()


class TestProjection:
    def test_surface_projection(self):
        proj = make_context(2, 3, SYMBOLIC).project()
        assert (proj.source_dim, proj.target_dim) == (2, 2)
        assert proj.quotient_chern()[0] == 3 * AT - C1

    def test_threefold_projection(self):
        proj = make_context(3, 4, SYMBOLIC).project()
        assert proj.quotient_chern()[0] == 4 * AT - C1

    def test_xi_table_unchanged(self):
        ctx = make_context(2, 3, SYMBOLIC)
        assert ctx.project().xi == ctx.xi

    def test_cannot_project_below_equal_dimensions(self):
        with pytest.raises(ValueError):
            make_context(2, 3, SYMBOLIC).project().project()

    def test_projection_preserves_integrals(self):
        ctx = roman_surface_context()
        x = C1 * AT
        assert ctx.integrate(x) == ctx.project().integrate(x)

    def test_projection_takes_the_validated_table_as_is(self, monkeypatch):
        ctx = veronese_threefold_context()

        def refuse(*args):
            raise AssertionError("the projection checked its table again")

        monkeypatch.setattr(context, "lift", refuse)
        monkeypatch.setattr(context, "_check_scalar", refuse)
        proj = ctx.project()
        monkeypatch.undo()
        assert (proj.source_dim, proj.target_dim) == (3, 3)
        assert all(proj.xi_scalar(i) is ctx.xi_scalar(i) for i in chern_indices(3))


class TestMemo:
    """Per-context memos: keyed on the catalogue entry; a context's values
    that read its degree table are never shared with another context."""

    @pytest.mark.parametrize("series_first", [False, True])
    def test_evaluate_keys_on_the_entry_object(self, series_first):
        # the locus class and the Euler series share name "A1" and kappa 1
        locus = tables.thom_polynomial("A1", 1)
        series = tables.ssm_series("A1", 1)
        assert (locus.name, locus.kappa) == (series.name, series.kappa)
        order = [series, locus] if series_first else [locus, series]
        ctx = make_context(3, 4, SYMBOLIC)
        values = {id(entry): ctx.evaluate(entry) for entry in order}
        assert values[id(locus)] != values[id(series)]
        for entry in order:
            assert values[id(entry)] == make_context(3, 4, SYMBOLIC).evaluate(entry)
            assert ctx.evaluate(entry) == values[id(entry)]

    def test_series_rows_are_single_objects(self):
        assert tables.ssm_series("A1", 1) is tables.ssm_series("A1", 1)
        assert tables.ssm_series("A1", 1) is not tables.thom_polynomial("A1", 1)

    def test_project_is_built_once(self):
        ctx = make_context(3, 4, SYMBOLIC)
        assert ctx.project() is ctx.project()
        assert ctx.project() is not make_context(3, 4, SYMBOLIC).project()

    def test_contexts_do_not_share_values(self):
        entry = tables.thom_polynomial("A0^3", 1)
        roman = roman_surface_context()
        smooth = smooth_surface_context(5)
        assert roman.integrate(roman.evaluate(entry)) == 3
        assert smooth.integrate(smooth.evaluate(entry)) == 0
        assert roman.integrate(roman.evaluate(entry)) == 3

    def test_character_tables_are_reused(self):
        from charclass.surface import surface_characters
        from charclass.threefold import threefold_characters

        surf = roman_surface_context()
        assert surface_characters(surf) is surface_characters(surf)
        fold = veronese_threefold_context()
        assert threefold_characters(fold) is threefold_characters(fold)
        assert threefold_characters(fold) == threefold_characters(veronese_threefold_context())

    @pytest.mark.parametrize("kind", ["surface", "threefold"])
    def test_memoised_context_is_freed_without_the_cycle_collector(self, kind):
        # a memoised value that referred back to its context would keep the
        # whole memo alive until the cyclic collector happened to run
        from charclass.surface import surface_characters, verify_surface_relations
        from charclass.threefold import threefold_characters, verify_threefold_identities

        gc.collect()
        gc.disable()
        try:
            if kind == "surface":
                ctx = roman_surface_context()
                surface_characters(ctx)
                verify_surface_relations(ctx)
            else:
                ctx = veronese_threefold_context()
                threefold_characters(ctx)
                verify_threefold_identities(ctx)
            refs = [weakref.ref(ctx), weakref.ref(ctx.project())]
            del ctx
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


SRC = str(Path(charclass.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"


def _run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _context(m: int, n: int, xi):
    """A context of f: M^m -> P^n; equal dimensions come from a projection."""
    return make_context(m, n + 1, xi).project() if n == m else make_context(m, n, xi)


SHARED_IN_REVERSE = """
import sys
from charclass.algebra import chern_indices
from charclass.cli import run_command
from charclass.context import SYMBOLIC, make_context
from charclass.threefold import critical_surface_calculus

# fill the process-wide memo from the dimensions the pipelines reach last
for m, n in [(3, 3), (2, 2), (3, 4), (2, 3)]:
    ctx = make_context(m, n + 1, SYMBOLIC).project() if n == m else make_context(m, n, SYMBOLIC)
    ctx.hyperplane()
    for index in chern_indices(m):
        ctx.landweber_novikov(index)
    if n == m:
        critical_surface_calculus(ctx)
argv = sys.argv[1:]
stdin = None
if argv[0] == "pipe":
    import io
    preset = io.StringIO()
    run_command(["preset", *argv[2:]], stdout=preset)
    argv, stdin = [argv[1], "--json"], io.StringIO(preset.getvalue())
sys.exit(run_command(argv, stdin=stdin))
"""


class TestSharedMemo:
    """Values of the dimensions alone, built once per process."""

    DIMS = [(2, 3), (2, 2), (2, 4), (3, 4), (3, 3)]

    @pytest.mark.parametrize("seed", [1, 2, None])  # None: the symbolic table
    def test_shared_values_equal_fresh_builds(self, seed):
        # same m with several n and same n with several m, so a key that
        # dropped either dimension would hand one of them a wrong value
        rng = random.Random(seed)
        for m, n in self.DIMS:
            table = SYMBOLIC if seed is None else {
                xi_label(i): rng.randint(-9, 9) for i in chern_indices(m)}
            ctx = _context(m, n, table)
            fresh = quotient_chern_classes(m, n)
            assert ctx.quotient_chern() == fresh
            at = ctx.hyperplane()
            assert (at, at.cap) == (atom(SOURCE_HYPERPLANE_VAR), m)
            total = source_chern_total(m)
            assert total == sum((atom(source_chern(k)) for k in range(1, m + 1)), constant(1))
            assert total.cap == m
            for index in chern_indices(m):
                monomial = constant(1).truncated(m)
                for k, e in enumerate(index, start=1):
                    monomial = monomial * fresh[k - 1] ** e
                assert ctx.landweber_novikov(index) == ctx.pushforward(monomial)
            if n == m:
                g1 = fresh[0]
                assert critical_surface_calculus(ctx) == {
                    (): g1,
                    (1,): -g1 ** 2 + g1 * C1,
                    (0, 1): g1 ** 3 - g1 ** 2 * C1 + g1 * C2,
                    (2,): g1 ** 3 - 2 * g1 ** 2 * C1 + g1 * C1 ** 2,
                }

    def test_one_object_per_key(self):
        ctx = make_context(3, 4, SYMBOLIC)
        other = veronese_threefold_context()
        assert ctx.hyperplane() is other.hyperplane()
        table = critical_surface_calculus(ctx.project())
        assert table is critical_surface_calculus(other.project())
        assert source_chern_total(3) is source_chern_total(3)
        with pytest.raises(TypeError):  # shared, so no caller may change it
            table[()] = constant(0)

    def test_import_builds_nothing(self):
        proc = _run_python("import charclass.cli; from charclass import context; "
                           "print(len(context._SHARED))")
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

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
    def test_output_does_not_depend_on_build_order(self, argv, golden):
        proc = _run_python(SHARED_IN_REVERSE, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")


class TestWeightedEuler:
    def test_critical_curve_of_projected_surface(self):
        proj = make_context(2, 3, SYMBOLIC).project()
        x1, x2 = xi_scalar((1,)), xi_scalar((2,))
        value = proj.weighted_euler(tables.ssm_series("A1", 0))
        assert value == -9 * D + 9 * x1 - 2 * x2

    def test_crosscap_curve_of_veronese(self):
        ctx = veronese_threefold_context()
        assert ctx.weighted_euler(tables.ssm_series("A1", 1)) == -20

    def test_double_curve_of_roman_surface(self):
        # oracle: three concurrent lines, chi = 3*2 - 2 = 4
        ctx = roman_surface_context()
        assert ctx.weighted_euler(tables.ssm_series("image_double", 1)) == 4

    def test_insufficient_validity_raises(self):
        short = AbstractClass(
            name="stub", kappa=1, codim=1,
            body=tables.thom_polynomial("A0^2", 1).body,
            valid_to_weight=1,
        )
        with pytest.raises(TruncationError):
            make_context(2, 3, SYMBOLIC).weighted_euler(short)


class TestSmoothSurfaceAdjunction:
    def test_quintic_degree_table(self):
        # adjunction oracle: c(TM) = (1+h)^4/(1+5h), entries -5, 5, 55
        ctx = smooth_surface_context(5)
        assert [str(ctx.xi_scalar(k)) for k in ["d", "xi1", "xi2", "xi01"]] == [
            "5", "-5", "5", "55"]

    def test_embedding_has_no_double_points(self):
        from charclass.presets import hypersurface_tangent_images

        ctx = smooth_surface_context()  # symbolic degree
        double = ctx.evaluate(tables.thom_polynomial("A0^2", 1))
        assert substitute(double, hypersurface_tangent_images(2)).is_zero()
        # every degree of the class vanishes as well
        assert ctx.integrate(double * AT).is_zero()
