"""Threefold characters: presets, inversion, projection chain, double locus."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from charclass.algebra import (
    SOURCE_HYPERPLANE_VAR,
    atom,
    degree_symbol,
    source_chern,
    xi_scalar,
)
from charclass.context import SYMBOLIC, make_context
from charclass.presets import smooth_threefold_context, veronese_threefold_context
from charclass.report import all_passed
from charclass.threefold import (
    _gysin_push,
    canonical_dot_critical,
    critical_surface_calculus,
    double_locus_calculus,
    elementary_characters,
    threefold_basic,
    threefold_characters,
    threefold_invert,
    threefold_typo_diagnostics,
    verify_threefold_identities,
)

from conftest import non_integral_tables

AT = atom(SOURCE_HYPERPLANE_VAR)
C1 = atom(source_chern(1))
C2 = atom(source_chern(2))
D = degree_symbol()
X1, X2, X01 = xi_scalar((1,)), xi_scalar((2,)), xi_scalar((0, 1))
X3, X11, X001 = xi_scalar((3,)), xi_scalar((1, 1)), xi_scalar((0, 0, 1))


@pytest.fixture(scope="module")
def veronese():
    return threefold_characters(veronese_threefold_context())


@pytest.fixture(scope="module")
def symbolic():
    return threefold_characters(make_context(3, 4, SYMBOLIC))


class TestVeroneseThreefold:
    def test_basic_characters(self, veronese):
        assert veronese.mu0 == 20
        assert veronese.t == 20
        assert veronese.gamma == 20
        assert veronese.q == 5
        assert veronese.s_t == 40
        assert veronese.chi_C == -20

    def test_elementary_characters(self, veronese):
        # m1: both printed forms give 16; m2: closed form
        # d(d-1)^2 + (4-3d)mu0 + 3t - 2gamma = 392 - 400 + 60 - 40 = 12
        assert veronese.m1 == 16
        assert veronese.m2 == 12
        assert veronese.m3 == 4

    def test_canonical_intersection(self, veronese):
        # -160 + 24 + 160 - 64, cross-checked by s_t/2 - d*gamma/2 - chi_C
        assert veronese.K_dot_S == -40

    def test_sub_counts(self, veronese):
        # frozen from the direct cohomology computation on P^3 with at = 2h:
        # tp(A3)(g) = 80 h^3, cusp count of h gives 168, the final pencil 240
        assert veronese.D_swallowtail == 80
        assert veronese.B_plus_D == 168
        assert veronese.total_polar == 240
        # decomposition A + B + C + D with A = m3 leaves C = 68 >= 0
        C = veronese.total_polar - veronese.m3 - veronese.B_plus_D
        assert C == 68

    def test_identities(self):
        assert all_passed(verify_threefold_identities(veronese_threefold_context()))


class TestSmoothThreefold:
    def test_symbolic_degeneration(self):
        ch = threefold_characters(smooth_threefold_context())
        for name in ["mu0", "t", "q", "s_t", "gamma", "chi_C"]:
            assert ch.as_dict()[name].is_zero(), name
        assert ch.m1 == D * (D - 1)
        assert ch.m2 == D * (D - 1) ** 2
        assert ch.m3 == D * (D - 1) ** 3
        assert ch.K_dot_S.is_zero()

    def test_swallowtail_count(self):
        # classical count of swallowtail points of a generic projection
        ch = threefold_characters(smooth_threefold_context())
        assert ch.D_swallowtail == D * (D - 1) * (D - 2) * (D - 3)

    def test_numeric_identities(self):
        assert all_passed(verify_threefold_identities(smooth_threefold_context(3)))


class TestSymbolicClosedForms:
    def test_basic_rows(self, symbolic):
        half = Fraction(1, 2)
        assert symbolic.mu0 == half * (-5 * D + D ** 2 + X1)
        assert symbolic.gamma == 10 * D - X01 - 5 * X1 + X2
        expected_t = (35 * D - Fraction(15, 2) * D ** 2 + half * D ** 3
                      - X01 - 15 * X1 + Fraction(3, 2) * D * X1 + 2 * X2) / 3
        assert symbolic.t == expected_t
        expected_st = (-120 * D + 10 * D ** 2 + 2 * X001 + (20 - D) * X01
                       + (90 - 5 * D) * X1 - 6 * X11 + (D - 30) * X2 + 4 * X3)
        assert symbolic.s_t == expected_st
        expected_chi = -60 * D + X001 + 10 * X01 + 55 * X1 - 4 * X11 - 20 * X2 + 3 * X3
        assert symbolic.chi_C == expected_chi

    def test_quadruple_row(self, symbolic):
        expected_q = (
            -295 * D + Fraction(355, 6) * D ** 2 - 5 * D ** 3 + Fraction(1, 6) * D ** 4
            + 2 * X001 + (25 - Fraction(4, 3) * D) * X01
            + (200 - 25 * D + D ** 2) * X1 + Fraction(1, 2) * X1 ** 2
            - 7 * X11 + (-55 + Fraction(8, 3) * D) * X2 + 6 * X3
        ) / 4
        assert symbolic.q == expected_q

    def test_elementary_forms(self, symbolic):
        assert symbolic.m1 == 4 * D - X1
        # re-derived through the pushforward table:
        # int (28at^2 - 15at*c1 + 2c1^2) at - int (22at^2 - 12at*c1 + 2c1^2 - c2) at
        assert symbolic.m2 == 6 * D - 3 * X1 + X01
        assert symbolic.m3 == 4 * D - X001 + 2 * X01 - 3 * X1

    def test_canonical_intersection(self, symbolic):
        assert symbolic.K_dot_S == -10 * X1 + X11 + 5 * X2 - X3
        rhs = (symbolic.s_t - D * symbolic.gamma) / 2 - symbolic.chi_C
        assert symbolic.K_dot_S == rhs


class TestInversion:
    def test_veronese_values(self):
        # the xi3 spot check: 1000 - 4800 + 7680 - 4096 + 120 + 20 - 20
        # + 260 - 120 + 20 = 64
        got = threefold_invert(8, 20, 20, 5, 40, 20, -20)
        assert got == (16, 32, 12, 64, 24, 4)

    def test_smooth_adjunction_values(self):
        # oracle: c(TM) = (1+at)^5/(1+d at)
        d = D
        xi1, xi2, xi01, xi3, xi11, xi001 = threefold_invert(d, 0, 0, 0, 0, 0, 0)
        assert xi1 == d * (5 - d)
        assert xi2 == d * (5 - d) ** 2
        assert xi01 == d * (10 - 5 * d + d ** 2)
        assert xi3 == d * (5 - d) ** 3
        assert xi11 == d * (5 - d) * (10 - 5 * d + d ** 2)
        assert xi001 == d * (10 - 10 * d + 5 * d ** 2 - d ** 3)

    def test_roundtrip_symbolic(self, symbolic):
        inverted = threefold_invert(
            symbolic.d, symbolic.mu0, symbolic.t, symbolic.q,
            symbolic.s_t, symbolic.gamma, symbolic.chi_C,
        )
        assert inverted == (X1, X2, X01, X3, X11, X001)


class TestCriticalSurface:
    def test_pushforward_table_symbolic(self):
        table = critical_surface_calculus(make_context(3, 4, SYMBOLIC).project())
        g1 = 4 * AT - C1
        assert table[()] == g1
        assert table[(1,)] == -g1 ** 2 + g1 * C1
        assert table[(0, 1)] == g1 ** 3 - g1 ** 2 * C1 + g1 * C2
        assert table[(2,)] == g1 ** 3 - 2 * g1 ** 2 * C1 + g1 * C1 ** 2

    def test_degree_of_critical_surface(self):
        # equals m1 = 4d - xi1 = 16 on the Veronese threefold, which also
        # matches d(d-1) - 2*mu0 = 56 - 40
        ctx = veronese_threefold_context()
        table = critical_surface_calculus(ctx.project())
        assert ctx.integrate(_gysin_push(1 + 0 * AT, table, 3) * AT ** 2) == 16

    def test_push_respects_hyperplane_factors(self):
        table = critical_surface_calculus(make_context(3, 4, SYMBOLIC).project())
        y = atom(source_chern(2), cap=2)
        pushed = _gysin_push((AT * y).truncated(2), table, 3)
        assert pushed == (AT * _gysin_push(y, table, 3)).truncated(3)

    def test_requires_projected_context(self):
        with pytest.raises(ValueError):
            critical_surface_calculus(make_context(3, 4, SYMBOLIC))


class TestDoubleLocus:
    def test_fundamental_class_symbolic(self):
        # s0 pullback minus c1(f): d*at - (5*at - c1)
        data = double_locus_calculus(make_context(3, 4, SYMBOLIC))
        assert data.fundamental == (D - 5) * AT + C1

    def test_degree_on_veronese(self):
        # the restriction of f is 2-to-1 onto the double surface: 2*mu0 = 40
        ctx = veronese_threefold_context()
        data = double_locus_calculus(ctx)
        assert ctx.integrate(data.fundamental * AT ** 2) == 40

    def test_smooth_hypersurface_vanishes(self):
        from charclass.algebra import substitute
        from conftest import hypersurface_tangent_images

        ctx = smooth_threefold_context()
        data = double_locus_calculus(ctx)
        images = hypersurface_tangent_images(3)
        for value in data:
            assert substitute(value, images).is_zero()
        # degrees against the right hyperplane powers: phi_1.at^2, phi_c1.at,
        # phi_c1^2 and phi_c2
        for value, power in zip(data, (2, 1, 0, 0), strict=True):
            assert ctx.integrate(value * AT ** power).is_zero()

    def test_consistency_identities_symbolic(self):
        checks = verify_threefold_identities(make_context(3, 4, SYMBOLIC))
        double_checks = [c for c in checks if "double-locus" in c.name]
        assert len(double_checks) == 3 and all_passed(double_checks)


class TestReports:
    def test_symbolic_all_pass(self):
        checks = verify_threefold_identities(make_context(3, 4, SYMBOLIC))
        assert checks and all_passed(checks)

    def test_typos(self):
        checks = threefold_typo_diagnostics()
        assert all_passed(checks)
        assert any("m2" in c.name for c in checks)

    def test_wrong_q_fails_exactly_its_rows(self):
        # the numeric report runs its closed forms on plain numbers; a wrong
        # character must still fail the rows that read it, with the residual
        ctx = veronese_threefold_context()
        ch = threefold_characters(veronese_threefold_context())
        ctx.memo("threefold_characters", lambda: ch._replace(q=ch.q + 1))
        failed = [str(c) for c in verify_threefold_identities(ctx) if not c.passed]
        assert failed == [
            "FAIL threefold/closed-form/q residual=1",
            "FAIL threefold/closed-form/m3/elementary residual=4",
            "FAIL threefold/roundtrip/xi3 residual=4",
            "FAIL threefold/roundtrip/xi11 residual=4",
            "FAIL threefold/roundtrip/xi001 residual=4",
        ]

    @settings(max_examples=25, deadline=None)
    @given(non_integral_tables(3))
    def test_rational_tables_pass_every_identity(self, xi):
        # the plain-number closed forms must stay exact (no float, no
        # rounding) on tables that are not integral
        families = {"closed-form", "roundtrip", "double-locus"}
        checks = verify_threefold_identities(make_context(3, 4, xi))
        rows = [c for c in checks if c.name.split("/")[1] in families]
        assert {c.name.split("/")[1] for c in rows} == families
        assert all(c.passed and c.residual == "0" for c in rows), [str(c) for c in rows]

    def test_parity_check_present_on_numeric(self):
        checks = verify_threefold_identities(veronese_threefold_context())
        assert any("parity" in c.name for c in checks)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            threefold_basic(make_context(2, 3, SYMBOLIC))
        with pytest.raises(ValueError):
            canonical_dot_critical(make_context(2, 3, SYMBOLIC))
        with pytest.raises(ValueError):
            elementary_characters(make_context(2, 3, SYMBOLIC))
