"""Surface characters: presets, symbolic closed forms, relations, inversion."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from charclass.algebra import degree_symbol, xi_scalar
from charclass.context import SYMBOLIC, make_context
from charclass.presets import roman_surface_context, smooth_surface_context
from charclass.report import all_passed
from charclass.surface import (
    surface_characters,
    surface_invert,
    surface_typo_diagnostics,
    verify_surface_relations,
)

from conftest import non_integral_tables

D = degree_symbol()
X1, X2, X01 = xi_scalar((1,)), xi_scalar((2,)), xi_scalar((0, 1))


@pytest.fixture(scope="module")
def roman():
    return surface_characters(roman_surface_context())


@pytest.fixture(scope="module")
def symbolic():
    return surface_characters(make_context(2, 3, SYMBOLIC))


class TestRomanSurface:
    """The Steiner quartic: 3 double lines through a triple point, 6 pinch
    points, class 3; all frozen from classical projective geometry."""

    def test_characters(self, roman):
        assert roman.mu0 == 4
        assert roman.eps0 == 3
        assert roman.C == 6
        assert roman.T == 1
        assert roman.mu1 == 6
        assert roman.kappa_cusps == 9
        assert roman.mu2 == 3
        assert roman.rho == 3
        assert roman.eps1 == 0

    def test_euler_characteristics(self, roman):
        assert roman.chi_double_curve == 4  # three concurrent lines
        assert roman.chi_critical_curve == 0

    def test_relations(self):
        assert all_passed(verify_surface_relations(roman_surface_context()))


class TestSmoothSurface:
    def test_quintic_values(self):
        # smooth-surface closed forms: d(d-1), d(d-1)(d-2), d(d-1)^2 at d=5
        ch = surface_characters(smooth_surface_context(5))
        assert ch.eps0 == 0 and ch.C == 0 and ch.T == 0
        assert ch.mu1 == 20
        assert ch.kappa_cusps == 60
        assert ch.mu2 == 80

    def test_symbolic_degree(self):
        ch = surface_characters(smooth_surface_context())
        d = D
        assert ch.eps0.is_zero() and ch.C.is_zero() and ch.T.is_zero()
        assert ch.mu1 == d * (d - 1)
        assert ch.kappa_cusps == d * (d - 1) * (d - 2)
        assert ch.mu2 == d * (d - 1) ** 2

    def test_relations(self):
        assert all_passed(verify_surface_relations(smooth_surface_context(5)))
        assert all_passed(verify_surface_relations(smooth_surface_context()))


class TestSymbolicClosedForms:
    def test_crosscaps(self, symbolic):
        assert symbolic.C == 6 * D - 4 * X1 + X2 - X01

    def test_triple_points(self, symbolic):
        expected = (44 * D - 12 * D ** 2 + D ** 3 + (3 * D - 24) * X1 + 4 * X2 - 2 * X01) / 6
        assert symbolic.T == expected

    def test_double_curve_degree(self, symbolic):
        assert symbolic.eps0 == (D ** 2 - 4 * D + X1) / 2

    def test_rank_and_cusps(self, symbolic):
        assert symbolic.mu1 == 3 * D - X1
        assert symbolic.kappa_cusps == 12 * D - 9 * X1 + 2 * X2 - X01

    def test_class(self, symbolic):
        assert symbolic.mu2 == 3 * D - 2 * X1 + X01

    def test_euler_characteristics(self, symbolic):
        assert symbolic.chi_critical_curve == -9 * D + 9 * X1 - 2 * X2
        expected = (7 * D + 6 * D ** 2 - D ** 3 - Fraction(5, 2) * X01
                    - 12 * X1 + Fraction(7, 2) * X2) / 3
        assert symbolic.chi_double_curve == expected

    def test_rho_engine_form(self, symbolic):
        assert symbolic.rho == 3 * D ** 2 - 18 * D + (11 - D) * X1 - 2 * X2 + X01

    def test_eps1(self, symbolic):
        expected = (3 * D ** 2 - 21 * D + (13 - D) * X1
                    + Fraction(3, 2) * X01 - Fraction(5, 2) * X2)
        assert symbolic.eps1 == expected

    def test_riemann_hurwitz_by_construction(self, symbolic):
        lhs = symbolic.mu2 + symbolic.kappa_cusps
        assert lhs == 2 * symbolic.mu1 - symbolic.chi_critical_curve


class TestInversion:
    def test_roman_roundtrip(self):
        assert surface_invert(4, 3, 6, 1) == (6, 9, 3)

    def test_smooth_closed_forms(self):
        d = D
        xi1, xi2, xi01 = surface_invert(d, 0, 0, 0)
        assert xi1 == d * (4 - d)
        assert xi2 == d * (d - 4) ** 2
        assert xi01 == d * (d ** 2 - 4 * d + 6)

    def test_symbolic_atoms(self):
        d, e, c, t = (degree_symbol(), xi_scalar((9,)), xi_scalar((8,)), xi_scalar((7,)))
        xi1, _, _ = surface_invert(d, e, c, t)
        assert xi1 == d * (4 - d) + 2 * e

    def test_full_roundtrip_symbolic(self, symbolic):
        xi1, xi2, xi01 = surface_invert(symbolic.mu0, symbolic.eps0, symbolic.C, symbolic.T)
        assert xi1 == X1 and xi2 == X2 and xi01 == X01


class TestRelationsReport:
    def test_symbolic_all_pass(self):
        checks = verify_surface_relations(make_context(2, 3, SYMBOLIC))
        assert checks and all_passed(checks)

    def test_relation_names_present(self):
        names = {c.name for c in verify_surface_relations(make_context(2, 3, SYMBOLIC))}
        for tag in ["i:", "ii:", "iii:", "iv:", "v:"]:
            assert any(tag in n for n in names)
        assert any("omega" in n for n in names)
        assert any("roundtrip" in n for n in names)

    def test_integrality_runs_on_numeric(self):
        names = {c.name for c in verify_surface_relations(roman_surface_context())}
        assert any("integrality" in n for n in names)

    def test_failing_identity_reports_got_minus_want(self):
        # every residual in the goldens is 0, so the sign is pinned here
        ctx = roman_surface_context()
        ch = surface_characters(roman_surface_context())
        ctx.memo("surface_characters", lambda: ch._replace(C=ch.C + 1))
        checks = {c.name: c for c in verify_surface_relations(ctx)}
        assert str(checks["surface/closed-form/C"]) == "FAIL surface/closed-form/C residual=1"
        assert checks["surface/relation/iv: 2rho - 2eps1 = C"].residual == "-1"
        assert checks["surface/integrality/C"] == ("surface/integrality/C", True, None, "value 7")

    @settings(max_examples=25, deadline=None)
    @given(non_integral_tables(2))
    def test_rational_tables_pass_every_identity(self, xi):
        # the plain-number closed forms must stay exact (no float, no
        # rounding) on tables that are not integral
        families = {"relation", "pipeline", "invariant", "roundtrip", "closed-form"}
        checks = verify_surface_relations(make_context(2, 3, xi))
        rows = [c for c in checks if c.name.split("/")[1] in families]
        assert {c.name.split("/")[1] for c in rows} == families
        assert all(c.passed and c.residual == "0" for c in rows), [str(c) for c in rows]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            surface_characters(make_context(3, 4, SYMBOLIC))


class TestTypoDiagnostics:
    def test_all_documented(self):
        checks = surface_typo_diagnostics()
        assert all_passed(checks)
        names = {c.name for c in checks}
        assert any("rho" in n for n in names)
        assert any("s01" in n for n in names)
