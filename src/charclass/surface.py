"""Numerical characters of surfaces in 3-space with ordinary singularities.

Given the degree table of the normalization f: M^2 -> P^3, the nine classical
characters are computed through the universal-class pipeline (evaluate the
locus classes, integrate), never from transcribed closed forms; the closed
forms only appear in the verification report, where the engine output is
cross-checked against them.  A generic projection g = pr . f to the plane
supplies the rank, class and cusp counts; the Euler characteristics of the
critical curve and the double curve come from the truncated Euler series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import tables
from .algebra import TARGET_HYPERPLANE_VAR, hyperplane_coefficient, lift, render
from .context import SYMBOLIC, MapContext, Scalar, make_context
from .report import Check, identities, integrality, numbers


class SurfaceCharacters(NamedTuple):
    """The nine characters plus the two Euler characteristics behind them.

    ``mu0`` degree, ``mu1`` rank, ``mu2`` class, ``kappa_cusps`` cusps of a
    generic plane projection, ``eps0``/``eps1`` degree and rank of the double
    curve, ``rho`` class of immersion of the double curve, ``C`` crosscaps,
    ``T`` triple points.
    """

    mu0: Scalar
    mu1: Scalar
    mu2: Scalar
    kappa_cusps: Scalar
    eps0: Scalar
    eps1: Scalar
    rho: Scalar
    C: Scalar
    T: Scalar
    chi_critical_curve: Scalar
    chi_double_curve: Scalar

    def as_dict(self) -> dict:
        return self._asdict()


def _require_surface(ctx: MapContext) -> None:
    if (ctx.source_dim, ctx.target_dim) != (2, 3):
        raise ValueError(
            f"surface characters need a (2, 3) context, got "
            f"({ctx.source_dim}, {ctx.target_dim})"
        )


def surface_characters(ctx: MapContext) -> SurfaceCharacters:
    """Compute all surface characters through the class pipeline.

    The result is kept in the context's memo, so the verification report
    reuses the table the caller already computed.
    """
    _require_surface(ctx)
    return ctx.memo("surface_characters", lambda: _surface_pipeline(ctx))


def _surface_pipeline(ctx: MapContext) -> SurfaceCharacters:
    tp = tables.thom_polynomial
    sm = tables.ssm_series
    proj = ctx.project()
    at = ctx.hyperplane()

    double_locus = ctx.evaluate(tp("A0^2", 1))      # class of the double curve in M
    contour = proj.evaluate(tp("A1", 0))            # critical curve of the plane projection

    crosscaps = ctx.integrate(ctx.evaluate(tp("A1", 1)))
    eps0 = ctx.integrate(double_locus * at) / 2
    triple = ctx.integrate(ctx.evaluate(tp("A0^3", 1))) / 3
    mu1 = ctx.integrate(contour * at)
    kappa_cusps = ctx.integrate(proj.evaluate(tp("A2", 0)))
    chi_contour = proj.weighted_euler(sm("A1", 0))
    # Riemann-Hurwitz for the contour curve mapped to a pencil of lines
    mu2 = 2 * mu1 - chi_contour - kappa_cusps
    # the double and critical curves meet transversally, crosscaps included
    rho = ctx.integrate(double_locus * contour) - crosscaps
    chi_double = ctx.weighted_euler(sm("image_double", 1))
    # resolving the triple points adds 2T; the polar map has degree eps0
    eps1 = 2 * eps0 - (chi_double + 2 * triple)

    return SurfaceCharacters(
        mu0=ctx.xi_scalar(()),
        mu1=mu1,
        mu2=mu2,
        kappa_cusps=kappa_cusps,
        eps0=eps0,
        eps1=eps1,
        rho=rho,
        C=crosscaps,
        T=triple,
        chi_critical_curve=chi_contour,
        chi_double_curve=chi_double,
    )


def surface_invert(d, eps0, C, T) -> tuple:
    """Solve the degree table from (d, eps0, C, T).

    Exact inversion of the degree/crosscap/triple-point formulas on plain
    numbers or scalar polynomials as passed; returns (xi1, xi2, xi01) lifted
    to scalar polynomials.
    """
    xi1 = d * (4 - d) + 2 * eps0
    xi2 = d * (d - 4) ** 2 + (16 - 3 * d) * eps0 + 3 * T - C
    xi01 = d * (d ** 2 - 4 * d + 6) + (8 - 3 * d) * eps0 + 3 * T - 2 * C
    return lift(xi1), lift(xi2), lift(xi01)


def verify_surface_relations(ctx: MapContext) -> list:
    """The five classical relations plus the birational-invariant checks.

    Characters are engine-computed; each relation reports the exact
    difference of its two sides.  Numeric contexts run those lines on plain
    exact numbers and additionally get integrality checks, which read the
    pipeline's own values; every context gets the round trip through
    :func:`surface_invert`.
    """
    _require_surface(ctx)
    ch = v = surface_characters(ctx)
    xi = [ctx.xi_scalar(index) for index in ((1,), (2,), (0, 1))]
    if ctx.is_numeric():
        v, xi = ch._make(numbers(ch)), numbers(xi)
    x1, x2, x01 = xi
    d = v.mu0
    checks = identities("surface/relation", [
        ("i: d(d-1) = mu1 + 2 eps0", d * (d - 1), v.mu1 + 2 * v.eps0),
        ("ii: mu1(d-2) = kappa + rho", v.mu1 * (d - 2), v.kappa_cusps + v.rho),
        ("iii: eps0(d-2) = rho + 3T", v.eps0 * (d - 2), v.rho + 3 * v.T),
        ("iv: 2rho - 2eps1 = C", 2 * v.rho - 2 * v.eps1, v.C),
        ("v: mu2 + 2C = mu1 + kappa", v.mu2 + 2 * v.C, v.mu1 + v.kappa_cusps),
    ])
    checks += identities("surface/pipeline", [
        ("riemann-hurwitz: mu2 + kappa = 2 mu1 - chi(S(g))",
         v.mu2 + v.kappa_cusps, 2 * v.mu1 - v.chi_critical_curve),
    ])

    # birational invariants from the elementary characters
    omega = v.mu2 - 6 * v.mu1 + 9 * v.mu0 + v.C + 1
    zeuthen_segre = v.mu2 - 2 * v.mu1 + 3 * v.mu0 - 4
    checks += identities("surface/invariant", [
        ("omega = xi2 + 1", omega, x2 + 1),
        ("zeuthen_segre = xi01 - 4", zeuthen_segre, x01 - 4),
        ("omega + zeuthen_segre = xi2 + xi01 - 3", omega + zeuthen_segre, x2 + x01 - 3),
    ])

    # round trip through the inversion formulas
    inverted = surface_invert(d, v.eps0, v.C, v.T)
    checks += identities("surface/roundtrip", zip(("xi1", "xi2", "xi01"), inverted, (x1, x2, x01)))

    # engine output against the classical closed forms
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    checks += identities("surface/closed-form", [
        ("C", v.C, 6 * d - 4 * x1 + x2 - x01),
        ("T", v.T, sixth * (44 * d - 12 * d ** 2 + d ** 3 + (3 * d - 24) * x1 + 4 * x2 - 2 * x01)),
        ("eps0", v.eps0, half * (d ** 2 - 4 * d + x1)),
        ("mu1", v.mu1, 3 * d - x1),
        ("mu1/elementary", v.mu1, d * (d - 1) - 2 * v.eps0),
        ("kappa_cusps", v.kappa_cusps, 12 * d - 9 * x1 + 2 * x2 - x01),
        ("kappa_cusps/elementary", v.kappa_cusps, d * (d - 1) * (d - 2) + (6 - 3 * d) * v.eps0 + 3 * v.T),
        ("mu2", v.mu2, 3 * d - 2 * x1 + x01),
        ("mu2/elementary", v.mu2, d * (d - 1) ** 2 + (4 - 3 * d) * v.eps0 + 3 * v.T - 2 * v.C),
        ("chi_critical_curve", v.chi_critical_curve, -9 * d + 9 * x1 - 2 * x2),
        ("chi_double_curve", v.chi_double_curve,
         third * (7 * d + 6 * d ** 2 - d ** 3 - Fraction(5, 2) * x01 - 12 * x1
                  + Fraction(7, 2) * x2)),
        ("chi_double_curve/elementary", v.chi_double_curve, (4 - d) * v.eps0 + v.T + half * v.C),
        ("rho/elementary", v.rho, (d - 2) * v.eps0 - 3 * v.T),
        ("eps1", v.eps1,
         3 * d ** 2 - 21 * d + (13 - d) * x1 + Fraction(3, 2) * x01 - Fraction(5, 2) * x2),
        ("eps1/elementary", v.eps1, (d - 2) * v.eps0 - 3 * v.T - half * v.C),
    ])
    if ctx.is_numeric():
        values = ch._asdict()
        checks += integrality("surface/integrality", values,
                              ["C", "T", "eps0", "mu1", "mu2", "kappa_cusps"], True)
        checks += integrality("surface/integrality", values, ["rho", "eps1"], False)
    return checks


def surface_typo_diagnostics() -> list:
    """Documented inconsistencies in the classical transcription.

    Two printed degree-table lines contradict the elementary closed forms
    they sit next to; the engine follows the closed forms.  Each diagnostic
    asserts that the engine output matches the self-consistent form AND that
    it differs from the inconsistent line in exactly the known way, so any
    drift in either direction fails the suite.
    """
    ctx = make_context(2, 3, SYMBOLIC)
    ch = surface_characters(ctx)
    d = ctx.xi_scalar(())
    x1 = ctx.xi_scalar((1,))
    x2 = ctx.xi_scalar((2,))
    x01 = ctx.xi_scalar((0, 1))

    # rho: the transcribed line swaps the xi2 and xi01 coefficients.
    printed_rho = -18 * d + 3 * d ** 2 + (11 - d) * x1 - 2 * x01 + x2
    delta = ch.rho - printed_rho
    checks = identities("surface/typo", [
        ("rho-agrees-with-elementary-form", ch.rho, (d - 2) * ch.eps0 - 3 * ch.T),
    ])
    checks.append(
        Check(
            name="surface/typo/rho-line-swaps-xi2-xi01",
            passed=(delta == 3 * (x01 - x2)) and not delta.is_zero(),
            residual=render(delta),
            detail="engine minus transcribed line must be exactly 3*(xi01 - xi2)",
        )
    )

    # s01: the transcribed coefficient has a stray hyperplane symbol where
    # the degree d belongs; the crosscap count fixes the correct value.
    engine_coeff = hyperplane_coefficient(ctx.landweber_novikov((0, 1)), TARGET_HYPERPLANE_VAR, 3)
    corrected = 6 * d - 4 * x1 + x2 - x01
    line_rest = -4 * x1 + x2 - x01  # the well-defined part of the transcribed line
    checks.append(
        Check(
            name="surface/typo/s01-coefficient-equals-crosscap-count",
            passed=(engine_coeff - corrected).is_zero() and (engine_coeff - ch.C).is_zero(),
            residual=render(engine_coeff - corrected),
        )
    )
    checks.append(
        Check(
            name="surface/typo/s01-line-misprints-6d",
            passed=(engine_coeff - line_rest == 6 * d),
            residual=render(engine_coeff - line_rest),
            detail="difference against the transcribed line must be exactly 6*d",
        )
    )
    return checks
