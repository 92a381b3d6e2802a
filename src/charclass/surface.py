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

from . import tables
from .algebra import TARGET_HYPERPLANE_VAR, hyperplane_coefficient
from .context import SYMBOLIC, MapContext, make_context, require_dims
from .formulas import (  # the inversion is traced here, under its engine name
    SurfaceCharacters, surface_integrality, surface_invert, surface_rows,
)
from .report import Check, identities, numbers


def surface_characters(ctx: MapContext) -> SurfaceCharacters:
    """Compute all surface characters through the class pipeline.

    The result is kept in the context's memo, so the verification report
    reuses the table the caller already computed.
    """
    require_dims(ctx, (2, 3), "surface")
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


def verify_surface_relations(ctx: MapContext) -> list:
    """The five classical relations plus the birational-invariant checks.

    Characters are engine-computed; each relation reports the exact
    difference of its two sides.  Numeric contexts run those lines on plain
    exact numbers (:func:`~charclass.report.numbers`) and additionally get
    integrality checks on the same numbers; every context gets the round
    trip through :func:`surface_invert`.
    """
    require_dims(ctx, (2, 3), "surface")
    v = surface_characters(ctx)
    xi = [ctx.xi_scalar(index) for index in ((), (1,), (2,), (0, 1))]
    if ctx.is_numeric():
        v, xi = v._make(numbers(v)), numbers(xi)
    checks = surface_rows(v, xi)
    if ctx.is_numeric():
        checks += surface_integrality(v)
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
            passed=delta == 3 * (x01 - x2) and bool(delta),
            residual=str(delta),
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
            passed=not (engine_coeff - corrected) and not (engine_coeff - ch.C),
            residual=str(engine_coeff - corrected),
        )
    )
    checks.append(
        Check(
            name="surface/typo/s01-line-misprints-6d",
            passed=(engine_coeff - line_rest == 6 * d),
            residual=str(engine_coeff - line_rest),
            detail="difference against the transcribed line must be exactly 6*d",
        )
    )
    return checks
