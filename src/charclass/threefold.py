"""Numerical characters of 3-folds in 4-space with ordinary singularities.

The basic characters (degree of the double surface, triple curve, quadruple
and stationary points, crosscap curve and its Euler characteristic) come
straight from the universal classes applied to f: M^3 -> P^4.  The
elementary characters of the image (rank, first class, class) need the
nested projection chain

    g: M -> P^3,   h: S_1 -> P^2,   h': S(h) -> P^1,

where S_1 is the critical surface of g and S(h) the critical curve of h;
classes on those loci are pushed back to M through small Gysin tables, dicts
from the Chern monomials of a locus to their images one level up.
The double-point surface is handled through the resolution map phi into M,
whose pushed-forward Chern classes are solved from the triangular system
relating them to the multiple-point classes of f.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import tables
from .algebra import (
    GradedPolynomial,
    RingMismatchError,
    SOURCE_HYPERPLANE_VAR,
    VarKind,
    atom,
    gysin_map,
    source_chern,
)
from .context import (
    SYMBOLIC, MapContext, Scalar, make_context, quotient_chern_classes, require_dims, shared,
)
from .formulas import (  # the inversion is traced here, under its engine name
    ThreefoldCharacters, threefold_integrality, threefold_invert, threefold_rows,
)
from .report import Check, identities, numbers


def _gysin_push(y: GradedPolynomial, table: Mapping, cap: int) -> GradedPolynomial:
    """Push a class along an inclusion via a table of Chern-monomial images.

    Hyperplane powers and scalar symbols pass through by the projection
    formula; the ``c`` variables of the sub-locus select the table entry.
    """
    def image(key, hyper, weight):
        if key not in table:
            raise RingMismatchError(f"no pushforward image for Chern monomial {key}")
        return table[key], hyper

    return gysin_map(y, VarKind.SOURCE_CHERN, SOURCE_HYPERPLANE_VAR, image,
                     target_var=SOURCE_HYPERPLANE_VAR, cap=cap)


def critical_surface_calculus(projected_ctx: MapContext) -> Mapping:
    """Gysin table from the critical surface's Chern monomials into the source ring.

    The entries follow from the self-intersection formula for the critical
    locus, whose class is the first quotient Chern class g1 of the projection.
    They depend on the dimensions alone, so one read-only table is built per
    (m, n) and shared by every context.
    """
    if projected_ctx.kappa != 0:
        raise ValueError("critical-surface calculus needs an equidimensional projection")

    def build():
        g1 = projected_ctx.quotient_chern()[0]
        c1 = atom(source_chern(1))
        c2 = atom(source_chern(2))
        return MappingProxyType({
            (): g1,
            (1,): -g1 ** 2 + g1 * c1,
            (0, 1): g1 ** 3 - g1 ** 2 * c1 + g1 * c2,
            (2,): g1 ** 3 - 2 * g1 ** 2 * c1 + g1 * c1 ** 2,
        })

    return shared(("critical_surface", projected_ctx.source_dim, projected_ctx.target_dim), build)


def _critical_surface_pushes(table: Mapping) -> tuple:
    """Images in M of c_1 and c_1^2 + c_2 of the critical surface's plane
    projection and of the pencil class on its critical curve."""
    # c_1, c_2 of the further projection of the critical surface to P^2:
    # plane tangent classes over the surface's own, truncated at weight 2
    c1h, c2h = quotient_chern_classes(2, 2)
    # Critical curve of the second projection, pushed down level by level.
    # The c1 variable plays two roles here: inside ``pencil_class`` it is the
    # curve's own tangent class (the table key), while inside the table
    # images it is c1 of the critical surface the curve sits on.
    c1_var = atom(source_chern(1))
    curve_table = {(): c1h, (1,): c1h * c1_var - c1h ** 2}
    pencil_class = 2 * atom(SOURCE_HYPERPLANE_VAR, cap=1) - c1_var
    return (_gysin_push(c1h, table, 3),
            _gysin_push(c1h ** 2 + c2h, table, 3),
            _gysin_push(_gysin_push(pencil_class, curve_table, 2), table, 3))


def threefold_basic(ctx: MapContext) -> tuple:
    """(mu0, t, gamma, q, s_t, chi_C) via the universal-class pipeline."""
    require_dims(ctx, (3, 4), "threefold")
    tp = tables.thom_polynomial
    at = ctx.hyperplane()
    mu0 = ctx.integrate(ctx.evaluate(tp("A0^2", 1)) * at ** 2) / 2
    t = ctx.integrate(ctx.evaluate(tp("A0^3", 1)) * at) / 3
    gamma = ctx.integrate(ctx.evaluate(tp("A1", 1)) * at)
    q = ctx.integrate(ctx.evaluate(tp("A0^4", 1))) / 4
    s_t = ctx.integrate(ctx.evaluate(tp("A0A1", 1)))
    chi_C = ctx.weighted_euler(tables.ssm_series("A1", 1))
    return mu0, t, gamma, q, s_t, chi_C


def elementary_characters(ctx: MapContext) -> tuple:
    """(m1, m2, m3, D_swallowtail, B_plus_D, total_polar).

    m1 and m2 run through the projection chain; m3 is evaluated from its
    closed form in the Chern degrees because the chain-level derivation
    would need the Euler series of the cusp curve at equal dimensions,
    which is not tabulated.  The polar sub-counts along the chain are
    returned so the decomposition of the final projection's critical points
    can be consistency-checked: D counts swallowtails of the first
    projection (assuming, as genericity provides, a smooth cusp curve),
    B + D the cusps of the second, and total_polar all critical points of
    the third.
    """
    require_dims(ctx, (3, 4), "threefold")
    tp = tables.thom_polynomial
    at = ctx.hyperplane()
    g = ctx.project()
    table = critical_surface_calculus(g)
    plane_c1, plane_c1_sq_c2, polar = shared(
        ("critical_surface_pushes", g.source_dim, g.target_dim),
        lambda: _critical_surface_pushes(table))

    m1 = ctx.integrate(g.evaluate(tp("A1", 0)) * at ** 2)

    cusp_class = g.evaluate(tp("A2", 0))
    m2 = ctx.integrate(plane_c1 * at) - ctx.integrate(cusp_class * at)

    d = ctx.xi_scalar(())
    m3 = 4 * d - ctx.xi_scalar((0, 0, 1)) + 2 * ctx.xi_scalar((0, 1)) - 3 * ctx.xi_scalar((1,))

    D_swallowtail = ctx.integrate(g.evaluate(tp("A3", 0)))
    B_plus_D = ctx.integrate(plane_c1_sq_c2)
    total_polar = ctx.integrate(polar)

    return m1, m2, m3, D_swallowtail, B_plus_D, total_polar


class DoubleLocusData(NamedTuple):
    """Pushed-forward classes of the resolved double-point surface.

    ``fundamental`` is the class of the double-point surface in the source;
    the Chern entries are the Gysin images of the resolution's tangent
    classes, solved from the multiple-point classes of f.
    """

    fundamental: GradedPolynomial
    first_chern: GradedPolynomial
    first_chern_square: GradedPolynomial
    second_chern: GradedPolynomial


def double_locus_calculus(ctx: MapContext) -> DoubleLocusData:
    """Solve the double-locus Gysin data from the multiple-point classes.

    The resolution phi of the double-point surface satisfies
    phi_*(1) = [double locus], and its higher pushed-forward classes enter
    the triple/quadruple/stationary-point classes of f through a triangular
    system: the stationary class gives the mixed entry directly, then the
    triple- and quadruple-point identities peel off the remaining two.
    """
    require_dims(ctx, (3, 4), "threefold")
    tp = tables.thom_polynomial
    double = ctx.evaluate(tp("A0^2", 1))
    triple = ctx.evaluate(tp("A0^3", 1))
    quadruple = ctx.evaluate(tp("A0^4", 1))
    stationary = ctx.evaluate(tp("A0A1", 1))

    s0 = double
    s1 = s0 ** 2 - 2 * triple
    s01 = stationary
    s2 = (6 * quadruple - s0 ** 3 + 3 * s0 * s1 - 2 * s01) / 2

    c1 = atom(source_chern(1))
    c2 = atom(source_chern(2))
    phi_1 = s0
    phi_c1 = c1 * phi_1 - s1
    phi_c1_sq = s2 - c1 ** 2 * phi_1 + 2 * c1 * phi_c1
    phi_c2 = c2 * phi_1 - c1 * phi_c1 + phi_c1_sq - s01
    return DoubleLocusData(
        fundamental=phi_1,
        first_chern=phi_c1,
        first_chern_square=phi_c1_sq,
        second_chern=phi_c2,
    )


def canonical_dot_critical(ctx: MapContext) -> Scalar:
    """Intersection of the canonical divisor with the crosscap curve.

    The top-weight part of minus the first source Chern class times the
    crosscap-curve class, integrated.
    """
    require_dims(ctx, (3, 4), "threefold")
    c1 = atom(source_chern(1))
    return ctx.integrate(-c1 * ctx.evaluate(tables.thom_polynomial("A1", 1)))


def threefold_characters(ctx: MapContext) -> ThreefoldCharacters:
    """All characters assembled in one pass, kept in the context's memo."""
    return ctx.memo("threefold_characters", lambda: _threefold_pipeline(ctx))


def _threefold_pipeline(ctx: MapContext) -> ThreefoldCharacters:
    mu0, t, gamma, q, s_t, chi_C = threefold_basic(ctx)
    m1, m2, m3, D_swallowtail, B_plus_D, total_polar = elementary_characters(ctx)
    return ThreefoldCharacters(
        d=ctx.xi_scalar(()),
        mu0=mu0,
        t=t,
        q=q,
        s_t=s_t,
        gamma=gamma,
        chi_C=chi_C,
        m1=m1,
        m2=m2,
        m3=m3,
        K_dot_S=canonical_dot_critical(ctx),
        D_swallowtail=D_swallowtail,
        B_plus_D=B_plus_D,
        total_polar=total_polar,
    )


def _xi7(ctx: MapContext) -> tuple:
    return tuple(ctx.xi_scalar(i) for i in ((), (1,), (2,), (0, 1), (3,), (1, 1), (0, 0, 1)))


def verify_threefold_identities(ctx: MapContext) -> list:
    """Engine-vs-closed-form checks, round trips and structural identities.

    On a numeric table the closed forms, the round trip and the integrality
    and parity checks run on plain exact numbers
    (:func:`~charclass.report.numbers`); the double-locus identities stay
    polynomial identities in the source ring.
    """
    require_dims(ctx, (3, 4), "threefold")
    v = threefold_characters(ctx)
    xi = _xi7(ctx)
    if ctx.is_numeric():
        v, xi = v._make(numbers(v)), numbers(xi)
    checks = threefold_rows(v, xi) + double_locus_rows(ctx)
    if ctx.is_numeric():
        checks += threefold_integrality(v)
    return checks


def double_locus_rows(ctx: MapContext) -> list:
    """The solved double-locus classes rebuild the multiple-point classes
    they came from: identities in the source ring of ``ctx``."""
    require_dims(ctx, (3, 4), "threefold")
    data = double_locus_calculus(ctx)
    c1 = atom(source_chern(1))
    c2 = atom(source_chern(2))
    s0 = data.fundamental
    s1 = c1 * s0 - data.first_chern
    s2 = c1 ** 2 * s0 - 2 * c1 * data.first_chern + data.first_chern_square
    s01 = c2 * s0 - c1 * data.first_chern + data.first_chern_square - data.second_chern
    return identities("threefold/double-locus", [
        ("double-points", s0 ** 2 - s1, 2 * ctx.evaluate(tables.thom_polynomial("A0^3", 1))),
        ("triple-points", (s0 ** 3 - 3 * s0 * s1 + 2 * s2 + 2 * s01) / 2,
         3 * ctx.evaluate(tables.thom_polynomial("A0^4", 1))),
        ("crosscaps", s01, ctx.evaluate(tables.thom_polynomial("A0A1", 1))),
    ])


def threefold_typo_diagnostics() -> list:
    """The documented sign slip in the transcribed first-class line.

    The printed degree-table line for m2 disagrees with the elementary
    closed form printed beside it; the engine derivation through the
    projection chain settles the sign.  The diagnostic pins the exact
    difference so any other drift fails.
    """
    ctx = make_context(3, 4, SYMBOLIC)
    ch = threefold_characters(ctx)
    d, x1, _, x01, _, _, _ = _xi7(ctx)
    engine_form = 6 * d - 3 * x1 + x01
    printed_line = 6 * d - 3 * x1 - x01
    agrees = ch.m2 - engine_form
    delta = ch.m2 - printed_line
    return [
        Check(
            name="threefold/typo/m2-engine-form",
            passed=not agrees,
            residual=str(agrees),
            detail="engine m2 must equal 6d - 3 xi1 + xi01",
        ),
        Check(
            name="threefold/typo/m2-line-flips-xi01-sign",
            passed=delta == 2 * x01 and bool(delta),
            residual=str(delta),
            detail="engine minus transcribed line must be exactly 2*xi01",
        ),
    ]
