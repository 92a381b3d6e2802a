"""The classical formulas, as report rows over any exact scalars.

The result types of the two pipelines, the inversion formulas and the rows
of the verification reports (relations, birational invariants, closed
forms, round trips, integrality and parity) live here, apart from the
engine: nothing is imported from :mod:`charclass.algebra`.  Each row works
on the pipeline's symbolic characters (scalar polynomials) and on plain
exact numbers (``int`` and ``Fraction``) alike, so the engine's reports and
the compiled numeric path of :mod:`charclass.forms` run the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .report import Check, identities, integrality

# the keys of a degree table, in the order the rows below read them
SURFACE_KEYS = ("d", "xi1", "xi2", "xi01")
THREEFOLD_KEYS = ("d", "xi1", "xi2", "xi01", "xi3", "xi11", "xi001")


class SurfaceCharacters(NamedTuple):
    """The nine characters plus the two Euler characteristics behind them.

    ``mu0`` degree, ``mu1`` rank, ``mu2`` class, ``kappa_cusps`` cusps of a
    generic plane projection, ``eps0``/``eps1`` degree and rank of the double
    curve, ``rho`` class of immersion of the double curve, ``C`` crosscaps,
    ``T`` triple points.  Each value is an exact scalar: a scalar polynomial
    from the pipeline, or an ``int`` or ``Fraction``.
    """

    mu0: object
    mu1: object
    mu2: object
    kappa_cusps: object
    eps0: object
    eps1: object
    rho: object
    C: object
    T: object
    chi_critical_curve: object
    chi_double_curve: object

    def as_dict(self) -> dict:
        return self._asdict()


class ThreefoldCharacters(NamedTuple):
    """Basic, elementary and derived characters of a singular 3-fold."""

    d: object
    mu0: object
    t: object
    q: object
    s_t: object
    gamma: object
    chi_C: object
    m1: object
    m2: object
    m3: object
    K_dot_S: object
    D_swallowtail: object
    B_plus_D: object
    total_polar: object

    def as_dict(self) -> dict:
        return self._asdict()


def surface_invert(d, eps0, C, T) -> tuple:
    """Solve the degree table from (d, eps0, C, T).

    Exact inversion of the degree/crosscap/triple-point formulas; returns
    (xi1, xi2, xi01) as computed from the arguments: plain exact numbers for
    plain numbers, scalar polynomials for polynomials.
    """
    xi1 = d * (4 - d) + 2 * eps0
    xi2 = d * (d - 4) ** 2 + (16 - 3 * d) * eps0 + 3 * T - C
    xi01 = d * (d ** 2 - 4 * d + 6) + (8 - 3 * d) * eps0 + 3 * T - 2 * C
    return xi1, xi2, xi01


def threefold_invert(d, mu0, t, q, s_t, gamma, chi_C) -> tuple:
    """Chern degrees of the normalization from the seven basic characters.

    Exact evaluation of the inversion polynomials; returns (xi1, xi2, xi01,
    xi3, xi11, xi001) as computed from the arguments: plain exact numbers
    for plain numbers, scalar polynomials for polynomials.
    """
    half = Fraction(1, 2)
    xi1 = 5 * d - d ** 2 + 2 * mu0
    xi2 = 25 * d - 10 * d ** 2 + d ** 3 + (20 - 3 * d) * mu0 + 3 * t - gamma
    xi01 = 10 * d - 5 * d ** 2 + d ** 3 + (10 - 3 * d) * mu0 + 3 * t - 2 * gamma
    xi3 = (
        125 * d - 75 * d ** 2 + 15 * d ** 3 - d ** 4
        + (150 - 45 * d + 4 * d ** 2 - 2 * mu0) * mu0
        + 4 * q - half * s_t + (45 - 4 * d) * t + (half * d - 10) * gamma - chi_C
    )
    xi11 = (
        50 * d - 35 * d ** 2 + 10 * d ** 3 - d ** 4
        + (70 - 30 * d + 4 * d ** 2 - 2 * mu0) * mu0
        + 4 * q + (30 - 4 * d) * t - 5 * gamma - 2 * chi_C
    )
    xi001 = (
        10 * d - 10 * d ** 2 + 5 * d ** 3 - d ** 4
        + (20 - 15 * d + 4 * d ** 2 - 2 * mu0) * mu0
        + 4 * q + 3 * half * s_t + (15 - 4 * d) * t + (10 - 3 * half * d) * gamma
        - 4 * chi_C
    )
    return xi1, xi2, xi01, xi3, xi11, xi001


def surface_rows(v: SurfaceCharacters, xi) -> list:
    """The five classical relations, the Riemann-Hurwitz line of the
    pipeline, the birational invariants, the round trip through
    :func:`surface_invert` and the closed forms, on the characters ``v`` of
    the table ``xi`` = (d, xi1, xi2, xi01)."""
    d, x1, x2, x01 = xi
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
    return checks


def surface_integrality(v: SurfaceCharacters) -> list:
    """Integrality rows of a numeric table's surface characters (exact numbers)."""
    values = v._asdict()
    return (integrality("surface/integrality", values,
                        ["C", "T", "eps0", "mu1", "mu2", "kappa_cusps"], True)
            + integrality("surface/integrality", values, ["rho", "eps1"], False))


def threefold_rows(v: ThreefoldCharacters, xi) -> list:
    """The closed forms and the round trip through :func:`threefold_invert`,
    on the characters ``v`` of the table ``xi`` = (d, xi1, xi2, xi01, xi3,
    xi11, xi001)."""
    d, x1, x2, x01, x3, x11, x001 = xi
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)

    checks = identities("threefold/closed-form", [
        ("mu0", v.mu0, half * (-5 * d + d ** 2 + x1)),
        ("t", v.t,
         third * (35 * d - Fraction(15, 2) * d ** 2 + half * d ** 3 - x01 - 15 * x1
                  + Fraction(3, 2) * d * x1 + 2 * x2)),
        ("gamma", v.gamma, 10 * d - x01 - 5 * x1 + x2),
        ("q", v.q,
         quarter * (-295 * d + Fraction(355, 6) * d ** 2 - 5 * d ** 3 + Fraction(1, 6) * d ** 4
                    + 2 * x001 + (25 - Fraction(4, 3) * d) * x01
                    + (200 - 25 * d + d ** 2) * x1 + half * x1 ** 2 - 7 * x11
                    + (-55 + Fraction(8, 3) * d) * x2 + 6 * x3)),
        ("s_t", v.s_t,
         -120 * d + 10 * d ** 2 + 2 * x001 + (20 - d) * x01 + (90 - 5 * d) * x1
         - 6 * x11 + (d - 30) * x2 + 4 * x3),
        ("chi_C", v.chi_C,
         -60 * d + x001 + 10 * x01 + 55 * x1 - 4 * x11 - 20 * x2 + 3 * x3),
        ("m1", v.m1, 4 * d - x1),
        ("m1/elementary", v.m1, d * (d - 1) - 2 * v.mu0),
        ("m2/elementary", v.m2, d * (d - 1) ** 2 + (4 - 3 * d) * v.mu0 + 3 * v.t - 2 * v.gamma),
        ("m3/elementary", v.m3,
         d * (d - 1) ** 3 + (-6 + 9 * d - 4 * d ** 2 + 2 * v.mu0) * v.mu0 - 4 * v.q
         - Fraction(3, 2) * v.s_t + (4 * d - 9) * v.t + (Fraction(3, 2) * d - 14) * v.gamma
         + 4 * v.chi_C),
        ("K_dot_S", v.K_dot_S, -10 * x1 + x11 + 5 * x2 - x3),
        ("K_dot_S/characters", v.K_dot_S, half * v.s_t - half * d * v.gamma - v.chi_C),
    ])

    # inversion round trip: characters back to the Chern degrees
    inverted = threefold_invert(d, v.mu0, v.t, v.q, v.s_t, v.gamma, v.chi_C)
    checks += identities("threefold/roundtrip", zip(
        ("xi1", "xi2", "xi01", "xi3", "xi11", "xi001"), inverted, (x1, x2, x01, x3, x11, x001)))
    return checks


def threefold_integrality(v: ThreefoldCharacters) -> list:
    """Integrality and parity rows of a numeric table's 3-fold characters."""
    checks = integrality("threefold/integrality", v._asdict(),
                         ["d", "mu0", "t", "q", "s_t", "gamma", "m1", "m2", "m3",
                          "D_swallowtail", "B_plus_D", "total_polar"], True)
    # an exact rational x is an even integer exactly when x % 2 == 0
    checks.append(Check(name="threefold/parity/chi_C-even", passed=v.chi_C % 2 == 0,
                        detail=f"value {v.chi_C}"))
    return checks
