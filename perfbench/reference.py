"""The benchmark's own answer key, independent of the engine.

Everything here is plain ``fractions.Fraction`` arithmetic written out by
hand from the classical closed forms: the characters of a surface in P^3 and
of a 3-fold in P^4 as polynomials in the Chern-degree table, the inversion
formulas that recover the table from the basic characters, and the
adjunction / Veronese tables of the built-in geometries.  Nothing imports
``charclass``: a benchmark op is checked against these values, so an engine
that returns a wrong number fails the op.

Symbolic engine output is checked by parsing its rendered text with
:func:`parse_polynomial` and evaluating it at rational points.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

SURFACE_KEYS = ("d", "xi1", "xi2", "xi01")
THREEFOLD_KEYS = ("d", "xi1", "xi2", "xi01", "xi3", "xi11", "xi001")
SURFACE_CHARACTER_KEYS = ("d", "eps0", "C", "T")
THREEFOLD_CHARACTER_KEYS = ("d", "mu0", "t", "q", "s_t", "gamma", "chi_C")

# Chern monomial of each table key, as exponents of (c1, c2, c3).
_KEY_EXPONENTS = {
    "d": (0, 0, 0),
    "xi1": (1, 0, 0),
    "xi2": (2, 0, 0),
    "xi01": (0, 1, 0),
    "xi3": (3, 0, 0),
    "xi11": (1, 1, 0),
    "xi001": (0, 0, 1),
}

# Classical values of the two Veronese-type presets.
VERONESE_VALUES = {"d": 8, "mu0": 20, "t": 20, "gamma": 20, "q": 5, "s_t": 40,
                   "chi_C": -20, "m3": 4}
ROMAN_VALUES = {"mu0": 4, "eps0": 3, "C": 6, "T": 1, "mu1": 6, "mu2": 3,
                "kappa_cusps": 9, "rho": 3, "eps1": 0, "chi_double_curve": 4}

HALF = Fraction(1, 2)


def keys_for(kind: str) -> tuple:
    return SURFACE_KEYS if kind == "surface" else THREEFOLD_KEYS


# ---------------------------------------------------------------------------
# characters from the Chern-degree table


def surface_characters(xi: dict) -> dict:
    """The eleven surface characters of f: M^2 -> P^3."""
    d, x1, x2, x01 = (Fraction(xi[k]) for k in SURFACE_KEYS)
    C = 6 * d - 4 * x1 + x2 - x01
    T = (44 * d - 12 * d ** 2 + d ** 3 + (3 * d - 24) * x1 + 4 * x2 - 2 * x01) / 6
    eps0 = (d ** 2 - 4 * d + x1) / 2
    return {
        "mu0": d,
        "mu1": 3 * d - x1,
        "mu2": 3 * d - 2 * x1 + x01,
        "kappa_cusps": 12 * d - 9 * x1 + 2 * x2 - x01,
        "eps0": eps0,
        "eps1": 3 * d ** 2 - 21 * d + (13 - d) * x1 + Fraction(3, 2) * x01 - Fraction(5, 2) * x2,
        # relation iii of the classical list: eps0 (d - 2) = rho + 3T
        "rho": (d - 2) * eps0 - 3 * T,
        "C": C,
        "T": T,
        "chi_critical_curve": -9 * d + 9 * x1 - 2 * x2,
        "chi_double_curve": (7 * d + 6 * d ** 2 - d ** 3 - Fraction(5, 2) * x01 - 12 * x1
                             + Fraction(7, 2) * x2) / 3,
    }


def threefold_characters(xi: dict) -> dict:
    """The fourteen 3-fold characters of f: M^3 -> P^4.

    ``D_swallowtail``, ``B_plus_D`` and ``total_polar`` are the degrees of
    the Thom polynomials along the projection chain M -> P^3 -> P^2 -> P^1.
    With h the hyperplane class and c = c(TM), the quotient classes of the
    first projection are q = (1+h)^4 / c; the swallowtail class is
    q1^3 + 3 q1 q2 + 2 q3, and integrating it gives the form below.  The
    other two push the plane and pencil classes of the critical surface
    (class q1 = 4h - c1) down by its self-intersection formula.
    """
    d, x1, x2, x01, x3, x11, x001 = (Fraction(xi[k]) for k in THREEFOLD_KEYS)
    return {
        "d": d,
        "mu0": (d ** 2 - 5 * d + x1) / 2,
        "t": (35 * d - Fraction(15, 2) * d ** 2 + HALF * d ** 3 - x01 - 15 * x1
              + Fraction(3, 2) * d * x1 + 2 * x2) / 3,
        "q": (-295 * d + Fraction(355, 6) * d ** 2 - 5 * d ** 3 + Fraction(1, 6) * d ** 4
              + 2 * x001 + (25 - Fraction(4, 3) * d) * x01 + (200 - 25 * d + d ** 2) * x1
              + HALF * x1 ** 2 - 7 * x11 + (Fraction(8, 3) * d - 55) * x2 + 6 * x3) / 4,
        "s_t": (-120 * d + 10 * d ** 2 + 2 * x001 + (20 - d) * x01 + (90 - 5 * d) * x1
                - 6 * x11 + (d - 30) * x2 + 4 * x3),
        "gamma": 10 * d - 5 * x1 + x2 - x01,
        "chi_C": -60 * d + 55 * x1 - 20 * x2 + 10 * x01 + 3 * x3 - 4 * x11 + x001,
        "m1": 4 * d - x1,
        "m2": 6 * d - 3 * x1 + x01,
        "m3": 4 * d - 3 * x1 + 2 * x01 - x001,
        "K_dot_S": -10 * x1 + 5 * x2 + x11 - x3,
        "D_swallowtail": 144 * d - 126 * x1 + 44 * x2 - 20 * x01 - 6 * x3 + 7 * x11 - 2 * x001,
        "B_plus_D": 256 * d - 216 * x1 + 62 * x2 - 4 * x01 - 6 * x3 + x11,
        "total_polar": 364 * d - 307 * x1 + 86 * x2 - 8 * x3,
    }


def characters(kind: str, xi: dict) -> dict:
    return surface_characters(xi) if kind == "surface" else threefold_characters(xi)


# ---------------------------------------------------------------------------
# inversion: basic characters back to the table


def surface_table(d, eps0, C, T) -> dict:
    """Chern degrees of the normalization from (d, eps0, C, T)."""
    d, eps0, C, T = (Fraction(v) for v in (d, eps0, C, T))
    return {
        "d": d,
        "xi1": 2 * eps0 + 4 * d - d ** 2,
        "xi2": d * (d - 4) ** 2 + (16 - 3 * d) * eps0 + 3 * T - C,
        "xi01": d * (d ** 2 - 4 * d + 6) + (8 - 3 * d) * eps0 + 3 * T - 2 * C,
    }


def threefold_table(d, mu0, t, q, s_t, gamma, chi_C) -> dict:
    """Chern degrees of the normalization from the seven basic characters."""
    d, mu0, t, q, s_t, gamma, chi_C = (Fraction(v) for v in (d, mu0, t, q, s_t, gamma, chi_C))
    quartic = 4 * d ** 2 - 2 * mu0
    return {
        "d": d,
        "xi1": 2 * mu0 + 5 * d - d ** 2,
        "xi2": 25 * d - 10 * d ** 2 + d ** 3 + (20 - 3 * d) * mu0 + 3 * t - gamma,
        "xi01": 10 * d - 5 * d ** 2 + d ** 3 + (10 - 3 * d) * mu0 + 3 * t - 2 * gamma,
        "xi3": (125 * d - 75 * d ** 2 + 15 * d ** 3 - d ** 4 + (150 - 45 * d + quartic) * mu0
                + 4 * q - HALF * s_t + (45 - 4 * d) * t + (HALF * d - 10) * gamma - chi_C),
        "xi11": (50 * d - 35 * d ** 2 + 10 * d ** 3 - d ** 4 + (70 - 30 * d + quartic) * mu0
                 + 4 * q + (30 - 4 * d) * t - 5 * gamma - 2 * chi_C),
        "xi001": (10 * d - 10 * d ** 2 + 5 * d ** 3 - d ** 4 + (20 - 15 * d + quartic) * mu0
                  + 4 * q + Fraction(3, 2) * s_t + (15 - 4 * d) * t
                  + (10 - Fraction(3, 2) * d) * gamma - 4 * chi_C),
    }


# ---------------------------------------------------------------------------
# tables of the built-in geometries


def _line_table(m: int, gammas: list, pullback, top_degree) -> dict:
    """Table of M whose Chern classes are c_k = gammas[k] h^k.

    The pulled-back hyperplane class is ``pullback`` * h and h^m has degree
    ``top_degree``; the monomial c1^a c2^b c3^c has weight a + 2b + 3c.
    """
    table = {}
    for key in keys_for("surface" if m == 2 else "threefold"):
        a, b, c = _KEY_EXPONENTS[key]
        weight = a + 2 * b + 3 * c
        table[key] = (gammas[1] ** a * gammas[2] ** b * gammas[3] ** c
                      * Fraction(pullback) ** (m - weight) * Fraction(top_degree))
    return table


def hypersurface_table(m: int, degree) -> dict:
    """Smooth hypersurface of the given degree in P^(m+1), by adjunction.

    c(TM) = (1+h)^(m+2) / (1 + degree*h), and h^m has degree ``degree``.
    """
    D = Fraction(degree)
    gammas = [sum(comb(m + 2, k - j) * (-D) ** j for j in range(k + 1)) for k in range(4)]
    return _line_table(m, gammas, 1, D)


def veronese_table(m: int, twist: int = 2) -> dict:
    """P^m embedded by forms of degree ``twist``: c(TM) = (1+h)^(m+1)."""
    gammas = [Fraction(comb(m + 1, k)) for k in range(4)]
    return _line_table(m, gammas, twist, 1)


# ---------------------------------------------------------------------------
# what the engine's verification report must say about a numeric table

_SURFACE_NON_NEGATIVE = ("C", "T", "eps0", "mu1", "mu2", "kappa_cusps")
_SURFACE_INTEGRAL = ("rho", "eps1")
_THREEFOLD_NON_NEGATIVE = ("d", "mu0", "t", "q", "s_t", "gamma", "m1", "m2", "m3",
                           "D_swallowtail", "B_plus_D", "total_polar")


def report_passes(kind: str, chars: dict) -> bool:
    """True when every integrality and sign check passes on these values."""
    def natural(v):
        return v.denominator == 1 and v >= 0

    if kind == "surface":
        return (all(natural(chars[k]) for k in _SURFACE_NON_NEGATIVE)
                and all(chars[k].denominator == 1 for k in _SURFACE_INTEGRAL))
    chi = chars["chi_C"]
    return (all(natural(chars[k]) for k in _THREEFOLD_NON_NEGATIVE)
            and chi.denominator == 1 and chi.numerator % 2 == 0)


# ---------------------------------------------------------------------------
# polynomials in the engine's text form: "6*d + xi01 - 3*xi1", "1/2*d^2"

_NUMBER = re.compile(r"\d+(?:/\d+)?")
_FACTOR = re.compile(r"(d|xi\d+)(?:\^(\d+))?")


def parse_polynomial(text: str) -> list:
    """Parse into [(coefficient, {symbol: exponent}), ...]; raise ValueError.

    Accepts sums of terms ``coeff*var^e*var...`` separated by `` + `` and
    `` - `` with an optional leading minus; the only symbols are ``d`` and
    ``xi<digits>``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    terms = []
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = Fraction(sign)
        powers: dict = {}
        for i, factor in enumerate(chunk.split("*")):
            if i == 0 and _NUMBER.fullmatch(factor):
                coeff *= Fraction(factor)
                continue
            match = _FACTOR.fullmatch(factor)
            if not match:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            name, exp = match.groups()
            powers[name] = powers.get(name, 0) + int(exp or 1)
        terms.append((coeff, powers))
    return terms


def evaluate_polynomial(terms: list, point: dict) -> Fraction:
    """Value of a parsed polynomial; every symbol must be assigned."""
    total = Fraction(0)
    for coeff, powers in terms:
        value = coeff
        for name, exp in powers.items():
            if name not in point:
                raise ValueError(f"symbol {name} has no value")
            value *= Fraction(point[name]) ** exp
        total += value
    return total


def evaluate_text(text: str, point: dict) -> Fraction:
    return evaluate_polynomial(parse_polynomial(text), point)


def render_polynomial(coeffs: list, symbol: str = "d") -> str:
    """Integer coefficients [c0, c1, ...] in the engine's input text form."""
    pieces = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        body = "" if power == 0 else symbol if power == 1 else f"{symbol}^{power}"
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if c < 0 else text)
        else:
            pieces.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(pieces) or "0"


def polynomial_value(coeffs: list, x) -> Fraction:
    x = Fraction(x)
    return sum((Fraction(c) * x ** k for k, c in enumerate(coeffs)), Fraction(0))
