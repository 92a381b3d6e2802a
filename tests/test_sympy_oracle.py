"""Independent oracle: the ring operations re-done in sympy.

Every variable becomes a sympy symbol; weights are carried by an extra
grading symbol ``t`` (a variable of weight w enters as ``x * t**w``), and
truncation at a cap drops every power of ``t`` above it.  Products, sums,
substitutions and series inverses from the engine must agree with sympy's
expansions; so must sums, products, substitutions and quotients by a
rational of polynomials whose coefficients have denominators up to 10^12.
Skipped when sympy is not installed.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from charclass.algebra import (  # noqa: E402
    GradedPolynomial,
    SOURCE_HYPERPLANE_VAR,
    atom,
    constant,
    invert_unit_series,
    source_chern,
    substitute,
    var_label,
    var_weight,
    xi_symbol,
)

from conftest import ABSTRACT_VARS  # noqa: E402

KAPPA = 1
T = sympy.Symbol("t")
SOURCE_VARS = [source_chern(1), source_chern(2), source_chern(3), SOURCE_HYPERPLANE_VAR]
SCALAR_VARS = [xi_symbol(()), xi_symbol((1,))]
SYMBOLS = {v: sympy.Symbol(var_label(v)) for v in ABSTRACT_VARS + SOURCE_VARS + SCALAR_VARS}

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3)
caps = st.one_of(st.none(), st.integers(0, 4))
ORACLE = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def poly_strategy(variables, kappa=None, max_terms=4, coefficients=coefficients):
    @st.composite
    def build(draw):
        terms = []
        for _ in range(draw(st.integers(0, max_terms))):
            factors = [
                (draw(st.sampled_from(variables)), draw(st.integers(1, 2)))
                for _ in range(draw(st.integers(0, 3)))
            ]
            terms.append((factors, draw(coefficients)))
        return GradedPolynomial(terms, cap=draw(caps), kappa=kappa)
    return build()


abstract_polys = poly_strategy(ABSTRACT_VARS + SCALAR_VARS, kappa=KAPPA)
source_polys = poly_strategy(SOURCE_VARS + SCALAR_VARS, max_terms=3)


# numerators and denominators up to 10^12: many machine words once multiplied out
wide = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))
wide_abstract_polys = poly_strategy(ABSTRACT_VARS + SCALAR_VARS, kappa=KAPPA, coefficients=wide)
wide_source_polys = poly_strategy(SOURCE_VARS + SCALAR_VARS, max_terms=3, coefficients=wide)


def rational(value: Fraction) -> "sympy.Rational":
    return sympy.Rational(value.numerator, value.denominator)


def graded(p: GradedPolynomial) -> "sympy.Expr":
    """p in sympy, each variable multiplied by t**weight."""
    total = sympy.Integer(0)
    for mono, coeff in p.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in mono:
            term *= (SYMBOLS[v] * T ** var_weight(v, KAPPA)) ** e
        total += term
    return sympy.expand(total)


def truncate(expr: "sympy.Expr", cap: int | None) -> "sympy.Expr":
    """Drop the powers of t above the cap, then forget the grading."""
    expr = sympy.expand(expr)
    if cap is not None:
        poly = sympy.Poly(expr, T)
        expr = sum((c * T ** k for (k,), c in poly.terms() if k <= cap), sympy.Integer(0))
    return sympy.expand(expr.subs(T, 1))


def plain(p: GradedPolynomial) -> "sympy.Expr":
    return truncate(graded(p), None)


def join_cap(*caps_):
    known = [c for c in caps_ if c is not None]
    return min(known) if known else None


class TestAgainstSympy:
    @ORACLE
    @given(abstract_polys, abstract_polys)
    def test_product(self, p, q):
        want = truncate(graded(p) * graded(q), join_cap(p.cap, q.cap))
        assert plain(p * q) == want

    @ORACLE
    @given(abstract_polys, abstract_polys, coefficients)
    def test_sum(self, p, q, scalar):
        cap = join_cap(p.cap, q.cap)
        assert plain(p + q) == truncate(graded(p) + graded(q), cap)
        assert plain(p - scalar * q) == truncate(
            graded(p) - sympy.Rational(scalar.numerator, scalar.denominator) * graded(q), cap
        )

    @ORACLE
    @given(abstract_polys, st.lists(source_polys, min_size=7, max_size=7), caps)
    # s0^2 with s0 -> c1^2 of cap 2: the image's own cap is below the result's 4
    @example(GradedPolynomial([(((ABSTRACT_VARS[3], 2),), 1)], kappa=KAPPA),
             [GradedPolynomial()] * 3 + [(atom(source_chern(1)) ** 2).truncated(2)]
             + [GradedPolynomial()] * 3,
             4)
    def test_substitute(self, p, images, cap):
        assignment = dict(zip(ABSTRACT_VARS, images))
        got = substitute(p, assignment, cap=cap)
        if cap is None:
            cap = join_cap(p.cap, *(img.cap for img in images))
        # the images carry the grading; the scalar symbols of p keep weight 0
        ungraded_p = plain(p)
        replaced = ungraded_p.subs(
            {SYMBOLS[v]: graded(img) for v, img in assignment.items()}, simultaneous=True
        )
        assert plain(got) == truncate(replaced, cap)

    @ORACLE
    @given(source_polys, st.integers(0, 4))
    def test_invert_unit_series(self, body, cap):
        unit = 1 + (body - body.component(0))
        inverse = invert_unit_series(unit, cap)
        # the inverse is unique, so p * q = 1 up to the cap pins it down
        assert truncate(graded(unit) * graded(inverse), cap) == 1
        assert all(
            sum(var_weight(v) * e for v, e in mono) <= cap for mono, _ in inverse.items()
        )


class TestWideDenominatorsAgainstSympy:
    @ORACLE
    @given(wide_abstract_polys, wide_abstract_polys)
    def test_product(self, p, q):
        want = truncate(graded(p) * graded(q), join_cap(p.cap, q.cap))
        assert plain(p * q) == want

    @ORACLE
    @given(wide_abstract_polys, wide_abstract_polys, wide)
    def test_sum_and_difference(self, p, q, scalar):
        cap = join_cap(p.cap, q.cap)
        assert plain(p + q) == truncate(graded(p) + graded(q), cap)
        assert plain(p - q) == truncate(graded(p) - graded(q), cap)
        assert plain(scalar * q - p) == truncate(rational(scalar) * graded(q) - graded(p), cap)

    @ORACLE
    @given(wide_abstract_polys, st.lists(wide_source_polys, min_size=7, max_size=7), caps)
    def test_substitute(self, p, images, cap):
        assignment = dict(zip(ABSTRACT_VARS, images))
        got = substitute(p, assignment, cap=cap)
        if cap is None:
            cap = join_cap(p.cap, *(img.cap for img in images))
        replaced = plain(p).subs(
            {SYMBOLS[v]: graded(img) for v, img in assignment.items()}, simultaneous=True
        )
        assert plain(got) == truncate(replaced, cap)

    @ORACLE
    @given(st.one_of(abstract_polys, wide_abstract_polys),
           st.one_of(coefficients, wide).filter(bool))
    def test_division_by_a_rational(self, p, k):
        want = truncate(graded(p) / rational(k), p.cap)
        assert plain(p / k) == want
        assert plain(p / constant(k)) == want
        if k.denominator == 1:
            assert plain(p / k.numerator) == want


def test_oracle_sees_a_wrong_product():
    """The oracle itself: a product off by one term is caught."""
    c1, at = atom(source_chern(1)), atom(SOURCE_HYPERPLANE_VAR)
    p, q = 1 + c1, 1 + at
    wrong = p * q + Fraction(1, 2) * c1 * at
    assert plain(wrong) != truncate(graded(p) * graded(q), None)
    assert plain(p * q) == truncate(graded(p) * graded(q), None)
