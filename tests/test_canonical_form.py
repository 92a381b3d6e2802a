"""Stored form of polynomials: every operation yields the canonical terms.

A polynomial stores ``int`` numerators over one positive ``int`` denominator
in lowest terms.  Arithmetic builds its results without re-validating the
terms, so each result is checked for that form and compared with a rebuild
through the public constructor: same monomials, same coefficient values and
types as the readers hand them out (``int`` when integral, ``Fraction``
otherwise), same cap and kappa, and equal both ways, which a denominator
left unreduced would break.  Floats are refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from charclass.algebra import (
    GradedPolynomial,
    SOURCE_HYPERPLANE_VAR,
    atom,
    constant,
    lift,
    render,
    source_chern,
    substitute,
    xi_symbol,
)
from charclass.context import make_context

from conftest import ABSTRACT_VARS

DEGREE = xi_symbol(())
# two coprime denominators far beyond any machine word
WIDE_A, WIDE_B = 10 ** 40 + 1, 10 ** 40 + 3
VARIABLES = ABSTRACT_VARS + [DEGREE, xi_symbol((1,))]
SOURCE_IMAGES = [
    atom(source_chern(1)),
    atom(source_chern(2)),
    atom(SOURCE_HYPERPLANE_VAR),
    1 + atom(SOURCE_HYPERPLANE_VAR),
    atom(source_chern(1)) - Fraction(1, 2) * atom(DEGREE),
]

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
caps = st.one_of(st.none(), st.integers(0, 5))


@st.composite
def polys(draw, kappa=1):
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        factors = [
            (draw(st.sampled_from(VARIABLES)), draw(st.integers(1, 2)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        terms.append((factors, draw(coefficients)))
    return GradedPolynomial(terms, cap=draw(caps), kappa=kappa)


def assert_canonical(p: GradedPolynomial) -> None:
    rebuilt = GradedPolynomial(dict(p.items()), cap=p.cap, kappa=p.kappa)
    typed = {m: (type(c), c) for m, c in p.items()}
    assert typed == {m: (type(c), c) for m, c in rebuilt.items()}
    assert (p.cap, p.kappa) == (rebuilt.cap, rebuilt.kappa)
    for c in typed.values():
        assert c[0] is (int if c[1].denominator == 1 else Fraction)
    assert p == rebuilt and rebuilt == p
    # the stored form: int numerators over one positive denominator, in lowest terms
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._terms.values())
    assert gcd(p._den, *p._terms.values()) == 1


def wide(a: int, b: int) -> GradedPolynomial:
    """d/a + xi1/b, kappa 1 as the strategy draws it."""
    return GradedPolynomial({((DEGREE, 1),): Fraction(1, a),
                             ((xi_symbol((1,)), 1),): Fraction(1, b)}, kappa=1)


# c2/3 + 2*s0 + 1 at kappa 1, weights 2, 1 and 0 under cap 3
HEAVY = GradedPolynomial({((ABSTRACT_VARS[1], 1),): Fraction(1, 3),
                          ((ABSTRACT_VARS[3], 1),): 2, (): 1}, cap=3, kappa=1)
# a constant whose cap is below HEAVY's: sums and products drop HEAVY's terms
SHALLOW = GradedPolynomial({(): Fraction(-5, 2)}, cap=0)


class TestTrustedResultsAreCanonical:
    @settings(max_examples=300)
    @given(polys(), polys(), st.integers(0, 3), caps, coefficients)
    @example(wide(WIDE_A, WIDE_B), wide(WIDE_A, WIDE_B), 2, None, Fraction(1, WIDE_A))
    @example(wide(WIDE_A, WIDE_A), wide(WIDE_B, WIDE_B), 3, 0, Fraction(-1, WIDE_B))
    @example(wide(WIDE_A, WIDE_B), -wide(WIDE_A, WIDE_B), 1, None, Fraction(WIDE_B, WIDE_A))
    # a constant on either side: zero, nonzero, and capped below the other operand
    @example(GradedPolynomial(), wide(WIDE_A, WIDE_B), 2, None, Fraction(1, WIDE_A))
    @example(wide(WIDE_A, WIDE_B), GradedPolynomial(), 0, 1, 0)
    @example(constant(Fraction(3, WIDE_A)), wide(WIDE_A, WIDE_B), 3, None, 2)
    @example(wide(WIDE_A, WIDE_B), constant(Fraction(-5, WIDE_B)), 1, 0, Fraction(1, 2))
    @example(SHALLOW, HEAVY, 2, None, Fraction(7, 3))
    @example(HEAVY, SHALLOW, 3, 2, -1)
    def test_arithmetic(self, p, q, power, cap, scalar):
        for result in [p + q, p - q, -p, p * q, p ** power, p.truncated(cap),
                       p + scalar, scalar - p, scalar * p, p * Fraction(1, 2)]:
            assert_canonical(result)
        if scalar:
            assert_canonical(p / scalar)

    @settings(max_examples=200)
    @given(polys(), st.lists(st.sampled_from(SOURCE_IMAGES), min_size=7, max_size=7), caps)
    def test_substitute(self, p, picks, cap):
        images = {v: img for v, img in zip(ABSTRACT_VARS, picks)}
        assert_canonical(substitute(p, images, cap=cap))

    @settings(max_examples=200)
    @given(polys(), coefficients)
    def test_readers_return_fractions(self, p, value):
        for mono, _ in p.items():
            assert type(p.coefficient(mono)) is Fraction
        assert type(p.coefficient(((xi_symbol((2, 2)), 1),))) is Fraction
        assert type(constant(value).constant_value()) is Fraction
        assert constant(value).constant_value() == value
        assert type((p - p).constant_value()) is Fraction

    @settings(max_examples=200)
    @given(polys(), st.one_of(coefficients, st.integers(-10 ** 150, 10 ** 150)))
    @example(GradedPolynomial(), 10 ** 149 + 7)
    @example(GradedPolynomial(), -(10 ** 150) + 1)
    @example(GradedPolynomial(), Fraction(-7, 3))
    @example(GradedPolynomial(), Fraction(0))
    @example(GradedPolynomial(), 0)
    def test_numbers_and_polynomials_share_zero_and_text(self, p, value):
        # the reports and the CLI test ``not x`` and print ``str(x)`` on
        # plain exact numbers and polynomials alike
        assert str(constant(value)) == str(value)
        assert bool(constant(value)) == bool(value)
        assert bool(p) == (not p.is_zero())
        assert str(p) == render(p)

    def test_wide_coprime_denominators(self):
        a, b = constant(Fraction(1, WIDE_A)), constant(Fraction(1, WIDE_B))
        d, x1 = atom(DEGREE), atom(xi_symbol((1,)))
        both = a * d + b * x1
        total, product = a + b, (a * d) * (b * x1)
        for result in [both, total, product, both - both, both * both, both / b]:
            assert_canonical(result)
        assert dict(both.items()) == {((DEGREE, 1),): Fraction(1, WIDE_A),
                                      ((xi_symbol((1,)), 1),): Fraction(1, WIDE_B)}
        assert total == Fraction(WIDE_A + WIDE_B, WIDE_A * WIDE_B)
        assert product.coefficient(((DEGREE, 1), (xi_symbol((1,)), 1))) == Fraction(
            1, WIDE_A * WIDE_B)
        assert (both - both).is_zero() and (both - both) == 0
        assert both / b == WIDE_B * a * d + x1

    def test_integral_fractions_are_stored_as_int(self):
        half = constant(Fraction(1, 2))
        whole = half + half
        assert whole == 1 and type(whole.constant_value()) is Fraction
        assert [type(c) for _, c in whole.items()] == [int]
        assert [type(c) for _, c in constant(Fraction(6, 3)).items()] == [int]

    def test_public_constructor_still_validates(self):
        with pytest.raises(TypeError):
            GradedPolynomial({((("not", "a var"), 1),): 1})
        with pytest.raises(ValueError):
            GradedPolynomial({(): 1}, cap=-1)
        assert GradedPolynomial([(((DEGREE, 1), (DEGREE, 1)), 1)]) == atom(DEGREE) ** 2


class TestFloatsRefused:
    @pytest.mark.parametrize("build", [
        lambda: constant(0.1),
        lambda: lift(0.5),
        lambda: GradedPolynomial({(): 2.0}),
        lambda: GradedPolynomial({((xi_symbol((1,)), 1),): 1.5}),
    ])
    def test_library_constructors(self, build):
        with pytest.raises(TypeError, match="float"):
            build()

    def test_message_names_the_value(self):
        with pytest.raises(TypeError, match=r"0\.1"):
            constant(0.1)

    def test_degree_table(self):
        with pytest.raises(TypeError, match=r"4\.0"):
            make_context(2, 3, {"d": 4.0, "xi1": 6, "xi2": 9, "xi01": 3})

    def test_arithmetic(self):
        x = atom(xi_symbol((1,)))
        for op in (lambda: x * 0.5, lambda: x + 0.5, lambda: x / 0.5, lambda: 0.5 - x):
            with pytest.raises(TypeError):
                op()

    def test_exact_inputs_still_accepted(self):
        ctx = make_context(2, 3, {"d": 4, "xi1": Fraction(6), "xi2": 9, "xi01": 3})
        assert ctx.xi_scalar(()) == 4
        assert GradedPolynomial({(): "1/2"}) == Fraction(1, 2)
