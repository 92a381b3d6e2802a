"""Shared helpers: seeded random generators for polynomials and contexts."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from charclass.algebra import (
    GradedPolynomial,
    SOURCE_HYPERPLANE_VAR,
    TARGET_HYPERPLANE_VAR,
    atom,
    chern_indices,
    landweber_novikov,
    quotient_chern,
    source_chern,
)
from charclass.context import MapContext, make_context, xi_label


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_poly(
    rng: random.Random,
    variables,
    *,
    max_terms: int = 4,
    max_exp: int = 2,
    max_factors: int = 3,
    cap: int | None = None,
    kappa: int | None = None,
) -> GradedPolynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        factors = {}
        for _ in range(rng.randint(0, max_factors)):
            v = rng.choice(variables)
            factors[v] = min(factors.get(v, 0) + rng.randint(1, max_exp), 6)
        mono = tuple(sorted(factors.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + random_fraction(rng)
    return GradedPolynomial(terms, cap=cap, kappa=kappa)


ABSTRACT_VARS = [
    quotient_chern(1),
    quotient_chern(2),
    quotient_chern(3),
    landweber_novikov(()),
    landweber_novikov((1,)),
    landweber_novikov((2,)),
    landweber_novikov((0, 1)),
]

SOURCE_VARS_SURFACE = [source_chern(1), source_chern(2), SOURCE_HYPERPLANE_VAR]
SOURCE_VARS_THREEFOLD = SOURCE_VARS_SURFACE + [source_chern(3)]


def random_abstract_poly(rng: random.Random, kappa: int, **kw) -> GradedPolynomial:
    return random_poly(rng, ABSTRACT_VARS, kappa=kappa, **kw)


def random_source_poly(rng: random.Random, m: int = 2, **kw) -> GradedPolynomial:
    variables = SOURCE_VARS_SURFACE if m == 2 else SOURCE_VARS_THREEFOLD
    return random_poly(rng, variables, cap=m, **kw)


def random_target_poly(rng: random.Random, n: int = 3) -> GradedPolynomial:
    a = atom(TARGET_HYPERPLANE_VAR, cap=n)
    total = GradedPolynomial(cap=n)
    for k in range(n + 1):
        total = total + random_fraction(rng) * a ** k
    return total


def random_unit_series(rng: random.Random, cap: int, kappa: int | None = 0) -> GradedPolynomial:
    body = random_poly(rng, ABSTRACT_VARS, kappa=kappa, cap=cap)
    # force the constant term to exactly 1
    return 1 + (body - body.component(0)).truncated(cap)


def random_numeric_context(rng: random.Random, m: int = 2, n: int = 3) -> MapContext:
    xi = {xi_label(i): random_fraction(rng) for i in chern_indices(m)}
    ctx = make_context(m, max(n, m + 1), xi)
    while ctx.target_dim > n:
        ctx = ctx.project()
    return ctx


def non_integral_tables(m: int):
    """Hypothesis strategy: degree tables of an m-fold whose entries are all
    non-integral rationals with denominators 2..9."""
    entry = st.builds(Fraction, st.integers(-60, 60), st.integers(2, 9)).filter(
        lambda x: x.denominator != 1)
    return st.fixed_dictionaries({xi_label(i): entry for i in chern_indices(m)})
