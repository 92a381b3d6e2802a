"""Exact polynomial arithmetic, truncation, inversion and substitution."""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charclass.algebra import (
    EXPONENT_LIMIT,
    AbstractClass,
    ExponentOverflowError,
    GradedPolynomial,
    IncompleteSubstitutionError,
    NonUnitSeriesError,
    RingMismatchError,
    DEGREE_VAR,
    SOURCE_HYPERPLANE_VAR,
    TARGET_HYPERPLANE_VAR,
    Var,
    VarKind,
    atom,
    chern_indices,
    constant,
    degree_symbol,
    gysin_map,
    invert_unit_series,
    landweber_novikov,
    parse,
    quotient_chern,
    render,
    source_chern,
    substitute,
    trim_index,
    index_weight,
)

from conftest import ABSTRACT_VARS, random_poly, random_unit_series

C1 = atom(quotient_chern(1))
C2 = atom(quotient_chern(2))
C3 = atom(quotient_chern(3))
AT = atom(SOURCE_HYPERPLANE_VAR)
A = atom(TARGET_HYPERPLANE_VAR)
D = degree_symbol()


def s_atom(index, kappa=1):
    return atom(landweber_novikov(index), kappa=kappa)


class TestMultiIndex:
    def test_trailing_zeros_trimmed(self):
        assert trim_index((1, 0, 0)) == (1,)
        assert trim_index((0, 0)) == ()
        assert trim_index(()) == ()

    def test_weight(self):
        assert index_weight(()) == 0
        assert index_weight((2,)) == 2
        assert index_weight((1, 1)) == 3
        assert index_weight((0, 0, 1)) == 3

    def test_chern_indices_surface(self):
        assert chern_indices(2) == [(), (1,), (0, 1), (2,)]

    def test_chern_indices_threefold(self):
        assert set(chern_indices(3)) == {
            (), (1,), (2,), (0, 1), (3,), (1, 1), (0, 0, 1),
        }


class TestRingArithmetic:
    def test_additive_inverse(self):
        assert (C1 + (-C1)).is_zero()

    def test_binomial_square(self):
        s0 = s_atom(())
        assert (s0 - C1) * (s0 - C1) == s0 ** 2 - 2 * s0 * C1 + C1 ** 2

    def test_truncated_binomial_power(self):
        # oracle: expand without a cap, then drop the weight > 2 part
        full = (1 + AT) ** 4
        expected = sum(
            (full.component(w) for w in range(3)), GradedPolynomial()
        )
        assert (1 + AT.truncated(2)) ** 4 == expected
        assert (1 + AT.truncated(2)) ** 4 == 1 + 4 * AT + 6 * AT ** 2

    def test_cap_is_minimum(self):
        p = (1 + C1).truncated(2)
        q = (1 + C2).truncated(3)
        assert (p * q).cap == 2
        assert (p + q).cap == 2

    def test_kappa_mismatch_raises(self):
        with pytest.raises(RingMismatchError):
            s_atom((), kappa=0) + s_atom((), kappa=1)
        with pytest.raises(RingMismatchError):
            s_atom((1,), kappa=0) * s_atom((1,), kappa=1)

    def test_landweber_atom_requires_kappa(self):
        with pytest.raises(RingMismatchError):
            GradedPolynomial({((landweber_novikov(()), 1),): 1})

    def test_universal_class_body_must_live_at_its_kappa(self):
        body = s_atom((1,), kappa=1)
        assert AbstractClass("s1", 1, 2, body).body == body
        with pytest.raises(RingMismatchError, match="s1: body kappa 1 != declared 0"):
            AbstractClass("s1", 0, 2, body)

    def test_weights_depend_on_kappa(self):
        s1 = s_atom((1,), kappa=0)
        assert s1.component(1) == s1
        s1 = s_atom((1,), kappa=1)
        assert s1.component(2) == s1

    def test_scalar_mixing(self):
        assert 2 * C1 - C1 == C1
        assert (3 * C1) / 3 == C1
        assert C1 / Fraction(1, 2) == 2 * C1

    def test_zero_is_empty(self):
        p = C1 - C1
        assert p.is_zero() and len(p) == 0 and render(p) == "0"


class TestInvertUnitSeries:
    def test_geometric_series(self):
        assert invert_unit_series(1 + C1, 3) == 1 - C1 + C1 ** 2 - C1 ** 3

    def test_two_term_series(self):
        # oracle: multiply back and confirm 1 through weight 2
        inv = invert_unit_series(1 + C1 + C2, 2)
        assert ((1 + C1 + C2) * inv).truncated(2) == 1
        assert inv == 1 - C1 + (C1 ** 2 - C2)

    def test_identity(self):
        assert invert_unit_series(constant(1), 5) == 1

    def test_non_unit_raises(self):
        with pytest.raises(NonUnitSeriesError):
            invert_unit_series(2 + C1, 3)
        with pytest.raises(NonUnitSeriesError):
            invert_unit_series(C1, 3)
        with pytest.raises(NonUnitSeriesError):
            invert_unit_series(1 + D + C1, 3)  # scalar symbols are weight 0

    def test_random_series_invert_exactly(self):
        rng = random.Random(7)
        for _ in range(50):
            cap = rng.randint(1, 4)
            p = random_unit_series(rng, cap)
            assert (p * invert_unit_series(p, cap)).truncated(cap) == 1


class TestSubstitute:
    def test_quotient_to_source_expansion(self):
        c1m = atom(source_chern(1))
        image = 4 * AT - c1m
        result = substitute(C1 ** 2, {quotient_chern(1): image})
        assert result == 16 * AT ** 2 - 8 * AT * c1m + c1m ** 2

    def test_scalar_image(self):
        s0 = s_atom(())
        assert substitute(s0, {landweber_novikov(()): D * AT}) == D * AT

    def test_identity_assignment(self):
        assert substitute(C2, {quotient_chern(2): C2}) == C2

    def test_xi_symbols_pass_through(self):
        p = D * C1
        assert substitute(p, {quotient_chern(1): constant(1)}) == D

    def test_unassigned_variable_raises(self):
        with pytest.raises(IncompleteSubstitutionError):
            substitute(C1 * C2, {quotient_chern(1): constant(1)})

    def test_constant_and_zero_images(self):
        p = 5 * C1 * C2 + 2 + C1 * C2 ** 2
        assert substitute(p, {quotient_chern(1): constant(3), quotient_chern(2): AT}) == (
            2 + 15 * AT + 3 * AT ** 2)
        assert substitute(p, {quotient_chern(1): AT, quotient_chern(2): constant(0)}) == 2

    def test_respects_cap(self):
        result = substitute(C1 ** 2, {quotient_chern(1): AT + AT ** 2}, cap=2)
        assert result == AT ** 2

    def test_result_does_not_depend_on_factor_order(self):
        short, long = (AT + AT ** 2).truncated(1), (AT + AT ** 2).truncated(3)
        c1, c2 = quotient_chern(1), quotient_chern(2)
        got = substitute(C1 * C2, {c1: short, c2: long}, cap=3)
        assert got == substitute(C1 * C2, {c1: long, c2: short}, cap=3) == AT ** 2 + AT ** 3


class TestGysinMap:
    def test_parts(self):
        c1, c3 = source_chern(1), source_chern(3)
        mono = ((c1, 2), (c3, 1), (SOURCE_HYPERPLANE_VAR, 2), (DEGREE_VAR, 1))
        seen = []

        def image(index, power, weight):
            seen.append((index, power, weight))
            return constant(5), 3

        p = GradedPolynomial({mono: Fraction(3, 2), ((DEGREE_VAR, 2),): 1})
        result = gysin_map(p, VarKind.SOURCE_CHERN, SOURCE_HYPERPLANE_VAR, image,
                           target_var=TARGET_HYPERPLANE_VAR)
        assert sorted(seen) == [((), 0, 0), ((2, 0, 1), 2, 7)]
        assert result == (Fraction(15, 2) * D + 5 * D ** 2) * A ** 3

    def test_dropped_terms_and_cap(self):
        p = 1 + 2 * AT + 3 * D * AT ** 2 + AT ** 3

        def coefficient(k):
            return gysin_map(p, None, SOURCE_HYPERPLANE_VAR,
                             lambda index, power, weight: (constant(1), 0) if power == k else None)

        assert [coefficient(k) for k in range(5)] == [1, 2, 3 * D, 1, 0]
        shifted = gysin_map(p, None, SOURCE_HYPERPLANE_VAR,
                            lambda index, power, weight: (constant(1), power + 1),
                            target_var=SOURCE_HYPERPLANE_VAR, cap=2)
        assert shifted.cap == 2 and shifted == AT + 2 * AT ** 2

    def test_foreign_variable_raises(self):
        with pytest.raises(RingMismatchError, match="c1"):
            gysin_map(C1, VarKind.SOURCE_CHERN, SOURCE_HYPERPLANE_VAR,
                      lambda index, power, weight: (constant(1), 0))


class TestExponentLimits:
    """Exponents and weights live in fixed-width fields; overflow must raise."""

    def test_construction(self):
        top = GradedPolynomial({((DEGREE_VAR, EXPONENT_LIMIT),): 1})
        assert render(top) == f"d^{EXPONENT_LIMIT}"
        for mono in [((DEGREE_VAR, 70000),), ((DEGREE_VAR, EXPONENT_LIMIT), (DEGREE_VAR, 1)),
                     ((quotient_chern(3), 20000),)]:  # the last: weight 60000
            with pytest.raises(ExponentOverflowError, match=f"limit of {EXPONENT_LIMIT}"):
                GradedPolynomial({mono: 1})

    def test_parse(self):
        assert parse(f"d^{EXPONENT_LIMIT}") == D ** EXPONENT_LIMIT
        for text in ["d^70000", "3*xi1^40000 + d", "c2^20000"]:
            with pytest.raises(ExponentOverflowError, match=f"limit of {EXPONENT_LIMIT}"):
                parse(text)

    def test_power(self):
        assert render(D ** EXPONENT_LIMIT) == f"d^{EXPONENT_LIMIT}"
        for base, power in [(D, 70000), (D, EXPONENT_LIMIT + 1), (D ** 2, 20000),
                            (3 * C3, 20000)]:
            with pytest.raises(ExponentOverflowError, match=f"limit of {EXPONENT_LIMIT}"):
                base ** power

    def test_product(self):
        half = D ** 20000
        assert render(half * D ** (EXPONENT_LIMIT - 20000)) == f"d^{EXPONENT_LIMIT}"
        for left, right in [(half, half), (half + C1, 1 + half), (C3 ** 10000, C3 ** 1000)]:
            with pytest.raises(ExponentOverflowError, match=f"limit of {EXPONENT_LIMIT}"):
                left * right
        with pytest.raises(ExponentOverflowError):
            substitute(C1 * C2, {quotient_chern(1): half, quotient_chern(2): half})


def test_first_use_from_many_threads_gives_one_encoding():
    rounds = [[Var(VarKind.XI, (8, 8, 8, r, k)) for k in range(1, 11)] for r in range(1, 101)]
    start = threading.Barrier(8)
    results = [[] for _ in range(8)]

    def work(slot):
        for fresh in rounds:
            start.wait(timeout=30)  # all threads meet each round's variables first
            results[slot].append([atom(v) for v in fresh])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for atoms in results:
        assert atoms == results[0]
    for r, fresh in enumerate(rounds):
        for k, v in enumerate(fresh):
            assert results[3][r][k] * results[5][r][k] == GradedPolynomial({((v, 2),): 1})


class TestComponentOfWeight:
    def test_simple(self):
        p = 1 + 4 * AT + 6 * AT ** 2
        assert p.component(1) == 4 * AT
        assert p.component(5).is_zero()

    def test_decomposition_sums_back(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_poly(rng, ABSTRACT_VARS, kappa=1, cap=4)
            total = sum(
                (p.component(w) for w in range(p.cap + 1)),
                GradedPolynomial(),
            )
            assert total == p


class TestRendering:
    def test_coefficients(self):
        assert render(constant(Fraction(1, 2)) * C1 ** 2) == "1/2*c1^2"
        assert render(-C1 + 3 * C2) == "-c1 + 3*c2"
        assert render(constant(-2)) == "-2"

    def test_variable_labels(self):
        s01 = s_atom((0, 1))
        assert render(s01) == "s01"
        assert render(s_atom(())) == "s0"
        assert render(atom(source_chern(1)) * AT * D) == "c1*at*d"

    def test_parse_roundtrip(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_poly(rng, ABSTRACT_VARS, kappa=1, max_terms=5)
            assert parse(render(p), kappa=1) == p

    def test_parse_examples(self):
        s0 = s_atom(())
        assert parse("-c1 + s0", kappa=1) == s0 - C1
        assert parse("0") == GradedPolynomial()
        assert parse("3/2*d - 1") == Fraction(3, 2) * D - 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("c1 $ c2")
        with pytest.raises(ValueError):
            parse("q7")

    @pytest.mark.parametrize("text", ["1/0*d", "3/0", "d + 1/0"])
    def test_parse_rejects_a_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse(text)


# hypothesis strategies for ring laws

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def polys(draw, kappa=1):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        n_factors = draw(st.integers(0, 3))
        factors = {}
        for _ in range(n_factors):
            v = draw(st.sampled_from(ABSTRACT_VARS))
            factors[v] = factors.get(v, 0) + draw(st.integers(1, 2))
        mono = tuple(sorted(factors.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + draw(small_fractions)
    return GradedPolynomial(terms, kappa=kappa)


class TestRingLaws:
    @settings(max_examples=200)
    @given(polys(), polys())
    def test_commutative(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @settings(max_examples=200)
    @given(polys(), polys(), polys())
    def test_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=200)
    @given(polys(), polys(), polys())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=200)
    @given(polys(), polys())
    def test_substitution_is_a_ring_map(self, p, q):
        images = {
            v: atom(source_chern(min(v.index[0], 3)))
            if v.kind.name == "QUOTIENT_CHERN"
            else AT ** max(1, index_weight(v.index))
            for v in (p * q).variables() | p.variables() | q.variables()
        }
        lhs = substitute(p * q, images)
        rhs = substitute(p, images) * substitute(q, images)
        assert lhs == rhs
