"""Exact sparse polynomial algebra over the rationals with weighted grading.

Characteristic-class expressions are modelled as sparse polynomials whose
variables carry integer weights (cohomological degree halved).  Six variable
families cover everything the calculus needs:

* quotient Chern classes ``c_k`` of a map, weight ``k``;
* Landweber-Novikov classes ``s_I``, multi-indexed, weight
  ``kappa + weight(I)`` where the relative codimension ``kappa`` is a
  property of the enclosing ring, never of a single occurrence;
* Chern classes ``c_k`` of the source manifold, weight ``k``;
* the pulled-back hyperplane class ``at`` and the target hyperplane class
  ``a``, both weight 1;
* scalar degree symbols ``d`` and ``xi...``, weight 0, the exact unknowns
  every computation eventually lands in.

A polynomial may carry a weight cap.  Terms heavier than the cap are dropped
eagerly at every operation, which is how truncated series such as total
Chern classes are modelled.  Coefficients are exact rationals, stored as
``int`` numerators over one positive ``int`` denominator in lowest terms (the
form of FLINT's ``fmpq_poly``), so every value has one stored form and the
arithmetic runs on ``int`` only; readers hand out ``int`` or
:class:`fractions.Fraction`.  Floats are refused with :class:`TypeError` and
nothing here ever rounds.

Internally a monomial is one packed ``int`` (see the monomials section), so
a product of monomials is an integer sum and a weight two field reads.  The
format stays inside this module: callers pass :class:`Var` objects and
polynomials, and every reader (``items``, ``coefficient``, ``variables``,
``render``) speaks in sorted ``(Var, exponent)`` tuples.  An exponent, or
the weight of a monomial, above :data:`EXPONENT_LIMIT` raises
:class:`ExponentOverflowError`.

All values are immutable after construction and every operation is pure, so
instances can be shared freely across threads; the process-wide table that
gives each variable its field is filled under a lock.
"""

from __future__ import annotations

import re
import threading
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

MultiIndex = tuple  # tuple[int, ...], trailing zeros trimmed

class RingMismatchError(ValueError):
    """Operands use Landweber-Novikov variables with different kappa, or a
    class holds a variable that does not belong to the ring it is mapped from."""


class NonUnitSeriesError(ValueError):
    """Formal inversion was asked of a series whose constant term is not 1."""


class IncompleteSubstitutionError(ValueError):
    """A substitution left a non-scalar variable unassigned."""


class ExponentOverflowError(ValueError):
    """An exponent or a monomial weight exceeds :data:`EXPONENT_LIMIT`."""


# ---------------------------------------------------------------------------
# multi-indices


def trim_index(exponents: Iterable[int]) -> MultiIndex:
    """Canonical multi-index: drop trailing zeros, validate non-negativity."""
    exps = tuple(int(e) for e in exponents)
    if any(e < 0 for e in exps):
        raise ValueError(f"negative entry in multi-index {exps}")
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def index_weight(index: MultiIndex) -> int:
    """weight(I) = sum over positions k of k * i_k (positions count from 1)."""
    return sum((k + 1) * e for k, e in enumerate(index))


def index_digits(index: MultiIndex) -> str:
    """Digit string used in labels: the empty index prints as ``0``."""
    if not index:
        return "0"
    if any(e > 9 for e in index):
        raise ValueError(f"multi-index {index} has an entry above 9, no unambiguous label")
    return "".join(str(e) for e in index)


def chern_indices(max_weight: int) -> list:
    """All multi-indices of weight <= max_weight, the empty index included.

    These index the Chern monomials c_1^{i_1} c_2^{i_2} ... that can carry a
    nonzero degree on a manifold of the given dimension.
    """
    return list(_chern_indices(int(max_weight)))


@lru_cache(maxsize=None)
def _chern_indices(max_weight: int) -> tuple:
    # (exponents of c_1 .. c_k, weight), one position at a time, pruned by weight
    found = [((), 0)]
    for k in range(1, max_weight + 1):
        found = [(exps + (e,), w + k * e)
                 for exps, w in found for e in range((max_weight - w) // k + 1)]
    indices = {trim_index(exps) for exps, _ in found}
    return tuple(sorted(indices, key=lambda i: (index_weight(i), i)))


# ---------------------------------------------------------------------------
# variables


class VarKind(IntEnum):
    """Variable families, in canonical print/sort order."""

    QUOTIENT_CHERN = 0
    LANDWEBER_NOVIKOV = 1
    SOURCE_CHERN = 2
    SOURCE_HYPERPLANE = 3
    TARGET_HYPERPLANE = 4
    XI = 5


class Var(NamedTuple):
    """A single graded variable: a kind plus an index payload.

    Chern-type kinds store ``(k,)``; the hyperplane kinds store ``()``;
    Landweber-Novikov and scalar symbols store a multi-index.  Variables
    sort by (kind, index).
    """

    kind: VarKind
    index: MultiIndex = ()


def quotient_chern(k: int) -> Var:
    if k < 1:
        raise ValueError("Chern index must be >= 1")
    return Var(VarKind.QUOTIENT_CHERN, (int(k),))


def source_chern(k: int) -> Var:
    if k < 1:
        raise ValueError("Chern index must be >= 1")
    return Var(VarKind.SOURCE_CHERN, (int(k),))


def landweber_novikov(index: Iterable[int]) -> Var:
    return Var(VarKind.LANDWEBER_NOVIKOV, trim_index(index))


def xi_symbol(index: Iterable[int]) -> Var:
    return Var(VarKind.XI, trim_index(index))


SOURCE_HYPERPLANE_VAR = Var(VarKind.SOURCE_HYPERPLANE)
TARGET_HYPERPLANE_VAR = Var(VarKind.TARGET_HYPERPLANE)
DEGREE_VAR = Var(VarKind.XI)  # the scalar symbol `d`


_LN = VarKind.LANDWEBER_NOVIKOV
_XI = VarKind.XI
_HYPERPLANE_KINDS = (VarKind.SOURCE_HYPERPLANE, VarKind.TARGET_HYPERPLANE)


def var_weight(v: Var, kappa: int | None = None) -> int:
    """Grading weight of a variable; Landweber-Novikov weights need kappa."""
    kind = v.kind
    if kind is _XI:
        return 0
    if kind is _LN:
        if kappa is None:
            raise RingMismatchError(
                "Landweber-Novikov variable used without a ring kappa"
            )
        return kappa + index_weight(v.index)
    if kind in _HYPERPLANE_KINDS:
        return 1
    return v.index[0]  # Chern classes


def var_label(v: Var) -> str:
    if v.kind in (VarKind.QUOTIENT_CHERN, VarKind.SOURCE_CHERN):
        return f"c{v.index[0]}"
    if v.kind is VarKind.LANDWEBER_NOVIKOV:
        return f"s{index_digits(v.index)}"
    if v.kind is VarKind.SOURCE_HYPERPLANE:
        return "at"
    if v.kind is VarKind.TARGET_HYPERPLANE:
        return "a"
    if not v.index:
        return "d"
    return f"xi{index_digits(v.index)}"


# ---------------------------------------------------------------------------
# monomials: packed integers
#
# A monomial is one int made of 16-bit fields.  Field 0 holds its weight
# without the kappa part, field 1 its number of Landweber-Novikov factors
# (each adds kappa to the weight) and field k + 2 the exponent of the
# variable interned in slot k, so the monomial is linear in its exponents:
# a product is a sum and a power a multiple.  The top bit of every field is
# a guard that valid monomials keep clear; the sum of two valid fields fits
# the field, so one mask test on a sum finds any overflow.  Slots follow
# first use, never the variable order: readers decode to sorted tuples.

_FIELD = 16
_MASK = (1 << _FIELD) - 1
EXPONENT_LIMIT = (1 << (_FIELD - 1)) - 1

_UNITS: dict = {}  # Var -> its packed monomial of exponent 1
_SLOT_VARS: list = []  # slot -> Var
_GUARD = (1 << (_FIELD - 1)) | (1 << (2 * _FIELD - 1))  # grows with the slots
_INTERN_LOCK = threading.Lock()
_DECODED: dict = {0: ()}  # packed monomial -> sorted (Var, exponent) tuple


def _overflow(what) -> ExponentOverflowError:
    return ExponentOverflowError(
        f"{what} exceeds the limit of {EXPONENT_LIMIT} for an exponent or a monomial weight"
    )


def _unit(v: Var) -> int:
    """The packed monomial of ``v``; interns ``v`` on first use."""
    unit = _UNITS.get(v)
    if unit is not None:
        return unit
    weight = var_weight(v, 0)
    if weight > EXPONENT_LIMIT:
        raise _overflow(f"weight {weight} of variable {var_label(v)}")
    global _GUARD
    with _INTERN_LOCK:
        unit = _UNITS.get(v)
        if unit is None:
            shift = _FIELD * (len(_SLOT_VARS) + 2)
            unit = (1 << shift) | (int(v.kind is _LN) << _FIELD) | weight
            _SLOT_VARS.append(v)
            _GUARD |= 1 << (shift + _FIELD - 1)
            _UNITS[v] = unit
    return unit


def _encode(pairs: Iterable) -> int:
    """Pack (Var, exponent) pairs, which may repeat a variable, validating them."""
    exps: dict = {}
    for v, e in pairs:
        if not isinstance(v, Var):
            raise TypeError(f"monomial factor {v!r} is not a Var")
        e = int(e)
        if e < 0:
            raise ValueError("negative exponent in monomial")
        if e:
            exps[v] = exps.get(v, 0) + e
    mono = weight = ln = 0
    for v, e in exps.items():
        if e > EXPONENT_LIMIT:
            raise _overflow(f"exponent {e} of {var_label(v)}")
        unit = _unit(v)
        weight += e * (unit & _MASK)
        ln += e * (unit >> _FIELD & _MASK)
        if weight > EXPONENT_LIMIT or ln > EXPONENT_LIMIT:
            raise _overflow("monomial weight")
        mono += e * unit
    return mono


def _decode(mono: int) -> tuple:
    """Sorted (Var, exponent) pairs of a packed monomial."""
    pairs = _DECODED.get(mono)
    if pairs is None:
        found = []
        rest, slot = mono >> (2 * _FIELD), 0
        while rest:
            e = rest & _MASK
            if e:
                found.append((_SLOT_VARS[slot], e))
            rest >>= _FIELD
            slot += 1
        pairs = _DECODED[mono] = tuple(sorted(found))
    return pairs


def _weight(mono: int, kappa: int | None) -> int:
    if kappa:
        return (mono & _MASK) + kappa * (mono >> _FIELD & _MASK)
    return mono & _MASK


def _has_ln(terms) -> bool:
    return bool(reduce(or_, terms, 0) >> _FIELD & _MASK)


def _check_fields(terms) -> None:
    """Raise if any packed monomial among ``terms`` overflowed a field."""
    if reduce(or_, terms, 0) & _GUARD:
        raise _overflow("product monomial")


def _product(left: Mapping, right: Mapping, cap: int | None, kappa: int | None) -> dict:
    """Term dict of the product of two term dicts, skipping terms above ``cap``.

    Zero coefficients from cancellation are kept; building the polynomial
    drops them.
    """
    acc: dict = {}
    get = acc.get
    if cap is None:
        pairs = right.items()
        for m1, c1 in left.items():
            for m2, c2 in pairs:
                mono = m1 + m2
                acc[mono] = get(mono, 0) + c1 * c2
    else:
        # weights add under multiplication, so over-cap products are skipped
        if kappa:
            weighed = [(m2, c2, (m2 & _MASK) + kappa * (m2 >> _FIELD & _MASK))
                       for m2, c2 in right.items()]
        else:
            weighed = [(m2, c2, m2 & _MASK) for m2, c2 in right.items()]
        for m1, c1 in left.items():
            room = cap - _weight(m1, kappa)
            for m2, c2, w2 in weighed:
                if w2 <= room:
                    mono = m1 + m2
                    acc[mono] = get(mono, 0) + c1 * c2
    _check_fields(acc)
    return acc


Coefficient = Union[int, Fraction]


def _coefficient(value) -> Coefficient:
    """An exact number as ``int`` if integral, else as Fraction; floats are refused."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"coefficient {value!r} is a float; pass an int or a Fraction")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _join_kappa(k1: int | None, k2: int | None) -> int | None:
    if k1 is None:
        return k2
    if k2 is None or k2 == k1:
        return k1
    raise RingMismatchError(f"mixing rings with kappa={k1} and kappa={k2}")


def _join_cap(c1: int | None, c2: int | None) -> int | None:
    if c1 is None:
        return c2
    if c2 is None:
        return c1
    return min(c1, c2)


# ---------------------------------------------------------------------------
# polynomials


class GradedPolynomial:
    """Sparse multivariate polynomial with weighted variables.

    ``terms`` maps monomials (iterables of ``(Var, exponent)`` pairs) to
    coefficients; they are stored packed, as nonzero ``int`` numerators over
    one positive ``int`` denominator ``_den`` in lowest terms (1 for the zero
    polynomial).  ``cap`` is an
    optional weight bound: terms above it are dropped at construction and the
    bound propagates through arithmetic as the minimum of the operand caps.
    ``kappa`` is stored exactly when a Landweber-Novikov variable occurs and
    is required to weigh such terms; it is normalised to ``None`` otherwise.

    Equality compares the stored terms and denominator only (a cap is
    bookkeeping about how much of a series is known, not part of the value);
    comparison against plain integers and Fractions works for constants.
    """

    __slots__ = ("_terms", "_den", "cap", "kappa")

    def __init__(
        self,
        terms: Mapping | Iterable | None = None,
        *,
        cap: int | None = None,
        kappa: int | None = None,
    ):
        items = terms.items() if isinstance(terms, (dict, Mapping)) else (terms or ())
        acc: dict = {}
        den = 1  # the lcm of the denominators of the Fraction coefficients
        for mono, coeff in items:
            coeff = _coefficient(coeff)
            if not coeff:
                continue
            if type(coeff) is not int:
                den = lcm(den, coeff.denominator)
            mono = _encode(mono)
            new = acc.get(mono, 0) + coeff
            if new:
                acc[mono] = new
            else:
                acc.pop(mono, None)
        if kappa is None and _has_ln(acc):
            raise RingMismatchError(
                "polynomial with Landweber-Novikov variables needs a kappa"
            )
        if cap is not None:
            cap = int(cap)
            if cap < 0:
                raise ValueError("weight cap must be non-negative")
        if den != 1:
            acc = {m: c.numerator * (den // c.denominator) for m, c in acc.items()}
        built = _build(acc, den, cap, kappa)
        _set_terms(self, built._terms)
        _set_den(self, built._den)
        _set_cap(self, cap)
        _set_kappa(self, built.kappa)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("GradedPolynomial is immutable")

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator:
        """(monomial, coefficient) pairs: sorted (Var, exponent) tuples, int or Fraction."""
        den = self._den
        return ((_decode(m), Fraction(c, den) if c % den else c // den)
                for m, c in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: Iterable) -> Fraction:
        return Fraction(self._terms.get(_encode(mono), 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        terms = self._terms
        return len(terms) < 2 and (not terms or 0 in terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return Fraction(self._terms.get(0, 0), self._den)

    def variables(self) -> set:
        return {v for mono in self._terms for v, _ in _decode(mono)}

    def component(self, weight: int) -> "GradedPolynomial":
        """The homogeneous part of the given total weight (possibly zero)."""
        kappa = self.kappa
        ts = {m: c for m, c in self._terms.items() if _weight(m, kappa) == weight}
        return _build(ts, self._den, self.cap, kappa, True)

    def is_homogeneous(self, weight: int) -> bool:
        return all(_weight(m, self.kappa) == weight for m in self._terms)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedPolynomial):
            return self._den == other._den and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return (self._den == other.denominator
                    and self._terms == ({0: other.numerator} if other else {}))
        return NotImplemented

    def _plus(self, other, subtract: bool) -> "GradedPolynomial":
        """self + other, or self - other when ``subtract``."""
        if isinstance(other, GradedPolynomial):
            right, rden, kappa = other._terms, other._den, other.kappa
            cap = _join_cap(self.cap, other.cap)
            capped = self.cap == other.cap
        elif isinstance(other, (int, Fraction)):
            right, rden, kappa = {0: other.numerator} if other else {}, other.denominator, None
            cap, capped = self.cap, True
        else:
            return NotImplemented
        terms, den = self._terms, self._den
        kappa = _join_kappa(self.kappa, kappa)
        scale = -1 if subtract else 1
        if den == rden:
            acc = dict(terms)
        else:  # both sides over their lcm
            common = lcm(den, rden)
            acc = {m: c * (common // den) for m, c in terms.items()}
            den, scale = common, scale * (common // rden)
        get = acc.get
        for mono, coeff in right.items():
            acc[mono] = get(mono, 0) + scale * coeff
        return _build(acc, den, cap, kappa, capped)

    def __add__(self, other) -> "GradedPolynomial":
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> "GradedPolynomial":
        return _times(self, -1, 1, self.cap, True)

    def __sub__(self, other) -> "GradedPolynomial":
        return self._plus(other, True)

    def __rsub__(self, other) -> "GradedPolynomial":
        return (-self)._plus(other, False)

    def __mul__(self, other) -> "GradedPolynomial":
        if not isinstance(other, GradedPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return _times(self, other.numerator, other.denominator, self.cap, True)
        cap = _join_cap(self.cap, other.cap)
        kappa = _join_kappa(self.kappa, other.kappa)
        return _build(_product(self._terms, other._terms, cap, kappa),
                      self._den * other._den, cap, kappa, True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GradedPolynomial":
        if isinstance(other, GradedPolynomial):
            if not other.is_constant():
                raise ValueError("can only divide by a nonzero constant")
            num, den = other._terms.get(0, 0), other._den
        elif isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
        else:
            return NotImplemented
        if not num:
            raise ZeroDivisionError("division of polynomial by zero")
        return _times(self, -den if num < 0 else den, abs(num), self.cap, True)

    def __pow__(self, power: int) -> "GradedPolynomial":
        power = int(power)
        if power < 0:
            raise ValueError("negative powers are not defined here")
        if power and len(self._terms) == 1:  # a single term: scale its exponents
            (mono, coeff), = self._terms.items()
            top = max(mono & _MASK, mono >> _FIELD & _MASK, *(e for _, e in _decode(mono)))
            if top * power > EXPONENT_LIMIT:
                raise _overflow(f"power {power} of a monomial with exponent or weight {top}")
            return _build({mono * power: coeff ** power}, self._den ** power, self.cap, self.kappa)
        result = _build({0: 1}, 1, self.cap)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def truncated(self, cap: int | None) -> "GradedPolynomial":
        if cap == self.cap:
            return self
        if cap is not None:
            cap = int(cap)
            if cap < 0:
                raise ValueError("weight cap must be non-negative")
        capped = cap is None or (self.cap is not None and cap >= self.cap)
        return _build(self._terms, self._den, cap, self.kappa, capped)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"GradedPolynomial({render(self)})"


# slot setters, bypassing the immutability guard of __setattr__
_set_terms = GradedPolynomial._terms.__set__
_set_den = GradedPolynomial._den.__set__
_set_cap = GradedPolynomial.cap.__set__
_set_kappa = GradedPolynomial.kappa.__set__
_new = object.__new__


def _build(
    terms: Mapping, den: int = 1, cap: int | None = None, kappa: int | None = None,
    capped: bool = False,
) -> GradedPolynomial:
    """A polynomial from packed terms, as arithmetic produces them, unvalidated.

    ``terms`` maps packed monomials to int numerators over the positive int
    ``den``.  Zero numerators are dropped, terms above ``cap`` dropped (unless
    ``capped`` says none are), the fraction brought to lowest terms and kappa
    normalised as in the public constructor.  The caller hands ``terms`` over:
    a dict with nothing to drop becomes the polynomial's own, uncopied.
    """
    if capped or cap is None:
        acc = terms if 0 not in terms.values() else {m: c for m, c in terms.items() if c}
    elif kappa:
        acc = {m: c for m, c in terms.items()
               if c and (m & _MASK) + kappa * (m >> _FIELD & _MASK) <= cap}
    else:
        acc = {m: c for m, c in terms.items() if c and m & _MASK <= cap}
    if den != 1:
        # reduce, not gcd(*...): argument tuples built per call pile up in the
        # interpreter's tuple free lists and raise the process's peak memory
        common = reduce(gcd, acc.values(), den)
        if common != 1:
            den //= common
            acc = {m: c // common for m, c in acc.items()}
    # dropping terms may remove the last LN variable; renormalise
    if kappa is not None and not _has_ln(acc):
        kappa = None
    p = _new(GradedPolynomial)
    _set_terms(p, acc)
    _set_den(p, den)
    _set_cap(p, cap)
    _set_kappa(p, kappa)
    return p


def _times(p: GradedPolynomial, num: int, den: int, cap: int | None,
           capped: bool) -> GradedPolynomial:
    """p * num/den, for ints with ``den`` positive, capped at ``cap``."""
    return _build({m: c * num for m, c in p._terms.items()}, p._den * den, cap, p.kappa, capped)


def constant(value: Coefficient) -> GradedPolynomial:
    return GradedPolynomial({(): value})


ONE = constant(1)


def atom(v: Var, *, kappa: int | None = None, cap: int | None = None) -> GradedPolynomial:
    """The polynomial consisting of a single variable."""
    return GradedPolynomial({((v, 1),): 1}, kappa=kappa, cap=cap)


def lift(value) -> GradedPolynomial:
    """Coerce a number into the scalar ring; pass polynomials through."""
    if isinstance(value, GradedPolynomial):
        return value
    return constant(value)


def degree_symbol() -> GradedPolynomial:
    return atom(DEGREE_VAR)


def xi_scalar(index: Iterable[int]) -> GradedPolynomial:
    return atom(xi_symbol(index))


# ---------------------------------------------------------------------------
# Gysin maps: the one place monomials are split

_SPLITS: dict = {}  # (Chern kind, hyperplane var) -> {monomial: its split}


def _split(mono: int, chern_kind: VarKind | None, hyperplane_var: Var) -> tuple:
    """(Chern multi-index, hyperplane power, weight, packed scalar part)."""
    hyperplane_kind = hyperplane_var.kind
    exps: dict = {}
    power = scalar = 0
    for v, e in _decode(mono):
        if v.kind is chern_kind:
            exps[v.index[0]] = e
        elif v.kind is hyperplane_kind:
            power = e
        elif v.kind is _XI:
            scalar += e * _UNITS[v]
        else:
            raise RingMismatchError(f"variable {var_label(v)} does not belong to this ring")
    index = tuple(exps.get(k, 0) for k in range(1, max(exps) + 1)) if exps else ()
    return index, power, mono & _MASK, scalar


def gysin_map(
    p: GradedPolynomial,
    chern_kind: VarKind | None,
    hyperplane_var: Var,
    image,
    *,
    target_var: Var | None = None,
    cap: int | None = None,
) -> GradedPolynomial:
    """Map p term by term, linearly over the scalar symbols.

    Each term of p is coeff * c_I * h^j * s: a Chern monomial c_I of family
    ``chern_kind`` (None when no Chern family belongs to the ring), a power
    of ``hyperplane_var`` and scalar symbols s; any other variable raises
    :class:`RingMismatchError`.  ``image(I, j, w)``, where w = weight(I) + j,
    returns a pair (value, k) for the term to become coeff * s * value *
    target_var^k, or None to drop the term.  The result is capped at
    ``cap``.
    """
    splits = _SPLITS.setdefault((chern_kind, hyperplane_var), {})
    target = 0 if target_var is None else _unit(target_var)
    hits = []  # (numerator, image value, monomial shift)
    kappa = None
    for mono, coeff in p._terms.items():
        part = splits.get(mono)
        if part is None:
            part = splits[mono] = _split(mono, chern_kind, hyperplane_var)
        index, power, weight, scalar = part
        got = image(index, power, weight)
        if got is None:
            continue
        value, k = got
        kappa = _join_kappa(kappa, value.kappa)
        hits.append((coeff, value, scalar + k * target))
    # accumulate over the lcm of the image denominators
    den = reduce(lcm, (value._den for _, value, _ in hits), 1)
    acc: dict = {}
    get = acc.get
    for coeff, value, shift in hits:
        if value._den != den:
            coeff *= den // value._den
        for m, c in value._terms.items():
            m += shift
            acc[m] = get(m, 0) + coeff * c
    _check_fields(acc)
    return _build(acc, p._den * den, cap, kappa)


def hyperplane_coefficient(p: GradedPolynomial, hyperplane_var: Var,
                           power: int) -> GradedPolynomial:
    """Scalar coefficient of hyperplane_var^power; other non-scalar variables raise."""
    return gysin_map(p, None, hyperplane_var,
                     lambda index, exp, weight: (ONE, 0) if exp == power else None)


# ---------------------------------------------------------------------------
# series operations


def invert_unit_series(p: GradedPolynomial, cap: int) -> GradedPolynomial:
    """Formal inverse of a series with constant term 1, up to the weight cap.

    The result q satisfies p*q = 1 modulo terms of weight > cap.
    """
    cap = int(cap)
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if p.component(0) != ONE:
        raise NonUnitSeriesError("series is not invertible: constant term is not 1")
    rest = (ONE - p).truncated(cap)
    result = ONE.truncated(cap)
    power = ONE.truncated(cap)
    for _ in range(cap):
        power = (power * rest).truncated(cap)
        if power.is_zero():
            break
        result = result + power
    return result.truncated(cap)


def substitute(
    p: GradedPolynomial,
    assignment: Mapping,
    cap: int | None = None,
) -> GradedPolynomial:
    """Ring substitution: replace variables of p by polynomial images.

    Every non-scalar variable occurring in p must be assigned (scalar ``xi``
    symbols pass through untouched unless explicitly remapped).  The result
    is truncated to ``cap`` when given, otherwise to the tightest cap among
    p and the images.  Each image is read as the polynomial it stores,
    truncated at that one cap before its powers are taken, and every product
    is truncated at it too, so the result does not depend on factor order.
    """
    images = {v: lift(img) for v, img in assignment.items()}
    if cap is None:
        caps = [c for c in [p.cap] + [img.cap for img in images.values()] if c is not None]
        cap = min(caps) if caps else None
    images = {v: img.truncated(cap) for v, img in images.items()}
    powers: dict = {}  # (variable, exponent) -> image ** exponent
    hits = []  # (numerator, product terms, product denominator)
    kappa = None
    for mono, coeff in p._terms.items():
        term, den = None, 1
        for factor in _decode(mono):
            power = powers.get(factor)
            if power is None:
                v, e = factor
                if v in images:
                    image = images[v]
                elif v.kind is _XI:
                    image = atom(v)
                else:
                    raise IncompleteSubstitutionError(
                        f"no image supplied for variable {var_label(v)}"
                    )
                power = powers[factor] = image if e == 1 else image ** e
            kappa = _join_kappa(kappa, power.kappa)
            # the first factor needs no products; its image is already at cap
            term = power._terms if term is None else _product(term, power._terms, cap, kappa)
            den *= power._den
        hits.append((coeff, {0: 1} if term is None else term, den))
    # accumulate over the lcm of the term denominators
    common = reduce(lcm, (den for _, _, den in hits), 1)
    acc: dict = {}
    get = acc.get
    for coeff, term, den in hits:
        if den != common:
            coeff *= common // den
        for m, c in term.items():
            acc[m] = get(m, 0) + coeff * c
    return _build(acc, p._den * common, cap, kappa, True)


# ---------------------------------------------------------------------------
# canonical text form


def render(p: GradedPolynomial) -> str:
    """Deterministic rendering; this is the golden-file format.

    Terms are sorted by (weight, monomial); coefficients print as integers
    or ``p/q``; variables print as ``c1, s01, xi1, d, a, at``.
    """
    if p.is_zero():
        return "0"
    pieces = []
    den = p._den
    terms = sorted((_weight(m, p.kappa), _decode(m), c) for m, c in p._terms.items())
    for _, mono, coeff in terms:
        body = "*".join(
            var_label(v) if e == 1 else f"{var_label(v)}^{e}" for v, e in mono
        )
        common = gcd(coeff, den)
        text = str(abs(coeff) // common) + ("" if den == common else f"/{den // common}")
        if body:
            text = body if text == "1" else f"{text}*{body}"
        if not pieces:
            pieces.append(f"-{text}" if coeff < 0 else text)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{text}")
    return "".join(pieces)


_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")
_VAR_RE = re.compile(r"^([a-z]+?)(\d*)(?:\^(\d+))?$")
_CHUNK_RE = re.compile(r"([+-])\s*([^+-]+)")


def _var_from_token(name: str, digits: str) -> Var:
    if name == "c" and digits:
        return Var(VarKind.QUOTIENT_CHERN, (int(digits),))
    if name == "s":
        return landweber_novikov(int(ch) for ch in digits or "0")
    if name == "xi" and digits:
        return xi_symbol(int(ch) for ch in digits)
    if name == "at" and not digits:
        return SOURCE_HYPERPLANE_VAR
    if name == "a" and not digits:
        return TARGET_HYPERPLANE_VAR
    if name == "d" and not digits:
        return DEGREE_VAR
    raise ValueError(f"unknown variable token {name + digits!r}")


def parse(
    text: str,
    *,
    cap: int | None = None,
    kappa: int | None = None,
) -> GradedPolynomial:
    """Parse the canonical rendering back into a polynomial.

    Plain ``c<k>`` tokens are quotient Chern classes, as in the catalogue.
    """
    s = text.strip()
    if s == "0":
        return GradedPolynomial(cap=cap, kappa=kappa)
    if not s.startswith(("+", "-")):
        s = "+" + s
    compact = s.replace(" ", "")
    covered = []
    terms = []
    for sign, body in _CHUNK_RE.findall(s):
        covered.append(sign + body.replace(" ", ""))
        body = body.strip()
        if not body:
            raise ValueError(f"empty term in {text!r}")
        coeff = Fraction(-1 if sign == "-" else 1)
        factors = []
        for i, tok in enumerate(body.split("*")):
            tok = tok.strip()
            if i == 0 and _COEFF_RE.match(tok):
                try:
                    coeff *= Fraction(tok)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {tok!r} of {text!r}") from None
                continue
            m = _VAR_RE.match(tok)
            if not m:
                raise ValueError(f"bad factor {tok!r} in {text!r}")
            name, digits, exp = m.groups()
            factors.append((_var_from_token(name, digits), int(exp or 1)))
        terms.append((factors, coeff))
    if "".join(covered) != compact:
        raise ValueError(f"could not parse {text!r}")
    return GradedPolynomial(terms, cap=cap, kappa=kappa)


# ---------------------------------------------------------------------------
# universal classes


class _AbstractClassFields(NamedTuple):
    name: str
    kappa: int
    codim: int
    body: GradedPolynomial
    valid_to_weight: int | None = None


class AbstractClass(_AbstractClassFields):
    """A universal polynomial in quotient Chern and Landweber-Novikov classes.

    ``codim`` is the codimension of the locus the class describes; for exact
    entries ``valid_to_weight`` is None, for truncated Euler-characteristic
    series it is the highest weight the stored expansion is good for.
    """

    __slots__ = ()

    def __new__(cls, name: str, kappa: int, codim: int, body: GradedPolynomial,
                valid_to_weight: int | None = None):
        if body.kappa is not None and body.kappa != kappa:
            raise RingMismatchError(f"{name}: body kappa {body.kappa} != declared {kappa}")
        return super().__new__(cls, name, kappa, codim, body, valid_to_weight)
