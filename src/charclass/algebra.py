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
``int`` when integral and as :class:`fractions.Fraction` otherwise, so every
value has one stored form; floats are refused with :class:`TypeError` and
nothing here ever rounds.

All values are immutable after construction and every operation is pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

MultiIndex = tuple  # tuple[int, ...], trailing zeros trimmed

class RingMismatchError(ValueError):
    """Operands use Landweber-Novikov variables with different kappa."""


class NonUnitSeriesError(ValueError):
    """Formal inversion was asked of a series whose constant term is not 1."""


class IncompleteSubstitutionError(ValueError):
    """A substitution left a non-scalar variable unassigned."""


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


def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    top = max_part if max_part is not None else n
    for k in range(min(n, top), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def chern_indices(max_weight: int) -> list:
    """All multi-indices of weight <= max_weight, the empty index included.

    These index the Chern monomials c_1^{i_1} c_2^{i_2} ... that can carry a
    nonzero degree on a manifold of the given dimension.
    """
    out = [()]
    for w in range(1, max_weight + 1):
        for part in _partitions(w):
            exps = [0] * max(part)
            for k in part:
                exps[k - 1] += 1
            out.append(tuple(exps))
    return sorted(set(out), key=lambda i: (index_weight(i), i))


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
# monomials: sorted tuples of (Var, exponent) pairs, exponents >= 1

Monomial = tuple  # tuple[tuple[Var, int], ...]


def _normalize_monomial(pairs: Iterable) -> Monomial:
    merged: dict = {}
    for v, e in pairs:
        if not isinstance(v, Var):
            raise TypeError(f"monomial factor {v!r} is not a Var")
        e = int(e)
        if e < 0:
            raise ValueError("negative exponent in monomial")
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def monomial_weight(mono: Monomial, kappa: int | None = None) -> int:
    total = 0
    for v, e in mono:
        total += var_weight(v, kappa) * e
    return total


def _monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _has_ln(terms) -> bool:
    return any(v.kind is _LN for mono in terms for v, _ in mono)


Coefficient = Union[int, Fraction]


def _coefficient(value) -> Coefficient:
    """The stored form of an exact number: ``int`` if integral, else Fraction."""
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

    ``terms`` maps canonical monomials to nonzero coefficients, stored as
    ``int`` when integral and as Fraction otherwise.  ``cap`` is an
    optional weight bound: terms above it are dropped at construction and the
    bound propagates through arithmetic as the minimum of the operand caps.
    ``kappa`` is stored exactly when a Landweber-Novikov variable occurs and
    is required to weigh such terms; it is normalised to ``None`` otherwise.

    Equality compares the stored terms only (a cap is bookkeeping about how
    much of a series is known, not part of the value); comparison against
    plain integers and Fractions works for constants.
    """

    __slots__ = ("_terms", "cap", "kappa")

    def __init__(
        self,
        terms: Mapping | Iterable | None = None,
        *,
        cap: int | None = None,
        kappa: int | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        acc: dict = {}
        for mono, coeff in items:
            coeff = _coefficient(coeff)
            if not coeff:
                continue
            mono = _normalize_monomial(mono)
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
        self._fill(acc, cap, kappa, cap is None)

    @classmethod
    def _trusted(
        cls, terms: Mapping, cap: int | None = None, kappa: int | None = None,
        capped: bool = False,
    ) -> "GradedPolynomial":
        """Build from terms that are already canonical, skipping validation.

        ``terms`` maps canonical monomials to int or Fraction coefficients,
        as the results of arithmetic on polynomials do.  Zero coefficients
        are dropped, integral Fractions stored as int, terms above ``cap``
        dropped (unless ``capped`` says none are) and kappa normalised as in
        the public constructor.
        """
        self = object.__new__(cls)
        self._fill(terms, cap, kappa, capped or cap is None)
        return self

    def _fill(self, terms: Mapping, cap: int | None, kappa: int | None, capped: bool) -> None:
        acc = {m: c.numerator if c.denominator == 1 else c for m, c in terms.items() if c}
        if not capped:
            acc = {m: c for m, c in acc.items() if monomial_weight(m, kappa) <= cap}
        # dropping terms may remove the last LN variable; renormalise
        if kappa is not None and not _has_ln(acc):
            kappa = None
        _set_terms(self, acc)
        _set_cap(self, cap)
        _set_kappa(self, kappa)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("GradedPolynomial is immutable")

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: Iterable) -> Fraction:
        return Fraction(self._terms.get(_normalize_monomial(mono), 0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return Fraction(self._terms.get((), 0))

    def variables(self) -> set:
        return {v for mono in self._terms for v, _ in mono}

    def weight_components(self) -> dict:
        """Decompose into homogeneous parts, keyed by weight."""
        parts: dict = {}
        for mono, coeff in self._terms.items():
            parts.setdefault(monomial_weight(mono, self.kappa), {})[mono] = coeff
        return {
            w: GradedPolynomial._trusted(ts, self.cap, self.kappa, True)
            for w, ts in sorted(parts.items())
        }

    def component(self, weight: int) -> "GradedPolynomial":
        """The homogeneous part of the given total weight (possibly zero)."""
        ts = {
            m: c
            for m, c in self._terms.items()
            if monomial_weight(m, self.kappa) == weight
        }
        return GradedPolynomial._trusted(ts, self.cap, self.kappa, True)

    def is_homogeneous(self, weight: int) -> bool:
        return all(
            monomial_weight(m, self.kappa) == weight for m in self._terms
        )

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedPolynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({(): other} if other else {})
        return NotImplemented

    def _plus(self, other, sign: int) -> "GradedPolynomial":
        """self + sign * other, for sign 1 or -1."""
        if not isinstance(other, GradedPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            acc = dict(self._terms)
            acc[()] = acc.get((), 0) + sign * other
            return GradedPolynomial._trusted(acc, self.cap, self.kappa, True)
        kappa = _join_kappa(self.kappa, other.kappa)
        acc = dict(self._terms)
        get = acc.get
        for mono, coeff in other._terms.items():
            acc[mono] = get(mono, 0) + (coeff if sign > 0 else -coeff)
        return GradedPolynomial._trusted(
            acc, _join_cap(self.cap, other.cap), kappa, self.cap == other.cap
        )

    def __add__(self, other) -> "GradedPolynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial._trusted(
            {m: -c for m, c in self._terms.items()}, self.cap, self.kappa, True
        )

    def __pos__(self) -> "GradedPolynomial":
        return self

    def __sub__(self, other) -> "GradedPolynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "GradedPolynomial":
        return (-self)._plus(other, 1)

    def __mul__(self, other) -> "GradedPolynomial":
        if not isinstance(other, GradedPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return GradedPolynomial._trusted(
                {m: c * other for m, c in self._terms.items()}, self.cap, self.kappa, True
            )
        kappa = _join_kappa(self.kappa, other.kappa)
        cap = _join_cap(self.cap, other.cap)
        left, right = self._terms, other._terms
        if len(right) == 1 and () in right:  # scaling by a constant
            k = right[()]
            acc = {m: c * k for m, c in left.items()}
            return GradedPolynomial._trusted(acc, cap, kappa, self.cap == cap)
        if len(left) == 1 and () in left:
            k = left[()]
            acc = {m: k * c for m, c in right.items()}
            return GradedPolynomial._trusted(acc, cap, kappa, other.cap == cap)
        acc = {}
        get = acc.get
        if cap is None:
            pairs = right.items()
            for m1, c1 in left.items():
                for m2, c2 in pairs:
                    mono = _monomial_mul(m1, m2)
                    acc[mono] = get(mono, 0) + c1 * c2
        else:
            # weights add under multiplication, so over-cap products are skipped
            weighed = [(m2, c2, monomial_weight(m2, kappa)) for m2, c2 in right.items()]
            for m1, c1 in left.items():
                room = cap - monomial_weight(m1, kappa)
                for m2, c2, w2 in weighed:
                    if w2 <= room:
                        mono = _monomial_mul(m1, m2)
                        acc[mono] = get(mono, 0) + c1 * c2
        return GradedPolynomial._trusted(acc, cap, kappa, True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GradedPolynomial":
        if isinstance(other, GradedPolynomial):
            if not other.is_constant():
                raise ValueError("can only divide by a nonzero constant")
            other = other.constant_value()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, power: int) -> "GradedPolynomial":
        power = int(power)
        if power < 0:
            raise ValueError("negative powers are not defined here")
        if power and len(self._terms) == 1:  # a single term: scale its exponents
            (mono, coeff), = self._terms.items()
            mono = tuple((v, e * power) for v, e in mono)
            return GradedPolynomial._trusted({mono: coeff ** power}, self.cap, self.kappa)
        result = GradedPolynomial._trusted({(): 1}, self.cap, None, True)
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
        return GradedPolynomial._trusted(self._terms, cap, self.kappa, capped)

    def sorted_items(self) -> list:
        """Terms in canonical order: by total weight, then by monomial."""
        return sorted(
            self._terms.items(),
            key=lambda kv: (monomial_weight(kv[0], self.kappa), kv[0]),
        )

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"GradedPolynomial({render(self)})"


# slot setters, bypassing the immutability guard of __setattr__
_set_terms = GradedPolynomial._terms.__set__
_set_cap = GradedPolynomial.cap.__set__
_set_kappa = GradedPolynomial.kappa.__set__


def constant(value: Coefficient) -> GradedPolynomial:
    return GradedPolynomial({(): value})


ZERO = GradedPolynomial()
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


def split_term(mono: Monomial, coeff: Coefficient, chern_kind: VarKind | None,
               hyperplane_var: Var) -> tuple:
    """Split one term as (Chern multi-index, hyperplane power, scalar).

    The term is c_I * h^j * (scalar symbols) * coeff, with the c_k of family
    ``chern_kind`` (None when no Chern family belongs to the ring) and h the
    ``hyperplane_var``.  The returned scalar polynomial carries ``coeff``.
    Any other variable raises :class:`ValueError`.
    """
    hyperplane_kind = hyperplane_var.kind
    exps: dict = {}
    power = 0
    scalars = []
    for v, e in mono:
        if v.kind is chern_kind:
            exps[v.index[0]] = e
        elif v.kind is hyperplane_kind:
            power = e
        elif v.kind is _XI:
            scalars.append((v, e))
        else:
            raise ValueError(f"variable {var_label(v)} does not belong to this ring")
    index = tuple(exps.get(k, 0) for k in range(1, max(exps) + 1)) if exps else ()
    return index, power, GradedPolynomial._trusted({tuple(scalars): coeff})


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
    p and the images.
    """
    images = {v: lift(img) for v, img in assignment.items()}
    if cap is None:
        caps = [c for c in [p.cap] + [img.cap for img in images.values()] if c is not None]
        cap = min(caps) if caps else None
    powers: dict = {}  # (variable, exponent) -> image ** exponent
    acc: dict = {}
    kappa = None
    for mono, coeff in p.items():
        term = GradedPolynomial._trusted({(): coeff})
        for factor in mono:
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
            term = (term * power).truncated(cap)
        kappa = _join_kappa(kappa, term.kappa)
        for m, c in term._terms.items():
            acc[m] = acc.get(m, 0) + c
    return GradedPolynomial._trusted(acc, cap, kappa, True)


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
    for mono, coeff in p.sorted_items():
        body = "*".join(
            var_label(v) if e == 1 else f"{var_label(v)}^{e}" for v, e in mono
        )
        mag = abs(coeff)
        if body:
            text = body if mag == 1 else f"{mag}*{body}"
        else:
            text = str(mag)
        if not pieces:
            pieces.append(f"-{text}" if coeff < 0 else text)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{text}")
    return "".join(pieces)


_COEFF_RE = re.compile(r"^\d+(?:/\d+)?$")
_VAR_RE = re.compile(r"^([a-z]+?)(\d*)(?:\^(\d+))?$")
_CHUNK_RE = re.compile(r"([+-])\s*([^+-]+)")


def _var_from_token(name: str, digits: str, chern: VarKind) -> Var:
    if name == "c" and digits:
        return Var(chern, (int(digits),))
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
    chern: VarKind = VarKind.QUOTIENT_CHERN,
    cap: int | None = None,
    kappa: int | None = None,
) -> GradedPolynomial:
    """Parse the canonical rendering back into a polynomial.

    ``chern`` selects which family plain ``c<k>`` tokens belong to; table
    entries use quotient classes, source-manifold expressions use
    ``VarKind.SOURCE_CHERN``.
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
                coeff *= Fraction(tok)
                continue
            m = _VAR_RE.match(tok)
            if not m:
                raise ValueError(f"bad factor {tok!r} in {text!r}")
            name, digits, exp = m.groups()
            factors.append((_var_from_token(name, digits, chern), int(exp or 1)))
        terms.append((tuple(factors), coeff))
    if "".join(covered) != compact:
        raise ValueError(f"could not parse {text!r}")
    acc: dict = {}
    for mono, coeff in terms:
        mono = _normalize_monomial(mono)
        acc[mono] = acc.get(mono, 0) + coeff
    return GradedPolynomial(acc, cap=cap, kappa=kappa)


# ---------------------------------------------------------------------------
# universal classes


@dataclass(frozen=True)
class AbstractClass:
    """A universal polynomial in quotient Chern and Landweber-Novikov classes.

    ``codim`` is the codimension of the locus the class describes; for exact
    entries ``valid_to_weight`` is None, for truncated Euler-characteristic
    series it is the highest weight the stored expansion is good for.
    """

    name: str
    kappa: int
    codim: int
    body: GradedPolynomial
    valid_to_weight: int | None = None

    def __post_init__(self):
        if self.body.kappa is not None and self.body.kappa != self.kappa:
            raise RingMismatchError(
                f"{self.name}: body kappa {self.body.kappa} != declared {self.kappa}"
            )
