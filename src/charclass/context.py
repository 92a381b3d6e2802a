"""Intersection-theory contexts for maps into projective space.

A :class:`MapContext` packages the data of a finite map f from a smooth
m-fold M onto its image in P^n: the dimensions plus the table of degrees of
pushed-forward Chern monomials of TM,

    xi(I) = degree of f_*( c_1(TM)^{i_1} c_2(TM)^{i_2} ... ),

with the empty index giving the degree d of the image.  That table is the
engine's only model of the cohomology of M; every computation reduces to
monomials in the c_k(TM) and the pulled-back hyperplane class.

Source-side classes are polynomials in source Chern classes and ``at``
(weight cap m), target-side classes are polynomials in ``a`` (weight cap n);
scalars may be exact rationals or polynomials in the ``d``/``xi`` symbols,
uniformly represented, so numeric and fully symbolic runs share one code
path.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import (
    AbstractClass,
    GradedPolynomial,
    MultiIndex,
    RingMismatchError,
    SOURCE_HYPERPLANE_VAR,
    TARGET_HYPERPLANE_VAR,
    VarKind,
    atom,
    chern_indices,
    constant,
    gysin_map,
    index_digits,
    index_weight,
    invert_unit_series,
    lift,
    source_chern,
    substitute,
    trim_index,
    var_label,
    xi_symbol,
)

Scalar = GradedPolynomial

SYMBOLIC = "symbolic"


class TruncationError(ValueError):
    """A truncated series was asked for more weight than it is valid to."""


def xi_label(index: MultiIndex) -> str:
    """Key naming for the degree table: ``d``, ``xi1``, ``xi01``, ..."""
    return "d" if not index else f"xi{index_digits(index)}"


def parse_xi_key(key) -> MultiIndex:
    if isinstance(key, str):
        if key == "d":
            return ()
        if key.startswith("xi") and key[2:].isdigit():
            return trim_index(int(ch) for ch in key[2:])
        raise ValueError(f"unknown degree-table key {key!r}")
    return trim_index(key)


_SHARED: dict = {}


def shared(key, build):
    """The process-wide value under ``key``, from ``build()`` on first use.

    For values of the dimensions alone, never of a degree table; the key
    names every dimension the value reads.  ``setdefault`` keeps one object
    per key even when two threads build it at once.
    """
    try:
        return _SHARED[key]
    except KeyError:
        return _SHARED.setdefault(key, build())


def source_chern_total(m: int) -> GradedPolynomial:
    """c(TM) = 1 + c_1 + ... + c_m of an m-fold, weight cap m."""
    return shared(("source_chern_total", m), lambda: sum(
        (atom(source_chern(k)) for k in range(1, m + 1)), constant(1)).truncated(m))


def quotient_chern_classes(m: int, n: int) -> list:
    """Quotient Chern classes c_1(f) ... c_m(f) of an m-fold mapped to P^n.

    The series quotient of the pulled-back target tangent classes by the
    source ones, (1 + at)^(n+1) * c(TM)^{-1}, truncated at weight m; entry
    k-1 of the list is homogeneous of weight k.
    """
    at = atom(SOURCE_HYPERPLANE_VAR, cap=m)
    total = (1 + at) ** (n + 1) * invert_unit_series(source_chern_total(m), m)
    return [total.component(k) for k in range(1, m + 1)]


def _check_scalar(value: GradedPolynomial, label: str) -> GradedPolynomial:
    bad = [v for v in value.variables() if v.kind is not VarKind.XI]
    if bad:
        raise ValueError(
            f"degree-table value for {label} contains non-scalar variables "
            f"{sorted(var_label(v) for v in bad)}"
        )
    return value


class MapContext:
    """The data of f: M^m -> P^n together with the Gysin calculus around it.

    Instances are immutable and all methods are pure.  Values derived from
    the constructor arguments alone are built once per instance and kept in
    one memo (see :meth:`memo`): the quotient Chern classes, each
    Landweber-Novikov class, each ``evaluate`` result (keyed on the catalogue
    entry object itself, which the memo holds), the projected context, and,
    through the pipelines, the surface or 3-fold character table.  ``at``,
    c(TM) and the quotient Chern monomial under each Landweber-Novikov class
    never read the degree table and are shared by all instances through
    :func:`shared`.  The quotient classes and ``evaluate`` results stay per
    instance although they depend on (m, n) alone: ``perfbench/selftest.py``
    needs ``invert_unit_series``, ``quotient_chern``, ``evaluate`` and
    ``substitute`` to run for each numeric table, and ``evaluate`` on a fresh
    context to call ``substitute``.  No memoised value refers back to its
    context, so a context is freed as soon as its last reference goes.
    """

    def __init__(self, source_dim: int, target_dim: int, xi: Mapping):
        m, n = int(source_dim), int(target_dim)
        if m < 1:
            raise ValueError("source dimension must be >= 1")
        if n < m:
            raise ValueError(f"target dimension {n} below source dimension {m}")
        required = chern_indices(m)
        table = {}
        for key, value in xi.items():
            index = parse_xi_key(key)
            if index in table:
                raise ValueError(f"duplicate degree-table entry for {xi_label(index)}")
            table[index] = _check_scalar(lift(value), xi_label(index))
        missing = [xi_label(i) for i in required if i not in table]
        if missing:
            raise ValueError(f"degree table is missing entries: {', '.join(missing)}")
        extra = [xi_label(i) for i in table if i not in required]
        if extra:
            raise ValueError(f"degree table has entries beyond weight {m}: {', '.join(extra)}")
        self._m = m
        self._n = n
        self._xi = table
        self._memo: dict = {}

    # -- basic data ---------------------------------------------------------

    @property
    def source_dim(self) -> int:
        return self._m

    @property
    def target_dim(self) -> int:
        return self._n

    @property
    def kappa(self) -> int:
        return self._n - self._m

    @property
    def xi(self) -> dict:
        return dict(self._xi)

    def xi_scalar(self, index) -> Scalar:
        return self._xi[parse_xi_key(index)]

    def is_numeric(self) -> bool:
        return all(v.is_constant() for v in self._xi.values())

    def __repr__(self) -> str:
        mode = "numeric" if self.is_numeric() else "symbolic"
        return f"MapContext({self._m} -> P^{self._n}, {mode})"

    def memo(self, key, build):
        """The value kept under ``key``, from ``build()`` on first use.

        For values that depend on this context alone; keys are names or
        tuples starting with one.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- source/target ring helpers ------------------------------------------

    def hyperplane(self) -> GradedPolynomial:
        """The pulled-back hyperplane class ``at`` in the source ring."""
        m = self._m
        return shared(("at", m), lambda: atom(SOURCE_HYPERPLANE_VAR, cap=m))

    # -- the calculus ---------------------------------------------------------

    def quotient_chern(self) -> list:
        """Quotient Chern classes c_1(f) ... c_m(f) as source classes."""
        return list(self.memo("quotient_chern", lambda: quotient_chern_classes(self._m, self._n)))

    def pushforward(self, x: GradedPolynomial) -> GradedPolynomial:
        """Gysin image of a source class in the target ring.

        Linear over scalars and hyperplane powers (projection formula): the
        monomial c_I(TM) * at^j goes to xi(I) * a^(weight(I) + j + kappa).
        Powers of ``a`` beyond the target dimension vanish.
        """
        n, kappa, xi = self._n, self.kappa, self._xi

        def image(index, hyper, weight):
            power = weight + kappa
            return (xi[index], power) if power <= n else None

        return gysin_map(x, VarKind.SOURCE_CHERN, SOURCE_HYPERPLANE_VAR, image,
                         target_var=TARGET_HYPERPLANE_VAR, cap=n)

    def pullback(self, y: GradedPolynomial) -> GradedPolynomial:
        """Pull a target class back to the source: a -> at, truncated at m."""
        return substitute(y, {TARGET_HYPERPLANE_VAR: self.hyperplane()}, cap=self._m)

    def landweber_novikov(self, index) -> GradedPolynomial:
        """s_I(f): the pushed-forward Chern monomial of quotient classes."""
        index = trim_index(index)
        if index_weight(index) + self.kappa > self._n:
            raise ValueError(
                f"s_{index_digits(index)} has weight beyond the target dimension"
            )

        def product():
            monomial = constant(1).truncated(self._m)
            for k, e in enumerate(index, start=1):
                if e:
                    monomial = monomial * self.quotient_chern()[k - 1] ** e
            return monomial

        key = ("quotient_monomial", self._m, self._n, index)
        return self.memo(("landweber_novikov", index),
                         lambda: self.pushforward(shared(key, product)))

    def evaluate(self, ac: AbstractClass) -> GradedPolynomial:
        """Instantiate a universal class on this map.

        Quotient Chern variables become the quotient classes of f and
        Landweber-Novikov variables the pullbacks of the corresponding
        pushed-forward classes; the result is a source class of weight cap m,
        built once per catalogue entry object.
        """
        if ac.kappa != self.kappa:
            raise RingMismatchError(
                f"class {ac.name} lives at kappa={ac.kappa}, context has {self.kappa}"
            )

        def build():
            body = ac.body.truncated(self._m)
            assignment = {}
            for v in body.variables():
                if v.kind is VarKind.QUOTIENT_CHERN:
                    assignment[v] = self.quotient_chern()[v.index[0] - 1]
                elif v.kind is VarKind.LANDWEBER_NOVIKOV:
                    assignment[v] = self.pullback(self.landweber_novikov(v.index))
            # the entry is kept with its value so that its id stays taken
            return ac, substitute(body, assignment, cap=self._m)

        return self.memo(("evaluate", id(ac)), build)[1]

    def integrate(self, x: GradedPolynomial) -> Scalar:
        """Degree of a source class: only the weight-m part contributes.

        Each top monomial c_I(TM) * at^(m - weight(I)) contributes its
        coefficient times xi(I); lighter monomials have no degree.
        """
        m, xi = self._m, self._xi
        return gysin_map(x, VarKind.SOURCE_CHERN, SOURCE_HYPERPLANE_VAR,
                         lambda index, hyper, weight: (xi[index], 0) if weight == m else None)

    def project(self) -> "MapContext":
        """Compose with a generic linear projection P^n -> P^(n-1).

        The degree table is intrinsic to (M, at): the projection takes this
        context's validated table as it is, without checking it again; the
        quotient classes pick up the smaller target exponent automatically.
        """
        if self.kappa == 0:
            raise ValueError("cannot project: relative codimension would become negative")

        def build():
            g = object.__new__(MapContext)
            g._m, g._n, g._xi, g._memo = self._m, self._n - 1, self._xi, {}
            return g

        return self.memo("project", build)

    def weighted_euler(self, series: AbstractClass) -> Scalar:
        """Euler characteristic of a locus: integrate c(TM) times the series.

        Refuses to run when the stored series is not valid up to weight m
        rather than silently truncating.
        """
        if series.valid_to_weight is not None and series.valid_to_weight < self._m:
            raise TruncationError(
                f"series {series.name} is valid to weight {series.valid_to_weight}, "
                f"needed {self._m}"
            )
        return self.integrate(source_chern_total(self._m) * self.evaluate(series))


def make_context(source_dim: int, target_dim: int, xi) -> MapContext:
    """Build a validated context; pass ``"symbolic"`` for the generic one.

    In symbolic mode every degree-table entry is its own scalar symbol, so
    all downstream results are exact polynomials in ``d`` and the ``xi``
    symbols.
    """
    m, n = int(source_dim), int(target_dim)
    if n <= m:
        raise ValueError(f"target dimension {n} must exceed source dimension {m}")
    if xi == SYMBOLIC:
        xi = {index: atom(xi_symbol(index)) for index in chern_indices(m)}
    return MapContext(m, n, xi)
