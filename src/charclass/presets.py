"""Built-in geometries with their degree tables derived in code.

Each preset computes its xi table from first principles rather than storing
bare numbers, so the derivation is auditable:

* Veronese presets: M = P^k embedded by the full quadric system and then
  projected generically.  The tangent classes of P^k are the binomial
  coefficients of (1+h)^(k+1) and the pulled-back hyperplane class is 2h,
  with h^k integrating to 1.
* Smooth-hypersurface presets: M of degree d inside P^(m+1), where
  adjunction gives c(TM) = (1+h)^(m+2) / (1+dh) restricted to M, the
  hyperplane class restricts to itself, and h^m integrates to d.  These are
  the degenerate inputs on which every multiple-point count must vanish.

The smooth presets accept a symbolic degree (pass ``degree=None``), in which
case the table entries are exact polynomials in the scalar symbol ``d``.
"""

from __future__ import annotations

from .algebra import (
    GradedPolynomial,
    SOURCE_HYPERPLANE_VAR,
    atom,
    chern_indices,
    constant,
    degree_symbol,
    hyperplane_coefficient,
    index_weight,
    invert_unit_series,
    lift,
)
from .context import MapContext, Scalar, make_context, xi_label


def _xi_from_line_data(
    m: int, tangent_total: GradedPolynomial, pullback_multiple: Scalar, top_degree: Scalar
) -> dict:
    """Degree table for a source whose classes live on a single h-line.

    With c_k(TM) = gamma_k h^k and the pulled-back hyperplane class e*h,
    the degree of f_*(c_I) is (prod of gamma_k^{i_k}) * e^(m - weight I)
    times the degree of h^m.
    """
    gammas = [hyperplane_coefficient(tangent_total, SOURCE_HYPERPLANE_VAR, k) for k in range(m + 1)]
    table = {}
    for index in chern_indices(m):
        value = constant(1)
        for k, e in enumerate(index, start=1):
            value = value * gammas[k] ** e
        table[xi_label(index)] = value * pullback_multiple ** (m - index_weight(index)) * top_degree
    return table


def veronese_xi(source_dim: int) -> dict:
    """Degree table of P^k re-embedded by quadrics."""
    m = int(source_dim)
    h = atom(SOURCE_HYPERPLANE_VAR, cap=m)
    tangent = (1 + h) ** (m + 1)
    return _xi_from_line_data(m, tangent, constant(2), constant(1))


def _adjunction(m: int, degree) -> tuple:
    """(d, h, c(TM)) of a smooth degree-d hypersurface M^m: c(TM) = (1+h)^(m+2)/(1+dh).

    ``degree=None`` keeps the degree as the scalar symbol ``d``.
    """
    d = degree_symbol() if degree is None else lift(degree)
    h = atom(SOURCE_HYPERPLANE_VAR, cap=m)
    return d, h, (1 + h) ** (m + 2) * invert_unit_series(1 + d * h, m)


def hypersurface_xi(source_dim: int, degree=None) -> dict:
    """Adjunction degree table of a smooth hypersurface of given degree.

    ``degree=None`` keeps the degree as the scalar symbol ``d``.
    """
    m = int(source_dim)
    d, _, tangent = _adjunction(m, degree)
    return _xi_from_line_data(m, tangent, constant(1), d)


def roman_surface_context() -> MapContext:
    """The Steiner quartic: P^2 by conics, projected to 3-space.

    Classically it has three double lines meeting in one triple point and
    six pinch points, which pins every surface character below.
    """
    return make_context(2, 3, veronese_xi(2))


def veronese_threefold_context() -> MapContext:
    """P^3 by quadrics, projected generically to P^4 (degree-8 image)."""
    return make_context(3, 4, veronese_xi(3))


def smooth_surface_context(degree=None) -> MapContext:
    """Smooth surface of the given degree in P^3; symbolic degree if None."""
    return make_context(2, 3, hypersurface_xi(2, degree))


def smooth_threefold_context(degree=None) -> MapContext:
    """Smooth hypersurface of the given degree in P^4; symbolic if None."""
    return make_context(3, 4, hypersurface_xi(3, degree))


PRESETS = {
    "roman-surface": ("surface", roman_surface_context, False),
    "veronese-p3": ("threefold", veronese_threefold_context, False),
    "smooth-surface": ("surface", smooth_surface_context, True),
    "smooth-threefold": ("threefold", smooth_threefold_context, True),
}


# A smooth preset's entries are polynomials in its degree D of degree at most
# 4, with leading coefficient -1 or 1 and the others at most 125 in size, so a
# degree below 10^37 keeps every entry within the 150 digits an input document
# may hold; every document ``preset`` prints then reads back in.
MAX_DEGREE_DIGITS = 37


def preset_names() -> list:
    return sorted(PRESETS)


def check_preset(name: str, degree=None, document: bool = False) -> tuple:
    """The (kind, builder, needs_degree) row of a preset, after the checks
    that build nothing: the name, the degree's range, a degree given to a
    preset that takes none and, when a ``document`` is asked for, a smooth
    preset without a degree.  Each failure raises :class:`ValueError`.
    """
    try:
        kind, builder, needs_degree = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(preset_names())}") from None
    if not needs_degree:
        if degree is not None:
            raise ValueError(f"preset {name!r} does not take a degree")
    elif degree is None:
        if document:
            raise ValueError(f"preset {name!r} needs --degree")
    elif not 1 <= degree < 10 ** MAX_DEGREE_DIGITS:
        raise ValueError(f"--degree must be a positive integer of at most {MAX_DEGREE_DIGITS} digits")
    return kind, builder, needs_degree


def preset_context(name: str, degree=None):
    """Instantiate a preset; returns (kind, context)."""
    kind, builder, needs_degree = check_preset(name, degree)
    return kind, builder(degree) if needs_degree else builder()


def preset_document(name: str, degree=None) -> dict:
    """Preset as an input document (numeric only, rationals as strings)."""
    check_preset(name, degree, document=True)
    kind, ctx = preset_context(name, degree)
    data = {
        xi_label(index): str(value)
        for index, value in sorted(ctx.xi.items(), key=lambda kv: (len(kv[0]), kv[0]))
    }
    return {"kind": kind, "chern_data": data}
