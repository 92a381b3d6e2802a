"""Exact characteristic-class calculus for singular projective hypersurfaces.

The package computes, inverts and verifies the classical numerical
characters of surfaces in 3-space and 3-folds in 4-space with ordinary
singularities, working over exact rational arithmetic throughout.
"""

from .algebra import (
    AbstractClass,
    ExponentOverflowError,
    GradedPolynomial,
    IncompleteSubstitutionError,
    MultiIndex,
    NonUnitSeriesError,
    RingMismatchError,
    Var,
    VarKind,
    atom,
    chern_indices,
    constant,
    degree_symbol,
    gysin_map,
    invert_unit_series,
    landweber_novikov,
    lift,
    parse,
    quotient_chern,
    render,
    source_chern,
    substitute,
    trim_index,
    xi_scalar,
    xi_symbol,
)
from .context import MapContext, Scalar, SYMBOLIC, TruncationError, make_context, xi_label
from .presets import (
    hypersurface_xi,
    preset_context,
    preset_document,
    preset_names,
    roman_surface_context,
    smooth_surface_context,
    smooth_threefold_context,
    veronese_threefold_context,
    veronese_xi,
)
from .report import Check, all_passed
from .surface import (
    SurfaceCharacters,
    surface_characters,
    surface_invert,
    surface_typo_diagnostics,
    verify_surface_relations,
)
from .tables import TableMissError, ssm_series, thom_polynomial, validate_tables
from .threefold import (
    DoubleLocusData,
    ThreefoldCharacters,
    canonical_dot_critical,
    critical_surface_calculus,
    double_locus_calculus,
    elementary_characters,
    threefold_basic,
    threefold_characters,
    threefold_invert,
    threefold_typo_diagnostics,
    verify_threefold_identities,
)

__version__ = "0.1.0"
