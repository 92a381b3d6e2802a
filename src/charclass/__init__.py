"""Exact characteristic-class calculus for singular projective hypersurfaces.

The package computes, inverts and verifies the classical numerical
characters of surfaces in 3-space and 3-folds in 4-space with ordinary
singularities, working over exact rational arithmetic throughout.

The names below are re-exported from their modules on first use (PEP 562),
so ``import charclass`` loads no module until one of them is read.
"""

import importlib

_EXPORTS = {
    "algebra": [
        "AbstractClass", "ExponentOverflowError", "GradedPolynomial",
        "IncompleteSubstitutionError", "MultiIndex", "NonUnitSeriesError", "RingMismatchError",
        "Var", "VarKind", "atom", "chern_indices", "constant", "degree_symbol", "gysin_map",
        "invert_unit_series", "landweber_novikov", "lift", "parse", "quotient_chern", "render",
        "source_chern", "substitute", "trim_index", "xi_scalar", "xi_symbol",
    ],
    "context": ["MapContext", "Scalar", "SYMBOLIC", "TruncationError", "make_context", "xi_label"],
    "presets": [
        "hypersurface_xi", "preset_context", "preset_document", "preset_names",
        "roman_surface_context", "smooth_surface_context", "smooth_threefold_context",
        "veronese_threefold_context", "veronese_xi",
    ],
    "report": ["Check", "all_passed"],
    "surface": [
        "SurfaceCharacters", "surface_characters", "surface_invert", "surface_typo_diagnostics",
        "verify_surface_relations",
    ],
    "tables": ["TableMissError", "ssm_series", "thom_polynomial", "validate_tables"],
    "threefold": [
        "DoubleLocusData", "ThreefoldCharacters", "canonical_dot_critical",
        "critical_surface_calculus", "double_locus_calculus", "elementary_characters",
        "threefold_basic", "threefold_characters", "threefold_invert",
        "threefold_typo_diagnostics", "verify_threefold_identities",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = {"algebra", "cli", "context", "forms", "formulas", "presets", "report", "surface",
            "tables", "threefold"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # read from the module each time, never cached here: a value replaced in
    # its module (a tracer, a test's patch) is what the package hands out
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_HOME, *_MODULES})
