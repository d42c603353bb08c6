"""Canonical analysis of fitted second-order response-surface models.

Given a quadratic model with a power-transformed response, this
package exposes the full analysis chain: symmetric eigendecomposition
of the interaction matrix, reduction to canonical form with
stationary-point classification, elliptical and hyperbolic confidence
regions for canonical pairs, and iso-response exchange ("trade") rates
between attributable variables. A fitted EU CO2 emissions model ships
as the bundled case study; the same machinery applies to any quadratic
response surface.

The namespace loads all or nothing. ``import rsmcanon`` imports no
submodule, so a CLI command pays only for the modules it runs. The
first access to any public name or submodule imports all nine
submodules and binds every public name at once; each is the object its
submodule defines (``rsmcanon.canonicalize is
rsmcanon.canonical.canonicalize``).
"""

__version__ = "0.1.0"

# Submodule -> the public names it defines, in ``__all__`` order.
_PUBLIC = {
    "canonical": ("CanonicalModel", "canonical_response", "canonicalize", "check_pair",
                  "from_canonical", "to_canonical", "with_center"),
    "errors": ("DegeneratePair", "DimensionMismatch", "DomainError", "DuplicateTerm",
               "IndexOutOfRange", "InputError", "NoPositiveBranch", "NonConvergence",
               "NonPositiveBound", "NotTwoVariable", "NumericalError", "ParseError",
               "RankDeficient", "RsmError", "SameSignPair", "SchemaError", "SingularMatrix",
               "TooFewRows", "WrongKind"),
    "fitting": ("Dataset", "FitResult", "TermStat", "f_rank", "fit_emissions", "ols_fit",
                "transform_response"),
    "linalg": ("DEFAULT_COND_TOL", "EigenDecomposition", "SymMatrix", "jacobi_eigen", "solve"),
    "model": ("ModelTerm", "QuadraticModel", "build_model", "evaluate_matrix", "evaluate_terms",
              "gradient", "parse_terms", "predict_response"),
    "modelio": ("YearlyTotals", "bundled_eu_model_path", "emit_plot_csv", "load_bundled_eu_model",
                "load_emissions", "load_model", "load_model_document", "save_model"),
    "regions": ("RegionParametrization", "boundary_points", "contains", "ellipse_region",
                "hyperbola_region", "max_intervals", "region", "region_kind"),
    "report": ("AnalysisReport", "run_analysis"),
    "tradeoff": ("ConversionRate", "conversion_rates", "default_pairing", "iso_slopes",
                 "marginal_rates"),
}

__all__ = ["__version__", *(name for names in _PUBLIC.values() for name in names)]


def __getattr__(name: str):
    # Loading one name at a time would let a submodule appear after a
    # caller has walked sys.modules (perfbench's span wrappers do).
    if name not in _PUBLIC and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for submodule, names in _PUBLIC.items():
        module = import_module(f".{submodule}", __name__)
        namespace.update((public, getattr(module, public)) for public in names)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
