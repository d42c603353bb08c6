"""Canonical analysis of fitted second-order response-surface models.

Given a quadratic model with a power-transformed response, this
package exposes the full analysis chain: symmetric eigendecomposition
of the interaction matrix, reduction to canonical form with
stationary-point classification, elliptical and hyperbolic confidence
regions for canonical pairs, and iso-response exchange ("trade") rates
between attributable variables. A fitted EU CO2 emissions model ships
as the bundled case study; the same machinery applies to any quadratic
response surface.
"""

__version__ = "0.1.0"

from .canonical import (
    MAXIMUM,
    MINIMUM,
    SADDLE,
    CanonicalModel,
    StationaryKind,
    canonical_response,
    canonicalize,
    check_pair,
    classify,
    degenerate_axes,
    from_canonical,
    to_canonical,
    with_center,
)
from .errors import (
    DegeneratePair,
    DimensionMismatch,
    DomainError,
    DuplicateTerm,
    IndexOutOfRange,
    InputError,
    NoPositiveBranch,
    NonConvergence,
    NonPositiveBound,
    NotTwoVariable,
    NumericalError,
    ParseError,
    RankDeficient,
    RsmError,
    SameSignPair,
    SchemaError,
    SingularMatrix,
    TooFewRows,
    WrongKind,
)
from .fitting import Dataset, FitResult, TermStat, f_rank, ols_fit, transform_response
from .linalg import (
    DEFAULT_COND_TOL,
    EigenDecomposition,
    SymMatrix,
    jacobi_eigen,
    solve,
)
from .model import (
    ModelTerm,
    QuadraticModel,
    build_model,
    evaluate_matrix,
    evaluate_terms,
    gradient,
    predict_response,
)
from .modelio import (
    YearlyTotals,
    bundled_eu_model_path,
    emit_plot_csv,
    load_bundled_eu_model,
    load_emissions,
    load_model,
    load_model_document,
    save_model,
)
from .regions import (
    RegionKind,
    RegionParametrization,
    boundary_points,
    contains,
    ellipse_region,
    hyperbola_region,
    max_intervals,
    region,
    region_kind,
)
from .report import AnalysisReport, run_analysis
from .tradeoff import (
    ConversionRate,
    conversion_rates,
    default_pairing,
    iso_slopes,
    marginal_rates,
)

__all__ = [
    "__version__",
    # linalg
    "SymMatrix", "EigenDecomposition", "jacobi_eigen", "solve", "DEFAULT_COND_TOL",
    # model
    "ModelTerm", "QuadraticModel", "build_model", "evaluate_matrix",
    "evaluate_terms", "gradient", "predict_response",
    # canonical
    "CanonicalModel", "StationaryKind", "MAXIMUM", "MINIMUM", "SADDLE",
    "canonicalize", "classify", "to_canonical", "from_canonical",
    "canonical_response", "with_center", "degenerate_axes", "check_pair",
    # regions
    "RegionKind", "RegionParametrization", "region", "region_kind", "ellipse_region",
    "hyperbola_region", "boundary_points", "contains", "max_intervals",
    # tradeoff
    "ConversionRate", "iso_slopes", "conversion_rates", "marginal_rates",
    "default_pairing",
    # fitting
    "Dataset", "FitResult", "TermStat", "transform_response", "ols_fit", "f_rank",
    # io / report
    "load_model", "load_model_document", "save_model", "load_emissions",
    "emit_plot_csv", "bundled_eu_model_path", "load_bundled_eu_model",
    "YearlyTotals", "AnalysisReport", "run_analysis",
    # errors
    "RsmError", "InputError", "NumericalError", "DimensionMismatch",
    "DuplicateTerm", "IndexOutOfRange", "DomainError", "WrongKind",
    "NonPositiveBound", "SameSignPair", "NotTwoVariable",
    "TooFewRows", "ParseError", "SchemaError",
    "NonConvergence", "SingularMatrix", "DegeneratePair", "NoPositiveBranch",
    "RankDeficient",
]
