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

from types import ModuleType as _ModuleType

from .canonical import (
    CanonicalModel,
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

# Everything imported above is public, except the submodules themselves.
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
