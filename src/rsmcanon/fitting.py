"""Least-squares fitting of second-order models on the transformed scale,
and the one path from an emissions CSV to a fit, ``fit_emissions``.

Takes a dataset of attributable-variable rows with a natural-units
response, applies the power transform, and solves least squares
through a column-pivoted QR of the design, X P = Q R. The package's
own symmetric solver decomposes R R' once, which gives the SVD of R;
X'X, which would square the condition number, is never formed. Term
relevance is ranked by the partial F statistic: the SSE increase from
dropping term k is b_k^2 / [(X'X)^-1]_kk (the extra-sum-of-squares
identity; Draper & Smith, Applied Regression Analysis), compared to
the full-model residual variance. The one eigendecomposition gives
every F; no term is refit out of the model.

No silent regularization: a rank-deficient design raises instead of
falling back to ridge, so rankings stay deterministic and comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError, InputError, RankDeficient, TooFewRows
from .linalg import DEFAULT_COND_TOL, SymMatrix, jacobi_eigen, small_axes
from .model import ModelTerm, QuadraticModel, build_model, check_terms, reciprocal_exponent
from .modelio import EMISSIONS_NAMES, load_emissions


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed rows: one attributable vector and one response each."""

    X: np.ndarray
    y: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(self.names):
            raise DimensionMismatch(
                f"X has shape {x.shape}, expected (rows, {len(self.names)})"
            )
        if y.shape != (x.shape[0],):
            raise DimensionMismatch(f"y has shape {y.shape}, expected ({x.shape[0]},)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DimensionMismatch("dataset entries must be finite")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def rows(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class TermStat:
    label: str
    indices: tuple[int, ...]
    coefficient: float
    f_value: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted model plus the per-term statistics behind its ranking, and their printed table."""

    model: QuadraticModel
    sse: float
    term_stats: tuple[TermStat, ...]
    ranking: tuple[str, ...]
    years: tuple[int, ...] | None = None  # None unless fit_emissions fitted a CSV
    dropped_years: tuple[int, ...] = ()
    rejected: tuple[tuple[int, str], ...] = ()

    def to_text(self) -> str:
        """``SSE = ...``, then one row per term in ranking order: rank,
        label, coefficient and partial F (``inf`` for an exact fit). A CSV fit
        starts ``fit over N years[ (D without co2_ppmv dropped)][; R rows rejected]; ``."""
        by_label = {s.label: s for s in self.term_stats}
        head = "" if self.years is None else (
            f"fit over {len(self.years)} years"
            + (f" ({len(self.dropped_years)} without co2_ppmv dropped)" if self.dropped_years else "")
            + (f"; {len(self.rejected)} rows rejected" if self.rejected else "") + "; ")
        out = [f"{head}SSE = {self.sse:.6g}", "rank term        coefficient      F"]
        for rank, label in enumerate(self.ranking, start=1):
            s = by_label[label]
            out.append(f"{rank:>4} {s.label:<11} {s.coefficient:>+12.6g} {s.f_value:>10.4g}")
        return "\n".join(out) + "\n"


def transform_response(values, exponent: float) -> np.ndarray:
    """Elementwise power transform of natural-units responses.

    Non-integer or negative exponents require strictly positive values;
    the DomainError lists the offending row indices, or names an exponent
    that is not finite or has no finite reciprocal.
    """
    reciprocal_exponent(exponent)
    vals = np.asarray(values, dtype=float)
    needs_positive = exponent < 0 or not float(exponent).is_integer()
    if needs_positive:
        bad = np.flatnonzero(~(vals > 0.0))
        if bad.size:
            raise DomainError(f"exponent {exponent!r} requires positive responses; "
                              f"rows {bad.tolist()} violate this")
    return vals ** exponent


def _rank_key(stat: TermStat) -> tuple[float, str]:
    """Descending partial F, ties broken by label."""
    return (-stat.f_value, stat.label)


def _design_matrix(d: Dataset, term_indices) -> np.ndarray:
    return np.column_stack([np.ones(d.rows)]
                           + [d.X[:, list(idx)].prod(axis=1) for idx in term_indices])


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin QR of ``a`` with greedy column pivoting: a[:, order] = Q R.

    Each step takes the column of largest remaining squared norm (the
    first on a tie) and orthogonalizes the original column against Q
    twice, classical Gram-Schmidt with one reorthogonalization (CGS2),
    which leaves Q orthogonal to working precision (Giraud, Langou &
    Rozloznik, 2005). The remaining norms are downdated by (q_j' a)^2.
    A column with zero remaining norm gets q_j = 0.
    """
    cols = a.shape[1]
    qt, r = np.zeros((cols, a.shape[0])), np.zeros((cols, cols))  # Q' by rows
    norms = (a * a).sum(axis=0)
    order = np.empty(cols, dtype=int)
    for j in range(cols):
        c = order[j] = norms.argmax()
        done = qt[:j]
        g = done @ a[:, c]
        v = a[:, c] - g @ done
        e = done @ v
        v -= e @ done
        r[:j, j] = g + e
        r[j, j] = math.sqrt(v @ v)
        if r[j, j] > 0.0:
            qt[j] = v / r[j, j]
        w = qt[j] @ a
        norms -= w * w
        norms[c] = -math.inf
    return qt.T, r, order


def _qr_solve(design: np.ndarray, yt: np.ndarray,
              labels) -> tuple[np.ndarray, float, np.ndarray]:
    """Least squares through a column-pivoted QR, rank-checked by ``small_axes``.

    Columns are equilibrated to unit norm first so the rank check
    measures collinearity rather than units (emissions columns span
    many orders of magnitude); the scaling is undone exactly on the way
    out, it is not regularization. With X~[:, order] = Q R, the one
    eigendecomposition R R' = U diag(lambda) U' gives the SVD of R:
    sigma = sqrt(lambda), U its left singular vectors and V = R' U / sigma
    its right ones. Pivoting grades R R' so that Jacobi converges in a
    few sweeps (Drmac & Veselic, 2008), and X~'X~ is never formed.
    Returns the coefficients, the SSE, and per column the SSE increase
    from dropping it, b_k^2 / [(X~'X~)^-1]_kk on the equilibrated scale,
    with that diagonal (V o V)(1 / lambda) from the same eigenpairs. With
    d small sigma, RankDeficient names the columns that load on the null
    vectors of R found from its leading (p - d) x (p - d) block.
    """
    norms = np.sqrt((design * design).sum(axis=0))
    safe = np.where(norms > 0.0, norms, 1.0)  # a zero column stays rank deficient
    q, r, order = _pivoted_qr(design / safe)
    eig = jacobi_eigen(SymMatrix(r @ r.T))
    small = small_axes(eig.lambdas, DEFAULT_COND_TOL)
    if small.size:
        # one null vector [-R11^-1 r_j; e_j] per trailing column j; on the
        # upper triangular R11, LU leaves the rows alone: back substitution
        lead = r.shape[0] - small.size
        null = np.vstack((np.linalg.solve(r[:lead, :lead], -r[:lead, lead:]),
                          np.eye(small.size)))
        null /= np.sqrt((null * null).sum(axis=0))
        # a column is blamed when it loads above 0.3 on a null direction
        blamed = np.sort(order[(np.abs(null) > 0.3).any(axis=1)])
        raise RankDeficient("design matrix is rank deficient; collinear columns: "
                            f"{[labels[c] for c in blamed]}")
    sigma = np.sqrt(eig.lambdas)
    v = (r.T @ eig.vectors) / sigma
    scaled_coef, inv_diag = np.empty_like(sigma), np.empty_like(sigma)
    scaled_coef[order] = v @ ((eig.vectors.T @ (yt @ q)) / sigma)
    inv_diag[order] = (v * v) @ (1.0 / eig.lambdas)
    coef = scaled_coef / safe
    resid = yt - design @ coef
    return coef, float(resid @ resid), scaled_coef * scaled_coef / inv_diag


def ols_fit(d: Dataset, terms, exponent: float,
            response_label: str = "response") -> FitResult:
    """Fit the given terms (plus an intercept) by ordinary least squares.

    ``terms`` is a sequence of ModelTerms or index tuples: (i,) for a
    linear term, (i, j) for a quadratic or interaction term; the term
    rule of ``model.check_terms`` applies. The response is transformed
    by ``exponent`` before fitting, and the result is packaged as a
    QuadraticModel with partial-F statistics per term.

    Term k's F is b_k^2 / [(X'X)^-1]_kk, the SSE increase from dropping
    it, over the residual variance SSE / (rows - p - 1); the identity
    is exact for a full-rank design, so no reduced model is refit. An
    exact fit (zero residual) gives F = inf for every nonzero term.
    """
    terms = check_terms([t if isinstance(t, ModelTerm) else ModelTerm(t, 0.0) for t in terms],
                        d.names)
    p = len(terms)
    if d.rows < p + 3:
        raise TooFewRows(f"{d.rows} rows cannot support {p} terms (need at least {p + 3})")
    yt = transform_response(d.y, exponent)
    labels = ["1"] + [t.label(d.names) for t in terms]
    design = _design_matrix(d, [t.indices for t in terms])
    coef, sse_full, increase = _qr_solve(design, yt, labels)

    scale = sse_full / (d.rows - p - 1)  # the residual variance
    if scale > 0.0:
        f_values = increase[1:] / scale
    else:
        f_values = np.where(increase[1:] > 0.0, np.inf, 0.0)
    stats = [
        TermStat(label=labels[k + 1], indices=t.indices, coefficient=float(coef[k + 1]),
                 f_value=float(f_values[k]))
        for k, t in enumerate(terms)
    ]
    model = build_model([ModelTerm(s.indices, s.coefficient) for s in stats], intercept=coef[0],
                        exponent=exponent, names=d.names, response_label=response_label)
    return FitResult(
        model=model,
        sse=sse_full,
        term_stats=tuple(stats),
        ranking=tuple(s.label for s in sorted(stats, key=_rank_key)),
    )


def fit_emissions(path, terms, exponent: float, exclude_years=()) -> FitResult:
    """``ols_fit`` of ``terms`` to the yearly totals that ``load_emissions``
    reads from ``path`` without ``exclude_years``, over the years that carry
    co2_ppmv; InputError when no year is left or none left carries co2_ppmv."""
    rejected, totals = load_emissions(path, exclude_years=exclude_years)
    if not totals.years:
        raise InputError(f"{path}: no year left to fit; years excluded: "
                         f"{sorted(map(int, exclude_years))}, rows rejected: {len(rejected)}")
    kept = [k for k, co2 in enumerate(totals.co2_ppmv) if co2 is not None]
    if not kept:
        raise InputError(f"{path}: no rows carry a co2_ppmv response")
    data = Dataset(totals.values[kept], np.array([totals.co2_ppmv[k] for k in kept]),
                   EMISSIONS_NAMES)
    years = tuple(totals.years[k] for k in kept)
    return replace(ols_fit(data, terms, exponent, response_label="CO2 ppmv"), years=years,
                   dropped_years=tuple(sorted({*totals.years} - {*years})), rejected=rejected)


def f_rank(d: Dataset, result: FitResult) -> tuple[TermStat, ...]:
    """Terms of ``result`` by descending partial F, ties broken by label; ``d`` is not refit."""
    return tuple(sorted(result.term_stats, key=_rank_key))
