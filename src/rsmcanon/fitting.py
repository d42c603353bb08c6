"""Least-squares fitting of second-order models on the transformed scale.

Takes a dataset of attributable-variable rows with a natural-units
response, applies the power transform, and solves the normal equations
with the package's own symmetric solver. Term relevance is ranked by
the partial F statistic: each term is refit out of the model and the
SSE increase is compared to the full-model residual variance.

No silent regularization: a rank-deficient design raises instead of
falling back to ridge, so rankings stay deterministic and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, RankDeficient, TooFewRows
from .linalg import DEFAULT_COND_TOL, SymMatrix, jacobi_eigen
from .model import ModelTerm, QuadraticModel, build_model


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

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class TermStat:
    label: str
    indices: tuple[int, ...]
    coefficient: float
    f_value: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted model plus the per-term statistics behind its ranking."""

    model: QuadraticModel
    sse: float
    term_stats: tuple[TermStat, ...]
    ranking: tuple[str, ...]


def transform_response(values, exponent: float) -> np.ndarray:
    """Elementwise power transform of natural-units responses.

    Non-integer or negative exponents require strictly positive values;
    offending row indices are listed in the DomainError.
    """
    vals = np.asarray(values, dtype=float)
    needs_positive = exponent < 0 or not float(exponent).is_integer()
    if needs_positive:
        bad = np.flatnonzero(~(vals > 0.0))
        if bad.size:
            raise DomainError(
                f"exponent {exponent!r} requires positive responses; "
                f"rows {bad.tolist()} violate this"
            )
    return vals ** exponent


def term_label(indices, names) -> str:
    return ":".join(names[k] for k in indices)


def _normalize_terms(terms, n: int) -> list[tuple[int, ...]]:
    out = []
    for t in terms:
        idx = t.indices if isinstance(t, ModelTerm) else tuple(int(k) for k in t)
        if len(idx) == 2:
            idx = tuple(sorted(idx))
        if len(idx) not in (1, 2) or any(k < 0 or k >= n for k in idx):
            raise DimensionMismatch(f"bad term indices {idx} for {n} variables")
        out.append(idx)
    return out


def _design_matrix(d: Dataset, term_indices) -> np.ndarray:
    cols = [np.ones(d.rows)]
    for idx in term_indices:
        if len(idx) == 1:
            cols.append(d.X[:, idx[0]])
        else:
            cols.append(d.X[:, idx[0]] * d.X[:, idx[1]])
    return np.column_stack(cols)


def _normal_solve(design: np.ndarray, yt: np.ndarray, labels) -> tuple[np.ndarray, float]:
    """Least squares via the normal equations, with an eigen rank check.

    Columns are equilibrated to unit norm before forming the normal
    matrix so the condition check measures collinearity rather than
    units (emissions columns span many orders of magnitude). The
    scaling is undone exactly on the way out; it is not regularization.
    """
    norms = np.sqrt((design * design).sum(axis=0))
    safe = np.where(norms > 0.0, norms, 1.0)  # a zero column stays rank deficient
    scaled = design / safe
    eig = jacobi_eigen(SymMatrix(scaled.T @ scaled))
    if eig.condition() < DEFAULT_COND_TOL:
        mags = np.abs(eig.lambdas)
        floor = DEFAULT_COND_TOL * float(mags.max())
        blamed: list[str] = []
        for k in range(eig.source_n):
            if mags[k] > floor:
                continue
            null = eig.vectors[:, k]
            for c in np.flatnonzero(np.abs(null) > 0.3):
                if labels[c] not in blamed:
                    blamed.append(labels[c])
        raise RankDeficient(f"design matrix is rank deficient; collinear columns: {blamed}")
    coef = eig.vectors @ ((eig.vectors.T @ (scaled.T @ yt)) / eig.lambdas)
    coef = coef / safe
    resid = yt - design @ coef
    return coef, float(resid @ resid)


def ols_fit(d: Dataset, terms, exponent: float,
            response_label: str = "response") -> FitResult:
    """Fit the given terms (plus an intercept) by ordinary least squares.

    ``terms`` is a sequence of index tuples: (i,) for a linear term,
    (i, j) for a quadratic or interaction term. The response is
    transformed by ``exponent`` before fitting, and the result is
    packaged as a QuadraticModel with partial-F statistics per term.
    """
    term_indices = _normalize_terms(terms, d.n)
    if len(set(term_indices)) != len(term_indices):
        raise DimensionMismatch("duplicate terms in fit request")
    if d.rows < len(term_indices) + 3:
        raise TooFewRows(
            f"{d.rows} rows cannot support {len(term_indices)} terms "
            f"(need at least {len(term_indices) + 3})"
        )
    yt = transform_response(d.y, exponent)
    labels = ["1"] + [term_label(idx, d.names) for idx in term_indices]
    design = _design_matrix(d, term_indices)
    coef, sse_full = _normal_solve(design, yt, labels)

    dof = d.rows - len(term_indices) - 1
    scale = sse_full / dof
    stats = []
    for drop in range(len(term_indices)):
        reduced = [idx for k, idx in enumerate(term_indices) if k != drop]
        sub_labels = ["1"] + [term_label(idx, d.names) for idx in reduced]
        _, sse_without = _normal_solve(_design_matrix(d, reduced), yt, sub_labels)
        increase = max(0.0, sse_without - sse_full)
        if scale > 0.0:
            f_value = increase / scale
        else:
            f_value = float("inf") if increase > 0.0 else 0.0
        idx = term_indices[drop]
        stats.append(TermStat(
            label=term_label(idx, d.names),
            indices=idx,
            coefficient=float(coef[drop + 1]),
            f_value=f_value,
        ))

    ranked = sorted(stats, key=lambda s: (-s.f_value, s.label))
    model_terms = [
        ModelTerm(idx, float(coef[k + 1])) for k, idx in enumerate(term_indices)
    ]
    model = build_model(model_terms, intercept=float(coef[0]), exponent=exponent,
                        names=d.names, response_label=response_label)
    return FitResult(
        model=model,
        sse=sse_full,
        term_stats=tuple(stats),
        ranking=tuple(s.label for s in ranked),
    )


def f_rank(d: Dataset, result: FitResult) -> tuple[TermStat, ...]:
    """Terms of ``result`` by descending partial F, ties broken by label; ``d`` is not refit."""
    return tuple(sorted(result.term_stats, key=lambda s: (-s.f_value, s.label)))
