"""Second-order regression models with a power-transformed response.

A model is kept in two equivalent pictures:

* the term-sum picture, ``b0 + sum_i b_i x_i + sum_{i<=j} b_ij x_i x_j``,
  which is how coefficient tables are published, and
* the matrix picture, ``Y = b0 + beta'X + X'BX``, which everything
  downstream (canonical analysis, regions, trade rates) consumes.

The interaction matrix is built with ``B[i][i] = 2 b_ii`` and
``B[i][j] = b_ij`` for i != j. Under that convention the quadratic
part of the matrix picture is exactly twice the quadratic part of the
term sum; both evaluators are exposed so the relation stays visible
and testable.

All coefficients are stored in absolute units. Any printed scale
factors are expected to be applied before construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, DuplicateTerm, IndexOutOfRange
from .linalg import SymMatrix


@dataclass(frozen=True)
class ModelTerm:
    """One published coefficient: a linear or a quadratic term.

    ``indices`` holds one variable index for a linear term or two
    (sorted, possibly equal) for a quadratic/interaction term.
    """

    indices: tuple[int, ...]
    coefficient: float

    @classmethod
    def linear(cls, i: int, coefficient: float) -> "ModelTerm":
        return cls((int(i),), float(coefficient))

    @classmethod
    def quadratic(cls, i: int, j: int, coefficient: float) -> "ModelTerm":
        lo, hi = sorted((int(i), int(j)))
        return cls((lo, hi), float(coefficient))

    @property
    def is_linear(self) -> bool:
        return len(self.indices) == 1

    def label(self, names) -> str:
        return ":".join(names[k] for k in self.indices)


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """A fitted second-order model on the transformed response scale.

    ``exponent`` is the power p of the response transform
    ``Y = response**p``; predictions invert it. The transformed scale
    is where the quadratic geometry lives.
    """

    names: tuple[str, ...]
    intercept: float
    linear: np.ndarray
    interaction: SymMatrix
    exponent: float
    response_label: str = "response"

    def __post_init__(self) -> None:
        beta = np.asarray(self.linear, dtype=float)
        if beta.shape != (len(self.names),) or self.interaction.n != len(self.names):
            raise DimensionMismatch(
                f"names/linear/interaction sizes disagree: "
                f"{len(self.names)}, {beta.shape}, {self.interaction.n}"
            )
        if not np.all(np.isfinite(beta)) or not np.isfinite(self.intercept):
            raise DimensionMismatch("model coefficients must be finite")
        if self.exponent == 0.0:
            raise DomainError("response exponent must be nonzero")
        beta = beta.copy()
        beta.setflags(write=False)
        object.__setattr__(self, "linear", beta)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def terms(self) -> tuple[ModelTerm, ...]:
        """Recover the term-sum coefficients from beta and B."""
        out = []
        b = self.interaction.array
        for i in range(self.n):
            if self.linear[i] != 0.0:
                out.append(ModelTerm.linear(i, self.linear[i]))
        for i in range(self.n):
            for j in range(i, self.n):
                coef = b[i, i] / 2.0 if i == j else b[i, j]
                if coef != 0.0:
                    out.append(ModelTerm.quadratic(i, j, coef))
        return tuple(out)


def build_model(terms, intercept: float, exponent: float, names,
                response_label: str = "response") -> QuadraticModel:
    """Assemble a QuadraticModel from published-style terms.

    Absent terms are zero. Raises IndexOutOfRange for indices outside
    [0, n) and DuplicateTerm when the same (kind, indices) appears
    twice.
    """
    names = tuple(str(s) for s in names)
    n = len(names)
    beta = np.zeros(n)
    b = np.zeros((n, n))
    seen: set[tuple[int, ...]] = set()
    for term in terms:
        idx = term.indices
        if any(k < 0 or k >= n for k in idx):
            raise IndexOutOfRange(f"term indices {idx} outside [0, {n})")
        if idx in seen:
            raise DuplicateTerm(f"term {term.label(names)} supplied twice")
        seen.add(idx)
        if term.is_linear:
            beta[idx[0]] = term.coefficient
        else:
            i, j = idx
            if i == j:
                b[i, i] = 2.0 * term.coefficient
            else:
                b[i, j] = b[j, i] = term.coefficient
    return QuadraticModel(
        names=names,
        intercept=float(intercept),
        linear=beta,
        interaction=SymMatrix(b),
        exponent=float(exponent),
        response_label=response_label,
    )


def _as_point(model: QuadraticModel, point) -> np.ndarray:
    x = np.asarray(point, dtype=float)
    if x.shape != (model.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({model.n},)")
    if not np.isfinite(x).all():
        raise DimensionMismatch("point entries must be finite")
    return x


def evaluate_matrix(model: QuadraticModel, point) -> float:
    """Transformed response in the matrix picture, b0 + beta'X + X'BX."""
    x = _as_point(model, point)
    return float(model.intercept + model.linear @ x + x @ (model.interaction.array @ x))


def evaluate_terms(model: QuadraticModel, point) -> float:
    """Transformed response as the literal sum over published terms."""
    x = _as_point(model, point)
    total = model.intercept
    for term in model.terms:
        if term.is_linear:
            total += term.coefficient * x[term.indices[0]]
        else:
            i, j = term.indices
            total += term.coefficient * x[i] * x[j]
    return float(total)


def gradient(model: QuadraticModel, point) -> np.ndarray:
    """Gradient of the matrix picture: beta + 2 B X."""
    x = _as_point(model, point)
    return model.linear + 2.0 * (model.interaction @ x)


def predict_response(model: QuadraticModel, point) -> float:
    """Response in natural units: Y**(1/p) for transformed value Y.

    For p < 0 the prediction is monotone decreasing in Y, so a smaller
    transformed value means a larger natural response. Raises
    DomainError when the inverse power is undefined over the reals.
    """
    y = evaluate_matrix(model, point)
    return invert_transform(y, model.exponent)


def invert_transform(value: float, exponent: float) -> float:
    """Map a transformed response back to natural units."""
    inv = 1.0 / exponent
    if value > 0.0:
        return float(value ** inv)
    if value == 0.0 and inv > 0.0:
        return 0.0
    if value < 0.0 and inv == int(inv) and int(inv) % 2 != 0:
        return float(-((-value) ** inv))
    raise DomainError(
        f"transformed value {value!r} has no real inverse under exponent {exponent!r}"
    )
