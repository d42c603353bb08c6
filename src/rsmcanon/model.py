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

This module owns the term rule: a term has 1 or 2 sorted int indices,
each in [0, n), and no two terms share them. ``ModelTerm`` sorts and
counts its own; ``check_terms`` tests range and duplicates for both
``build_model`` and ``fitting.ols_fit``. It owns the label syntax too
(``Li``, ``Ga:Bu``): ``ModelTerm.label`` prints it, ``parse_terms``
reads it. The point rule is ``linalg.check_point`` (shape (n,), n
finite entries); it runs before any arithmetic in every per-point
function here and in ``canonical``, so in ``regions.contains`` as well.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, DuplicateTerm, IndexOutOfRange, InputError
from .linalg import SymMatrix, check_point


@dataclass(frozen=True)
class ModelTerm:
    """One published coefficient: a linear or a quadratic term.

    ``indices`` holds one variable index for a linear term or two
    (possibly equal) for a quadratic/interaction term, stored as sorted
    ints; other counts and non-integer indices raise DimensionMismatch.
    """

    indices: tuple[int, ...]
    coefficient: float

    def __post_init__(self) -> None:
        try:
            idx = tuple(sorted(map(operator.index, self.indices)))
        except TypeError:  # an index that is not an integer
            idx = ()
        if len(idx) not in (1, 2):
            raise DimensionMismatch(
                f"a term needs 1 or 2 integer variable indices, got {self.indices!r}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coefficient", float(self.coefficient))

    @property
    def is_linear(self) -> bool:
        return len(self.indices) == 1

    def label(self, names) -> str:
        """The term's variable names joined by ``:``; ``parse_terms`` reads it back."""
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
        if len(set(self.names)) != len(self.names):
            raise DimensionMismatch(f"duplicate variable names in {tuple(self.names)}")
        intercept = float(self.intercept)
        if not np.all(np.isfinite(beta)) or not math.isfinite(intercept):
            raise DimensionMismatch("model coefficients must be finite")
        reciprocal_exponent(self.exponent)
        beta = beta.copy()
        beta.setflags(write=False)
        object.__setattr__(self, "linear", beta)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "exponent", float(self.exponent))

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
                out.append(ModelTerm((i,), self.linear[i]))
        for i in range(self.n):
            for j in range(i, self.n):
                coef = b[i, i] / 2.0 if i == j else b[i, j]
                if coef != 0.0:
                    out.append(ModelTerm((i, j), coef))
        return tuple(out)


def check_terms(terms, names) -> list[ModelTerm]:
    """``terms`` as a list; IndexOutOfRange for an index outside [0, n),
    DuplicateTerm for indices that a term shares with an earlier one."""
    terms, n = list(terms), len(names)
    seen: set[tuple[int, ...]] = set()
    for term in terms:
        idx = term.indices
        if not all(0 <= k < n for k in idx):
            raise IndexOutOfRange(f"term indices {idx} outside [0, {n})")
        if idx in seen:
            raise DuplicateTerm(f"term {term.label(names)} supplied twice")
        seen.add(idx)
    return terms


def parse_terms(text: str, names) -> list[ModelTerm]:
    """Terms with coefficient 0 from comma-separated labels, ``"Li, Ga:Bu"``.

    The inverse of ``ModelTerm.label``; spaces around ``,`` and ``:`` are
    ignored. InputError for an unknown name, more than two names in a
    term or no term at all; ``check_terms`` then tests the terms.
    """
    index = {name: k for k, name in enumerate(names)}
    terms = []
    for chunk in filter(None, map(str.strip, text.split(","))):
        parts = [part.strip() for part in chunk.split(":")]
        if len(parts) > 2:
            raise DimensionMismatch(f"term {chunk!r} has more than two variables")
        try:
            terms.append(ModelTerm(tuple(index[part] for part in parts), 0.0))
        except KeyError as exc:
            raise InputError(f"unknown variable {exc.args[0]!r} in term {chunk!r}") from None
    if not terms:
        raise InputError("no terms given")
    return check_terms(terms, names)


def build_model(terms, intercept: float, exponent: float, names,
                response_label: str = "response") -> QuadraticModel:
    """Assemble a QuadraticModel from published-style terms.

    Absent terms are zero; ``check_terms`` vets the rest.
    """
    names = tuple(str(s) for s in names)
    terms = check_terms(terms, names)
    n = len(names)
    beta = np.zeros(n)
    b = np.zeros((n, n))
    for term in terms:
        idx = term.indices
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
        intercept=intercept,
        linear=beta,
        interaction=SymMatrix(b),
        exponent=exponent,
        response_label=response_label,
    )


def evaluate_matrix(model: QuadraticModel, point) -> float:
    """Transformed response in the matrix picture, b0 + beta'X + X'BX."""
    x = check_point(point, model.n)
    # the same IEEE operations as @, through the ndarray method, which skips
    # the dispatch that @ and np.dot pay on every call
    return (model.intercept + float(model.linear.dot(x))
            + float(x.dot(model.interaction.array.dot(x))))


def evaluate_terms(model: QuadraticModel, point) -> float:
    """Transformed response as the literal sum over published terms."""
    x = check_point(point, model.n)
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
    x = check_point(point, model.n)
    return model.linear + 2.0 * model.interaction.array.dot(x)


def predict_response(model: QuadraticModel, point) -> float:
    """Response in natural units: Y**(1/p) for transformed value Y.

    For p < 0 the prediction is monotone decreasing in Y, so a smaller
    transformed value means a larger natural response. Raises
    DomainError unless Y is finite and has a real inverse power.
    """
    y = evaluate_matrix(model, point)
    return invert_transform(y, model.exponent)


def reciprocal_exponent(exponent: float) -> float:
    """1/p for a response exponent p; DomainError unless p and 1/p are finite."""
    p = float(exponent)
    if p != 0.0 and math.isfinite(p) and math.isfinite(1.0 / p):
        return 1.0 / p
    raise DomainError(f"response exponent {exponent!r} must be finite with a finite reciprocal")


def invert_transform(value: float, exponent: float) -> float:
    """Map a finite transformed response back to natural units (DomainError on overflow)."""
    inv = reciprocal_exponent(exponent)
    try:
        if 0.0 < value < math.inf:
            return float(value ** inv)
        if value == 0.0 and inv > 0.0:
            return 0.0
        if -math.inf < value < 0.0 and inv == int(inv) and int(inv) % 2 != 0:
            return float(-((-value) ** inv))
    except OverflowError:
        raise DomainError(f"transformed value {value!r} overflows under exponent "
                          f"{exponent!r}") from None
    raise DomainError(
        f"transformed value {value!r} has no real inverse under exponent {exponent!r}"
    )
