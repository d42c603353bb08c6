"""Canonical reduction of a quadratic model.

Shifts the origin to the stationary point and rotates onto the
eigenvector frame of the interaction matrix, after which the model is
a pure weighted sum of squares:

    Y = y0 + sum_k lambda_k z_k**2,      z_k = V_k' (X - center)

The eigenvalue signs classify the stationary point (maximum, minimum,
saddle, or degenerate). Canonical axes are numbered from 1 to match
the usual z_1 .. z_n labelling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .linalg import DEFAULT_COND_TOL, jacobi_eigen, solve
from .model import QuadraticModel

# Eigenvalues within this factor of max|lambda| count as zero when
# classifying the stationary point.
ZERO_TOL_FACTOR = 1e-9


@dataclass(frozen=True)
class StationaryKind:
    """Classification of the stationary point by eigenvalue signs."""

    label: str
    degenerate_axes: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.label == "degenerate":
            axes = ", ".join(f"z{k}" for k in self.degenerate_axes)
            return f"degenerate ({axes})"
        return self.label


MAXIMUM = StationaryKind("maximum")
MINIMUM = StationaryKind("minimum")
SADDLE = StationaryKind("saddle")


def classify(lambdas, zero_tol: float | None = None) -> StationaryKind:
    """Classify by signs: all negative -> maximum, all positive ->
    minimum, any near-zero -> degenerate, mixed -> saddle."""
    lam = np.asarray(lambdas, dtype=float)
    if zero_tol is None:
        zero_tol = ZERO_TOL_FACTOR * float(np.abs(lam).max(initial=0.0))
    near_zero = np.abs(lam) <= zero_tol
    if near_zero.any():
        return StationaryKind("degenerate", tuple(int(k) + 1 for k in np.flatnonzero(near_zero)))
    if (lam < 0).all():
        return MAXIMUM
    if (lam > 0).all():
        return MINIMUM
    return SADDLE


@dataclass(frozen=True, eq=False)
class CanonicalModel:
    """A quadratic model in its canonical frame.

    ``axes`` holds the orthonormal eigenvectors as columns, ordered by
    descending |lambda| alongside ``lambdas``. ``y0`` is the
    transformed response at the center.
    """

    names: tuple[str, ...]
    center: np.ndarray
    y0: float
    lambdas: np.ndarray
    axes: np.ndarray
    kind: StationaryKind

    @property
    def n(self) -> int:
        return len(self.names)

    def axis_label(self, k: int, threshold: float = 0.2) -> str:
        """Readable form of z_k over its dominant original variables.

        Components with |v| below ``threshold`` are suppressed, e.g.
        ``z1 ~ -0.257*Ga + 0.966*Bu``.
        """
        col = self.axes[:, k - 1]
        parts = []
        for v, name in zip(col, self.names):
            if abs(v) < threshold:
                continue
            sign = "-" if v < 0 else ("+" if parts else "")
            parts.append(f"{sign} {abs(v):.3g}*{name}" if parts else f"{sign}{abs(v):.3g}*{name}")
        return " ".join(parts) if parts else "0"

    def dominant_variables(self, k: int, threshold: float = 0.2) -> tuple[str, ...]:
        col = self.axes[:, k - 1]
        return tuple(name for v, name in zip(col, self.names) if abs(v) >= threshold)


def canonicalize(model: QuadraticModel, cond_tol: float = DEFAULT_COND_TOL) -> CanonicalModel:
    """Reduce a model to canonical form.

    center = -1/2 B^-1 beta, y0 = b0 - 1/4 beta' B^-1 beta; eigenpairs
    come straight from the interaction matrix. Raises SingularMatrix
    (naming the offending axes) when the quadratic part is degenerate,
    since the shift is then undefined.
    """
    eig = jacobi_eigen(model.interaction)
    if eig.condition() < cond_tol:
        mags = np.abs(eig.lambdas)
        floor = cond_tol * float(mags.max())
        bad = [k + 1 for k in range(model.n) if mags[k] <= floor]
        raise SingularMatrix(
            f"quadratic part is degenerate along canonical axes {bad}; "
            "the canonical shift is undefined. Drop the degenerate "
            "directions or supply a model with a nonsingular interaction matrix."
        )
    w = solve(model.interaction, model.linear, cond_tol)  # w = B^-1 beta
    center = -0.5 * w
    y0 = model.intercept - 0.25 * float(model.linear @ w)
    center.setflags(write=False)
    return CanonicalModel(
        names=model.names,
        center=center,
        y0=y0,
        lambdas=eig.lambdas,
        axes=eig.vectors,
        kind=classify(eig.lambdas),
    )


def with_center(canon: CanonicalModel, center) -> CanonicalModel:
    """Same canonical frame re-centered at an externally supplied point.

    Regions and trade relations are sometimes quoted about a published
    center rather than the computed stationary point; this swaps the
    origin while keeping eigenvalues and axes.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (canon.n,):
        raise DimensionMismatch(f"center has shape {c.shape}, expected ({canon.n},)")
    c = c.copy()
    c.setflags(write=False)
    return replace(canon, center=c)


def _as_vector(canon: CanonicalModel, vec, what: str) -> np.ndarray:
    x = np.asarray(vec, dtype=float)
    if x.shape != (canon.n,):
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({canon.n},)")
    return x


def to_canonical(canon: CanonicalModel, point) -> np.ndarray:
    """Canonical coordinates z_k = V_k' (X - center)."""
    x = _as_vector(canon, point, "point")
    return canon.axes.T @ (x - canon.center)


def from_canonical(canon: CanonicalModel, z) -> np.ndarray:
    """Inverse map X = center + sum_k z_k V_k."""
    zz = _as_vector(canon, z, "canonical coordinates")
    return canon.center + canon.axes @ zz


def canonical_response(canon: CanonicalModel, z) -> float:
    """Transformed response y0 + sum_k lambda_k z_k**2."""
    zz = _as_vector(canon, z, "canonical coordinates")
    return float(canon.y0 + canon.lambdas @ (zz * zz))

