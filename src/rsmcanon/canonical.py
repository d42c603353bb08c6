"""Canonical reduction of a quadratic model.

Shifts the origin to the stationary point and rotates onto the
eigenvector frame of the interaction matrix, after which the model is
a pure weighted sum of squares:

    Y = y0 + sum_k lambda_k z_k**2,      z_k = V_k' (X - center)

The eigenvalue signs classify the stationary point (maximum, minimum,
saddle, or degenerate). Canonical axes are numbered from 1 to match
the usual z_1 .. z_n labelling.

One rule, ``degenerate_axes``, marks axis k degenerate when |lambda_k|
<= ZERO_TOL_FACTOR * max|lambda|: the surface is a ridge there and the
stationary point undefined. ``canonicalize`` rejects such a model and
``check_pair`` refuses such a region or trade pair, by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePair, DimensionMismatch, IndexOutOfRange, SingularMatrix
from .linalg import jacobi_eigen, solve
from .model import QuadraticModel

# Eigenvalues within this factor of max|lambda| count as zero.
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


def degenerate_axes(lambdas, zero_tol: float | None = None) -> tuple[int, ...]:
    """1-based axes with |lambda| <= ``zero_tol``, by default
    ZERO_TOL_FACTOR * max|lambda| (all axes of a zero spectrum)."""
    mags = np.abs(np.asarray(lambdas, dtype=float))
    if zero_tol is None:
        zero_tol = ZERO_TOL_FACTOR * float(mags.max(initial=0.0))
    return tuple(int(k) + 1 for k in np.flatnonzero(mags <= zero_tol))


def classify(lambdas, zero_tol: float | None = None) -> StationaryKind:
    """Classify by signs: all negative -> maximum, all positive ->
    minimum, any degenerate axis -> degenerate, mixed -> saddle."""
    lam = np.asarray(lambdas, dtype=float)
    bad = degenerate_axes(lam, zero_tol)
    if bad:
        return StationaryKind("degenerate", bad)
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


def canonicalize(model: QuadraticModel) -> CanonicalModel:
    """Reduce a model to canonical form.

    center = -1/2 B^-1 beta, y0 = b0 - 1/4 beta' B^-1 beta; eigenpairs
    come straight from the interaction matrix. Raises SingularMatrix
    naming the ``degenerate_axes`` of the quadratic part, since the
    shift is then undefined.
    """
    eig = jacobi_eigen(model.interaction)
    bad = degenerate_axes(eig.lambdas)
    if bad:
        raise SingularMatrix(
            f"quadratic part is degenerate along canonical axes {list(bad)}; "
            "the canonical shift is undefined. Drop the degenerate "
            "directions or supply a model with a nonsingular interaction matrix."
        )
    w = solve(model.interaction, model.linear)  # w = B^-1 beta
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


def check_pair(canon: CanonicalModel, i: int, j: int) -> tuple[float, float]:
    """(lambda_i, lambda_j) for a region or trade pair.

    Raises IndexOutOfRange unless i and j are distinct axes in 1..n,
    and DegeneratePair if either is one of the ``degenerate_axes``.
    """
    if i == j:
        raise IndexOutOfRange(f"canonical pair needs two distinct axes, got ({i}, {j})")
    for k in (i, j):
        if not 1 <= k <= canon.n:
            raise IndexOutOfRange(f"canonical axis {k} outside 1..{canon.n}")
    bad = [k for k in (i, j) if k in degenerate_axes(canon.lambdas)]
    if bad:
        raise DegeneratePair(f"canonical axes {bad} have |eigenvalue| <= "
                             f"{ZERO_TOL_FACTOR:g} max|eigenvalue|")
    return float(canon.lambdas[i - 1]), float(canon.lambdas[j - 1])


def with_center(canon: CanonicalModel, center) -> CanonicalModel:
    """Same canonical frame re-centered at an externally supplied point.

    Regions and trade relations are sometimes quoted about a published
    center rather than the computed stationary point; this swaps the
    origin while keeping eigenvalues and axes.
    """
    c = _as_vector(canon, center, "center").copy()
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

