"""Canonical reduction of a quadratic model.

Shifts the origin to the stationary point and rotates onto the
eigenvector frame of the interaction matrix, after which the model is
a pure weighted sum of squares:

    Y = y0 + sum_k lambda_k z_k**2,      z_k = V_k' (X - center)

The eigenvalue signs classify the stationary point, labelled "maximum",
"minimum", "saddle" or "degenerate". Canonical axes are numbered from 1
to match the usual z_1 .. z_n labelling.

One rule, ``_degenerate_axes`` (``linalg.small_axes`` at ZERO_TOL_FACTOR,
1-based), marks axis k degenerate when |lambda_k| <= ZERO_TOL_FACTOR *
max|lambda|: the surface is a ridge there and the stationary point
undefined. ``canonicalize`` refuses a model by it; a frame decides it
once, as ``CanonicalModel.degenerate_axes``, the one set later stages read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegeneratePair, DimensionMismatch, IndexOutOfRange, SingularMatrix
from .linalg import check_point, jacobi_eigen, small_axes, solve
from .model import QuadraticModel

# Eigenvalues within this factor of max|lambda| count as zero.
ZERO_TOL_FACTOR = 1e-9

# Eigenvector components below this magnitude are left out of axis labels.
AXIS_LABEL_THRESHOLD = 0.2


def _degenerate_axes(lambdas) -> tuple[int, ...]:
    """1-based ``small_axes`` at ZERO_TOL_FACTOR: the axes with |lambda| <=
    ZERO_TOL_FACTOR * max|lambda| (all axes of a zero spectrum)."""
    return tuple((small_axes(lambdas, ZERO_TOL_FACTOR) + 1).tolist())


@dataclass(frozen=True, eq=False)
class CanonicalModel:
    """A quadratic model in its canonical frame.

    ``axes`` holds the orthonormal eigenvectors as columns, ordered by
    descending |lambda| alongside ``lambdas``. ``y0`` is the
    transformed response at the center. ``degenerate_axes`` and ``kind``
    derive from ``lambdas``, so neither can contradict them.
    ``center`` and ``lambdas`` must pass ``check_point``, ``axes`` must be
    a finite (n, n) array and ``y0`` a finite number, or DimensionMismatch
    names the field. The three arrays are kept as read-only float copies,
    whatever array-likes they were given as.
    """

    names: tuple[str, ...]
    center: np.ndarray
    y0: float
    lambdas: np.ndarray
    axes: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.names)
        axes = np.asarray(self.axes, dtype=float)
        if axes.shape != (n, n):
            raise DimensionMismatch(f"axes has shape {axes.shape}, expected ({n}, {n})")
        if not np.isfinite(axes).all():
            raise DimensionMismatch("axes entries must be finite")
        if not math.isfinite(self.y0):
            raise DimensionMismatch(f"y0 must be finite, got {self.y0!r}")
        for field in ("center", "lambdas", "axes"):
            value = axes if field == "axes" else check_point(getattr(self, field), n, field)
            value = np.array(value)  # a copy, in the same layout
            value.setflags(write=False)
            object.__setattr__(self, field, value)

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def abs_lambdas(self) -> np.ndarray:
        """|lambda_k| as a read-only array, computed once per frame."""
        lam = np.abs(self.lambdas)
        lam.setflags(write=False)
        return lam

    @property
    def center_norm(self) -> float:
        """|center|, computed on first use rather than at construction and
        cached only when finite, so that a center whose square overflows
        warns in every call that needs it."""
        norm = self.__dict__.get("_center_norm")
        if norm is None:
            norm = math.sqrt(self.center.dot(self.center))
            if math.isfinite(norm):
                self.__dict__["_center_norm"] = norm
        return norm

    @cached_property
    def degenerate_axes(self) -> tuple[int, ...]:
        """``_degenerate_axes`` of ``lambdas``, decided once per frame."""
        return _degenerate_axes(self.lambdas)

    @property
    def kind(self) -> str:
        """The stationary point's kind: "degenerate" if ``degenerate_axes``
        holds an axis, else "maximum", "minimum" or "saddle" by the signs."""
        if self.degenerate_axes:
            return "degenerate"
        if (self.lambdas < 0).all():
            return "maximum"
        if (self.lambdas > 0).all():
            return "minimum"
        return "saddle"

    def axis_label(self, k: int) -> str:
        """Readable form of z_k over its dominant original variables.

        Components with |v| below AXIS_LABEL_THRESHOLD are suppressed,
        e.g. ``z1 ~ -0.257*Ga + 0.966*Bu``.
        """
        col = self.axes[:, k - 1]
        parts = []
        for v, name in zip(col, self.names):
            if abs(v) < AXIS_LABEL_THRESHOLD:
                continue
            sign = "-" if v < 0 else ("+" if parts else "")
            parts.append(f"{sign} {abs(v):.3g}*{name}" if parts else f"{sign}{abs(v):.3g}*{name}")
        return " ".join(parts) if parts else "0"

    def dominant_variables(self, k: int) -> tuple[str, ...]:
        col = self.axes[:, k - 1]
        return tuple(name for v, name in zip(col, self.names) if abs(v) >= AXIS_LABEL_THRESHOLD)


def canonicalize(model: QuadraticModel) -> CanonicalModel:
    """Reduce a model to canonical form.

    center = -1/2 B^-1 beta, y0 = b0 - 1/4 beta' B^-1 beta; eigenpairs
    come straight from the interaction matrix. Raises SingularMatrix
    naming the ``degenerate_axes`` of the quadratic part, since the
    shift is then undefined.
    """
    eig = jacobi_eigen(model.interaction)
    bad = _degenerate_axes(eig.lambdas)
    if bad:
        raise SingularMatrix(
            f"quadratic part is degenerate along canonical axes {list(bad)}; "
            "the canonical shift is undefined. Drop the degenerate "
            "directions or supply a model with a nonsingular interaction matrix."
        )
    w = solve(model.interaction, model.linear)  # w = B^-1 beta
    center = -0.5 * w
    y0 = model.intercept - 0.25 * float(model.linear @ w)
    return CanonicalModel(
        names=model.names,
        center=center,
        y0=y0,
        lambdas=eig.lambdas,
        axes=eig.vectors,
    )


def check_pair(canon: CanonicalModel, i: int, j: int) -> tuple[float, float]:
    """(lambda_i, lambda_j) for a region or trade pair.

    Raises IndexOutOfRange unless i and j are distinct integer axes in
    1..n, and DegeneratePair if either is one of ``canon.degenerate_axes``.
    """
    if i == j:
        raise IndexOutOfRange(f"canonical pair needs two distinct axes, got ({i}, {j})")
    for k in (i, j):
        try:
            operator.index(k)
        except TypeError:
            raise IndexOutOfRange(f"canonical axis {k!r} is not an integer") from None
        if not 1 <= k <= canon.n:
            raise IndexOutOfRange(f"canonical axis {k} outside 1..{canon.n}")
    bad = [k for k in (i, j) if k in canon.degenerate_axes]
    if bad:
        raise DegeneratePair(f"canonical axes {bad} have |eigenvalue| <= "
                             f"{ZERO_TOL_FACTOR:g} max|eigenvalue|")
    return float(canon.lambdas[i - 1]), float(canon.lambdas[j - 1])


def with_center(canon: CanonicalModel, center) -> CanonicalModel:
    """Same canonical frame re-centered at an externally supplied point.

    Regions and trade relations are sometimes quoted about a published
    center rather than the computed stationary point; this swaps the
    origin while keeping eigenvalues and axes. The frame checks the center
    with ``linalg.check_point``, as the functions below check points and
    canonical coordinates.
    """
    return replace(canon, center=center)


def to_canonical(canon: CanonicalModel, point) -> np.ndarray:
    """Canonical coordinates z_k = V_k' (X - center)."""
    x = check_point(point, canon.n)
    return (x - canon.center).dot(canon.axes)


def from_canonical(canon: CanonicalModel, z) -> np.ndarray:
    """Inverse map X = center + sum_k z_k V_k."""
    zz = check_point(z, canon.n, "canonical point")
    return canon.center + canon.axes.dot(zz)


def canonical_response(canon: CanonicalModel, z) -> float:
    """Transformed response y0 + sum_k lambda_k z_k**2."""
    zz = check_point(z, canon.n, "canonical point")
    return float(canon.y0 + canon.lambdas.dot(zz * zz))

