"""Two-dimensional confidence regions |Y - Y0| <= M for canonical pairs.

With all other canonical coordinates pinned to zero, the bound
``|lambda_i z_i^2 + lambda_j z_j^2| <= M`` cuts a conic slice whose
shape depends only on the eigenvalue signs: an ellipse interior when
they agree, an orthogonal-hyperbola band (unbounded, so not a
confidence region proper) when they differ.

Boundaries are parametrized with (cos, sin) for ellipses and
(cosh, sinh) for hyperbolas, and mapped back to original variables by
an affine table with one row per variable:

    x_v = center_v + coef1_v * basis1(param) + coef2_v * basis2(param)

Here M is a deterministic band on the transformed response, not a
probabilistic coverage set.

``region`` builds a pair's region with ``ellipse_region`` or
``hyperbola_region`` as ``region_kind`` dictates; a pair is usable when
``canonical.check_pair`` accepts it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalModel, check_pair, to_canonical, with_center
from .errors import InputError, NonPositiveBound, WrongKind

# Slack applied to the membership test so exact boundary points
# (|Y - Y0| = M up to roundoff) count as inside.
CONTAINS_SLACK = 1e-12

DEFAULT_T_MAX = 3.0


class RegionKind(enum.Enum):
    """Conic class of a canonical pair's confidence region."""

    ELLIPTICAL_MAXIMUM = "elliptical_maximum"
    ELLIPTICAL_MINIMUM = "elliptical_minimum"
    HYPERBOLIC = "hyperbolic"

    @property
    def is_elliptical(self) -> bool:
        return self is not RegionKind.HYPERBOLIC


@dataclass(frozen=True, eq=False)
class RegionParametrization:
    """A parametrized 2D region boundary for one canonical pair.

    ``pair`` holds 1-based canonical indices in basis order: for
    ellipses (cos axis, sin axis) as requested, for hyperbolas
    (cosh axis with lambda > 0, sinh axis with lambda < 0).
    ``affine`` is an (n, 3) table of (center, coef on basis 1, coef on
    basis 2) rows, one per original variable.
    """

    pair: tuple[int, int]
    bound: float
    kind: RegionKind
    semiaxes: tuple[float, float]
    names: tuple[str, ...]
    affine: np.ndarray

    @property
    def basis(self) -> tuple[str, str]:
        if self.kind.is_elliptical:
            return ("cos", "sin")
        return ("cosh", "sinh")

    @property
    def unbounded(self) -> bool:
        """Hyperbolic bands do not enclose a finite region."""
        return not self.kind.is_elliptical


def region_kind(canon: CanonicalModel, i: int, j: int) -> RegionKind:
    """Classify the (z_i, z_j) region by the eigenvalue sign product."""
    li, lj = check_pair(canon, i, j)
    if li * lj > 0.0:
        return RegionKind.ELLIPTICAL_MAXIMUM if li < 0.0 else RegionKind.ELLIPTICAL_MINIMUM
    return RegionKind.HYPERBOLIC


def region(canon: CanonicalModel, i: int, j: int, bound: float) -> RegionParametrization:
    """The (z_i, z_j) region at bound M, built as ``region_kind`` dictates."""
    build = ellipse_region if region_kind(canon, i, j).is_elliptical else hyperbola_region
    return build(canon, i, j, bound)


def ellipse_region(canon: CanonicalModel, i: int, j: int, bound: float,
                   center=None) -> RegionParametrization:
    """Elliptical region z_i = a_i r cos(t), z_j = a_j r sin(t), r <= 1.

    Semiaxes are sqrt(M/|lambda|). ``center`` overrides the canonical
    center for the affine table (the shape itself is translation
    invariant), as ``with_center`` would.
    """
    kind = region_kind(canon, i, j)
    if not kind.is_elliptical:
        raise WrongKind(f"pair ({i}, {j}) has mixed eigenvalue signs; use hyperbola_region")
    return _build(canon, (i, j), kind, bound, center)


def hyperbola_region(canon: CanonicalModel, i: int, j: int, bound: float,
                     center=None) -> RegionParametrization:
    """Hyperbolic band z_pos = a r cosh(t), z_neg = b r sinh(t), |r| <= 1.

    The positive-eigenvalue axis carries cosh and the negative one
    sinh; the pair is reordered internally if needed. The band is
    unbounded, so it bounds the response fluctuation without enclosing
    a finite region. ``center`` acts as in ``ellipse_region``.
    """
    kind = region_kind(canon, i, j)
    if kind.is_elliptical:
        raise WrongKind(f"pair ({i}, {j}) has same-sign eigenvalues; use ellipse_region")
    pair = (i, j) if canon.lambdas[i - 1] > 0.0 else (j, i)
    return _build(canon, pair, kind, bound, center)


def _build(canon: CanonicalModel, pair: tuple[int, int], kind: RegionKind, bound: float,
           center) -> RegionParametrization:
    """Region for ``pair`` in basis order; semiaxes are sqrt(M/|lambda|)."""
    if not bound > 0.0:
        raise NonPositiveBound(f"bound must be positive, got {bound!r}")
    if center is not None:
        canon = with_center(canon, center)
    i, j = pair
    a_i = float(np.sqrt(bound / abs(canon.lambdas[i - 1])))
    a_j = float(np.sqrt(bound / abs(canon.lambdas[j - 1])))
    affine = np.column_stack([
        canon.center,
        a_i * canon.axes[:, i - 1],
        a_j * canon.axes[:, j - 1],
    ])
    affine.setflags(write=False)
    return RegionParametrization(
        pair=pair, bound=float(bound), kind=kind,
        semiaxes=(a_i, a_j), names=canon.names, affine=affine,
    )


def _sample(region: RegionParametrization, count: int, t_max: float,
            closed: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary samples as arrays: param (m,), r (m,), z (m, 2) and x (m, n).

    The closed-curve rule: a ``closed`` ellipse is sampled at
    linspace(0, 2*pi, count), endpoint included, so its last row closes
    the curve (equal to the first only up to rounding: sin(2*pi) is about
    -2.4e-16); an open one at t = 2*pi*k/count, endpoint excluded, so
    count = 4 hits the four vertices. A hyperbola is sampled at count
    points spanning [-t_max, t_max] inclusive on the r = +1 branch, and
    ``closed`` appends the r = -1 branch.
    """
    if count < 2:
        raise InputError(f"need at least 2 samples, got {count}")
    if not 0.0 < t_max < np.inf:
        raise InputError(f"t_max must be positive and finite, got {t_max!r}")
    if region.kind.is_elliptical:
        t = (np.linspace(0.0, 2.0 * np.pi, count) if closed
             else 2.0 * np.pi * np.arange(count) / count)
        r, c1, c2 = np.ones(count), np.cos(t), np.sin(t)
    else:
        t = np.tile(np.linspace(-t_max, t_max, count), 1 + closed)
        r = np.repeat((1.0, -1.0)[:1 + closed], count)
        c1, c2 = r * np.cosh(t), r * np.sinh(t)
    a = region.affine
    b1, b2 = a[:, 1] * c1[:, None], a[:, 2] * c2[:, None]
    # Closed hyperbola rows round as center + r * (b1 + b2), the others as
    # (center + b1) + b2, so CSV and boundary_points values keep their bits.
    x = a[:, 0] + (b1 + b2) if closed and region.unbounded else a[:, 0] + b1 + b2
    return t, r, np.column_stack([region.semiaxes[0] * c1, region.semiaxes[1] * c2]), x


def boundary_points(region: RegionParametrization, count: int,
                    t_max: float = DEFAULT_T_MAX) -> list[tuple[float, tuple[float, float], np.ndarray]]:
    """Sample the r = 1 boundary at evenly spaced parameter values, open
    curve (see ``_sample``). Returns (parameter, (z_i, z_j),
    original-variable point) triples.
    """
    t, _, z, x = _sample(region, count, t_max)
    return [(p, (z1, z2), xk) for p, (z1, z2), xk in zip(t.tolist(), z.tolist(), x)]


def contains(canon: CanonicalModel, point, bound: float) -> bool:
    """Membership test |Y - Y0| <= M, evaluated in the canonical frame.

    Points within roundoff of the boundary, such as the boundary
    samples, count as inside. The slack is CONTAINS_SLACK times M or,
    where larger, times sum_k |lambda_k z_k| (|z_k| + |x| + |center|).
    Rounding x and the center moves each z_k by about eps (|x| +
    |center|), which moves |Y - Y0| by far more than eps M where the
    terms cancel (a hyperbola far along its asymptotes) or where the
    point is far from the origin.
    """
    if not bound > 0.0:
        raise NonPositiveBound(f"bound must be positive, got {bound!r}")
    z = to_canonical(canon, point)
    fluct = abs(float(canon.lambdas @ (z * z)))
    if fluct <= bound * (1.0 + CONTAINS_SLACK):
        return True
    h = math.sqrt(np.dot(point, point)) + math.sqrt(canon.center @ canon.center)
    return fluct <= bound + CONTAINS_SLACK * float(np.abs(canon.lambdas * z) @ (np.abs(z) + h))


def max_intervals(region: RegionParametrization) -> list[tuple[str, float, float]]:
    """Per-variable box bounds |x_v - center_v| <= h_v for an ellipse.

    h_v is the largest displacement of x_v over the boundary, which for
    the (cos, sin) parametrization is hypot of the two coefficients;
    with axis-separated variables it reduces to the single nonzero
    coefficient. The box is looser than the ellipse itself.
    """
    if not region.kind.is_elliptical:
        raise WrongKind("maximal intervals are defined for elliptical regions only")
    out = []
    for name, (center_v, c1, c2) in zip(region.names, region.affine):
        out.append((name, float(center_v), float(np.hypot(c1, c2))))
    return out
