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
probabilistic coverage set. M must be positive and finite;
``check_bound`` is the one test of that, and NonPositiveBound its error.
``boundary_points`` is the one boundary sampler and the one test of
``t_max``: a positive, finite number, with samples that do not overflow
in their own arithmetic under ``np.errstate(over="raise")``.

``region_kind`` is the one sign rule for a pair: it compares signs, as
the product of tiny eigenvalues underflows, and returns the label
"elliptical_maximum", "elliptical_minimum" or "hyperbolic". ``region``
builds a pair's region as the label dictates, through one checked
builder; a pair is usable when ``canonical.check_pair`` accepts it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalModel, check_pair, to_canonical
from .errors import InputError, NonPositiveBound, WrongKind

# Slack applied to the membership test so exact boundary points
# (|Y - Y0| = M up to roundoff) count as inside.
CONTAINS_SLACK = 1e-12

DEFAULT_T_MAX = 3.0
DEFAULT_BOUND = 1e-8


@dataclass(frozen=True, eq=False)
class RegionParametrization:
    """A parametrized 2D region boundary for one canonical pair.

    ``kind`` is the pair's ``region_kind`` label; ``unbounded`` (a
    hyperbolic band) is the one test of it. ``pair`` holds 1-based
    canonical indices in basis order: for ellipses (cos axis, sin axis)
    as requested, for hyperbolas (cosh axis with lambda > 0, sinh axis
    with lambda < 0).
    ``affine`` is an (n, 3) table of (center, coef on basis 1, coef on
    basis 2) rows, one per original variable.
    """

    pair: tuple[int, int]
    bound: float
    kind: str
    semiaxes: tuple[float, float]
    names: tuple[str, ...]
    affine: np.ndarray

    @property
    def unbounded(self) -> bool:
        """Hyperbolic bands do not enclose a finite region."""
        return self.kind == "hyperbolic"

    @property
    def basis(self) -> tuple[str, str]:
        return ("cosh", "sinh") if self.unbounded else ("cos", "sin")


def _positive_finite(value) -> bool:
    """Whether ``value`` lies in (0, inf): a number, or an array without axes."""
    try:
        return 0.0 < value < math.inf and not getattr(value, "ndim", 0)
    except (TypeError, ValueError):  # no order with floats, or an array of several entries
        return False


def check_bound(bound: float) -> float:
    """M as a float; NonPositiveBound unless it is a positive, finite number."""
    if not _positive_finite(bound):
        raise NonPositiveBound(f"bound must be positive and finite, got {bound!r}")
    return float(bound)


def region_kind(canon: CanonicalModel, i: int, j: int) -> str:
    """Label the (z_i, z_j) region by comparing the eigenvalue signs
    (elliptical when they agree), not by their product, which underflows."""
    li, lj = check_pair(canon, i, j)
    if (li < 0.0) == (lj < 0.0):
        return "elliptical_maximum" if li < 0.0 else "elliptical_minimum"
    return "hyperbolic"


def region(canon: CanonicalModel, i: int, j: int, bound: float) -> RegionParametrization:
    """The (z_i, z_j) region at bound M, built as ``region_kind`` dictates.

    ``ellipse_region`` builds z_i = a_i r cos(t), z_j = a_j r sin(t),
    r <= 1 for a same-sign pair, and ``hyperbola_region`` the band
    z_pos = a r cosh(t), z_neg = b r sinh(t), |r| <= 1 for a mixed-sign
    pair, its positive-eigenvalue axis first whichever order is asked.
    The band is unbounded: it bounds the response fluctuation without
    enclosing a finite region. Semiaxes are sqrt(M/|lambda|). The affine
    table is centered at ``canon.center``; ``with_center`` moves it.
    Given a pair of the other kind, either raises WrongKind naming the
    other, before it checks the bound.
    """
    build = hyperbola_region if region_kind(canon, i, j) == "hyperbolic" else ellipse_region
    return build(canon, i, j, bound)


def ellipse_region(canon: CanonicalModel, i: int, j: int, bound: float) -> RegionParametrization:
    return _build(canon, i, j, bound, unbounded=False)


def hyperbola_region(canon: CanonicalModel, i: int, j: int, bound: float) -> RegionParametrization:
    return _build(canon, i, j, bound, unbounded=True)


def _build(canon: CanonicalModel, i: int, j: int, bound: float,
           unbounded: bool) -> RegionParametrization:
    """The checked builder behind ``region``: WrongKind unless the pair's
    kind is the one asked for, then ``check_bound``, and InputError for a
    bound so large that the semiaxes overflow."""
    kind = region_kind(canon, i, j)
    i, j = int(i), int(j)  # checked by region_kind; the pair keeps Python ints
    if (kind == "hyperbolic") != unbounded:
        raise WrongKind(f"pair ({i}, {j}) has same-sign eigenvalues; use ellipse_region"
                        if unbounded else
                        f"pair ({i}, {j}) has mixed eigenvalue signs; use hyperbola_region")
    bound = check_bound(bound)
    i, j = pair = (j, i) if unbounded and not canon.lambdas[i - 1] > 0.0 else (i, j)
    a_i = math.sqrt(bound / abs(float(canon.lambdas[i - 1])))
    a_j = math.sqrt(bound / abs(float(canon.lambdas[j - 1])))
    if math.isinf(a_i + a_j):
        raise InputError(f"bound {bound!r} overflows the semiaxes of pair {pair}")
    affine = np.column_stack([canon.center, a_i * canon.axes[:, i - 1], a_j * canon.axes[:, j - 1]])
    affine.setflags(write=False)
    return RegionParametrization(pair=pair, bound=bound, kind=kind, semiaxes=(a_i, a_j),
                                 names=canon.names, affine=affine)


def boundary_points(region: RegionParametrization, count: int, t_max: float = DEFAULT_T_MAX
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary samples as arrays: param (m,), r (m,), z (m, 2) and x (m, n).

    An ellipse is sampled as a closed curve at linspace(0, 2*pi, count),
    endpoint included, so its last row closes the curve (equal to the
    first only up to rounding: sin(2*pi) is about -2.4e-16) and count = 5
    gives the four vertices and the closing row. A hyperbola is sampled
    at count points spanning [-t_max, t_max] inclusive on the r = +1
    branch, then the same on the r = -1 branch, 2*count rows in all.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise InputError(f"sample count {count!r} is not an integer") from None
    if count < 2:
        raise InputError(f"need at least 2 samples, got {count}")
    if not _positive_finite(t_max):
        raise InputError(f"t_max must be positive and finite, got {t_max!r}")
    if not region.unbounded:
        t, r = np.linspace(0.0, 2.0 * np.pi, count), np.ones(count)
    else:
        t = np.tile(np.linspace(-t_max, t_max, count), 2)
        r = np.repeat((1.0, -1.0), count)
    a = region.affine
    try:
        with np.errstate(over="raise"):
            c1, c2 = (r * getattr(np, name)(t) for name in region.basis)
            x = a[:, 0] + a[:, 1] * c1[:, None] + a[:, 2] * c2[:, None]
            return t, r, np.column_stack([region.semiaxes[0] * c1, region.semiaxes[1] * c2]), x
    except FloatingPointError:
        raise InputError(f"t_max {t_max!r} overflows the samples of hyperbola {region.pair}"
                         if region.unbounded else
                         f"the samples of ellipse {region.pair} overflow") from None


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
    check_bound(bound)
    z = to_canonical(canon, point)
    fluct = abs(float(canon.lambdas.dot(z * z)))
    if fluct <= bound * (1.0 + CONTAINS_SLACK):
        return True
    x = np.asarray(point, dtype=float)  # as to_canonical checked it
    h = math.sqrt(x.dot(x)) + canon.center_norm
    a = np.abs(z)  # |lambda_k z_k| is |lambda_k| |z_k| to the bit
    return fluct <= bound + CONTAINS_SLACK * float((canon.abs_lambdas * a).dot(a + h))


def max_intervals(region: RegionParametrization) -> list[tuple[str, float, float]]:
    """Per-variable box bounds |x_v - center_v| <= h_v for an ellipse.

    h_v is the largest displacement of x_v over the boundary, which for
    the (cos, sin) parametrization is hypot of the two coefficients;
    with axis-separated variables it reduces to the single nonzero
    coefficient. The box is looser than the ellipse itself.
    """
    if region.unbounded:
        raise WrongKind("maximal intervals are defined for elliptical regions only")
    out = []
    for name, (center_v, c1, c2) in zip(region.names, region.affine):
        out.append((name, float(center_v), float(np.hypot(c1, c2))))
    return out
