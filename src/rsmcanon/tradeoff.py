"""Iso-response trade relations between attributable variables.

Two canonical coordinates with opposite-sign eigenvalues can offset
each other exactly: lambda_i z_i^2 + lambda_j z_j^2 = 0 along the
hyperplanes z_i = +-sqrt(|lambda_j/lambda_i|) z_j. When the pair's
eigenvectors involve exactly two original variables, those hyperplanes
pin a positive exchange ratio between the two variables that leaves
the predicted response unchanged (the M = 0 "trade" rate).

For a nonzero fluctuation band M the exchange is read off a hyperbolic
region parametrization instead: variables sharing a basis function
(cosh or sinh) trade at the ratio of their coefficients. Those
marginal rates depend on M and differ from the M = 0 rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalModel, check_pair
from .errors import (
    NoPositiveBranch,
    NotTwoVariable,
    SameSignPair,
    WrongKind,
    ZeroCoefficient,
)
from .regions import RegionParametrization

# Eigenvector components below this magnitude count as "not touching"
# a variable (orthonormal columns, so the scale is 1).
ACTIVE_COMPONENT_TOL = 1e-9


@dataclass(frozen=True)
class ConversionRate:
    """An exchange ratio between two variables at fluctuation bound M.

    ``ratio`` is in units of ``to_variable`` per unit of
    ``from_variable``. ``branch`` records what produced the rate: the
    hyperplane sign ("+" or "-") for M = 0 rates, or the shared basis
    function ("cosh"/"sinh") for marginal rates.
    """

    from_variable: str
    to_variable: str
    ratio: float
    branch: str
    bound: float

    def __str__(self) -> str:
        return f"{self.from_variable} = {self.ratio:.6g} {self.to_variable}"


def iso_slopes(canon: CanonicalModel, i: int, j: int) -> tuple[float, float]:
    """Hyperplane slopes z_i = +-sqrt(|lambda_j / lambda_i|) z_j.

    Requires opposite-sign eigenvalues (one must offset the other);
    raises SameSignPair otherwise. The pair must pass ``check_pair``.
    """
    li, lj = check_pair(canon, i, j)
    if li * lj > 0.0:
        raise SameSignPair(
            f"axes ({i}, {j}) have same-sign eigenvalues; no cancellation possible"
        )
    slope = float(np.sqrt(abs(lj / li)))
    return (slope, -slope)


def default_pairing(canon: CanonicalModel) -> list[tuple[int, int]]:
    """Opposite-sign canonical pairs whose eigenvectors touch exactly
    two original variables and give at least one positive branch, in
    index order. A pair touches every variable either axis does, so axes
    with more than two active components are ruled out first, at once."""
    few = (np.flatnonzero((np.abs(canon.axes) > ACTIVE_COMPONENT_TOL).sum(0) <= 2) + 1).tolist()
    out = []
    for pos, i in enumerate(few):
        for j in few[pos + 1:]:
            if canon.lambdas[i - 1] * canon.lambdas[j - 1] >= 0.0:
                continue
            active = _active_variables(canon, i, j)
            if len(active) == 2 and _positive_branches(canon, i, j, active):
                out.append((i, j))
    return out


def _active_variables(canon: CanonicalModel, i: int, j: int) -> list[int]:
    vi, vj = canon.axes[:, i - 1], canon.axes[:, j - 1]
    mask = np.maximum(np.abs(vi), np.abs(vj)) > ACTIVE_COMPONENT_TOL
    return [int(k) for k in np.flatnonzero(mask)]


def _positive_branches(canon: CanonicalModel, i: int, j: int,
                       active: list[int]) -> list[ConversionRate]:
    """M = 0 rates of an opposite-sign pair on its two active variables,
    one per hyperplane sign with a positive, finite ratio, by ratio."""
    slope, _ = iso_slopes(canon, i, j)
    a, b = active
    vi, vj = canon.axes[:, i - 1], canon.axes[:, j - 1]
    found = []
    for sign, tag in ((1.0, "+"), (-1.0, "-")):
        w = vi - sign * slope * vj
        # a branch whose null line collapses onto a coordinate axis
        # (either component of w vanishing) is not a usable trade
        scale = float(np.hypot(w[a], w[b]))
        if min(abs(w[a]), abs(w[b])) <= ACTIVE_COMPONENT_TOL * scale:
            continue
        ratio = -w[b] / w[a]
        if np.isfinite(ratio) and ratio > 0.0:
            found.append(ConversionRate(from_variable=canon.names[a], to_variable=canon.names[b],
                                        ratio=float(ratio), branch=tag, bound=0.0))
    found.sort(key=lambda r: r.ratio)
    return found


def conversion_rates(canon: CanonicalModel, pairing=None) -> list[ConversionRate]:
    """Exact (M = 0) exchange ratios for each canonical pair.

    For each pair and each hyperplane sign, the two active variables
    are solved for their proportionality coefficient; only branches
    with a positive, finite coefficient are acceptable trades. Raises
    NotTwoVariable when a pair involves more than two variables and
    NoPositiveBranch when neither sign works; the default pairing
    holds only pairs that pass both.
    """
    if pairing is None:
        pairing = default_pairing(canon)
    rates: list[ConversionRate] = []
    for i, j in pairing:
        iso_slopes(canon, i, j)  # range, degeneracy and sign checks come first
        active = _active_variables(canon, i, j)
        if len(active) != 2:
            involved = ", ".join(
                f"{canon.names[k]} (V{i}: {canon.axes[k, i - 1]:+.4g}, "
                f"V{j}: {canon.axes[k, j - 1]:+.4g})"
                for k in active
            )
            raise NotTwoVariable(
                f"pair ({i}, {j}) involves {len(active)} variables, expected 2: {involved}"
            )
        found = _positive_branches(canon, i, j, active)
        if not found:
            raise NoPositiveBranch(
                f"pair ({i}, {j}): neither hyperplane sign gives a positive ratio"
            )
        rates.extend(found)
    return rates


def marginal_rates(region: RegionParametrization) -> list[ConversionRate]:
    """Exchange ratios at M != 0, read off a hyperbolic parametrization.

    Variables sharing a basis function trade at |coef_v / coef_w| on
    that function; cosh-linked and sinh-linked pairs are reported
    separately since the two move independently along the band.
    """
    if region.kind.is_elliptical:
        raise WrongKind("marginal rates are defined for hyperbolic regions only")
    rates: list[ConversionRate] = []
    for col, tag in ((1, "cosh"), (2, "sinh")):
        coefs = region.affine[:, col]
        floor = ACTIVE_COMPONENT_TOL * max(1.0, float(np.abs(coefs).max()))
        active = [int(k) for k in np.flatnonzero(np.abs(coefs) > floor)]
        for a_pos, v in enumerate(active):
            for w in active[a_pos + 1:]:
                rates.append(ConversionRate(
                    from_variable=region.names[v],
                    to_variable=region.names[w],
                    ratio=float(abs(coefs[v] / coefs[w])),
                    branch=tag,
                    bound=region.bound,
                ))
    if not rates:
        raise ZeroCoefficient("no variable pair shares a basis function in this region")
    return rates
