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
marginal rates differ from the M = 0 rates.

One rule, ``_active``, says which components of a vector c are nonzero:
|c_k| > ACTIVE_COMPONENT_TOL ||c||_2. It picks the variables that axes
touch, the usable branches and the coefficients sharing a basis
function. It is free of scale, and the coefficients all scale by
sqrt(M), so the marginal rates are the same at every accepted M > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalModel
from .errors import DegeneratePair, NoPositiveBranch, NotTwoVariable, SameSignPair, WrongKind
from .regions import RegionParametrization, region_kind

# Components at or below this factor of their vector's 2-norm count as
# "not touching" a variable (see ``_active``).
ACTIVE_COMPONENT_TOL = 1e-9

# The one printed form of an exchange ratio, "A = r B", filled in that order.
RATE_FORMAT = "{} = {:.6g} {}"


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
        return RATE_FORMAT.format(self.from_variable, self.ratio, self.to_variable)


def iso_slopes(canon: CanonicalModel, i: int, j: int) -> tuple[float, float]:
    """Hyperplane slopes z_i = +-sqrt(|lambda_j / lambda_i|) z_j.

    Requires opposite-sign eigenvalues, one to offset the other: raises
    SameSignPair where ``region_kind`` finds the pair elliptical.
    """
    if region_kind(canon, i, j) != "hyperbolic":
        raise SameSignPair(f"axes ({i}, {j}) have same-sign eigenvalues; no cancellation possible")
    slope = float(np.sqrt(abs(canon.lambdas[j - 1] / canon.lambdas[i - 1])))
    return (slope, -slope)


def default_pairing(canon: CanonicalModel) -> list[tuple[int, int]]:
    """The opposite-sign pairs that ``_pair_rates`` accepts, in index order.
    A pair touches every variable either axis does, so axes with more
    than two active components are ruled out first, at once."""
    few = (np.flatnonzero(_active(canon.axes).sum(0) <= 2) + 1).tolist()
    out = []
    for pos, i in enumerate(few):
        for j in few[pos + 1:]:
            try:
                _pair_rates(canon, i, j)
            except (DegeneratePair, SameSignPair, NotTwoVariable, NoPositiveBranch):
                continue
            out.append((i, j))
    return out


def _active(vectors) -> np.ndarray:
    """|c_k| > ACTIVE_COMPONENT_TOL ||c||_2 for each column c of ``vectors``
    (or the one vector), with the norm taken without squaring."""
    mags = np.abs(vectors)
    return mags > ACTIVE_COMPONENT_TOL * np.hypot.reduce(mags, axis=0)


def _pair_rates(canon: CanonicalModel, i: int, j: int) -> list[ConversionRate]:
    """M = 0 rates of pair (i, j), one per hyperplane sign with a
    positive, finite ratio, by ratio. After the ``iso_slopes`` checks,
    raises NotTwoVariable unless the two axes touch exactly two
    variables, and NoPositiveBranch when neither sign gives a rate."""
    slope, _ = iso_slopes(canon, i, j)
    v = canon.axes[:, [i - 1, j - 1]]
    active = np.flatnonzero(_active(v).any(axis=1)).tolist()
    if len(active) != 2:
        involved = ", ".join(f"{canon.names[k]} (V{i}: {v[k, 0]:+.4g}, V{j}: {v[k, 1]:+.4g})"
                             for k in active)
        raise NotTwoVariable(f"pair ({i}, {j}) involves {len(active)} variables, "
                             f"expected 2: {involved}")
    a, b = active
    found = []
    for sign, tag in ((1.0, "+"), (-1.0, "-")):
        w = v[active, 0] - sign * slope * v[active, 1]
        # a branch whose null line collapses onto a coordinate axis
        # (either component of w inactive) is not a usable trade
        if _active(w).all() and (ratio := float(-w[1] / w[0])) > 0.0:
            found.append(ConversionRate(from_variable=canon.names[a], to_variable=canon.names[b],
                                        ratio=ratio, branch=tag, bound=0.0))
    if not found:
        raise NoPositiveBranch(f"pair ({i}, {j}): neither hyperplane sign gives a positive ratio")
    found.sort(key=lambda r: r.ratio)
    return found


def conversion_rates(canon: CanonicalModel, pairing=None) -> list[ConversionRate]:
    """Exact (M = 0) exchange ratios for each canonical pair.

    For each pair and each hyperplane sign, the two active variables
    are solved for their proportionality coefficient; only branches
    with a positive, finite coefficient are acceptable trades. Raises
    NotTwoVariable when a pair involves more than two variables and
    NoPositiveBranch when neither sign works, and DegeneratePair for an
    axis with a zero eigenvalue; the default pairing holds only pairs
    that pass all three.
    """
    if pairing is None:
        pairing = default_pairing(canon)
    return [rate for i, j in pairing for rate in _pair_rates(canon, i, j)]


def marginal_rates(region: RegionParametrization) -> list[ConversionRate]:
    """Exchange ratios at M != 0, read off a hyperbolic parametrization.

    Variables sharing a basis function trade at |coef_v / coef_w| on
    that function; cosh-linked and sinh-linked pairs are reported
    separately since the two move independently along the band. A band
    whose basis functions each move one variable gives no rates.
    """
    if not region.unbounded:
        raise WrongKind("marginal rates are defined for hyperbolic regions only")
    rates: list[ConversionRate] = []
    for col, tag in enumerate(region.basis, start=1):
        coefs = region.affine[:, col]
        active = np.flatnonzero(_active(coefs)).tolist()
        for a_pos, v in enumerate(active):
            for w in active[a_pos + 1:]:
                rates.append(ConversionRate(
                    from_variable=region.names[v],
                    to_variable=region.names[w],
                    ratio=float(abs(coefs[v] / coefs[w])),
                    branch=tag,
                    bound=region.bound,
                ))
    return rates
