"""Iso-response slopes, M = 0 conversion rates, and marginal rates."""

import numpy as np
import pytest

from rsmcanon import (
    CanonicalModel,
    DegeneratePair,
    IndexOutOfRange,
    NotTwoVariable,
    RegionKind,
    RegionParametrization,
    SameSignPair,
    WrongKind,
    ZeroCoefficient,
    conversion_rates,
    default_pairing,
    hyperbola_region,
    ellipse_region,
    iso_slopes,
    marginal_rates,
)
from rsmcanon.canonical import SADDLE

from eu_reference import (
    EU_QUOTED_HYPERBOLIC_AFFINE,
    EU_RATE_GA_BU,
    EU_RATE_LI_FL,
    EU_SLOPE_14,
    EU_SLOPE_23,
    oracle_lambdas,
)

M_IPCC = 1e-8


def saddle_frame(lambdas, axes, names):
    return CanonicalModel(
        names=names, center=np.zeros(len(names)), y0=0.0,
        lambdas=np.asarray(lambdas, dtype=float), axes=np.asarray(axes, dtype=float),
        kind=SADDLE)


def quoted_band() -> RegionParametrization:
    """The published single-term hyperbolic coefficient table for (z2, z3)."""
    names = tuple(EU_QUOTED_HYPERBOLIC_AFFINE)
    affine = np.array([EU_QUOTED_HYPERBOLIC_AFFINE[name] for name in names])
    return RegionParametrization(
        pair=(2, 3), bound=M_IPCC, kind=RegionKind.HYPERBOLIC,
        semiaxes=(8625.4, 8713.76), names=names, affine=affine)


class TestIsoSlopes:
    def test_eu_pair_14(self, eu_canon):
        plus, minus = iso_slopes(eu_canon, 1, 4)
        assert plus == pytest.approx(EU_SLOPE_14, abs=1e-5)
        assert minus == -plus

    def test_eu_pair_23(self, eu_canon):
        plus, _ = iso_slopes(eu_canon, 2, 3)
        assert plus == pytest.approx(EU_SLOPE_23, abs=1e-5)

    def test_matches_lapack_oracle(self, eu_model, eu_canon):
        lam = oracle_lambdas(eu_model)
        assert iso_slopes(eu_canon, 1, 4)[0] == pytest.approx(
            np.sqrt(abs(lam[3] / lam[0])), rel=1e-12)

    def test_symmetric_cancellation(self):
        frame = saddle_frame([1.0, -1.0], np.eye(2), ("x", "y"))
        assert iso_slopes(frame, 1, 2) == (1.0, -1.0)

    def test_same_sign_rejected(self, eu_canon):
        with pytest.raises(SameSignPair):
            iso_slopes(eu_canon, 1, 3)

    def test_degenerate_rejected(self):
        frame = saddle_frame([1.0, -1e-30], np.eye(2), ("x", "y"))
        with pytest.raises(DegeneratePair):
            iso_slopes(frame, 1, 2)

    @pytest.mark.parametrize("i, j", [(0, 1), (5, 1)])
    def test_axis_out_of_range_rejected(self, eu_canon, i, j):
        # axis 0 used to wrap around to lambda_4
        with pytest.raises(IndexOutOfRange):
            iso_slopes(eu_canon, i, j)

    def test_scale_invariance(self, eu_canon):
        scaled = CanonicalModel(
            names=eu_canon.names, center=eu_canon.center, y0=eu_canon.y0,
            lambdas=7.5 * eu_canon.lambdas, axes=eu_canon.axes, kind=eu_canon.kind)
        for pair in ((1, 4), (2, 3), (1, 2)):
            assert iso_slopes(scaled, *pair)[0] == pytest.approx(
                iso_slopes(eu_canon, *pair)[0], rel=1e-14)


class TestConversionRates:
    def test_default_pairing(self, eu_canon):
        assert default_pairing(eu_canon) == [(1, 4), (2, 3)]

    def test_eu_rates(self, eu_canon):
        rates = conversion_rates(eu_canon)
        assert len(rates) == 2
        ga_bu, li_fl = rates
        assert (ga_bu.from_variable, ga_bu.to_variable) == ("Ga", "Bu")
        assert ga_bu.ratio == pytest.approx(EU_RATE_GA_BU, rel=1e-3)
        assert (li_fl.from_variable, li_fl.to_variable) == ("Li", "Fl")
        assert li_fl.ratio == pytest.approx(EU_RATE_LI_FL, rel=1e-3)
        assert all(r.bound == 0.0 for r in rates)

    def test_orthogonal_unit_pair(self):
        frame = saddle_frame([1.0, -1.0], np.eye(2), ("x", "y"))
        rates = conversion_rates(frame, [(1, 2)])
        assert len(rates) == 1
        assert rates[0].ratio == pytest.approx(1.0, rel=1e-14)

    def test_mixed_pair_rejected(self, eu_canon):
        with pytest.raises(NotTwoVariable):
            conversion_rates(eu_canon, [(1, 2)])

    def test_trade_leaves_response_level_unchanged(self, eu_canon):
        # along the constructed null line sum(lambda z^2) stays at zero,
        # which is what "trading one variable for the other at this
        # ratio keeps the predicted level constant" means
        lam = eu_canon.lambdas
        for rate in conversion_rates(eu_canon):
            a = eu_canon.names.index(rate.from_variable)
            b = eu_canon.names.index(rate.to_variable)
            direction = np.zeros(4)
            direction[a], direction[b] = rate.ratio, 1.0
            z_dir = eu_canon.axes.T @ direction
            energy = float(np.abs(lam) @ (z_dir * z_dir))
            assert abs(float(lam @ (z_dir * z_dir))) <= 1e-9 * energy
            for t, delta in ((0.0, 1.0), (5.0, 37.5), (-3.0, 0.25)):
                q0 = float(lam @ ((t * z_dir) ** 2))
                q1 = float(lam @ (((t + delta) * z_dir) ** 2))
                scale = energy * max(t * t, (t + delta) ** 2, 1.0)
                assert abs(q1 - q0) <= 1e-9 * scale

    def test_invariant_under_axis_sign_flips(self, eu_canon):
        flipped = CanonicalModel(
            names=eu_canon.names, center=eu_canon.center, y0=eu_canon.y0,
            lambdas=eu_canon.lambdas, axes=-eu_canon.axes, kind=eu_canon.kind)
        base = [(r.from_variable, r.to_variable, r.ratio) for r in conversion_rates(eu_canon)]
        alt = [(r.from_variable, r.to_variable, r.ratio) for r in conversion_rates(flipped)]
        for (f1, t1, r1), (f2, t2, r2) in zip(base, alt):
            assert (f1, t1) == (f2, t2)
            assert r1 == pytest.approx(r2, rel=1e-12)


class TestMarginalRates:
    def test_quoted_coefficients_reproduce_quoted_ratio(self):
        rates = {(r.branch, r.from_variable, r.to_variable): r.ratio
                 for r in marginal_rates(quoted_band())}
        assert rates[("sinh", "Li", "Fl")] == pytest.approx(6130.08 / 6067.93, rel=1e-12)
        assert rates[("sinh", "Li", "Fl")] == pytest.approx(1.0102, abs=1e-3)
        assert rates[("cosh", "Ga", "Bu")] == pytest.approx(2174.03 / 8161.64, rel=1e-12)
        assert rates[("cosh", "Ga", "Bu")] == pytest.approx(0.2664, abs=1e-4)

    def test_self_consistent_band_rates(self, eu_canon):
        region = hyperbola_region(eu_canon, 2, 3, M_IPCC)
        rates = {(r.branch, r.from_variable, r.to_variable): r.ratio
                 for r in marginal_rates(region)}
        # both basis functions couple Li and Fl; the cosh ratio matches
        # the quoted 1.01 figure, the sinh ratio is the axis ratio
        assert rates[("cosh", "Li", "Fl")] == pytest.approx(1.01024, abs=1e-4)
        assert rates[("sinh", "Li", "Fl")] == pytest.approx(0.98986, abs=1e-4)
        assert all(r.bound == M_IPCC for r in marginal_rates(region))

    def test_ellipse_rejected(self, eu_canon):
        with pytest.raises(WrongKind):
            marginal_rates(ellipse_region(eu_canon, 1, 3, M_IPCC))

    def test_no_coupling_raises(self):
        lonely = RegionParametrization(
            pair=(1, 2), bound=1.0, kind=RegionKind.HYPERBOLIC,
            semiaxes=(1.0, 1.0), names=("x", "y"),
            affine=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(ZeroCoefficient):
            marginal_rates(lonely)
