"""Conic confidence regions: classification, parametrization, membership."""

import re
import warnings

import numpy as np
import pytest

from rsmcanon import (
    CanonicalModel,
    DegeneratePair,
    InputError,
    NonPositiveBound,
    RegionParametrization,
    WrongKind,
    boundary_points,
    contains,
    ellipse_region,
    emit_plot_csv,
    from_canonical,
    hyperbola_region,
    max_intervals,
    region,
    region_kind,
    with_center,
)

from eu_reference import (
    EU_BOX_CORNER,
    EU_ELLIPSE_COEFS,
    EU_SEMIAXIS_Z1,
    EU_SEMIAXIS_Z3,
    EU_WORKED_CENTER,
    reference_frame,
)

M_IPCC = 1e-8


def circle_frame():
    return CanonicalModel(
        names=("x", "y"), center=np.zeros(2), y0=0.0,
        lambdas=np.array([-1.0, -1.0]), axes=np.eye(2))


def rectangular_frame():
    return CanonicalModel(
        names=("x", "y"), center=np.zeros(2), y0=0.0,
        lambdas=np.array([1.0, -1.0]), axes=np.eye(2))


class TestRegionKind:
    def test_eu_pairs(self, eu_canon):
        assert region_kind(eu_canon, 1, 3) == "elliptical_maximum"
        assert region_kind(eu_canon, 2, 4) == "elliptical_minimum"
        assert region_kind(eu_canon, 1, 2) == "hyperbolic"

    def test_degenerate_pair(self):
        frame = CanonicalModel(
            names=("x", "y"), center=np.zeros(2), y0=0.0,
            lambdas=np.array([1.0, 1e-30]), axes=np.eye(2))
        with pytest.raises(DegeneratePair):
            region_kind(frame, 1, 2)


class TestRegion:
    @pytest.mark.parametrize("pair, build", [
        ((1, 3), ellipse_region), ((2, 4), ellipse_region),
        ((2, 3), hyperbola_region), ((3, 2), hyperbola_region),
    ])
    def test_builds_by_kind(self, eu_canon, pair, build):
        got, want = region(eu_canon, *pair, M_IPCC), build(eu_canon, *pair, M_IPCC)
        assert (got.kind, got.pair, got.semiaxes) == (want.kind, want.pair, want.semiaxes)
        np.testing.assert_array_equal(got.affine, want.affine)

    @pytest.mark.parametrize("bound", ["1e-8", None, np.array([1e-8]), np.array([1e-8, 2e-8])],
                             ids=["str", "none", "1-d", "2-d"])
    @pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
    def test_bound_that_is_not_a_number(self, eu_canon, bound, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveBound, match=f"got {re.escape(repr(bound))}$"):
                region(eu_canon, *pair, bound)


class TestEllipseRegion:
    def test_eu_semiaxes_close_to_quoted(self, eu_canon):
        region = ellipse_region(eu_canon, 1, 3, M_IPCC)
        # quoted values derive from six-digit eigenvalues; agreement is
        # at the print-rounding scale
        assert region.semiaxes[0] == pytest.approx(EU_SEMIAXIS_Z1, abs=0.02)
        assert region.semiaxes[1] == pytest.approx(EU_SEMIAXIS_Z3, abs=0.02)

    def test_quoted_inputs_reproduce_quoted_semiaxes(self):
        # same computation fed the quoted eigenvalues lands within the
        # final printed digit
        region = ellipse_region(reference_frame(), 1, 3, M_IPCC)
        assert region.semiaxes[0] == pytest.approx(EU_SEMIAXIS_Z1, abs=0.005)
        assert region.semiaxes[1] == pytest.approx(EU_SEMIAXIS_Z3, abs=0.005)

    def test_circle(self):
        region = ellipse_region(circle_frame(), 1, 2, 1.0)
        assert region.semiaxes == pytest.approx((1.0, 1.0))

    def test_worked_example_affine_coefficients(self, eu_canon):
        region = ellipse_region(with_center(eu_canon, EU_WORKED_CENTER), 1, 3, M_IPCC)
        rows = dict(zip(region.names, region.affine))
        np.testing.assert_array_equal(region.affine[:, 0], EU_WORKED_CENTER)
        # z1 carries cos, z3 carries sin; Li/Fl live on z3, Ga/Bu on z1
        assert abs(rows["Li"][2]) == pytest.approx(EU_ELLIPSE_COEFS["Li"], abs=0.1)
        assert abs(rows["Ga"][1]) == pytest.approx(EU_ELLIPSE_COEFS["Ga"], abs=0.1)
        assert abs(rows["Fl"][2]) == pytest.approx(EU_ELLIPSE_COEFS["Fl"], abs=0.1)
        assert abs(rows["Bu"][1]) == pytest.approx(EU_ELLIPSE_COEFS["Bu"], abs=0.1)
        assert rows["Li"][1] == rows["Fl"][1] == 0.0
        assert rows["Ga"][2] == rows["Bu"][2] == 0.0

    def test_wrong_kind_rejected(self, eu_canon):
        with pytest.raises(WrongKind, match=r"^pair \(1, 2\) has mixed eigenvalue signs; "
                                            r"use hyperbola_region$"):
            ellipse_region(eu_canon, 1, 2, M_IPCC)

    @pytest.mark.parametrize("build, pair", [(ellipse_region, (1, 2)),
                                             (hyperbola_region, (1, 3))])
    def test_wrong_kind_comes_before_the_bound(self, eu_canon, build, pair):
        with pytest.raises(WrongKind):
            build(eu_canon, *pair, -1.0)

    def test_non_positive_bound(self, eu_canon):
        with pytest.raises(NonPositiveBound):
            ellipse_region(eu_canon, 1, 3, 0.0)

    @pytest.mark.parametrize("bound", [0.0, -1e-8, np.nan, np.inf])
    def test_bound_not_positive_and_finite(self, eu_canon, bound):
        with pytest.raises(NonPositiveBound, match="positive and finite"):
            ellipse_region(eu_canon, 1, 3, bound)
        with pytest.raises(NonPositiveBound, match="positive and finite"):
            hyperbola_region(eu_canon, 2, 3, bound)
        with pytest.raises(NonPositiveBound, match="positive and finite"):
            contains(eu_canon, eu_canon.center, bound)

    def test_scaling_law(self, eu_canon):
        base = ellipse_region(eu_canon, 1, 3, M_IPCC)
        for k in (0.25, 4.0, 9.0):
            scaled = ellipse_region(eu_canon, 1, 3, k * M_IPCC)
            assert scaled.semiaxes[0] == pytest.approx(
                np.sqrt(k) * base.semiaxes[0], rel=1e-12)
            assert scaled.semiaxes[1] == pytest.approx(
                np.sqrt(k) * base.semiaxes[1], rel=1e-12)


class TestHyperbolaRegion:
    def test_eu_pair_23_semiaxes(self, eu_canon):
        region = hyperbola_region(eu_canon, 2, 3, M_IPCC)
        assert region.pair == (2, 3)  # positive eigenvalue first
        # oracles: sqrt(1e-8 / 1.34413e-16) and sqrt(1e-8 / 1.31701e-16)
        assert region.semiaxes[0] == pytest.approx(np.sqrt(1e-8 / 1.34413e-16), abs=0.05)
        assert region.semiaxes[1] == pytest.approx(np.sqrt(1e-8 / 1.31701e-16), abs=0.05)

    def test_reorders_to_put_cosh_on_positive_axis(self, eu_canon):
        region = hyperbola_region(eu_canon, 3, 2, M_IPCC)
        assert region.pair == (2, 3)
        assert eu_canon.lambdas[region.pair[0] - 1] > 0.0

    def test_unit_rectangular_hyperbola(self):
        region = hyperbola_region(rectangular_frame(), 1, 2, 1.0)
        assert region.semiaxes == pytest.approx((1.0, 1.0))
        assert region.unbounded

    def test_asymptote_slope(self, eu_canon):
        # +-sqrt(|lambda_i|/|lambda_j|) applied to (z_i, z_j) for (2, 3)
        lam = eu_canon.lambdas
        slope = np.sqrt(abs(lam[1] / lam[2]))
        assert slope == pytest.approx(1.01024, abs=1e-4)

    def test_wrong_kind_rejected(self, eu_canon):
        with pytest.raises(WrongKind, match=r"^pair \(1, 3\) has same-sign eigenvalues; "
                                            r"use ellipse_region$"):
            hyperbola_region(eu_canon, 1, 3, M_IPCC)

    def test_family_identity_on_boundary(self, eu_canon):
        region = hyperbola_region(eu_canon, 2, 3, M_IPCC)
        lam_i = eu_canon.lambdas[region.pair[0] - 1]
        lam_j = eu_canon.lambdas[region.pair[1] - 1]
        _, _, z, _ = boundary_points(region, 41, t_max=3.0)
        q = lam_i * z[:, 0] ** 2 + lam_j * z[:, 1] ** 2
        assert len(q) == 82 and (abs(q - M_IPCC) <= 1e-9 * M_IPCC).all()


class TestBoundaryPoints:
    def test_four_vertices(self):
        region = ellipse_region(circle_frame(), 1, 2, 4.0)  # radius 2 circle
        _, r, z, _ = boundary_points(region, 5)  # closed: the first vertex again
        assert r.tolist() == [1.0] * 5
        np.testing.assert_allclose(
            z, [[2, 0], [0, 2], [-2, 0], [0, -2], [2, 0]], atol=1e-12)

    def test_worked_example_vertex_displacement(self, eu_canon):
        region = ellipse_region(with_center(eu_canon, EU_WORKED_CENTER), 1, 3, M_IPCC)
        x = boundary_points(region, 5)[3]
        li_at_quarter = x[1, 0]   # t = pi/2, pure sin
        li_at_three_quarters = x[3, 0]
        displaced = sorted([li_at_quarter, li_at_three_quarters])
        assert displaced[0] == pytest.approx(534271.0 - 6130.09, abs=0.1)
        assert displaced[1] == pytest.approx(534271.0 + 6130.09, abs=0.1)

    @pytest.mark.parametrize("count, t_max", [
        (1, 3.0), (0, 3.0), (-3, 3.0),
        (10, float("nan")), (10, float("inf")), (10, 0.0), (10, -2.5),
    ])
    def test_bad_arguments_rejected(self, eu_canon, count, t_max):
        for region in (ellipse_region(eu_canon, 1, 3, M_IPCC),
                       hyperbola_region(eu_canon, 2, 3, M_IPCC)):
            with pytest.raises(InputError):
                boundary_points(region, count, t_max)

    @pytest.mark.parametrize("count", [5.0, "5", None, np.float64(5)],
                             ids=["float", "str", "none", "np-float"])
    def test_count_that_is_not_an_integer(self, eu_canon, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"sample count {re.escape(repr(count))} is not"):
                emit_plot_csv(region(eu_canon, 2, 3, M_IPCC), count)

    @pytest.mark.parametrize("t_max", ["3", None], ids=["str", "none"])
    def test_t_max_that_is_not_a_number(self, eu_canon, t_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"got {re.escape(repr(t_max))}$"):
                emit_plot_csv(region(eu_canon, 2, 3, M_IPCC), 5, t_max)

    @pytest.mark.parametrize("bound, count, t_max", [
        (1, np.int64(5), 3), (np.float64(1e-8), np.array(5), np.float64(3.0)),
        (np.int64(1), 5, np.array(3.0)), (np.array(1e-8), 5, 3.0),
    ])
    def test_numbers_of_every_kind_still_pass(self, eu_canon, bound, count, t_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            band = region(eu_canon, 2, 3, bound)
            assert type(band.bound) is float
            assert emit_plot_csv(band, count, t_max) == emit_plot_csv(
                region(eu_canon, 2, 3, float(bound)), 5, 3.0)

    @pytest.mark.parametrize("t_max", [705.0, 1000.0, 1e300])
    def test_overflowing_t_max_rejected_before_numpy_warns(self, eu_canon, t_max):
        # cosh(705) is finite, but times the largest coefficient it is not
        band = hyperbola_region(eu_canon, 2, 3, M_IPCC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError,
                               match=r"^t_max \S+ overflows the samples of hyperbola \(2, 3\)$"):
                boundary_points(band, 5, t_max)
            assert len(boundary_points(ellipse_region(eu_canon, 1, 3, M_IPCC), 5, t_max)[0]) == 5
            # (1, 4) has samples near the float limit at 700 that do not overflow
            for edge in (band, hyperbola_region(eu_canon, 1, 4, M_IPCC)):
                assert np.isfinite(boundary_points(edge, 5, 700.0)[3]).all()

    def test_overflowing_ellipse_samples_rejected_before_numpy_warns(self):
        ellipse = RegionParametrization(
            pair=(1, 2), bound=1.0, kind="elliptical_maximum", semiaxes=(1.0, 1.0),
            names=("x",), affine=np.array([[1.5e308, 1e308, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"^the samples of ellipse \(1, 2\) overflow$"):
                boundary_points(ellipse, 4)

    def test_all_points_contained(self, eu_canon):
        for region in (ellipse_region(eu_canon, 1, 3, M_IPCC),
                       hyperbola_region(eu_canon, 2, 3, M_IPCC)):
            for x in boundary_points(region, 25)[3]:
                assert contains(eu_canon, x, M_IPCC)


class TestContains:
    def test_center_always_inside(self, eu_canon):
        for bound in (1e-12, 1e-8, 1.0):
            assert contains(eu_canon, eu_canon.center, bound)

    def test_boundary_equality_counts_as_inside(self, eu_canon):
        region = ellipse_region(eu_canon, 1, 3, M_IPCC)
        x = boundary_points(region, 8)[3][3]  # t = 6 pi / 7
        assert contains(eu_canon, x, M_IPCC)

    @pytest.mark.parametrize("bound", [1e-12, 1e-14])
    def test_boundary_points_inside_at_small_bounds(self, eu_canon, bound):
        # At these bounds the EU center lies 10^4 to 10^5 semiaxes from
        # the origin, and the (2, 3) hyperbola's terms cancel a
        # hundredfold at t = 3; either rounding exceeds 1e-12 * M.
        for region in (ellipse_region(eu_canon, 1, 3, bound),
                       hyperbola_region(eu_canon, 2, 3, bound)):
            for x in boundary_points(region, 360)[3]:
                assert contains(eu_canon, x, bound)

    @pytest.mark.parametrize("coord", [4_000_000_000, 3_037_000_500])
    def test_integer_point_same_as_float(self, eu_canon, coord):
        # coord**2 passes the int64 range, which must not wrap the |x| of the slack
        as_float = contains(eu_canon, [float(coord), 0.0, 0.0, 0.0], M_IPCC)
        assert contains(eu_canon, [coord, 0, 0, 0], M_IPCC) == as_float

    def test_box_corner_outside_ellipse(self, eu_canon):
        # inside every maximal interval, yet outside the joint region
        frame = with_center(eu_canon, EU_WORKED_CENTER)
        assert not contains(frame, EU_BOX_CORNER, M_IPCC)

    def test_interior_and_exterior_sampling(self, eu_canon):
        rng = np.random.default_rng(101)
        region = ellipse_region(eu_canon, 1, 3, M_IPCC)
        a_i, a_j = region.semiaxes
        inside_r = rng.uniform(0.0, 0.999, size=10_000)
        outside_r = rng.uniform(1.001, 2.0, size=10_000)
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=10_000)
        for r, theta in zip(inside_r, thetas):
            z = np.zeros(4)
            z[0], z[2] = a_i * r * np.cos(theta), a_j * r * np.sin(theta)
            assert contains(eu_canon, from_canonical(eu_canon, z), M_IPCC)
        for r, theta in zip(outside_r, thetas):
            z = np.zeros(4)
            z[0], z[2] = a_i * r * np.cos(theta), a_j * r * np.sin(theta)
            assert not contains(eu_canon, from_canonical(eu_canon, z), M_IPCC)

    def test_grid_against_analytic_inequality(self, eu_canon):
        region = ellipse_region(eu_canon, 1, 3, M_IPCC)
        a_i, a_j = region.semiaxes
        lam = eu_canon.lambdas
        grid = np.linspace(-1.5, 1.5, 60)
        for u in grid:
            for v in grid:
                z_i, z_j = a_i * u, a_j * v
                q = abs(lam[0] * z_i ** 2 + lam[2] * z_j ** 2)
                if abs(q - M_IPCC) <= 1e-6 * M_IPCC:
                    continue  # boundary band excluded
                z = np.zeros(4)
                z[0], z[2] = z_i, z_j
                x = from_canonical(eu_canon, z)
                analytic = (z_i / a_i) ** 2 + (z_j / a_j) ** 2 <= 1.0
                assert contains(eu_canon, x, M_IPCC) == analytic


class TestMaxIntervals:
    def test_eu_worked_example(self, eu_canon):
        region = ellipse_region(with_center(eu_canon, EU_WORKED_CENTER), 1, 3, M_IPCC)
        widths = {name: (c, h) for name, c, h in max_intervals(region)}
        assert widths["Li"][0] == 534271.0
        assert widths["Li"][1] == pytest.approx(6130.09, abs=0.1)
        assert widths["Bu"][0] == 82045.4
        assert widths["Bu"][1] == pytest.approx(8161.64, abs=0.1)

    def test_circle_unit_intervals(self):
        region = ellipse_region(circle_frame(), 1, 2, 1.0)
        for _, center, half in max_intervals(region):
            assert center == 0.0
            assert half == pytest.approx(1.0, rel=1e-12)

    def test_hyperbola_rejected(self, eu_canon):
        with pytest.raises(WrongKind, match="^maximal intervals are defined for elliptical "
                                            "regions only$"):
            max_intervals(hyperbola_region(eu_canon, 2, 3, M_IPCC))
