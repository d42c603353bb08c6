"""Conic confidence regions: classification, parametrization, membership."""

import numpy as np
import pytest

from rsmcanon import (
    CanonicalModel,
    DegeneratePair,
    DimensionMismatch,
    InputError,
    NonPositiveBound,
    RegionKind,
    WrongKind,
    boundary_points,
    contains,
    ellipse_region,
    from_canonical,
    hyperbola_region,
    max_intervals,
    region,
    region_kind,
    with_center,
)
from rsmcanon.canonical import MAXIMUM, SADDLE

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
        lambdas=np.array([-1.0, -1.0]), axes=np.eye(2), kind=MAXIMUM)


def rectangular_frame():
    return CanonicalModel(
        names=("x", "y"), center=np.zeros(2), y0=0.0,
        lambdas=np.array([1.0, -1.0]), axes=np.eye(2), kind=SADDLE)


class TestRegionKind:
    def test_eu_pairs(self, eu_canon):
        assert region_kind(eu_canon, 1, 3) is RegionKind.ELLIPTICAL_MAXIMUM
        assert region_kind(eu_canon, 2, 4) is RegionKind.ELLIPTICAL_MINIMUM
        assert region_kind(eu_canon, 1, 2) is RegionKind.HYPERBOLIC

    def test_degenerate_pair(self):
        frame = CanonicalModel(
            names=("x", "y"), center=np.zeros(2), y0=0.0,
            lambdas=np.array([1.0, 1e-30]), axes=np.eye(2), kind=MAXIMUM)
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

    def test_bad_center_shape_is_dimension_mismatch(self, eu_canon):
        for build, pair in ((ellipse_region, (1, 3)), (hyperbola_region, (2, 3))):
            with pytest.raises(DimensionMismatch):
                build(eu_canon, *pair, M_IPCC, center=[1.0, 2.0])


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
        region = ellipse_region(eu_canon, 1, 3, M_IPCC, center=EU_WORKED_CENTER)
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
        with pytest.raises(WrongKind):
            ellipse_region(eu_canon, 1, 2, M_IPCC)

    def test_non_positive_bound(self, eu_canon):
        with pytest.raises(NonPositiveBound):
            ellipse_region(eu_canon, 1, 3, 0.0)

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
        with pytest.raises(WrongKind):
            hyperbola_region(eu_canon, 1, 3, M_IPCC)

    def test_family_identity_on_boundary(self, eu_canon):
        region = hyperbola_region(eu_canon, 2, 3, M_IPCC)
        lam_i = eu_canon.lambdas[region.pair[0] - 1]
        lam_j = eu_canon.lambdas[region.pair[1] - 1]
        for _, (z_i, z_j), _ in boundary_points(region, 41, t_max=3.0):
            q = lam_i * z_i ** 2 + lam_j * z_j ** 2
            assert abs(q - M_IPCC) <= 1e-9 * M_IPCC


class TestBoundaryPoints:
    def test_four_vertices(self):
        region = ellipse_region(circle_frame(), 1, 2, 4.0)  # radius 2 circle
        pts = boundary_points(region, 4)
        zs = np.array([z for _, z, _ in pts])
        np.testing.assert_allclose(
            zs, [[2, 0], [0, 2], [-2, 0], [0, -2]], atol=1e-12)

    def test_worked_example_vertex_displacement(self, eu_canon):
        region = ellipse_region(eu_canon, 1, 3, M_IPCC, center=EU_WORKED_CENTER)
        pts = boundary_points(region, 4)
        li_at_quarter = pts[1][2][0]   # t = pi/2, pure sin
        li_at_three_quarters = pts[3][2][0]
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

    def test_all_points_contained(self, eu_canon):
        for region in (ellipse_region(eu_canon, 1, 3, M_IPCC),
                       hyperbola_region(eu_canon, 2, 3, M_IPCC)):
            for _, _, x in boundary_points(region, 25):
                assert contains(eu_canon, x, M_IPCC)


class TestContains:
    def test_center_always_inside(self, eu_canon):
        for bound in (1e-12, 1e-8, 1.0):
            assert contains(eu_canon, eu_canon.center, bound)

    def test_boundary_equality_counts_as_inside(self, eu_canon):
        region = ellipse_region(eu_canon, 1, 3, M_IPCC)
        _, _, x = boundary_points(region, 7)[3]
        assert contains(eu_canon, x, M_IPCC)

    @pytest.mark.parametrize("bound", [1e-12, 1e-14])
    def test_boundary_points_inside_at_small_bounds(self, eu_canon, bound):
        # At these bounds the EU center lies 10^4 to 10^5 semiaxes from
        # the origin, and the (2, 3) hyperbola's terms cancel a
        # hundredfold at t = 3; either rounding exceeds 1e-12 * M.
        for region in (ellipse_region(eu_canon, 1, 3, bound),
                       hyperbola_region(eu_canon, 2, 3, bound)):
            for _, _, x in boundary_points(region, 360):
                assert contains(eu_canon, x, bound)

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
        region = ellipse_region(eu_canon, 1, 3, M_IPCC, center=EU_WORKED_CENTER)
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
        with pytest.raises(WrongKind):
            max_intervals(hyperbola_region(eu_canon, 2, 3, M_IPCC))
