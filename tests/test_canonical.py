"""Canonical reduction: center, offset, coordinates, classification."""

import numpy as np
import pytest

from rsmcanon import (
    CanonicalModel,
    DegeneratePair,
    DimensionMismatch,
    IndexOutOfRange,
    ModelTerm,
    SingularMatrix,
    build_model,
    canonical_response,
    canonicalize,
    check_pair,
    classify,
    degenerate_axes,
    evaluate_matrix,
    from_canonical,
    gradient,
    predict_response,
    to_canonical,
    with_center,
)

from eu_reference import EU_LAMBDAS_REF

PRINT_TOL = 1e-4


def negative_definite_model():
    terms = [ModelTerm.quadratic(0, 0, -0.5), ModelTerm.quadratic(1, 1, -0.5)]
    return build_model(terms, intercept=2.0, exponent=1.0, names=("x", "y"))


class TestCanonicalize:
    def test_eu_eigenvalues_and_kind(self, eu_canon):
        np.testing.assert_allclose(eu_canon.lambdas, EU_LAMBDAS_REF, rtol=PRINT_TOL)
        assert eu_canon.kind.label == "saddle"

    def test_maximum_with_zero_linear_part(self):
        canon = canonicalize(negative_definite_model())
        np.testing.assert_allclose(canon.center, np.zeros(2), atol=1e-15)
        assert canon.y0 == pytest.approx(2.0, rel=1e-14)
        assert canon.kind.label == "maximum"

    def test_center_solves_gradient_system(self, eu_model, eu_canon):
        b = eu_model.interaction.array
        beta = eu_model.linear
        residual = np.linalg.norm(b @ eu_canon.center + beta / 2.0)
        assert residual <= 1e-9 * np.linalg.norm(beta)

    def test_gradient_vanishes_at_center(self, eu_model, eu_canon):
        g = gradient(eu_model, eu_canon.center)
        assert np.linalg.norm(g) <= 1e-9 * np.linalg.norm(eu_model.linear)

    def test_y0_matches_direct_evaluation(self, eu_model, eu_canon):
        direct = evaluate_matrix(eu_model, eu_canon.center)
        assert direct == pytest.approx(eu_canon.y0, rel=1e-9)

    def test_gradient_map_is_affine(self, eu_model):
        # gradient(X) - gradient(0) == 2 B X, the nonsingular affine slope
        rng = np.random.default_rng(2)
        b = eu_model.interaction.array
        for _ in range(10):
            x = rng.uniform(-1e5, 1e5, size=4)
            diff = gradient(eu_model, x) - gradient(eu_model, np.zeros(4))
            np.testing.assert_allclose(diff, 2.0 * b @ x, rtol=1e-12, atol=1e-25)

    def test_degenerate_quadratic_rejected(self):
        flat = build_model([ModelTerm.linear(0, 1.0)], 0.0, 1.0, ("x", "y"))
        with pytest.raises(SingularMatrix):
            canonicalize(flat)


class TestCoordinateMaps:
    def test_center_maps_to_origin(self, eu_canon):
        np.testing.assert_allclose(to_canonical(eu_canon, eu_canon.center),
                                   np.zeros(4), atol=1e-9)

    def test_axis_step_is_unit_coordinate(self, eu_canon):
        x = eu_canon.center + eu_canon.axes[:, 1]
        np.testing.assert_allclose(to_canonical(eu_canon, x),
                                   [0.0, 1.0, 0.0, 0.0], atol=1e-9)

    def test_round_trip(self, eu_canon):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = eu_canon.center + rng.uniform(-2e5, 2e5, size=4)
            back = from_canonical(eu_canon, to_canonical(eu_canon, x))
            np.testing.assert_allclose(back, x, rtol=1e-10)

    def test_from_canonical_at_origin(self, eu_canon):
        np.testing.assert_array_equal(from_canonical(eu_canon, np.zeros(4)),
                                      eu_canon.center)

    def test_from_canonical_unit_vector(self, eu_canon):
        x = from_canonical(eu_canon, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(x, eu_canon.center + eu_canon.axes[:, 0], atol=1e-12)

    def test_worked_example_increments(self, eu_canon):
        # z1 = 8446.24 moves Ga by ~-2174.0 and Bu by ~+8161.6
        x = from_canonical(eu_canon, [8446.24, 0.0, 0.0, 0.0])
        delta = x - eu_canon.center
        assert delta[1] == pytest.approx(-2174.0, abs=0.1)
        assert delta[3] == pytest.approx(8161.6, abs=0.1)
        assert delta[0] == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self, eu_canon):
        with pytest.raises(DimensionMismatch):
            to_canonical(eu_canon, [1.0, 2.0])


class TestCanonicalResponse:
    def test_origin_gives_offset(self, eu_canon):
        assert canonical_response(eu_canon, np.zeros(4)) == eu_canon.y0

    def test_unit_first_axis(self, eu_canon):
        value = canonical_response(eu_canon, [1.0, 0.0, 0.0, 0.0])
        assert value == pytest.approx(eu_canon.y0 + eu_canon.lambdas[0], rel=1e-12)

    def test_dual_path_agreement(self, eu_model, eu_canon):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            x = eu_canon.center + rng.uniform(-2e5, 2e5, size=4)
            via_canonical = canonical_response(eu_canon, to_canonical(eu_canon, x))
            direct = evaluate_matrix(eu_model, x)
            assert abs(via_canonical - direct) <= 1e-9 * (abs(eu_canon.y0) + abs(direct))


class TestClassify:
    def test_eu_signs_give_saddle(self):
        assert classify(EU_LAMBDAS_REF).label == "saddle"

    def test_all_negative(self):
        assert classify([-1.0, -2.0]).label == "maximum"

    def test_all_positive(self):
        assert classify([3.0, 0.5]).label == "minimum"

    def test_degenerate_with_tolerance(self):
        kind = classify([1.0, 1e-15])
        assert kind.label == "degenerate"
        assert kind.degenerate_axes == (2,)

    def test_explicit_tolerance(self):
        assert classify([1.0, 1e-15], zero_tol=1e-16).label == "minimum"

    def test_cutoff_is_relative_to_largest_magnitude(self):
        assert degenerate_axes([-2.0, 2e-9, 4.1e-9]) == (2,)
        assert degenerate_axes([0.0, 0.0]) == (1, 2)


class TestCheckPair:
    @pytest.mark.parametrize("i, j", [(0, 1), (5, 1), (1, 5), (2, 2)])
    def test_bad_axes_rejected(self, eu_canon, i, j):
        with pytest.raises(IndexOutOfRange):
            check_pair(eu_canon, i, j)

    def test_returns_eigenvalues_in_pair_order(self, eu_canon):
        assert check_pair(eu_canon, 3, 1) == (eu_canon.lambdas[2], eu_canon.lambdas[0])

    def test_degenerate_axis_at_the_cutoff(self):
        def frame(small):
            return CanonicalModel(names=("x", "y"), center=np.zeros(2), y0=0.0,
                                  lambdas=np.array([1.0, small]), axes=np.eye(2),
                                  kind=classify([1.0, small]))
        assert check_pair(frame(2e-9), 1, 2) == (1.0, 2e-9)
        with pytest.raises(DegeneratePair):
            check_pair(frame(1e-9), 1, 2)


class TestDirectionSigns:
    def test_negative_axes_raise_co2(self, eu_model, eu_canon):
        # exponent < 0: moving along a lambda < 0 axis lowers Y, which
        # raises the natural-units response, and vice versa
        at_center = predict_response(eu_model, eu_canon.center)
        for k in range(4):
            for eps in (150.0, -150.0):
                moved = predict_response(eu_model, eu_canon.center + eps * eu_canon.axes[:, k])
                if eu_canon.lambdas[k] < 0:
                    assert moved > at_center
                else:
                    assert moved < at_center


class TestWithCenter:
    def test_replaces_center_only(self, eu_canon):
        target = np.array([534271.0, 286155.0, 8294.32, 82045.4])
        shifted = with_center(eu_canon, target)
        np.testing.assert_array_equal(shifted.center, target)
        np.testing.assert_array_equal(shifted.lambdas, eu_canon.lambdas)
        np.testing.assert_array_equal(shifted.axes, eu_canon.axes)

    def test_validates_shape(self, eu_canon):
        with pytest.raises(DimensionMismatch):
            with_center(eu_canon, [1.0, 2.0])


def test_axis_labels_name_dominant_variables(eu_canon):
    assert eu_canon.dominant_variables(1) == ("Ga", "Bu")
    assert eu_canon.dominant_variables(2) == ("Li", "Fl")
    label = eu_canon.axis_label(1)
    assert "Ga" in label and "Bu" in label and "Li" not in label
