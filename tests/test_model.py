"""Model construction conventions and the two evaluation pictures."""

import re

import numpy as np
import pytest

from rsmcanon import (
    DimensionMismatch,
    DomainError,
    DuplicateTerm,
    IndexOutOfRange,
    ModelTerm,
    QuadraticModel,
    SymMatrix,
    build_model,
    evaluate_matrix,
    evaluate_terms,
    gradient,
    predict_response,
)
from rsmcanon.model import invert_transform
from rsmcanon.fitting import transform_response

# frozen scalar oracles: (1.23e-6) ** (-1/2.376) and 316 ** (-2.376)
PREDICT_AT_ZERO = 307.1946682067966
TRANSFORMED_316 = 1.15012088987623e-06


def toy_model(intercept=0.5):
    terms = [
        ModelTerm((0,), 2.0),
        ModelTerm((0, 0), 1.5),
        ModelTerm((0, 1), -3.0),
        ModelTerm((1, 1), 0.25),
    ]
    return build_model(terms, intercept=intercept, exponent=1.0, names=("u", "v"))


class TestBuildModel:
    def test_diagonal_convention_doubles(self):
        m = build_model([ModelTerm((0, 0), 3.0)], 0.0, 1.0, ("x",))
        assert m.interaction.array[0, 0] == 6.0

    def test_off_diagonal_convention(self):
        m = build_model([ModelTerm((0, 1), 3.0)], 0.0, 1.0, ("x", "y"))
        assert m.interaction.array[0, 1] == m.interaction.array[1, 0] == 3.0

    def test_empty_terms_zero_model(self):
        m = build_model([], intercept=1.0, exponent=1.0, names=("x", "y"))
        assert np.all(m.linear == 0.0) and np.all(m.interaction.array == 0.0)
        assert m.intercept == 1.0

    def test_eu_matrix_assembly(self, eu_model):
        b = eu_model.interaction.array
        assert b[0, 0] == pytest.approx(2.7113e-18, rel=1e-12)
        assert b[0, 2] == pytest.approx(-133.05e-18, rel=1e-12)
        assert b[1, 3] == pytest.approx(37.3391e-18, rel=1e-12)
        assert b[3, 3] == pytest.approx(-130.23e-18, rel=1e-12)
        np.testing.assert_allclose(
            eu_model.linear, np.array([-3.4501, -30.635, 710.848, 0.0]) * 1e-13, rtol=1e-12)

    def test_duplicate_term_rejected(self):
        terms = [ModelTerm((0, 1), 1.0), ModelTerm((1, 0), 2.0)]
        with pytest.raises(DuplicateTerm):
            build_model(terms, 0.0, 1.0, ("x", "y"))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_model([ModelTerm((2,), 1.0)], 0.0, 1.0, ("x", "y"))
        with pytest.raises(IndexOutOfRange):
            build_model([ModelTerm((-1, 0), 1.0)], 0.0, 1.0, ("x", "y"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(DimensionMismatch, match="model coefficients must be finite"):
            build_model([], intercept=value, exponent=1.0, names=("x",))
        with pytest.raises(DimensionMismatch, match="matrix entries must be finite"):
            build_model([ModelTerm((0, 1), value)], 0.0, 1.0, ("x", "y"))

    @pytest.mark.parametrize("names, linear, match", [
        (("x", "y"), np.zeros(3), r"sizes disagree: 2, \(3,\), 2"),
        (("x", "x"), np.zeros(2), r"duplicate variable names in \('x', 'x'\)"),
    ])
    def test_names_and_fields_must_agree(self, names, linear, match):
        with pytest.raises(DimensionMismatch, match=match):
            QuadraticModel(names, 0.0, linear, SymMatrix(np.eye(2)), 1.0)

    def test_repeated_names_rejected(self):
        # save_model would write them to a file that load_model refuses
        with pytest.raises(DimensionMismatch, match="duplicate variable names"):
            build_model([ModelTerm((0, 1), 1.0)], 0.0, 1.0, ("x", "x"))

    def test_scalars_stored_as_floats(self):
        m = QuadraticModel(("x",), 1, np.zeros(1), SymMatrix([[0.0]]), np.int64(2))
        assert type(m.intercept) is float and type(m.exponent) is float
        assert (m.intercept, m.exponent) == (1.0, 2.0)

    def test_terms_round_trip(self):
        m = toy_model()
        rebuilt = build_model(m.terms, m.intercept, m.exponent, m.names)
        assert np.array_equal(rebuilt.linear, m.linear)
        assert np.array_equal(rebuilt.interaction.array, m.interaction.array)


class TestTermRule:
    def test_indices_stored_sorted_as_ints(self):
        term = ModelTerm((np.int64(1), 0), 2)
        assert term.indices == (0, 1) and all(type(k) is int for k in term.indices)
        assert type(term.coefficient) is float
        assert term == ModelTerm([0, 1], 2.0)

    @pytest.mark.parametrize("indices", [(), (0, 1, 1), (0.5,), (1, 0.0)])
    def test_term_needs_one_or_two_integer_indices(self, indices):
        with pytest.raises(DimensionMismatch, match="1 or 2 integer variable indices"):
            build_model([ModelTerm(indices, 1.0)], 0.0, 1.0, ("x", "y"))


class TestEvaluation:
    def test_matrix_at_origin_is_intercept(self, eu_model):
        assert evaluate_matrix(eu_model, np.zeros(4)) == pytest.approx(1.23e-6, rel=1e-12)

    def test_identity_interaction(self):
        m = build_model(
            [ModelTerm((0, 0), 0.5), ModelTerm((1, 1), 0.5)],
            intercept=0.3, exponent=1.0, names=("x", "y"))
        # B is the identity under the doubling convention
        assert evaluate_matrix(m, [1.0, 1.0]) == pytest.approx(0.3 + 2.0, rel=1e-14)

    def test_terms_at_origin(self):
        assert evaluate_terms(toy_model(intercept=0.7), [0.0, 0.0]) == 0.7

    def test_single_term_exact(self):
        m = build_model([ModelTerm((0, 0), 1.35565e-18)], 0.0, 1.0, ("Li",))
        x = 2.5e5
        assert evaluate_terms(m, [x]) == pytest.approx(1.35565e-18 * x * x, rel=1e-14)

    def test_eu_term_sum_matches_literal_arithmetic(self, eu_model):
        x = np.full(4, 1e5)
        # literal sum over the published coefficient table
        li, ga, fl, bu = x
        expected = (
            1.23e-6
            + (-3.4501e-13) * li + (-3.0635e-12) * ga + (7.10848e-11) * fl
            + (1.35565e-18) * li * li + (3.73391e-17) * ga * bu
            + (-6.5115e-17) * bu * bu + (-1.3305e-16) * li * fl
        )
        assert evaluate_terms(eu_model, x) == pytest.approx(expected, rel=1e-12)

    def test_factor_two_between_pictures(self):
        rng = np.random.default_rng(3)
        m = toy_model()
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=2)
            base = m.intercept + m.linear @ x
            quad_matrix = evaluate_matrix(m, x) - base
            quad_terms = evaluate_terms(m, x) - base
            assert quad_matrix == pytest.approx(2.0 * quad_terms, rel=1e-12, abs=1e-15)

    def test_dimension_mismatch(self, eu_model):
        with pytest.raises(DimensionMismatch):
            evaluate_matrix(eu_model, [1.0, 2.0])

    def test_non_finite_rejected_at_boundary(self, eu_model):
        with pytest.raises(DimensionMismatch):
            evaluate_matrix(eu_model, [np.inf, 0.0, 0.0, 0.0])


class TestGradient:
    def test_at_origin_is_linear_part(self, eu_model):
        np.testing.assert_array_equal(gradient(eu_model, np.zeros(4)), eu_model.linear)

    def test_zero_at_stationary_point(self, eu_model, eu_canon):
        g = gradient(eu_model, eu_canon.center)
        assert np.linalg.norm(g) <= 1e-9 * np.linalg.norm(eu_model.linear)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        m = toy_model()
        for _ in range(30):
            x = rng.uniform(-3.0, 3.0, size=2)
            g = gradient(m, x)
            for k in range(2):
                h = 1e-4 * max(1.0, abs(x[k]))
                step = np.zeros(2)
                step[k] = h
                fd = (evaluate_matrix(m, x + step) - evaluate_matrix(m, x - step)) / (2.0 * h)
                assert fd == pytest.approx(g[k], rel=1e-6, abs=1e-9)


class TestPredictResponse:
    def test_unit_fixed_point(self):
        m = build_model([], intercept=1.0, exponent=-2.376, names=("x",))
        assert predict_response(m, [0.0]) == 1.0

    def test_eu_at_origin(self, eu_model):
        assert predict_response(eu_model, np.zeros(4)) == pytest.approx(
            PREDICT_AT_ZERO, rel=1e-12)

    def test_negative_response_rejected(self):
        m = build_model([], intercept=-1.0, exponent=-2.376, names=("x",))
        with pytest.raises(DomainError):
            predict_response(m, [0.0])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            natural = rng.uniform(0.1, 500.0)
            transformed = natural ** (-2.376)
            assert invert_transform(transformed, -2.376) == pytest.approx(natural, rel=1e-12)

    def test_monotone_decreasing_for_negative_exponent(self):
        lo, hi = invert_transform(1e-6, -2.376), invert_transform(2e-6, -2.376)
        assert lo > hi

    @pytest.mark.parametrize("value, exponent, natural", [
        (0.0, 2.0, 0.0), (-5.0, 1.0, -5.0), (-8.0, 1.0 / 3.0, -512.0)])
    def test_zero_and_odd_roots_invert(self, value, exponent, natural):
        assert invert_transform(value, exponent) == natural

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_transformed_value_rejected(self, value):
        for exponent in (-2.376, 1.0, 1.0 / 3.0):
            with pytest.raises(DomainError, match="has no real inverse"):
                invert_transform(value, exponent)

    @pytest.mark.parametrize("value, exponent", [(1e100, 0.1), (-1e200, 1.0 / 3.0)])
    def test_overflowing_inverse_rejected(self, value, exponent):
        # Python float powers raise OverflowError where numpy would give inf
        message = f"transformed value {value!r} overflows under exponent {exponent!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            invert_transform(value, exponent)

    def test_overflowing_point_rejected(self, eu_model):
        # X'BX overflows to inf, which the negative exponent would map to 0.0
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="transformed value inf"):
                predict_response(eu_model, [1e200, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("exponent", [0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310])
    def test_exponent_without_finite_reciprocal_rejected(self, exponent):
        match = f"exponent {exponent!r}"
        with pytest.raises(DomainError, match=match):
            build_model([], intercept=1.0, exponent=exponent, names=("x",))
        with pytest.raises(DomainError, match=match):
            invert_transform(-1.0, exponent)
        with pytest.raises(DomainError, match=match):
            transform_response([1.0, 2.0], exponent)

    def test_transform_oracle_316(self):
        assert 316.0 ** (-2.376) == pytest.approx(TRANSFORMED_316, rel=1e-12)
