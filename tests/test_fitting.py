"""OLS fitting on the transformed scale and partial-F ranking."""

import mpmath
import numpy as np
import pytest

import rsmcanon.fitting as fitting
from rsmcanon import (
    Dataset,
    DimensionMismatch,
    DomainError,
    DuplicateTerm,
    IndexOutOfRange,
    ModelTerm,
    RankDeficient,
    TooFewRows,
    f_rank,
    ols_fit,
    transform_response,
)

RNG_SEED = 1234


def synthetic_dataset(coef, terms, rows=40, seed=RNG_SEED, noise=0.0, names=("a", "b", "c")):
    """Rows drawn uniformly, responses generated exactly from coef."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 2.0, size=(rows, len(names)))
    design = [np.ones(rows)]
    for idx in terms:
        col = x[:, idx[0]] if len(idx) == 1 else x[:, idx[0]] * x[:, idx[1]]
        design.append(col)
    y = np.column_stack(design) @ np.asarray(coef)
    if noise:
        y = y + noise * rng.standard_normal(rows)
    return Dataset(X=x, y=y, names=names)


class TestDataset:
    @pytest.mark.parametrize("x, y, match", [
        (np.ones((3, 2)), np.ones(3), r"X has shape \(3, 2\), expected \(rows, 3\)"),
        (np.ones(3), np.ones(3), r"X has shape \(3,\), expected \(rows, 3\)"),
        (np.ones((3, 3)), np.ones(2), r"y has shape \(2,\), expected \(3,\)"),
        (np.diag([1.0, np.nan, 1.0]), np.ones(3), "dataset entries must be finite"),
        (np.ones((3, 3)), [1.0, -np.inf, 1.0], "dataset entries must be finite"),
    ])
    def test_shape_and_finiteness_checked(self, x, y, match):
        with pytest.raises(DimensionMismatch, match=match):
            Dataset(X=x, y=y, names=("a", "b", "c"))

    def test_repeated_names_rejected_by_the_fit(self):
        d = synthetic_dataset([1.0, 2.0], [(0,)], names=("a", "b", "a"))
        with pytest.raises(DimensionMismatch, match="duplicate variable names"):
            ols_fit(d, [(0,)], exponent=1.0)


class TestTermRule:
    """The fit takes the term rule of ``build_model``."""

    @pytest.mark.parametrize("terms, error", [
        ([(0,), (0, 1), (1, 0)], DuplicateTerm),
        ([(0,), ModelTerm((0,), 5.0)], DuplicateTerm),
        ([(0, 3)], IndexOutOfRange),
        ([(-1,)], IndexOutOfRange),
        ([(0, 1, 2)], DimensionMismatch),
        ([()], DimensionMismatch),
    ])
    def test_bad_terms_rejected(self, terms, error):
        d = synthetic_dataset([1.0, 2.0], [(0,)])
        with pytest.raises(error):
            ols_fit(d, terms, exponent=1.0)

    def test_reversed_pair_fits_as_sorted(self):
        d = synthetic_dataset([1.0, 2.0, -0.5], [(0,), (0, 1)], noise=0.01)
        got, want = ols_fit(d, [(0,), (1, 0)], 1.0), ols_fit(d, [(0,), (0, 1)], 1.0)
        assert got.ranking == want.ranking
        assert [s.indices for s in got.term_stats] == [(0,), (0, 1)]
        assert [s.coefficient for s in got.term_stats] == [s.coefficient for s in want.term_stats]


class TestTransformResponse:
    def test_unit_fixed_point(self):
        assert transform_response([1.0], -2.376)[0] == 1.0

    def test_scalar_oracle(self):
        assert transform_response([316.0], -2.376)[0] == pytest.approx(
            1.15012088987623e-06, rel=1e-12)

    def test_negative_value_rejected_with_row_index(self):
        with pytest.raises(DomainError) as err:
            transform_response([2.0, -1.0, 3.0], -2.376)
        assert str(err.value) == ("exponent -2.376 requires positive responses; "
                                  "rows [1] violate this")
        assert not hasattr(err.value, "rows")

    def test_integer_exponent_allows_negatives(self):
        np.testing.assert_allclose(transform_response([-2.0], 2.0), [4.0])


class TestOlsFit:
    def test_exact_recovery(self):
        terms = [(0,), (1,), (0, 1), (2, 2)]
        coef = [2.0, 0.7, -1.3, 0.4, 0.05]
        d = synthetic_dataset(coef, terms)
        result = ols_fit(d, terms, exponent=1.0)
        assert result.model.intercept == pytest.approx(coef[0], rel=1e-6)
        for stat, expected in zip(result.term_stats, coef[1:]):
            assert stat.coefficient == pytest.approx(expected, rel=1e-6)
        assert result.sse <= 1e-20

    def test_recovery_through_power_transform(self):
        terms = [(0,), (1, 1)]
        coef = [2.0, 0.3, 0.1]
        d = synthetic_dataset(coef, terms)
        # responses in natural units; the fit happens on y**p
        natural = Dataset(X=d.X, y=d.y ** (1.0 / -2.376), names=d.names)
        result = ols_fit(natural, terms, exponent=-2.376)
        for stat, expected in zip(result.term_stats, coef[1:]):
            assert stat.coefficient == pytest.approx(expected, rel=1e-6)

    def test_intercept_only_gives_mean(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(1.0, 2.0, size=12)
        d = Dataset(X=rng.uniform(0, 1, size=(12, 2)), y=y, names=("a", "b"))
        result = ols_fit(d, [], exponent=1.0)
        assert result.model.intercept == pytest.approx(y.mean(), rel=1e-12)
        assert result.sse == pytest.approx(((y - y.mean()) ** 2).sum(), rel=1e-10)

    def test_copied_variable_is_rank_deficient(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0.5, 2.0, size=30)
        x = np.column_stack([base, base, rng.uniform(0.5, 2.0, size=30)])
        d = Dataset(X=x, y=base * 2.0 + 1.0, names=("a", "b", "c"))
        with pytest.raises(RankDeficient) as err:
            ols_fit(d, [(0,), (1,)], exponent=1.0)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_every_collinear_column_named_from_one_decomposition(self, monkeypatch):
        # a copy, a multiple and a zero column: a three-dimensional null space
        rng = np.random.default_rng(7)
        a, b, e = rng.uniform(0.5, 2.0, size=(3, 30))
        x = np.column_stack([a, a, b, 2.0 * b, np.zeros(30), e])
        d = Dataset(X=x, y=a + b + e + 0.1 * rng.standard_normal(30), names=tuple("abcdze"))
        real, calls = fitting.jacobi_eigen, []

        def counting(matrix):
            calls.append(1)
            return real(matrix)

        monkeypatch.setattr(fitting, "jacobi_eigen", counting)
        with pytest.raises(RankDeficient) as err:
            ols_fit(d, [(k,) for k in range(6)], exponent=1.0)
        assert str(err.value) == ("design matrix is rank deficient; "
                                  "collinear columns: ['a', 'b', 'c', 'd', 'z']")
        assert len(calls) == 1

    def test_too_few_rows(self):
        d = Dataset(X=np.ones((4, 2)), y=np.ones(4), names=("a", "b"))
        with pytest.raises(TooFewRows):
            ols_fit(d, [(0,), (1,)], exponent=1.0)

    def test_builds_model_with_doubling_convention(self):
        terms = [(0, 0)]
        d = synthetic_dataset([0.0, 3.0], terms, rows=20)
        result = ols_fit(d, terms, exponent=1.0)
        assert result.model.interaction.array[0, 0] == pytest.approx(6.0, rel=1e-8)


class TestFRank:
    def test_dominant_term_ranked_first(self):
        terms = [(0,), (1,), (2,)]
        d = synthetic_dataset([1.0, 50.0, 0.3, 0.2], terms, noise=0.05)
        result = ols_fit(d, terms, exponent=1.0)
        assert result.ranking[0] == "a"
        ranked = f_rank(d, result)
        assert ranked[0].label == "a"
        assert all(s.f_value >= 0.0 for s in ranked)

    def test_exact_tie_broken_lexicographically(self):
        # two exchangeable unit-coefficient terms, noise free
        x0 = np.tile([-1.0, -1.0, 1.0, 1.0], 2)
        x1 = np.tile([-1.0, 1.0, -1.0, 1.0], 2)
        d = Dataset(X=np.column_stack([x0, x1]), y=x0 + x1, names=("b", "a"))
        result = ols_fit(d, [(0,), (1,)], exponent=1.0)
        stats = {s.label: s.f_value for s in result.term_stats}
        assert stats["a"] == stats["b"]
        assert result.ranking == ("a", "b")

    def test_exact_fit_gives_infinite_f(self):
        # +-1 columns of norm 4 equilibrate exactly, so the residual is
        # exactly zero: a present term gets F = inf, an absent one F = 0
        x0 = np.tile([-1.0, -1.0, 1.0, 1.0], 4)
        x1 = np.tile([-1.0, 1.0, -1.0, 1.0], 4)
        d = Dataset(X=np.column_stack([x0, x1]), y=3.0 + 2.0 * x0, names=("a", "b"))
        result = ols_fit(d, [(0,), (1,)], exponent=1.0)
        assert result.sse == 0.0
        assert {s.label: s.f_value for s in result.term_stats} == {"a": np.inf, "b": 0.0}
        assert result.ranking == ("a", "b")

    def test_report_of_an_exact_fit(self):
        x0 = np.tile([-1.0, -1.0, 1.0, 1.0], 4)
        x1 = np.tile([-1.0, 1.0, -1.0, 1.0], 4)
        d = Dataset(X=np.column_stack([x0, x1]), y=3.0 + 2.0 * x0, names=("a", "b"))
        assert ols_fit(d, [(0,), (1,)], exponent=1.0).to_text() == (
            "SSE = 0\n"
            "rank term        coefficient      F\n"
            "   1 a                     +2        inf\n"
            "   2 b                     +0          0\n")

    def test_null_term_ranked_last(self):
        terms = [(0,), (1,)]
        d = synthetic_dataset([1.0, 5.0, 0.0], terms, rows=120, noise=0.1)
        result = ols_fit(d, terms, exponent=1.0)
        assert result.ranking[-1] == "b"

    def test_sorts_the_given_stats_without_refitting(self, monkeypatch):
        terms = [(0,), (1,), (0, 2)]
        d = synthetic_dataset([1.0, 2.0, -0.5, 0.8], terms, noise=0.01)
        result = ols_fit(d, terms, exponent=1.0)

        def no_eigen(*args, **kwargs):
            raise AssertionError("f_rank refit the model")

        monkeypatch.setattr(fitting, "jacobi_eigen", no_eigen)
        assert tuple(s.label for s in f_rank(d, result)) == result.ranking

    def test_ranking_is_permutation(self):
        terms = [(0,), (1,), (0, 2)]
        d = synthetic_dataset([1.0, 2.0, -0.5, 0.8], terms, noise=0.01)
        result = ols_fit(d, terms, exponent=1.0)
        assert sorted(result.ranking) == sorted(s.label for s in result.term_stats)

    def test_rank_invariant_under_row_shuffle(self):
        terms = [(0,), (1,), (1, 2)]
        d = synthetic_dataset([1.0, 4.0, -2.0, 0.6], terms, noise=0.02)
        result = ols_fit(d, terms, exponent=1.0)
        rng = np.random.default_rng(99)
        perm = rng.permutation(d.rows)
        shuffled = Dataset(X=d.X[perm], y=d.y[perm], names=d.names)
        assert ols_fit(shuffled, terms, exponent=1.0).ranking == result.ranking


class TestFitProperties:
    def test_residuals_orthogonal_to_design(self):
        terms = [(0,), (1,), (0, 1)]
        d = synthetic_dataset([1.0, 2.0, -0.7, 0.3], terms, noise=0.2)
        result = ols_fit(d, terms, exponent=1.0)
        pred = np.array([
            result.model.intercept
            + sum(s.coefficient * (d.X[r, s.indices[0]] if len(s.indices) == 1
                                   else d.X[r, s.indices[0]] * d.X[r, s.indices[1]])
                  for s in result.term_stats)
            for r in range(d.rows)
        ])
        resid = d.y - pred
        for idx in terms:
            col = d.X[:, idx[0]] if len(idx) == 1 else d.X[:, idx[0]] * d.X[:, idx[1]]
            assert abs(col @ resid) <= 1e-8 * np.linalg.norm(col) * np.linalg.norm(d.y)

    def test_refit_on_own_predictions_reproduces_coefficients(self):
        terms = [(0,), (2,), (1, 1)]
        d = synthetic_dataset([0.5, 1.5, -0.4, 0.2], terms, noise=0.1)
        first = ols_fit(d, terms, exponent=1.0)
        pred = np.array([
            first.model.intercept
            + sum(s.coefficient * (d.X[r, s.indices[0]] if len(s.indices) == 1
                                   else d.X[r, s.indices[0]] * d.X[r, s.indices[1]])
                  for s in first.term_stats)
            for r in range(d.rows)
        ])
        second = ols_fit(Dataset(X=d.X, y=pred, names=d.names), terms, exponent=1.0)
        assert second.model.intercept == pytest.approx(first.model.intercept, rel=1e-10)
        for s1, s2 in zip(first.term_stats, second.term_stats):
            assert s2.coefficient == pytest.approx(s1.coefficient, rel=1e-10)


def graded_quadratic(seed, rows=40):
    """A noisy full quadratic in four variables (p = 14) whose columns
    span six decades: x_i in [1, 2] 10^i, so x_3^2 reaches 4e6."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 2.0, size=(rows, 4)) * 10.0 ** np.arange(4)
    terms = [(i,) for i in range(4)] + [(i, j) for i in range(4) for j in range(i, 4)]
    design = np.column_stack([np.ones(rows)] + [x[:, list(t)].prod(axis=1) for t in terms])
    signal = design @ (rng.uniform(-1.0, 1.0, design.shape[1]) / np.linalg.norm(design, axis=0))
    y = signal + 0.05 * signal.std() * rng.standard_normal(rows)
    return Dataset(X=x, y=y, names=("a", "b", "c", "e")), terms, design


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graded_fit_matches_a_50_digit_refit(seed):
    # forming X'X squares the condition number and misses by 1e-9 to 7e-9 here
    d, terms, design = graded_quadratic(seed)
    result = ols_fit(d, terms, exponent=1.0)
    p = len(terms)
    with mpmath.workdps(50):
        x, y = mpmath.matrix(design.tolist()), mpmath.matrix(d.y.tolist())
        inv = (x.T * x) ** -1
        coef = inv * (x.T * y)
        resid = y - x * coef
        scale = sum(r * r for r in resid) / (d.rows - p - 1)
        f_ref = [float(coef[k] ** 2 / inv[k, k] / scale) for k in range(1, p + 1)]
        coef_ref = [float(c) for c in coef]
    assert result.model.intercept == pytest.approx(coef_ref[0], rel=1e-10)
    for stat, c, f in zip(result.term_stats, coef_ref[1:], f_ref):
        assert stat.coefficient == pytest.approx(c, rel=1e-10)
        assert stat.f_value == pytest.approx(f, rel=1e-10)
