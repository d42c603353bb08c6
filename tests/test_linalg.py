"""Eigensolver, spectral inverse, and solve.

Ground truth comes from numpy.linalg (kept out of the package itself)
and from small closed-form oracles: trace, cofactor determinants, and
multiply-back residuals.
"""

import warnings

import numpy as np
import pytest

from rsmcanon import (
    DimensionMismatch,
    NonConvergence,
    SingularMatrix,
    SymMatrix,
    jacobi_eigen,
    solve,
    spectral_inverse,
)

from eu_reference import EU_B, EU_LAMBDAS_REF, EU_AXES_REF, match_axes_up_to_sign

# Quoted values carry six significant digits.
PRINT_TOL = 1e-4


def random_symmetric(rng, n):
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return (a + a.T) / 2.0


def cofactor_det(a):
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * cofactor_det(minor)
    return total


class TestSymMatrix:
    def test_symmetrized_exactly(self):
        s = SymMatrix([[1.0, 2.0], [4.0, 3.0]])
        assert s.array[0, 1] == s.array[1, 0] == 3.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])


class TestJacobiEigen:
    def test_identity(self):
        eig = jacobi_eigen(np.eye(3))
        np.testing.assert_allclose(eig.lambdas, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(eig.vectors, np.eye(3), atol=1e-14)

    def test_gas_bunker_block(self):
        # 2x2 sub-block of the EU interaction matrix (scale-free entries)
        block = [[0.0, 37.3391], [37.3391, -130.23]]
        eig = jacobi_eigen(block)
        np.testing.assert_allclose(eig.lambdas, [-140.176, 9.94612], rtol=PRINT_TOL)

    def test_eu_matrix_eigenvalues(self):
        eig = jacobi_eigen(EU_B)
        np.testing.assert_allclose(eig.lambdas, EU_LAMBDAS_REF, rtol=PRINT_TOL)

    def test_eu_matrix_eigenvectors_up_to_sign(self):
        eig = jacobi_eigen(EU_B)
        assert match_axes_up_to_sign(eig.vectors, EU_AXES_REF, atol=1e-5) == []

    def test_ordering_by_descending_magnitude(self):
        eig = jacobi_eigen(np.diag([1.0, -5.0, 3.0]))
        np.testing.assert_allclose(eig.lambdas, [-5.0, 3.0, 1.0], atol=1e-14)

    def test_tie_broken_by_signed_value(self):
        eig = jacobi_eigen(np.diag([-2.0, 2.0]))
        np.testing.assert_allclose(eig.lambdas, [2.0, -2.0], atol=0)

    def test_sign_convention(self):
        # largest-magnitude component of every eigenvector is positive
        rng = np.random.default_rng(7)
        for _ in range(20):
            eig = jacobi_eigen(random_symmetric(rng, 5))
            for k in range(5):
                col = eig.vectors[:, k]
                assert col[np.argmax(np.abs(col))] > 0.0

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            s = random_symmetric(rng, n)
            ours = np.sort(jacobi_eigen(s).lambdas)
            lapack = np.sort(np.linalg.eigvalsh(s))
            np.testing.assert_allclose(ours, lapack, atol=1e-12)

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            s = random_symmetric(rng, n)
            eig = jacobi_eigen(s)
            gram = eig.vectors.T @ eig.vectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            err = np.linalg.norm(eig.reconstruct() - s) / max(np.linalg.norm(s), 1e-300)
            assert err <= 1e-10

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            s = random_symmetric(rng, n)
            lam = jacobi_eigen(s).lambdas
            assert abs(lam.sum() - np.trace(s)) <= 1e-9 * max(abs(np.trace(s)), 1.0)
            det = cofactor_det(s)
            prod = float(np.prod(lam))
            assert abs(prod - det) <= 1e-8 * max(abs(det), abs(prod), 1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        s = random_symmetric(rng, 6)
        first = jacobi_eigen(s)
        second = jacobi_eigen(s.copy())
        assert np.array_equal(first.lambdas, second.lambdas)
        assert np.array_equal(first.vectors, second.vectors)

    def test_symmetrization_idempotent(self):
        a = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0], [1.5, 1.0, 0.25]])
        sym = (a + a.T) / 2.0
        from_raw = jacobi_eigen(a)
        from_sym = jacobi_eigen(sym)
        assert np.array_equal(from_raw.lambdas, from_sym.lambdas)
        assert np.array_equal(from_raw.vectors, from_sym.vectors)

    def test_non_convergence_signalled(self):
        with pytest.raises(NonConvergence):
            jacobi_eigen([[1.0, 2.0], [2.0, -1.0]], max_sweeps=0)

    def test_tiny_entry_against_wide_gap_does_not_overflow(self):
        # |tau| = |a_qq - a_pp| / (2 |a_pq|) is about 5e287 for the
        # (1, 2) rotation, so tau * tau would overflow
        a = np.array([[1e-12, 1e-300, 0.0], [1e-300, -1e-14, 1e-13], [0.0, 1e-13, 1e-16]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = jacobi_eigen(a)
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(np.sort(eig.lambdas), ref, rtol=0.0,
                                   atol=1e-14 * np.abs(ref).max())

    def test_zero_matrix(self):
        eig = jacobi_eigen(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.lambdas, np.zeros(3))


class TestSpectralInverse:
    def test_diagonal(self):
        inv = spectral_inverse(jacobi_eigen(np.diag([2.0, 4.0])))
        np.testing.assert_allclose(inv.array, np.diag([0.5, 0.25]), atol=1e-14)

    def test_eu_matrix_multiply_back(self):
        inv = spectral_inverse(jacobi_eigen(EU_B))
        residual = np.linalg.norm(inv.array @ EU_B - np.eye(4))
        assert residual <= 1e-9

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(SingularMatrix):
            spectral_inverse(jacobi_eigen(np.diag([1.0, 0.0])))

    def test_condition_tolerance(self):
        eig = jacobi_eigen(np.diag([1.0, 1e-13]))
        with pytest.raises(SingularMatrix):
            spectral_inverse(eig)  # below the 1e-12 default
        spectral_inverse(eig, cond_tol=1e-14)


class TestSolve:
    def test_identity(self):
        np.testing.assert_allclose(solve(np.eye(2), [3.0, 7.0]), [3.0, 7.0], atol=0)

    def test_diagonal(self):
        np.testing.assert_allclose(solve(np.diag([2.0, 4.0]), [2.0, 4.0]), [1.0, 1.0], atol=1e-14)

    def test_eu_stationary_system_residual(self):
        from eu_reference import EU_BETA
        b = -EU_BETA / 2.0
        x = solve(EU_B, b)
        assert np.linalg.norm(EU_B @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_random_residuals(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            s = random_symmetric(rng, n) + 2.0 * np.eye(n)
            b = rng.uniform(-1.0, 1.0, size=n)
            x = solve(s, b)
            assert np.linalg.norm(s @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1e-300)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            solve(np.zeros((2, 2)), [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(np.eye(3), [1.0, 2.0])
