"""Eigensolver, the zero-eigenvalue rule, and solve.

Ground truth comes from numpy.linalg (kept out of the package itself),
from 50-digit mpmath for graded matrices, 40-digit mpmath for entries
near the largest float, and from small closed-form
oracles: trace, cofactor determinants, and multiply-back residuals.
``small_axes`` is the one rule for an eigenvalue that counts as zero,
|lambda| <= factor * max|lambda|; the tests pin its boundary, where an
eigenvalue of exactly factor * max|lambda| counts and one ulp more does
not, for ``solve`` at DEFAULT_COND_TOL and, at ZERO_TOL_FACTOR, for
``CanonicalModel.degenerate_axes``, the one decision a canonical frame
makes for every later stage.
"""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from rsmcanon import (
    CanonicalModel,
    DimensionMismatch,
    NonConvergence,
    NumericalError,
    SingularMatrix,
    SymMatrix,
    jacobi_eigen,
    solve,
)
import rsmcanon.linalg as linalg
from rsmcanon.canonical import ZERO_TOL_FACTOR
from rsmcanon.linalg import DEFAULT_COND_TOL, _wavefront, small_axes

from eu_reference import EU_B, EU_LAMBDAS_REF, EU_AXES_REF, match_axes_up_to_sign

# Quoted values carry six significant digits.
PRINT_TOL = 1e-4

SRC = str(Path(__file__).resolve().parents[1] / "src")


def random_symmetric(rng, n):
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return (a + a.T) / 2.0


def graded(rng, n, definite):
    """D A D with the entries of D spanning six decades in a seeded order."""
    x = rng.standard_normal((n, n))
    a = x @ x.T + 0.1 * np.eye(n) if definite else (x + x.T) / 2.0
    d = rng.permutation(np.logspace(0.0, -6.0, n))
    return d[:, None] * a * d[None, :]


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

    def test_huge_entries_symmetrized_without_overflow(self):
        # a_01 + a_10 and a_22 + a_22 overflow; halving first is exact at that
        # size, while the other entries, down to an odd subnormal, keep (a + a') / 2
        a = np.array([[1.0, 1e308, 5e-324], [1.7e308, 3.0, 2.0], [0.0, 4.0, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = SymMatrix(a).array
        with np.errstate(over="ignore"):
            want = (a + a.T) / 2.0
        want[0, 1], want[1, 0], want[2, 2] = 1.35e308, 1.35e308, -1e308
        assert s.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_wavefront_schedule(n):
    steps = _wavefront(n)
    assert len(steps) == max(2 * n - 3, 0)
    at = {}
    for k, (gather, scatter) in enumerate(steps):
        pq, pp, qq = gather
        p, q = np.divmod(pq, n)
        assert (p < q).all() and len(set(p) | set(q)) == 2 * len(p)  # disjoint pairs
        np.testing.assert_array_equal(pp, p * (n + 1))
        np.testing.assert_array_equal(qq, q * (n + 1))
        np.testing.assert_array_equal(scatter, [pp, qq, pq, q * n + p])
        assert not gather.flags.writeable and not scatter.flags.writeable
        for pair in zip(p.tolist(), q.tolist()):
            assert pair not in at
            at[pair] = k
    row_cyclic = [(p, q) for p in range(n) for q in range(p + 1, n)]
    assert sorted(at) == row_cyclic
    # pairs that share an index keep their row-cyclic order
    for i, first in enumerate(row_cyclic):
        for later in row_cyclic[i + 1:]:
            if set(first) & set(later):
                assert at[first] < at[later]


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

    def test_non_convergence_signalled(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(NonConvergence):
            jacobi_eigen([[1.0, 2.0], [2.0, -1.0]])

    def test_diagonal_input_needs_no_sweep(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        eig = jacobi_eigen(np.diag([3.0, -1.0, 1e-300, 0.0]))
        np.testing.assert_array_equal(eig.lambdas, [3.0, -1.0, 1e-300, 0.0])

    @pytest.mark.parametrize("definite", [False, True])
    def test_graded_eigenvalues_to_high_relative_accuracy(self, definite):
        # Every eigenvalue, down to about 1e-12 of the largest, to 1e-12
        # relative. An absolute stopping rule, a circle round-robin order or no
        # |a_pp| presort each miss that on some of these matrices.
        for seed in range(6):
            s = graded(np.random.default_rng(seed), 6, definite)
            with mpmath.workdps(50):
                ref = np.array(sorted(float(x) for x in mpmath.eigsy(
                    mpmath.matrix(s.tolist()), eigvals_only=True)))
            ours = np.sort(jacobi_eigen(s).lambdas)
            assert (np.abs(ours - ref) / np.abs(ref)).max() <= 1e-12, seed

    def test_bit_identical_across_blas_thread_counts(self):
        # n = 15 is the normal matrix of a 14-term fit; each step's products
        # are (n x n)(n x n) and (2n x n)(n x n)
        code = ("import hashlib, numpy as np, rsmcanon as rc\n"
                "for n in (15, 32, 64):\n"
                "    rng = np.random.default_rng(n)\n"
                "    q, _ = np.linalg.qr(rng.standard_normal((n, n)))\n"
                "    lam = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(0.0, 6.0, n)\n"
                "    eig = rc.jacobi_eigen((q * lam) @ q.T)\n"
                "    print(n, hashlib.sha256(eig.lambdas.tobytes() + eig.vectors.tobytes())"
                ".hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            digests.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(digests) == 1

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

    def test_subnormal_entry_does_not_overflow(self):
        # a_pq = 1.1e-321 is subnormal, so even tau = (a_qq - a_pp) / (2 a_pq)
        # overflows; the rotation must take t = a_pq / (a_qq - a_pp) instead
        e = 1.1116e-321
        a = np.array([[1e-16, e, e], [e, -4.9995e-13, -5.0005e-13],
                      [e, -5.0005e-13, -4.9995e-13]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = jacobi_eigen(a)
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(np.sort(eig.lambdas), ref, rtol=0.0,
                                   atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("matrix", [[[0.8e308, 0.4e308], [0.4e308, -0.8e308]],
                                        [[0.9e308, 0.4e308], [0.4e308, -0.8e308]],
                                        [[1.0, 1e308], [1e308, 1.0]]],
                             ids=["sum", "hypot", "two_apq"])
    def test_near_float_limit_matches_mpmath(self, matrix):
        # unscaled, |h| + hypot(h, 2 a_pq), the hypot itself or 2 a_pq would
        # overflow; the scaled sweeps find the representable eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = jacobi_eigen(matrix)
        with mpmath.workdps(40):
            ref = sorted(float(x) for x in mpmath.eigsy(mpmath.matrix(matrix),
                                                         eigvals_only=True))
        np.testing.assert_allclose(np.sort(eig.lambdas), ref, rtol=1e-15, atol=0.0)

    def test_eigenvalue_past_the_largest_float_raises(self):
        # lambda = 1.8e308 is past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="an eigenvalue exceeds the largest float") as err:
                jacobi_eigen([[1.7e308, 1e307], [1e307, 1.7e308]])
        assert err.value.exit_code == 3

    def test_zero_matrix(self):
        eig = jacobi_eigen(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.lambdas, np.zeros(3))

    @pytest.mark.parametrize("matrix", [np.zeros((3, 3)), np.diag([3.0, -1.0, 1e-300, 0.0]),
                                        np.eye(1)], ids=["zero", "diagonal", "1x1"])
    def test_no_sweep_and_no_rotation_counted(self, matrix, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        eig = jacobi_eigen(matrix)
        assert (eig.sweeps, eig.rotations) == (0, 0)

    def test_sweeps_and_rotations_counted(self):
        # one rotation annihilates the only off-diagonal pair of a 2 x 2
        eig = jacobi_eigen([[1.0, 2.0], [2.0, -1.0]])
        assert (eig.sweeps, eig.rotations) == (1, 1)


def at_cutoff(top, factor):
    """A diagonal spectrum whose last eigenvalue is exactly factor * |top|."""
    return [top, -2.0 * top, factor * abs(2.0 * top)]


class TestSmallAxes:
    @pytest.mark.parametrize("top", [1.0, -3.0, 7e-16, 2.5e300])
    def test_cutoff_counts_and_one_ulp_above_does_not(self, top):
        for factor in (DEFAULT_COND_TOL, ZERO_TOL_FACTOR):
            lam = at_cutoff(top, factor)
            assert small_axes(lam, factor).tolist() == [2]
            lam[2] = np.nextafter(lam[2], np.inf)
            assert small_axes(lam, factor).tolist() == []

    @pytest.mark.parametrize("top", [1.0, -3.0, 7e-16])
    def test_solve_rejects_at_cutoff_and_accepts_one_ulp_above(self, top):
        lam = at_cutoff(top, DEFAULT_COND_TOL)
        with pytest.raises(SingularMatrix, match=re.escape("eigenvalues [3] are below")):
            solve(np.diag(lam), [1.0, 1.0, 1.0])
        lam[2] = np.nextafter(lam[2], np.inf)
        x = solve(np.diag(lam), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(x * lam, 1.0, rtol=1e-15)

    @pytest.mark.parametrize("top", [1.0, -3.0, 7e-16])
    def test_degenerate_axes_at_cutoff_and_one_ulp_above(self, top):
        def degenerate_axes(lam):
            return CanonicalModel(("x", "y", "z"), np.zeros(3), 0.0, lam, np.eye(3)).degenerate_axes
        lam = at_cutoff(top, ZERO_TOL_FACTOR)
        assert degenerate_axes(lam) == (3,)
        lam[2] = np.nextafter(lam[2], np.inf)
        assert degenerate_axes(lam) == ()


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

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(SingularMatrix, match=re.escape("eigenvalues [2] are below")):
            solve(np.diag([1.0, 0.0]), [1.0, 1.0])

    def test_condition_tolerance(self):
        with pytest.raises(SingularMatrix):
            solve(np.diag([1.0, 1e-13]), [1.0, 1.0])  # below the 1e-12 factor
        np.testing.assert_allclose(solve(np.diag([1.0, 1e-11]), [1.0, 1.0]), [1.0, 1e11],
                                   rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(np.eye(3), [1.0, 2.0])


class TestCheckPoint:
    def test_finite_entries_whose_sum_overflows_pass(self):
        x = linalg.check_point([1.5e308, 1.5e308], 2)
        assert x.tolist() == [1.5e308, 1.5e308]
