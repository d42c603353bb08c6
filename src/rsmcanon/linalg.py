"""Dense symmetric linear algebra for small matrices.

The eigensolver is a cyclic Jacobi iteration with a fixed sweep order
and a fixed sign convention, so identical inputs always produce
bit-identical output on a given platform. Spectral inversion and
linear solves are built on the same decomposition. Everything here is
scale-free; physical units live in the model layer.

Sized for the interaction matrices of second-order response models
(n up to a few dozen). Not intended for large or non-symmetric
problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, SingularMatrix

# Relative condition floor below which a matrix is treated as singular.
DEFAULT_COND_TOL = 1e-12

# Off-diagonal Frobenius target for the Jacobi sweep, relative to the
# Frobenius norm of the input matrix.
JACOBI_TOL = 1e-14

JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A real symmetric matrix, symmetrized exactly on construction."""

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DimensionMismatch("matrix entries must be finite")
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def __matmul__(self, other):
        return self.array @ other


def as_sym_matrix(matrix) -> SymMatrix:
    """Coerce an array-like (or pass through a SymMatrix)."""
    if isinstance(matrix, SymMatrix):
        return matrix
    return SymMatrix(matrix)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    ``lambdas`` is ordered by descending absolute value (ties broken by
    signed value, descending); ``vectors`` holds the matching
    eigenvectors as columns, each flipped so its largest-magnitude
    component is positive.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    source_n: int

    def reconstruct(self) -> np.ndarray:
        """Sum of lambda_k V_k V_k', which recovers the source matrix."""
        return (self.vectors * self.lambdas) @ self.vectors.T

    def condition(self) -> float:
        """min|lambda| / max|lambda|; zero for the zero matrix."""
        mags = np.abs(self.lambdas)
        top = float(mags.max())
        return float(mags.min() / top) if top > 0.0 else 0.0


def jacobi_eigen(matrix, *, max_sweeps: int = JACOBI_MAX_SWEEPS, tol: float = JACOBI_TOL) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the strict upper triangle in row order, annihilating one
    off-diagonal entry per rotation, until the off-diagonal Frobenius
    norm falls below ``tol`` times the Frobenius norm of the input.

    Raises NonConvergence if the target is not met within
    ``max_sweeps`` sweeps, which signals pathological input; any finite
    symmetric matrix of this size converges in a handful of sweeps.
    """
    source = as_sym_matrix(matrix)
    n = source.n
    a = source.array.copy()
    v = np.eye(n)
    fro = float(np.sqrt((a * a).sum()))
    target = tol * fro

    def off_norm() -> float:
        off = a - np.diag(np.diag(a))
        return float(np.sqrt((off * off).sum()))

    sweeps = 0
    while off_norm() > target:
        if sweeps >= max_sweeps:
            raise NonConvergence(
                f"off-diagonal norm {off_norm():.3e} still above {target:.3e} "
                f"after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                h = a[q, q] - a[p, p]
                if abs(h) + 100.0 * abs(apq) == abs(h):
                    t = apq / h  # a_pq negligible against the gap; h / (2 a_pq) may overflow
                else:
                    tau = h / (2.0 * apq)
                    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                # the rotation annihilates (p, q) exactly in real arithmetic
                a[p, q] = 0.0
                a[q, p] = 0.0

                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
        sweeps += 1

    diag = np.diag(a).copy()
    order = sorted(range(n), key=lambda k: (-abs(diag[k]), -diag[k]))
    lambdas = diag[list(order)]
    vectors = v[:, list(order)].copy()
    for k in range(n):
        lead = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[lead, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    lambdas.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(lambdas=lambdas, vectors=vectors, source_n=n)


def spectral_inverse(eig: EigenDecomposition, cond_tol: float = DEFAULT_COND_TOL) -> SymMatrix:
    """Inverse via the spectral sum of lambda_k^-1 V_k V_k'.

    Raises SingularMatrix when min|lambda|/max|lambda| falls below
    ``cond_tol``; a degenerate quadratic part has no canonical shift.
    """
    _require_invertible(eig, cond_tol)
    inv = (eig.vectors / eig.lambdas) @ eig.vectors.T
    return SymMatrix(inv)


def solve(matrix, rhs, cond_tol: float = DEFAULT_COND_TOL) -> np.ndarray:
    """Solve S x = b for symmetric S without forming an explicit inverse."""
    source = as_sym_matrix(matrix)
    b = np.asarray(rhs, dtype=float)
    if b.shape != (source.n,):
        raise DimensionMismatch(f"right-hand side has shape {b.shape}, expected ({source.n},)")
    eig = jacobi_eigen(source)
    _require_invertible(eig, cond_tol)
    return eig.vectors @ ((eig.vectors.T @ b) / eig.lambdas)


def _require_invertible(eig: EigenDecomposition, cond_tol: float) -> None:
    if eig.condition() < cond_tol:
        mags = np.abs(eig.lambdas)
        floor = cond_tol * float(mags.max())
        small = [k + 1 for k in range(eig.source_n) if mags[k] <= floor]
        raise SingularMatrix(
            f"eigenvalues {small} are below the condition tolerance "
            f"{cond_tol:g} relative to max|lambda|; matrix treated as singular"
        )
