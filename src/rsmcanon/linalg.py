"""Dense symmetric linear algebra for small matrices.

The eigensolver is a Jacobi iteration that applies each sweep's
row-cyclic rotations in wavefront steps of disjoint pairs, rotates only
above a relative threshold, so graded matrices keep high relative
accuracy, and stops after a sweep that rotates nothing. It sweeps a copy
scaled exactly, by a power of four, to max|a| in [1/4, 1), so only an
eigenvalue past the largest float can overflow (NumericalError). Order
and sign convention are fixed: identical inputs give bit-identical output
on one platform with a fixed BLAS thread count, and across thread counts
up to n = 64. Everything here is scale-free; physical units live in the
model layer. This lowest layer owns the finite-input rules that every
module uses: ``SymMatrix`` takes a square matrix of finite entries, and
``check_point`` a vector of shape (n,) with n finite entries.

One rule says when an eigenvalue counts as zero: ``small_axes`` marks
axis k when |lambda_k| <= factor * max|lambda|. ``solve`` and the fit
apply it at DEFAULT_COND_TOL. ``canonical`` applies it at its own factor
in ``canonicalize``'s gate and once per frame, as the
``CanonicalModel.degenerate_axes`` that every later stage reads. No
other code compares an eigenvalue with a tolerance.

Sized for the interaction matrices of second-order response models
(n up to a few dozen). Not intended for large or non-symmetric
problems.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NumericalError, SingularMatrix

# An eigenvalue within this factor of max|lambda| makes a matrix singular.
DEFAULT_COND_TOL = 1e-12

# A Jacobi rotation of (p, q) is skipped once |a_pq| <= JACOBI_TOL
# sqrt|a_pp| sqrt|a_qq| (Demmel & Veselic, 1992).
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
        top = np.abs(a).max()
        if not top < math.inf:
            raise DimensionMismatch("matrix entries must be finite")
        if top < 2.0 ** 1023:  # below max/2, a + a' cannot overflow
            a = (a + a.T) / 2.0
        else:  # halving first is exact at this size
            with np.errstate(over="ignore"):
                total = a + a.T
            a = np.where(np.isinf(total), a / 2.0 + a.T / 2.0, total / 2.0)
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def n(self) -> int:
        return self.array.shape[0]


def check_point(point, n: int, what: str = "point") -> np.ndarray:
    """``point`` as a float array; DimensionMismatch naming ``what``
    unless it has shape (n,) and n finite entries."""
    x = np.asarray(point, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({n},)")
    if not all(map(math.isfinite, x.tolist())):
        raise DimensionMismatch(f"{what} entries must be finite")
    return x


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
    component is positive. ``sweeps`` counts the Jacobi sweeps that
    rotated and ``rotations`` the pair rotations they made.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    sweeps: int
    rotations: int

    def reconstruct(self) -> np.ndarray:
        """Sum of lambda_k V_k V_k', which recovers the source matrix."""
        return (self.vectors * self.lambdas) @ self.vectors.T


def jacobi_eigen(matrix) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by Jacobi rotations.

    Indices are first ordered by descending |a_pp|, and a is scaled by 4^k,
    the power of four that puts max|a| in [1/4, 1); the eigenvalues are
    scaled back. The scale is exact, as sqrt(4^k x) = 2^k sqrt x and t, c,
    s do not depend on it: short of subnormals it changes no bit, and no
    angle or product can overflow. Each sweep runs the steps of
    ``_wavefront``, rotating a step's disjoint pairs (p, q) at once as one
    orthogonal J: a <- J' a J, v <- v J. A step gathers (a_pq, a_pp, a_qq)
    in one read, as Python floats; a pair rotates only while
    |a_pq| > JACOBI_TOL sqrt|a_pp| sqrt|a_qq| (Demmel & Veselic, 1992),
    which keeps graded matrices to high relative accuracy. With at most n/2
    pairs a step, numpy calls would cost more in overhead than in
    arithmetic, so the test and the angles take scalar operations: the IEEE
    operations of the elementwise numpy form, in its order, so the same
    bits. hypot(a_qq - a_pp, 2 a_pq) stays one numpy call per step:
    math.hypot rounds differently from the C library hypot behind np.hypot,
    in the last bit of about 0.6% of standard normal pairs. J is written in
    one scatter, and v is kept under a in one 2n x n array, so one product
    [J'a; v] J updates both and a still rounds as (J'a) J. The iteration
    ends after a sweep that rotates nothing: only rotations change the
    matrix, so every later sweep would rotate nothing either.

    Raises NonConvergence at the first step that would rotate in a sweep
    after the first JACOBI_MAX_SWEEPS, read at call time: pathological
    input, as any finite symmetric matrix of this size converges in a
    handful of sweeps.
    Raises NumericalError if an eigenvalue exceeds the largest float.
    """
    source = as_sym_matrix(matrix)
    n = source.n
    # largest |a_pp| first: the row-cyclic order then keeps graded
    # indefinite matrices accurate, whatever their input order
    perm = np.argsort(-np.abs(source.array.diagonal()), kind="stable")
    k = -((math.frexp(np.abs(source.array).max())[1] + 1) // 2)  # 4^k max|a| in [1/4, 1)
    eye = np.eye(n)
    av = np.vstack((np.ldexp(source.array[perm][:, perm], 2 * k), eye[:, perm]))  # a over v
    rotations = 0
    for sweep in itertools.count():
        before = rotations
        for gather, scatter in _wavefront(n):
            apq, app, aqq = av.take(gather).tolist()
            rot = [k for k, x in enumerate(apq)
                   if abs(x) > JACOBI_TOL * math.sqrt(abs(app[k])) * math.sqrt(abs(aqq[k]))]
            if not rot:
                continue
            if sweep >= JACOBI_MAX_SWEEPS:
                raise NonConvergence(f"off-diagonal entries above {JACOBI_TOL:g} sqrt|a_pp a_qq| "
                                     f"after {JACOBI_MAX_SWEEPS} sweeps")
            rotations += len(rot)
            if len(rot) < len(apq):
                apq, app, aqq = ([row[k] for k in rot] for row in (apq, app, aqq))
                scatter = scatter[:, rot]
            h = [y - x for x, y in zip(app, aqq)]
            c, s = [], []
            for x, y, r in zip(apq, h, np.hypot(h, [2.0 * x for x in apq]).tolist()):
                # tan of the angle that annihilates a_pq; no overflow for tiny a_pq
                t = math.copysign(2.0, y) * x / (abs(y) + r)
                cos = 1.0 / math.sqrt(1.0 + t * t)
                c.append(cos)
                s.append(t * cos)
            j = eye.copy()
            j.put(scatter, np.fromiter(itertools.chain(c, c, s, map(operator.neg, s)), float))
            av[:n] = j.T @ av[:n]
            av = av @ j  # [J'a; v] J: a <- J'aJ and v <- vJ
            av.put(scatter[2:], 0.0)  # a_pq and a_qp, zero in exact arithmetic
        if rotations == before:
            break

    with np.errstate(over="ignore"):
        diag = np.ldexp(av.diagonal(), -2 * k)  # of a, the top n rows
    if not np.isfinite(diag).all():
        raise NumericalError("an eigenvalue exceeds the largest float")
    order = np.lexsort((-diag, -np.abs(diag)))  # descending |lambda|, then lambda
    lambdas, vectors = diag[order], np.ascontiguousarray(av[n:, order])
    vectors *= np.where(vectors[np.abs(vectors).argmax(axis=0), np.arange(n)] < 0.0, -1.0, 1.0)
    lambdas.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(lambdas, vectors, sweeps=sweep, rotations=rotations)


@functools.lru_cache(maxsize=None)
def _wavefront(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The 2n - 3 steps of one wavefront Jacobi sweep of an n x n matrix.

    Step k, k = 1 .. 2n - 3, holds the pairs p < q with p + q = k. Pairs
    within a step are disjoint, and pairs that share an index come in
    their cyclic-by-rows order, (0, 1), (0, 2), ..., (n - 2, n - 1), so
    in exact arithmetic a sweep is a row-cyclic sweep (Shroff &
    Schreiber, 1989); a round-robin order, in n - 1 steps, loses digits
    on graded indefinite matrices. A step is a read-only pair of flat
    position arrays into an n x n array, one column per pair: the
    gather rows (pq, pp, qq) and the scatter rows (pp, qq, pq, qp).
    """
    steps = []
    for k in range(1, 2 * n - 2):
        p = np.arange(max(0, k - n + 1), (k + 1) // 2)
        pq, qp, pp, qq = p * n + k - p, (k - p) * n + p, p * (n + 1), (k - p) * (n + 1)
        step = (np.array([pq, pp, qq]), np.array([pp, qq, pq, qp]))
        for pos in step:
            pos.setflags(write=False)
        steps.append(step)
    return tuple(steps)


def small_axes(lambdas, factor: float) -> np.ndarray:
    """0-based indices k with |lambda_k| <= ``factor`` * max|lambda|, every
    k of a zero spectrum: the eigenvalues that count as zero."""
    mags = np.abs(np.asarray(lambdas, dtype=float))
    return np.flatnonzero(mags <= factor * float(mags.max(initial=0.0)))


def solve(matrix, rhs) -> np.ndarray:
    """Solve S x = b for symmetric S, b passing ``check_point``, without an explicit
    inverse; SingularMatrix names the ``small_axes`` of S at DEFAULT_COND_TOL, 1-based."""
    source = as_sym_matrix(matrix)
    b = check_point(rhs, source.n, "right-hand side")
    eig = jacobi_eigen(source)
    small = small_axes(eig.lambdas, DEFAULT_COND_TOL)
    if small.size:
        raise SingularMatrix(
            f"eigenvalues {(small + 1).tolist()} are below the condition tolerance "
            f"{DEFAULT_COND_TOL:g} relative to max|lambda|; matrix treated as singular"
        )
    return eig.vectors @ ((eig.vectors.T @ b) / eig.lambdas)
