"""Linear least squares with leverage scores and closed-form leave-one-out predictions.

The solver is column-equilibrated: each column of the design matrix is scaled
to unit Euclidean norm before factorization, which leaves the column space
(and hence fitted values, residuals and leverage) unchanged while making the
numerical-rank decision meaningful for raw polynomial regressors whose
columns span many orders of magnitude.  The norms are summed over the
contiguous columns of the copy that is factorized.  Leverage is computed
row-wise from an orthonormal factor, never by forming the N x N projector.

The factorization is Householder QR: LAPACK's dgeqrt, which returns the
reflectors together with their compact WY factor T (Schreiber & Van Loan,
1989), from which the orthonormal factor Q is formed once by matrix products.
dgeqrt runs without the interpreter lock, so pool threads factor their sets
in parallel.  The first m columns of Q span the first m columns of the
matrix (Golub & Van Loan, Matrix Computations, 5.2), so one QR of a wide
design (factor_stack) serves fits on any of its leading columns
(fit_leading).  The rank is read from the singular values of the leading
block of R; a set of full rank is fitted through Q and R, a rank-deficient
one through the SVD of that block.  The pair is the only fit API, called
alike by the engine and the tests (the reference backward loop among them),
on an (S, N, M) design stack with an (S, N, k) response.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cython_lapack

# 1 - h below this threshold is treated as a leverage-one singularity: the
# leave-one-out prediction falls back to the full-fit value for that row.
LEVERAGE_EPS = 1e-10

# LAPACK's dgeqrt(m, n, nb, a, lda, t, ldt, work, info), all pointers, from the
# capsule scipy exports for Cython; a CFUNCTYPE call drops the interpreter lock
_api, _object = ctypes.pythonapi, ctypes.py_object
_capsule = cython_lapack.__pyx_capi__["dgeqrt"]
_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, _object)(("PyCapsule_GetName", _api))(_capsule)
_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, _object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", _api))(_capsule, _name)
_dgeqrt = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 9)(_pointer)


def _first_nonfinite(a: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Independent least-squares fits of a stack of S sets, each with k response columns.

    beta      coefficients (S, M, k)
    fitted    projection of the response onto the column space (C = H y), (S, N, k)
    residuals y - fitted
    leverage  diagonal of each projector H, clipped to [0, 1], (S, N), for every column
    rank      numerical rank of each design matrix, (S,)
    """

    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    leverage: np.ndarray
    rank: np.ndarray


def _k_major(n_sets: int, n: int, k: int) -> np.ndarray:
    """Empty (n_sets, n, k) array stored as (n_sets, k, n): each of the k
    columns of a matrix is contiguous."""
    return np.empty((n_sets, k, n)).transpose(0, 2, 1)


class StackFactorization(NamedTuple):
    """Householder QR of each column-equilibrated matrix of an (S, N, M) stack:
    the column norms (S, M), a zero column's read as 1; R (S, K, M) with
    K = min(N, M); and the orthonormal factor Q (S, N, K), each column stored
    contiguously, with Q R the equilibrated stack.  The first i columns of Q
    and R[:i, :i] depend only on the first i columns of the matrix, so the
    leading k = min(N, m) columns of Q and R[:k, :m] factor the leading m
    columns, to rounding of factoring those columns alone.
    """

    norms: np.ndarray
    r: np.ndarray
    q: np.ndarray


def _householder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R, V and T of an (S, N, M) stack of Fortran-ordered float64 matrices;
    V is a view of a, which is overwritten.  Each set is one call of LAPACK's
    dgeqrt with block size K = min(N, M): the recursive QR of Elmroth and
    Gustavson (2000), which returns T with the reflectors.  Any other stack,
    which LAPACK would misread, is a ValueError."""
    n_sets, n, m = a.shape
    if a.dtype != np.float64 or not a.flags.writeable or a.strides[1:] != (8, 8 * n):
        raise ValueError("can only factor a writeable float64 stack of Fortran-ordered matrices")
    k = min(n, m)
    t = np.empty((n_sets, k, k))
    work = np.empty(k * m)
    ints = np.array([n, m, k, n, k, 0], dtype=np.intc)
    at = ints.ctypes.data
    rows, cols, nb, lda, ldt, info = range(at, at + ints.nbytes, ints.itemsize)
    a_0, t_0, w = a.ctypes.data, t.ctypes.data, work.ctypes.data
    for j in range(n_sets):
        _dgeqrt(rows, cols, nb, a_0 + j * a.strides[0], lda, t_0 + j * t.strides[0], ldt, w, info)
        if ints[5]:
            raise RuntimeError(f"LAPACK dgeqrt failed on set {j} with info {ints[5]}")
    r = np.triu(a[:, :k, :])
    # a becomes V: the reflectors below the diagonal, ones on it, zeros above
    v = a[:, :, :k]
    top = v[:, :k, :]
    top[...] = np.tril(top, -1) + np.eye(k)
    # LAPACK writes each T column-major and leaves its strict lower triangle undefined
    return r, v, np.triu(t.transpose(0, 2, 1))


def factor_stack(X: np.ndarray) -> StackFactorization:
    """Check an (S, N, M) design stack, equilibrate its columns and factor it.

    Raises ValueError on an empty or non-finite stack, naming the offending entry.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"design stack must be 3-d, got shape {X.shape}")
    n_sets, n, m = X.shape
    if n_sets < 1 or n < 1 or m < 1:
        raise ValueError(f"design matrix must be non-empty, got shape {X.shape[1:]}")

    # The copy is Fortran-ordered per matrix, the layout LAPACK factors in
    # place, and the norms come from its contiguous columns whatever X's
    # layout.  A non-finite entry makes its norm non-finite: only then search X.
    columns = np.array(X.transpose(0, 2, 1), order="C")
    norms = np.sqrt(np.einsum("smn,smn->sm", columns, columns))
    if not np.isfinite(norms).all() and not np.isfinite(X).all():
        t, i, j = _first_nonfinite(X)
        in_set = "" if n_sets == 1 else f" of set {t}"
        raise ValueError(f"non-finite design entry at row {i}, column {j}" + in_set)
    norms = np.where(norms > 0.0, norms, 1.0)
    columns /= norms[..., None]
    r, v, t = _householder(columns.transpose(0, 2, 1))
    # Q = [I; 0] - V (T V_top^T), formed as its transpose so each column is contiguous
    k = v.shape[-1]
    qt = -(v[:, :k, :] @ t.transpose(0, 2, 1)) @ v.transpose(0, 2, 1)
    qt[:, :, :k] += np.eye(k)
    return StackFactorization(norms, r, qt.transpose(0, 2, 1))


def fit_leading(factor: StackFactorization, y: np.ndarray, m: int) -> RegressionFit:
    """Fits of y (S, N, k) on the leading m columns of the factored stack.

    Singular values of the column-equilibrated matrix, read from R[:k, :m],
    below max(N, m) * eps * sigma_max are treated as zero.  A set of full
    rank m is fitted through the first m columns of Q: fitted values
    Q_m Q_m^T y, beta from R[:m, :m] beta = Q_m^T y and leverage the row sums
    of Q_m squared.  A rank-deficient set (e.g. a payoff column that is an
    exact linear combination of price columns) drops the directions below the
    threshold: it is fitted through U = Q_k U_R from the SVD U_R S V^T of
    R[:k, :m], and beta is the residual minimizer with the smallest norm in
    the column-equilibrated basis.  Sets are projected in groups of equal
    rank, so a rank-deficient set does not change the others, and each
    response column's fit is bit-identical to fitting that column alone.

    Raises ValueError on a non-finite response, naming the offending entry.
    """
    n_sets, n, _ = factor.q.shape
    if not 1 <= m <= factor.norms.shape[1]:
        raise ValueError(f"cannot fit {m} leading columns of {factor.norms.shape[1]}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 3 or y.shape[:2] != (n_sets, n):
        raise ValueError(f"response must have shape ({n_sets}, {n}, k), got {y.shape}")
    if not np.isfinite(y).all():
        t, i = _first_nonfinite(y)[:2]
        in_set = "" if n_sets == 1 else f" of set {t}"
        raise ValueError(f"non-finite response at row {i}" + in_set)
    k = min(n, m)
    lead = factor.r[:, :k, :m]
    s = np.linalg.svd(lead, compute_uv=False)
    norms = factor.norms[:, :m]
    tol = max(n, m) * np.finfo(float).eps * s[:, 0]
    rank = np.count_nonzero(s > tol[:, None], axis=-1)

    # The broadcast products run one matrix-vector product and the solve one
    # right-hand side per set and contiguous column: a gemm over the columns
    # would reorder the sums and move the last bits of every fit.
    cols = np.ascontiguousarray(np.moveaxis(y, -1, 1))[..., None]
    qt = factor.q.transpose(0, 2, 1)
    beta = np.empty((n_sets, m, cols.shape[1]))
    fitted = _k_major(n_sets, n, cols.shape[1])
    leverage = np.empty((n_sets, n))
    for r in np.unique(rank):
        # a boolean index copies the group, which keeps each matrix's strides
        sel = slice(None) if (rank == r).all() else rank == r
        if r == m:
            basis = qt[sel, :m]  # Q_m^T (s, m, N)
            c = basis[:, None] @ cols[sel]
            coef = np.linalg.solve(factor.r[sel, None, :m, :m], c)
        else:
            ur, sv, vt = np.linalg.svd(lead[sel], full_matrices=False)
            basis = ur[..., :r].transpose(0, 2, 1) @ qt[sel, :k]  # U_r^T (s, r, N)
            c = basis[:, None] @ cols[sel]
            coef = vt[:, None, :r].transpose(0, 1, 3, 2) @ (c / sv[:, None, :r, None])
        beta[sel] = coef[..., 0].transpose(0, 2, 1) / norms[sel][..., None]
        fitted.transpose(0, 2, 1)[sel] = (basis.transpose(0, 2, 1)[:, None] @ c)[..., 0]
        leverage[sel] = np.minimum(np.einsum("srn,srn->sn", basis, basis), 1.0)
    return RegressionFit(beta, fitted, y - fitted, leverage, rank)


def loo_fallback_mask(fit: RegressionFit) -> np.ndarray:
    """Rows whose leverage is within LEVERAGE_EPS of 1 (LOO prediction undefined)."""
    return (1.0 - fit.leverage) < LEVERAGE_EPS


def loo_predictions(fit: RegressionFit) -> np.ndarray:
    """Leave-one-out predictions C' = C - h e / (1 - h), elementwise.

    Each entry equals the prediction at row n of the regression refit without
    row n, one column per response column.  Rows with leverage numerically
    equal to 1 fall back to the full-fit value and raise a RuntimeWarning;
    callers interested in the count should inspect loo_fallback_mask.
    """
    fallback = loo_fallback_mask(fit)[..., None]
    h = fit.leverage[..., None]
    loo = fit.fitted - h * fit.residuals / np.where(fallback, 1.0, 1.0 - h)
    if fallback.any():
        loo = np.where(fallback, fit.fitted, loo)
        warnings.warn(
            f"{int(fallback.sum())} row(s) with leverage ~ 1 fell back to full-fit predictions",
            RuntimeWarning,
            stacklevel=2,
        )
    return loo

