"""Core least-squares and leave-one-out tests.

The three-point system with states (-4, 0, 2) and responses (-4, 4, 1) is the
worked reference: the full fit is y = 1 + x, the middle point's self-excluded
prediction is -2/3, and its leverage values are (13/14, 5/14, 5/7).
"""

import ctypes
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from lsmc import regression
from lsmc.contracts import basis_family, design_matrix
from lsmc.engine import payout_matrix
from lsmc.harness import default_config
from lsmc.market import generate_paths
from lsmc.regression import (
    _householder,
    _k_major,
    factor_stack,
    fit_leading,
    loo_fallback_mask,
    loo_predictions,
)

THREE_POINT_X = np.array([[1.0, -4.0], [1.0, 0.0], [1.0, 2.0]])
THREE_POINT_Y = np.array([-4.0, 4.0, 1.0])


def fit_stack(x, y):
    """factor_stack, then fit_leading on every column: x (S, N, M), y (S, N, k)."""
    return fit_leading(factor_stack(x), y, x.shape[-1])


def fit_one(x, y):
    """fit_stack of one system x (N, M) with y (N,) or (N, k), as one set."""
    return fit_stack(x[None], np.reshape(y, (1, len(y), -1)))


def random_system(rng, n=None, m=None):
    m = m if m is not None else int(rng.integers(1, 7))
    n = n if n is not None else int(rng.integers(m + 2, 201))
    x = np.column_stack([np.ones(n), rng.standard_normal((n, m - 1))]) if m > 1 else np.ones((n, 1))
    y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    return x, y


def brute_force_loo(x, y):
    """Refit with each row deleted and predict at that row; the frozen oracle."""
    n = x.shape[0]
    out = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        beta, *_ = np.linalg.lstsq(x[keep], y[keep], rcond=None)
        out[i] = x[i] @ beta
    return out


class TestFitLeastSquares:
    """Least-squares fits through factor_stack and fit_leading, the one fit API."""

    def test_intercept_only(self):
        y = np.array([3.0, -1.0, 4.0, 0.0])
        fit = fit_one(np.ones((4, 1)), y)
        assert fit.beta[0, :, 0] == pytest.approx([y.mean()])
        assert fit.leverage[0] == pytest.approx(np.full(4, 0.25))
        assert fit.rank[0] == 1

    def test_three_point_line(self):
        fit = fit_one(THREE_POINT_X, THREE_POINT_Y)
        assert fit.beta[0, :, 0] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert fit.fitted[0, :, 0] == pytest.approx([-3.0, 1.0, 3.0], abs=1e-12)
        assert fit.leverage[0] == pytest.approx([13 / 14, 5 / 14, 5 / 7], abs=1e-12)
        assert fit.rank[0] == 2

    def test_interpolating_square_system(self):
        rng = np.random.default_rng(7)
        x = np.column_stack([np.ones(3), rng.standard_normal((3, 2))])
        y = rng.standard_normal(3)
        fit = fit_one(x, y)
        assert fit.fitted[0, :, 0] == pytest.approx(y, abs=1e-10)
        assert fit.residuals[0, :, 0] == pytest.approx(np.zeros(3), abs=1e-10)
        assert fit.leverage[0] == pytest.approx(np.ones(3), abs=1e-10)

    def test_rank_deficiency_detected_and_projection_unchanged(self):
        rng = np.random.default_rng(11)
        x, y = random_system(rng, n=60, m=4)
        x_dup = np.column_stack([x, x[:, 1] - 2.0 * x[:, 2]])
        fit, fit_dup = fit_one(x, y), fit_one(x_dup, y)
        assert fit_dup.rank[0] == 4
        assert fit_dup.fitted == pytest.approx(fit.fitted, abs=1e-9)
        assert fit_dup.leverage == pytest.approx(fit.leverage, abs=1e-9)

    def test_wildly_scaled_columns_avoid_rank_collapse(self):
        # raw price monomials span ~20 orders of magnitude at degree 10; the
        # rank rule applied without equilibration would keep ~5 directions
        rng = np.random.default_rng(3)
        s = rng.uniform(80.0, 120.0, size=500)
        x = np.column_stack([s**k for k in range(11)])
        sv = np.linalg.svd(x, compute_uv=False)
        raw_rank = int((sv > max(x.shape) * np.finfo(float).eps * sv[0]).sum())
        fit = fit_one(x, rng.standard_normal(500))
        assert raw_rank <= 5
        assert fit.rank[0] >= 10
        assert abs(fit.leverage.sum() - fit.rank[0]) < 1e-8

    def test_response_block_matches_per_column_fits(self):
        # the backward pass fits both estimators' value vectors at once; each
        # column must be bit-equal to its own fit or prices would drift
        rng = np.random.default_rng(23)
        s = rng.uniform(80.0, 120.0, size=300)
        wild = np.column_stack([s**k for k in range(8)])
        for x, y in ((wild, rng.standard_normal(300)), random_system(rng, n=150, m=5)):
            block = np.column_stack([y, y**2])
            fit = fit_one(x, block)
            assert fit.fitted.shape == (1, *block.shape) and fit.beta.shape == (1, x.shape[1], 2)
            for j in range(2):
                alone = fit_one(x, block[:, j].copy())
                np.testing.assert_array_equal(fit.fitted[..., j], alone.fitted[..., 0])
                np.testing.assert_array_equal(fit.residuals[..., j], alone.residuals[..., 0])
                np.testing.assert_array_equal(fit.beta[..., j], alone.beta[..., 0])
                np.testing.assert_array_equal(fit.leverage, alone.leverage)
                np.testing.assert_array_equal(
                    loo_predictions(fit)[..., j], loo_predictions(alone)[..., 0]
                )

    def test_stacked_fit_is_independent_of_memory_layout(self):
        # the backward pass hands the fit C-ordered designs and a response
        # block stored column by column; no layout may move a bit
        rng = np.random.default_rng(5)
        s = rng.uniform(80.0, 120.0, size=(3, 200, 1))
        x = np.concatenate([s**k for k in range(6)], axis=-1)
        x[1, :, 3] = 2.0 * x[1, :, 2]  # one rank-deficient set among full-rank ones
        y = rng.standard_normal((3, 200, 2))
        fortran = np.empty((3, 6, 200)).transpose(0, 2, 1)
        fortran[...] = x
        wide = np.zeros((3, 400, 9))
        wide[:, ::2, 1:7] = x
        k_major = np.empty((3, 2, 200)).transpose(0, 2, 1)
        k_major[...] = y
        reference = fit_stack(x, y)
        assert list(reference.rank) == [6, 5, 6]
        for xs in (x, fortran, wide[:, ::2, 1:7]):
            for ys in (y, k_major):
                fit = fit_stack(xs, ys)
                for name in ("beta", "fitted", "residuals", "leverage", "rank"):
                    assert getattr(fit, name).tobytes() == getattr(reference, name).tobytes()

    def test_rejects_nonfinite_with_location(self):
        x = THREE_POINT_X.copy()
        x[1, 1] = np.nan
        with pytest.raises(ValueError, match="row 1, column 1"):
            fit_one(x, THREE_POINT_Y)
        with pytest.raises(ValueError, match="response at row 2"):
            fit_one(THREE_POINT_X, np.array([0.0, 1.0, np.inf]))

    @pytest.mark.parametrize("bad, row, col", [(np.nan, 17, 3), (np.inf, 0, 5), (-np.inf, 199, 0)])
    def test_stacked_nonfinite_names_its_set(self, bad, row, col):
        # the design is searched only when a column norm is non-finite, and a
        # non-finite entry always makes its column's norm non-finite
        rng = np.random.default_rng(9)
        x = rng.uniform(0.5, 2.0, size=(4, 200, 6))
        x[2, row, col] = bad
        with pytest.raises(ValueError, match=f"row {row}, column {col} of set 2$"):
            fit_stack(x, rng.standard_normal((4, 200, 1)))


def equilibrated(x):
    """Unit-norm columns, each matrix Fortran-ordered: what the fit factorizes."""
    norms = np.linalg.norm(x, axis=-2)
    return np.divide(x, np.where(norms > 0.0, norms, 1.0)[:, None, :],
                     out=_k_major(*x.shape))


def contract_designs(case, n, date=1):
    """Design matrices at the largest basis of each contract, on its desk model."""
    config = default_config(case)
    key = config.keys[len(config.keys) // 2]
    paths = generate_paths(config.model_for_key(key), config.schedule(), n, seed=41)
    z = payout_matrix(paths, config.payoff_for_key(key))
    m = max(config.m_list)
    return design_matrix(basis_family(case, m), paths.values[:, date, :], z[:, date])


def thin_svd(x):
    """The thin SVD of the column-equilibrated (S, N, M) stack x from
    factor_stack's fields: the SVD U_R S V^T of R, then U = Q[..., :k] @ U_R."""
    factor = factor_stack(x)
    ur, s, vt = np.linalg.svd(factor.r, full_matrices=False)
    return factor.q[..., :ur.shape[-1]] @ ur, s, vt


class TestThinSvd:
    """The fit's thin SVD against np.linalg.svd(a, full_matrices=False), whose
    factorization it replaces."""

    def tall_stack(self):
        # the three contracts' designs at 400 rows, cut to a common width of
        # 6 columns; one set has an all-zero column (a tau = 0 reflector) and
        # one is rank deficient among full-rank ones
        designs = [contract_designs(case, 400)[:, :6]
                   for case in ("put_single", "bestof_call", "basket_call")]
        x = np.stack(designs + [designs[0].copy()])
        x[1, :, 4] = 0.0
        x[3, :, 5] = 2.0 * x[3, :, 2] - x[3, :, 3]
        return x

    def test_tall_agrees_with_numpy_svd(self):
        # the fit reads s, U diag(s) V^T and the rank-r projector U_r U_r^T;
        # the QR is not the one gesdd runs, so singular vectors alone can
        # differ beyond rounding (a rank-deficient set's null space, the
        # ill-conditioned put design), but the projector moves only by
        # rounding times the condition number
        eps = np.finfo(float).eps
        for x in [self.tall_stack()] + [contract_designs(c, 600)[None] for c in
                                        ("put_single", "bestof_call", "basket_call")]:
            a = equilibrated(x)
            u0, s0, _ = np.linalg.svd(a, full_matrices=False)
            u, s, vt = thin_svd(x)
            assert a.shape[1] >= 11 * a.shape[2] // 6
            assert np.abs(s - s0).max() < 1e-14
            assert np.abs((u * s[:, None, :]) @ vt - a).max() < 1e-13
            gram = u.transpose(0, 2, 1) @ u
            assert np.abs(gram - np.eye(u.shape[-1])).max() < 1e-14
            r = np.count_nonzero(s0 > max(a.shape[1:]) * eps * s0[:, :1], axis=-1)
            for t in range(len(a)):
                cond = s0[t, 0] / s0[t, r[t] - 1]
                p, p0 = u[t, :, :r[t]], u0[t, :, :r[t]]
                assert np.abs(p @ p.T - p0 @ p0.T).max() < 1e3 * eps * cond

    def test_rank_deficient_sets_keep_their_rank(self):
        x = self.tall_stack()
        s = thin_svd(x)[1]
        tol = max(x.shape[1:]) * np.finfo(float).eps * s[:, :1]
        assert list(np.count_nonzero(s > tol, axis=-1)) == [6, 5, 6, 5]

    @pytest.mark.parametrize("n, m", [(7, 12), (12, 12), (16, 12), (21, 12)])
    def test_wide_and_near_square_agree_to_rounding(self, n, m):
        # below 11 m / 6 rows LAPACK bidiagonalizes the matrix itself, so the
        # factors agree to rounding only (and singular vectors up to sign)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2, n, m)) * rng.uniform(0.01, 100.0, m)
        x[1, :, 3] = 0.0
        a = equilibrated(x)
        u0, s0, _ = np.linalg.svd(a, full_matrices=False)
        u, s, vt = thin_svd(x)
        k = min(n, m)
        assert n < 11 * m // 6 and u.shape == (2, n, k) and vt.shape == (2, k, m)
        assert np.abs(s - s0).max() < 1e-14
        assert np.abs((u * s[:, None, :]) @ vt - a).max() < 1e-13
        assert np.abs(u.transpose(0, 2, 1) @ u - np.eye(k)).max() < 1e-14
        r = np.count_nonzero(s0 > max(n, m) * np.finfo(float).eps * s0[:, :1], axis=-1)
        for t in range(2):
            p, p0 = u[t, :, :r[t]], u0[t, :, :r[t]]
            assert np.abs(p @ p.T - p0 @ p0.T).max() < 1e-13

    def test_householder_is_a_compact_wy_factor(self):
        # Q = I - V T V^T with T upper triangular and V unit lower
        # trapezoidal, and Q[:, :k] R is the matrix that was factored
        rng = np.random.default_rng(29)
        stacks = [self.tall_stack(), rng.standard_normal((2, 7, 12)),
                  rng.standard_normal((1, 1, 3)), rng.standard_normal((2, 5, 1))]
        stacks += [contract_designs(c, 300)[None] for c in
                   ("put_single", "bestof_call", "basket_call")]
        for x in stacks:
            a = equilibrated(x)
            r, v, t = _householder(equilibrated(x))
            n, k = v.shape[1:]
            assert not np.tril(t, -1).any()
            assert (np.triu(v[:, :k], 1) == 0).all() and (v[:, range(k), range(k)] == 1).all()
            q = np.eye(n) - v @ t @ v.transpose(0, 2, 1)
            assert np.abs(q.transpose(0, 2, 1) @ q - np.eye(n)).max() < 1e-14
            assert np.abs(q[..., :k] @ r - a).max() < 1e-13

    def test_q_has_orthonormal_columns_and_factors_the_stack(self):
        # the fit reads Q directly: Q^T Q = I and Q R is the equilibrated stack
        rng = np.random.default_rng(31)
        stacks = [self.tall_stack(), rng.standard_normal((2, 7, 12)),
                  rng.standard_normal((1, 1, 3)), rng.standard_normal((2, 5, 1))]
        stacks += [contract_designs(c, 300)[None] for c in
                   ("put_single", "bestof_call", "basket_call")]
        for x in stacks:
            factor = factor_stack(x)
            q, k = factor.q, min(x.shape[1:])
            assert q.shape == (*x.shape[:2], k) and q.transpose(0, 2, 1).flags.c_contiguous
            assert np.abs(q.transpose(0, 2, 1) @ q - np.eye(k)).max() < 1e-14
            assert np.abs(q @ factor.r - equilibrated(x)).max() < 1e-13

    def test_stacked_call_equals_per_matrix_calls(self):
        x = self.tall_stack()
        stacked = thin_svd(x)
        for t in range(x.shape[0]):
            alone = thin_svd(x[t:t + 1])
            for got, want in zip(stacked, alone):
                assert got[t].tobytes() == want[0].tobytes()


class TestHouseholderCall:
    """_householder calls LAPACK's dgeqrt through its C pointer, without the
    interpreter lock; the numbers are those of scipy's f2py wrapper."""

    @pytest.mark.parametrize("shape", [(1, 40000, 16), (12, 1200, 16), (3, 16, 16),
                                       (2, 5, 9), (4, 300, 4)])
    def test_bytes_equal_scipy_wrapper(self, shape):
        rng = np.random.default_rng(shape[1])
        x = rng.standard_normal(shape) * rng.uniform(0.01, 100.0, shape[-1])
        r, v, t = _householder(equilibrated(x))
        assert t.flags.c_contiguous
        k = min(shape[1:])
        for j, a in enumerate(equilibrated(x)):
            a, t_j, info = lapack.dgeqrt(k, a, overwrite_a=True)
            assert info == 0
            v_j = np.tril(a[:, :k], -1)
            v_j[range(k), range(k)] = 1.0
            assert r[j].tobytes() == np.triu(a[:k]).tobytes()
            assert np.ascontiguousarray(v[j]).tobytes() == v_j.tobytes()
            assert t[j].tobytes() == np.triu(t_j).tobytes()

    def test_threads_factor_as_one_thread_does(self):
        # shapes differ, so sizes or work space shared between calls would show
        rng = np.random.default_rng(41)
        stacks = [rng.standard_normal(shape) * rng.uniform(0.01, 100.0, shape[-1])
                  for shape in [(40, 2000, 16), (40, 1500, 12), (40, 9, 14), (40, 3000, 8)]]
        serial = [factor_stack(x) for x in stacks]
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(factor_stack, stacks))
        for got, want in zip(threaded, serial):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_call_releases_the_interpreter_lock(self):
        assert regression._dgeqrt._flags_ & ctypes._FUNCFLAG_PYTHONAPI == 0

    def test_refuses_what_lapack_would_misread(self):
        x = np.random.default_rng(5).standard_normal((3, 40, 6))
        read_only = equilibrated(x)
        read_only.flags.writeable = False
        for bad in (np.ascontiguousarray(x), equilibrated(x).astype(np.float32), read_only,
                    equilibrated(x)[:, ::2]):
            with pytest.raises(ValueError, match="Fortran-ordered"):
                _householder(bad)

    def test_lapack_failure_is_raised(self, monkeypatch):
        def failing(*args):
            ctypes.c_int.from_address(args[-1]).value = -4

        monkeypatch.setattr(regression, "_dgeqrt", failing)
        with pytest.raises(RuntimeError, match="info -4"):
            _householder(equilibrated(np.ones((2, 5, 3))))


class TestLeadingColumnFits:
    """factor_stack, then fit_leading on the leading m columns: how experiment
    2 fits every nested basis from one factorization of the widest design."""

    FIELDS = ("beta", "fitted", "residuals", "leverage", "rank")

    def mixed_stack(self, case):
        # the contract's widest design on two dates, and a third set with a
        # zero column and a duplicated one inside every prefix
        x = np.stack([contract_designs(case, 1200, date) for date in (1, 2, 1)])
        x[2, :, 2] = 0.0
        x[2, :, 3] = 2.0 * x[2, :, 1]
        return x, np.random.default_rng(17).standard_normal((3, 1200, 2))

    @pytest.mark.parametrize("case", ["put_single", "bestof_call", "basket_call"])
    def test_full_width_is_the_stacked_fit(self, case):
        x, y = self.mixed_stack(case)
        # each set of the stack is fitted bit for bit as if it were alone
        fit = fit_stack(x, y)
        assert list(fit.rank) == [x.shape[-1]] * 2 + [x.shape[-1] - 2]
        for t in range(3):
            alone = fit_stack(x[t:t + 1], y[t:t + 1])
            for name in self.FIELDS:
                assert getattr(fit, name)[t].tobytes() == getattr(alone, name)[0].tobytes()

    @pytest.mark.parametrize("case, m_list", [
        ("put_single", (4, 8, 12)), ("bestof_call", (4, 7, 11)), ("basket_call", (6, 10, 16)),
    ])
    def test_leading_columns_match_their_own_fit(self, case, m_list):
        # the prefix factorization agrees with factoring the prefix alone to
        # rounding, which least-squares perturbation theory scales by the
        # condition number (fitted values, leverage) and its square (beta)
        assert default_config(case, 2).m_list == m_list
        x, y = self.mixed_stack(case)
        factor = factor_stack(x)
        eps = np.finfo(float).eps
        for m in m_list:
            fit, alone = fit_leading(factor, y, m), fit_stack(x[..., :m], y)
            assert list(alone.rank) == [m, m, m - 2]
            assert fit.rank.tobytes() == alone.rank.tobytes()
            s = np.linalg.svd(equilibrated(x[..., :m]), compute_uv=False)
            cond = s[:, 0] / s[range(3), alone.rank - 1]
            scale = np.linalg.norm(x[..., :m], axis=-2)[..., None]
            for t in range(3):
                assert np.abs(fit.fitted[t] - alone.fitted[t]).max() < 1e3 * eps * cond[t]
                assert np.abs(fit.leverage[t] - alone.leverage[t]).max() < 1e3 * eps * cond[t]
                beta_error = np.abs((fit.beta[t] - alone.beta[t]) * scale[t]).max()
                assert beta_error < 1e2 * eps * cond[t] ** 2

    @pytest.mark.parametrize("case", ["put_single", "bestof_call", "basket_call"])
    def test_full_rank_sets_agree_with_the_svd_route(self, case):
        # a full-rank set is fitted through Q_m and R[:m, :m]; the SVD of its
        # equilibrated leading columns, built here, projects the same way to
        # rounding scaled by the condition number (beta by its square)
        x, y = self.mixed_stack(case)
        factor = factor_stack(x)
        eps = np.finfo(float).eps
        for m in default_config(case, 2).m_list:
            fit = fit_leading(factor, y, m)
            for t in range(2):
                assert fit.rank[t] == m
                a = equilibrated(x[t:t + 1, :, :m])[0]
                u, s, vt = np.linalg.svd(a, full_matrices=False)
                uy = u.T @ y[t]
                cond = s[0] / s[-1]
                scale = np.linalg.norm(x[t, :, :m], axis=0)[:, None]
                beta = vt.T @ (uy / s[:, None]) / scale
                assert np.abs(fit.fitted[t] - u @ uy).max() < 1e3 * eps * cond
                assert np.abs(fit.leverage[t] - (u * u).sum(axis=1)).max() < 1e3 * eps * cond
                assert np.abs((fit.beta[t] - beta) * scale).max() < 1e2 * eps * cond**2

    def test_rejects_columns_it_has_not_factored(self):
        x, y = self.mixed_stack("put_single")
        factor = factor_stack(x)
        for m in (0, x.shape[-1] + 1):
            with pytest.raises(ValueError, match="leading columns"):
                fit_leading(factor, y, m)


class TestLeaveOneOut:
    def test_three_point_loo_prediction(self):
        fit = fit_one(THREE_POINT_X, THREE_POINT_Y)
        loo = loo_predictions(fit)[0, :, 0]
        assert loo[1] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert loo == pytest.approx([10.0, -2.0 / 3.0, 8.0], abs=1e-12)

    def test_three_point_loo_residual(self):
        fit = fit_one(THREE_POINT_X, THREE_POINT_Y)
        loo_error = THREE_POINT_Y - loo_predictions(fit)[0, :, 0]
        assert loo_error[1] == pytest.approx(14.0 / 3.0, abs=1e-12)

    def test_zero_residuals_mean_no_correction(self):
        x = THREE_POINT_X
        y = 2.0 + 0.5 * x[:, 1]
        fit = fit_one(x, y)
        assert loo_predictions(fit) == pytest.approx(fit.fitted, abs=1e-12)

    def test_zero_leverage_row_keeps_residual(self):
        fit = fit_one(THREE_POINT_X, THREE_POINT_Y)
        hacked = type(fit)(
            beta=fit.beta,
            fitted=fit.fitted,
            residuals=fit.residuals,
            leverage=np.array([[0.0, 0.5, 0.5]]),
            rank=fit.rank,
        )
        assert THREE_POINT_Y[0] - loo_predictions(hacked)[0, 0, 0] == fit.residuals[0, 0, 0]

    def test_matches_brute_force_refits(self):
        rng = np.random.default_rng(42)
        x, y = random_system(rng, n=50, m=3)
        fit = fit_one(x, y)
        loo = loo_predictions(fit)[0, :, 0]
        assert np.allclose(loo, brute_force_loo(x, y), rtol=1e-9, atol=1e-9)

    def test_leverage_one_falls_back_with_warning(self):
        # an interpolating fit has h = 1 everywhere
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(2), rng.standard_normal(2)])
        y = rng.standard_normal(2)
        fit = fit_one(x, y)
        assert loo_fallback_mask(fit).all()
        with pytest.warns(RuntimeWarning, match="leverage"):
            loo = loo_predictions(fit)
        assert loo == pytest.approx(fit.fitted)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_leverage_and_identities(seed):
    rng = np.random.default_rng(seed)
    x, y = random_system(rng)
    fit = fit_one(x, y)
    leverage, fitted, residuals = fit.leverage[0], fit.fitted[0, :, 0], fit.residuals[0, :, 0]

    assert (leverage >= 0.0).all() and (leverage <= 1.0).all()
    assert abs(leverage.sum() - fit.rank[0]) < 1e-8
    np.testing.assert_allclose(fitted + residuals, y, rtol=1e-13, atol=1e-13)

    loo = loo_predictions(fit)[0, :, 0]
    # fitted value is the leverage-weighted average of LOO prediction and observation
    assert np.allclose(fitted, (1.0 - leverage) * loo + leverage * y, rtol=1e-10, atol=1e-10)
    # self-exclusion can only grow the error
    assert (np.abs(y - loo) >= np.abs(residuals) - 1e-12).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 100.0))
def test_scaling_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    x, y = random_system(rng)
    fit, fit_scaled = fit_one(x, y), fit_one(x, scale * y)
    assert np.allclose(fit_scaled.fitted, scale * fit.fitted, rtol=1e-9, atol=1e-12)
    assert np.allclose(fit_scaled.leverage, fit.leverage, rtol=0, atol=1e-12)
    assert np.allclose(
        loo_predictions(fit_scaled), scale * loo_predictions(fit), rtol=1e-9, atol=1e-12
    )


def test_leverage_is_fitted_value_derivative():
    rng = np.random.default_rng(17)
    x, y = random_system(rng, n=80, m=4)
    fit = fit_one(x, y)
    delta = 1e-6
    for n in (0, 17, 79):
        bumped = y.copy()
        bumped[n] += delta
        slope = (fit_one(x, bumped).fitted[0, n, 0] - fit.fitted[0, n, 0]) / delta
        assert slope == pytest.approx(fit.leverage[0, n], abs=1e-5)
