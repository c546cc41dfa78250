"""Correlated multi-asset geometric Brownian motion on an exercise schedule.

Paths are simulated with the exact log-normal step, so no time-discretization
bias enters the estimators.  Normal draws come from a counter-based generator:
the draw for (path, date, asset) is a pure 64-bit hash of (seed, counter), so
any subset of paths can be regenerated in any order, on any number of workers,
with bit-identical results.  The paths of a set are stored date-major, one
contiguous (J, N) block per exercise date, the order in which the backward
pass reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; bijective avalanche mix of uint64 words."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _standard_normals(seed: int, counters: np.ndarray) -> np.ndarray:
    """Standard normals indexed by counter: Phi^{-1} of the keyed hash stream.

    Word c of stream `seed` is mix64(key + (c+1) * golden) with
    key = mix64(seed + golden), i.e. the SplitMix64 sequence evaluated at an
    arbitrary position.  The top 53 bits map to a uniform in (0, 1) which is
    sent through the inverse normal CDF (scipy's ndtri, accurate to machine
    precision, well inside the 1e-9 requirement).
    """
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        words = _mix64(key + (counters + np.uint64(1)) * _GOLDEN)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u, out=u)


@dataclass(frozen=True, eq=False)
class GbmModel:
    """Risk-neutral GBM parameters for J correlated assets.

    dS_j / S_j = (rate - dividend_j) dt + vol_j dW_j,
    dW_j dW_k = correlation[j, k] dt,
    with the correlation matrix checked by correlation_factor when it is built.
    """

    spot: np.ndarray
    rate: float
    dividend: np.ndarray
    vol: np.ndarray
    correlation: np.ndarray

    def __post_init__(self) -> None:
        spot = np.atleast_1d(np.asarray(self.spot, dtype=float))
        dividend = np.atleast_1d(np.asarray(self.dividend, dtype=float))
        vol = np.atleast_1d(np.asarray(self.vol, dtype=float))
        corr = np.atleast_2d(np.asarray(self.correlation, dtype=float))
        j = spot.shape[0]
        if dividend.shape != (j,) or vol.shape != (j,) or corr.shape != (j, j):
            raise ValueError("inconsistent parameter shapes for the asset count")
        if not (spot > 0.0).all():
            raise ValueError("spot prices must be strictly positive")
        if (vol < 0.0).any():
            raise ValueError("volatilities must be non-negative")
        correlation_factor(corr)
        object.__setattr__(self, "spot", spot)
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "dividend", dividend)
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "correlation", corr)

    @property
    def n_assets(self) -> int:
        return self.spot.shape[0]


@dataclass(frozen=True, eq=False)
class ExerciseSchedule:
    """Strictly increasing exercise times t_1 < ... < t_I = T, in years.

    Valuation time 0 is not an exercise time, so times[0] must be positive.
    """

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        if t.size < 1 or t[0] <= 0.0:
            raise ValueError("first exercise time must be strictly positive")
        if (np.diff(t) <= 0.0).any():
            raise ValueError("exercise times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def n_dates(self) -> int:
        return self.times.shape[0]

    @property
    def maturity(self) -> float:
        return float(self.times[-1])


def uniform_schedule(n_dates: int, maturity: float) -> ExerciseSchedule:
    return ExerciseSchedule(maturity * np.arange(1, n_dates + 1) / n_dates)


@dataclass(frozen=True, eq=False)
class PathSet:
    """N simulated state trajectories over the exercise schedule.

    values[n, i, j] is the price of asset j on path n at exercise date i.
    generate_paths stores it date-major and asset-major, as the transposed
    view of an (I, J, N) buffer, so each date's states are one contiguous
    block; no reader's bits depend on the layout.
    times and rate are carried along so pricing code can discount payoffs.
    """

    values: np.ndarray
    times: np.ndarray
    rate: float

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_dates(self) -> int:
        return self.values.shape[1]


def correlation_factor(correlation: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T equal to the correlation matrix.

    Near-singular matrices get a floored retry: chol(rho + (|lambda_min| + 1e-12) I).
    Matrices indefinite beyond an 1e-8 eigenvalue tolerance are rejected.
    """
    corr = np.atleast_2d(np.asarray(correlation, dtype=float))
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise ValueError("correlation matrix must have a unit diagonal")
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(corr)[0])
        if lam_min < -1e-8:
            raise ValueError(
                f"correlation matrix is not positive semidefinite (lambda_min={lam_min:.3e})"
            ) from None
        floor = abs(lam_min) + 1e-12
        return np.linalg.cholesky(corr + floor * np.eye(corr.shape[0]))


def generate_paths(
    model: GbmModel,
    schedule: ExerciseSchedule,
    n_paths: int,
    seed: int,
    antithetic: bool = True,
    offset: int = 0,
) -> PathSet:
    """Simulate n_paths exact GBM trajectories on the schedule.

    Each step applies
        S_j(t_{i+1}) = S_j(t_i) * exp((r - q_j - vol_j^2 / 2) dt + vol_j sqrt(dt) (L z)_j)
    with z drawn from the counter stream of `seed`.  With antithetic=True the
    paths (2k, 2k+1) share draws with opposite signs, so n_paths must be even.
    The result depends only on (model, schedule, n_paths, seed, antithetic,
    offset).  Paths offset .. offset + n_paths - 1 of a larger pool of the
    same stream come out bit for bit as that slice of the pool, so a pool
    can be generated one chunk at a time; an antithetic chunk must start on
    a pair, at an even offset.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if antithetic and n_paths % 2 != 0:
        raise ValueError("n_paths must be even for antithetic sampling")
    if offset < 0 or (antithetic and offset % 2 != 0):
        raise ValueError(f"offset {offset} is negative or splits an antithetic pair")

    n_dates, n_assets = schedule.n_dates, model.n_assets
    chol = correlation_factor(model.correlation)

    n_base, first = (n_paths // 2, offset // 2) if antithetic else (n_paths, offset)
    # base path p's draw for (date i, asset j) has counter p * I * J + i * J + j,
    # stored date-major and asset-major: (I, J, N_base)
    words = n_dates * n_assets
    counters = np.arange(first, first + n_base, dtype=np.uint64) * np.uint64(words)
    counters = counters + np.arange(words, dtype=np.uint64).reshape(n_dates, n_assets, 1)
    z = draws = _standard_normals(seed, counters)
    del counters
    if antithetic:
        z = np.empty((n_dates, n_assets, n_paths))
        z[..., 0::2] = draws
        np.negative(draws, out=z[..., 1::2])
    del draws

    dt = np.diff(np.concatenate([[0.0], schedule.times]))
    drift = (model.rate - model.dividend[None, :] - 0.5 * model.vol[None, :] ** 2) * dt[:, None]
    scale = model.vol[None, :] * np.sqrt(dt)[:, None]
    # one (J, J) @ (J, N) product per date, then every step in place, so at
    # most two path-sized arrays are alive at once
    values = chol @ z
    del z
    values *= scale[..., None]
    values += drift[..., None]
    for i in range(1, n_dates):  # np.cumsum over the dates, one (J, N) block at a time
        values[i] += values[i - 1]
    np.exp(values, out=values)
    values *= model.spot[:, None]
    return PathSet(values=values.transpose(2, 0, 1), times=schedule.times, rate=model.rate)
