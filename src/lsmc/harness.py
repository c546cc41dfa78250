"""Experiment orchestration: estimator comparisons, bias convergence, CSV reports.

Experiment 1 prices a grid of contracts with the classical, two-pass, and
leave-one-out estimators on shared valuation paths, n_mc independent times,
and reports price offsets against the reference table plus per-estimator
differences from the classical price.  Experiment 2 splits one path pool into
progressively smaller sets and measures look-ahead bias (classical minus
leave-one-out price) as a function of the regressors-to-paths ratio, ending
with a weighted straight-line fit.  Both experiments price through the
engine's stacks and read every estimator off a stepped stack as arrays, in
one place: _cells.  Each run is described by an lsmc.config.ExperimentConfig.

Seeds derive from the base seed by hashing the run coordinates, so every
simulation set has its own reproducible stream and no two runs collide.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from typing import NamedTuple

import numpy as np

# default_config is also read from here by callers that import only the harness
from .config import ExperimentConfig, default_config  # noqa: F401
from .contracts import BESTOF_CALL, PUT_SINGLE, basis_family
from .engine import (
    MODE_EUROPEAN,
    MODE_LOOLSM,
    MODE_LSM,
    MODE_LSM2,
    BackwardStack,
    ExercisePolicy,
    payout_matrix,
    spread,
    step_back,
    step_set,
)
from .errors import ConfigError
from .market import generate_paths
from .oracles import bestof2_european_call, bs_european_put, reference_price

_MASK64 = 0xFFFFFFFFFFFFFFFF

CSV_COLUMNS = (
    "case,key,estimator,M,N,n_mc,mean_offset,std,se_mean,"
    "mean_bias,bias_se,flips_total,min_rank,wall_ms"
)


def derive_seed(base_seed: int, *parts) -> int:
    """Deterministic 64-bit stream seed for one run coordinate.

    XORs the base seed with a stable hash of the coordinate parts, so distinct
    coordinates get distinct, reproducible streams without coordination.
    """
    tag = "|".join(str(p) for p in parts).encode()
    h = int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "little")
    return (base_seed ^ h) & _MASK64


@dataclass(frozen=True)
class ReportRow:
    """One (configuration, estimator) cell of an experiment report.

    mean_bias holds the estimator-minus-classical price difference in
    experiment 1 and the classical-minus-leave-one-out look-ahead bias in
    experiment 2; it is NaN where undefined (European rows, the classical
    estimator's own row in experiment 1, single-set runs).
    """

    case: str
    key: float
    estimator: str
    m: int
    n_paths: int
    n_mc: int
    mean_offset: float
    std: float
    se_mean: float
    mean_bias: float
    bias_se: float
    flips_total: int
    min_rank: int
    wall_ms: float


@dataclass(frozen=True)
class SlopeFit:
    """Weighted straight-line fit of mean bias against M/N.

    Parameter errors follow the polyfit convention: the covariance from the
    supplied weights is scaled by the reduced chi-square of the fit.
    """

    slope: float
    intercept: float
    r2: float
    slope_se: float
    intercept_se: float
    n_points: int


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)
    slope: SlopeFit | None = None

    def fingerprint(self) -> bytes:
        """CSV bytes with wall-clock timings zeroed; equal for identical runs."""
        return csv_text(self, zero_wall=True).encode()


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not math.isfinite(v):
        return ""
    return f"{v:.10g}"


def csv_text(report: ExperimentReport, zero_wall: bool = False) -> str:
    """CSV_COLUMNS, then each row's ReportRow fields, in order."""
    lines = [CSV_COLUMNS]
    for row in report.rows:
        if zero_wall:
            row = replace(row, wall_ms=0.0)
        lines.append(",".join(_fmt(v) for v in astuple(row)))
    return "\n".join(lines) + "\n"


def emit_csv(report: ExperimentReport, path: str) -> None:
    """Write the report rows as UTF-8 CSV, one record per configuration cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(csv_text(report))


def _map_sets(worker, n_sets: int, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(n_sets)))
    return [worker(k) for k in range(n_sets)]


def _references(config: ExperimentConfig, key: float) -> tuple[float, float, float | None]:
    """The Bermudan and European reference prices of a grid key and, when the
    config applies the control variate, the exact European price it shifts
    by, else None.

    The reference table prices each case's shipped model only.  Another
    model has no Bermudan reference (NaN) and a European one only where a
    closed form exists: Black-Scholes for the put, the max-of-two formula for
    the best-of, none (NaN) for the basket.  A key off the table of a shipped
    model, or a control variate with no exact European price, is a
    ConfigError.
    """
    spot, strike = config.spot_and_strike(key)
    bermudan = european = math.nan
    if config.has_shipped_model():
        try:
            ref = reference_price(config.case, key)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        bermudan, european = ref.bermudan, ref.european
    # the basket's European price is exact only in the table
    exact, missing = european, f"{config.case} has one only for its shipped model"
    try:
        if config.case == PUT_SINGLE:
            exact = bs_european_put(
                spot, config.vol, config.rate, config.dividend, strike, config.maturity
            )
        elif config.case == BESTOF_CALL:
            exact = bestof2_european_call(config.model_for_key(key), strike, config.maturity)
    except ValueError as exc:
        exact, missing = math.nan, str(exc)
    if math.isnan(european):
        european = exact
    if not config.control_variate:
        return bermudan, european, None
    if math.isnan(exact):
        raise ConfigError(f"no exact European price for the control variate: {missing}")
    return bermudan, european, exact


class _Cell(NamedTuple):
    """Results under one estimator without per-path arrays, read off one stack:
    price is the (n_sets,) array of its sets' prices."""

    price: np.ndarray
    flips: int
    min_rank: int
    wall_ms: float


def _cells(stack: BackwardStack, exact_euro: float | None, wall_ms: float) -> dict[str, _Cell]:
    """The LSM, LOOLSM and, when the stack follows a policy, LSM2 cells of a
    stepped stack, each given wall_ms; exact_euro applies the control variate.

    LSM2 makes no regression of its own, so it carries no flips and the
    policy's minimum rank.
    """
    prices = stack.means(exact_euro)
    min_rank = int(stack.ranks.min())
    cells = {
        mode: _Cell(prices[:, j], int(stack.flips[:, j].sum()), min_rank, wall_ms)
        for j, mode in enumerate((MODE_LSM, MODE_LOOLSM))
    }
    if stack.policy is not None:
        cells[MODE_LSM2] = _Cell(prices[:, 2], 0, min(stack.policy.ranks), wall_ms)
    return cells


def _report_row(
    config, key, estimator, m, n_paths, cells, reference, bias=(math.nan, math.nan)
) -> ReportRow:
    """One report row from the cells of an estimator.

    Offsets are the set prices minus the reference price; bias is the row's
    (mean_bias, bias_se) pair, NaN where undefined.
    """
    offsets = np.hstack([c[estimator].price for c in cells]) - reference
    std, se = spread(offsets)
    mean_bias, bias_se = bias
    return ReportRow(
        case=config.case,
        key=key,
        estimator=estimator,
        m=m,
        n_paths=n_paths,
        n_mc=offsets.size,
        mean_offset=float(offsets.mean()),
        std=std,
        se_mean=se,
        mean_bias=mean_bias,
        bias_se=bias_se,
        flips_total=int(sum(c[estimator].flips for c in cells)),
        min_rank=int(min(c[estimator].min_rank for c in cells)),
        wall_ms=float(sum(c[estimator].wall_ms for c in cells)),
    )


def price_set(config: ExperimentConfig, key: float, k: int) -> BackwardStack:
    """Simulation set k of a grid key, stepped back for every experiment-1 estimator.

    With LSM2 among the estimators, a backward pass on the set's own policy
    paths fits the exercise policy first.  One backward pass on the
    valuation paths then carries LSM, LOOLSM, the European payout and, under
    that policy, LSM2, so every estimator values the same paths.  Returns
    that pass's one-set stack.
    """
    config.check_scales((config.basis_m,), config.n_paths)
    model = config.model_for_key(key)
    payoff = config.payoff_for_key(key)
    schedule = config.schedule()
    basis = basis_family(config.case, config.basis_m)

    def paths(*tag):
        seed = derive_seed(config.base_seed, config.case, k, *tag)
        return generate_paths(model, schedule, config.n_paths, seed, config.antithetic)

    policy = None
    if MODE_LSM2 in config.estimators:
        policy = ExercisePolicy.fitted(step_set(paths("policy"), payoff, basis), basis)
    return step_set(paths(), payoff, basis, policy)


def run_experiment1(config: ExperimentConfig) -> ExperimentReport:
    """Estimator comparison on n_mc independent simulation sets per grid key.

    Each set is priced by price_set: all requested estimators value the same
    paths (the two-pass estimator fits its policy on an extra, disjoint set),
    so per-set price differences isolate the exercise decision.  A set's
    pricing time, path generation included, is shared equally by the
    requested estimators; the European row, read off the same pass, reports
    0.  The optional control variate shifts every Bermudan price by the
    set's European pricing error; it changes no expectation and cancels
    exactly in the difference columns.
    """
    report = ExperimentReport()
    # every key is looked up first, so an off-grid key fails before any path is generated
    references = {key: _references(config, key) for key in config.keys}
    for key in config.keys:
        bermudan, european, exact_euro = references[key]

        def run_set(k: int, _key=key, _exact_euro=exact_euro) -> dict:
            t0 = time.perf_counter()
            stack = price_set(config, _key, k)
            share = (time.perf_counter() - t0) * 1e3 / len(config.estimators)
            cell = _cells(stack, _exact_euro, share)
            cell[MODE_EUROPEAN] = _Cell(stack.european.mean(axis=-1), 0, 0, 0.0)
            return cell

        cells = _map_sets(run_set, config.n_mc, config.threads)
        for estimator in config.estimators:
            bias = (math.nan, math.nan)
            if estimator != MODE_LSM and MODE_LSM in config.estimators:
                diffs = np.hstack([c[estimator].price - c[MODE_LSM].price for c in cells])
                bias = (float(diffs.mean()), spread(diffs)[1])
            report.rows.append(
                _report_row(
                    config, key, estimator, config.basis_m, config.n_paths, cells,
                    bermudan, bias,
                )
            )
        report.rows.append(
            _report_row(config, key, MODE_EUROPEAN, 0, config.n_paths, cells, european)
        )
    return report


def run_experiment2(config: ExperimentConfig) -> ExperimentReport:
    """Look-ahead bias as a function of M/N on nested splits of one path pool.

    One pool is shared across every basis size and split into n_mc
    contiguous sets for each entry of n_mc_list; this controls the Monte
    Carlo variance across set sizes.  Per set, one backward pass prices both
    estimators, and bias is the classical price minus the leave-one-out
    price on identical paths; offsets use the European control variate when
    enabled (the bias is unaffected by it).  The report carries a weighted
    straight-line fit of mean bias against M/N.

    The pool is priced in gcd(n_mc_list) chunks, the tasks spread over
    `threads`; every set of every split lies inside one chunk.  A chunk is
    generated once and priced by one call of the engine's date loop,
    step_back, at max(m_list).  Within a cell, the chunk's sets form one
    stack, and the stacks of every m over the same split form one group.
    Each stack is read off by _cells, as experiment 1's sets are: its sets'
    prices, their flips and minimum rank, and its busy time, split evenly
    between the two estimators.
    """
    if len(config.keys) != 1 or set(config.estimators) != {MODE_LSM, MODE_LOOLSM}:
        raise ConfigError("experiment 2 runs one strike/spot at a time with estimators LSM, LOOLSM")
    config.check_scales(config.m_list, config.pool_size // min(config.n_mc_list))
    key = config.keys[0]
    schedule = config.schedule()
    model = config.model_for_key(key)
    payoff = config.payoff_for_key(key)
    bermudan, _, exact_euro = _references(config, key)
    pool_seed = derive_seed(config.base_seed, config.case, "pool")
    basis = basis_family(config.case, max(config.m_list))
    n_chunks = math.gcd(*config.n_mc_list)
    chunk_rows = config.pool_size // n_chunks
    cells_of = [(m, n_mc) for m in config.m_list for n_mc in config.n_mc_list]

    def run_chunk(c: int) -> dict:
        chunk = generate_paths(
            model, schedule, chunk_rows, pool_seed, config.antithetic, offset=c * chunk_rows
        )
        z = payout_matrix(chunk, payoff)
        groups = [  # a stack per m over each split of the chunk
            [BackwardStack(z, n, m) for m in config.m_list]
            for n in (config.pool_size // n_mc for n_mc in config.n_mc_list)
        ]
        step_back(chunk, z, basis, groups)

        cells = {}
        for group in groups:
            for stack in group:
                cell = _cells(stack, exact_euro, stack.busy_s * 1e3 / 2)
                raw = stack.means()
                cell["bias"] = raw[:, 0] - raw[:, 1]
                cells[stack.m, config.pool_size // stack.european.shape[1]] = cell
        return cells

    per_chunk = _map_sets(run_chunk, n_chunks, config.threads)
    report = ExperimentReport()
    points: list[tuple[float, float, float]] = []
    for m, n_mc in cells_of:
        n_per_set = config.pool_size // n_mc
        cells = [chunk_cells[m, n_mc] for chunk_cells in per_chunk]
        biases = np.hstack([c["bias"] for c in cells])
        bias = bias_mean, bias_se = float(biases.mean()), spread(biases)[1]
        for estimator in (MODE_LSM, MODE_LOOLSM):
            report.rows.append(
                _report_row(config, key, estimator, m, n_per_set, cells, bermudan, bias)
            )
        if n_mc >= 2 and math.isfinite(bias_se) and bias_se > 0.0:
            points.append((m / n_per_set, bias_mean, 1.0 / bias_se**2))

    if len(points) >= 3:
        report.slope = fit_bias_slope(points)
    return report


def fit_bias_slope(points: list[tuple[float, float, float]]) -> SlopeFit:
    """Weighted least-squares line y = slope * x + intercept through the points.

    Each point is (x, y, w) with w the inverse variance of y.  The parameter
    covariance is np.polyfit's: (A' W A)^-1 scaled by the reduced chi-square.
    r2 is the weighted coefficient of determination.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points to fit a slope, got {len(points)}")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    w = np.array([p[2] for p in points], dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(w).all()):
        raise ValueError("slope points must be finite")
    if (w <= 0.0).any():
        raise ValueError("weights must be strictly positive")
    if np.ptp(x) == 0.0:
        raise ValueError("all x values identical; slope is undefined")

    coef, cov = np.polyfit(x, y, 1, w=np.sqrt(w), cov=True)
    chi2 = float(np.sum(w * (y - np.polyval(coef, x)) ** 2))
    y_bar = float(np.sum(w * y) / np.sum(w))
    ss_tot = float(np.sum(w * (y - y_bar) ** 2))
    r2 = 1.0 - chi2 / ss_tot if ss_tot > 0.0 else 1.0
    return SlopeFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r2=r2,
        slope_se=float(np.sqrt(cov[0, 0])),
        intercept_se=float(np.sqrt(cov[1, 1])),
        n_points=len(points),
    )
