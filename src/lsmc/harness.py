"""Experiment orchestration: estimator comparisons, bias convergence, CSV reports.

Experiment 1 prices a grid of contracts with the classical, two-pass, and
leave-one-out estimators on shared valuation paths, n_mc independent times,
and reports price offsets against the reference table plus per-estimator
differences from the classical price.  Experiment 2 splits one path pool into
progressively smaller sets and measures look-ahead bias (classical minus
leave-one-out price) as a function of the regressors-to-paths ratio, ending
with a weighted straight-line fit.  Both experiments price through the
engine's stacks and read every estimator off a stepped stack as arrays, in
one place: _cells.

Seeds derive from the base seed by hashing the run coordinates, so every
simulation set has its own reproducible stream and no two runs collide.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from types import NoneType, UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .contracts import (
    BASKET_CALL,
    BESTOF_CALL,
    N_ASSETS,
    PAYOFF_KINDS,
    PUT_SINGLE,
    PayoffSpec,
    basis_family,
)
from .engine import (
    MODE_EUROPEAN,
    MODE_LOOLSM,
    MODE_LSM,
    MODE_LSM2,
    BackwardStack,
    ExercisePolicy,
    payout_matrix,
    step_back,
    step_set,
)
from .errors import ConfigError
from .market import GbmModel, generate_paths, uniform_schedule
from .oracles import bestof2_european_call, bs_european_put, reference_price

_MASK64 = 0xFFFFFFFFFFFFFFFF
_LOG_SQRT_MAX = math.log(np.finfo(float).max) / 2

CSV_COLUMNS = (
    "case,key,estimator,M,N,n_mc,mean_offset,std,se_mean,"
    "mean_bias,bias_se,flips_total,min_rank,wall_ms"
)

_CASE_DEFAULTS: dict[str, dict] = {
    PUT_SINGLE: dict(
        keys=(80.0, 90.0, 100.0, 110.0, 120.0),
        spot=100.0,
        strike=100.0,
        rate=0.05,
        dividend=0.02,
        vol=0.20,
        correlation=0.0,
        n_dates=5,
        maturity=1.0,
        basis_m=5,
        m_list=(4, 8, 12),
    ),
    BESTOF_CALL: dict(
        keys=(90.0, 100.0, 110.0),
        spot=100.0,
        strike=100.0,
        rate=0.05,
        dividend=0.10,
        vol=0.20,
        correlation=0.0,
        n_dates=9,
        maturity=3.0,
        basis_m=11,
        m_list=(4, 7, 11),
    ),
    BASKET_CALL: dict(
        keys=(60.0, 80.0, 100.0, 120.0, 140.0),
        spot=100.0,
        strike=100.0,
        rate=0.0,
        dividend=0.0,
        vol=0.40,
        correlation=0.5,
        n_dates=10,
        maturity=5.0,
        basis_m=16,
        m_list=(6, 10, 16),
    ),
}

_SCALE_EXP1 = {"desk": dict(n_paths=10_000, n_mc=20), "paper": dict(n_paths=40_000, n_mc=100)}
_SCALE_EXP2 = {
    "desk": dict(pool_size=144_000, n_mc_list=(10, 40, 120)),
    "paper": dict(pool_size=1_440_000, n_mc_list=(10, 20, 30, 40, 60, 120, 240, 720)),
}


def derive_seed(base_seed: int, *parts) -> int:
    """Deterministic 64-bit stream seed for one run coordinate.

    XORs the base seed with a stable hash of the coordinate parts, so distinct
    coordinates get distinct, reproducible streams without coordination.
    """
    tag = "|".join(str(p) for p in parts).encode()
    h = int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "little")
    return (base_seed ^ h) & _MASK64


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run; default_config builds it with
    the shipped values of each case and scale.

    keys holds strikes for put_single/basket_call and common spots for
    bestof_call (where `strike` then fixes the contract strike);
    spot_and_strike is the one place that reads a key.  Scalar model
    parameters apply to every asset of the case.
    """

    case: str
    keys: tuple[float, ...]
    spot: float
    strike: float
    rate: float
    dividend: float
    vol: float
    correlation: float
    n_dates: int
    maturity: float
    n_paths: int
    n_mc: int
    basis_m: int
    m_list: tuple[int, ...]
    n_mc_list: tuple[int, ...]
    pool_size: int
    estimators: tuple[str, ...] = (MODE_LSM, MODE_LSM2, MODE_LOOLSM)
    base_seed: int = 20170907
    antithetic: bool = True
    control_variate: bool = False
    threads: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        if self.case not in PAYOFF_KINDS:
            raise ConfigError(f"unknown case {self.case!r}; expected one of {PAYOFF_KINDS}")
        for name in _FLOAT_FIELDS:
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("spot", "strike"):  # also where the case reads its keys instead
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.keys:
            raise ConfigError("at least one strike/spot key is required")
        bad = [e for e in self.estimators if e not in (MODE_LSM, MODE_LSM2, MODE_LOOLSM)]
        if bad or not self.estimators:
            raise ConfigError(f"estimators must be a non-empty subset of LSM/LSM2/LOOLSM, got {bad}")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ConfigError("n_paths must be even under antithetic sampling")
        if self.n_dates < 2:
            raise ConfigError(f"n_dates must be at least 2, got {self.n_dates}")
        if self.n_paths <= self.basis_m:
            raise ConfigError(f"n_paths {self.n_paths} must exceed basis_m {self.basis_m}")
        if self.n_mc < 1 or not self.n_mc_list or min(self.n_mc_list) < 1 or not self.m_list:
            raise ConfigError("n_mc, n_mc_list and m_list must be non-empty and positive")
        for name in ("keys", "estimators", "n_mc_list", "m_list"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeats an entry: {values}")
        for n_mc in self.n_mc_list:
            if self.pool_size % n_mc != 0:
                raise ConfigError(f"pool_size {self.pool_size} is not divisible by n_mc {n_mc}")
            if self.antithetic and (self.pool_size // n_mc) % 2 != 0:
                raise ConfigError(
                    f"pool_size {self.pool_size} split {n_mc} ways leaves"
                    f" {self.pool_size // n_mc} paths per set, which breaks antithetic pairs"
                )
        smallest_set = self.pool_size // max(self.n_mc_list)
        if smallest_set <= max(self.m_list):
            raise ConfigError(
                f"pool_size {self.pool_size} split {max(self.n_mc_list)} ways leaves"
                f" {smallest_set} paths per set, not more than m {max(self.m_list)}"
            )
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.out is not None:
            folder = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(folder) or os.path.isdir(self.out):
                raise ConfigError(f"out {self.out!r} is not a file in an existing directory")
        try:
            self.schedule()
            for key in self.keys:
                self.model_for_key(key)
                self.payoff_for_key(key)
            for m in {self.basis_m, *self.m_list}:
                basis_family(self.case, m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # these factors scale the prices, and the standard errors square them
        discount, growth = -self.rate * self.maturity, (self.rate - self.dividend) * self.maturity
        if not max(abs(discount), abs(growth)) < _LOG_SQRT_MAX:
            raise ConfigError(
                f"rate {self.rate} and dividend {self.dividend} give a discount factor of"
                f" exp({discount:.6g}) and a forward growth of exp({growth:.6g}) over maturity"
                f" {self.maturity}; both squares must be finite positive floats"
            )

    def check_scales(self, sizes: tuple[int, ...], rows: int) -> None:
        """Refuse a spot or strike too large for the regressions of a run.

        sizes are the basis sizes the run fits and rows the most paths one of
        its regressions has.  A column's squared norm, a sum of rows squares,
        must stay a finite positive float for the spot's start value and root
        mean square at maturity, each raised to the bases' highest monomial
        degree, and for the strike's start and discounted value.  The spot's
        log scale is widened by the largest of rows standard normal draws,
        about sqrt(2 log rows), times its log volatility, since the largest
        path's power, not the mean, fills the column norm first."""
        degree = max(sum(t.exponents) for m in sizes for t in basis_family(self.case, m).terms)
        discount, growth = -self.rate * self.maturity, (self.rate - self.dividend) * self.maturity
        # the mean 2p-th power of a lognormal price is S^2p exp(2p growth + p(2p-1) vol^2 T)
        spread = growth + (degree - 0.5) * self.vol * self.vol * self.maturity
        tail = math.sqrt(2 * math.log(rows)) * self.vol * math.sqrt(self.maturity)
        pairs = [self.spot_and_strike(key) for key in self.keys]
        scales = [("spot", s, spread, tail, degree) for s, _ in pairs]
        scales += [("strike", k, discount, 0.0, 1) for _, k in pairs]
        for name, scale, rate, margin, power in scales:
            log_scale = max(abs(math.log(scale)), abs(math.log(scale) + rate)) + margin
            if not power * log_scale + math.log(rows) / 2 < _LOG_SQRT_MAX:
                raise ConfigError(
                    f"{name} {scale} scaled by exp({rate:.6g}) over maturity {self.maturity}"
                    f" and by exp({margin:.6g}) on its largest path, raised to the power"
                    f" {power} and summed in squares over {rows} paths,"
                    " must stay a finite positive float"
                )

    def schedule(self):
        return uniform_schedule(self.n_dates, self.maturity)

    def spot_and_strike(self, key: float) -> tuple[float, float]:
        """The common spot and the strike that a grid key stands for."""
        return (key, self.strike) if self.case == BESTOF_CALL else (self.spot, key)

    def model_for_key(self, key: float) -> GbmModel:
        j = N_ASSETS[self.case]
        spot = self.spot_and_strike(key)[0]
        corr = np.full((j, j), self.correlation)
        np.fill_diagonal(corr, 1.0)
        return GbmModel(
            spot=np.full(j, float(spot)),
            rate=self.rate,
            dividend=np.full(j, self.dividend),
            vol=np.full(j, self.vol),
            correlation=corr,
        )

    def payoff_for_key(self, key: float) -> PayoffSpec:
        return PayoffSpec(kind=self.case, strike=float(self.spot_and_strike(key)[1]))


def default_config(case: str, experiment: int = 1, scale: str = "desk") -> ExperimentConfig:
    """Shipped configuration for a case: contract and model parameters are the
    benchmark values of the three studies; scale picks CI-friendly ("desk") or
    full ("paper") simulation sizes."""
    if case not in _CASE_DEFAULTS:
        raise ConfigError(f"unknown case {case!r}; expected one of {PAYOFF_KINDS}")
    if scale not in _SCALE_EXP1:
        raise ConfigError(f"unknown scale {scale!r}; expected desk or paper")
    kwargs = dict(_CASE_DEFAULTS[case])
    kwargs.update(_SCALE_EXP1[scale])
    kwargs.update(_SCALE_EXP2[scale])
    if experiment == 2:
        kwargs["keys"] = (100.0,)
        kwargs["estimators"] = (MODE_LSM, MODE_LOOLSM)
        kwargs["control_variate"] = True
    return ExperimentConfig(case=case, **kwargs)


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return value.lower() == "true"


def _value_parser(hint):
    """Parser of one config value for a field annotated `hint`: bool, int,
    float or str, an optional one, or a comma-separated tuple of them."""
    if get_origin(hint) is tuple:
        item = _value_parser(get_args(hint)[0])
        return lambda value: tuple(item(v) for v in value.split(","))
    if get_origin(hint) is UnionType:
        (hint,) = (arg for arg in get_args(hint) if arg is not NoneType)
    return {bool: _parse_bool, str: str.strip}.get(hint, hint)


_HINTS = get_type_hints(ExperimentConfig)
_VALUE_PARSERS = {name: _value_parser(hint) for name, hint in _HINTS.items()}
_FLOAT_FIELDS = tuple(name for name, hint in _HINTS.items() if hint in (float, tuple[float, ...]))


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into typed ExperimentConfig overrides.

    Each key is an ExperimentConfig field and is parsed by its annotation.
    Lists are comma separated; booleans accept true/false; '#' starts a
    comment.  Unknown keys are rejected.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key not in _VALUE_PARSERS:
                raise ValueError("unknown key")
            overrides[key] = _VALUE_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: {key} = {value!r}: {exc}") from None
    return overrides


def load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from None
    return parse_config_text(text)


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
    meta: dict = field(default_factory=dict)

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
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(csv_text(report))
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc


def _spread(values: np.ndarray) -> tuple[float, float]:
    """Sample standard deviation (with the n/(n-1) correction) and its SE of mean."""
    n = values.size
    if n < 2:
        return float("nan"), float("nan")
    std = float(values.std(ddof=1))
    return std, std / math.sqrt(n)


def _map_sets(worker, n_sets: int, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(n_sets)))
    return [worker(k) for k in range(n_sets)]


def _references(config: ExperimentConfig, key: float):
    """Reference prices of a grid key and, when the config applies the control
    variate, the key's exact European price, else None.  A key off the table,
    or a model with no closed-form European price, is a ConfigError."""
    spot, strike = config.spot_and_strike(key)
    try:
        ref = reference_price(config.case, key)
        if not config.control_variate:
            return ref, None
        if config.case == PUT_SINGLE:
            return ref, bs_european_put(
                spot, config.vol, config.rate, config.dividend, strike, config.maturity
            )
        if config.case == BESTOF_CALL:
            return ref, bestof2_european_call(config.model_for_key(key), strike, config.maturity)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    except ValueError as exc:
        raise ConfigError(f"no exact European price for the control variate: {exc}") from None
    return ref, ref.european


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
    std, se = _spread(offsets)
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
    basis = basis_family(config.case, config.basis_m)
    report = ExperimentReport(
        meta={
            "experiment": "1",
            "case": config.case,
            "base_seed": str(config.base_seed),
            "control_variate": str(config.control_variate).lower(),
            "basis": " ".join(basis.labels),
        }
    )

    # every key is looked up first, so an off-grid key fails before any path is generated
    references = {key: _references(config, key) for key in config.keys}
    for key in config.keys:
        ref, exact_euro = references[key]

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
                bias = (float(diffs.mean()), _spread(diffs)[1])
            report.rows.append(
                _report_row(
                    config, key, estimator, config.basis_m, config.n_paths, cells,
                    ref.bermudan, bias,
                )
            )
        report.rows.append(
            _report_row(config, key, MODE_EUROPEAN, 0, config.n_paths, cells, ref.european)
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
    ref, exact_euro = _references(config, key)
    pool_seed = derive_seed(config.base_seed, config.case, "pool")
    bases = {m: basis_family(config.case, m) for m in config.m_list}
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
        step_back(chunk, z, bases[max(config.m_list)], groups)

        cells = {}
        for group in groups:
            for stack in group:
                cell = _cells(stack, exact_euro, stack.busy_s * 1e3 / 2)
                raw = stack.means()
                cell["bias"] = raw[:, 0] - raw[:, 1]
                cells[stack.m, config.pool_size // stack.european.shape[1]] = cell
        return cells

    per_chunk = _map_sets(run_chunk, n_chunks, config.threads)
    report = ExperimentReport(
        meta={
            "experiment": "2",
            "case": config.case,
            "key": _fmt(key),
            "base_seed": str(config.base_seed),
            "pool_seed": str(pool_seed),
            "pool_size": str(config.pool_size),
            "pool_shared_across_m": "true",
            "control_variate": str(config.control_variate).lower(),
        }
    )
    if config.case == BASKET_CALL:
        report.meta.update((f"basis_m{m}", " ".join(b.labels)) for m, b in bases.items())
    points: list[tuple[float, float, float]] = []
    for m, n_mc in cells_of:
        n_per_set = config.pool_size // n_mc
        cells = [chunk_cells[m, n_mc] for chunk_cells in per_chunk]
        biases = np.hstack([c["bias"] for c in cells])
        bias = bias_mean, bias_se = float(biases.mean()), _spread(biases)[1]
        for estimator in (MODE_LSM, MODE_LOOLSM):
            report.rows.append(
                _report_row(config, key, estimator, m, n_per_set, cells, ref.bermudan, bias)
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
