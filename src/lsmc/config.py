"""Experiment configuration: the shipped cases and scales, their checks, and config files.

ExperimentConfig describes one experiment run and refuses a bad one when it
is built, with a ConfigError.  default_config builds it from the per-case and
per-scale tables; parse_config_text and load_config_file read `key = value`
overrides, each value parsed by its field's type annotation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

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
from .engine import MODE_LOOLSM, MODE_LSM, MODE_LSM2
from .errors import ConfigError
from .market import GbmModel, uniform_schedule

_LOG_SQRT_MAX = math.log(np.finfo(float).max) / 2

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
            if not self.out or not os.path.isdir(folder) or os.path.isdir(self.out):
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

    def has_shipped_model(self) -> bool:
        """True when the model is the case's shipped one, the model that
        lsmc.oracles' reference table prices: the model parameters, the
        dates and the scale field the case does not key on (spot for the put
        and the basket, strike for the best-of) equal _CASE_DEFAULTS'."""
        fields = ("vol", "rate", "dividend", "correlation", "n_dates", "maturity",
                  "strike" if self.case == BESTOF_CALL else "spot")
        return all(getattr(self, f) == _CASE_DEFAULTS[self.case][f] for f in fields)

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
