"""Independent reference prices: lattice, closed forms, and published benchmarks.

Everything here is deliberately separate from the Monte Carlo machinery so it
can certify the simulation estimators: a Cox-Ross-Rubinstein lattice for the
Bermudan put, Black-Scholes for European puts, the bivariate normal CDF in
closed form from Owen's T function feeding the max-of-two-assets closed form,
and a static table of published exact values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import ndtr, owens_t

from .market import ExerciseSchedule, GbmModel


def binomial_bermudan_put(
    model: GbmModel, schedule: ExerciseSchedule, strike: float, steps: int
) -> float:
    """Bermudan put on a CRR lattice with exercise only at schedule dates.

    steps must be a multiple of the date count so that every exercise date
    falls exactly on a tree level; early exercise is masked everywhere else.
    The root value converges to the exact price at rate O(1/steps).
    """
    if model.n_assets != 1:
        raise ValueError("binomial_bermudan_put prices single-asset models only")
    if steps < 100:
        raise ValueError("steps must be at least 100")
    if steps % schedule.n_dates != 0:
        raise ValueError(
            f"steps={steps} is not a multiple of the {schedule.n_dates} exercise dates"
        )
    maturity = schedule.maturity
    dt = maturity / steps
    levels = schedule.times / dt
    rounded = np.rint(levels)
    if not np.allclose(levels, rounded, atol=1e-6):
        raise ValueError("every exercise date must lie on a tree level")
    exercise_levels = {int(k) for k in rounded[:-1]}

    sigma = float(model.vol[0])
    rate, div = model.rate, float(model.dividend[0])
    spot = float(model.spot[0])
    sdt = sigma * math.sqrt(dt)
    u, d = math.exp(sdt), math.exp(-sdt)
    p = (math.exp((rate - div) * dt) - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise ValueError(f"risk-neutral up probability {p:.4f} outside (0, 1); refine steps")
    disc = math.exp(-rate * dt)

    ups = np.arange(steps + 1)
    values = np.maximum(strike - spot * np.exp((2 * ups - steps) * sdt), 0.0)
    for level in range(steps - 1, -1, -1):
        values = disc * (p * values[1 : level + 2] + (1.0 - p) * values[: level + 1])
        if level in exercise_levels:
            s_level = spot * np.exp((2 * np.arange(level + 1) - level) * sdt)
            values = np.maximum(values, strike - s_level)
    return float(values[0])


def bs_european_put(
    spot: float, vol: float, rate: float, dividend: float, strike: float, expiry: float
) -> float:
    """Black-Scholes European put with a continuous dividend yield."""
    if spot <= 0 or strike <= 0 or expiry <= 0:
        raise ValueError("spot, strike and expiry must be strictly positive")
    if vol <= 0.0:
        forward = spot * math.exp((rate - dividend) * expiry)
        return math.exp(-rate * expiry) * max(strike - forward, 0.0)
    v = vol * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate - dividend + 0.5 * vol * vol) * expiry) / v
    d2 = d1 - v
    return float(
        strike * math.exp(-rate * expiry) * ndtr(-d2)
        - spot * math.exp(-dividend * expiry) * ndtr(-d1)
    )


def _owens_term(h: float, k: float, rho: float, den: float) -> float:
    """T(h, (k - rho h) / (h den)), with its h = 0 limit T(0, +-inf) = +-1/4 taken
    on the side of k."""
    if h == 0.0:
        return math.copysign(0.25, k)
    return float(owens_t(h, (k - rho * h) / (h * den)))


def bivariate_normal_cdf(a: float, b: float, rho: float) -> float:
    """P[X <= a, Y <= b] for standard normals with correlation rho.

    For |rho| < 1 this is Owen's (1956) closed form in his T function,
    Phi(a)/2 + Phi(b)/2 - T(a, (b - rho a)/(a s)) - T(b, (a - rho b)/(b s)) - beta
    with s = sqrt(1 - rho^2) and beta = 1/2 when a b < 0, or a b = 0 and
    a + b < 0; Phi is scipy's ndtr and T its owens_t (Patefield-Tandy), and
    the absolute error against direct numerical integration is ~1e-15.  The
    infinite arguments and rho = +-1 are exact limits.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if math.isnan(a) or math.isnan(b):
        raise ValueError("arguments must not be NaN")
    if a == -math.inf or b == -math.inf:
        return 0.0
    if a == math.inf and b == math.inf:
        return 1.0
    if a == math.inf:
        return float(ndtr(b))
    if b == math.inf:
        return float(ndtr(a))
    if rho == 1.0:
        return float(ndtr(min(a, b)))
    if rho == -1.0:
        return float(max(0.0, ndtr(a) + ndtr(b) - 1.0))
    if a == 0.0 and b == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    den = math.sqrt((1.0 - rho) * (1.0 + rho))
    beta = 0.5 if a * b < 0.0 or (a * b == 0.0 and a + b < 0.0) else 0.0
    value = (
        0.5 * (ndtr(a) + ndtr(b))
        - _owens_term(a, b, rho, den)
        - _owens_term(b, a, rho, den)
        - beta
    )
    return float(min(1.0, max(0.0, value)))


def bestof2_european_call(model: GbmModel, strike: float, expiry: float) -> float:
    """Closed-form European call on the maximum of two assets (Stulz-type).

    Requires a two-asset model with strictly positive volatilities and
    strike; expressed via the bivariate normal CDF.
    """
    if model.n_assets != 2:
        raise ValueError("bestof2_european_call needs a two-asset model")
    if strike <= 0 or expiry <= 0:
        raise ValueError("strike and expiry must be strictly positive")
    s1, s2 = (float(v) for v in model.spot)
    q1, q2 = (float(v) for v in model.dividend)
    v1, v2 = (float(v) for v in model.vol)
    if v1 <= 0 or v2 <= 0:
        raise ValueError("both volatilities must be strictly positive")
    rho = float(model.correlation[0, 1])
    r = model.rate
    rt = math.sqrt(expiry)

    spread_vol = math.sqrt(v1 * v1 + v2 * v2 - 2.0 * rho * v1 * v2)
    if spread_vol <= 0:
        raise ValueError("assets are perfectly correlated with equal volatility")
    d = (math.log(s1 / s2) + (q2 - q1 + 0.5 * spread_vol**2) * expiry) / (spread_vol * rt)
    y1 = (math.log(s1 / strike) + (r - q1 + 0.5 * v1 * v1) * expiry) / (v1 * rt)
    y2 = (math.log(s2 / strike) + (r - q2 + 0.5 * v2 * v2) * expiry) / (v2 * rt)
    rho1 = (v1 - rho * v2) / spread_vol
    rho2 = (v2 - rho * v1) / spread_vol

    return (
        s1 * math.exp(-q1 * expiry) * bivariate_normal_cdf(y1, d, rho1)
        + s2 * math.exp(-q2 * expiry) * bivariate_normal_cdf(y2, spread_vol * rt - d, rho2)
        - strike
        * math.exp(-r * expiry)
        * (1.0 - bivariate_normal_cdf(v1 * rt - y1, v2 * rt - y2, rho))
    )


@dataclass(frozen=True)
class ReferencePrice:
    """Published exact prices for one contract configuration."""

    case: str
    key: float
    bermudan: float
    european: float
    source: str


@functools.cache
def _load_reference_table() -> dict[tuple[str, float], ReferencePrice]:
    table: dict[tuple[str, float], ReferencePrice] = {}
    text = resources.files("lsmc.data").joinpath("reference_prices.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        case, key, berm, euro, source = line.split(",", maxsplit=4)
        entry = ReferencePrice(case, float(key), float(berm), float(euro), source)
        table[(case, float(key))] = entry
    return table


def reference_price(case: str, key: float) -> ReferencePrice:
    """Published exact Bermudan/European prices for (case, key).

    key is the strike for put_single and basket_call, the common spot for
    bestof_call.  For the basket the two prices coincide (no dividends, so
    early exercise is never optimal).
    """
    table = _load_reference_table()
    entry = table.get((case, float(key)))
    if entry is None:
        known = sorted(k for c, k in table if c == case)
        raise KeyError(f"no reference price for ({case!r}, {key!r}); known keys: {known}")
    return entry
