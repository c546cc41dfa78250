"""Reference pricers checked against closed forms, benchmarks, and each other.

The bivariate normal CDF is cross-checked against direct numerical
integration, and the Monte Carlo European prices are reconciled
with the analytic oracles at one million paths.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, owens_t
from scipy.stats import norm

import lsmc
from lsmc.contracts import BASKET_CALL, BESTOF_CALL, PUT_SINGLE, PayoffSpec
from lsmc.engine import payout_matrix, std_error
from lsmc.market import GbmModel, generate_paths, uniform_schedule
from lsmc.oracles import (
    bestof2_european_call,
    binomial_bermudan_put,
    bivariate_normal_cdf,
    bs_european_put,
    reference_price,
)

PUT_MODEL = GbmModel(spot=[100.0], rate=0.05, dividend=[0.02], vol=[0.20], correlation=[[1.0]])
PUT_SCHEDULE = uniform_schedule(5, 1.0)

PUT_TABLE = {80: (0.856, 0.843), 90: (2.786, 2.714), 100: (6.585, 6.330),
             110: (12.486, 11.804), 120: (20.278, 18.839)}
BESTOF_TABLE = {90: (8.075, 6.655), 100: (13.902, 11.196), 110: (21.345, 16.929)}
BASKET_TABLE = {60: 47.481, 80: 36.352, 100: 28.007, 120: 21.763, 140: 17.066}


def bestof_model(spot: float) -> GbmModel:
    return GbmModel(spot=[spot, spot], rate=0.05, dividend=[0.10, 0.10],
                    vol=[0.20, 0.20], correlation=np.eye(2))


class TestBinomialBermudanPut:
    @pytest.mark.parametrize("strike", sorted(PUT_TABLE))
    def test_benchmark_strikes(self, strike):
        value = binomial_bermudan_put(PUT_MODEL, PUT_SCHEDULE, strike, steps=20_000)
        assert value == pytest.approx(PUT_TABLE[strike][0], abs=1e-3)

    def test_tiny_strike_is_worthless(self):
        assert binomial_bermudan_put(PUT_MODEL, PUT_SCHEDULE, 1e-9, steps=1000) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_early_exercise_premium_nonnegative(self):
        for strike in PUT_TABLE:
            berm = binomial_bermudan_put(PUT_MODEL, PUT_SCHEDULE, strike, steps=5000)
            euro = bs_european_put(100.0, 0.20, 0.05, 0.02, strike, 1.0)
            assert berm >= euro - 1e-9

    def test_step_refinement_beyond_fifty_thousand(self):
        coarse = binomial_bermudan_put(PUT_MODEL, PUT_SCHEDULE, 100.0, steps=50_000)
        fine = binomial_bermudan_put(PUT_MODEL, PUT_SCHEDULE, 100.0, steps=100_000)
        assert abs(fine - coarse) <= 5e-4

    def test_rejects_misaligned_steps(self):
        with pytest.raises(ValueError, match="multiple"):
            binomial_bermudan_put(PUT_MODEL, PUT_SCHEDULE, 100.0, steps=10_001)
        with pytest.raises(ValueError, match="at least 100"):
            binomial_bermudan_put(PUT_MODEL, PUT_SCHEDULE, 100.0, steps=50)


class TestBlackScholesPut:
    def test_benchmark_values(self):
        assert bs_european_put(100, 0.2, 0.05, 0.02, 100, 1.0) == pytest.approx(6.330, abs=1e-3)
        assert bs_european_put(100, 0.2, 0.05, 0.02, 120, 1.0) == pytest.approx(18.839, abs=1e-3)

    def test_zero_vol_out_of_the_money_forward(self):
        # forward 100 e^{0.03} > 80, so the deterministic payoff vanishes
        assert bs_european_put(100, 0.0, 0.05, 0.02, 80, 1.0) == 0.0

    def test_zero_vol_in_the_money_forward(self):
        expected = math.exp(-0.05) * (120 - 100 * math.exp(0.03))
        assert bs_european_put(100, 0.0, 0.05, 0.02, 120, 1.0) == pytest.approx(expected)


def quad_bvn(a: float, b: float, rho: float) -> float:
    """Independent bivariate normal CDF: the integral over x <= a of
    phi(x) Phi((b - rho x) / sqrt(1 - rho^2)); valid for |rho| < 1.  The
    integrand's mass below x = -10 is under 1e-23, so the range starts there."""
    den = math.sqrt(1.0 - rho * rho)
    return integrate.quad(
        lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * ndtr((b - rho * x) / den),
        -10.0, a, epsabs=1e-15, epsrel=1e-13, limit=200,
    )[0]


class TestBivariateNormalCdf:
    def test_independence_factorizes(self):
        for a, b in [(0.3, -0.2), (1.5, 2.0), (-0.7, -0.1)]:
            assert bivariate_normal_cdf(a, b, 0.0) == pytest.approx(
                norm.cdf(a) * norm.cdf(b), abs=1e-12
            )

    def test_orthant_probability_closed_form(self):
        assert bivariate_normal_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_marginalizes_at_infinity(self):
        assert bivariate_normal_cdf(np.inf, 0.7, 0.3) == pytest.approx(norm.cdf(0.7), abs=1e-12)
        assert bivariate_normal_cdf(0.7, np.inf, -0.6) == pytest.approx(norm.cdf(0.7), abs=1e-12)
        assert bivariate_normal_cdf(-np.inf, 0.7, 0.3) == 0.0

    def test_symmetric_in_arguments(self):
        for a, b, rho in [(0.4, -1.2, 0.8), (2.0, 0.1, -0.95), (-0.3, -0.4, 0.2)]:
            assert bivariate_normal_cdf(a, b, rho) == pytest.approx(
                bivariate_normal_cdf(b, a, rho), abs=1e-14
            )

    def test_against_quadrature(self):
        # zero arguments take the explicit limits; |rho| = 0.92 and 0.93 straddle
        # the branch switch of the Drezner-Genz quadrature the pins below come from
        rhos = [-0.999, -0.95, -0.93, -0.92, -0.7, -0.3, 0.0001, 0.3, 0.7, 0.92, 0.93, 0.95, 0.999]
        grid = [-2.5, -1.0, -0.4, 0.0, 0.3, 1.1, 2.7]
        for rho in rhos:
            for a in grid:
                for b in grid:
                    assert bivariate_normal_cdf(a, b, rho) == pytest.approx(
                        quad_bvn(a, b, rho), abs=1e-12
                    )

    def test_monotone_in_each_argument_and_rho(self):
        grid = np.linspace(-2.0, 2.0, 9)
        for rho in (-0.9, -0.2, 0.6, 0.95):
            for b in (-1.0, 0.5):
                values = [bivariate_normal_cdf(a, b, rho) for a in grid]
                assert (np.diff(values) >= -1e-12).all()
        for a, b in [(0.5, -0.3), (1.0, 1.0)]:
            values = [bivariate_normal_cdf(a, b, r) for r in np.linspace(-0.99, 0.99, 21)]
            assert (np.diff(values) >= -1e-9).all()

    def test_perfect_correlation_limits(self):
        assert bivariate_normal_cdf(0.4, 1.2, 1.0) == pytest.approx(norm.cdf(0.4), abs=1e-14)
        assert bivariate_normal_cdf(0.4, -0.2, -1.0) == pytest.approx(
            max(0.0, norm.cdf(0.4) + norm.cdf(-0.2) - 1.0), abs=1e-14
        )

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            bivariate_normal_cdf(0.0, 0.0, 1.5)


def bs_put_by_norm(spot, vol, rate, dividend, strike, expiry):
    """bs_european_put's positive-volatility formula with scipy.stats' Phi."""
    v = vol * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate - dividend + 0.5 * vol * vol) * expiry) / v
    d2 = d1 - v
    return float(
        strike * math.exp(-rate * expiry) * norm.cdf(-d2)
        - spot * math.exp(-dividend * expiry) * norm.cdf(-d1)
    )


def bvn_by_norm(a, b, rho):
    """bivariate_normal_cdf's limits and Owen formula with scipy.stats' Phi."""
    if a == -math.inf or b == -math.inf:
        return 0.0
    if a == math.inf and b == math.inf:
        return 1.0
    if a == math.inf or b == math.inf or rho == 1.0:
        return float(norm.cdf(min(a, b)))
    if rho == -1.0:
        return float(max(0.0, norm.cdf(a) + norm.cdf(b) - 1.0))
    if a == 0.0 and b == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    den = math.sqrt((1.0 - rho) * (1.0 + rho))

    def term(h, k):
        return math.copysign(0.25, k) if h == 0.0 else float(owens_t(h, (k - rho * h) / (h * den)))

    beta = 0.5 if a * b < 0.0 or (a * b == 0.0 and a + b < 0.0) else 0.0
    value = 0.5 * (norm.cdf(a) + norm.cdf(b)) - term(a, b) - term(b, a) - beta
    return float(min(1.0, max(0.0, value)))


class TestStandardNormalCdf:
    """The oracles take Phi from scipy.special.ndtr, which scipy.stats'
    norm.cdf calls at loc 0 and scale 1, so importing lsmc need not load
    scipy.stats and no oracle value moves."""

    def test_cli_import_loads_no_scipy_stats(self):
        # a fresh interpreter, since this module itself imports scipy.stats
        probe = ("import sys, lsmc.cli;"
                 " print([m for m in sys.modules if m.startswith('scipy.stats')])")
        env = {**os.environ, "PYTHONPATH": str(Path(lsmc.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.strip() == "[]"

    def test_oracles_equal_their_scipy_stats_formulas_bit_for_bit(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 20_001), [-np.inf, np.inf, -0.0]])
        assert (ndtr(x) == norm.cdf(x)).all()
        for args in itertools.product((1.0, 80.0, 100.0, 120.0, 1e4), (0.05, 0.2, 1.0),
                                      (-0.02, 0.0, 0.05), (0.0, 0.1), (80.0, 100.0, 120.0),
                                      (0.1, 1.0, 5.0)):
            assert bs_european_put(*args) == bs_put_by_norm(*args), args
        grid = (-math.inf, -8.0, -2.5, -0.4, 0.0, 0.3, 1.1, 2.7, 8.0, math.inf)
        for rho in (-1.0, -0.95, -0.3, 0.0, 0.5, 0.999, 1.0):
            for a, b in itertools.product(grid, grid):
                assert bivariate_normal_cdf(a, b, rho) == bvn_by_norm(a, b, rho), (a, b, rho)


class TestBestOfTwoCall:
    @pytest.mark.parametrize("spot", sorted(BESTOF_TABLE))
    def test_benchmark_values(self, spot):
        value = bestof2_european_call(bestof_model(spot), 100.0, 3.0)
        assert value == pytest.approx(BESTOF_TABLE[spot][1], abs=1e-3)

    @pytest.mark.parametrize(
        "spot, pinned",
        [(90, 6.655098004077313), (100, 11.195681033054463), (110, 16.928565572415742)],
    )
    def test_pinned_values(self, spot, pinned):
        # prices of the Drezner-Genz quadrature this closed form replaced
        assert bestof2_european_call(bestof_model(spot), 100.0, 3.0) == pytest.approx(
            pinned, abs=1e-12
        )

    def test_worthless_second_asset_degenerates_to_single_asset_call(self):
        model = GbmModel(spot=[100.0, 100.0], rate=0.05, dividend=[0.02, 5.0],
                         vol=[0.20, 0.01], correlation=np.eye(2))
        value = bestof2_european_call(model, 100.0, 1.0)
        # put-call parity gives the single-asset call from the put oracle
        call = (bs_european_put(100, 0.2, 0.05, 0.02, 100, 1.0)
                + 100 * math.exp(-0.02) - 100 * math.exp(-0.05))
        assert value == pytest.approx(call, abs=1e-9)

    def test_rejects_wrong_asset_count(self):
        with pytest.raises(ValueError, match="two-asset"):
            bestof2_european_call(PUT_MODEL, 100.0, 1.0)


class TestReferenceTable:
    def test_put_rows(self):
        for strike, (berm, euro) in PUT_TABLE.items():
            ref = reference_price(PUT_SINGLE, strike)
            assert (ref.bermudan, ref.european) == (berm, euro)
            assert ref.source

    def test_bestof_rows(self):
        assert reference_price(BESTOF_CALL, 100).bermudan == 13.902

    def test_basket_rows_have_equal_roles(self):
        for strike, exact in BASKET_TABLE.items():
            ref = reference_price(BASKET_CALL, strike)
            assert ref.bermudan == ref.european == exact

    def test_unknown_key_lists_known_ones(self):
        with pytest.raises(KeyError, match=r"80.*90.*100"):
            reference_price(PUT_SINGLE, 85)


def european_mc(paths, payoff):
    """The European price a backward pass reads off its maturity payout, and
    its standard error over antithetic pairs."""
    maturity = np.ascontiguousarray(payout_matrix(paths, payoff)[:, -1])
    return maturity.mean(), std_error(maturity, True)


class TestEuropeanMonteCarloAgreement:
    """Simulation and analytics must agree within 4 SE at one million paths."""

    def test_put_case(self):
        paths = generate_paths(PUT_MODEL, PUT_SCHEDULE, 1_000_000, seed=101)
        price, se = european_mc(paths, PayoffSpec(PUT_SINGLE, strike=100.0))
        exact = bs_european_put(100, 0.2, 0.05, 0.02, 100, 1.0)
        assert abs(price - exact) < 4.0 * se

    def test_bestof_case(self):
        paths = generate_paths(bestof_model(100.0), uniform_schedule(9, 3.0), 1_000_000, seed=102)
        price, se = european_mc(paths, PayoffSpec(BESTOF_CALL, strike=100.0))
        exact = bestof2_european_call(bestof_model(100.0), 100.0, 3.0)
        assert abs(price - exact) < 4.0 * se

    def test_basket_case(self):
        model = GbmModel(spot=[100.0] * 4, rate=0.0, dividend=[0.0] * 4, vol=[0.40] * 4,
                         correlation=np.full((4, 4), 0.5) + 0.5 * np.eye(4))
        paths = generate_paths(model, uniform_schedule(10, 5.0), 1_000_000, seed=103)
        price, se = european_mc(paths, PayoffSpec(BASKET_CALL, strike=100.0))
        assert abs(price - reference_price(BASKET_CALL, 100).european) < 4.0 * se
