"""Experiment orchestration: seeding, statistics, CSV round trips, CLI."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsmc
from lsmc import harness
from lsmc.cli import main
from lsmc.config import ExperimentConfig, default_config, load_config_file, parse_config_text
from lsmc.contracts import N_ASSETS
from lsmc.errors import ConfigError
from lsmc.market import generate_paths
from lsmc.oracles import bs_european_put
from lsmc.harness import (
    CSV_COLUMNS,
    ExperimentReport,
    ReportRow,
    derive_seed,
    emit_csv,
    fit_bias_slope,
    run_experiment1,
    run_experiment2,
)


def tiny_exp1(**overrides) -> ExperimentConfig:
    base = dict(keys=(100.0,), n_paths=600, n_mc=3, basis_m=4, base_seed=99)
    base.update(overrides)
    return dataclasses.replace(default_config("put_single", 1, "desk"), **base)


def tiny_exp2(**overrides) -> ExperimentConfig:
    base = dict(pool_size=6000, n_mc_list=(3, 6), m_list=(2, 4), base_seed=99)
    base.update(overrides)
    return dataclasses.replace(default_config("put_single", 2, "desk"), **base)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, "put_single", 3) == derive_seed(7, "put_single", 3)
        assert derive_seed(7, "put_single", 3) != derive_seed(7, "put_single", 4)
        assert derive_seed(7, "put_single", 3) != derive_seed(7, "put_single", 3, "policy")
        assert derive_seed(7, "put_single", 3) != derive_seed(8, "put_single", 3)

    def test_stays_in_64_bits(self):
        assert 0 <= derive_seed(2**63, "basket_call", 11) < 2**64

    def test_base_seed_spans_64_bits_and_no_more(self):
        # a seed outside [0, 2**64) would run the stream of its low 64 bits
        for seed in (0, 2**64 - 1):
            assert tiny_exp1(base_seed=seed).base_seed == seed
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ConfigError, match=r"^base_seed must be in \[0, 2\*\*64\)"):
                tiny_exp1(base_seed=seed)


class TestFitBiasSlope:
    def test_exact_line(self):
        points = [(x, 2.0 * x, 1.0) for x in (0.1, 0.2, 0.5, 0.9)]
        fit = fit_bias_slope(points)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_all_zero_bias(self):
        fit = fit_bias_slope([(x, 0.0, 1.0) for x in (0.1, 0.2, 0.3)])
        assert fit.slope == 0.0 and fit.intercept == 0.0

    def test_weights_pull_the_line(self):
        # heavy weight on two collinear points pins the fit near them
        points = [(0.0, 0.0, 1e6), (1.0, 1.0, 1e6), (0.5, 2.0, 1e-6)]
        fit = fit_bias_slope(points)
        assert fit.slope == pytest.approx(1.0, abs=1e-3)
        assert fit.intercept == pytest.approx(0.0, abs=1e-3)

    def test_rejections(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_bias_slope([(0.1, 0.0, 1.0), (0.2, 0.0, 1.0)])
        with pytest.raises(ValueError, match="identical"):
            fit_bias_slope([(0.1, 0.0, 1.0)] * 3)
        with pytest.raises(ValueError, match="positive"):
            fit_bias_slope([(0.1, 0.0, 1.0), (0.2, 0.0, -1.0), (0.3, 0.0, 1.0)])


class TestConfigParsing:
    def test_typed_round_trip(self):
        text = """
        # comment
        keys = 80, 100
        n_paths = 1234        # inline comment
        control_variate = true
        estimators = LSM, LOOLSM
        vol = 0.25
        out = run.csv
        """
        parsed = parse_config_text(text)
        assert parsed == {
            "keys": (80.0, 100.0),
            "n_paths": 1234,
            "control_variate": True,
            "estimators": ("LSM", "LOOLSM"),
            "vol": 0.25,
            "out": "run.csv",
        }

    def test_bad_lines_are_rejected_with_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("n_paths = lots")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("n_pathz = 100")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words")

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="unknown case"):
            default_config("straddle")
        with pytest.raises(ConfigError, match="scale"):
            default_config("put_single", scale="huge")
        with pytest.raises(ConfigError, match="even"):
            tiny_exp1(n_paths=601)
        with pytest.raises(ConfigError, match="divisible"):
            tiny_exp2(pool_size=6001)
        with pytest.raises(ConfigError, match="estimators"):
            tiny_exp1(estimators=("LSM", "MLMC"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["keys", "spot", "strike", "rate", "dividend", "vol", "correlation", "maturity"]
    )
    def test_non_finite_floats_name_their_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            tiny_exp1(**{name: (100.0, value) if name == "keys" else value})

    def test_config_import_leaves_the_harness_unloaded(self):
        probe = "import sys, lsmc.config; print('lsmc.harness' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(lsmc.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.strip() == "False"


class TestCsv:
    def test_empty_report_is_header_only(self, tmp_path):
        target = tmp_path / "empty.csv"
        emit_csv(ExperimentReport(), str(target))
        assert target.read_text() == CSV_COLUMNS + "\n"

    def test_round_trip_preserves_ten_significant_digits(self, tmp_path):
        row = ReportRow(
            case="put_single", key=100.0, estimator="LSM", m=5, n_paths=40000, n_mc=100,
            mean_offset=-0.001234567891234, std=0.0202, se_mean=0.00202,
            mean_bias=float("nan"), bias_se=float("nan"), flips_total=42, min_rank=5,
            wall_ms=12.125,
        )
        target = tmp_path / "round.csv"
        emit_csv(ExperimentReport(rows=[row]), str(target))
        with open(target, encoding="utf-8") as f:
            (rec,) = csv.DictReader(f)
        assert float(rec["mean_offset"]) == float(f"{row.mean_offset:.10g}")
        assert rec["mean_bias"] == ""  # NaN is written as an empty field
        assert rec["flips_total"] == "42"
        assert rec["estimator"] == "LSM"

    def test_unwritable_path_reports_the_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv(ExperimentReport(), str(tmp_path / "no" / "such" / "dir.csv"))


class TestExperiment1:
    def test_row_cardinality_for_the_full_grid(self):
        config = tiny_exp1(keys=(80.0, 90.0, 100.0, 110.0, 120.0))
        report = run_experiment1(config)
        # 3 estimators + 1 European row per strike
        assert len(report.rows) == 20
        assert {r.estimator for r in report.rows} == {"LSM", "LSM2", "LOOLSM", "EUROPEAN"}

    def test_single_set_leaves_spread_fields_empty(self, tmp_path):
        report = run_experiment1(tiny_exp1(n_mc=1))
        loo = next(r for r in report.rows if r.estimator == "LOOLSM")
        assert math.isfinite(loo.mean_offset)
        assert math.isfinite(loo.mean_bias)  # bias is one sample
        assert math.isnan(loo.std) and math.isnan(loo.bias_se)
        target = tmp_path / "single.csv"
        emit_csv(report, str(target))
        line = target.read_text().splitlines()[3]
        assert line.endswith(",,") or ",,," in line  # empty spread columns

    def test_control_variate_leaves_bias_columns_unchanged(self):
        raw = run_experiment1(tiny_exp1(control_variate=False))
        adj = run_experiment1(tiny_exp1(control_variate=True))
        for a, b in zip(raw.rows, adj.rows):
            if a.estimator in ("LSM2", "LOOLSM"):
                assert b.mean_bias == pytest.approx(a.mean_bias, abs=1e-12)
            if a.estimator == "EUROPEAN":  # the European row is never adjusted
                assert b.mean_offset == pytest.approx(a.mean_offset, abs=1e-12)

    def test_cells_read_every_estimator_off_one_stack(self):
        stack = harness.price_set(tiny_exp1(), 100.0, 0)
        cells = harness._cells(stack, 6.33, 1.5)
        for j, mode in enumerate(("LSM", "LOOLSM", "LSM2")):
            assert cells[mode].price.tolist() == [stack.means(6.33)[0, j]]
            assert cells[mode].wall_ms == 1.5
        for j, mode in enumerate(("LSM", "LOOLSM")):
            assert cells[mode].flips == stack.flips[0, j].sum()
            assert cells[mode].min_rank == stack.ranks.min()
        # the two-pass estimator makes no regression: no flips, the policy's ranks
        assert (cells["LSM2"].flips, cells["LSM2"].min_rank) == (0, min(stack.policy.ranks))

    def test_missing_reference_price_is_a_config_error(self):
        with pytest.raises(ConfigError, match="known keys"):
            run_experiment1(tiny_exp1(keys=(85.0,)))

    def test_other_models_are_not_compared_with_the_table(self):
        # the table prices the shipped vol-0.4 basket; at vol 0.2 it has no
        # reference of either kind, so every offset is empty, and a control
        # variate has no exact European price to shift by
        config = dataclasses.replace(
            default_config("basket_call", 1, "desk"), vol=0.2, keys=(100.0,), n_paths=2000, n_mc=4
        )
        report = run_experiment1(config)
        assert [r.estimator for r in report.rows] == ["LSM", "LSM2", "LOOLSM", "EUROPEAN"]
        for row in report.rows:
            assert math.isnan(row.mean_offset) and math.isnan(row.std) and math.isnan(row.se_mean)
        assert all(math.isfinite(r.mean_bias) for r in report.rows[1:3])
        with pytest.raises(ConfigError, match="no exact European price"):
            run_experiment1(dataclasses.replace(config, control_variate=True))

    def test_other_put_model_has_a_closed_form_european_reference(self):
        # off the shipped model any key runs: the European row is offset from
        # Black-Scholes, which the control variate also shifts by
        config = tiny_exp1(vol=0.3, keys=(95.0,), n_mc=6, control_variate=True)
        rows = {r.estimator: r for r in run_experiment1(config).rows}
        assert all(math.isnan(rows[e].mean_offset) for e in ("LSM", "LSM2", "LOOLSM"))
        euro = rows["EUROPEAN"]
        exact = bs_european_put(100.0, 0.3, 0.05, 0.02, 95.0, 1.0)
        bermudan, european, shift = harness._references(config, 95.0)
        assert math.isnan(bermudan) and european == shift == exact
        assert abs(euro.mean_offset) < 4 * euro.se_mean

    def test_only_the_shipped_model_reads_the_table(self):
        for case in ("put_single", "bestof_call", "basket_call"):
            for experiment, scale in ((1, "desk"), (2, "paper")):
                assert default_config(case, experiment, scale).has_shipped_model()
            config = default_config(case)
            assert dataclasses.replace(config, keys=(1.0,), n_paths=10**6).has_shipped_model()
            scale_field = "strike" if case == "bestof_call" else "spot"
            for name in ("vol", "rate", "dividend", "correlation", "maturity", scale_field):
                changed = dataclasses.replace(config, **{name: getattr(config, name) + 0.125})
                assert not changed.has_shipped_model(), (case, name)
            assert not dataclasses.replace(config, n_dates=config.n_dates + 1).has_shipped_model()

    def test_byte_level_reproducibility_and_thread_invariance(self):
        a = run_experiment1(tiny_exp1())
        b = run_experiment1(tiny_exp1())
        c = run_experiment1(tiny_exp1(threads=3))
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()

    # sha256 of run_experiment1(...).fingerprint() as computed when LSM2 had a
    # pass of its own that rebuilt the valuation paths' design matrices
    PINNED_DIGESTS = {
        ("put_single", False):
            "3923749eecebb58db0165846c8f1b3782a6e89a6af3dd521e3df6a6f20d970a0",
        ("put_single", True):
            "4507f72efddeb1f9ed6ed283ab9afe8696b13d8e4ecac688e727562c3bf53aed",
        ("bestof_call", False):
            "f929df524c1eaaff7355ed94f4b4b23bcbf22bc6483c2f423b3c64fcb8059378",
        ("bestof_call", True):
            "9d8c9cc5c34961b86c4981eeec78f4cbffc60b67b5acfafdf2ab191b2402fa4b",
        ("basket_call", False):
            "40002f239a703e4bd4284c2ed50d7ad9ec757245a5d8b549abf6985858858764",
        ("basket_call", True):
            "6ec37110ff73559f6a87a5d036b1b05cef2a5ff109975935fbfd5c5b7e9285c4",
        ("put_single", ("LSM2",)):
            "37d2eafadda53e7c3bad8308015bd1a43f9c728a91e7f9b47350beae824e6b4e",
        ("basket_call", ("LSM2",)):
            "0f6bf09d6cda102cd9ba4e3229cc84f7e03daaff19ed9669d66987b60d7c97f1",
        ("put_single", ("LSM", "LOOLSM")):
            "9300ab72329850e09e2e7a7358d9a47d974a6de74d55473da4ac5b27fda3ffe4",
        ("basket_call", ("LSM", "LOOLSM")):
            "5f3fd20eff1c2abef8e9b43b7631424fe0d334ca479dc55389d9c15b816189b4",
    }

    def test_fingerprints_are_pinned(self):
        # the case's own basis, every estimator, control variate on and off;
        # then estimator subsets (control variate on) at 1 and 3 threads
        for (case, variant), digest in self.PINNED_DIGESTS.items():
            config = dataclasses.replace(
                default_config(case, 1, "desk"), keys=(100.0,), n_paths=600, n_mc=3, base_seed=99
            )
            if isinstance(variant, bool):
                runs = [dataclasses.replace(config, control_variate=variant)]
            else:
                runs = [
                    dataclasses.replace(
                        config, estimators=variant, control_variate=True, threads=threads
                    )
                    for threads in (1, 3)
                ]
            for run in runs:
                got = hashlib.sha256(run_experiment1(run).fingerprint()).hexdigest()
                assert got == digest, (case, variant, run.threads)

    # sha256 of the coefficients and then the ranks (int64) of the exercise
    # policy that price_set fits for set 0 of the desk config's middle key, as
    # computed when the policy pass also carried a leave-one-out column; the
    # put at basis_m = 20 (2,000 paths) is rank deficient at every date
    POLICY_DIGESTS = {
        ("put_single", None): "ca251e5f9f2e4fe40f4312eaaf73f15460b085f80daf8047c7b6a987d1a672dd",
        ("bestof_call", None): "cdc3d6c7b49f4b7ccf349e8bf01e4a51320035c01b4fafb1d807aecc187bb996",
        ("basket_call", None): "530182013251e89a2f9ad684d63ac82a874212e6f85ee1530387f165b8817fa1",
        ("put_single", 20): "66c05d5fbfb201246e32950a328731f3e1ee737af92afc0e03ac5f456708ca81",
    }

    @pytest.mark.parametrize("case, basis_m", list(POLICY_DIGESTS))
    def test_policies_are_pinned(self, case, basis_m):
        config = default_config(case, 1, "desk")
        if basis_m is not None:
            config = dataclasses.replace(config, basis_m=basis_m, n_paths=2000)
        policy = harness.price_set(config, config.keys[len(config.keys) // 2], 0).policy
        data = np.array(policy.coefficients).tobytes() + np.array(policy.ranks).tobytes()
        assert hashlib.sha256(data).hexdigest() == self.POLICY_DIGESTS[case, basis_m]
        assert (basis_m is None) == (min(policy.ranks) == config.basis_m)

    def test_control_variate_shrinks_basket_dispersion(self):
        # the European payout explains most of the basket estimator noise once
        # sets are large enough that policy noise stops dominating
        config = dataclasses.replace(
            default_config("basket_call", 1, "desk"),
            keys=(100.0,), n_paths=6000, n_mc=20,
            estimators=("LSM", "LOOLSM"), base_seed=4242,
        )
        raw = run_experiment1(dataclasses.replace(config, control_variate=False))
        adj = run_experiment1(dataclasses.replace(config, control_variate=True))
        for estimator in ("LSM", "LOOLSM"):
            r = next(x for x in raw.rows if x.estimator == estimator)
            a = next(x for x in adj.rows if x.estimator == estimator)
            assert a.std < r.std


class TestExperiment2:
    def test_rows_and_slope(self):
        report = run_experiment2(tiny_exp2())
        # two estimators per (m, n_mc) cell
        assert len(report.rows) == 2 * 2 * 2
        assert report.slope is not None
        assert report.slope.n_points == 4
        lsm_rows = [r for r in report.rows if r.estimator == "LSM"]
        loo_rows = [r for r in report.rows if r.estimator == "LOOLSM"]
        for a, b in zip(lsm_rows, loo_rows):
            assert a.mean_bias == b.mean_bias  # the cell's bias, not per estimator

    def test_bias_is_control_variate_invariant(self):
        raw = run_experiment2(tiny_exp2(control_variate=False))
        adj = run_experiment2(tiny_exp2(control_variate=True))
        for a, b in zip(raw.rows, adj.rows):
            assert b.mean_bias == pytest.approx(a.mean_bias, abs=1e-12)
            assert b.flips_total == a.flips_total

    def test_other_models_have_no_bermudan_reference(self):
        # the table prices the vol-0.2 put; at vol 0.3 no offset has a
        # reference, and the bias columns need none
        config = tiny_exp2(vol=0.3, pool_size=14400, n_mc_list=(10, 40), m_list=(4, 8))
        report = run_experiment2(config)
        for row in report.rows:
            assert math.isnan(row.mean_offset) and math.isnan(row.std) and math.isnan(row.se_mean)
            assert math.isfinite(row.mean_bias) and math.isfinite(row.bias_se)
        shipped = run_experiment2(dataclasses.replace(config, vol=0.2))
        assert all(math.isfinite(r.mean_offset) for r in shipped.rows)

    def test_wall_ms_is_the_busy_time_of_the_run(self):
        # each row reports a share of its stacks' steps; together they cannot
        # exceed the run's wall time on every thread
        for threads in (1, 2):
            t0 = time.perf_counter()
            report = run_experiment2(tiny_exp2(threads=threads))
            wall_ms = (time.perf_counter() - t0) * 1e3
            assert all(row.wall_ms > 0.0 for row in report.rows)
            assert sum(row.wall_ms for row in report.rows) <= wall_ms * threads

    def test_requires_single_key(self):
        with pytest.raises(ConfigError, match="one strike"):
            run_experiment2(tiny_exp2(keys=(90.0, 100.0)))

    # sha256 of run_experiment2(tiny_exp2(n_mc_list=...)).fingerprint() as the
    # whole-pool pricing computed it, before the pool was priced chunk by chunk
    WHOLE_POOL_DIGESTS = {
        (3, 6):
            "b62eabcd759cb6e1796c6a6004891eacbeac00f7ee035c761655d0cee93eed6a",
        (2, 3):
            "db502ec35c7409a6e221bbbf6dfaeed83c572681b454bdac90d0d82c7cf5b4ac",
    }

    # sha256 of the basket's desk experiment 2 on a 2,400-pool split into 2 and
    # 4 sets: its three nested bases fitted from one factorization per group
    BASKET_DIGEST = "5c7f3ba0702c0563ed3625879798ddf49767f1967349224c8c7761315101b8c7"

    def test_reproducible_across_threads(self):
        # (3, 6) prices 3 chunks of 2000 paths and (2, 3) one chunk of 6000;
        # the basket prices 2 chunks of 1200
        runs = [(tiny_exp2(n_mc_list=n), digest) for n, digest in self.WHOLE_POOL_DIGESTS.items()]
        basket = dataclasses.replace(
            default_config("basket_call", 2, "desk"), pool_size=2400, n_mc_list=(2, 4)
        )
        runs.append((basket, self.BASKET_DIGEST))
        for config, digest in runs:
            for threads in (1, 2, 3):
                report = run_experiment2(dataclasses.replace(config, threads=threads))
                got = hashlib.sha256(report.fingerprint()).hexdigest()
                assert got == digest, (config.case, config.n_mc_list, threads)

    def test_blas_threads_move_no_bit(self):
        # tests/conftest.py pins BLAS to one thread; a run on two BLAS threads
        # in a fresh process must give the same report
        config = dataclasses.replace(
            default_config("basket_call", 2, "desk"), pool_size=28_800, n_mc_list=(2, 8, 24)
        )
        probe = (
            "import dataclasses, hashlib, sys; from lsmc import harness;"
            " c = dataclasses.replace(harness.default_config('basket_call', 2, 'desk'),"
            " pool_size=28_800, n_mc_list=(2, 8, 24));"
            " print(hashlib.sha256(harness.run_experiment2(c).fingerprint()).hexdigest())"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": str(Path(lsmc.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=300, check=True)
        pinned = hashlib.sha256(run_experiment2(config).fingerprint()).hexdigest()
        assert done.stdout.strip() == pinned

    def test_memory_is_bounded_by_the_chunk(self):
        # 10 chunks of 4,800 paths: nothing close to the whole pool is held
        config = dataclasses.replace(
            default_config("basket_call", 2, "desk"),
            pool_size=48_000, n_mc_list=(10, 40), m_list=(6, 16), threads=1,
        )
        pool_bytes = config.pool_size * config.n_dates * N_ASSETS[config.case] * 8
        tracemalloc.start()
        try:
            run_experiment2(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool_bytes, peak / pool_bytes

    def test_scaled_down_basket_grid_bias_structure(self):
        # 14,400-path pool, 9 (M, N) cells: bias is positive everywhere and
        # grows with M at fixed N and with 1/N at fixed M
        config = dataclasses.replace(
            default_config("basket_call", 2, "desk"),
            pool_size=14_400, n_mc_list=(10, 40, 120), base_seed=4242,
        )
        report = run_experiment2(config)
        bias = {(r.m, r.n_paths): r.mean_bias for r in report.rows if r.estimator == "LSM"}
        assert len(bias) == 9
        assert all(b > 0.0 for b in bias.values())
        for n in (1440, 360, 120):
            assert bias[(6, n)] < bias[(10, n)] < bias[(16, n)]
        for m in (6, 10, 16):
            assert bias[(m, 1440)] < bias[(m, 360)] < bias[(m, 120)]


class TestCli:
    def test_price_command_smoke(self, capsys):
        code = main(["price", "--case", "put_single", "--mode", "LOOLSM",
                     "--strike", "100", "--paths", "2000", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        price = float(next(line.split()[1] for line in out.splitlines()
                           if line.startswith("price")))
        assert 4.0 < price < 9.0

    # sha256 of the stdout of `lsmc price --case CASE --strike KEY --mode MODE
    # --paths 2000 --seed 5` as computed before the command shared the
    # experiment-1 set pricing; 85 is off the put's reference grid.  A best-of
    # key is its common spot, so that case passes --spot KEY; its digest was
    # computed later, with the shared pricing (price 14.329388, ranks all 11)
    PRICE_DIGESTS = {
        ("put_single", "100", "LSM"):
            "e3deca27f4c1137234be12942ca90fe31b582fb5227e9f913878693edc3f39f1",
        ("put_single", "100", "LOOLSM"):
            "0c27018fbd0030a66af125fdd803507313639a430bf787abbefbc4fcc2715394",
        ("put_single", "100", "LSM2"):
            "0170b76b1c1254d5c8a1cf41c9423fa98cd0fbef7f9b11d240b5f10a9f5cb251",
        ("put_single", "100", "EUROPEAN"):
            "84fdf0b304af9ed445fa3f2a8cf4c931df737b987adce62e9260a476ce5a622d",
        ("basket_call", "100", "LSM"):
            "2b6a7a075f0ebc140fbc97dac207274f1d0f4113ed4ede7bcfc6478a6e5cd287",
        ("basket_call", "100", "LOOLSM"):
            "34b7803386110277ae7726f22ce26720b406111f7466df483faa8f6d26c9f64c",
        ("basket_call", "100", "LSM2"):
            "f23cb8f4d77bd047a90d0642c5e48b742ebc2825755528955ab20f9de003483e",
        ("basket_call", "100", "EUROPEAN"):
            "747c97d2520775274d77c812ab959538e6f9459597e3dee0ef0df174c545f79b",
        ("put_single", "85", "LSM"):
            "fb4466c1e3ae5268f390005b80bd49d179958f227e4d698e0628a64a1f07bc5b",
        ("put_single", "85", "LOOLSM"):
            "73e7be69347fe5c46b2264babb8962b396e31617937cfb1d74593dc2d0c8e93d",
        ("put_single", "85", "LSM2"):
            "4724d405da22f78fe15c9d97e4ac8968da1cfb6eb1d78c6ccaf0d3c06be21872",
        ("put_single", "85", "EUROPEAN"):
            "d41790cf33ceb0b808a8261ce594bdd6eaa7143eefe8e53e112476472e91572b",
        ("bestof_call", "100", "LOOLSM"):
            "6e4e9ed86da27dc52d16db90cae47cb4a50b3f8c93b89c44987383ece0b3777f",
        ("bestof_call", "100", "LSM2"):
            "03b776c020d1f11a716f5a9a3503ee098ff3c4a910e168aba01d46ef2a639b5e",
    }

    @pytest.mark.parametrize("case, key, mode", list(PRICE_DIGESTS))
    def test_price_command_output_is_pinned(self, capsys, case, key, mode):
        key_flag = "--spot" if case == "bestof_call" else "--strike"
        code = main(["price", "--case", case, "--mode", mode, key_flag, key,
                     "--paths", "2000", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PRICE_DIGESTS[case, key, mode], out

    def test_price_without_antithetic_pairs(self, capsys):
        # an odd path count is refused under antithetic sampling (test_bad_config_exits_2)
        # and priced without it; the standard error is then taken over single paths
        argv = "price --case put_single --strike 100 --paths 2001 --seed 5 --no-antithetic"
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == (
            "case        put_single (key 100)\n"
            "mode        LOOLSM\n"
            "price       6.463245\n"
            "std_error   0.174897\n"
            "ranks       5 5 5 5\n"
            "flips       2 5 2 4\n"
            "fallbacks   0\n"
        )

    def test_price_command_runs_the_policy_pass_only_for_lsm2(self, monkeypatch, capsys):
        path_sets = []

        def counted(*args, **kwargs):
            path_sets.append(args)
            return generate_paths(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_paths", counted)
        for mode in ("LSM", "LOOLSM", "EUROPEAN", "LSM2"):
            path_sets.clear()
            assert main(["price", "--case", "put_single", "--mode", mode, "--strike", "100",
                         "--paths", "400", "--seed", "5"]) == 0
            assert len(path_sets) == (2 if mode == "LSM2" else 1), mode

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--case", "bestof_call", "--key", "100"]) == 0
        out = capsys.readouterr().out
        assert "13.902" in out and "11.196" in out

    def test_oracle_unknown_key_exits_2(self, capsys):
        assert main(["oracle", "--case", "put_single", "--key", "85"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no reference price")

    def test_experiment1_with_config_and_output(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("keys = 100\nn_paths = 400\nn_mc = 2\nbasis_m = 4\nbase_seed = 3\n")
        out = tmp_path / "report.csv"
        code = main(["experiment1", "--case", "put_single", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        with open(out, encoding="utf-8") as f:
            records = list(csv.DictReader(f))
        assert len(records) == 4
        assert all(rec["N"] == "400" for rec in records)

    def test_experiment2_prints_slope(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("pool_size = 4000\nn_mc_list = 2, 4\nm_list = 2, 4\nbase_seed = 3\n")
        assert main(["experiment2", "--case", "put_single", "--config", str(cfg)]) == 0
        assert "slope=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, config",
        [
            ("experiment1 --case put_single", "n_paths = many"),
            ("experiment1 --case basket_call", "n_dates = 1"),
            ("experiment1 --case basket_call", "vol = -0.1"),
            ("experiment1 --case basket_call", "maturity = 0"),
            ("experiment1 --case basket_call", "correlation = -0.9"),
            ("experiment1 --case basket_call", "n_paths = 4"),
            ("experiment1 --case put_single", "pool_size = 1200"),
            ("experiment1 --case put_single", "n_mc_list = 0"),
            ("experiment1 --case put_single", "m_list = 1, 4"),
            ("experiment1 --case put_single", "pool_size = 2400\nn_mc_list = 32\nm_list = 4"),
            ("experiment1 --case put_single", "n_mc_list = 4, 4, 4\nm_list = 4"),
            ("experiment2 --case put_single", None),
            ("experiment2 --case put_single", "spot = 100  # caf\xe9".encode("latin-1")),
            (
                "experiment2 --case put_single --out {tmp}/no/such/report.csv",
                "pool_size = 4000\nn_mc_list = 2, 4\nm_list = 2, 4",
            ),
            ("experiment1 --case put_single", "keys = 100, 95\nn_paths = 400\nn_mc = 2"),
            ("experiment1 --case basket_call", "spot = nan"),
            ("experiment1 --case basket_call", "strike = inf"),
            ("experiment1 --case basket_call", "rate = -inf"),
            ("experiment1 --case basket_call", "dividend = nan"),
            ("experiment1 --case basket_call", "vol = inf"),
            ("experiment1 --case basket_call", "correlation = nan"),
            ("experiment1 --case basket_call", "maturity = inf"),
            ("experiment2 --case put_single", "keys = nan"),
            ("experiment1 --case basket_call", "rate = 1e308"),
            ("experiment1 --case basket_call", "rate = 700"),
            ("experiment1 --case basket_call", "rate = -700"),
            ("experiment1 --case basket_call", "dividend = -700"),
            ("experiment1 --case put_single", "rate = 300\nkeys = 100\nn_paths = 400\nn_mc = 2"),
            ("price --case put_single --strike 1e300 --paths 2000", None),
            ("experiment1 --case bestof_call", "strike = 1e300\nn_paths = 400\nn_mc = 2"),
            (
                "price --case basket_call --mode LOOLSM --spot 1.5e76 --strike 1.5e76"
                " --paths 2000",
                None,
            ),
            ("price --case basket_call --mode LOOLSM --spot 4e75 --strike 4e75 --paths 2000", None),
            ("experiment2 --case put_single", "strike = -1e300"),
            ("experiment1 --case bestof_call", "spot = 0"),
            ("experiment1 --case put_single", "keys = 100, 100"),
            ("experiment1 --case put_single", "estimators = LSM, LSM"),
            (
                "experiment2 --case put_single",
                "estimators = LSM2\npool_size = 2400\nn_mc_list = 2, 4\nm_list = 5, 2",
            ),
            ("experiment1 --case bestof_call", "vol = 0\ncontrol_variate = true"),
            ("experiment1 --case bestof_call", "correlation = 1\ncontrol_variate = true"),
            ("experiment1 --case put_single --out=", "keys = 100\nn_paths = 400\nn_mc = 2"),
            ("experiment1 --case put_single", "keys = 100\nn_paths = 400\nn_mc = 2\nout ="),
            (
                "experiment1 --case basket_call",
                "vol = 0.2\nkeys = 100\nn_paths = 2000\nn_mc = 4\ncontrol_variate = true",
            ),
            ("experiment2 --case basket_call", "vol = 0.2\npool_size = 14400"),
            ("price --case put_single --strike 100 --paths 2001 --seed 5", None),
            ("experiment1 --case put_single", "case = basket_call\nkeys = 100"),
            ("price --case put_single --strike 100 --paths 2000 --seed -1", None),
            ("experiment1 --case put_single", "base_seed = 18446744073709551616"),
        ],
        ids=["unparsable", "one_date", "negative_vol", "zero_maturity", "indefinite_corr",
             "paths_below_regressors", "sets_below_regressors", "zero_sets", "basis_size",
             "odd_antithetic_sets", "repeated_split", "missing_config_file", "not_utf8",
             "out_dir_missing", "off_grid_key", "nan_spot", "inf_strike", "minus_inf_rate",
             "nan_dividend", "inf_vol", "nan_correlation", "inf_maturity", "nan_key",
             "huge_rate", "rate_700", "rate_minus_700", "dividend_minus_700",
             "basis_power_overflow", "price_strike_overflow", "bestof_strike_overflow",
             "price_column_norm_overflow", "price_largest_path_overflow",
             "put_unread_negative_strike", "bestof_unread_zero_spot", "repeated_key",
             "repeated_estimator", "experiment2_estimators", "bestof_cv_zero_vol",
             "bestof_cv_unit_correlation", "empty_out_flag", "empty_out_line",
             "basket_cv_other_model", "basket_experiment2_other_model",
             "odd_antithetic_paths", "case_conflict", "negative_seed", "seed_above_64_bits"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, monkeypatch, command, config):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths generated for a rejected run")

        monkeypatch.setattr(harness, "generate_paths", no_paths)
        cfg = tmp_path / "bad.cfg"  # None: the file does not exist
        if isinstance(config, bytes):
            cfg.write_bytes(config + b"\n")
        elif config is not None:
            cfg.write_text(config + "\n")
        argv = command.format(tmp=tmp_path).split()
        if not command.startswith("price"):  # price takes no config file
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any path or row is computed
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err[len("error: ")] not in "\"'"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    def test_failed_report_write_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("keys = 100\nn_paths = 400\nn_mc = 2\n")
        argv = ["experiment1", "--case", "put_single", "--config", str(cfg), "--out", "/dev/full"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_COLUMNS)  # the report reached stdout first
        assert captured.err.startswith("error: cannot write report to '/dev/full': ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, config, code, rows",
        [
            ("price --case put_single --strike 100 --paths 400", None, 0, None),
            (
                "experiment1 --case put_single --out {out}",
                "keys = 100\nn_paths = 400\nn_mc = 2",
                0,
                4,
            ),
            (
                "experiment2 --case put_single --out {out}",
                "pool_size = 2400\nn_mc_list = 2, 4",
                0,
                12,
            ),
            pytest.param(
                "experiment1 --case put_single --out /dev/full",
                "keys = 100\nn_paths = 400\nn_mc = 2",
                2,
                None,
                marks=pytest.mark.skipif(
                    not os.path.exists("/dev/full"), reason="needs a full device"
                ),
            ),
        ],
        ids=["price", "experiment1", "experiment2", "experiment1_full_out"],
    )
    def test_closed_stdout_ends_no_run(
        self, tmp_path, capsys, monkeypatch, command, config, code, rows
    ):
        # a reader that closed the pipe early: every write to stdout fails
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        out = tmp_path / "report.csv"
        argv = command.format(out=out).split()
        if config is not None:
            (tmp_path / "tiny.cfg").write_text(config + "\n")
            argv += ["--config", str(tmp_path / "tiny.cfg")]
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(argv) == code  # the run's own exit code
            # the rest of stdout, and the flush at exit, go to the null device
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: cannot write report to ") and err.count("\n") == 1
        if rows is not None:  # the report is still written in full
            with open(out, encoding="utf-8") as f:
                records = list(csv.DictReader(f))
            assert len(records) == rows and all(rec["wall_ms"] for rec in records)

    def test_threads_flag_overrides_the_config_file(self, tmp_path, capsys, monkeypatch):
        map_sets, seen = harness._map_sets, []

        def recorded(worker, n_sets, threads):
            seen.append(threads)
            return map_sets(worker, n_sets, threads)

        monkeypatch.setattr(harness, "_map_sets", recorded)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("keys = 100\nn_paths = 400\nn_mc = 2\nthreads = 2\n")
        argv = ["experiment1", "--case", "put_single", "--config", str(cfg)]
        for flag, threads in (([], 2), (["--threads", "1"], 1), (["--threads", "3"], 3)):
            assert main(argv + flag) == 0
            assert seen.pop() == threads and not seen

    def test_price_reads_only_its_own_basis(self, capsys):
        # the m=5 put basis has degree 3, so a spot of 1e50 keeps its columns
        # finite; the experiment-2 m_list, which price never fits, reaches 10
        per_spot = []
        for spot in ("100", "1e50"):
            argv = ["price", "--case", "put_single", "--spot", spot, "--strike", spot]
            assert main(argv + ["--paths", "2000"]) == 0
            out = capsys.readouterr().out
            price = next(line.split()[1] for line in out.splitlines() if line.startswith("price"))
            per_spot.append(float(price) / float(spot))
        assert per_spot[1] == pytest.approx(per_spot[0], rel=1e-6)
        # --basis-m 20 fits a 20-term basis, rank deficient at the first two
        # dates, so the fit's SVD route and the betas LSM2 follows are reached
        argv = ["price", "--case", "put_single", "--basis-m", "20", "--paths", "2000"]
        assert main(argv) == 0
        assert "ranks       15 15 16 16" in capsys.readouterr().out.splitlines()
        assert main(argv + ["--mode", "LSM2"]) == 0

    def test_config_loader_reads_files(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("vol = 0.3\n")
        assert load_config_file(str(cfg)) == {"vol": 0.3}


@st.composite
def _entries(draw, values):
    xs = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
    if draw(st.sampled_from([False] * 9 + [True])):
        xs.append(xs[0])  # a repeated entry
    return ", ".join(str(x) for x in xs)


@st.composite
def experiment2_config_files(draw):
    """Tiny experiment-2 config files; some carry one bad field, one nan or
    infinite float, one huge finite float, or a rate or dividend that
    overflows the discount factor or the forward growth, and some split the
    pool into sets that do not divide it or break its antithetic pairs.  Also
    says whether the file holds a float the config must refuse."""
    case = draw(st.sampled_from(["put_single", "basket_call"]))
    sizes = [2, 4, 5] if case == "put_single" else [6, 10, 16]
    lines = {
        "n_dates": draw(st.integers(2, 4)),
        "vol": draw(st.sampled_from([0.2, 0.4, 0.0])),
        "correlation": draw(st.sampled_from([0.5, 0.0, 1.0])),
        "pool_size": draw(st.sampled_from([240, 600, 1200])),
        "n_mc_list": draw(_entries([2, 4, 3, 5, 1, 8, 10, 12, 32])),
        "m_list": draw(_entries(sizes)),
        "threads": draw(st.integers(1, 3)),
    }
    bad = {"n_dates": 1, "vol": -0.1, "correlation": -0.9, "n_mc_list": 0,
           "m_list": sizes[0] - 1, "threads": 0, "base_seed": -1}
    field = draw(st.sampled_from([None, *bad]))
    if field is not None:
        lines[field] = bad[field]
    floats = ["keys", "spot", "strike", "rate", "dividend", "vol", "correlation", "maturity"]
    huge = draw(st.sampled_from([None] * 4 + floats))  # before the floats that must be refused
    if huge is not None:
        lines[huge] = draw(st.sampled_from(["1e300", "-1e300", "1e154", "-1e154", "1e76"]))
    # a negative scale is refused whether or not the case reads that field
    negative_scale = huge in ("keys", "spot", "strike") and lines[huge].startswith("-")
    non_finite = draw(st.sampled_from([None] * 4 + floats))
    if non_finite is not None:
        lines[non_finite] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    overflow = draw(st.sampled_from(
        [None] * 4 + [("rate", "1e308"), ("rate", "700"), ("rate", "-700"), ("dividend", "-700")]
    ))
    if overflow is not None:
        lines[overflow[0]] = overflow[1]
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    return case, text, negative_scale or non_finite is not None or overflow is not None


@settings(max_examples=100, deadline=None)
@given(experiment2_config_files())
def test_config_files_run_or_exit_2(drawn):
    # any config file either runs or is refused with one error line; a
    # traceback would escape main() and fail the example
    case, text, refused = drawn
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["experiment2", "--case", case, "--config", path])
    finally:
        os.remove(path)
    assert code in (0, 2), err.getvalue()
    assert code == 2 or not refused
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert out.getvalue().startswith(CSV_COLUMNS)
