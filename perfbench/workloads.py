"""The benchmark's workloads and the correctness check applied to every run.

Each workload is one call of a public `lsmc.harness` entry point on a config
built from `default_config`.  `scale="tiny"` shrinks the simulation sizes so
the smoke test can exercise every code path in seconds; measured runs always
use `scale="full"`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

# Sets priced per basket_table run: each set is about 1.3 s of work on one
# core, so a run is long enough to time and short enough to repeat.
BASKET_TABLE_SETS = 3

# Criterion 6: classical minus leave-one-out bias must be positive in every
# cell at or above this regressors-to-paths ratio.
BIAS_RULE_MIN_RATIO = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    experiment: int
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("basket_table", "basket_call", experiment=1, threads=1),
        Workload("put_bias", "put_single", experiment=2, threads=1),
        Workload("basket_bias", "basket_call", experiment=2, threads=2),
    )
}


def build_config(lsmc, workload: Workload, seed: int, scale: str):
    """ExperimentConfig for one run of the workload with base_seed = seed."""
    harness = lsmc.harness
    if workload.experiment == 1:
        config = dataclasses.replace(
            harness.default_config(workload.case, 1, "paper"),
            keys=(100.0,),
            control_variate=True,
            n_mc=BASKET_TABLE_SETS,
        )
        if scale == "tiny":
            config = dataclasses.replace(config, n_paths=2_000, n_mc=2)
    else:
        config = harness.default_config(workload.case, 2, "desk")
        if scale == "tiny":
            config = dataclasses.replace(config, pool_size=2_400, n_mc_list=(2, 4))
    return dataclasses.replace(config, base_seed=seed, threads=workload.threads)


def reference_lookup(lsmc, config) -> tuple[float, float]:
    """Reference Bermudan price and exact European price for the config's key."""
    key = config.keys[0]
    ref = lsmc.oracles.reference_price(config.case, key)
    if config.case == "put_single":
        euro = lsmc.oracles.bs_european_put(
            config.spot, config.vol, config.rate, config.dividend, key, config.maturity
        )
    else:
        euro = ref.european
    return ref.bermudan, euro


def run(lsmc, workload: Workload, config):
    if workload.experiment == 1:
        return lsmc.harness.run_experiment1(config)
    return lsmc.harness.run_experiment2(config)


def expected_rows(workload: Workload, config) -> int:
    if workload.experiment == 1:
        return len(config.keys) * (len(config.estimators) + 1)  # + the European row
    return len(config.m_list) * len(config.n_mc_list) * 2  # LSM and LOOLSM rows


def check_report(workload: Workload, config, report, scale: str) -> list[str]:
    """Reasons the report is wrong; empty when it passes.

    The bias rule is statistical and holds only with the full set counts, so
    it is skipped at the tiny scale.
    """
    problems = []
    n = expected_rows(workload, config)
    if len(report.rows) != n:
        problems.append(f"{len(report.rows)} report rows, expected {n}")
    for row in report.rows:
        if not math.isfinite(row.mean_offset):
            problems.append(f"non-finite price offset in {row.estimator} M={row.m} N={row.n_paths}")
    if workload.experiment == 2 and scale == "full":
        for row in report.rows:
            ratio = row.m / row.n_paths
            if row.estimator == "LSM" and ratio >= BIAS_RULE_MIN_RATIO and not row.mean_bias > 0.0:
                problems.append(
                    f"LSM-LOO bias {row.mean_bias} is not positive at M={row.m}, N={row.n_paths}"
                )
    return problems


def fingerprint_digest(report) -> str:
    return hashlib.sha256(report.fingerprint()).hexdigest()
