"""One workload in its own process: set up, then run it until the time is up.

Started by run.py with the BLAS thread variables pinned to 1 and `src` on
PYTHONPATH.  Writes one JSON object per line to stdout: a `ready` event once
lsmc is imported, the config is built and the reference prices are looked up
(the end of set-up), one `run` event per experiment run, and a final `done`
event with the process's peak resident set size.  With --setup-only it stops
after `ready`.

Untraced runs are bracketed by a calibration: a fixed NumPy kernel, independent
of lsmc, timed on as many threads as the workload's pool.  On a shared 2-vCPU
cloud VM the CPU speed drifts by 15-20% over minutes and the kernel slows with
it, so a run's wall time divided by the mean of the calibrations on either side
of it varies far less between runs than the wall time itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def make_calibration(threads: int):
    """Function returning the mean time of one pass of a fixed NumPy kernel run
    at once on each of `threads` threads."""
    import numpy as np

    rng = np.random.default_rng(20170907)
    x = rng.standard_normal((20_000, 16))
    y = rng.standard_normal(20_000)

    def kernel(_=None) -> float:
        t0 = time.perf_counter()
        for _ in range(8):
            u, _s, _vt = np.linalg.svd(x, full_matrices=False)
            (u @ (u.T @ y)).sum() + np.exp(0.1 * x).sum() + (x**3).sum()
        return time.perf_counter() - t0

    def calibrate() -> float:
        if threads == 1:
            return kernel()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return statistics.fmean(pool.map(kernel, range(threads)))

    return calibrate


def machine_facts(lsmc, threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "pool_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lsmc": os.path.dirname(lsmc.__file__),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import lsmc
    import lsmc.harness
    import lsmc.oracles

    from spans import Tracer
    from workloads import WORKLOADS, build_config, check_report, fingerprint_digest
    from workloads import reference_lookup
    from workloads import run as run_workload

    workload = WORKLOADS[args.workload]
    config = build_config(lsmc, workload, args.seed, args.scale)
    bermudan, european = reference_lookup(lsmc, config)
    emit("ready", base_seed=config.base_seed, reference=[bermudan, european])
    if args.setup_only:
        return 0
    emit("machine", **machine_facts(lsmc, config.threads))

    # Untraced runs only, or (traced mode) an untraced run for the tracing
    # overhead, two traced runs, then alternately untraced and traced runs.
    # Another run starts while a typical one fits in the time left.
    plan = [False] if not args.trace else [False, True, True]
    minimum = 3 if not args.trace else len(plan)
    if not args.trace:
        calibrate = make_calibration(config.threads)
        calibrate(), calibrate()  # warm-up; the first passes run slow
        calibration = calibrate()
    steps: list[float] = []
    start = time.perf_counter()
    while len(steps) < minimum or (
        time.perf_counter() - start + statistics.median(steps) <= args.seconds
    ):
        step_start = time.perf_counter()
        traced = plan[len(steps)] if len(steps) < len(plan) else args.trace and len(steps) % 2 == 0
        tracer = Tracer() if traced else contextlib.nullcontext()
        report, problems = None, []
        with tracer:
            t0 = time.perf_counter()
            try:
                report = run_workload(lsmc, workload, config)
            except Exception:  # a failed run is counted, not fatal
                problems.append(traceback.format_exc(limit=3))
            wall = time.perf_counter() - t0
        record = {"traced": traced, "wall_s": wall}
        if report is not None:
            problems += check_report(workload, config, report, args.scale)
            record["fingerprint"] = fingerprint_digest(report)
        if traced:
            record["trace"] = tracer.summary(wall, config.threads)
        elif not args.trace:
            after = calibrate()
            record["calibration_s"] = (calibration + after) / 2.0
            calibration = after
        emit("run", problems=problems, **record)
        steps.append(time.perf_counter() - step_start)
    emit("done", maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
