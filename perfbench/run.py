"""lsmc benchmark: time the experiment workloads end to end, or trace them by layer.

    python3 perfbench/run.py --workload basket_table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from its `src`.
Each workload runs in its own child process (child.py) with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, so the
process uses exactly the pool threads of the workload.  The seed becomes the
experiment's `base_seed`.

Set-up time is measured from spawning a child to its report that lsmc is
imported, the config built and the reference prices looked up; it is the
median over several children that only set up, plus the measuring child.  The
measuring child then repeats the experiment until --seconds are used.  Every
run is checked (row count, finite prices, the criterion-6 bias rule on the
experiment-2 workloads, and a report fingerprint equal across runs of the same
source and seed); a run failing any check counts toward `error_rate`.

With --trace 0 the last stdout line carries the end-to-end metrics:

    wall_calibrated  median over runs of run wall time / calibration time
                     (child.py), the machine-drift-corrected run time
    setup_s          median set-up time
    peak_rss_mib     ru_maxrss of the measuring child

With --trace 1 it carries the per-layer metrics of spans.py.  The lines above
it are a readable summary: the raw median wall_s with its run count,
error_rate, the machine facts and, traced, the per-layer self and busy times.
The full record is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from spans import EXACT_METRICS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_calibrated": "ratio", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_ONLY_CHILDREN = {"full": 2, "tiny": 1}
CHILD_TIMEOUT_S = 150.0


class ChildError(RuntimeError):
    """The child could not set up, so the benchmark has no result to report."""


def source_digest() -> str:
    """Digest of the package source, so stored fingerprints follow the code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lsmc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args, setup_only: bool, seconds: float = 0.0) -> tuple[float, list[dict], int]:
    """Start child.py; return its set-up time, its events and its exit code."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--seconds", str(seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    events, setup_s = [], math.nan
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                setup_s = time.perf_counter() - start
            events.append(event)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if math.isnan(setup_s):
        raise ChildError(f"child for {args.workload} exited with code {code} before set-up ended")
    return setup_s, events, code


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least 10 samples above it, or None if n <= 10."""
    n = len(values)
    if n <= 10:
        return None
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(values)[n - 11]


def check_fingerprints(args, runs: list[dict]) -> list[str]:
    """Every run must reproduce the fingerprint stored for this source and seed."""
    prints = {r["fingerprint"] for r in runs if "fingerprint" in r}
    if not prints:
        return []
    store = RESULTS / f"fingerprint-{args.workload}-{args.scale}-seed{args.seed}-{source_digest()}"
    problems = []
    if len(prints) > 1:
        problems.append(f"report fingerprint differs between runs: {sorted(prints)}")
    if store.exists():
        expected = store.read_text().strip()
        if prints != {expected}:
            problems.append(f"report fingerprint differs from the earlier run in {store.name}")
    else:
        RESULTS.mkdir(exist_ok=True)
        store.write_text(min(prints) + "\n")
    return problems


def check_exact(traced: list[dict]) -> list[str]:
    first = traced[0]["trace"]["metrics"]
    return [
        f"{name} differs between traced runs"
        for name in EXACT_METRICS
        if name in first and any(r["trace"]["metrics"][name] != first[name] for r in traced)
    ]


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    names = [n for n in PER_LAYER_UNITS if n != "trace.overhead_s"]
    metrics = {
        n: statistics.median(r["trace"]["metrics"][n] for r in traced)
        if n not in EXACT_METRICS else traced[0]["trace"]["metrics"][n]
        for n in names
    }
    metrics["trace.overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(r["wall_s"] for r in untraced)
    return metrics


def bench(args) -> dict:
    """One workload: set-up probes, then the measuring child; returns the record."""
    setups = [run_child(args, setup_only=True)[0] for _ in range(SETUP_ONLY_CHILDREN[args.scale])]
    setup_s, events, code = run_child(args, setup_only=False, seconds=args.seconds)
    setups.append(setup_s)
    ready = next(e for e in events if e["event"] == "ready")
    machine = next((e for e in events if e["event"] == "machine"), {})
    runs = [e for e in events if e["event"] == "run"]
    done = next((e for e in events if e["event"] == "done"), None)

    problems = [p for r in runs for p in r["problems"]]
    failed = sum(1 for r in runs if r["problems"])
    attempted = len(runs)
    if code != 0 or done is None:
        problems.append(f"child exited with code {code} after {attempted} runs")
        attempted += 1
        failed += 1
    shared = check_fingerprints(args, runs)
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    if args.trace and traced:
        shared += check_exact(traced) + [p for r in traced for p in r["trace"]["problems"]]
    if shared:
        problems += shared
        failed = attempted

    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        metrics = layer_metrics(traced, untraced) if traced and untraced else {}
        units = PER_LAYER_UNITS
    else:
        metrics = {"setup_s": statistics.median(setups)}
        if untraced:
            metrics["wall_calibrated"] = statistics.median(
                r["wall_s"] / r["calibration_s"] for r in untraced
            )
        if done:
            metrics["peak_rss_mib"] = done["maxrss_kib"] / 1024.0
        units = END_TO_END_UNITS
    return {
        "workload": args.workload,
        "base_seed": ready["base_seed"],
        "scale": args.scale,
        "trace": args.trace,
        "machine": {k: v for k, v in machine.items() if k != "event"},
        "setup_samples_s": setups,
        "wall_samples_s": walls,
        "calibration_samples_s": [r.get("calibration_s") for r in untraced],
        "wall_tail": tail_percentile(walls),
        "traced_wall_samples_s": [r["wall_s"] for r in traced],
        "fingerprints": sorted({r["fingerprint"] for r in runs if "fingerprint" in r}),
        "traces": [r["trace"] for r in traced],
        "problems": problems,
        "result": {
            "correct": failed == 0 and len(metrics) == len(units),
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
        },
    }


def print_summary(record: dict) -> None:
    res = record["result"]
    m = record["machine"]
    print(f"workload {record['workload']}  base_seed {record['base_seed']}  scale {record['scale']}"
          f"  trace {record['trace']}")
    if m:
        threads = " ".join(f"{k}={v}" for k, v in m["blas_threads"].items())
        print(f"  machine: nproc {m['nproc']}, {m['cpu_model']}, {m['blas']}, {threads},"
              f" pool threads {m['pool_threads']}, python {m['python']}, numpy {m['numpy']},"
              f" scipy {m['scipy']}")
    print(f"  fingerprint {', '.join(f[:16] for f in record['fingerprints'])}")
    for name, metric in res["metrics"].items():
        print(f"  {name:46s} {metric['value']:14.6g} {metric['unit']}")
    walls = record["wall_samples_s"]
    if not record["trace"] and walls:
        tail = record["wall_tail"]
        tail_text = f"{tail[0]} {tail[1]:.6g} s" if tail else "no tail percentile below n=11"
        print(f"  {'wall_s':46s} {statistics.median(walls):14.6g} s (median of n={len(walls)} runs;"
              f" {tail_text})")
    for trace in record["traces"][:1]:
        print("  layer        self_s      busy_s   (first traced run)")
        for layer, t in trace["layers"].items():
            print(f"  {layer:10s} {t['self_s']:9.4f} {t['busy_s']:11.4f}")
        two_pass = trace["functions"].get("engine.price_two_pass", {}).get("self_s", 0.0)
        print(f"  engine.price_two_pass.self_s {two_pass:.4f} s")
        for name, value in trace["unaccounted_s"].items():
            print(f"  unaccounted {name}: {value:.6f} s")
    rate = res["failed"] / res["attempted"]
    print(f"  error_rate {rate:.4g} ({res['failed']}/{res['attempted']} runs failed)")
    for problem in record["problems"]:
        print(f"  FAILED: {problem.strip()}")


def write_record(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    name = "{workload}-{scale}-seed{base_seed}-trace{trace}.json".format(**record)
    tmp = RESULTS / (name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    tmp.replace(RESULTS / name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="the experiment base_seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every simulation, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "lsmc" / "__init__.py").is_file():
        print(f"lsmc sources not found under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            record = bench(argparse.Namespace(**{**vars(args), "workload": name}))
        except ChildError as exc:
            print(exc, file=sys.stderr)
            return 1
        write_record(record)
        print_summary(record)
        results[name] = record["result"]
    if args.workload == "all":
        if not args.trace:
            header = "".join(f"{n:>22s}" for n in END_TO_END_UNITS)
            print(f"{'workload':14s}{header}  error_rate")
            for name, res in results.items():
                cells = "".join(
                    f"{m['value']:>17.4f} {m['unit']:4s}" for m in res["metrics"].values()
                )
                print(f"{name:14s}{cells}  {res['failed'] / res['attempted']:.4g}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
