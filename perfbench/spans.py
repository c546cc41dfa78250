"""Per-layer spans and counters for one experiment run, recorded from outside lsmc.

The layers are the modules under `lsmc`.  While a `Tracer` is active, each
public function of a layer is replaced by a timing wrapper in every `lsmc`
module that holds it: `engine` and `harness` bind layer functions by name at
import, so patching only the defining module would miss their calls (for
example the `price_backward` call nested in `price_two_pass`).  The harness's
set fan-out `_map_sets` is wrapped as well, and each set it runs becomes a
`harness.run_set` span on whichever pool thread runs it.

A span's self time is its duration minus the time of the spans it directly
encloses.  Spans nest per thread, so the self times of all spans partition the
time of the root spans: the entry point on the calling thread plus the
`run_set` spans on pool threads.  The remainder of the traced wall time, spent
outside the entry point's span, is reported by name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

LAYER_FUNCTIONS = {
    "market": ("generate_paths", "split_pool"),
    "contracts": ("discounted_payout", "design_matrix"),
    "regression": ("fit_least_squares",),
    "engine": ("price_backward", "price_two_pass", "european_mc_price", "apply_control_variate"),
    "oracles": ("reference_price", "bs_european_put", "bestof2_european_call"),
    "harness": ("run_experiment1", "run_experiment2", "fit_bias_slope", "_map_sets"),
}
FAN_OUT = "harness._map_sets"
RUN_SET = "harness.run_set"

# Per-layer metrics of the traced run, with their units.
PER_LAYER_UNITS = {
    "regression.fit_least_squares.busy_s": "s",
    "regression.fit_least_squares.calls": "count",
    "regression.fit_least_squares.rows": "count",
    "regression.fit_least_squares.gflop_computed": "GFLOP",
    "contracts.design_matrix.busy_s": "s",
    "contracts.design_matrix.calls": "count",
    "contracts.design_matrix.mib_computed": "MiB",
    "contracts.discounted_payout.busy_s": "s",
    "market.generate_paths.busy_s": "s",
    "market.generate_paths.calls": "count",
    "market.pool_mib_computed": "MiB",
    "engine.self_s": "s",
    "engine.price_backward.self_s": "s",
    "engine.price_backward.calls": "count",
    "engine.european_mc_price.busy_s": "s",
    "engine.flip_ratio": "ratio",
    "engine.fallbacks": "count",
    "engine.min_rank": "count",
    "harness.self_s": "s",
    "harness.pool_busy_ratio": "ratio",
    "trace.overhead_s": "s",
}

# Metrics that depend only on the workload and seed; they must repeat exactly.
EXACT_METRICS = tuple(
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "GFLOP", "MiB") or name == "engine.flip_ratio"
)

_MIB = float(1 << 20)


def _svd_fit_flops(n: int, m: int, rank: int) -> float:
    """Operation count of one fit_least_squares call on an n x m design.

    Thin SVD by R-SVD, 6nm^2 + 20m^3 (Golub and Van Loan, table 8.6.1), plus
    column norms and scaling (3nm) and the projection, fitted values and
    leverage through the rank-r factor (6nr).
    """
    return 6.0 * n * m * m + 20.0 * m**3 + 3.0 * n * m + 6.0 * n * rank


def _count_fit(counters, args, result) -> None:
    x = args[0]
    shape = getattr(x, "values", x).shape
    counters["regression.fit_least_squares.rows"] += shape[0]
    counters["regression.fit_least_squares.gflop_computed"] += (
        _svd_fit_flops(shape[0], shape[1], result.rank) / 1e9
    )


def _count_design(counters, args, result) -> None:
    counters["contracts.design_matrix.mib_computed"] += result.nbytes / _MIB


def _count_paths(counters, args, result) -> None:
    mib = result.values.nbytes / _MIB
    counters["market.pool_mib_computed"] = max(counters["market.pool_mib_computed"], mib)


def _count_backward(counters, args, result) -> None:
    pricing = result[0]
    counters["engine.flips"] += sum(pricing.flip_counts)
    counters["engine.decisions"] += pricing.per_path_value.shape[0] * len(pricing.flip_counts)
    counters["engine.fallbacks"] += pricing.fallback_count
    if pricing.ranks:
        low = min(pricing.ranks)
        seen = counters.get("engine.min_rank")
        counters["engine.min_rank"] = low if seen is None else min(seen, low)


_COUNTERS = {
    "regression.fit_least_squares": _count_fit,
    "contracts.design_matrix": _count_design,
    "market.generate_paths": _count_paths,
    "engine.price_backward": _count_backward,
}


class Tracer:
    """Context manager that patches the layer functions and records spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.functions: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.main_root_s = 0.0
        self.pool_root_s = 0.0

    def __enter__(self) -> Tracer:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "lsmc" or name.startswith("lsmc."))
        ]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"lsmc.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if vars(module).get(name) is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        count = _COUNTERS.get(key)
        if key == FAN_OUT:

            @functools.wraps(fn)
            def fan_out(worker, *args, **kwargs):
                def run_set(k):
                    return self._span(RUN_SET, worker, (k,), {})

                return self._span(key, fn, (run_set,) + args, kwargs)

            return fan_out

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(key, fn, args, kwargs)
            if count is not None:
                with self._lock:
                    count(self.counters, args, result)
            return result

        return wrapper

    def _span(self, key: str, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0, key]  # time of directly enclosed spans, span name
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            parent_key = stack[-1][1] if stack else None
            if stack:
                stack[-1][0] += duration
            self._record(key, duration, duration - frame[0], parent_key)

    def _record(self, key: str, duration: float, self_s: float, parent_key) -> None:
        layer = key.partition(".")[0]
        with self._lock:
            stats = self.functions[key]
            stats["calls"] += 1
            stats["busy_s"] += duration
            stats["self_s"] += self_s
            if parent_key is None or parent_key.partition(".")[0] != layer:
                self.layer_busy[layer] += duration
            if parent_key is None:
                if threading.get_ident() == self._main:
                    self.main_root_s += duration
                else:
                    self.pool_root_s += duration

    def summary(self, wall_s: float, threads: int) -> dict:
        """Per-layer metrics plus the accounting of the traced wall time."""
        fn = self.functions
        layer_self: dict[str, float] = defaultdict(float)
        for key, stats in fn.items():
            if key != FAN_OUT:
                layer_self[key.partition(".")[0]] += stats["self_s"]
        c = self.counters
        decisions = c.get("engine.decisions", 0.0)
        metrics = {
            "regression.fit_least_squares.busy_s": fn["regression.fit_least_squares"]["busy_s"],
            "regression.fit_least_squares.calls": fn["regression.fit_least_squares"]["calls"],
            "regression.fit_least_squares.rows": c["regression.fit_least_squares.rows"],
            "regression.fit_least_squares.gflop_computed": c[
                "regression.fit_least_squares.gflop_computed"
            ],
            "contracts.design_matrix.busy_s": fn["contracts.design_matrix"]["busy_s"],
            "contracts.design_matrix.calls": fn["contracts.design_matrix"]["calls"],
            "contracts.design_matrix.mib_computed": c["contracts.design_matrix.mib_computed"],
            "contracts.discounted_payout.busy_s": fn["contracts.discounted_payout"]["busy_s"],
            "market.generate_paths.busy_s": fn["market.generate_paths"]["busy_s"],
            "market.generate_paths.calls": fn["market.generate_paths"]["calls"],
            "market.pool_mib_computed": c["market.pool_mib_computed"],
            "engine.self_s": layer_self["engine"],
            "engine.price_backward.self_s": fn["engine.price_backward"]["self_s"],
            "engine.price_backward.calls": fn["engine.price_backward"]["calls"],
            "engine.european_mc_price.busy_s": fn["engine.european_mc_price"]["busy_s"],
            "engine.flip_ratio": c.get("engine.flips", 0.0) / decisions if decisions else 0.0,
            "engine.fallbacks": c["engine.fallbacks"],
            "engine.min_rank": c.get("engine.min_rank", 0),
            "harness.self_s": layer_self["harness"],
            "harness.pool_busy_ratio": fn[RUN_SET]["busy_s"] / (wall_s * threads),
        }
        # Every self time lands in exactly one layer, so their sum must equal
        # the time of the root spans; anything else means misnested spans.
        roots = self.main_root_s + self.pool_root_s
        pool_wait = fn[FAN_OUT]["self_s"]
        accounted = sum(layer_self.values()) + pool_wait
        problems = []
        if abs(accounted - roots) > 1e-6 * max(roots, 1.0):
            problems.append(
                f"layer self times sum to {accounted:.6f} s, root spans to {roots:.6f} s"
            )
        negative = [k for k, s in fn.items() if s["self_s"] < -1e-6]
        if negative:
            problems.append(f"negative self time in {negative}")
        return {
            "metrics": metrics,
            "layers": {
                layer: {"self_s": layer_self[layer], "busy_s": self.layer_busy[layer]}
                for layer in LAYER_FUNCTIONS
            },
            "functions": {k: dict(v) for k, v in sorted(fn.items())},
            "unaccounted_s": {
                "outside_entry_point": wall_s - self.main_root_s,
                "fan_out_wait": pool_wait,
            },
            "problems": problems,
        }
