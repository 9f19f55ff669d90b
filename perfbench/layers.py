"""Spans and counts at msheston's layer boundaries, recorded from outside.

The tracer replaces public functions in the module namespaces where the
program looks them up (``msheston.cli.load_chain``,
``msheston.calibration.price_strikes``, ...) with wrappers that record a span
(name, start, end, parent span, operation) and bump counters, and puts the
originals back afterwards.  Spans stay in memory until the run ends.  Nothing
under ``src/`` changes, so only boundaries that are module-level names can be
seen: the kernel module's work shows up only as quadrature integrand values.

A name that no longer exists is listed in ``Tracer.unmeasured``; the metrics
that depend on it then read 0, and the run prints the list.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter

# (metric, unit) in the order BENCHMARK.json lists them.  "_s" metrics are
# seconds per call of that boundary within one operation (0 when it is never
# called), counts are per operation.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("market_io.load_chain_s", "s"),
    ("calibration.heston_fit_s", "s"),
    ("calibration.multiscale_fit_s", "s"),
    ("calibration.heston_nfev", "count"),
    ("calibration.multiscale_nfev", "count"),
    ("calibration.objective_evals", "count"),
    ("pricer.baseline_strips", "count"),
    ("pricer.baseline_strip_s", "s"),
    ("pricer.corrected_strips", "count"),
    ("pricer.corrected_strip_s", "s"),
    ("pricer.strikes_priced", "count"),
    ("pricer.soft_failures", "count"),
    ("quadrature.integrations", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.panels_nested", "count"),
    ("quadrature.integrand_values", "count"),
    ("quadrature.nonconvergence", "count"),
    ("vol_surface.implied_vol_calls", "count"),
    ("vol_surface.implied_vol_s", "s"),
    ("vol_surface.bs_evals_per_inversion", "count"),
    ("group_params.compute_s", "s"),
    ("group_params.panels", "count"),
    ("mc.simulate_s", "s"),
    ("mc.path_steps", "count"),
    ("mc.ns_per_path_step", "ns"),
    ("mc.std_error", "price"),
    ("mc_time_to_se_s", "s"),
    ("trace.overhead_s", "s"),
)

# Standard error at which mc_time_to_se_s prices the Monte Carlo run: the
# seconds it would take to reach 0.01 at spot 100, since cost ~ 1 / se^2.
TARGET_STD_ERROR = 0.01


class Tracer:
    """Wraps msheston's boundaries while installed; one instance per run."""

    def __init__(self):
        self.spans = []  # [id, parent id or -1, name, start_ns, end_ns, op]
        self._open = []
        self.counts = Counter()
        self.op = -1
        self.unmeasured = []
        self._saved = []
        self._quad_depth = 0
        self._inversions = 0
        self._found = []  # (module, attribute, wrapper factory)
        for mod_name, attr, factory in self._targets():
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.unmeasured.append(f"{mod_name}.{attr}")
            else:
                self._found.append((module, attr, factory))

    # -- spans ------------------------------------------------------------------

    def start(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([sid, parent, name, time.perf_counter_ns(), 0, self.op])
        self._open.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()
        self._open.pop()

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- the boundaries -----------------------------------------------------------

    def _targets(self):
        """(module, attribute, wrapper factory) for every traced boundary."""
        count = self.counts

        def fit_nfev(key):
            def after(args, kwargs, result):
                # CalibResult.iterations carries least_squares' nfev
                count[key] += result.iterations
            return after

        def least_squares(fn):
            def wrapper(fun, *args, **kwargs):
                def counted(x):
                    count["calibration.objective_evals"] += 1
                    return fun(x)
                return fn(counted, *args, **kwargs)
            return self._timed("calibration.least_squares", wrapper)

        def price_strikes(fn):
            def wrapper(*args, **kwargs):
                v = kwargs["v"] if "v" in kwargs else (args[4] if len(args) > 4 else None)
                corrected = v is not None and not v.is_zero
                name = "pricer.corrected_strip" if corrected else "pricer.baseline_strip"
                sid = self.start(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.finish(sid)
                count["pricer.strikes_priced"] += len(result)
                count["pricer.soft_failures"] += len({
                    w for bd in result for w in bd.warnings
                    if w.startswith("nonconvergence")
                })
                return result
            return wrapper

        def integrate_adaptive(site_counter):
            from msheston.errors import NonConvergence

            def factory(fn):
                def wrapper(f, *args, **kwargs):
                    depth = self._quad_depth + 1

                    def counted(xs):
                        vals = f(xs)
                        count["quadrature.panels"] += 1
                        if depth >= 2:
                            count["quadrature.panels_nested"] += 1
                        if site_counter:
                            count[site_counter] += 1
                        count["quadrature.integrand_values"] += getattr(vals, "size", 0)
                        return vals

                    count["quadrature.integrations"] += 1
                    self._quad_depth = depth
                    sid = self.start("quadrature.integrate_adaptive")
                    try:
                        return fn(counted, *args, **kwargs)
                    except NonConvergence:
                        count["quadrature.nonconvergence"] += 1
                        raise
                    finally:
                        self.finish(sid)
                        self._quad_depth = depth - 1
                return wrapper
            return factory

        def implied_vol(fn):
            def wrapper(*args, **kwargs):
                self._inversions += 1
                sid = self.start("vol_surface.implied_vol")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.finish(sid)
                    self._inversions -= 1
            return wrapper

        def bs_call(fn):
            def wrapper(*args, **kwargs):
                if self._inversions:
                    count["vol_surface.bs_evals_in_inversion"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def simulate_paths(fn):
            def after(args, kwargs, result):
                horizon, cfg = args[1], args[2]
                n_steps = max(1, int(round(horizon / cfg.dt)))
                count["mc.path_steps"] += cfg.n_paths * n_steps
            return self._timed("mc.simulate_paths", fn, after)

        def mc_price_call(fn):
            def after(args, kwargs, result):
                count["mc.std_error"] += result.std_error
            return self._timed("mc.mc_price_call", fn, after)

        def timed(name, after=None):
            return lambda fn: self._timed(name, fn, after)

        return [
            ("msheston.cli", "load_chain", timed("market_io.load_chain")),
            ("msheston.cli", "calibrate_heston",
             timed("calibration.calibrate_heston", fit_nfev("calibration.heston_nfev"))),
            ("msheston.cli", "calibrate_multiscale",
             timed("calibration.calibrate_multiscale",
                   fit_nfev("calibration.multiscale_nfev"))),
            ("msheston.calibration", "least_squares", least_squares),
            ("msheston.calibration", "price_strikes", price_strikes),
            ("msheston.vol_surface", "price_strikes", price_strikes),
            ("msheston.pricer", "price_strikes", price_strikes),
            ("msheston.pricer", "integrate_adaptive", integrate_adaptive(None)),
            ("msheston.group_params", "integrate_adaptive",
             integrate_adaptive("group_params.panels")),
            ("msheston.calibration", "implied_vol", implied_vol),
            ("msheston.vol_surface", "implied_vol", implied_vol),
            ("msheston.market_io", "implied_vol", implied_vol),
            ("msheston.vol_surface", "bs_call", bs_call),
            ("msheston.cli", "compute_group_params",
             timed("group_params.compute_group_params")),
            ("msheston.cli", "mc_price_call", mc_price_call),
            ("msheston.mc", "simulate_paths", simulate_paths),
        ]

    def install(self, op: int) -> None:
        """Wrap every boundary found; counts restart for operation ``op``."""
        self.op = op
        self.counts.clear()
        for module, attr, factory in self._found:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, factory(original))

    def uninstall(self) -> dict:
        """Restore the originals; returns the operation's counts."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        return dict(self.counts)

    # -- per-operation metrics ------------------------------------------------------

    def op_metrics(self, op: int, counts: dict) -> dict:
        """Per-layer metrics of one traced operation (without the overhead)."""
        spans = [s for s in self.spans if s[5] == op]
        durations = {}
        for sid, parent, name, t0, t1, _ in spans:
            durations.setdefault(name, []).append((t1 - t0) * 1e-9)
        roots = [s for s in spans if s[1] == -1]
        root_ids = {s[0] for s in roots}
        root_s = sum((s[4] - s[3]) * 1e-9 for s in roots)
        child_s = sum((s[4] - s[3]) * 1e-9 for s in spans if s[1] in root_ids)

        def per_call(name):
            d = durations.get(name, [])
            return sum(d) / len(d) if d else 0.0

        def calls(name):
            return len(durations.get(name, []))

        inversions = calls("vol_surface.implied_vol")
        mc_s = sum(durations.get("mc.mc_price_call", []))
        std_error = counts.get("mc.std_error", 0.0)
        path_steps = counts.get("mc.path_steps", 0)
        simulate_s = sum(durations.get("mc.simulate_paths", []))
        return {
            "cli.self_s": root_s - child_s,
            "market_io.load_chain_s": per_call("market_io.load_chain"),
            "calibration.heston_fit_s": per_call("calibration.calibrate_heston"),
            "calibration.multiscale_fit_s": per_call("calibration.calibrate_multiscale"),
            "calibration.heston_nfev": counts.get("calibration.heston_nfev", 0),
            "calibration.multiscale_nfev": counts.get("calibration.multiscale_nfev", 0),
            "calibration.objective_evals": counts.get("calibration.objective_evals", 0),
            "pricer.baseline_strips": calls("pricer.baseline_strip"),
            "pricer.baseline_strip_s": per_call("pricer.baseline_strip"),
            "pricer.corrected_strips": calls("pricer.corrected_strip"),
            "pricer.corrected_strip_s": per_call("pricer.corrected_strip"),
            "pricer.strikes_priced": counts.get("pricer.strikes_priced", 0),
            "pricer.soft_failures": counts.get("pricer.soft_failures", 0),
            "quadrature.integrations": counts.get("quadrature.integrations", 0),
            "quadrature.panels": counts.get("quadrature.panels", 0),
            "quadrature.panels_nested": counts.get("quadrature.panels_nested", 0),
            "quadrature.integrand_values": counts.get("quadrature.integrand_values", 0),
            "quadrature.nonconvergence": counts.get("quadrature.nonconvergence", 0),
            "vol_surface.implied_vol_calls": inversions,
            "vol_surface.implied_vol_s": per_call("vol_surface.implied_vol"),
            "vol_surface.bs_evals_per_inversion": (
                counts.get("vol_surface.bs_evals_in_inversion", 0) / inversions
                if inversions else 0.0
            ),
            "group_params.compute_s": per_call("group_params.compute_group_params"),
            "group_params.panels": counts.get("group_params.panels", 0),
            "mc.simulate_s": simulate_s,
            "mc.path_steps": path_steps,
            "mc.ns_per_path_step": simulate_s * 1e9 / path_steps if path_steps else 0.0,
            "mc.std_error": std_error,
            "mc_time_to_se_s": mc_s * (std_error / TARGET_STD_ERROR) ** 2,
        }


def median_metrics(per_op: list, overhead_s: float) -> dict:
    """Median over traced operations of each per-layer metric."""
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            value = statistics.median(m[name] for m in per_op)
        out[name] = {"value": value, "unit": unit}
    return out
