"""Call tracer for spoofguard's public functions, installed from outside the package.

The tracer rebinds each traced function wherever a ``spoofguard`` module
holds it: ``harness`` and ``cli`` import names directly, so patching only the
defining module would miss their calls.  ``GaussianSampler.sample`` is
patched on the class.  Every original is put back on exit.

Spans are aggregated in memory as they close: per function the number of
calls and the self time (span time minus the time of its child spans), and
per (caller, callee) pair the number of calls.  Nothing is written while a
workload runs.  A function that no longer exists is listed in ``missing``
and reported at zero calls; tracing never fails because the program changed.
"""

import importlib
import os
import sys
import time
from collections import Counter

# (module, attribute path, metric prefix), in the order the results list them.
TRACED = (
    ("model", "GaussianSampler.sample", "model.sample"),
    ("model", "step_dynamics", "model.step_dynamics"),
    ("model", "measure_gps", "model.measure_gps"),
    ("model", "measure_imu", "model.measure_imu"),
    ("detector", "residual", "detector.residual"),
    ("detector", "residual_covariance", "detector.residual_covariance"),
    ("detector", "cusum_update", "detector.cusum_update"),
    ("estimator", "fuse", "estimator.fuse"),
    ("estimator", "optimal_gain", "estimator.optimal_gain"),
    ("analysis", "spectral_norm", "analysis.spectral_norm"),
    ("analysis", "stationary_covariance", "analysis.stationary_covariance"),
    ("analysis", "escape_report", "analysis.escape_report"),
    ("analysis", "escape_time", "analysis.escape_time"),
    ("analysis", "drift_matrices", "analysis.drift_matrices"),
    ("analysis", "is_detectable", "analysis.is_detectable"),
    ("chi2", "chi2_quantile", "chi2.chi2_quantile"),
    ("harness", "parse_config", "harness.parse_config"),
    ("harness", "run_scenario", "harness.run_scenario"),
    ("harness", "pd_control", "harness.pd_control"),
    ("harness", "derive_run_seed", "harness.derive_run_seed"),
    ("harness", "monte_carlo", "harness.monte_carlo"),
    ("harness", "export_trace", "harness.export_trace"),
    ("cli", "main", "cli.main"),
)

# Derived per-layer metrics: name -> unit.
DERIVED = {
    "analysis.stationary_covariance.iterations": "count",
    "analysis.escape_time.steps": "steps",
    "estimator.fuse.emergency_calls": "count",
    "harness.export_trace.bytes": "B",
    "analysis.escape_report.per_run": "ratio",
    "chi2.chi2_quantile.per_run": "ratio",
}


def _count_emergency(sums, args, kwargs, result):
    mode = getattr(args[0], "mode", None) if args else None
    if getattr(mode, "value", None) == "emergency":
        sums["estimator.fuse.emergency_calls"] += 1


def _sum_escape_steps(sums, args, kwargs, result):
    sums["analysis.escape_time.steps"] += int(result)


def _sum_export_bytes(sums, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    sums["harness.export_trace.bytes"] += os.path.getsize(path)


# Called after the traced function returns, with its arguments and result.
_AFTER = {
    "estimator.fuse": _count_emergency,
    "analysis.escape_time": _sum_escape_steps,
    "harness.export_trace": _sum_export_bytes,
}


class Tracer:
    """Context manager that traces the TRACED functions while it is open."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.edges = Counter()      # (caller, callee) -> calls
        self.sums = Counter()       # values summed by the _AFTER hooks
        self.missing = []
        self._stack = []            # open spans: [name, time of child spans]
        self._restore = []          # (owner, attribute, original)

    def __enter__(self):
        owners = {}
        for module_name, _, _ in TRACED:
            try:
                owners[module_name] = importlib.import_module(
                    "spoofguard." + module_name)
            except ImportError:
                owners[module_name] = None
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spoofguard" or name.startswith("spoofguard.")]
        for module_name, path, name in TRACED:
            owner = owners[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        edges, sums, after = self.edges, self.sums, _AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - span[1]
                if parent is not None:
                    parent[1] += elapsed
                    edges[parent[0], name] += 1
            if after is not None:
                after(sums, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def metrics(self) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for _, _, name in TRACED:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        runs = self.calls["harness.run_scenario"]
        derived = dict(self.sums)
        derived["analysis.stationary_covariance.iterations"] = self.edges[
            "analysis.stationary_covariance", "estimator.optimal_gain"]
        derived["analysis.escape_report.per_run"] = (
            self.calls["analysis.escape_report"] / runs if runs else 0.0)
        derived["chi2.chi2_quantile.per_run"] = (
            self.calls["chi2.chi2_quantile"] / runs if runs else 0.0)
        for name, unit in DERIVED.items():
            out[name] = (derived.get(name, 0), unit)
        return out
