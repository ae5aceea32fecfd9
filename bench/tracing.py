"""Span tracing for the traced benchmark run, and the per-layer metrics.

Wrappers replace public functions in the module namespaces where the
program looks them up; each call records a span (name, start, end,
parent) in flat in-memory arrays, written out once when the run ends.
The untraced run never imports this module.
"""

import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name); a name the program no longer defines is
# skipped, and the metrics that depend on it read 0
LAYERS = (
    ("mhrnet.harness", "run_sweep", "harness.run_sweep"),
    ("mhrnet.harness", "run_experiment", "harness.run_experiment"),
    ("mhrnet.harness", "generate_initial", "harness.generate_initial"),
    ("mhrnet.harness", "norm_l2", "grid.norm"),
    ("mhrnet.harness", "norm_l4", "grid.norm"),
    ("mhrnet.harness", "energy_functional", "grid.energy"),
    ("mhrnet.harness", "pairwise_gap", "analysis.pairwise_gap"),
    ("mhrnet.harness", "fit_decay_rate", "analysis.fit"),
    ("mhrnet.integrator", "step_imex", "integrator.step"),
    ("mhrnet.integrator", "step_rk4", "integrator.step"),
    ("mhrnet.integrator", "reaction_rhs", "model.reaction"),
    ("mhrnet.model", "reaction_rhs", "model.reaction"),
    ("mhrnet.integrator", "diffusion_step_be", "integrator.diffusion"),
    ("mhrnet.integrator", "solve_banded", "integrator.solve"),
    ("mhrnet.integrator", "quasi_norm", "integrator.check.quasi_norm"),
    ("mhrnet.model", "NetworkState.first_nonfinite", "integrator.check.nonfinite"),
    ("mhrnet.integrator", "full_rhs", "model.full_rhs"),
    ("mhrnet.model", "coupling_rhs", "model.coupling"),
    ("mhrnet.model", "laplacian_neumann", "grid.laplacian"),
    ("workloads", "Capture.__call__", "bench.capture"),
)

# per-layer metric -> (unit, better); README.md maps each to the end-to-end
# metric and workload it should move
PER_LAYER = {
    "mhrnet.import_ms": ("ms", "lower"),
    "cli.build_spec_ms": ("ms", "lower"),
    "harness.generate_initial_ms": ("ms", "lower"),
    "harness.observe_us_per_sample": ("us", "lower"),
    "grid.norm_calls_per_sample": ("count", "lower"),
    "grid.norm_us_per_call": ("us", "lower"),
    "analysis.gap_calls_per_sample": ("count", "lower"),
    "analysis.pairwise_gap_us_per_call": ("us", "lower"),
    "harness.write_ms_per_run": ("ms", "lower"),
    "harness.write_mb_per_s": ("MB/s", "higher"),
    "analysis.fit_ms_per_run": ("ms", "lower"),
    "integrator.check_us_per_check": ("us", "lower"),
    "integrator.step_us": ("us", "lower"),
    "integrator.step_self_us": ("us", "lower"),
    "model.reaction_us_per_step": ("us", "lower"),
    "model.reaction_calls_per_step": ("count", "lower"),
    "integrator.solve_calls_per_step": ("count", "lower"),
    "integrator.solve_us_per_call": ("us", "lower"),
    "integrator.diffusion_us_per_step": ("us", "lower"),
    "integrator.diffusion_self_us_per_step": ("us", "lower"),
    "model.full_rhs_us_per_call": ("us", "lower"),
    "model.coupling_rhs_us_per_step": ("us", "lower"),
    "grid.laplacian_us_per_step": ("us", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _resolve(module, dotted):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self):
        self.names = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.missing = set()
        self._stack = [-1]
        self._patched = []

    def wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def _wrap_integrate(self, fn):
        """integrate, with its observer callback traced as one sample each."""
        span = self.wrap("harness.integrate", fn)

        def traced(*args, **kwargs):
            if len(args) >= 5 and args[4] is not None:
                args = args[:4] + (self.wrap("harness.observe", args[4]),) + args[5:]
            elif kwargs.get("observer") is not None:
                kwargs["observer"] = self.wrap("harness.observe", kwargs["observer"])
            return span(*args, **kwargs)
        return traced

    def install(self):
        specs = LAYERS + (("mhrnet.harness", "integrate", None),)
        for module, dotted, name in specs:
            try:
                owner, attr = _resolve(module, dotted)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add("%s.%s" % (module, dotted))
                continue
            wrapped = self._wrap_integrate(fn) if name is None else self.wrap(name, fn)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    def arrays(self):
        """(name id, start, end, parent) of every span, as numpy arrays."""
        return (np.array(self.name_id, dtype=int), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=int))

    def write(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent)


def layer_metrics(tracer, import_s, build_s, bytes_written, overhead_pct):
    """Every per-layer metric from the recorded spans; 0 where a layer never ran."""
    span, start, end, parent = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - children
    parent_span = np.where(has_parent, span[np.where(has_parent, parent, 0)], -1)

    def span_id(name):
        return tracer.names.index(name) if name in tracer.names else -2

    def pick(name, under=None):
        sel = span == span_id(name)
        return sel & (parent_span == span_id(under)) if under else sel

    def total(name, under=None, own=False):
        return float(np.sum((self_time if own else dur)[pick(name, under)]))

    def count(name, under=None):
        return int(np.count_nonzero(pick(name, under)))

    def per(x, n, scale=1.0):
        return x * scale / n if n else 0.0

    runs = count("harness.run_experiment")
    steps = count("integrator.step")
    samples = count("harness.observe")
    checks_run = count("integrator.check.quasi_norm")
    write_s = total("harness.run_experiment", own=True) + total("harness.run_sweep", own=True)
    us, ms = 1e6, 1e3
    return {
        "mhrnet.import_ms": import_s * ms,
        "cli.build_spec_ms": build_s * ms,
        "harness.generate_initial_ms": per(total("harness.generate_initial"), runs, ms),
        "harness.observe_us_per_sample": per(
            total("harness.observe") - total("bench.capture", "harness.observe"), samples, us),
        "grid.norm_calls_per_sample": per(count("grid.norm", "harness.observe"), samples),
        "grid.norm_us_per_call": per(total("grid.norm"), count("grid.norm"), us),
        "analysis.gap_calls_per_sample": per(
            count("analysis.pairwise_gap", "harness.observe"), samples),
        "analysis.pairwise_gap_us_per_call": per(
            total("analysis.pairwise_gap"), count("analysis.pairwise_gap"), us),
        "harness.write_ms_per_run": per(total("harness.run_experiment", own=True), runs, ms),
        "harness.write_mb_per_s": per(bytes_written / 1e6, write_s),
        "analysis.fit_ms_per_run": per(total("analysis.fit"), runs, ms),
        "integrator.check_us_per_check": per(
            total("integrator.check.quasi_norm") + total("integrator.check.nonfinite"),
            checks_run, us),
        "integrator.step_us": per(total("integrator.step"), steps, us),
        "integrator.step_self_us": per(total("integrator.step", own=True), steps, us),
        "model.reaction_us_per_step": per(total("model.reaction"), steps, us),
        "model.reaction_calls_per_step": per(count("model.reaction"), steps),
        "integrator.solve_calls_per_step": per(count("integrator.solve"), steps),
        "integrator.solve_us_per_call": per(
            total("integrator.solve"), count("integrator.solve"), us),
        "integrator.diffusion_us_per_step": per(total("integrator.diffusion"), steps, us),
        "integrator.diffusion_self_us_per_step": per(
            total("integrator.diffusion", own=True), steps, us),
        "model.full_rhs_us_per_call": per(
            total("model.full_rhs"), count("model.full_rhs"), us),
        "model.coupling_rhs_us_per_step": per(total("model.coupling"), steps, us),
        "grid.laplacian_us_per_step": per(total("grid.laplacian"), steps, us),
        "trace.overhead_pct": overhead_pct,
    }
