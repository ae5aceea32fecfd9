"""The benchmark's workloads and one checked operation of each.

A workload is a list of dotted-path overrides on the packaged default
config, applied through the program's public ``mhrnet.cli`` functions,
plus the sweep grid for ``sweep-m16``.  One operation is one whole
``run_experiment`` or ``run_sweep`` call; only that call is timed, and its
outputs are checked right after it against computations made apart from
the program (see checks.py and refstep.py).
"""

import copy
import dataclasses
import math
import shutil
import time
from pathlib import Path

import numpy as np

import checks
import refstep

# relative tolerance of the program's state after its first observation
# interval against the reference stepper; both do the same arithmetic in
# another order, so they agree to round-off amplified by ~100 steps
REFERENCE_RTOL = 1e-10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple
    sweep: dict = None             # {"P": [...], "Q": [...]} for a run_sweep workload
    n_seeds: int = 1               # replicate seeds of a sweep, from --seed upward

    def seeds(self, seed):
        return [seed + k for k in range(self.n_seeds)]


WORKLOADS = {w.name: w for w in (
    # the packaged `mhrnet simulate` case, shortened to 4000 steps so a run
    # holds about 20 operations; 41 samples still let every pair be fitted
    Workload("simulate-1d", ("integrator.t_end=4.0",)),
    # P on both sides of Pmin = 1.336 (m=16), two replicate seeds, a sample
    # every other step: O(m^2) gaps, checks, fits and CSV writes dominate
    Workload("sweep-m16", (
        "parameters.m=16", "grid.cells=[64]", "integrator.t_end=0.08",
        "integrator.observe_every=2",
    ), sweep={"P": [0.5, 2.0], "Q": [1.0]}, n_seeds=2),
    # bulk ADI solves on a 128x128 grid, sampled every 50 steps
    Workload("grid-2d", (
        "grid.cells=[128, 128]", "grid.extents=[1.0, 1.0]", "integrator.t_end=0.2",
        "integrator.observe_every=50",
    )),
    # explicit RK4 at dt = 0.82 of the diffusion stability limit
    Workload("rk4-1d", (
        "parameters.m=8", "grid.cells=[64]", "integrator.scheme=explicit-rk4",
        "integrator.dt=1.0e-4", "integrator.t_end=0.02", "integrator.observe_every=5",
    )),
)}


class Capture:
    """extra_observer that copies the states at the given sample indices."""

    def __init__(self, keep):
        self.keep = set(keep)
        self.count = 0
        self.states = {}

    def __call__(self, t, net):
        if self.count in self.keep:
            self.states[self.count] = checks.state_array(net)
        self.count += 1


def _bytes_under(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Runner:
    """Builds a workload's spec from a seed and runs checked operations."""

    def __init__(self, cli, harness, workload, seed, outdir):
        self.cli = cli
        self.harness = harness
        self.outdir = Path(outdir)
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        start = time.perf_counter()
        cfg = cli.load_config(None)
        cfg = cli.apply_overrides(cfg, list(workload.overrides) + ["seed=%d" % seed])
        self.spec = cli.build_spec(cfg, outdir=str(self.outdir / "run"))
        self.build_seconds = time.perf_counter() - start
        self.cfg = cfg
        self.sweep = None
        n_runs = 1
        if workload.sweep is not None:
            self.sweep = dict(workload.sweep, seeds=workload.seeds(seed))
            self.sweep_spec = harness.SweepSpec(
                base=self.spec, P_values=tuple(self.sweep["P"]),
                Q_values=tuple(self.sweep["Q"]), seeds=tuple(self.sweep["seeds"]))
            n_runs = len(self.sweep["P"]) * len(self.sweep["Q"]) * len(self.sweep["seeds"])

        integ, grid = cfg["integrator"], cfg["grid"]
        self.params = cfg["parameters"]
        self.dt = float(integ["dt"])
        self.observe_every = int(integ["observe_every"])
        self.n_steps = int(round(float(integ["t_end"]) / self.dt))
        self.scheme = integ["scheme"]
        self.spacing = [L / n for L, n in zip(grid["extents"], grid["cells"])]
        self.cell_volume = float(np.prod(self.spacing))
        self.n_rows = 1 + math.ceil(self.n_steps / self.observe_every)
        self.cell_steps = n_runs * self.params["m"] * int(np.prod(grid["cells"])) * self.n_steps
        self.ops = 0

    def constants(self, params):
        return checks.paper_constants(params, float(np.prod(self.cfg["grid"]["extents"])))

    def _experiment(self, spec):
        capture = Capture((0, 1, self.n_rows - 1))
        start = time.perf_counter()
        result = self.harness.run_experiment(spec, extra_observer=capture)
        return time.perf_counter() - start, result, capture

    def run(self):
        """One timed operation: (seconds, bytes written)."""
        self.ops += 1
        if self.sweep is None:
            seconds, self.result, self.capture = self._experiment(self.spec)
        else:
            start = time.perf_counter()
            self.result = self.harness.run_sweep(self.sweep_spec)
            seconds = time.perf_counter() - start
        return seconds, _bytes_under(self.spec.output_dir)

    def check(self):
        """Failure messages for the last operation's outputs (empty: all correct)."""
        if self.sweep is None:
            return self._check_experiment(self.result, self.capture, self.params)
        path, report = self.result
        return self._check_sweep(Path(path), report)

    def _check_experiment(self, result, capture, params):
        m = params["m"]
        header, data = checks.read_timeseries(result.timeseries_path)
        consts = self.constants(params)
        out = checks.check_sample_times(data, self.dt, self.observe_every, self.n_steps)
        if out or len(capture.states) != len(capture.keep):
            return out + ["observer saw %d samples" % capture.count]
        x0, x1, x_end = (capture.states[k] for k in (0, 1, self.n_rows - 1))
        steps = min(self.observe_every, self.n_steps)
        x_ref = refstep.advance(x0, params, self.spacing, self.dt, self.scheme, steps)
        out += checks.check_reference(x1, x_ref, REFERENCE_RTOL)
        out += checks.check_last_row(header, data, x_end, self.cell_volume)
        out += checks.check_timeseries(header, data, m, consts)
        report = result.report
        if report["verdict"] == "diverged":
            out.append("run diverged: %s" % report.get("blowup"))
        if report["envelope"] is None or not report["envelope"]["passed"]:
            out.append("report envelope does not pass: %s" % report["envelope"])
        out += checks.close("report C1", report["derived_constants"]["C1"], consts["C1"], 1e-12)
        return out

    def _check_sweep(self, path, report):
        cells_dir = path.parent / "cells"
        m = self.params["m"]
        out = checks.check_sweep(report, cells_dir, self.sweep, m)
        Pmin = self.constants(self.params)["Pmin"]
        out += checks.close("sweep Pmin", report["Pmin"], Pmin, 1e-12)
        if not min(self.sweep["P"]) < Pmin < max(self.sweep["P"]):
            out.append("sweep P values %s do not straddle Pmin %g" % (self.sweep["P"], Pmin))
        if out:
            return out
        labels = checks.cell_reports(cells_dir)
        for P in self.sweep["P"]:
            for Q in self.sweep["Q"]:
                for seed in self.sweep["seeds"]:
                    header, data = checks.read_timeseries(labels[(P, Q, seed)] + "_timeseries.csv")
                    out += checks.check_sample_times(
                        data, self.dt, self.observe_every, self.n_steps)
                    out += checks.check_timeseries(
                        header, data, m, self.constants(dict(self.params, P=P, Q=Q)))
        # the sweep hands no state out, so one cell per operation, in turn, is
        # rerun alone untimed: its CSV must match the sweep's byte for byte,
        # and its states go through the state checks
        keys = sorted(labels)
        P, Q, seed = keys[(self.ops - 1) % len(keys)]
        cfg = copy.deepcopy(self.cfg)
        cfg["parameters"].update(P=P, Q=Q)
        cfg.update(seed=seed, label="solo")
        _, result, capture = self._experiment(
            self.cli.build_spec(cfg, outdir=str(self.outdir / "solo")))
        swept = Path(labels[(P, Q, seed)] + "_timeseries.csv").read_bytes()
        if swept != Path(result.timeseries_path).read_bytes():
            out.append("sweep cell P=%r Q=%r seed=%d differs from a solo run" % (P, Q, seed))
        return out + self._check_experiment(result, capture, cfg["parameters"])
