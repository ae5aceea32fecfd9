"""Seeded experiment construction, execution, sweeps, and serialization.

Timeseries go to plain CSV (17 significant digits, so reruns are
byte-identical); reports go to JSON with a mandatory schema_version field.
A sweep integrates all its runs as one batch; each run's files are the
same bytes as those of the run alone.
"""

import dataclasses
import json
import logging
import math
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    FitWindowError,
    compute_constants,
    check_absorbing_envelope,
    estimate_async_degree,
    fit_decay_rate,
    pairwise_gap,
)
from .grid import SEED_MAX, Grid, energy_functional, norm_l2, norm_l4, smooth_field, uniform
from .integrator import IntegratorConfig, check_stable, integrate, step_count
from .model import COMPONENTS, NetworkState, Parameters, integer, real

__all__ = [
    "InitialCondition",
    "ExperimentSpec",
    "SweepSpec",
    "ExperimentResult",
    "generate_initial",
    "run_experiment",
    "run_sweep",
    "write_json",
    "SCHEMA_VERSION",
    "MAX_PAIR_COLUMNS_M",
]

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
IC_MODES = ("uniform-random", "constant-offset", "from-file")

# beyond this neuron count only (max, mean) gap statistics are recorded
MAX_PAIR_COLUMNS_M = 16


@dataclass(frozen=True)
class InitialCondition:
    """How initial fields are built (all randomness flows from the run seed)."""

    mode: str = "uniform-random"
    amplitude: dict = field(
        default_factory=lambda: {c: (-1.0, 1.0) for c in COMPONENTS}
    )
    smoothing_passes: int = 0
    path: str = None     # only for mode "from-file"

    def __post_init__(self):
        if self.mode not in IC_MODES:
            raise ValueError("unknown initial-condition mode %r" % self.mode)
        if not isinstance(self.amplitude, dict):
            raise ValueError("amplitude must be a mapping, got %r" % (self.amplitude,))
        unknown = [str(k) for k in self.amplitude if k not in COMPONENTS]
        if unknown:
            raise ValueError("unknown initial.amplitude component(s) %s, expected some of %s"
                             % (", ".join(unknown), ", ".join(COMPONENTS)))
        amp = {}
        for comp in COMPONENTS:
            name = "amplitude box for %r" % comp
            box = self.amplitude.get(comp, (-1.0, 1.0))
            if not isinstance(box, (list, tuple)) or len(box) != 2:
                raise ValueError("%s must be a pair (lo, hi), got %r" % (name, box))
            lo, hi = real(name, box[0]), real(name, box[1])
            if hi < lo:
                raise ValueError("bad %s: (%r, %r)" % (name, lo, hi))
            if not math.isfinite(hi - lo):
                raise ValueError("%s is too wide: hi - lo overflows, got (%r, %r)"
                                 % (name, lo, hi))
            amp[comp] = (lo, hi)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "smoothing_passes",
                           integer("smoothing_passes", self.smoothing_passes, 0))
        if self.mode == "from-file" and not self.path:
            raise ValueError("mode 'from-file' needs a path")


@dataclass(frozen=True)
class ExperimentSpec:
    parameters: Parameters
    grid: Grid
    integrator: IntegratorConfig
    initial: InitialCondition = field(default_factory=InitialCondition)
    seed: int = 0
    output_dir: str = "out"
    cstar: float = 1.0
    label: str = "run"

    def __post_init__(self):
        cstar = real("cstar", self.cstar)
        if not cstar > 0:
            raise ValueError("cstar must be positive and finite")
        object.__setattr__(self, "cstar", cstar)
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, SEED_MAX))
        for name in ("label", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError("%s must be a non-empty string, got %r" % (name, value))
        if "/" in self.label or os.sep in self.label:
            raise ValueError("label %r must not contain a path separator" % self.label)
        check_stable(self.integrator, self.parameters, self.grid)

    def echo(self):
        """The report's spec block: a config that rebuilds this spec but for its output_dir."""
        spec = dataclasses.asdict(self)
        del spec["output_dir"]
        return spec


@dataclass(frozen=True)
class SweepSpec:
    """The (P, Q, seed) runs over base; runs holds their ExperimentSpecs.

    The runs go P outermost and seed innermost, as the report's cells, and
    each is checked as a run alone is, before any run starts.
    """

    base: ExperimentSpec
    P_values: tuple
    Q_values: tuple
    seeds: tuple
    runs: tuple = field(init=False)

    def __post_init__(self):
        for name in ("P_values", "Q_values", "seeds"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError("%s must not be empty" % name)
            object.__setattr__(self, name, vals)
        # Parameters checks each strength again below; this message names the sweep key
        for key, vals in (("P", self.P_values), ("Q", self.Q_values)):
            for val in vals:
                real("sweep." + key, val)
        base = self.base
        # each seed is checked before "%d" formats it into a label
        seeds = [dataclasses.replace(base, seed=seed).seed for seed in self.seeds]
        object.__setattr__(self, "runs", tuple(
            dataclasses.replace(base, parameters=dataclasses.replace(base.parameters, P=P, Q=Q),
                                seed=seed, output_dir=str(Path(base.output_dir) / "cells"),
                                label="P%.17g_Q%.17g_seed%d" % (P, Q, seed))
            for P in self.P_values for Q in self.Q_values for seed in seeds))


@dataclass
class ExperimentResult:
    timeseries_path: Path
    report_path: Path
    report: dict


def generate_initial(spec):
    """The deterministic initial state of spec, a float (m, 4, *cells) array.

    uniform-random: per-component uniform samples in the amplitude box,
    then smoothing_passes diffusion passes; the field of neuron i and
    component k is the grid.uniform stream of the key (seed, i, k), so it
    does not depend on m.  constant-offset: neuron i gets the constant
    lo + (hi - lo) * i / (m - 1) per component.  from-file: loads an npz
    with a finite numeric array 'state' of shape (m, 4, *cells).
    """
    p, g, ic = spec.parameters, spec.grid, spec.initial
    shape = (p.m, len(COMPONENTS)) + g.shape
    if ic.mode == "from-file":
        try:
            data = np.load(ic.path)
            # an npz archive lists its arrays in .files; a .npy file loads as one array
            if "state" not in getattr(data, "files", ()):
                raise ValueError("initial.path %s is not an npz with an array 'state'"
                                 % ic.path)
            # an npz member is read, and its checksum checked, here
            x = data["state"]
        except (EOFError, zipfile.BadZipFile) as err:
            raise ValueError("initial.path %s cannot be read: %s" % (ic.path, err)) from err
        if x.shape != shape:
            raise ValueError("state array shape %s does not match (m, 4, cells)" % (x.shape,))
        if x.dtype.kind not in "iuf":
            raise ValueError("state array must be numeric, got dtype %s" % x.dtype)
        if not np.isfinite(x).all():
            raise ValueError("state array contains non-finite values")
        return np.asarray(x, dtype=float)
    x = np.empty(shape)
    if ic.mode == "constant-offset":
        for i in range(p.m):
            for k, comp in enumerate(COMPONENTS):
                lo, hi = ic.amplitude[comp]
                x[i, k] = lo + (hi - lo) * (i / (p.m - 1))
        return x
    for i in range(p.m):
        for k, comp in enumerate(COMPONENTS):
            lo, hi = ic.amplitude[comp]
            x[i, k] = uniform((spec.seed, i, k), lo, hi, g.shape)
    return smooth_field(x, g, ic.smoothing_passes)


def _pairs(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def _header(m):
    """Column names of a sample row: t, the 4m norms, energy, then the gaps."""
    cols = ["t"]
    for i in range(1, m + 1):
        cols += ["u%d_l2" % i, "v%d_l2" % i, "w%d_l2" % i, "rho%d_l4" % i]
    cols.append("energy")
    if m <= MAX_PAIR_COLUMNS_M:
        return cols + ["gap_%d_%d" % (i + 1, j + 1) for i, j in _pairs(m)]
    return cols + ["gap_max", "gap_mean"]


def _sample(t, x, g, c1):
    """The rows, in the layout of _header, of the replicates x (R, m, 4, *cells) at t.

    c1 holds each replicate's C1 for its energy.  A replicate's row is
    bitwise the row of its state sampled alone.
    """
    m = x.shape[1]
    # one norm call per neuron and component, over all replicates at once:
    # 4m calls, the count that the benchmark's layer tracing checks; and
    # one call for the gaps of all pairs of all replicates
    norms = []
    for i in range(m):
        norms += [norm_l2(x[:, i, 0], g), norm_l2(x[:, i, 1], g), norm_l2(x[:, i, 2], g),
                  norm_l4(x[:, i, 3], g)]
    energy = energy_functional(x, g, c1)
    gaps = pairwise_gap(x, g)
    if m > MAX_PAIR_COLUMNS_M:
        gaps = [[max(row), sum(row) / len(row)] for row in gaps]
    return np.column_stack([np.full(len(x), t), np.array(norms).T, energy, gaps])


def _write_csv(path, header, data):
    """header, then the rows of the 2-d array data, as comma-separated %.17g values."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * len(data)) % tuple(data.ravel().tolist()))


def write_json(path, obj):
    """Write obj as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _quasinorm_series(norms):
    """The quasi-norm of each sample from the recorded norms, shape (samples, m, 4).

    Squared L2 norms and fourth powers of the L4 norms, summed per sample
    with math.fsum, as grid.energy_functional sums its integrals.
    """
    terms = norms * norms
    terms[..., 3] *= terms[..., 3]
    return np.array([math.fsum(row) for row in terms.reshape(len(terms), -1).tolist()])


def run_experiment(spec, extra_observer=None):
    """Integrate one experiment; write a timeseries CSV and a JSON report."""
    return _run_batch([spec], extra_observer)[0]


def _run_batch(specs, extra_observer=None):
    """Integrate specs as one batch; write each one's timeseries CSV and JSON report.

    The specs differ at most in P, Q, seed and label.  Returns one
    ExperimentResult per spec, each the same as that spec's run alone.
    """
    base = specs[0]
    outdir = Path(base.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    g, cfg = base.grid, base.integrator
    consts = [compute_constants(s.parameters, g.measure, s.cstar) for s in specs]
    x = np.stack([generate_initial(s) for s in specs])
    rows = [[] for _ in specs]

    def observer(t, x, live):
        # each run keeps its rows, views of one array per observation,
        # until the batch ends
        sample = _sample(t, x, g, [consts[b].C1 for b in live])
        for r, b in enumerate(live):
            rows[b].append(sample[r])
            if extra_observer is not None:
                extra_observer(t, NetworkState(x[r], t))

    observer(0.0, x, range(len(specs)))
    _, errors = integrate(x, [s.parameters for s in specs], g, cfg, observer)
    steps = step_count(cfg)
    return [_write_run(spec, dc, rows_b, err, steps)
            for spec, dc, rows_b, err in zip(specs, consts, rows, errors)]


def _write_run(spec, dc, rows, blowup, steps):
    """Write the timeseries CSV and the JSON report of one run from its sample rows."""
    outdir = Path(spec.output_dir)
    p = spec.parameters
    ts_path = outdir / ("%s_timeseries.csv" % spec.label)
    data = np.array(rows)
    _write_csv(ts_path, _header(p.m), data)
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "spec": spec.echo(),
        "derived_constants": dc.as_dict(),
        "thresholds": {
            "P": p.P, "Pmin": dc.Pmin, "P_above": bool(p.P > dc.Pmin),
            "Q": p.Q, "Qmin": dc.Qmin, "Q_above": bool(p.Q > dc.Qmin),
        },
        "steps": steps if blowup is None else blowup.step,
        "pairs": {},
        "envelope": None,
        "degs_estimate": None,
        "verdict": None,
    }

    # the columns of a row, in the layout of _header
    m = p.m
    times = data[:, 0]
    norms = data[:, 1:1 + 4 * m].reshape(-1, m, 4)
    gaps = data[:, 2 + 4 * m:]
    if m <= MAX_PAIR_COLUMNS_M:
        gap_max = gaps.max(axis=1)   # the largest gap over all pairs at each sample
        fits = fit_decay_rate(times, gaps)
        report["degs_estimate"] = estimate_async_degree(gaps)
    else:
        fits = []
        gap_max = gaps[:, 0]
        report["note"] = ("per-pair rates are not fitted for m > %d; the verdict "
                          "reads the gap_max column" % MAX_PAIR_COLUMNS_M)

    for (i, j), fit in zip(_pairs(m), fits):
        key = "%d-%d" % (i + 1, j + 1)
        if isinstance(fit, FitWindowError):
            report["pairs"][key] = {"rate": None, "window": None, "residual": None,
                                    "n_samples": 0, "decayed": None, "note": str(fit)}
            log.info("%s pair %s: rate fit skipped: %s", spec.label, key, fit)
            continue
        report["pairs"][key] = {
            "rate": fit.rate, "window": list(fit.window),
            "residual": fit.residual, "n_samples": fit.n_samples,
            "decayed": fit.decayed,
        }
        log.debug("%s pair %s: rate %.6g over t in [%g, %g]",
                  spec.label, key, fit.rate, *fit.window)

    if blowup is None:
        env = check_absorbing_envelope(times, _quasinorm_series(norms), dc)
        report["envelope"] = {"passed": env.passed, "max_margin": env.max_margin,
                              "asymptote": dc.envelope_asymptote}

    if blowup is not None:
        report["verdict"] = "diverged"
        report["blowup"] = {"t": blowup.t, "neuron": blowup.neuron,
                            "component": blowup.component}
    elif np.all(gap_max == 0.0):
        report["verdict"] = "synchronized (trivial)"
    elif float(gap_max[-1]) <= 1e-8:
        report["verdict"] = "synchronized"
    else:
        report["verdict"] = "not synchronized"

    rp_path = outdir / ("%s_report.json" % spec.label)
    write_json(rp_path, report)
    if blowup is None:
        log.info("%s: verdict %s", spec.label, report["verdict"])
    else:
        log.info("%s: verdict diverged, %s", spec.label, blowup)
    log.debug("%s: wrote %s and %s", spec.label, ts_path, rp_path)
    return ExperimentResult(ts_path, rp_path, report)


def _run_rate(report):
    """Scalar rate for one run: median of the fitted per-pair rates."""
    rates = [v["rate"] for v in report["pairs"].values() if v.get("rate") is not None]
    return float(np.median(rates)) if rates else None


def run_sweep(sweep):
    """Run every run of sweep as one batch; write its runs' files and the sweep report."""
    base = sweep.base
    results = iter(_run_batch(sweep.runs))
    cells = []
    for P in sweep.P_values:
        for Q in sweep.Q_values:
            runs = []
            for seed in sweep.seeds:
                report = next(results).report
                runs.append({"seed": seed, "rate": _run_rate(report),
                             "verdict": report["verdict"]})
            rates = [run["rate"] for run in runs if run["rate"] is not None]
            cells.append({"P": P, "Q": Q, "runs": runs,
                          "median_rate": float(np.median(rates)) if rates else None,
                          "verdicts": [run["verdict"] for run in runs]})

    dc = compute_constants(base.parameters, base.grid.measure, base.cstar)
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "base_spec": base.echo(),
        "Pmin": dc.Pmin,
        "Qmin": dc.Qmin,
        "cells": cells,
    }
    path = Path(base.output_dir) / "sweep_report.json"
    write_json(path, report)
    return path, report
