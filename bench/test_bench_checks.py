"""Each output check passes on the program's outputs and fails on perturbed ones."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mhrnet import cli, harness  # noqa: E402

import checks  # noqa: E402
import refstep  # noqa: E402
import tracing  # noqa: E402
from workloads import Runner, Workload  # noqa: E402

SMALL = ("grid.cells=[16]", "integrator.t_end=0.5", "integrator.observe_every=10")


@pytest.fixture
def experiment(tmp_path):
    runner = Runner(cli, harness, Workload("small", SMALL), 4, tmp_path / "experiment")
    runner.run()
    return runner


@pytest.fixture
def sweep(tmp_path):
    # Pmin = 7.125 at m=3
    workload = Workload("small-sweep", SMALL + ("parameters.m=3",),
                        sweep={"P": [1.0, 10.0], "Q": [1.0]}, n_seeds=2)
    runner = Runner(cli, harness, workload, 4, tmp_path / "sweep")
    runner.run()
    return runner


def outputs(runner):
    header, data = checks.read_timeseries(runner.result.timeseries_path)
    return header, data, runner.constants(runner.params)


def test_unperturbed_outputs_pass(experiment, sweep):
    assert experiment.check() == []
    assert sweep.check() == []


def test_reference_check_fails_on_perturbed_state(experiment):
    x0, x1 = experiment.capture.states[0], experiment.capture.states[1]
    x_ref = refstep.advance(x0, experiment.params, experiment.spacing, experiment.dt,
                            experiment.scheme, experiment.observe_every)
    assert checks.check_reference(x1, x_ref, 1e-10) == []
    bumped = x1.copy()
    bumped[1, 2, 7] *= 1.0 + 1e-8
    assert checks.check_reference(bumped, x_ref, 1e-10)


def test_sample_times_check_fails_on_missing_row(experiment):
    header, data, _ = outputs(experiment)
    args = (experiment.dt, experiment.observe_every, experiment.n_steps)
    assert checks.check_sample_times(data, *args) == []
    assert checks.check_sample_times(data[:-1], *args)


@pytest.mark.parametrize("column", ["u1_l2", "rho2_l4", "gap_1_2"])
def test_last_row_check_fails_on_perturbed_value(experiment, column):
    header, data, _ = outputs(experiment)
    x_end = experiment.capture.states[experiment.n_rows - 1]
    assert checks.check_last_row(header, data, x_end, experiment.cell_volume) == []
    data[-1, header.index(column)] *= 1.0 + 1e-8
    assert checks.check_last_row(header, data, x_end, experiment.cell_volume)


def test_energy_check_fails_on_perturbed_energy(experiment):
    header, data, consts = outputs(experiment)
    m = experiment.params["m"]
    assert checks.check_energy(header, data, m, consts["C1"]) == []
    data[5, header.index("energy")] *= 1.0 + 1e-10
    assert checks.check_energy(header, data, m, consts["C1"])


def test_envelope_check_fails_above_envelope(experiment):
    header, data, consts = outputs(experiment)
    m = experiment.params["m"]
    assert checks.check_envelope(header, data, m, consts) == []
    data[-1, header.index("v2_l2")] = np.sqrt(1.01 * consts["asymptote"])
    assert checks.check_envelope(header, data, m, consts)


def test_sweep_check_fails_on_perturbed_median_rate(sweep):
    path, report = sweep.result
    cells_dir = Path(path).parent / "cells"
    m = sweep.params["m"]
    assert checks.check_sweep(report, cells_dir, sweep.sweep, m) == []
    report["cells"][1]["median_rate"] *= 1.0 + 1e-6
    assert checks.check_sweep(report, cells_dir, sweep.sweep, m)


def test_sweep_check_fails_on_missing_cell(sweep):
    path, report = sweep.result
    cells_dir = Path(path).parent / "cells"
    next(cells_dir.glob("*_report.json")).unlink()
    assert checks.check_sweep(report, cells_dir, sweep.sweep, sweep.params["m"])


def test_traced_run_counts_layer_calls(experiment):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        experiment.run()
    finally:
        tracer.uninstall()
    assert harness.run_experiment.__module__ == "mhrnet.harness"
    assert not tracer.missing
    metrics = tracing.layer_metrics(tracer, 0.1, 0.01, 1000, 0.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    m = experiment.params["m"]
    assert metrics["model.reaction_calls_per_step"] == m
    assert metrics["integrator.solve_calls_per_step"] == 2 * m
    assert metrics["analysis.gap_calls_per_sample"] == m * (m - 1) / 2
    assert metrics["grid.norm_calls_per_sample"] == 4 * m
    assert metrics["model.full_rhs_us_per_call"] == 0.0
    assert 0.0 < metrics["integrator.step_self_us"] < metrics["integrator.step_us"]
