import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mhrnet import harness
from mhrnet.analysis import compute_constants, pairwise_gap
from mhrnet.grid import Grid, energy_functional, norm_l2, norm_l4, seminorm_h1
from mhrnet.harness import (
    ExperimentSpec,
    InitialCondition,
    SweepSpec,
    generate_initial,
    run_experiment,
    run_sweep,
    MAX_PAIR_COLUMNS_M,
    SCHEMA_VERSION,
    _header,
    _quasinorm_series,
    _sample,
    _write_csv,
)
from mhrnet.integrator import IntegratorConfig
from mhrnet.model import Parameters


def small_spec(tmp_path, **kw):
    defaults = dict(
        parameters=Parameters(P=2.0, Q=2.0),
        grid=Grid((32,), (1.0,)),
        integrator=IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=0.5, observe_every=50),
        initial=InitialCondition(smoothing_passes=2),
        seed=1,
        output_dir=str(tmp_path),
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestInitialCondition:
    def test_degenerate_box_gives_constant(self):
        ic = InitialCondition(amplitude={c: (0.3, 0.3) for c in ("u", "v", "w", "rho")})
        spec = ExperimentSpec(
            parameters=Parameters(), grid=Grid((16,), (1.0,)),
            integrator=IntegratorConfig(), initial=ic,
        )
        x = generate_initial(dataclasses.replace(spec, seed=5))
        assert x.shape == (2, 4, 16) and x.dtype == np.float64
        assert np.all(x == 0.3)

    def test_known_answer(self):
        # neuron 0's u field of seed 1 is the stream of the key (1, 0, 0)
        spec = ExperimentSpec(parameters=Parameters(), grid=Grid((16,), (1.0,)),
                              integrator=IntegratorConfig(), seed=1)
        assert generate_initial(spec)[0, 0, :3].tolist() == [
            0.7695796330698264, -0.19366524200780155, 0.6765298431623388]

    def test_neuron_fields_do_not_depend_on_m(self):
        spec = ExperimentSpec(parameters=Parameters(), grid=Grid((12, 10), (1.0, 1.0)),
                              integrator=IntegratorConfig(),
                              initial=InitialCondition(smoothing_passes=2), seed=3)
        x2 = generate_initial(spec)
        x5 = generate_initial(dataclasses.replace(spec, parameters=Parameters(m=5)))
        assert np.array_equal(x5[:2], x2)

    def test_deterministic_and_seed_sensitive(self):
        spec = ExperimentSpec(parameters=Parameters(), grid=Grid((32,), (1.0,)),
                              integrator=IntegratorConfig())
        a = generate_initial(dataclasses.replace(spec, seed=7))
        b = generate_initial(dataclasses.replace(spec, seed=7))
        c = generate_initial(dataclasses.replace(spec, seed=8))
        assert a.dtype == np.float64
        assert np.array_equal(a[0, 0], b[0, 0])
        assert not np.array_equal(a[0, 0], c[0, 0])
        # neurons draw from independent substreams
        assert not np.array_equal(a[0, 0], a[1, 0])

    def test_smoothing_lowers_h1(self):
        g = Grid((64,), (1.0,))
        rough = ExperimentSpec(parameters=Parameters(), grid=g, integrator=IntegratorConfig(),
                               seed=1)
        smooth = ExperimentSpec(parameters=Parameters(), grid=g, integrator=IntegratorConfig(),
                                initial=InitialCondition(smoothing_passes=5), seed=1)
        h1_rough = seminorm_h1(generate_initial(rough)[0, 0], g)
        h1_smooth = seminorm_h1(generate_initial(smooth)[0, 0], g)
        assert h1_smooth < h1_rough

    def test_constant_offset_ladder(self):
        ic = InitialCondition(mode="constant-offset",
                              amplitude={c: (0.0, 1.0) for c in ("u", "v", "w", "rho")})
        spec = ExperimentSpec(parameters=Parameters(m=3), grid=Grid((8,), (1.0,)),
                              integrator=IntegratorConfig(), initial=ic)
        x = generate_initial(spec)
        assert x.dtype == np.float64
        assert np.allclose(x[0, 0], 0.0)
        assert np.allclose(x[1, 0], 0.5)
        assert np.allclose(x[2, 0], 1.0)

    def test_from_file_roundtrip(self, tmp_path):
        g = Grid((16,), (1.0,))
        rng = np.random.default_rng(0)
        state = rng.normal(size=(2, 4, 16))
        path = tmp_path / "ic.npz"
        np.savez(path, state=state)
        spec = ExperimentSpec(
            parameters=Parameters(), grid=g, integrator=IntegratorConfig(),
            initial=InitialCondition(mode="from-file", path=str(path)),
        )
        x = generate_initial(spec)
        assert x.dtype == np.float64
        assert np.array_equal(x[1, 3], state[1, 3])
        # an integer state loads as floats
        np.savez(path, state=np.arange(2 * 4 * 16).reshape(2, 4, 16))
        x = generate_initial(spec)
        assert x.dtype == np.float64 and x[1, 3, 15] == 127.0

    def test_from_file_shape_mismatch(self, tmp_path):
        path = tmp_path / "ic.npz"
        np.savez(path, state=np.zeros((2, 4, 8)))
        spec = ExperimentSpec(
            parameters=Parameters(), grid=Grid((16,), (1.0,)),
            integrator=IntegratorConfig(),
            initial=InitialCondition(mode="from-file", path=str(path)),
        )
        with pytest.raises(ValueError):
            generate_initial(spec)

    @pytest.mark.parametrize("state, message", [
        (np.full((2, 4, 16), "1.0"), "numeric"),
        (np.full((2, 4, 16), 1 + 0j), "numeric"),
        (np.where(np.arange(16) == 5, np.nan, 0.0) * np.ones((2, 4, 1)), "non-finite"),
        (np.full((2, 4, 16), -np.inf), "non-finite"),
    ])
    def test_from_file_rejects_bad_values(self, tmp_path, state, message):
        path = tmp_path / "ic.npz"
        np.savez(path, state=state)
        spec = ExperimentSpec(
            parameters=Parameters(), grid=Grid((16,), (1.0,)),
            integrator=IntegratorConfig(),
            initial=InitialCondition(mode="from-file", path=str(path)),
        )
        with pytest.raises(ValueError, match=message):
            generate_initial(spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            InitialCondition(mode="gaussian")
        with pytest.raises(ValueError):
            InitialCondition(amplitude={"u": (1.0, -1.0)})
        for bad in (-1, 1.5):
            with pytest.raises(ValueError):
                InitialCondition(smoothing_passes=bad)
        with pytest.raises(ValueError):
            InitialCondition(mode="from-file")
        with pytest.raises(ValueError, match="component.* x"):
            InitialCondition(amplitude={"u": (0.0, 1.0), "x": (0.0, 1.0)})


class TestSpecValidation:
    def test_cstar_positive(self, tmp_path):
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                small_spec(tmp_path, cstar=bad)

    @pytest.mark.parametrize("label", ["a/b", "../escaped", "/abs"])
    def test_label_with_path_separator_rejected(self, tmp_path, label):
        with pytest.raises(ValueError, match="label .* path separator"):
            small_spec(tmp_path, label=label)


@pytest.mark.parametrize("m", [8, 17])
def test_quasinorm_series_exactly_permutation_invariant(m):
    rng = np.random.default_rng(m)
    norms = rng.uniform(0.0, 3.0, size=(40, m, 4))
    for perm in [rng.permutation(m) for _ in range(4)] + [np.arange(m)[::-1]]:
        assert np.array_equal(_quasinorm_series(norms[:, perm]), _quasinorm_series(norms))


@pytest.mark.parametrize("cells", [(2,), (9,), (129,), (8, 6), (2, 5)])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("m", [2, 5, 17])
def test_batch_sample_rows_equal_rows_sampled_alone(cells, B, m):
    # each replicate's row is bitwise the row of its state sampled alone:
    # one norm call per field, its own energy and the per-state gap list
    g = Grid(cells, (1.5,) * len(cells))
    rng = np.random.default_rng(7)
    scale = rng.uniform(0.01, 100.0, (B,) + (1,) * (2 + len(cells)))
    x = rng.uniform(-2.0, 2.0, size=(B, m, 4) + cells) * scale
    c1 = [5.0, 0.5, 2.0][:B]
    rows = _sample(0.25, x, g, c1)
    assert rows.shape == (B, len(_header(m)))
    for b, xb in enumerate(x):
        want = [0.25]
        for u, v, w, rho in xb:
            want += [norm_l2(u, g), norm_l2(v, g), norm_l2(w, g), norm_l4(rho, g)]
        want += list(energy_functional(xb[None], g, c1[b]))
        (gaps,) = pairwise_gap(xb[None], g)
        want += gaps if m <= MAX_PAIR_COLUMNS_M else [max(gaps), sum(gaps) / len(gaps)]
        assert rows[b].tobytes() == np.array(want).tobytes()


def test_write_csv_formats_each_value_in_17g(tmp_path):
    # signed zero, non-finite, subnormal and near-underflow values, where a
    # difference between formatting numpy scalars and Python floats would show
    data = np.array([[0.0, -0.0, np.nan, np.inf],
                     [-np.inf, 5e-324, 1e-300, 1.0 / 3.0],
                     [-2.5e-310, -1e300, 1.0, 2.0 ** 60]])
    header = ["t", "a", "b", "c"]
    _write_csv(tmp_path / "rows.csv", header, data)
    want = "t,a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in data)
    assert (tmp_path / "rows.csv").read_bytes() == want.encode()
    assert want.splitlines()[1] == "0,-0,nan,inf"


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        res = run_experiment(small_spec(tmp_path))
        assert res.timeseries_path.exists() and res.report_path.exists()
        report = json.loads(res.report_path.read_text())
        for key in ("schema_version", "spec", "derived_constants", "thresholds",
                    "pairs", "envelope", "verdict"):
            assert key in report
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["verdict"] in (
            "synchronized", "synchronized (trivial)", "not synchronized", "diverged",
        )

    def test_thresholds_compared_strictly(self, tmp_path):
        # at P = Pmin, xi = 0: neither threshold is exceeded, and no rate is guaranteed
        g = Grid((16,), (1.0,))
        dc = compute_constants(Parameters(), g.measure, 1.0)
        spec = small_spec(tmp_path, parameters=Parameters(P=dc.Pmin, Q=dc.Qmin), grid=g,
                          integrator=IntegratorConfig(dt=1e-3, t_end=0.01))
        report = run_experiment(spec).report
        th = report["thresholds"]
        assert (th["P"], th["Q"]) == (th["Pmin"], th["Qmin"])
        assert th["P_above"] is False and th["Q_above"] is False
        assert report["derived_constants"]["kappa"] is None

    def test_csv_header_contract(self, tmp_path):
        res = run_experiment(small_spec(tmp_path))
        header = res.timeseries_path.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert "u1_l2" in header and "rho2_l4" in header
        assert "energy" in header and "gap_1_2" in header

    def test_rerun_byte_identical(self, tmp_path):
        a = run_experiment(small_spec(tmp_path / "a"))
        b = run_experiment(small_spec(tmp_path / "b"))
        assert a.timeseries_path.read_bytes() == b.timeseries_path.read_bytes()

    def test_trivial_synchronization(self, tmp_path):
        ic = InitialCondition(mode="constant-offset",
                              amplitude={c: (0.2, 0.2) for c in ("u", "v", "w", "rho")})
        res = run_experiment(small_spec(tmp_path, initial=ic))
        assert res.report["verdict"] == "synchronized (trivial)"
        data = np.genfromtxt(res.timeseries_path, delimiter=",", names=True)
        assert np.all(data["gap_1_2"] == 0.0)

    def test_steps_recorded(self, tmp_path):
        report = run_experiment(small_spec(tmp_path)).report
        assert report["steps"] == 500

    def test_one_gap_call_per_sample(self, tmp_path, monkeypatch):
        calls = []

        def counted(x, g):
            calls.append(x.shape[:2])
            return pairwise_gap(x, g)

        monkeypatch.setattr(harness, "pairwise_gap", counted)
        res = run_experiment(small_spec(tmp_path, parameters=Parameters(m=5)))
        samples = len(res.timeseries_path.read_text().splitlines()) - 1
        assert samples == 11
        assert calls == [(1, 5)] * samples

    def test_initial_row_recorded(self, tmp_path):
        res = run_experiment(small_spec(tmp_path))
        data = np.genfromtxt(res.timeseries_path, delimiter=",", names=True)
        assert data["t"][0] == 0.0
        assert data["t"][-1] == pytest.approx(0.5)

    def test_divergence_reported_not_raised(self, tmp_path):
        spec = small_spec(
            tmp_path,
            parameters=Parameters(),
            integrator=IntegratorConfig(scheme="explicit-rk4", dt=5e-3, t_end=5.0,
                                    observe_every=10, enforce_stability=False),
            initial=InitialCondition(
                amplitude={c: (-1.0, 1.0) for c in ("u", "v", "w", "rho")}),
            grid=Grid((64,), (1.0,)),
        )
        res = run_experiment(spec)
        assert res.report["verdict"] == "diverged"
        assert res.report["blowup"]["t"] > 0.0
        assert res.report["steps"] == round(res.report["blowup"]["t"] / 5e-3)
        assert res.timeseries_path.exists()


    @pytest.mark.parametrize("t_end, verdict", [(15.0, "synchronized"),
                                                (0.5, "not synchronized")])
    def test_verdict_without_pair_columns(self, tmp_path, t_end, verdict):
        # m = 17 records only gap_max/gap_mean; the verdict reads gap_max
        res = run_experiment(small_spec(
            tmp_path, parameters=Parameters(P=2.0, Q=2.0, m=17),
            integrator=IntegratorConfig(dt=1e-2, t_end=t_end, observe_every=50)))
        header = res.timeseries_path.read_text().splitlines()[0].split(",")
        assert "gap_max" in header and "gap_1_2" not in header
        assert res.report["verdict"] == verdict
        assert res.report["pairs"] == {}
        assert "not fitted" in res.report["note"]
        assert "note" not in run_experiment(small_spec(tmp_path / "m2")).report


def test_reports_fit_without_least_squares_solvers(tmp_path, monkeypatch):
    # the rate fits are closed-form lines: with numpy's least-squares
    # solvers refused, a run and a two-cell sweep give the same verdicts
    config = IntegratorConfig(dt=1e-3, t_end=0.5, observe_every=10)
    spec = small_spec(tmp_path, parameters=Parameters(m=3), integrator=config)

    def reports(out):
        solo = run_experiment(dataclasses.replace(spec, output_dir=str(out / "solo"))).report
        sweep = SweepSpec(base=dataclasses.replace(spec, output_dir=str(out / "sweep")),
                          P_values=(0.5, 2.0), Q_values=(2.0,), seeds=(1,))
        return solo, run_sweep(sweep)[1]

    def refused(*args, **kwargs):
        raise AssertionError("least-squares solver called")

    want = reports(tmp_path / "plain")
    monkeypatch.setattr(np, "polyfit", refused)
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    solo, sweep = reports(tmp_path / "refused")
    assert all(pair["rate"] is not None for pair in solo["pairs"].values())
    assert solo["verdict"] == want[0]["verdict"]
    assert [c["verdicts"] for c in sweep["cells"]] == [c["verdicts"] for c in want[1]["cells"]]
    assert all(c["median_rate"] is not None for c in sweep["cells"])


def assert_cells_match_solo_runs(tmp_path, base, report):
    """Every run of a sweep wrote the same bytes as the same spec run alone."""
    cells_dir = Path(base.output_dir) / "cells"
    n = 0
    for cell in report["cells"]:
        for run in cell["runs"]:
            label = "P%.17g_Q%.17g_seed%d" % (cell["P"], cell["Q"], run["seed"])
            spec = dataclasses.replace(
                base, parameters=dataclasses.replace(base.parameters, P=cell["P"], Q=cell["Q"]),
                seed=run["seed"], label=label, output_dir=str(tmp_path / "solo"))
            solo = run_experiment(spec)
            for path in (solo.timeseries_path, solo.report_path):
                assert (cells_dir / path.name).read_bytes() == path.read_bytes(), path.name
            assert run["verdict"] == solo.report["verdict"]
            n += 1
    return n


class TestRunSweep:
    @pytest.mark.parametrize("grid, config", [
        (Grid((32,), (1.0,)), IntegratorConfig(dt=1e-3, t_end=0.3, observe_every=20)),
        (Grid((8, 6), (1.0, 0.75)), IntegratorConfig(dt=1e-3, t_end=0.1, observe_every=10)),
        (Grid((16,), (1.0,)),
         IntegratorConfig(scheme="explicit-rk4", dt=1e-3, t_end=0.2, observe_every=20)),
    ], ids=["imex-1d", "imex-2d", "explicit-rk4-1d"])
    def test_cells_byte_identical_to_solo_runs(self, tmp_path, grid, config):
        # P = 0 leaves u uncoupled, P = 12 is above Pmin = 10.6875, and Q = 0
        # leaves rho uncoupled: the batch mixes no-op and damping substeps
        base = small_spec(tmp_path / "sweep", grid=grid, integrator=config)
        sweep = SweepSpec(base=base, P_values=(0.0, 12.0), Q_values=(0.0, 2.0), seeds=(1, 2))
        _, report = run_sweep(sweep)
        assert sorted(c["P"] > report["Pmin"] for c in report["cells"]) == [False] * 2 + [True] * 2
        assert assert_cells_match_solo_runs(tmp_path, base, report) == 8

    @pytest.mark.parametrize("observe_every", [5, 10])
    def test_diverging_runs_leave_the_batch(self, tmp_path, observe_every):
        # dt = 0.55 with u drawn from [-5, 5]: most runs overflow within ten
        # steps, some only when uncoupled.  Observed every 10 steps they turn
        # non-finite at steps 7, 8 and 9; every 5 steps, the quasi-norm
        # ceiling stops all but one at step 5, and that one turns non-finite
        # at step 9.  The rest synchronize over all 55 steps.
        base = small_spec(
            tmp_path / "sweep", parameters=Parameters(), grid=Grid((16,), (1.0,)),
            integrator=IntegratorConfig(dt=0.55, t_end=30.0, observe_every=observe_every),
            initial=InitialCondition(amplitude={"u": (-5.0, 5.0)}, smoothing_passes=2))
        sweep = SweepSpec(base=base, P_values=(0.0, 12.0), Q_values=(1.0,), seeds=(1, 4, 5, 8))
        _, report = run_sweep(sweep)
        cells_dir = tmp_path / "sweep" / "cells"
        steps = {}
        for cell in report["cells"]:
            for run in cell["runs"]:
                assert "error" not in run
                label = "P%.17g_Q1_seed%d" % (cell["P"], run["seed"])
                cell_report = json.loads((cells_dir / (label + "_report.json")).read_text())
                steps[label] = (run["verdict"], cell_report["steps"])
        finished = {s for v, s in steps.values() if v != "diverged"}
        diverged = {s for v, s in steps.values() if v == "diverged"}
        assert finished == {55}
        assert diverged == ({5, 9} if observe_every == 5 else {7, 8, 9})
        assert assert_cells_match_solo_runs(tmp_path, base, report) == 8

    def test_single_cell_matches_simulate(self, tmp_path):
        base = small_spec(tmp_path / "sweep")
        sweep = SweepSpec(base=base, P_values=(2.0,), Q_values=(2.0,), seeds=(1,))
        path, report = run_sweep(sweep)
        assert path.exists()
        assert len(report["cells"]) == 1
        run = report["cells"][0]["runs"][0]

        solo = run_experiment(small_spec(tmp_path / "solo"))
        assert run["verdict"] == solo.report["verdict"]
        assert report["Pmin"] == solo.report["thresholds"]["Pmin"]
        cell_csv = tmp_path / "sweep" / "cells" / "P2_Q2_seed1_timeseries.csv"
        assert cell_csv.read_bytes() == solo.timeseries_path.read_bytes()

    def test_close_P_values_get_distinct_cells(self, tmp_path):
        base = small_spec(tmp_path, integrator=IntegratorConfig(dt=1e-3, t_end=0.01))
        sweep = SweepSpec(base=base, P_values=(10.0000001, 10.0000002),
                          Q_values=(1.0,), seeds=(1,))
        _, report = run_sweep(sweep)
        assert len(list((tmp_path / "cells").iterdir())) == 4
        assert all("error" not in run for cell in report["cells"] for run in cell["runs"])

    def test_unstable_dt_rejected_when_built(self, tmp_path):
        # dt violates the explicit stability guard: the spec that a sweep's
        # base and each of its runs is made from fails before any run starts
        unstable = IntegratorConfig(scheme="explicit-rk4", dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError, match="stability_limit"):
            small_spec(tmp_path, integrator=unstable)
        with pytest.raises(ValueError, match="stability_limit"):
            dataclasses.replace(small_spec(tmp_path), integrator=unstable)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["P", "Q"])
    def test_negative_strength_rejected(self, tmp_path, key):
        values = {"P_values": (2.0,), "Q_values": (1.0,), key + "_values": (2.0, -1.0)}
        with pytest.raises(ValueError, match="'%s' must be nonnegative" % key):
            SweepSpec(base=small_spec(tmp_path), seeds=(1, 2), **values)
        assert not any(tmp_path.iterdir())

    def test_runs_ordered_as_cells(self, tmp_path):
        sweep = SweepSpec(base=small_spec(tmp_path), P_values=(1.0, 3), Q_values=(0.5,),
                          seeds=(2, 1))
        assert [(s.label, s.seed) for s in sweep.runs] == [
            ("P1_Q0.5_seed2", 2), ("P1_Q0.5_seed1", 1),
            ("P3_Q0.5_seed2", 2), ("P3_Q0.5_seed1", 1),
        ]
        assert [s.parameters.P for s in sweep.runs] == [1.0, 1.0, 3.0, 3.0]
        assert {s.output_dir for s in sweep.runs} == {str(tmp_path / "cells")}

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            SweepSpec(base=small_spec(tmp_path), P_values=(1.0,), Q_values=(1.0,),
                      seeds=(1, -2))

    def test_empty_axis_rejected(self, tmp_path):
        base = small_spec(tmp_path)
        with pytest.raises(ValueError):
            SweepSpec(base=base, P_values=(), Q_values=(1.0,), seeds=(1,))
