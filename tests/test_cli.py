import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

import mhrnet
from mhrnet.analysis import compute_constants
from mhrnet.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    apply_overrides,
    build_spec,
    load_config,
    main,
)
from mhrnet.harness import write_json


def write_config(tmp_path, overrides=None):
    cfg = load_config(None)
    for dotted, value in (overrides or {}).items():
        node = cfg
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestThresholds:
    def test_default_prints_pmin(self, capsys):
        assert main(["thresholds"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Pmin" in out and "10.6875" in out

    def test_override_changes_xi(self, capsys):
        # all-ones with P = 25: xi = 2 * (2*25 - 2*10.6875) = 57.25
        assert main(["thresholds", "-s", "parameters.P=25"]) == EXIT_OK
        assert "57.25" in capsys.readouterr().out

    def test_packaged_bursting_config(self):
        # the classic chaotic set: Pmin is large, mostly its slow-w term
        # Cmult * (1 + 1/r) / m, and so is the Gronwall envelope
        with resources.as_file(resources.files("mhrnet").joinpath("data/bursting.yaml")) as path:
            cfg = load_config(path)
        spec = build_spec(cfg)
        dc = compute_constants(spec.parameters, spec.grid.measure, spec.cstar)
        assert dc.Pmin == pytest.approx(16784.7, rel=1e-5)
        assert dc.envelope_asymptote == pytest.approx(1.59e12, rel=1e-2)
        default = load_config(None)
        assert {k: v for k, v in cfg.items() if k != "parameters"} == \
            {k: v for k, v in default.items() if k != "parameters"}

    def test_dump_json(self, tmp_path, capsys):
        dump = tmp_path / "constants.json"
        assert main(["thresholds", "--dump", str(dump)]) == EXIT_OK
        data = json.loads(dump.read_text())
        assert data["Pmin"] == pytest.approx(10.6875)
        assert data["C1"] == pytest.approx(5.0)
        # P = 1 is below Pmin, where the paper guarantees no rate
        assert data["kappa"] is None
        assert re.search(r"^kappa +n/a$", capsys.readouterr().out, re.M)

    def test_missing_parameter_named(self, tmp_path, capsys):
        cfg = load_config(None)
        del cfg["parameters"]["b"]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["thresholds", "--config", str(path)]) == EXIT_CONFIG
        assert "b" in capsys.readouterr().err

    def test_unknown_parameter_rejected(self, capsys):
        assert main(["thresholds", "-s", "parameters.zeta=1"]) == EXIT_CONFIG
        assert "zeta" in capsys.readouterr().err

    def test_unknown_top_level_key_rejected(self, capsys):
        assert main(["thresholds", "-s", "sed=3"]) == EXIT_CONFIG
        assert "sed" in capsys.readouterr().err

    def test_nonfinite_cstar_rejected(self, capsys):
        assert main(["thresholds", "-s", "cstar=.inf"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_missing_config_file(self, capsys):
        assert main(["thresholds", "--config", "/nonexistent.yaml"]) == EXIT_CONFIG

    def test_binary_config_file(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["thresholds", "--config", str(path)]) == EXIT_CONFIG
        assert "not text" in capsys.readouterr().err


class TestConfigReader:
    @pytest.mark.parametrize("command, override, key", [
        (command, override, key)
        for override, key, commands in [
            ("grid.extent=[2.0]", "grid.extent", ("thresholds", "simulate", "sweep")),
            ("sweep.seed=[7]", "sweep.seed", ("sweep",)),
            ("sweep.extra=3", "sweep.extra", ("sweep",)),
            ("integrator.foo=1", "integrator.foo", ("simulate", "sweep")),
            ("initial.foo=1", "initial.foo", ("simulate", "sweep")),
            ("initial=[1]", "initial", ("simulate", "sweep")),
            ("parameters.zeta=1", "parameters.zeta", ("thresholds", "simulate", "sweep")),
            ("sed=3", "sed", ("thresholds", "simulate", "sweep")),
        ]
        for command in commands
    ])
    def test_unknown_key_in_any_section(self, tmp_path, monkeypatch, capsys,
                                        command, override, key):
        # one line naming the dotted key, and nothing written
        monkeypatch.chdir(tmp_path)
        args = [command, "-s", override] + ([] if command == "thresholds" else ["--outdir", "out"])
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert re.search(r"\b%s\b" % re.escape(key), captured.err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, override, problem", [
        # YAML 1.1 would read these as octal 8 and base-60 90
        ("simulate", "parameters.m=010", "parameter 'm' must be an integer"),
        ("thresholds", "parameters.m=010", "parameter 'm' must be an integer"),
        ("simulate", "seed=1:30", "seed must be an integer"),
        ("sweep", "seed=1:30", "seed must be an integer"),
        ("simulate", "integrator.dt=1:30.0", "dt must be a number"),
        ("simulate", "seed=18446744073709551616", "seed must be an integer <="),
        ("simulate", "label=null", "label must be a non-empty string"),
        ("simulate", "label=yes", "label must be a non-empty string"),
        ("simulate", 'label=""', "label must be a non-empty string"),
        ("sweep", "label=7", "label must be a non-empty string"),
        ("simulate", "output_dir=0", "output_dir must be a non-empty string"),
        ("simulate", "output_dir=false", "output_dir must be a non-empty string"),
        ("sweep", "output_dir=null", "output_dir must be a non-empty string"),
    ])
    def test_value_of_wrong_kind_refused(self, tmp_path, monkeypatch, capsys,
                                         command, override, problem):
        monkeypatch.chdir(tmp_path)
        assert main([command, "-s", override]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert problem in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_outdir_overrides_config_output_dir(self):
        cfg = apply_overrides(load_config(None), ["output_dir=0"])
        assert build_spec(cfg, outdir="elsewhere").output_dir == "elsewhere"

    @pytest.mark.parametrize("name", ["default.yaml", "bursting.yaml"])
    def test_report_spec_block_is_a_config(self, tmp_path, name):
        with resources.as_file(resources.files("mhrnet").joinpath("data", name)) as path:
            spec = build_spec(load_config(path), outdir=str(tmp_path / "out"))
        write_json(tmp_path / "spec.json", spec.echo())
        block = json.loads((tmp_path / "spec.json").read_text())
        assert "output_dir" not in block
        assert build_spec(block, outdir=spec.output_dir) == spec


class TestSimulate:
    def test_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid.cells": [32],
            "integrator.t_end": 0.2,
            "integrator.observe_every": 20,
        })
        code = main(["simulate", "--config", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "run_timeseries.csv").exists()
        assert (tmp_path / "out" / "run_report.json").exists()
        assert "verdict" in capsys.readouterr().out

    def test_verbose_logs_verdict_on_stderr(self, tmp_path, capsys):
        args = ["-s", "grid.cells=[16]", "-s", "integrator.t_end=0.2",
                "--outdir", str(tmp_path / "out")]
        # -v is accepted before and after the command
        for verbose in (["-v", "simulate"], ["simulate", "-v"]):
            assert main(verbose + args) == EXIT_OK
            captured = capsys.readouterr()
            verdict = captured.out.splitlines()[0].split(": ", 1)[1]
            assert "mhrnet.harness: run: verdict %s\n" % verdict in captured.err
        assert main(["simulate"] + args) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("override, name", [
        ("sed=3", "sed"),
        ("observables=[norms]", "observables"),
        ("integrator.safety=0.5", "safety"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, override, name):
        code = main(["simulate", "-s", override, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, name", [
        ("integrator.t_end=.inf", "t_end"),
        ("integrator.dt=.inf", "dt"),
        ("cstar=.inf", "cstar"),
    ])
    def test_nonfinite_value_rejected(self, tmp_path, capsys, override, name):
        code = main(["simulate", "-s", override, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err and "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, name", [
        ("parameters.m=.inf", "'m'"),
        ("integrator.observe_every=.inf", "observe_every"),
        ("seed=.inf", "seed"),
        ("initial.smoothing_passes=.inf", "smoothing_passes"),
        ("grid.cells=[.inf]", "cells"),
    ])
    def test_infinite_integer_rejected(self, tmp_path, capsys, override, name):
        code = main(["simulate", "-s", override, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err and "integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, override, name", [
        ("simulate", "seed=true", "seed"),
        ("simulate", "integrator.observe_every=true", "observe_every"),
        ("simulate", "initial.smoothing_passes=false", "smoothing_passes"),
        ("sweep", "sweep.seeds=[1, true]", "seed"),
    ])
    def test_boolean_integer_rejected(self, tmp_path, capsys, command, override, name):
        code = main([command, "-s", override, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err and "integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, problem", [
        ("initial.amplitude=5", "amplitude must be a mapping"),
        ("initial.amplitude.u=[1]", "amplitude box for 'u' must be a pair"),
        ('initial.amplitude.u=["-1","1"]', "amplitude box for 'u' must be a number"),
        ("initial.amplitude.u=[true, 2]", "amplitude box for 'u' must be a number"),
        ("initial.amplitude.x=[1, 2]", "unknown initial.amplitude component(s) x"),
        ("initial.amplitude.u=[-1.0e308, 1.0e308]", "amplitude box for 'u' is too wide"),
    ])
    def test_bad_amplitude_rejected(self, tmp_path, capsys, override, problem):
        code = main(["simulate", "-s", override, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and problem in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, problem", [
        ('grid.extents=["2"]', "grid.extents must be a number"),
        ("grid.extents=[true]", "grid.extents must be a number"),
        ("grid.extents=[.nan]", "grid.extents must be finite"),
        ("grid.extents=[-1.0]", "grid.extents must be positive"),
        ("grid.cells=[true]", "grid.cells must be an integer"),
        ("grid.cells=64", "grid.cells must be a list"),
        ("grid.extents=2.0", "grid.extents must be a list"),
        ("grid.extents=null", "grid.extents must be a list"),
    ])
    def test_bad_grid_value_rejected(self, tmp_path, capsys, override, problem):
        code = main(["simulate", "-s", override, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and problem in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, override", [
        ("simulate", "seed=-1"),
        ("sweep", "sweep.seeds=[1,-1]"),
    ])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, override):
        code = main([command, "-s", override, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err and ">= 0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("label", ["a/b", "../escaped"])
    def test_label_with_path_separator_rejected(self, tmp_path, capsys, label):
        # refused when the spec is built: no step runs and nothing is
        # written, inside the output directory or beside it
        code = main(["simulate", "-s", "label=%s" % label, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "label" in err and "path separator" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, override, name", [
        ("simulate", 'parameters.a="1"', "'a'"),
        ("simulate", 'parameters.P="2.5"', "'P'"),
        ("simulate", "parameters.c=true", "'c'"),
        ("simulate", 'integrator.dt="1e-3"', "dt"),
        ("simulate", 'integrator.t_end="2"', "t_end"),
        ("simulate", 'cstar="1"', "cstar"),
        ("thresholds", 'cstar="1"', "cstar"),
    ])
    def test_quoted_number_rejected(self, tmp_path, capsys, command, override, name):
        args = [command, "-s", override]
        if command != "thresholds":
            args += ["--outdir", str(tmp_path / "out")]
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and name in captured.err
        assert "must be a number" in captured.err
        assert not (tmp_path / "out").exists()

    def test_unwritable_outdir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["simulate", "--outdir", str(blocker / "out")])
        assert code == EXIT_CONFIG

    def test_stability_guard_off_by_config_key(self, tmp_path, capsys):
        # dt is above the explicit limit, so with the guard switched off
        # the run diverges
        code = main(["simulate", "-s", "grid.cells=[64]", "-s", "integrator.scheme=explicit-rk4",
                     "-s", "integrator.dt=5.0e-3", "-s", "integrator.t_end=5.0",
                     "-s", "integrator.observe_every=10",
                     "-s", "integrator.enforce_stability=false",
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["spec"]["integrator"]["enforce_stability"] is False

    def test_imex_blow_up_between_checks(self, tmp_path, capsys):
        # the state turns non-finite at step 7, long before the first
        # observation at step 100; the run is diverged, not a config error
        code = main(["simulate", "-s", "integrator.dt=1.0", "-s", "integrator.t_end=200",
                     "-s", "grid.cells=[16]", "-s", "initial.amplitude.u=[-5,5]",
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        assert "error:" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["verdict"] == "diverged"
        assert report["blowup"]["t"] == 7.0
        assert report["steps"] == 7

    def test_stability_guard_on_by_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid.cells": [64],
            "integrator.scheme": "explicit-rk4",
            "integrator.dt": 5e-3,
        })
        code = main(["simulate", "--config", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stability_limit" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eta", ["eta1", "eta2"])
    def test_singular_implicit_solve_rejected(self, eta, tmp_path, capsys):
        # s = dt*eta/h^2 ~ 1.6e301, where 1 + s rounds to s: exit 2 before
        # the first step, not a divergence, and without importing scipy
        code = main(["simulate", "-s", "parameters.%s=1.0e300" % eta,
                     "-s", "integrator.t_end=0.01", "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and eta in err and "1 + s rounds to s" in err
        assert not (tmp_path / "out").exists()

    def test_bad_override_value(self, capsys):
        assert main(["simulate", "-s", "parameters.b=-1"]) == EXIT_CONFIG
        assert main(["simulate", "-s", "no-equals-sign"]) == EXIT_CONFIG

    def test_exponent_float_override(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-4 (no dot) as a string
        code = main(["simulate", "-s", "integrator.dt=1e-4", "-s", "integrator.t_end=1e-3",
                     "-s", "grid.cells=[16]", "--outdir", str(tmp_path / "out")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["spec"]["integrator"]["dt"] == 1e-4

    def test_exponent_float_in_config_file(self, tmp_path):
        text = resources.files("mhrnet").joinpath("data/default.yaml").read_text()
        assert "dt: 1.0e-3" in text
        path = tmp_path / "c.yaml"
        path.write_text(text.replace("dt: 1.0e-3", "dt: 1e-4"))
        assert build_spec(load_config(path)).integrator.dt == 1e-4

    def test_nonfinite_initial_state_file(self, tmp_path, capsys):
        path = tmp_path / "ic.npz"
        np.savez(path, state=np.full((2, 4, 16), np.nan))
        code = main(["simulate", "-s", "grid.cells=[16]", "-s", "initial.mode=from-file",
                     "-s", "initial.path=%s" % path, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("damage", [
        lambda data: b"",
        lambda data: data[:200],
        lambda data: data.replace(b"\x00\x00\xf0?", b"\x00\x00\xf0@", 1),
    ], ids=["empty", "truncated", "bad-checksum"])
    def test_unreadable_initial_state_file(self, tmp_path, capsys, command, damage):
        path = tmp_path / "ic.npz"
        np.savez(path, state=np.ones((2, 4, 16)))
        path.write_bytes(damage(path.read_bytes()))
        code = main([command, "-s", "grid.cells=[16]", "-s", "initial.mode=from-file",
                     "-s", "initial.path=%s" % path, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "initial.path" in err and "cannot be read" in err
        assert not (tmp_path / "out").exists()

    def test_program_fault_propagates(self, tmp_path, monkeypatch):
        # input errors become ConfigErrors where they arise, so a ValueError
        # from inside a run is a fault: it leaves main with its traceback
        # and is not reported as a config error
        def broken(spec):
            raise ValueError("fault inside the run")

        monkeypatch.setattr(mhrnet.cli, "run_experiment", broken)
        with pytest.raises(ValueError, match="fault inside the run"):
            main(["simulate", "--outdir", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("name, save", [
        ("ic.npz", lambda path: np.savez(path, other=np.zeros((2, 4, 16)))),
        ("ic.npy", lambda path: np.save(path, np.zeros((2, 4, 16)))),
    ], ids=["npz-without-state", "npy"])
    def test_initial_state_file_without_state_array(self, tmp_path, capsys, command, name, save):
        path = tmp_path / name
        save(path)
        code = main([command, "-s", "grid.cells=[16]", "-s", "initial.mode=from-file",
                     "-s", "initial.path=%s" % path, "--outdir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "initial.path" in err and "'state'" in err


def _has_avx512():
    # a private module, named numpy.core before numpy 2
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        try:
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            return False
    return __cpu_features__.get("AVX512F", False)


class TestPortability:
    @pytest.mark.skipif(not _has_avx512(), reason="numpy reports no AVX512F")
    @pytest.mark.parametrize("overrides", [
        ["integrator.t_end=1.0"],
        ["parameters.m=8", "grid.cells=[64]", "integrator.scheme=explicit-rk4",
         "integrator.dt=1.0e-4", "integrator.t_end=0.02", "integrator.observe_every=5"],
    ], ids=["imex-be", "explicit-rk4"])
    def test_csv_bytes_independent_of_simd_level(self, tmp_path, capsys, overrides):
        # the same run with numpy's AVX-512 kernels switched off, as on a CPU
        # without them, must write the same bytes
        args = [a for o in overrides for a in ("-s", o)]
        assert main(["simulate"] + args + ["--outdir", str(tmp_path / "on")]) == EXIT_OK
        src = str(Path(mhrnet.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "mhrnet.cli", "simulate"] + args
                       + ["--outdir", str(tmp_path / "off")],
                       env=env, check=True, capture_output=True)
        on, off = ((tmp_path / d / "run_timeseries.csv").read_bytes() for d in ("on", "off"))
        assert on == off


def run_probe(probe, *args):
    """Run the Python source probe in a fresh interpreter that imports mhrnet from here."""
    src = str(Path(mhrnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", probe, *args],
                          env=env, check=True, capture_output=True, text=True)


class TestScipyImport:
    def test_loaded_only_by_an_implicit_solve(self, tmp_path):
        # scipy supplies only the imex-be diffusion solve, so the commands
        # before the last run in one process without importing it; the last
        # loads its LAPACK extension module but neither scipy nor scipy.linalg
        runs = [
            ["thresholds"],
            ["estimate-cstar", "--cells", "16", "--samples", "2"],
            ["simulate", "-s", "grid.extents=[true]"],
            ["simulate", "-s", "grid.cells=[16]", "-s", "integrator.scheme=explicit-rk4",
             "-s", "integrator.dt=1.0e-3", "-s", "integrator.t_end=0.01",
             "--outdir", str(tmp_path / "rk4")],
            ["sweep", "-s", "grid.cells=[16]", "-s", "integrator.scheme=explicit-rk4",
             "-s", "integrator.dt=1.0e-3", "-s", "integrator.t_end=0.01",
             "--outdir", str(tmp_path / "rk4-sweep")],
            ["simulate", "-s", "grid.cells=[16]", "-s", "integrator.t_end=0.01",
             "--outdir", str(tmp_path / "imex")],
        ]
        # no run imports numpy.random, nor the OpenSSL module _hashlib that
        # numpy.random brings in through secrets and hmac
        probe = ("import json, sys\n"
                 "from mhrnet.cli import main\n"
                 "for argv in json.loads(sys.argv[1]):\n"
                 "    print(main(argv), *(name in sys.modules for name in\n"
                 "          ('scipy', 'scipy.linalg', 'numpy.random', '_hashlib')),\n"
                 "          file=sys.stderr)\n")
        proc = run_probe(probe, json.dumps(runs))
        results = [line for line in proc.stderr.splitlines() if not line.startswith("error:")]
        assert results == ["0 False False False False", "0 False False False False",
                           "2 False False False False", "0 False False False False",
                           "0 False False False False", "0 False False False False"]

    def test_same_routines_as_scipy_linalg_imported_later(self):
        # the solver's LAPACK routines, loaded by an imex-be step, are the
        # very objects scipy.linalg.lapack holds when it is imported after
        # them (tests/test_integrator.py covers the other order)
        probe = ("import sys\n"
                 "import numpy as np\n"
                 "from mhrnet import integrator\n"
                 "from mhrnet.grid import Grid\n"
                 "from mhrnet.model import Parameters\n"
                 "g = Grid((16,), (1.0,))\n"
                 "cfg = integrator.IntegratorConfig(dt=1e-3, t_end=1e-3)\n"
                 "x0 = np.random.default_rng(1).uniform(-1.0, 1.0, (1, 2, 4, 16))\n"
                 "integrator.integrate(x0, [Parameters()], g, cfg)\n"
                 "assert 'scipy.linalg' not in sys.modules\n"
                 "import scipy.linalg.lapack as lapack\n"
                 "assert integrator._flapack().dpttrs is lapack.dpttrs\n"
                 "n, s = 16, 0.256\n"
                 "d = np.full(n, 1.0 + 2.0 * s)\n"
                 "d[0] = d[-1] = 1.0 + s\n"
                 "d, e, info = lapack.dpttrf(d, np.full(n - 1, -s))\n"
                 "b = np.random.default_rng(2).uniform(-1.0, 1.0, (n, 3))\n"
                 "ours = integrator.solve_banded(integrator._factor(n, s), b, False)\n"
                 "theirs = lapack.dpttrs(d, e, b)[0]\n"
                 "print(info, ours.tobytes() == theirs.tobytes())\n")
        assert run_probe(probe).stdout.split() == ["0", "True"]


class TestSweep:
    def test_single_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid.cells": [16],
            "integrator.t_end": 0.2,
            "integrator.observe_every": 20,
            "sweep.P": [1.0],
            "sweep.Q": [1.0],
            "sweep.seeds": [1],
        })
        code = main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path / "out")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
        assert len(report["cells"]) == 1
        assert "Pmin" in capsys.readouterr().out

    def test_stability_guard_off_by_config_key(self, tmp_path, capsys):
        # dt is five times the explicit limit: with the guard on the sweep
        # fails as a config error before it starts, with it off it diverges
        args = ["sweep", "-s", "grid.cells=[16]", "-s", "integrator.scheme=explicit-rk4",
                "-s", "integrator.dt=1.0e-2", "-s", "integrator.t_end=5.0",
                "-s", "sweep.P=[1.0]", "-s", "sweep.seeds=[1]"]
        code = main(args + ["-s", "integrator.enforce_stability=true",
                            "--outdir", str(tmp_path / "true")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stability_limit" in err
        assert not (tmp_path / "true").exists()
        out = tmp_path / "false"
        code = main(args + ["-s", "integrator.enforce_stability=false", "--outdir", str(out)])
        assert code == EXIT_OK
        (run,) = json.loads((out / "sweep_report.json").read_text())["cells"][0]["runs"]
        assert {"verdict": "diverged"}.items() <= run.items()

    @pytest.mark.parametrize("key", ["P", "Q"])
    def test_negative_sweep_strength_rejected(self, tmp_path, capsys, key):
        override = "sweep.%s=[-1, 1]" % key
        assert main(["sweep", "-s", override, "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'%s'" % key in err and "nonnegative" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["P", "Q"])
    @pytest.mark.parametrize("value, problem", [
        ('"a"', "must be a number"),
        ("true", "must be a number"),
        (".inf", "must be finite"),
    ])
    def test_non_numeric_sweep_value_rejected(self, tmp_path, capsys, key, value, problem):
        override = "sweep.%s=[1.0, %s]" % (key, value)
        assert main(["sweep", "-s", override, "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sweep.%s" % key in err and problem in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, key", [
        ("sweep.P=5", "sweep.P"),
        ("sweep.Q=1.0", "sweep.Q"),
        ("sweep.seeds=3", "sweep.seeds"),
        ("sweep.P=abc", "sweep.P"),
    ])
    def test_scalar_sweep_list_rejected(self, tmp_path, capsys, override, key):
        assert main(["sweep", "-s", override, "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "%s must be a list" % key in err
        assert not (tmp_path / "out").exists()

    def test_missing_sweep_section(self, tmp_path, capsys):
        cfg = load_config(None)
        del cfg["sweep"]
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG


class TestEstimateCstar:
    def test_deterministic(self, capsys):
        assert main(["estimate-cstar", "--cells", "32", "--samples", "8",
                     "--seed", "3"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["estimate-cstar", "--cells", "32", "--samples", "8",
                     "--seed", "3"]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert float(first) > 0

    def test_zero_samples_rejected(self, capsys):
        assert main(["estimate-cstar", "--cells", "32", "--samples", "0"]) == EXIT_CONFIG

    @pytest.mark.parametrize("seed, problem", [("-1", ">= 0"), ("18446744073709551616", "<=")])
    def test_seed_outside_stream_keys_rejected(self, capsys, seed, problem):
        assert main(["estimate-cstar", "--cells", "32", "--seed", seed]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be an integer " + problem in err

    def test_bad_grid_rejected(self, capsys):
        assert main(["estimate-cstar", "--cells", "1"]) == EXIT_CONFIG


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
