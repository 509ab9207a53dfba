import ast
import hashlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meanflock import characteristics, diagnostics, harness, transport
from meanflock.cli import _parse, main
from meanflock.config import CHAOS_R, EXPERIMENT_KINDS, MODELS, list_models, parse_config
from meanflock.errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    MeanflockError,
    NonFiniteCostError,
    SupportCapError,
    UnsupportedTransportError,
)
from meanflock.harness import EXPERIMENTS, build_kernel, run_from_text, sample_initial_atoms
from meanflock.dynamics import init_rng

from helpers import read_json_strict, read_report

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def transport_check_text(out_dir, n=4):
    return f"""
experiment = transport-check
model = cucker-smale
half_dim = 1
lambda = 1.0
gamma = 1.0
phi_lambda = 0.5
phi_gamma = 1.0
n_particles = {n}
t_final = 0.25
dt = 0.0125
master_seed = 7
output_dir = {out_dir}
"""


class TestCatalog:
    def test_required_models_present(self):
        catalog = list_models()
        for name in ("cucker-smale", "cucker-smale-truncated", "zero", "constant-drift"):
            assert name in catalog

    def test_catalog_stable(self):
        assert list_models() == list_models()

    def test_unknown_model_lists_catalog(self):
        with pytest.raises(ConfigError, match="cucker-smale"):
            parse_config("experiment = simulate\nmodel = nonsense\noutput_dir = /tmp/x\n")

    def test_each_model_builds(self):
        explicit = {"trunc_radius": "1.0", "trunc_margin": "1.0", "phi_lambda": "0.3"}
        for name, model in MODELS.items():
            keys = "".join(f"{k} = {v}\n" for k, v in explicit.items() if k in model.keys)
            values = parse_config(
                f"experiment = simulate\nmodel = {name}\noutput_dir = /tmp/x\n{keys}"
            ).values
            kernel = build_kernel(values)
            assert kernel.dim == harness.state_dim(values)
            assert (kernel.sigma is not None) == model.individual_noise
        assert set(list_models()) == set(MODELS)

    def test_every_kind_has_a_pipeline(self):
        assert set(EXPERIMENTS) == set(EXPERIMENT_KINDS)


class TestInitialConditions:
    def test_cs_block_scales(self):
        values = parse_config(
            "experiment = simulate\nmodel = cucker-smale\noutput_dir = /tmp/x\n"
            "init_kind = uniform\ninit_position_scale = 2.0\ninit_velocity_scale = 0.5\n"
        ).values
        atoms = sample_initial_atoms(values, init_rng(0), 4000)
        assert atoms.shape == (4000, 2)
        assert np.max(np.abs(atoms[:, 0])) <= 2.0
        assert np.max(np.abs(atoms[:, 1])) <= 0.5
        assert np.max(np.abs(atoms[:, 0])) > 1.5  # actually fills the box

    def test_deterministic_given_seed(self):
        values = parse_config(
            "experiment = simulate\nmodel = zero\ndim = 3\noutput_dir = /tmp/x\n"
        ).values
        a = sample_initial_atoms(values, init_rng(5), 10)
        b = sample_initial_atoms(values, init_rng(5), 10)
        np.testing.assert_array_equal(a, b)


class TestRun:
    def test_transport_check_passes(self, tmp_path):
        code = run_from_text(transport_check_text(tmp_path))
        assert code == 0
        report = read_report(tmp_path / "report.json")
        assert report["name"] == "transport-check"
        assert all(v["pass"] for v in report["verdicts"])
        assert all("tolerance" in v for v in report["verdicts"])
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["seeds"] == [7]
        assert manifest["config_sha256"]
        assert (manifest["status"], manifest["threads"]) == ("ok", 1)

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        code = run_from_text("experiment = simulate\nmodel = zero\n"
                             f"output_dir = {tmp_path}\ndt = -1\n")
        assert code == 1
        assert "'dt'" in capsys.readouterr().err

    def test_simulate_writes_csvs(self, tmp_path):
        text = f"""
experiment = simulate
model = constant-drift
dim = 2
drift_value = 1.0
n_particles = 3
t_final = 0.2
dt = 0.1
master_seed = 1
n_seeds = 2
output_dir = {tmp_path}
"""
        code = run_from_text(text)
        assert code == 0
        for seed in (1, 2):
            csv = tmp_path / f"run_{seed}.csv"
            assert csv.exists()
            assert csv.read_text().splitlines()[0] == "t,particle,coord_0,coord_1"
        # a blow-up raises in simulate, so a finished run has nothing to certify
        report = read_report(tmp_path / "report.json")
        assert report["verdicts"] == []
        assert sorted(report["metrics"]) == [
            "final_second_moment_seed=1", "final_second_moment_seed=2", "n_runs"
        ]

    def test_failing_verdict_exit_2(self, tmp_path, monkeypatch):
        # a velocity variance that never decays fits rate 0, below the
        # threshold 0.75 * 2 psi_m = 1.5 of a constant psi = 1 with phi = 0
        monkeypatch.setenv("MFS_THREADS", "1")
        monkeypatch.setattr(harness, "energy_series", lambda run: np.ones(run.times.size))
        text = f"""
experiment = flocking
model = cucker-smale
half_dim = 1
lambda = 1.0
gamma = 0.0
n_particles = 4
t_final = 0.5
dt = 0.01
master_seed = 3
n_seeds = 2
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 2
        [verdict] = read_report(tmp_path / "report.json")["verdicts"]
        assert verdict == {
            "check": "fitted_decay_rate_ge_bound", "value": 0.0, "tolerance": 1.5, "pass": False,
        }

    def test_blowup_exit_1(self, tmp_path, capsys, monkeypatch):
        text = f"""
experiment = simulate
model = linear-drift
dim = 1
drift_value = 50.0
n_particles = 1
t_final = 2.0
dt = 0.1
blowup_norm = 10.0
n_seeds = 2
output_dir = {tmp_path}
"""
        monkeypatch.setenv("MFS_THREADS", "2")
        assert run_from_text(text) == 1
        err = capsys.readouterr().err
        assert "blow-up" in err
        assert "seed=" in err
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert (manifest["status"], manifest["threads"]) == ("error", 2)
        assert manifest["error"]["class"] == "BlowUpError"
        assert manifest["error"]["seed"] in manifest["seeds"]
        assert not (tmp_path / "report.json").exists()

    def test_failed_run_writes_a_manifest(self, tmp_path, capsys):
        # the bound lies below the start states' norms, so the first step exceeds it
        text = f"""
experiment = flocking
model = cucker-smale
half_dim = 1
n_particles = 4
t_final = 0.5
dt = 0.01
master_seed = 4
blowup_norm = 0.5
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 1
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert message.startswith("state blow-up at step 0 of seed=4")
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["status"] == "error"
        error = manifest["error"]
        assert error.pop("max_norm") > 0.5
        assert error == {
            "class": "BlowUpError", "message": message, "seed": 4, "step_index": 0,
        }
        assert manifest["config_text"] == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_failed_run_removes_an_earlier_report(self, tmp_path, capsys):
        # a passing report from the run before must not read as this run's result
        text = transport_check_text(tmp_path)
        assert run_from_text(text) == 0
        assert (tmp_path / "report.json").exists()
        assert run_from_text(text + "init_position_scale = 1e7\n") == 1
        assert "blow-up" in capsys.readouterr().err
        assert read_json_strict(tmp_path / "manifest.json")["error"]["class"] == "BlowUpError"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_a_run_removes_earlier_trajectories(self, tmp_path, capsys):
        # the run_<seed>.csv files of the runs before must not read as this run's
        (tmp_path / "notes.txt").write_text("kept")
        (tmp_path / "run_x.csv").write_text("kept")
        text = transport_check_text(tmp_path).replace("transport-check", "simulate")
        assert run_from_text(text + "n_seeds = 3\n") == 0
        assert run_from_text(text) == 0
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert (manifest["status"], manifest["seeds"]) == ("ok", [7])
        assert sorted(p.name for p in tmp_path.glob("run_*.csv")) == ["run_7.csv", "run_x.csv"]
        assert run_from_text(text + "init_position_scale = 1e7\n") == 1
        assert "blow-up" in capsys.readouterr().err
        assert read_json_strict(tmp_path / "manifest.json")["status"] == "error"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "notes.txt", "run_x.csv"]

    def test_empty_output_dir_argument_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # Path("") is the current directory, which the argument did not name
        monkeypatch.chdir(tmp_path)
        text = "experiment = simulate\nmodel = zero\noutput_dir = out\n"
        assert run_from_text(text, output_dir="") == 1
        assert capsys.readouterr().err == "error: cannot write output to an empty directory name\n"
        assert list(tmp_path.iterdir()) == []

    def test_foreign_error_writes_a_manifest_and_keeps_its_traceback(self, tmp_path, monkeypatch):
        # an error from outside the package is raised again after the manifest
        monkeypatch.setenv("MFS_THREADS", "1")

        def worker(values, seed):
            raise RuntimeError("worker failed")

        monkeypatch.setitem(EXPERIMENTS, "simulate", (worker, EXPERIMENTS["simulate"][1]))
        text = f"experiment = simulate\nmodel = zero\noutput_dir = {tmp_path}\n"
        with pytest.raises(RuntimeError, match="^worker failed$"):
            run_from_text(text)
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["status"] == "error"
        assert manifest["error"] == {"class": "RuntimeError", "message": "worker failed"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_transport_overflow_is_a_package_error(self, tmp_path, capsys):
        # the states grow to about 1e290, under the blow-up norm, so their
        # squared distances overflow and the transport solver refuses the
        # cost matrix with a typed error
        text = f"""
experiment = cauchy
model = linear-drift
dim = 2
drift_value = 1e30
sizes = 8, 4, 2
t_final = 1
dt = 0.1
blowup_norm = 1e300
n_seeds = 2
output_dir = {tmp_path}
"""
        # the overflow is handled: it raises the typed error, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_from_text(text) == 1
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert message == "transport cost matrix of shape (4, 8) has non-finite entries"
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["status"] == "error"
        assert manifest["error"] == {
            "class": "NonFiniteCostError", "message": message,
            "what": "transport cost matrix of shape (4, 8)",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_cauchy_overflow_is_a_package_error(self, tmp_path, capsys):
        # velocities of about 1e80: the coupled distances are finite, their
        # squared deviations in the stderr are not, and an infinite stderr
        # must not pass a verdict held to -stderr
        text = ("experiment = cauchy\nmodel = cucker-smale\nphi_lambda = 0.5\nsizes = 8, 4, 2\n"
                "n_seeds = 3\ninit_velocity_scale = 1e80\nt_final = 0.1\ndt = 0.05\n"
                f"blowup_norm = 1e300\noutput_dir = {tmp_path}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_from_text(text) == 1
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert message == "the cauchy estimate has non-finite entries"
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["error"] == {
            "class": "NonFiniteCostError", "message": message, "what": "the cauchy estimate",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize(
        "body",
        [
            # |X_i - Y_i|^330 of order-one gaps: the sups are finite, their
            # squares in the stderr are not
            "model = cucker-smale\nhalf_dim = 1\nphi_lambda = 0.5\nn_particles = 8\n"
            "wasserstein_p = 330\ncomparison_shift = 3",
            # states of about 1e290, under blowup_norm and radius: their
            # squared gaps overflow
            "model = linear-drift\ndim = 2\ndrift_value = 1e30\nn_particles = 4\n"
            "t_final = 1\ndt = 0.1\nblowup_norm = 1e300\nradius = 1e301",
        ],
        ids=["stderr", "estimate"],
    )
    def test_comparison_overflow_is_a_package_error(self, tmp_path, capsys, body):
        # an overflowing estimate is no failed claim (exit 2) but a typed error
        text = f"experiment = comparison\n{body}\nn_seeds = 2\noutput_dir = {tmp_path}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_from_text(text) == 1
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert message == "the 'full' comparison estimate has non-finite entries"
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["error"] == {
            "class": "NonFiniteCostError", "message": message,
            "what": "the 'full' comparison estimate",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize(
        "body",
        [
            # velocities of about 1e160: their squared gaps overflow in the
            # field and in the weak form's generator
            "experiment = weakform\nn_seeds = 16\ninit_velocity_scale = 1e160",
            # positions of about 1e160: their squared gaps overflow in the
            # field and in the observed position spread
            "experiment = flocking\nn_seeds = 2\ninit_position_scale = 1e160",
            # velocities of about 1e80: the squared deviations of their
            # energies overflow in the ensemble stderr, the energies do not
            "experiment = flocking\nn_seeds = 2\ninit_velocity_scale = 1e80",
        ],
        ids=["weakform", "flocking", "flocking-velocity-1e80"],
    )
    def test_overflowing_field_warns_nothing(self, tmp_path, capsys, body):
        text = (f"{body}\nmodel = cucker-smale\nphi_lambda = 0.5\nn_particles = 4\nt_final = 0.1\n"
                f"dt = 0.05\nblowup_norm = 1e300\noutput_dir = {tmp_path}\n")
        assert run_from_text(text) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "body",
        [
            # psi is constant and psi_m > 4 phi_lambda^2, so the bound applies:
            # a fit to log(inf) would read as a failed claim
            "gamma = 0\nphi_lambda = 0.1",
            # psi decays over the infinite spread, so the bound would read as
            # not applicable
            "phi_lambda = 0.5",
        ],
        ids=["gamma-0", "velocity-1e200"],
    )
    def test_flocking_overflow_is_a_package_error(self, tmp_path, capsys, body):
        # velocities of about 1e200: the energies overflow, and so does the
        # squared norm of the mean-velocity drift; an infinite mean energy is
        # no verdict (exit 2) and no pass (exit 0) but a typed error
        text = (f"experiment = flocking\nmodel = cucker-smale\n{body}\nn_seeds = 2\n"
                "init_velocity_scale = 1e200\nn_particles = 4\nt_final = 0.1\ndt = 0.05\n"
                f"blowup_norm = 1e300\noutput_dir = {tmp_path}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_from_text(text) == 1
        message = "the flocking energy estimate has non-finite entries"
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["status"] == "error"
        assert manifest["error"] == {
            "class": "NonFiniteCostError", "message": message,
            "what": "the flocking energy estimate",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_non_finite_blowup_manifest_is_strict_json(self, tmp_path):
        # the fourth step overflows the state to inf, under a bound near the float maximum
        text = f"""
experiment = simulate
model = linear-drift
dim = 1
drift_value = 1e308
n_particles = 1
t_final = 2.0
dt = 0.5
blowup_norm = 1.7e308
output_dir = {tmp_path}
"""
        # the overflow is no warning
        assert run_from_text(text) == 1
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["error"]["max_norm"] == "inf"

    # finite states whose squares overflow: the run finishes, with an infinite moment
    OVERFLOWING_MOMENT = """
experiment = simulate
model = linear-drift
dim = 1
drift_value = 1e300
n_particles = 4
t_final = 0.1
dt = 0.1
blowup_norm = 1e308
output_dir = {out}
"""

    def test_non_finite_metric_report_is_strict_json(self, tmp_path):
        assert run_from_text(self.OVERFLOWING_MOMENT.format(out=tmp_path)) == 0
        report = read_report(tmp_path / "report.json")
        assert report["metrics"]["final_second_moment_seed=0"] == "inf"

    def test_handled_overflow_warns_nothing(self, tmp_path):
        # the blow-up norm falls back to a scaled norm, the moment is written as "inf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_from_text(self.OVERFLOWING_MOMENT.format(out=tmp_path)) == 0

    @pytest.mark.parametrize(
        "threads, n_seeds, pools",
        [("4", 2, [2]), ("2", 3, [2]), ("4", 1, []), ("1", 3, [])],
        ids=["4-workers-2-seeds", "2-workers-3-seeds", "one-seed", "serial"],
    )
    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch, threads, n_seeds, pools):
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("MFS_THREADS", threads)
        assert run_from_text(transport_check_text(tmp_path) + f"n_seeds = {n_seeds}\n") == 0
        assert started == pools
        manifest = read_json_strict(tmp_path / "manifest.json")
        assert manifest["threads"] == (pools[0] if pools else 1)

    def test_bad_worker_count_fails_before_any_output(self, tmp_path, monkeypatch, capsys):
        for threads in ("two", "0", "-1"):
            monkeypatch.setenv("MFS_THREADS", threads)
            assert run_from_text(transport_check_text(tmp_path / "out")) == 1
            err = capsys.readouterr().err
            assert f"MFS_THREADS must be a positive integer, got '{threads}'" in err
            assert not (tmp_path / "out").exists()

    # each package error built from its declared fields, and its message
    ERRORS = {
        BlowUpError: ((3, 12.0, 5), "state blow-up at step 3 of seed=5: max particle norm 1.200e+01"),
        SupportCapError: ((10, 4), "combined support size 10 exceeds solver cap 4; subsample the "
                                   "measures before computing exact distances"),
        DimensionMismatchError: (("x", 2, 3), "argument 'x' has dimension 3, expected 2"),
        UnsupportedTransportError: ((4, 6), "no exact transport route between 4 and 6 atoms: "
                                            "one atom count must divide the other"),
        NonFiniteCostError: (("transport cost matrix of shape (4, 8)",),
                             "transport cost matrix of shape (4, 8) has non-finite entries"),
        ConfigError: (("line 2: unknown key 'x'",), "line 2: unknown key 'x'"),
    }

    def test_every_error_is_listed(self):
        assert set(self.ERRORS) == set(MeanflockError.__subclasses__())

    @pytest.mark.parametrize("cls", MeanflockError.__subclasses__(), ids=lambda c: c.__name__)
    def test_errors_survive_pickling(self, cls):
        values, message = self.ERRORS[cls]
        error = cls(*values)
        if cls is BlowUpError:
            error.partial = np.zeros((4, 2, 2))
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error) == message
        for name, value in zip(cls.fields, values, strict=True):
            assert getattr(copy, name) == getattr(error, name) == value
        assert getattr(copy, "partial", None) is None

    @pytest.mark.parametrize("cls", MeanflockError.__subclasses__(), ids=lambda c: c.__name__)
    def test_error_record_holds_the_declared_fields(self, cls):
        values, message = self.ERRORS[cls]
        record = json.loads(json.dumps(harness._error_record(cls(*values)), allow_nan=False))
        assert record == {"class": cls.__name__, "message": message, **dict(zip(cls.fields, values))}

    def test_rerun_manifest_bitwise(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_from_text(transport_check_text(first)) == 0
        manifest = read_json_strict(first / "manifest.json")
        assert run_from_text(manifest["config_text"], output_dir=str(second)) == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    def test_worker_count_does_not_change_report(self, tmp_path, monkeypatch):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        text_s = transport_check_text(serial_dir) + "n_seeds = 3\n"
        text_p = transport_check_text(parallel_dir) + "n_seeds = 3\n"
        monkeypatch.setenv("MFS_THREADS", "1")
        assert run_from_text(text_s) == 0
        monkeypatch.setenv("MFS_THREADS", "4")
        assert run_from_text(text_p) == 0
        assert (serial_dir / "report.json").read_bytes() == (
            parallel_dir / "report.json"
        ).read_bytes()


class TestCli:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "cucker-smale-truncated" in out

    def test_validate_good(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(transport_check_text(tmp_path / "out"))
        assert main(["validate", str(cfg)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = simulate\nbogus = 1\n")
        assert main(["validate", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_run_via_cli(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg.write_text(transport_check_text(out))
        assert main(["run", str(cfg)]) == 0
        assert (out / "report.json").exists()

    def test_run_output_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(transport_check_text(tmp_path / "ignored"))
        override = tmp_path / "override"
        assert main(["run", str(cfg), "--output-dir", str(override)]) == 0
        assert (override / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_missing_config_file(self, capsys):
        errors = []
        for command in ("run", "validate"):
            assert main([command, "/nonexistent/exp.cfg"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: cannot read config /nonexistent/exp.cfg: ")
        assert errors[0].count("\n") == 1 and errors[0].endswith("\n")

    def test_output_dir_that_cannot_be_made(self, tmp_path, capsys):
        # a file where the directory should be: a one-line error, not a traceback
        blocker = tmp_path / "taken"
        blocker.write_text("")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(transport_check_text(blocker))
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output to {blocker}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert blocker.read_text() == ""

    def test_empty_output_dir_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # an empty value is a missing one, not the current directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(transport_check_text(""))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 1
            assert "field 'output_dir' expects str: empty value" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # a UTF-8 file saved with a byte-order mark validates and runs as the text after it
        text = transport_check_text(tmp_path / "out")
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(text.encode("utf-8-sig"))
        assert main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().out == "valid: experiment=transport-check seeds=[7]\n"
        assert main(["run", str(cfg)]) == 0
        manifest = read_json_strict(tmp_path / "out" / "manifest.json")
        assert manifest["config_text"] == text
        assert manifest["config_sha256"] == parse_config(text).sha256()

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("experiment = simulate\nmodel = zero  # café\n".encode("latin-1"))
        for command in ("run", "validate"):
            assert main([command, str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec")


RUN_USAGE = "usage: meanflock run [-h] [--output-dir DIR] CONFIG"
VALIDATE_USAGE = "usage: meanflock validate [-h] [--schema] CONFIG"
TOP_USAGE = "usage: meanflock [-h] {run,models,validate} ..."


class TestCommandLine:
    @pytest.mark.parametrize("argv, parsed", [
        (["run", "a.cfg"], ("run", "a.cfg", {})),
        (["run", "a.cfg", "--output-dir", "d"], ("run", "a.cfg", {"--output-dir": "d"})),
        (["run", "--output-dir", "d", "a.cfg"], ("run", "a.cfg", {"--output-dir": "d"})),
        (["run", "a.cfg", "--output-dir=d"], ("run", "a.cfg", {"--output-dir": "d"})),
        (["run", "--output-dir=d", "a.cfg"], ("run", "a.cfg", {"--output-dir": "d"})),
        (["run", "a.cfg", "--out", "d"], ("run", "a.cfg", {"--output-dir": "d"})),
        (["run", "a.cfg", "--out=d=e"], ("run", "a.cfg", {"--output-dir": "d=e"})),
        (["run", "a.cfg", "--out", "d", "--out", "e"], ("run", "a.cfg", {"--output-dir": "e"})),
        (["run", "--", "-a.cfg"], ("run", "-a.cfg", {})),
        (["validate", "a.cfg"], ("validate", "a.cfg", {})),
        (["validate", "a.cfg", "--schema"], ("validate", "a.cfg", {"--schema": True})),
        (["validate", "--schema", "a.cfg"], ("validate", "a.cfg", {"--schema": True})),
        (["validate", "a.cfg", "--sch"], ("validate", "a.cfg", {"--schema": True})),
        (["models"], ("models", None, {})),
    ])
    def test_accepted_forms(self, argv, parsed):
        assert _parse(argv) == parsed

    @pytest.mark.parametrize("argv, usage, rows", [
        (["--help"], TOP_USAGE, ["run execute an experiment config",
                                 "models list available kernel models",
                                 "validate check a config without running it"]),
        (["-h"], TOP_USAGE, []),
        (["--he"], TOP_USAGE, []),
        (["run", "--help"], RUN_USAGE, ["CONFIG path to a key = value config file",
                                        "--output-dir DIR override the config's output_dir"]),
        (["run", "a.cfg", "-h"], RUN_USAGE, []),
        (["validate", "a.cfg", "--schema", "--help"], VALIDATE_USAGE,
         ["CONFIG path to a key = value config file", "--schema also print the schema"]),
        (["models", "-h"], "usage: meanflock models [-h]", []),
    ])
    def test_help(self, argv, usage, rows, capsys):
        # the commands and flags that each help shows, one per row
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(usage + "\n")
        shown = {" ".join(line.split()) for line in out.splitlines()}
        assert {*rows, "-h, --help show this help message and exit"} <= shown

    @pytest.mark.parametrize("argv, text", [
        (["--help"], f"""{TOP_USAGE}

Mean-field particle simulations with common and individual noise

  run         execute an experiment config
  models      list available kernel models
  validate    check a config without running it
  -h, --help  show this help message and exit
"""),
        (["run", "--help"], f"""{RUN_USAGE}

execute an experiment config

  CONFIG            path to a key = value config file
  --output-dir DIR  override the config's output_dir
  -h, --help        show this help message and exit
"""),
        (["models", "-h"], """usage: meanflock models [-h]

list available kernel models

  -h, --help  show this help message and exit
"""),
        (["validate", "--help"], f"""{VALIDATE_USAGE}

check a config without running it

  CONFIG      path to a key = value config file
  --schema    also print the schema
  -h, --help  show this help message and exit
"""),
    ], ids=["top", "run", "models", "validate"])
    def test_help_text_is_pinned(self, argv, text, capsys):
        # every help text is rendered from the command table: the bytes must not drift
        assert main(argv) == 0
        assert capsys.readouterr() == (text, "")

    def test_schema_text_is_pinned(self, tmp_path, capsys):
        # the schema is rendered from config.SCHEMA: adding, removing or
        # documenting a key is a deliberate edit of this text
        cfg = tmp_path / "a.cfg"
        cfg.write_text("experiment = simulate\nmodel = zero\noutput_dir = out\n")
        assert main(["validate", str(cfg), "--schema"]) == 0
        assert capsys.readouterr() == ("""valid: experiment=simulate seeds=[0]

schema:
  experiment (str)  required  choices=simulate|flocking|weakform|cauchy|chaos|comparison|\
transport-check  experiment kind; experiment keys it does not read are rejected
  model (str)  required  kernel model name, see `meanflock models`; keys it does not read are \
rejected
  output_dir (str)  required  artifact directory
  half_dim (int)  default=1  d for position-velocity models
  dim (int)  default=1  state dimension for generic models
  lambda (float)  default=1.0  psi amplitude
  gamma (float)  default=1.0  psi decay exponent
  phi_lambda (float)  default=0.0  phi amplitude
  phi_gamma (float)  default=0.0  phi decay exponent
  trunc_radius (float)  velocity truncation radius
  trunc_margin (float)  velocity truncation smoothing margin
  sigma_scale (float)  default=0.1  individual noise amplitude
  drift_value (float)  default=1.0  constant/linear kernel coefficient
  n_particles (int)  default=8
  t_final (float)  default=1.0
  dt (float)  default=0.01
  scheme (str)  default=euler_ito  choices=euler_ito|heun_stratonovich
  s1_convention (str)  default=half_both  choices=half_both|paper_literal
  master_seed (int)  default=0
  blowup_norm (float)  default=1000000.0  a run whose largest particle norm exceeds it stops \
with a blow-up error; > 0
  init_kind (str)  default=gaussian  choices=gaussian|uniform
  init_position_scale (float)  default=1.0  for position-velocity models
  init_velocity_scale (float)  default=1.0  for position-velocity models
  init_scale (float)  default=1.0  scale for generic-model states
  n_seeds (int)  default=1  run seeds master_seed .. master_seed+n_seeds-1; at least 1, cauchy \
at least 2, weakform at least 16
  sizes (int_list)  cauchy sizes: at least three, each half the one before, the last >= 1
  wasserstein_p (float)  default=2.0
  n_list (int_list)  chaos system sizes: at least two, strictly increasing, the first > 2
  ref_n (int)  chaos reference size > max(n_list) (default 8x largest)
  n_resamples (int)  default=64  chaos initial resamples per beta path, >= 32
  radius (float)  default=50.0  stopping radius for comparison, > 0
  comparison_shift (float)  default=0.5  offset applied to the second initial measure; finite \
and nonzero
""", "")

    @pytest.mark.parametrize("argv, usage, reason", [
        ([], TOP_USAGE, "a command is required"),
        (["bogus"], TOP_USAGE, "unknown command 'bogus' (choose from run, models, validate)"),
        (["--bad", "run"], TOP_USAGE, "unrecognized flag '--bad'"),
        (["run"], RUN_USAGE, "CONFIG is required"),
        (["validate", "--schema"], VALIDATE_USAGE, "CONFIG is required"),
        (["run", "a.cfg", "b.cfg"], RUN_USAGE, "unexpected argument 'b.cfg'"),
        (["models", "a.cfg"], "usage: meanflock models [-h]", "unexpected argument 'a.cfg'"),
        (["run", "a.cfg", "--bad"], RUN_USAGE, "unrecognized flag '--bad'"),
        (["run", "a.cfg", "-x"], RUN_USAGE, "unrecognized flag '-x'"),
        (["run", "a.cfg", "--output-dir"], RUN_USAGE, "--output-dir expects a value"),
        (["run", "a.cfg", "--output-dir", "--help"], RUN_USAGE, "--output-dir expects a value"),
        (["run", "a.cfg", "--schema"], RUN_USAGE, "unrecognized flag '--schema'"),
        (["validate", "x.cfg", "--output-dir", "d"], VALIDATE_USAGE,
         "unrecognized flag '--output-dir'"),
        (["validate", "x.cfg", "--out", "x"], VALIDATE_USAGE, "unrecognized flag '--out'"),
        (["validate", "x.cfg", "--schema=yes"], VALIDATE_USAGE, "--schema takes no value"),
        (["--help=yes"], TOP_USAGE, "--help takes no value"),
        (["run", "a.cfg", "--output-dir="], RUN_USAGE, "--output-dir expects a value"),
        (["run", "a.cfg", "--output-dir", ""], RUN_USAGE, "--output-dir expects a value"),
        (["run", "--out=", "a.cfg"], RUN_USAGE, "--output-dir expects a value"),
    ])
    def test_usage_errors_exit_1(self, argv, usage, reason, capsys):
        # 2 means a failed verdict: a typo must not read as a failed claim
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"{usage}\nmeanflock: error: {reason}\n")


class TestExperimentsSmallScale:
    def test_weakform_kind(self, tmp_path):
        text = f"""
experiment = weakform
model = cucker-smale
half_dim = 1
lambda = 1.0
gamma = 0.0
phi_lambda = 0.2
n_particles = 8
t_final = 0.25
dt = 0.0125
master_seed = 11
n_seeds = 24
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 0
        report = read_report(tmp_path / "report.json")
        assert len(report["verdicts"]) == 16  # 8 checkpoints x 2 checks

    def test_cauchy_kind(self, tmp_path):
        text = f"""
experiment = cauchy
model = cucker-smale-truncated
half_dim = 1
lambda = 1.0
gamma = 1.0
phi_lambda = 0.5
phi_gamma = 1.0
trunc_radius = 2.0
trunc_margin = 1.0
sizes = 16, 8, 4
t_final = 0.25
dt = 0.0625
init_kind = uniform
master_seed = 21
n_seeds = 4
output_dir = {tmp_path}
"""
        code = run_from_text(text)
        assert code in (0, 2)  # tiny ensemble: verdict may fluctuate
        report = read_report(tmp_path / "report.json")
        assert "distance_N=8" in report["metrics"]

    def test_comparison_kind(self, tmp_path):
        text = f"""
experiment = comparison
model = cucker-smale
half_dim = 1
lambda = 1.0
gamma = 1.0
phi_lambda = 0.4
phi_gamma = 1.0
n_particles = 6
t_final = 0.25
dt = 0.0625
init_kind = uniform
radius = 50.0
comparison_shift = 0.3
master_seed = 31
n_seeds = 6
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 0
        report = read_report(tmp_path / "report.json")
        metrics = report["metrics"]
        assert len(metrics) == 18
        assert metrics["full_initial_cost"] == pytest.approx(0.07586854982041394, rel=1e-12)
        assert metrics["full_ratio"] == pytest.approx(1.0, rel=1e-12)
        assert metrics["half_ratio"] == pytest.approx(1.0, rel=1e-12)
        assert [v["check"] for v in report["verdicts"]] == ["ratio_stable_under_halving"]

    def test_comparison_simulates_each_path_once(self, tmp_path, monkeypatch):
        calls = []
        original = diagnostics.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "simulate", counting)
        monkeypatch.setenv("MFS_THREADS", "1")
        text = f"""
experiment = comparison
model = cucker-smale
phi_lambda = 0.4
n_particles = 4
t_final = 0.25
dt = 0.0625
n_seeds = 2
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 0
        assert len(calls) == 3 * 2  # path a, full shift, half shift per seed

    def test_comparison_solves_only_the_initial_pairing(self, tmp_path, monkeypatch):
        # one assignment per shift at t = 0, whatever the step and seed counts;
        # no step calls wasserstein
        solves = []
        original = transport._assignment

        def counting(*args):
            solves.append(1)
            return original(*args)

        def forbidden(*args):
            raise AssertionError("comparison called wasserstein")

        monkeypatch.setattr(transport, "_assignment", counting)
        monkeypatch.setattr(transport, "wasserstein", forbidden)
        monkeypatch.setenv("MFS_THREADS", "1")
        for t_final in (0.25, 0.5):
            solves.clear()
            text = f"""
experiment = comparison
model = cucker-smale
phi_lambda = 0.4
n_particles = 4
t_final = {t_final}
dt = 0.0625
n_seeds = 2
output_dir = {tmp_path}
"""
            assert run_from_text(text) in (0, 2)
            assert len(solves) == len(diagnostics.COMPARISON_SHIFTS)

    def test_chaos_kind(self, tmp_path):
        text = f"""
experiment = chaos
model = cucker-smale-truncated
half_dim = 1
lambda = 2.0
gamma = 0.0
phi_lambda = 0.4
trunc_radius = 1.0
trunc_margin = 1.0
n_list = 4, 8
ref_n = 32
n_resamples = 32
t_final = 0.25
dt = 0.0625
init_kind = uniform
init_velocity_scale = 1.5
master_seed = 41
n_seeds = 2
output_dir = {tmp_path}
"""
        code = run_from_text(text)
        assert code in (0, 2)
        report = read_report(tmp_path / "report.json")
        assert report["metrics"]["ref_n"] == 32
        assert report["metrics"]["r"] == 2

    def test_chaos_cylinder_steps_off_the_rounded_horizon(self, tmp_path):
        # t_final is a multiple of dt within the grid tolerance but not
        # exactly: the cylinder functions take grid steps, not times
        text = f"""
experiment = chaos
model = zero
dim = 1
n_list = 4, 8
n_resamples = 32
t_final = 8.000000002
dt = 4
master_seed = 5
output_dir = {tmp_path}
"""
        assert run_from_text(text) in (0, 2)
        assert read_report(tmp_path / "report.json")["metrics"]["r"] == 2

    def test_chaos_builds_r_cylinder_functions(self):
        # CHAOS_R sets the n_list rule and the report's r; the harness must
        # build that many bounded path observables
        values = parse_config("experiment = chaos\nmodel = zero\nn_list = 4, 8\noutput_dir = o\n").values
        assert len(harness._build_cylinder_functions(values)) == CHAOS_R


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_module("bench_tracing", BENCH / "tracing.py")


def test_sweep_smallest_rows():
    # the layer sweep at its smallest sizes, one repeat: every row family
    # present with its keys, and the workload's report at its pin
    sweep = load_module("sweep", ROOT / "tools" / "sweep.py")
    block = sweep.measure(field_n=(64,), step_n=(64,), norms_n=(64,), assignment_n=(32,),
                          noise_n=(256,), workloads=("transport-n256",), repeats=1)
    assert set(block) == {"host", "python", "numpy", "commit", "rows"}
    rows = block["rows"]
    assert [(r["n"], r["half_dim"], r["truncated"], r["factor"]) for r in rows["field"]] == [
        (64, 1, False, 0.5), (64, 1, False, None), (64, 1, True, 0.5), (64, 1, True, None),
        (64, 2, False, 0.5), (64, 2, False, None), (64, 2, True, 0.5), (64, 2, True, None)]
    assert all(set(r) == {"n", "half_dim", "truncated", "factor", "us_per_call", "peak_bytes"}
               and r["us_per_call"] > 0 and r["peak_bytes"] > 0 for r in rows["field"])
    step_keys = [(r["n"], r["half_dim"], r["sigma"]) for r in rows["step"]]
    assert step_keys == [(64, 2, 0.0), (64, 2, 0.3)]
    assert all(set(r) == {"n", "half_dim", "sigma", "us_per_call", "states_sha256"}
               and r["us_per_call"] > 0 for r in rows["step"])
    # the individual noise moves the step
    assert rows["step"][0]["states_sha256"] != rows["step"][1]["states_sha256"]
    assert [(r["n"], r["d"]) for r in rows["state_norms"]] == [(64, 2), (64, 4)]
    assert [(r["n"], r["m"]) for r in rows["assignment"]] == [(32, 64)]
    assert set(rows["assignment"][0]) == {"n", "m", "ms_per_solve", "cols_sha256"}
    (noise,) = rows["noise"]
    assert (noise["n"], noise["steps"], noise["d"]) == (256, 100, 4) and noise["ms_per_call"] > 0
    (workload,) = rows["workloads"]
    assert workload["workload"] == "transport-n256"
    assert workload["report_sha256"] == TestBenchmarkBindings.REPORT_SHA256["transport-n256"]
    # the full sweep runs every bench config, timed or not, every reference
    # config, and the swept-only full-model weak form
    assert sweep.FULL["workloads"] == ("cauchy-n256", "transport-n256", "flocking-n256",
                                       "chaos-n16", *TestBenchmarkBindings.REFERENCE_SHA256,
                                       "weakform-full")


class TestBenchmarkBindings:
    """The benchmark patches these names; a rename must fail here, not in bench/."""

    def test_tracing_finds_every_binding(self):
        from meanflock import dynamics, transport

        tracing = load_tracing()
        original = dynamics.field_drift_diffusion
        with tracing.installed(tracing.Tracer("t")):
            assert dynamics.field_drift_diffusion.__wrapped__ is original
        assert dynamics.field_drift_diffusion is original
        for name in ("execute", "run_from_text", "parse_config", "transport_residual"):
            assert callable(getattr(harness, name))
        for name in tracing.DIAGNOSTICS + ("simulate",):
            assert callable(getattr(diagnostics, name))
        assert callable(dynamics.field_drift_diffusion) and callable(dynamics.NoisePath)
        assert callable(characteristics.solve_characteristics)
        assert callable(characteristics.transport_residual)
        for name in ("wasserstein", "wasserstein_path", "path_sup_distances"):
            assert callable(getattr(transport, name))

    def test_traced_runs_count_closed_forms(self, tmp_path, monkeypatch):
        """Runs through the tracer's wrappers and labelers, in this process."""
        tracing = load_tracing()
        monkeypatch.setenv("MFS_THREADS", "1")
        seeds, steps = 2, 20
        transport_text = transport_check_text(tmp_path / "t", n=8) + f"n_seeds = {seeds}\n"
        cauchy_text = f"""
experiment = cauchy
model = cucker-smale
phi_lambda = 0.5
phi_gamma = 1.0
sizes = 8, 4, 2
t_final = 0.25
dt = 0.0625
n_seeds = {seeds}
output_dir = {tmp_path / "c"}
"""
        # every field_drift_diffusion call site runs under the labeler, which
        # binds the S1 factor by position: Heun's two uncorrected stages, and
        # weakform_single's field at each recorded step
        grid_steps = 4  # t_final / dt, as in cauchy_text
        grid = """
model = cucker-smale
phi_lambda = 0.5
t_final = 0.25
dt = 0.0625
"""
        heun_text = f"""
experiment = simulate
scheme = heun_stratonovich
n_particles = 8
n_seeds = {seeds}
output_dir = {tmp_path / "h"}
{grid}"""
        weakform_seeds = 16
        weakform_text = f"""
experiment = weakform
n_particles = 4
n_seeds = {weakform_seeds}
output_dir = {tmp_path / "w"}
{grid}"""
        counts = {}
        for name, text in (
            ("transport", transport_text), ("cauchy", cauchy_text),
            ("heun", heun_text), ("weakform", weakform_text),
        ):
            tracer = tracing.Tracer(name)
            with tracing.installed(tracer):
                harness.execute(parse_config(text))
            counts[name] = tracing.layer_metrics(tracer.spans)
        fdd = "kernels.field_drift_diffusion.calls"
        # the stepper and the replay each evaluate the field once per step
        assert counts["transport"][fdd] == 2 * steps * seeds
        assert counts["transport"]["dynamics.simulate.calls"] == seeds
        assert counts["transport"]["characteristics.solve_characteristics.calls"] == seeds
        sizes = 3
        assert counts["cauchy"][fdd] == sizes * grid_steps * seeds
        path_calls = sum(
            counts["cauchy"][f"transport.wasserstein_path.{route}.calls"]
            for route in ("matched", "assignment", "lp")
        )
        assert path_calls == (sizes - 1) * seeds
        # two field calls per step: Heun's two stages; weakform's run and its
        # generator
        assert counts["heun"][fdd] == 2 * grid_steps * seeds == 16
        assert counts["weakform"][fdd] == 2 * grid_steps * weakform_seeds == 128

    def test_bench_configs_parse(self):
        """Every benchmark config parses and builds its kernel and time grid."""
        paths = sorted((BENCH / "configs").glob("*.cfg"))
        assert paths
        for path in paths:
            values = parse_config(path.read_text()).values
            kernel = build_kernel(values)
            assert kernel.dim == harness.state_dim(values), path.name
            assert harness.build_sim_config(values).steps > 0, path.name

    # SHA-256 of each benchmark config's report.json; a change that alters a
    # report on purpose updates its pin and records the old and new hashes
    REPORT_SHA256 = {
        "cauchy-n256": "080fd3121a917fa81440ae574e1b4ec0fc18f4a06a9f76af5050f039265b3a30",
        "chaos-n16": "bf192a099b39ac339a82cdb0c3b4ead1e6231c79a7452850a77f98543f3be7ae",
        "flocking-n256": "96710148d84b0d065798ed8b76aef1277f7096f2eebf342a4841a1d3d23f5d19",
        "transport-n256": "179609638b7e5750eaab9c916921b5a84bcc91b702cd4698cc7896bf6e66b64e",
    }

    def test_bench_reports_pinned(self, tmp_path):
        """Every benchmark config, run by the command line on one thread,
        passes and writes a report whose bytes hash to its pin."""
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MFS_THREADS")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(threads, "1"))
        hashes = {}
        for path in sorted((BENCH / "configs").glob("*.cfg")):
            out_dir = tmp_path / path.stem
            out = subprocess.run(
                [sys.executable, "-m", "meanflock.cli", "run", str(path), "--output-dir",
                 str(out_dir)],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
            )
            assert (out.returncode, out.stderr) == (0, ""), path.name
            read_report(out_dir / "report.json")
            hashes[path.stem] = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
        assert hashes == self.REPORT_SHA256

    # SHA-256 of the report.json of each reference config in tools/configs/,
    # one per experiment kind that the bench lacks; pinned the same way
    REFERENCE_SHA256 = {
        "weakform-a": "3939443b30d8affb9eeed507207191bf987fae4853ebcc1849694ab4aec94180",
        "weakform-b": "60add2eddb7cdff257aaf492eb8f617c2bde5f70e083a5b36fec7379a3a04591",
        "comparison": "0ccc7c282a19230730d5c753c329db0223b0bce89bcd79959b23f40567184cea",
        "comparison-full": "85b8bda6197a6a1b4f66f84d042f1476942a17248df5a5c32628049c53fd875e",
        "simulate": "7d7ce2066b3374e725c913e13e5bb9b62a2861397f0edce6393c70768b9bfdb3",
    }
    # reference configs that only the layer sweep runs, too slow for a pin here
    SWEPT_ONLY = ("weakform-full",)

    def test_reference_reports_pinned(self, tmp_path, monkeypatch):
        """Every reference config but the swept-only ones, run in this process
        on the serial path, exits 0 and writes a report whose bytes hash to
        its pin."""
        monkeypatch.setenv("MFS_THREADS", "1")
        paths = sorted((ROOT / "tools" / "configs").glob("*.cfg"))
        assert {path.stem for path in paths} == {*self.REFERENCE_SHA256, *self.SWEPT_ONLY}
        hashes = {}
        for path in (path for path in paths if path.stem not in self.SWEPT_ONLY):
            assert run_from_text(path.read_text(), str(tmp_path / path.stem)) == 0, path.name
            read_report(tmp_path / path.stem / "report.json")
            hashes[path.stem] = hashlib.sha256(
                (tmp_path / path.stem / "report.json").read_bytes()).hexdigest()
        assert hashes == self.REFERENCE_SHA256


class TestImportBudget:
    """Each command loads only the modules it executes, and never scipy.

    ``validate`` and ``models`` load neither the run stack nor numpy, no
    command loads ``dataclasses`` or an argument parser (``argparse``, with
    the ``gettext`` and ``locale`` it pulls in), and the process pool is
    loaded only when a run uses it. No command freezes objects out of the
    cyclic collector or disables it.
    Each check runs in a fresh interpreter: this process has scipy loaded.
    """

    PROBE = (
        "import gc, sys\n"
        "{body}\n"
        "print(repr({{\n"
        "    'meanflock': sorted(m for m in sys.modules if m.split('.')[0] == 'meanflock'),\n"
        "    'json': 'json' in sys.modules,\n"
        "    '_hashlib': '_hashlib' in sys.modules,\n"
        "    'scipy': 'scipy' in sys.modules,\n"
        "    'numpy': 'numpy' in sys.modules,\n"
        "    'dataclasses': 'dataclasses' in sys.modules,\n"
        "    'pool': 'concurrent.futures.process' in sys.modules,\n"
        "    'argparse': 'argparse' in sys.modules,\n"
        "    'gettext': 'gettext' in sys.modules,\n"
        "    'locale': 'locale' in sys.modules,\n"
        "    'gc_enabled': gc.isenabled(),\n"
        "    'frozen': gc.get_freeze_count() > 0,\n"
        "}}))\n"
    )

    EVERY_LAYER = {"meanflock"} | {
        f"meanflock.{path.stem}"
        for path in (ROOT / "src" / "meanflock").glob("*.py") if path.stem != "__init__"
    }
    VALIDATE_LAYERS = {"meanflock", "meanflock.cli", "meanflock.config", "meanflock.errors"}
    VALIDATE_LOADS = {
        "meanflock": VALIDATE_LAYERS, "json": False, "_hashlib": False, "scipy": False,
        "numpy": False, "dataclasses": False, "pool": False, "argparse": False,
        "gettext": False, "locale": False, "gc_enabled": True, "frozen": False,
    }
    # loaded by no command
    NEVER = ("scipy", "dataclasses", "argparse", "gettext", "locale")

    def loaded(self, body, cwd):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MFS_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(body=body)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        found = ast.literal_eval(out.stdout.strip().splitlines()[-1])
        found["meanflock"] = set(found["meanflock"])
        return found

    def run_main(self, argv, cwd, after=""):
        return self.loaded(
            f"from meanflock.cli import main\nassert main({argv!r}) in (0, 2)\n{after}", cwd
        )

    def test_import_package_loads_no_submodule(self, tmp_path):
        # the package binds no name of its own but __version__
        body = (
            "import meanflock, types\n"
            "bare = vars(types.ModuleType('bare')).keys() | {'__builtins__', '__cached__', "
            "'__file__', '__path__'}\n"
            "assert vars(meanflock).keys() - bare == {'__version__'}, vars(meanflock).keys()"
        )
        loaded = self.loaded(body, tmp_path)
        assert loaded == dict(self.VALIDATE_LOADS, meanflock={"meanflock"})

    def test_import_cli_loads_neither(self, tmp_path):
        assert self.loaded("import meanflock.cli", tmp_path) == self.VALIDATE_LOADS

    def test_validate_loads_only_what_it_checks(self, tmp_path):
        cfg = str(BENCH / "configs" / "cauchy-n256.cfg")
        assert self.run_main(["validate", cfg], tmp_path) == self.VALIDATE_LOADS

    def test_models_loads_no_harness(self, tmp_path):
        assert self.run_main(["models"], tmp_path) == self.VALIDATE_LOADS

    def test_transport_check_run_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(transport_check_text(tmp_path / "ignored", n=16))
        # the library entry point, run after main in the same interpreter,
        # writes the same report
        library = (
            "from meanflock.harness import run_from_text\n"
            f"assert run_from_text(open({str(cfg)!r}).read(), {str(tmp_path / 'lib')!r}) == 0"
        )
        loaded = self.run_main(
            ["run", str(cfg), "--output-dir", str(tmp_path / "out")], tmp_path, library
        )
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert report == (tmp_path / "lib" / "report.json").read_bytes()
        assert read_report(tmp_path / "out" / "report.json")["metrics"] == {
            "residual_seed=7": 0.0
        }
        assert not any(loaded[name] for name in ("pool", *self.NEVER))
        assert loaded["gc_enabled"] and not loaded["frozen"]
        # a run still loads every layer
        assert loaded["meanflock"] == self.EVERY_LAYER

    def test_cauchy_run_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"""
experiment = cauchy
model = cucker-smale
half_dim = 1
phi_lambda = 0.5
phi_gamma = 1.0
sizes = 8, 4, 2
t_final = 0.125
dt = 0.0625
master_seed = 3
n_seeds = 2
output_dir = {tmp_path / "out"}
""")
        loaded = self.run_main(["run", str(cfg)], tmp_path)
        assert not any(loaded[name] for name in self.NEVER)
        assert (tmp_path / "out" / "report.json").exists()

    def test_comparison_run_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"""
experiment = comparison
model = cucker-smale
half_dim = 1
phi_lambda = 0.5
phi_gamma = 1.0
n_particles = 4
t_final = 0.125
dt = 0.0625
master_seed = 3
n_seeds = 2
output_dir = {tmp_path / "out"}
""")
        loaded = self.run_main(["run", str(cfg)], tmp_path)
        assert not any(loaded[name] for name in self.NEVER)
        assert (tmp_path / "out" / "report.json").exists()


def test_piped_output_complete_after_exit_main(tmp_path, capsys):
    # the command line ends in os._exit: what main wrote must still reach a
    # pipe in full, with main's exit code
    cfg = str(BENCH / "configs" / "cauchy-n256.cfg")
    assert main(["validate", cfg, "--schema"]) == 0
    schema = capsys.readouterr().out
    # Euler steps of 1.9 overshoot the alignment: the fitted decay rate
    # falls below the flocking bound, so the verdict fails
    flocking = tmp_path / "f.cfg"
    flocking.write_text(f"""
experiment = flocking
model = cucker-smale
half_dim = 1
lambda = 1.0
gamma = 0.0
n_particles = 4
t_final = 19
dt = 1.9
master_seed = 3
n_seeds = 2
output_dir = {tmp_path / "out"}
""")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MFS_THREADS="1")

    def python(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )

    out = python("-m", "meanflock.cli", "validate", cfg, "--schema")
    assert (out.returncode, out.stdout, out.stderr) == (0, schema, "")
    out = python("-m", "meanflock.cli", "run", str(flocking))
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "")
    [verdict] = read_report(tmp_path / "out" / "report.json")["verdicts"]
    assert verdict["check"] == "fitted_decay_rate_ge_bound" and not verdict["pass"]
    assert read_json_strict(tmp_path / "out" / "manifest.json")["status"] == "ok"
    # an exception that escapes main ends the process as usual, traceback and all
    out = python("-c", "import meanflock.cli as cli; cli.main = lambda: 1 / 0; cli.exit_main()")
    assert out.returncode == 1
    assert out.stderr.startswith("Traceback")
    assert out.stderr.endswith("ZeroDivisionError: division by zero\n")


def test_closed_stdout_exits_quietly(tmp_path):
    # the read end is closed before the child writes, so its first flush
    # meets a broken pipe every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    cfg = str(BENCH / "configs" / "cauchy-n256.cfg")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = []
    try:
        for args in (["validate", cfg, "--schema"], ["--help"]):
            out = subprocess.run(
                [sys.executable, "-m", "meanflock.cli", *args],
                cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120,
            )
            results.append((out.returncode, out.stderr))
    finally:
        os.close(write_end)
    assert results == [(1, ""), (1, "")]
