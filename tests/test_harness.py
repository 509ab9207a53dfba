import ast
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanflock import characteristics, diagnostics, harness
from meanflock.cli import main
from meanflock.config import EXPERIMENT_KINDS, MODELS, list_models, parse_config
from meanflock.errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    SupportCapError,
    UnsupportedTransportError,
)
from meanflock.harness import EXPERIMENTS, build_kernel, run_from_text, sample_initial_atoms
from meanflock.dynamics import init_rng

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
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["name"] == "transport-check"
        assert all(v["pass"] for v in report["verdicts"])
        assert all("tolerance" in v for v in report["verdicts"])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
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
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdicts"] == []
        assert sorted(report["metrics"]) == [
            "final_second_moment_seed=1", "final_second_moment_seed=2", "n_runs"
        ]

    def test_write_trajectories_false_writes_no_csv(self, tmp_path):
        text = f"""
experiment = simulate
model = zero
write_trajectories = false
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 0
        assert not list(tmp_path.glob("*.csv"))
        assert (tmp_path / "report.json").exists()

    def test_failing_verdict_exit_2(self, tmp_path):
        # an impossible decay-rate demand forces a failing verdict
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
rate_tolerance = -50.0
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 2

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
        manifest = json.loads((tmp_path / "manifest.json").read_text())
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
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "error"
        error = manifest["error"]
        assert error.pop("max_norm") > 0.5
        assert error == {
            "class": "BlowUpError", "message": message, "seed": 4, "step_index": 0,
        }
        assert manifest["config_text"] == text
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
        with np.errstate(over="ignore"):
            assert run_from_text(text) == 1

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=refuse)
        assert manifest["error"]["max_norm"] == "inf"

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
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["threads"] == (pools[0] if pools else 1)

    def test_bad_worker_count_fails_before_any_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MFS_THREADS", "two")
        assert run_from_text(transport_check_text(tmp_path / "out")) == 1
        assert "MFS_THREADS must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "error",
        [BlowUpError(3, 12.0, seed=5, partial=lambda: None), SupportCapError(10, 4),
         DimensionMismatchError("x", 2, 3), UnsupportedTransportError(4, 6)],
        ids=lambda e: type(e).__name__,
    )
    def test_errors_survive_pickling(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert getattr(copy, "partial", None) is None

    def test_rerun_manifest_bitwise(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_from_text(transport_check_text(first)) == 0
        manifest = json.loads((first / "manifest.json").read_text())
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
        assert main(["run", "/nonexistent/exp.cfg"]) == 1
        assert "cannot read" in capsys.readouterr().err


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
tf_radius = 2.0
output_dir = {tmp_path}
"""
        assert run_from_text(text) == 0
        report = json.loads((tmp_path / "report.json").read_text())
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
        report = json.loads((tmp_path / "report.json").read_text())
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
        report = json.loads((tmp_path / "report.json").read_text())
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
tf_radius = 0.5
master_seed = 41
n_seeds = 2
output_dir = {tmp_path}
"""
        code = run_from_text(text)
        assert code in (0, 2)
        report = json.loads((tmp_path / "report.json").read_text())
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
        assert json.loads((tmp_path / "report.json").read_text())["metrics"]["r"] == 2


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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


class TestImportBudget:
    """Each command loads only the modules it executes, and never scipy.

    ``validate`` and ``models`` load neither the run stack nor numpy, no
    command loads ``dataclasses``, and the process pool is loaded only when
    a run uses it.
    Once its modules are loaded, each command freezes them out of the
    cyclic collector, which stays enabled; importing the package does not.
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
        "    'gc_enabled': gc.isenabled(),\n"
        "    'frozen': gc.get_freeze_count() > 0,\n"
        "}}))\n"
    )

    EVERY_LAYER = {"meanflock"} | {
        f"meanflock.{path.stem}"
        for path in (ROOT / "src" / "meanflock").glob("*.py") if path.stem != "__init__"
    }
    VALIDATE_LAYERS = {"meanflock", "meanflock.cli", "meanflock.config", "meanflock.errors"}
    IMPORT_LOADS = {
        "meanflock": VALIDATE_LAYERS, "json": False, "_hashlib": False, "scipy": False,
        "numpy": False, "dataclasses": False, "pool": False, "gc_enabled": True,
        "frozen": False,
    }
    VALIDATE_LOADS = dict(IMPORT_LOADS, frozen=True)

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
        loaded = self.loaded("import meanflock", tmp_path)
        assert loaded == dict(self.IMPORT_LOADS, meanflock={"meanflock"})

    def test_import_cli_loads_neither(self, tmp_path):
        assert self.loaded("import meanflock.cli", tmp_path) == self.IMPORT_LOADS

    def test_validate_loads_only_what_it_checks(self, tmp_path):
        cfg = str(BENCH / "configs" / "cauchy-n256.cfg")
        assert self.run_main(["validate", cfg], tmp_path) == self.VALIDATE_LOADS

    def test_models_loads_no_harness(self, tmp_path):
        assert self.run_main(["models"], tmp_path) == self.VALIDATE_LOADS

    def test_transport_check_run_loads_no_scipy(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(transport_check_text(tmp_path / "ignored", n=16))
        # the library entry point, run after the freeze in the same
        # interpreter, writes the same report
        library = (
            "from meanflock.harness import run_from_text\n"
            f"assert run_from_text(open({str(cfg)!r}).read(), {str(tmp_path / 'lib')!r}) == 0"
        )
        loaded = self.run_main(
            ["run", str(cfg), "--output-dir", str(tmp_path / "out")], tmp_path, library
        )
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert report == (tmp_path / "lib" / "report.json").read_bytes()
        assert json.loads(report)["metrics"] == {"residual_seed=7": 0.0}
        assert not (loaded["scipy"] or loaded["pool"] or loaded["dataclasses"])
        assert loaded["gc_enabled"] and loaded["frozen"]
        # a run still loads every layer
        assert loaded["meanflock"] == self.EVERY_LAYER

    def test_repeated_runs_freeze_no_more_objects(self, tmp_path):
        # a repeated call collects the previous call's cyclic garbage and
        # then freezes, so only the first two calls grow the count
        cfg = tmp_path / "t.cfg"
        cfg.write_text(transport_check_text(tmp_path / "out", n=16))
        argv = ["run", str(cfg)]
        repeat = (
            "counts = [gc.get_freeze_count()]\n"
            "for _ in range(2):\n"
            f"    assert main({argv!r}) == 0\n"
            "    counts.append(gc.get_freeze_count())\n"
            "assert counts[2] == counts[1], counts"
        )
        assert self.run_main(argv, tmp_path, repeat)["frozen"]

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
        assert not (loaded["scipy"] or loaded["dataclasses"])
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
        assert not (loaded["scipy"] or loaded["dataclasses"])
        assert (tmp_path / "out" / "report.json").exists()


def test_closed_stdout_exits_quietly(tmp_path):
    # the read end is closed before the child writes, so its first flush
    # meets a broken pipe every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    cfg = str(BENCH / "configs" / "cauchy-n256.cfg")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        out = subprocess.run(
            [sys.executable, "-m", "meanflock.cli", "validate", cfg, "--schema"],
            cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")
