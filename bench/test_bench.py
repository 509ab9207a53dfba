"""Checks of the benchmark itself: the correctness gate, the trace counts,
and the output contract.

    python3 -m pytest -q bench/test_bench.py

The traced runs take about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

# field_drift_diffusion calls, from the configs by hand:
#   flocking   seeds x steps                                 2 x 50
#   cauchy     seeds x |sizes| x steps                       4 x 4 x 20
#   chaos      betas x (1 + n_resamples x |n_list|) x steps  2 x 193 x 50
#   transport  2 x seeds x steps (run, then its replay)      2 x 2 x 40
FIELD_CALLS = {
    "flocking-n256": 100,
    "cauchy-n256": 320,
    "chaos-n16": 19_300,
    "transport-n256": 160,
}


def run_cauchy(tmp_path, extra: str):
    cfg = tmp_path / "cauchy.cfg"
    cfg.write_text(run.config_text("cauchy-n256", 0) + extra)
    out = tmp_path / "out"
    _, rc, _ = run.spawn(
        run.meanflock("run", str(cfg), "--output-dir", str(out)), run.child_env(1), tmp_path / "log"
    )
    return rc, run.summarize(out / "report.json")


def test_gate_passes_reference_config(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    rc, got = run_cauchy(tmp_path, "")
    assert run.gate(rc, got, reference["workloads"]["cauchy-n256"], reference["rtol"]) == []


def test_gate_catches_paper_literal_convention(tmp_path):
    # exits 0 with every verdict passing: only the metric comparison sees it
    reference = json.loads(run.REFERENCE.read_text())
    rc, got = run_cauchy(tmp_path, "s1_convention = paper_literal\n")
    assert rc == 0
    assert all(got["verdicts"].values())
    problems = run.gate(rc, got, reference["workloads"]["cauchy-n256"], reference["rtol"])
    assert problems
    assert all(p.startswith("metric distance_N=") or p.startswith("metric stderr_N=") for p in problems)


def test_gate_requires_exact_zero_residual():
    ref = {"name": "transport-check", "sha256": "", "verdicts": {"t": True},
           "metrics": {"residual_seed=0": 0.0}}
    got = dict(ref, metrics={"residual_seed=0": 1e-300})
    assert any("must be exactly 0" in p for p in run.gate(0, got, ref, 1e-6))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every workload at the default seed."""
    out = {}
    for workload in run.WORKLOADS:
        pair = []
        for label in ("a", "b"):
            rc, tracer = run.traced_execution(
                workload, 0, tmp_path_factory.mktemp(f"{workload}-{label}")
            )
            assert rc == 0
            pair.append(tracing.layer_metrics(tracer.spans))
        out[workload] = pair
    return out


@pytest.mark.parametrize("workload", sorted(FIELD_CALLS))
def test_counts_repeat_and_match_closed_form(traced, workload):
    first, second = traced[workload]
    assert run.count_metrics(first) == run.count_metrics(second)
    assert first["kernels.field_drift_diffusion.calls"] == FIELD_CALLS[workload]
    harness = run.import_program()
    cfg = harness.parse_config(run.config_text(workload, 0))
    assert run.expected_field_calls(cfg.values, len(cfg.seeds())) == FIELD_CALLS[workload]


def test_route_counts(traced):
    cauchy = traced["cauchy-n256"][0]
    # 4 seeds x 3 adjacent size pairs, each N against 2N on the LP route
    assert cauchy["transport.wasserstein_path.lp.calls"] == 12
    assert cauchy["transport.path_sup_distances.calls"] == 12
    assert cauchy["transport.wasserstein_path.lp.vars"] == 256 * 128
    transport = traced["transport-n256"][0]
    # 2 seeds x 41 grid times, equal uniform atoms: assignment route
    assert transport["transport.wasserstein.assignment.calls"] == 82
    assert transport["characteristics.solve_characteristics.calls"] == 2
    assert traced["chaos-n16"][0]["dynamics.simulate.calls"] == 2 * (1 + 64 * 3)
    for workload in ("flocking-n256", "chaos-n16"):
        assert traced[workload][0]["transport.path_sup_distances.calls"] == 0


def test_predicted_layer_dominates(traced):
    def share(workload, metric):
        m = traced[workload][1]
        return m[metric] / m["harness.execute.s"]

    fdd = "kernels.field_drift_diffusion"
    assert share("flocking-n256", f"{fdd}.s") > 0.8
    transport = {w: share(w, "transport.wasserstein_path.lp.s") for w in run.WORKLOADS}
    assert max(transport, key=transport.get) == "cauchy-n256"
    assert transport["cauchy-n256"] > 0.15
    assert share("cauchy-n256", f"{fdd}.s") > transport["cauchy-n256"]
    calls = {w: traced[w][1][f"{fdd}.calls"] for w in run.WORKLOADS}
    assert max(calls, key=calls.get) == "chaos-n16"
    per_call = {w: traced[w][1][f"{fdd}.us_per_call"] for w in run.WORKLOADS}
    assert min(per_call, key=per_call.get) == "chaos-n16"
    assert share("transport-n256", "characteristics.solve_characteristics.s") > 0.35


def test_tracing_restores_every_binding():
    harness = run.import_program()
    import meanflock.diagnostics as diagnostics
    import meanflock.dynamics as dynamics

    before = (dynamics.field_drift_diffusion, diagnostics.simulate,
              harness.transport_residual, dynamics.NoisePath.__init__)
    with tracing.installed(tracing.Tracer("t")):
        assert dynamics.field_drift_diffusion is not before[0]
        assert diagnostics.simulate is not before[1]
        assert harness.transport_residual is not before[2]
    after = (dynamics.field_drift_diffusion, diagnostics.simulate,
             harness.transport_residual, dynamics.NoisePath.__init__)
    assert after == before


def test_benchmark_json_matches_output():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    timed = [w["name"] for w in spec["workloads"]]
    assert timed == ["cauchy-n256", "transport-n256"]
    assert set(timed) <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    for m in spec["per_layer"]:
        assert tracing.unit_of(m["name"]) == m["unit"]


def test_fails_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and bench/
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cauchy-n256", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_calibration_runs_without_the_program(tmp_path):
    # the scale for end-to-end times must not move when the program changes
    shutil.copy(run.BENCH_DIR / "calibration.py", tmp_path)
    proc = subprocess.run([sys.executable, "-I", "calibration.py"], cwd=tmp_path, timeout=60)
    assert proc.returncode == 0
    assert "meanflock" not in (run.BENCH_DIR / "calibration.py").read_text()
