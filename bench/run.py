"""End-to-end and per-layer benchmark of ``meanflock run``.

    python3 bench/run.py --workload cauchy-n256 --seed 0 --seconds 55 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory, with no install step. Each workload is one config file in
``bench/configs``. ``BENCHMARK.json`` times two of them, ``cauchy-n256``
and ``transport-n256``, and a run without ``--workload`` measures those in
turn; ``flocking-n256`` and ``chaos-n16`` are measured only when named.
``--seed`` offsets the config's ``master_seed`` by ``1000 * seed``, so the
seed sets of different ``--seed`` values never overlap.

``--trace 0`` (end to end): for ``--seconds`` seconds, alternate fresh
``meanflock validate`` processes (``setup_s``: interpreter start, import and
config parse) with ``meanflock run`` processes (``run_s`` wall time,
``cpu_s`` and ``peak_rss_mb`` from ``os.wait4`` on that child, which covers
the pool workers it reaped), one set-up for every two runs, and time
``bench/calibration.py`` after each of them. The shared host this was
written on changes speed by up to 2x within seconds to minutes, which no run
length averages out; so each timing is reported in reference-host seconds,
scaled by ``CALIBRATION_REF_S`` over the mean of the calibrations just
before and after it (wall times by their wall time, CPU time by their CPU
time). The calibration job never changes and shares no code with the
program, so a change to the program moves the scaled times as it moves the
raw ones. Medians are reported; the raw medians are printed beside them.

``--trace 1`` (per layer): in this process with ``MFS_THREADS = 1``, run
the config traced, untraced, then traced again. Per-layer numbers come from
the second traced run; the untraced run gives ``trace.overhead_s``; the
counts of the two traced runs must agree and match their closed forms.

Every run's ``report.json`` goes through the correctness gate: for the
default seed it is compared with ``bench/reference.json`` (verdict flags,
then every report metric within one relative tolerance); for other seeds
with the first run of the same invocation. A transport residual must be
exactly 0. Byte equality is reported as ``report_exact`` for information.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are those
``BENCHMARK.json`` lists for the mode. ``--record`` rewrites
``bench/reference.json`` from one default-seed run of every workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
REFERENCE = BENCH_DIR / "reference.json"

# MFS_THREADS per workload: flocking's two seeds on a 2-worker pool exercise
# the harness fan-out; the others run their seeds serially. BENCHMARK.json
# lists the workloads it times; the rest stay runnable by name.
WORKLOADS = {
    "flocking-n256": 2,
    "cauchy-n256": 1,
    "chaos-n16": 1,
    "transport-n256": 1,
}
SEED_STRIDE = 1000
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 60.0
# Wall time of bench/calibration.py on a host of reference speed; about its
# median on the host that recorded bench/baseline.json.
CALIBRATION_REF_S = 1.0
END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed setup)."""


# ---------------------------------------------------------------------------
# Inputs and environment
# ---------------------------------------------------------------------------


def config_text(workload: str, seed: int) -> str:
    text = (BENCH_DIR / "configs" / f"{workload}.cfg").read_text()

    def offset(match):
        return f"master_seed = {int(match.group(1)) + SEED_STRIDE * seed}"

    text, n = re.subn(r"^master_seed\s*=\s*(\d+)\s*$", offset, text, flags=re.M)
    if n != 1:
        raise BenchError(f"{workload}.cfg must set master_seed exactly once")
    return text


def child_env(threads: int) -> dict:
    env = dict(os.environ, **BLAS_PINS, MFS_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_sha256() -> str:
    """Content hash of the package sources; identifies code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "meanflock").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def spawn(argv: list, env: dict, log: Path) -> tuple[float, int, object]:
    """Run one child; return (wall seconds, exit code, its wait4 rusage).

    The rusage of the reaped child includes every descendant it reaped
    itself, such as process-pool workers, and nothing from earlier children
    of this process.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def meanflock(*args: str) -> list:
    return [sys.executable, "-m", "meanflock.cli", *args]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def summarize(report_path: Path):
    """The gated content of one report.json, or None if it is missing."""
    try:
        raw = report_path.read_bytes()
    except FileNotFoundError:
        return None
    report = json.loads(raw)
    return {
        "name": report["name"],
        "sha256": hashlib.sha256(raw).hexdigest(),
        "verdicts": {v["check"]: v["pass"] for v in report["verdicts"]},
        "metrics": report["metrics"],
    }


def gate(rc: int, got, ref: dict, rtol: float) -> list:
    """Reasons a run fails against ``ref``; empty when it passes."""
    problems = []
    want_rc = 0 if all(ref["verdicts"].values()) else 2
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    if got is None:
        return problems + ["no report.json written"]
    if got["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {got['verdicts']}, reference {ref['verdicts']}")
    if set(got["metrics"]) != set(ref["metrics"]):
        problems.append(f"metric names {sorted(got['metrics'])}, reference {sorted(ref['metrics'])}")
    for name, want in ref["metrics"].items():
        have = got["metrics"].get(name)
        if have is not None and abs(have - want) > rtol * max(abs(have), abs(want)):
            problems.append(f"metric {name} = {have!r}, reference {want!r} (rtol {rtol})")
    if got["name"] == "transport-check":
        for name, value in got["metrics"].items():
            if name.startswith("residual") and value != 0.0:
                problems.append(f"transport residual {name} = {value!r}, must be exactly 0")
    return problems


class Gate:
    """Checks every run of one invocation against one reference."""

    def __init__(self, workload: str, seed: int):
        reference = json.loads(REFERENCE.read_text())
        self.rtol = float(reference["rtol"])
        self.ref = reference["workloads"][workload] if seed == 0 else None
        self.attempted = 0
        self.failed = 0
        self.exact = []
        self.hashes = []

    def check(self, rc: int, report_path: Path, extra: tuple = ()) -> None:
        got = summarize(report_path)
        if self.ref is None and got is not None:
            # no recorded reference for this seed: the first run is the reference
            self.ref = got
        if self.ref is None:
            problems = [f"exit code {rc}, no report.json written"]
        else:
            problems = gate(rc, got, self.ref, self.rtol)
        problems += extra
        self.attempted += 1
        self.failed += bool(problems)
        if got is not None:
            self.hashes.append(got["sha256"])
            self.exact.append(got["sha256"] == self.ref["sha256"])
        for p in problems:
            print(f"FAIL run {self.attempted}: {p}")


# ---------------------------------------------------------------------------
# End-to-end mode
# ---------------------------------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(workload: str, seed: int, seconds: float, work: Path):
    env = child_env(WORKLOADS[workload])
    cfg = work / f"{workload}.cfg"
    cfg.write_text(config_text(workload, seed))
    check = Gate(workload, seed)

    def setup() -> float:
        wall, rc, _ = spawn(meanflock("validate", str(cfg)), env, work / "validate.log")
        if rc != 0:
            raise BenchError(f"meanflock validate exited {rc}: {(work / 'validate.log').read_text()}")
        return wall

    def calibrate() -> tuple[float, float]:
        wall, rc, usage = spawn([sys.executable, str(BENCH_DIR / "calibration.py")], env, work / "calibration.log")
        if rc != 0:
            raise BenchError(f"calibration exited {rc}: {(work / 'calibration.log').read_text()}")
        return wall, usage.ru_utime + usage.ru_stime

    setup()  # warm-up: compiles bytecode, fills the page cache
    calibrations = [calibrate()]
    raw = {name: [] for name in END_TO_END_UNITS}
    samples = {name: [] for name in END_TO_END_UNITS}
    # calibration (wall, CPU) field that scales each metric; None: not a time
    scale_by = {"run_s": 0, "cpu_s": 1, "peak_rss_mb": None, "setup_s": 0}
    start = time.perf_counter()
    items = []
    while True:
        item_start = time.perf_counter()
        # one set-up for every two runs, each with a calibration right after
        # it, so that every timing is bracketed by the two nearest calibrations
        if len(items) % 3 == 1:
            measured = {"setup_s": setup()}
        else:
            out = work / f"run-{check.attempted}"
            wall, rc, usage = spawn(meanflock("run", str(cfg), "--output-dir", str(out)), env, work / f"run-{check.attempted}.log")
            check.check(rc, out / "report.json")
            measured = {"run_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                        "peak_rss_mb": usage.ru_maxrss * 1024 / tracing.MIB}
        calibrations.append(calibrate())
        for name, value in measured.items():
            raw[name].append(value)
            which = scale_by[name]
            if which is not None:
                # in reference-host seconds: scaled by the host speed around it
                value *= CALIBRATION_REF_S / statistics.fmean(c[which] for c in calibrations[-2:])
            samples[name].append(value)
        items.append(time.perf_counter() - item_start)
        # stop before an item that could overrun the measuring window
        if len(items) > 1 and time.perf_counter() - start + max(items) > seconds:
            break

    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        line = f"{name:<12} median {med:.4f} {END_TO_END_UNITS[name]}  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"
        if END_TO_END_UNITS[name] == "s":
            line += f"  as timed here: median {statistics.median(raw[name]):.4f} s"
        print(line)
    q1, med, q3 = quartiles([wall for wall, _ in calibrations])
    print(f"{'calibration':<12} median {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(calibrations)}; "
          f"reference {CALIBRATION_REF_S} s)")
    print(f"{'fail_ratio':<12} {check.failed / check.attempted:g} 1  ({check.failed}/{check.attempted} runs failed)")
    print(f"report_sha256 {sorted(set(check.hashes))}  report_exact {all(check.exact) and bool(check.exact)}")
    metrics = {name: (statistics.median(v), END_TO_END_UNITS[name]) for name, v in samples.items()}
    detail = {"samples": samples, "raw_samples": raw, "calibration_s": calibrations,
              "report_sha256": check.hashes, "report_exact": check.exact}
    return check, metrics, detail


# ---------------------------------------------------------------------------
# Per-layer mode
# ---------------------------------------------------------------------------


def expected_field_calls(values: dict, n_seeds: int) -> int:
    """Closed form of ``field_drift_diffusion`` calls for an euler_ito config."""
    steps = int(round(values["t_final"] / values["dt"]))
    kind = values["experiment"]
    if kind == "flocking":
        return n_seeds * steps
    if kind == "cauchy":
        return n_seeds * len(values["sizes"]) * steps
    if kind == "chaos":
        return n_seeds * (1 + values["n_resamples"] * len(values["n_list"])) * steps
    if kind == "transport-check":
        # the run itself, then its characteristics replay
        return 2 * n_seeds * steps
    raise BenchError(f"no closed form for experiment kind {kind!r}")


def import_program():
    os.environ.update(BLAS_PINS, MFS_THREADS="1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from meanflock import harness
    return harness


def traced_execution(workload: str, seed: int, out: Path, only=None):
    """One in-process ``run_from_text``; returns (exit code, tracer)."""
    harness = import_program()
    tracer = tracing.Tracer(f"{workload}/seed={seed}/{out.name}")
    with tracing.installed(tracer, only=only):
        rc = harness.run_from_text(config_text(workload, seed), output_dir=str(out))
    return rc, tracer


def count_metrics(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if tracing.unit_of(k) in ("count", "MB")}


def per_layer(workload: str, seed: int, work: Path):
    harness = import_program()
    runs = {}
    for label, only in (("traced-1", None), ("untraced", {"harness.execute"}), ("traced-2", None)):
        runs[label] = traced_execution(workload, seed, work / label, only)
        (work / f"{label}-spans.json").write_text(json.dumps(runs[label][1].to_json()))

    metrics = tracing.layer_metrics(runs["traced-2"][1].spans)
    untraced = tracing.layer_metrics(runs["untraced"][1].spans)["harness.execute.s"]
    metrics["trace.overhead_s"] = metrics["harness.execute.s"] - untraced
    invariants = []
    first = count_metrics(tracing.layer_metrics(runs["traced-1"][1].spans))
    if first != count_metrics(metrics):
        invariants.append(f"counts differ between traced runs: {first} vs {count_metrics(metrics)}")
    cfg = harness.parse_config(config_text(workload, seed))
    want = expected_field_calls(cfg.values, len(cfg.seeds()))
    if metrics["kernels.field_drift_diffusion.calls"] != want:
        invariants.append(f"{metrics['kernels.field_drift_diffusion.calls']} field calls, closed form {want}")

    check = Gate(workload, seed)
    for label, (rc, _) in runs.items():
        check.check(rc, work / label / "report.json", tuple(invariants) if label == "traced-2" else ())
    for name, value in metrics.items():
        print(f"{name:<52} {value:.6g} {tracing.unit_of(name)}")
    (work / "layers.json").write_text(json.dumps(metrics, indent=2, sort_keys=True))
    return check, {k: (v, tracing.unit_of(k)) for k, v in metrics.items()}, {}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def record_reference() -> int:
    """Rewrite bench/reference.json from one default-seed run per workload."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"rtol": 1e-6}
    reference["commit"] = _git_commit()
    reference["workloads"] = {}
    for workload, threads in WORKLOADS.items():
        work = RUNS_DIR / "record" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / f"{workload}.cfg"
        cfg.write_text(config_text(workload, 0))
        _, rc, _ = spawn(meanflock("run", str(cfg), "--output-dir", str(work / "out")),
                         child_env(threads), work / "run.log")
        got = summarize(work / "out" / "report.json")
        if rc != 0 or got is None or not all(got["verdicts"].values()):
            raise BenchError(f"{workload}: reference run exited {rc}; see {work / 'run.log'}")
        del got["name"]
        reference["workloads"][workload] = got
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def bench_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Measure one workload; returns the result line's object."""
    work = RUNS_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"MFS_THREADS={1 if trace else WORKLOADS[workload]}")
    print("env " + json.dumps(env, sort_keys=True))
    if trace:
        check, metrics, detail = per_layer(workload, seed, work)
    else:
        check, metrics, detail = end_to_end(workload, seed, seconds, work)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    (work / "result.json").write_text(json.dumps(
        dict(result, workload=workload, seed=seed, env=env,
             all_metrics={k: v[0] for k, v in metrics.items()}, **detail),
        indent=2, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="default: every workload BENCHMARK.json lists, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite bench/reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "meanflock" / "cli.py").is_file():
        print(f"error: the program is not here: {SRC / 'meanflock'} is missing", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record_reference()
        timed = [w["name"] for w in spec["workloads"]]
        for workload in [args.workload] if args.workload else timed:
            result = bench_workload(workload, args.seed, args.seconds, args.trace, spec)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
