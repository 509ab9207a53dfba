"""Layer sweep: per-call times of the field, the blow-up check, the exact
assignment and the individual noise across sizes, and in-process runs of
the bench configs and the reference configs in ``tools/configs/``.

    python3 tools/sweep.py OUT

Run from anywhere; the program is taken from ``src/`` next to this
directory, with no install step, and BLAS is held to one thread. ``OUT``
is the JSON ledger to write, such as ``BENCH_<n>.json`` at the repo root.
The rows go into it as one block, under the key that ``git describe
--always --dirty`` gives for this checkout; blocks already in ``OUT``
under other keys are kept, so a run on the parent commit and a run on a
change sit side by side.

Rows:
- ``field``: ``field_drift_diffusion(k, x, w, x, 0.5)``, the N states x
  as atoms and queries with uniform weights w, Cucker-Smale with
  ``phi_lambda = 0.5``,
  untruncated or truncated (radius 4, margin 1): median us per call and the
  ``tracemalloc`` peak of one call;
- ``state_norms``: ``dynamics._state_norms`` on (N, d) states;
- ``assignment``: ``transport._assignment(dist**2, 2)`` per solve, on the
  N-against-2N sup-distance tables of coupled random walks that
  ``tests/test_transport.py::test_assignment_matches_scipy_cauchy_shapes``
  builds, with a hash of the columns;
- ``noise``: ``NoisePath(0, 0.01, 100, 4).individual(N)``, the (N, 100, 4)
  block of individual increments, with a hash of its bytes;
- ``workloads``: ``harness.run_from_text`` on ``<name>.cfg`` from
  ``bench/configs/`` (only read) or ``tools/configs/`` into a temporary
  directory, median seconds and the ``report.json`` SHA-256: the two timed
  workloads, ``flocking-n256``, the one bench config that runs the
  truncated field, ``chaos-n16``, whose small field calls a batched stepper
  would merge, and the reference configs of the kinds the bench lacks.

Times are medians over repeats; the host's speed can drift between rows,
so compare blocks row by row, not as totals.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # before numpy loads: one BLAS thread, and the serial run path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MFS_THREADS"):
        os.environ[var] = "1"

import hashlib
import json
import platform
import statistics
import subprocess
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from meanflock.dynamics import NoisePath, _state_norms  # noqa: E402
from meanflock.harness import run_from_text  # noqa: E402
from meanflock.kernels import (  # noqa: E402
    CuckerSmaleParams,
    Truncation,
    cucker_smale_kernels,
    field_drift_diffusion,
)
from meanflock.transport import MeasurePath, _assignment, path_sup_distances  # noqa: E402

CONFIG_DIRS = (ROOT / "bench" / "configs", ROOT / "tools" / "configs")
FULL = dict(field_n=(64, 256, 1024), norms_n=(64, 256, 1024), assignment_n=(32, 64, 128),
            noise_n=(256, 1024, 4096),
            workloads=("cauchy-n256", "transport-n256", "flocking-n256", "chaos-n16",
                       "weakform-a", "weakform-b", "comparison", "comparison-full", "simulate"),
            repeats=11)


def _median_s(fn, repeats: int, number: int = 1) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``number`` calls."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def field_rows(ns, repeats: int) -> list[dict]:
    rows = []
    for n in ns:
        for half_dim in (1, 2):
            for truncated in (False, True):
                trunc = Truncation(4.0, 1.0) if truncated else None
                k = cucker_smale_kernels(CuckerSmaleParams(half_dim, phi_lam=0.5, truncation=trunc))
                x = np.random.default_rng(n).standard_normal((n, 2 * half_dim))
                w = np.full(n, 1.0 / n)
                call = lambda: field_drift_diffusion(k, x, w, x, 0.5)  # noqa: E731
                tracemalloc.start()
                call()
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                rows.append({"n": n, "half_dim": half_dim, "truncated": truncated,
                             "us_per_call": round(1e6 * _median_s(call, repeats), 2),
                             "peak_bytes": peak})
    return rows


def norm_rows(ns, repeats: int) -> list[dict]:
    rows = []
    for n in ns:
        for d in (2, 4):
            x = np.random.default_rng(n).standard_normal((n, d))
            t = _median_s(lambda: _state_norms(x), repeats, number=1000)
            rows.append({"n": n, "d": d, "us_per_call": round(1e6 * t, 3)})
    return rows


def assignment_rows(ns, repeats: int) -> list[dict]:
    # the tables come from one stream in this order, as in the test
    rng = np.random.default_rng(32)
    rows = []
    for n in (32, 64, 128):
        steps = rng.normal(scale=0.1, size=(21, 2 * n, 2))
        b = np.cumsum(steps, axis=0)
        a = b[:, :n] + rng.normal(scale=0.05, size=(21, n, 2))
        if n not in ns:
            continue
        times = np.arange(21, dtype=float)
        cost = path_sup_distances(MeasurePath(times, a), MeasurePath(times, b)) ** 2
        cols = _assignment(cost, 2)
        rows.append({"n": n, "m": 2 * n, "ms_per_solve": round(1e3 * _median_s(
            lambda: _assignment(cost, 2), repeats), 3),
            "cols_sha256": hashlib.sha256(cols.tobytes()).hexdigest()})
    return rows


def noise_rows(ns, repeats: int) -> list[dict]:
    noise = NoisePath(0, 0.01, 100, 4)
    rows = []
    for n in ns:
        block = noise.individual(n)
        rows.append({"n": n, "steps": noise.steps, "d": noise.dim,
                     "ms_per_call": round(1e3 * _median_s(lambda: noise.individual(n), repeats), 3),
                     "block_sha256": hashlib.sha256(block.tobytes()).hexdigest()})
    return rows


def _config_text(name: str) -> str:
    """The text of ``<name>.cfg`` from the one config directory that holds it."""
    (path,) = [d / f"{name}.cfg" for d in CONFIG_DIRS if (d / f"{name}.cfg").exists()]
    return path.read_text()


def workload_rows(names, repeats: int) -> list[dict]:
    rows = []
    for name in names:
        text = _config_text(name)
        with tempfile.TemporaryDirectory() as out:
            def run():
                if run_from_text(text, out) != 0:
                    raise RuntimeError(f"{name} did not exit 0")
            t = _median_s(run, repeats)
            digest = hashlib.sha256((Path(out) / "report.json").read_bytes()).hexdigest()
        rows.append({"workload": name, "s_median": round(t, 4), "repeats": repeats,
                     "report_sha256": digest})
    return rows


def _commit() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(field_n, norms_n, assignment_n, noise_n, workloads, repeats: int) -> dict:
    """One block: the host and versions, then every row family."""
    return {
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "rows": {
            "field": field_rows(field_n, repeats),
            "state_norms": norm_rows(norms_n, repeats),
            "assignment": assignment_rows(assignment_n, repeats),
            "noise": noise_rows(noise_n, repeats),
            "workloads": workload_rows(workloads, repeats),
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/sweep.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    block = measure(**FULL)
    blocks = json.loads(out.read_text()) if out.exists() else {}
    blocks[block["commit"]] = block
    out.write_text(json.dumps(blocks, indent=1) + "\n")
    print(f"wrote block {block['commit']!r} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
