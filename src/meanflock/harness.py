"""Experiment orchestration: configs in, reports and manifests out.

Every experiment kind is one per-seed function plus one aggregate in
``diagnostics`` (transport-check's per-seed function is
``characteristics.transport_residual``); this module only turns config
values into their arguments. ``EXPERIMENTS`` pairs a worker per kind with a
report function. ``execute`` maps the worker over the config's seeds with
``map_jobs`` and hands the results, in seed order, to the report, so
parallel and serial execution agree exactly; comparison's worker and
report also take the pairing of its initial atoms, which ``execute`` solves
once. Configs reach ``execute`` only through ``config.parse_config``, which
checks every input rule; nothing here validates again.

A run's inputs are an (N, d) array of initial states, drawn from the
config's init block by ``sample_initial_atoms``, and the time grid and seed
that ``build_sim_config`` reads from the config; ``simulate`` takes N and d
from the states, derives its noise from the seed and records every step.

``run_from_text`` is the library entry point: it takes a config's text
(``meanflock run`` reads the file) and writes ``report.json`` and
``manifest.json``, both strict JSON, with every non-finite float written as
the string "inf", "-inf" or "nan". Every experiment is reproducible from its
manifest: the manifest embeds the exact config text, the explicit seed list,
and the config hash. Reports hold only deterministic content (no wall
times), so re-running a manifest reproduces ``report.json`` byte for byte
regardless of the worker count. Workers rebuild kernels from the plain
config mapping, which keeps them picklable. ``_pool_size`` reads
``MFS_THREADS`` (default 1) and caps it at the seed count.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .characteristics import transport_residual
from .config import CHAOS_R, INIT_KEYS, MODELS, ExperimentConfig, parse_config, state_dim
from .diagnostics import (
    COMPARISON_SHIFTS,
    DiagnosticsReport,
    aggregate_cauchy,
    aggregate_chaos,
    aggregate_comparison,
    aggregate_flocking,
    aggregate_simulate,
    aggregate_transport,
    aggregate_weakform,
    cauchy_single,
    chaos_beta_path,
    comparison_seed,
    default_checkpoints,
    energy_series,
    mean_velocity_drift,
    observed_position_spread,
    weakform_single,
)
from .dynamics import SimConfig, init_rng, simulate
from .errors import ConfigError, MeanflockError
from .kernels import (
    GENERIC_KERNELS,
    CuckerSmaleParams,
    KernelSet,
    Truncation,
    cucker_smale_kernels,
    with_velocity_noise,
)
from .testfunctions import TestFunction, bump
from .transport import moments, optimal_pairing

# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _cs_params(values: dict) -> CuckerSmaleParams:
    trunc = None
    if values.get("trunc_radius") is not None:
        trunc = Truncation(values["trunc_radius"], values["trunc_margin"])
    return CuckerSmaleParams(
        half_dim=values["half_dim"],
        lam=values["lambda"],
        gamma=values["gamma"],
        phi_lam=values["phi_lambda"],
        phi_gamma=values["phi_gamma"],
        truncation=trunc,
    )


def build_kernel(values: dict) -> KernelSet:
    """The kernel of a parsed config's model.

    Generic models take their ``MODELS`` keys as positional arguments, in order.
    """
    model = MODELS[values["model"]]
    if not model.position_velocity:
        return GENERIC_KERNELS[values["model"]](*(values[key] for key in model.keys))
    kernel = cucker_smale_kernels(_cs_params(values))
    if model.individual_noise:
        kernel = with_velocity_noise(kernel, values["sigma_scale"])
    return kernel


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------


def sample_initial_atoms(values: dict, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n i.i.d. initial states following the config's init block.

    Each scale the model family reads (``INIT_KEYS``) covers an equal block
    of coordinates: positions then velocities, or the whole generic state.
    """
    dim = state_dim(values)
    keys = INIT_KEYS[MODELS[values["model"]].position_velocity]
    scales = np.repeat([values[key] for key in keys], dim // len(keys))
    if values["init_kind"] == "gaussian":
        return rng.standard_normal((n, dim)) * scales
    return rng.uniform(-1.0, 1.0, size=(n, dim)) * scales


def build_sim_config(values: dict, seed: Optional[int] = None) -> SimConfig:
    """The time grid of a parsed config, under ``seed`` if given."""
    return SimConfig(
        t_final=values["t_final"],
        dt=values["dt"],
        scheme=values["scheme"],
        master_seed=seed if seed is not None else values["master_seed"],
        s1_convention=values["s1_convention"],
        blowup_norm=values["blowup_norm"],
    )


def _simulate_for_seed(values: dict, seed: int):
    """One run of ``n_particles`` states drawn from the init stream of ``seed``."""
    atoms = sample_initial_atoms(values, init_rng(seed), values["n_particles"])
    return simulate(build_kernel(values), atoms, build_sim_config(values, seed=seed))


def _comparison_pairs(values: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """Initial atoms a and, one per ``COMPARISON_SHIFTS`` entry, their shifted
    copies, each in the order of an optimal pairing with a."""
    rng = init_rng(values["master_seed"])
    atoms = sample_initial_atoms(values, rng, values["n_particles"])
    # per-atom perturbation: uniform translations are exactly preserved
    # by difference kernels and would make the ratio check vacuous
    delta = rng.standard_normal(atoms.shape)
    delta /= np.sqrt(np.mean(np.sum(delta**2, axis=1)))
    shifted = [atoms + factor * values["comparison_shift"] * delta
               for factor in COMPARISON_SHIFTS.values()]
    return atoms, [b[optimal_pairing(atoms, b, values["wasserstein_p"])] for b in shifted]


def _bump(values: dict, center: float, radius: float) -> TestFunction:
    """Bump test function; on velocities only for position-velocity models."""
    start = values["half_dim"] if MODELS[values["model"]].position_velocity else 0
    return bump(center, radius, state_dim(values), start)


def _build_cylinder_functions(values: dict) -> list[tuple[TestFunction, int]]:
    # CHAOS_R = 2 bounded path observables: (test function, grid step) pairs
    steps = build_sim_config(values).steps
    center, radius = values["tf_center"], values["tf_radius"]
    return [
        (_bump(values, center, radius), steps),
        (_bump(values, center, 1.2 * radius), round(0.75 * steps)),
    ]


# ---------------------------------------------------------------------------
# Per-seed workers (top level so process pools can pickle them)
# ---------------------------------------------------------------------------


def _simulate_worker(args):
    values, seed = args
    run = _simulate_for_seed(values, seed)
    return run.times, run.states, moments(run.states[-1], 2.0)


def _flocking_worker(args):
    values, seed = args
    run = _simulate_for_seed(values, seed)
    return energy_series(run), observed_position_spread(run), mean_velocity_drift(run), run.times


def _weakform_worker(args):
    values, seed = args
    run = _simulate_for_seed(values, seed)
    psi = _bump(values, values["tf_center"], values["tf_radius"])
    checkpoints = default_checkpoints(run.config.steps)
    m, qv = weakform_single(run, psi, checkpoints)
    return m, qv, run.times[checkpoints]


def _cauchy_worker(args):
    # initial atoms are redrawn per seed so the expectation averages over
    # both the noise and the nested initial sample
    values, seed = args
    sizes = values["sizes"]
    base_atoms = sample_initial_atoms(values, init_rng(seed), sizes[0])
    return cauchy_single(
        build_kernel(values), base_atoms, sizes, build_sim_config(values, seed=seed),
        values["wasserstein_p"],
    )


def _chaos_worker(args):
    values, beta_seed = args
    sampler = partial(sample_initial_atoms, values)
    return chaos_beta_path(
        build_kernel(values), sampler, _build_cylinder_functions(values), values["n_list"],
        build_sim_config(values, seed=beta_seed), values["ref_n"], values["n_resamples"],
    )


def _comparison_worker(pairs, args):
    values, seed = args
    return comparison_seed(
        build_kernel(values), *pairs, build_sim_config(values, seed=seed),
        values["radius"], values["wasserstein_p"],
    )


def _transport_check_worker(args):
    values, seed = args
    return transport_residual(_simulate_for_seed(values, seed))


# ---------------------------------------------------------------------------
# Reports: (values, seeds, per-seed results in seed order) -> aggregate
# ---------------------------------------------------------------------------


def _simulate_report(values, seeds, results):
    return aggregate_simulate(seeds, results)


def _flocking_report(values, seeds, results):
    energies, spreads, drifts, times = zip(*results)
    return aggregate_flocking(times[0], np.stack(energies), spreads, drifts, _cs_params(values))


def _weakform_report(values, seeds, results):
    return aggregate_weakform([(m, qv) for m, qv, _ in results], results[0][2])


def _cauchy_report(values, seeds, results):
    return aggregate_cauchy(np.stack(results), values["sizes"], values["wasserstein_p"])


def _chaos_report(values, seeds, results):
    return aggregate_chaos(
        np.stack(results), values["n_list"], CHAOS_R, values["ref_n"], values["n_resamples"]
    )


def _comparison_report(pairs, values, seeds, results):
    return aggregate_comparison(*pairs, results, values["radius"], values["wasserstein_p"])


def _transport_report(values, seeds, results):
    return aggregate_transport(seeds, results)


EXPERIMENTS = {
    "simulate": (_simulate_worker, _simulate_report),
    "flocking": (_flocking_worker, _flocking_report),
    "weakform": (_weakform_worker, _weakform_report),
    "cauchy": (_cauchy_worker, _cauchy_report),
    "chaos": (_chaos_worker, _chaos_report),
    "comparison": (_comparison_worker, _comparison_report),
    "transport-check": (_transport_check_worker, _transport_report),
}


# ---------------------------------------------------------------------------
# Parallel mapping and execution
# ---------------------------------------------------------------------------


def _pool_size(n_jobs: int) -> int:
    """The workers that ``map_jobs`` runs for n_jobs jobs: ``MFS_THREADS``
    (default 1), at most one per job and at least one."""
    raw = os.environ.get("MFS_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"MFS_THREADS must be an integer, got {raw!r}")
    return max(1, min(workers, n_jobs))


def map_jobs(fn: Callable, jobs: list) -> list:
    """Apply fn over jobs, in order, optionally across processes.

    Results are collected in job order, so the aggregate is identical for
    any worker count. The pool is capped at the job count, since under fork
    every worker is started at once and a worker without a job is wasted.
    The process pool (and with it ``multiprocessing``) is imported only when
    more than one worker runs; a serial run never loads it. Under
    ``meanflock run`` the workers fork after ``cli.main`` has frozen the
    import graph, so their collections skip it too.
    """
    workers = _pool_size(len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def execute(cfg: ExperimentConfig, output_dir: Optional[Path] = None) -> DiagnosticsReport:
    """Run one parsed experiment; simulate runs also write trajectory CSVs."""
    worker, aggregate = EXPERIMENTS[cfg.kind]
    if cfg.kind == "comparison":
        # every seed starts from the same measures: pair their atoms once
        pairs = _comparison_pairs(cfg.values)
        worker, aggregate = partial(worker, pairs), partial(aggregate, pairs)
    seeds = cfg.seeds()
    results = map_jobs(worker, [(cfg.values, seed) for seed in seeds])
    if cfg.kind == "simulate" and cfg.values["write_trajectories"] and output_dir is not None:
        _write_trajectory_csvs(seeds, results, output_dir)
    return aggregate(cfg.values, seeds, results)


def _write_trajectory_csvs(seeds, results, output_dir: Path):
    for seed, (times, states, _) in zip(seeds, results):
        header = "t,particle," + ",".join(f"coord_{j}" for j in range(states.shape[2]))
        lines = [header]
        for t_idx, t in enumerate(times):
            for p_idx in range(states.shape[1]):
                coords = ",".join(repr(float(v)) for v in states[t_idx, p_idx])
                lines.append(f"{float(t)!r},{p_idx},{coords}")
        _atomic_write_text(output_dir / f"run_{seed}.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _strict(value):
    """``value`` with every non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _write_json(path: Path, record: dict) -> None:
    text = json.dumps(_strict(record), sort_keys=True, indent=2, allow_nan=False)
    _atomic_write_text(path, text + "\n")


def _error_record(exc: Exception) -> dict:
    """What a failed run's manifest says about its error, with a package error's fields."""
    record = {"class": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, MeanflockError):
        record.update((name, getattr(exc, name)) for name in exc.fields)
    return record


def run_from_text(text: str, output_dir: Optional[str] = None) -> int:
    """Parse, execute, persist; returns the CLI exit code.

    A run that raises any ``Exception`` still writes ``manifest.json``, with
    ``status: "error"`` and the error's record, but no ``report.json``; a
    run that finishes writes both, with ``status: "ok"``. A package error
    (``MeanflockError``) is printed and returns 1; any other error is
    raised again once the manifest is written, so it keeps its traceback.
    """
    started = time.monotonic()
    try:
        cfg = parse_config(text)
        # the workers map_jobs will run; a bad MFS_THREADS fails here, before any output
        workers = _pool_size(len(cfg.seeds()))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(output_dir if output_dir is not None else cfg.values["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "code_version": __version__,
        "config_sha256": cfg.sha256(),
        "config_text": cfg.text,
        "experiment": cfg.kind,
        "seeds": cfg.seeds(),
        "threads": workers,
    }
    try:
        report = execute(cfg, output_dir=out_dir)
    except Exception as exc:
        manifest.update(status="error", error=_error_record(exc))
        manifest["wall_time_seconds"] = time.monotonic() - started
        _write_json(out_dir / "manifest.json", manifest)
        if not isinstance(exc, MeanflockError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_json(out_dir / "report.json", report.to_json_dict())
    manifest.update(status="ok", wall_time_seconds=time.monotonic() - started)
    _write_json(out_dir / "manifest.json", manifest)
    return 0 if report.all_pass() else 2
