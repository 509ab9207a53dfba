"""Time discretization of the interacting particle system.

Two schemes are provided. ``euler_ito`` integrates the Ito form, whose drift
carries the corrective field S[mu]; it is the primary scheme. The
``heun_stratonovich`` predictor-corrector integrates the circle form without
any corrective drift and exists to cross-validate S[mu]: both schemes must
converge to the same law as dt shrinks, and they only do when the correction
is right.

Noise is addressed, not streamed: the increment of particle ``i`` at step
``k`` is a pure function of ``(master_seed, i, k)`` through per-particle
Philox streams. ``simulate`` derives the noise from ``cfg.master_seed`` and
drives row i of its states with particle i's stream, so two runs under one
seed share the common noise, and a run on a prefix of the states sees the
increments its particles see in the full run. The Cauchy and chaos
experiments couple sizes this way.

A trajectory's inputs are the kernel, the (N, d) array of initial states and
a time grid (``SimConfig``); N and d are read from the states, and every
grid step is recorded. The Euler-Ito update is one function,
``_euler_step``, which the characteristics solver calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SCHEMES, check_time_grid
from .errors import BlowUpError
from .kernels import KernelSet, field_drift_diffusion
from .transport import MeasurePath, check_weights

# SeedSequence spawn-key tags keeping the noise, init and resample streams apart
_STREAM_COMMON = 0
_STREAM_INDIVIDUAL = 1
_STREAM_INIT = 2
_STREAM_RESAMPLE = 3


def seeded_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for a named substream of a master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def init_rng(master_seed: int) -> np.random.Generator:
    return seeded_rng(master_seed, _STREAM_INIT)


def resample_rng(master_seed: int, resample: int) -> np.random.Generator:
    return seeded_rng(master_seed, _STREAM_RESAMPLE, resample)


class NoisePath:
    """Discretized driving noise for one master seed.

    ``common_increments[k]`` is the shared Delta beta_k ~ N(0, dt).
    ``individual(n)[i, k]`` is Delta B^i_k in R^d for particle i,
    reproducible from ``(master_seed, i, k)`` alone, so a block for n
    particles is a prefix of the block for more.
    """

    def __init__(self, master_seed: int, dt: float, steps: int, dim: int):
        if dt <= 0 or steps < 0:
            raise ValueError("noise path needs dt > 0 and steps >= 0")
        self.master_seed = int(master_seed)
        self.dt = float(dt)
        self.steps = int(steps)
        self.dim = int(dim)
        scale = np.sqrt(dt)
        rng = seeded_rng(self.master_seed, _STREAM_COMMON)
        self.common_increments = scale * rng.standard_normal(steps)

    def individual(self, n: int) -> np.ndarray:
        """(n, steps, d) increments of particles 0..n-1, row i from particle i's stream."""
        out = np.empty((n, self.steps, self.dim))
        for i in range(n):
            out[i] = seeded_rng(self.master_seed, _STREAM_INDIVIDUAL, i).standard_normal(
                (self.steps, self.dim)
            )
        out *= np.sqrt(self.dt)
        return out


@dataclass(frozen=True)
class SimConfig:
    """Time grid, scheme and reproducibility knobs for one trajectory."""

    t_final: float
    dt: float
    scheme: str = "euler_ito"
    master_seed: int = 0
    s1_convention: str = "half_both"
    blowup_norm: float = 1e6

    def __post_init__(self):
        check_time_grid(self.t_final, self.dt)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class TrajectoryRecord(MeasurePath):
    """One simulated run: its measure path and what produced it.

    The path's times, states (steps + 1, N, d) and weights are the record;
    ``config``, ``kernel`` and ``noise`` are what the characteristics replay
    reads to freeze the run's field.
    """

    config: SimConfig
    kernel: KernelSet
    noise: NoisePath


def _sigma_increment(k: KernelSet, states: np.ndarray, db: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", k.sigma(states), db)


def _euler_step(
    k: KernelSet,
    atoms: np.ndarray,
    weights: np.ndarray,
    queries: np.ndarray,
    dt: float,
    dbeta: float,
    db: Optional[np.ndarray],
    s1_convention: str,
) -> np.ndarray:
    """One Euler-Ito step of ``queries`` in the field of the measure (atoms, weights).

    The stepper passes its states as both atoms and queries; the
    characteristics solver passes the frozen measure of the step as atoms.
    """
    drift, common = field_drift_diffusion(
        k, atoms, weights, queries, s1_convention=s1_convention
    )
    new = queries + dt * drift
    if common is not None:
        new = new + dbeta * common
    if k.sigma is not None:
        new = new + _sigma_increment(k, queries, db)
    return new


def _heun_step(
    k: KernelSet,
    states: np.ndarray,
    weights: np.ndarray,
    dt: float,
    dbeta: float,
    db: Optional[np.ndarray],
) -> np.ndarray:
    drift0, common0 = field_drift_diffusion(
        k, states, weights, states, include_correction=False
    )
    pred = states + dt * drift0
    if common0 is not None:
        pred = pred + dbeta * common0
    sig0 = None
    if k.sigma is not None:
        sig0 = _sigma_increment(k, states, db)
        pred = pred + sig0
    drift1, common1 = field_drift_diffusion(
        k, pred, weights, pred, include_correction=False
    )
    new = states + 0.5 * dt * (drift0 + drift1)
    if common0 is not None:
        new = new + 0.5 * dbeta * (common0 + common1)
    if k.sigma is not None:
        new = new + 0.5 * (sig0 + _sigma_increment(k, pred, db))
    return new


def simulate(
    k: KernelSet,
    states: np.ndarray,
    cfg: SimConfig,
    weights: Optional[np.ndarray] = None,
) -> TrajectoryRecord:
    """Integrate the particle system from ``states`` at t = 0; record every step.

    ``states`` is the finite (N, d) array of initial states, with d the
    kernel dimension. Row i is driven by particle i's increments of the
    ``NoisePath`` of ``cfg.master_seed``. ``weights`` generalizes the
    empirical measure away from uniform: N positive weights summing to 1,
    checked as ``transport.EmpiricalMeasure`` checks them. The default is
    the uniform 1/N measure.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 1:
        raise ValueError("states must be a (n, d) array with n >= 1")
    if not np.all(np.isfinite(states)):
        raise ValueError("particle states must be finite")
    k.check_point(states, "states")
    n = states.shape[0]
    noise = NoisePath(cfg.master_seed, cfg.dt, cfg.steps, k.dim)
    w = np.full(n, 1.0 / n) if weights is None else check_weights(weights, n)

    db_all = None
    if k.sigma is not None:
        db_all = noise.individual(n)

    times = cfg.dt * np.arange(cfg.steps + 1)
    path = np.empty((cfg.steps + 1, n, k.dim))
    path[0] = states
    for step in range(cfg.steps):
        dbeta = noise.common_increments[step]
        db = None if db_all is None else db_all[:, step, :]
        if cfg.scheme == "euler_ito":
            states = _euler_step(k, states, w, states, cfg.dt, dbeta, db, cfg.s1_convention)
        else:
            states = _heun_step(k, states, w, cfg.dt, dbeta, db)
        max_norm = float(np.max(np.linalg.norm(states, axis=-1)))
        if not np.isfinite(max_norm) or max_norm > cfg.blowup_norm:
            partial = TrajectoryRecord(
                times[: step + 1].copy(), path[: step + 1].copy(), w, cfg, k, noise
            )
            raise BlowUpError(step, max_norm, seed=cfg.master_seed, partial=partial)
        path[step + 1] = states
    return TrajectoryRecord(times, path, w, cfg, k, noise)
