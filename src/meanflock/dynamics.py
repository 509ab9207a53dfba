"""Time discretization of the interacting particle system.

Two schemes are provided. ``euler_ito`` integrates the Ito form, whose drift
carries the corrective field S[mu]; it is the primary scheme. The
``heun_stratonovich`` scheme, the trapezoid built on an uncorrected Euler
predictor, integrates the circle form without any corrective drift and
exists to cross-validate S[mu]: both schemes must converge to the same law
as dt shrinks, and they only do when the correction is right.

Noise is addressed, not streamed: the increment of particle ``i`` at step
``k`` is a pure function of ``(master_seed, i, k)`` through per-particle
Philox streams. ``simulate`` derives the noise from ``cfg.master_seed`` and
drives row i of its states with particle i's stream, so two runs under one
seed share the common noise, and a run on a prefix of the states sees the
increments its particles see in the full run. The Cauchy and chaos
experiments couple sizes this way.

A trajectory's inputs are the kernel, the (N, d) array of initial states and
a time grid (``SimConfig``); N and d are read from the states, and every
grid step is recorded. One loop, ``_integrate``, steps both schemes,
records the path and checks for blow-up; ``simulate`` runs it on the
evolving measure and the characteristics replay on a run's recorded one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import S1_CONVENTIONS, SCHEMES, check_time_grid
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


class SimConfig:
    """Time grid, scheme and reproducibility knobs for one trajectory; ``s1_factor``
    is the factor on s1 in the Ito correction S1 that ``s1_convention`` names.
    The constructor checks the grid, the scheme and the convention."""

    __slots__ = ("t_final", "dt", "scheme", "master_seed", "s1_convention", "blowup_norm")

    def __init__(self, t_final: float, dt: float, scheme: str = "euler_ito", master_seed: int = 0,
                 s1_convention: str = "half_both", blowup_norm: float = 1e6):
        check_time_grid(t_final, dt)
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
        if s1_convention not in S1_CONVENTIONS:
            name, choices = s1_convention, tuple(S1_CONVENTIONS)
            raise ValueError(f"unknown s1 convention {name!r}, expected one of {choices}")
        self.t_final, self.dt, self.scheme, self.master_seed = t_final, dt, scheme, master_seed
        self.s1_convention, self.blowup_norm = s1_convention, blowup_norm

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def s1_factor(self) -> float:
        return S1_CONVENTIONS[self.s1_convention]


class TrajectoryRecord(MeasurePath):
    """One simulated run: its measure path and what produced it.

    The path's times, states (steps + 1, N, d) and weights are the record,
    checked as a ``MeasurePath``; ``config``, ``kernel`` and ``noise`` are
    what the characteristics replay reads to freeze the run's field.
    """

    __slots__ = ("config", "kernel", "noise")

    def __init__(self, times, states, weights, config: SimConfig, kernel: KernelSet,
                 noise: NoisePath):
        super().__init__(times, states, weights)
        self.config, self.kernel, self.noise = config, kernel, noise


def _euler_step(
    k: KernelSet,
    atoms: np.ndarray,
    weights: np.ndarray,
    queries: np.ndarray,
    cfg: SimConfig,
    dbeta: float,
    db: Optional[np.ndarray],
    factor: Optional[float],
) -> np.ndarray:
    """One Euler step of ``queries`` in the field of the measure (atoms, weights).

    With ``factor`` = ``cfg.s1_factor`` the drift carries the Ito correction
    S[mu]: the Euler-Ito update; with None, the uncorrected step of Heun's scheme.
    """
    drift, common = field_drift_diffusion(k, atoms, weights, queries, factor)
    new = queries + cfg.dt * drift
    if common is not None:
        new = new + dbeta * common
    if k.sigma is not None:
        new = new + np.einsum("nij,nj->ni", k.sigma(queries), db)
    return new


def check_states(k: KernelSet, states, argument: str) -> np.ndarray:
    """``states`` as floats, if a finite (m, d) array, m >= 1, d the kernel dimension."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 1:
        raise ValueError(f"{argument} must be a (m, d) array with m >= 1")
    if not np.all(np.isfinite(states)):
        raise ValueError(f"{argument} must be finite")
    return k.check_point(states, argument)


def _integrate(
    k: KernelSet,
    x0: np.ndarray,
    weights: np.ndarray,
    cfg: SimConfig,
    noise: NoisePath,
    db: Optional[np.ndarray] = None,
    frozen: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The one time loop: the (steps + 1, m, d) path of the (m, d) points ``x0``.

    The field at step k is that of the measure (path[k], weights), or of
    (frozen[k], weights) on an Euler-Ito replay; ``db`` is the (m, steps, d)
    block of individual increments, or None. Heun's step is the trapezoid
    0.5 * (x + E(E(x))) of the uncorrected Euler step E, both stages under
    the same increments. A state beyond ``cfg.blowup_norm`` or non-finite
    raises ``BlowUpError`` with the states recorded so far.
    """
    path = np.empty((cfg.steps + 1,) + x0.shape)
    path[0] = x = x0
    for step in range(cfg.steps):
        dw = noise.common_increments[step], None if db is None else db[:, step, :]
        if cfg.scheme == "euler_ito":
            atoms = x if frozen is None else frozen[step]
            x = _euler_step(k, atoms, weights, x, cfg, *dw, cfg.s1_factor)
        else:
            pred = _euler_step(k, x, weights, x, cfg, *dw, None)
            x = 0.5 * (x + _euler_step(k, pred, weights, pred, cfg, *dw, None))
        # hypot never squares, so the norm overflows only beyond the largest
        # double, and NaN fails the comparison; initial=0.0 makes a
        # one-coordinate norm |x|, not the signed coordinate a reduction may
        # start from
        max_norm = float(np.max(np.hypot.reduce(x, axis=-1, initial=0.0)))
        if not max_norm <= cfg.blowup_norm:
            raise BlowUpError(step, max_norm, seed=cfg.master_seed, partial=path[: step + 1])
        path[step + 1] = x
    return path


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
    states = check_states(k, states, "states")
    n = states.shape[0]
    noise = NoisePath(cfg.master_seed, cfg.dt, cfg.steps, k.dim)
    w = np.full(n, 1.0 / n) if weights is None else check_weights(weights, n)
    db = None if k.sigma is None else noise.individual(n)
    path = _integrate(k, states, w, cfg, noise, db=db)
    return TrajectoryRecord(cfg.dt * np.arange(cfg.steps + 1), path, w, cfg, k, noise)
