"""Time discretization of the interacting particle system.

Two schemes are provided. ``euler_ito`` integrates the Ito form, whose drift
carries the corrective field S[mu]; it is the primary scheme. The
``heun_stratonovich`` scheme, the trapezoid built on an uncorrected Euler
predictor, integrates the circle form without any corrective drift and
exists to cross-validate S[mu]: both schemes must converge to the same law
as dt shrinks, and they only do when the correction is right.

Noise is keyed by stream, not by particle: a block of increments is a pure
function of ``(master_seed, stream)`` and its shape, drawn in C order from
one Philox generator, so the n-particle block is a prefix of a larger one
with the same steps and d (particle i's increments differ between runs with
different ``steps``). ``simulate`` derives the noise from ``cfg.master_seed``,
so two runs under one seed share the common noise, and a run on a prefix of
the states sees the increments its particles see in the full run. The
Cauchy and chaos experiments couple sizes this way.

A trajectory's inputs are the kernel, the (N, d) array of initial states and
a time grid (``SimConfig``); N and d are read from the states, and every
grid step is recorded. One loop, ``_integrate``, steps both schemes,
records the path and checks for blow-up; ``simulate`` runs it on the
evolving measure and the characteristics replay on a run's recorded one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import S1_CONVENTIONS, SCHEMES, check_blowup_norm, check_time_grid
from .errors import BlowUpError
from .kernels import KernelSet, field_drift_diffusion
from .transport import MeasurePath, check_atoms

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
    ``individual(n)[i, k]`` is Delta B^i_k in R^d for particle i. Each is
    determined by ``(master_seed, stream)`` and the block's shape, so a
    block for n particles is a prefix of the block for more with the same
    steps and d.
    """

    def __init__(self, master_seed: int, dt: float, steps: int, dim: int):
        if not 0 < dt < np.inf or steps < 0:
            raise ValueError("noise path needs a finite dt > 0 and steps >= 0")
        self.master_seed = int(master_seed)
        self.dt = float(dt)
        self.steps = int(steps)
        self.dim = int(dim)
        scale = np.sqrt(dt)
        rng = seeded_rng(self.master_seed, _STREAM_COMMON)
        self.common_increments = scale * rng.standard_normal(steps)

    def individual(self, n: int) -> np.ndarray:
        """(n, steps, d) increments of particles 0..n-1, from the individual stream."""
        out = seeded_rng(self.master_seed, _STREAM_INDIVIDUAL).standard_normal(
            (n, self.steps, self.dim))
        out *= np.sqrt(self.dt)
        return out


class SimConfig:
    """Time grid, scheme and reproducibility knobs for one trajectory; ``s1_factor``
    is the factor on s1 in the Ito correction S1 that ``s1_convention`` names.
    The constructor checks the grid, the blow-up norm, the scheme and the convention."""

    __slots__ = ("t_final", "dt", "scheme", "master_seed", "s1_convention", "blowup_norm")

    def __init__(self, t_final: float, dt: float, scheme: str = "euler_ito", master_seed: int = 0,
                 s1_convention: str = "half_both", blowup_norm: float = 1e6):
        check_time_grid(t_final, dt)
        check_blowup_norm(blowup_norm)
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

    The path's times and states (steps + 1, N, d) are the record, checked
    as a ``MeasurePath``; ``weights`` are the N weights 1/N of the run's
    empirical measures, as the field takes them. ``config``, ``kernel`` and
    ``noise`` are what the characteristics replay reads to freeze the run's
    field.
    """

    __slots__ = ("weights", "config", "kernel", "noise")

    def __init__(self, times, states, weights, config: SimConfig, kernel: KernelSet,
                 noise: NoisePath):
        super().__init__(times, states)
        self.weights, self.config, self.kernel, self.noise = weights, config, kernel, noise


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
        new = new + k.sigma(queries) * db
    return new


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
    raises ``BlowUpError`` with the states recorded so far. An overflow in
    the field or the state is no warning: it reaches the blow-up check as inf.
    """
    path = np.empty((cfg.steps + 1,) + x0.shape)
    path[0] = x = x0
    with np.errstate(over="ignore"):
        for step in range(cfg.steps):
            dw = noise.common_increments[step], None if db is None else db[:, step, :]
            if cfg.scheme == "euler_ito":
                atoms = x if frozen is None else frozen[step]
                x = _euler_step(k, atoms, weights, x, cfg, *dw, cfg.s1_factor)
            else:
                pred = _euler_step(k, x, weights, x, cfg, *dw, None)
                x = 0.5 * (x + _euler_step(k, pred, weights, pred, cfg, *dw, None))
            # NaN fails the comparison
            max_norm = float(np.max(_state_norms(x)))
            if not max_norm <= cfg.blowup_norm:
                raise BlowUpError(step, max_norm, cfg.master_seed, partial=path[: step + 1])
            path[step + 1] = x
    return path


def _state_norms(states: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each state, over the last axis.

    hypot never squares, so a norm overflows only beyond the largest double,
    where it reads inf; callers ignore that overflow. Adding one coordinate
    at a time to |x_0| = hypot(0, x_0) is ``np.hypot.reduce(states,
    axis=-1, initial=0.0)`` bit for bit, without its per-row loop.
    """
    norms = np.abs(states[..., 0])
    for k in range(1, states.shape[-1]):
        np.hypot(norms, states[..., k], out=norms)
    return norms


def simulate(k: KernelSet, states: np.ndarray, cfg: SimConfig) -> TrajectoryRecord:
    """Integrate the particle system from ``states`` at t = 0; record every step.

    ``states`` is the finite (N, d) array of initial states, with d the
    kernel dimension (``transport.check_atoms``). Row i is driven by row i
    of the individual block of the ``NoisePath`` of ``cfg.master_seed``,
    keyed by that stream, and every particle weighs 1/N in the empirical measure.
    """
    states = check_atoms(states, k.dim, "states")
    n = states.shape[0]
    noise = NoisePath(cfg.master_seed, cfg.dt, cfg.steps, k.dim)
    w = np.full(n, 1.0 / n)
    db = None if k.sigma is None else noise.individual(n)
    path = _integrate(k, states, w, cfg, noise, db=db)
    return TrajectoryRecord(cfg.dt * np.arange(cfg.steps + 1), path, w, cfg, k, noise)
