"""Frozen-field stochastic characteristics and transport-form checks.

Given a recorded measure path and the common-noise increments that produced
it, the characteristic of a start point x solves the same Euler recursion as
the particle system, but with the mean-field coefficients evaluated against
the frozen path instead of the evolving ensemble. The solver advances with
the particle stepper's own ``dynamics._euler_step``, so pushing the initial
measure through its own frozen field reproduces the recorded run bit for
bit: the discrete transport identity holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import NoisePath, SimConfig, TrajectoryRecord, _euler_step, simulate
from .errors import BlowUpError
from .kernels import KernelSet
from .transport import EmpiricalMeasure, MeasurePath, support_radius, wasserstein


@dataclass(frozen=True)
class FrozenField:
    """A measure path treated as exogenous input to the characteristics SDE."""

    kernel: KernelSet
    field_path: MeasurePath
    common_increments: np.ndarray
    dt: float
    s1_convention: str = "half_both"
    blowup_norm: float = 1e6

    def __post_init__(self):
        if self.kernel.sigma is not None:
            raise ValueError("characteristics are defined for common noise only (sigma = 0)")
        inc = np.asarray(self.common_increments, dtype=float)
        if self.field_path.n_times != inc.size + 1:
            raise ValueError(
                "field path must hold one measure per noise grid point "
                f"(got {self.field_path.n_times} measures, {inc.size} increments)"
            )
        object.__setattr__(self, "common_increments", inc)

    @property
    def steps(self) -> int:
        return self.common_increments.size

    @classmethod
    def from_run(cls, run: TrajectoryRecord) -> "FrozenField":
        """Freeze a recorded run at every step of its grid."""
        return cls(
            kernel=run.kernel,
            field_path=run.measure_path(),
            common_increments=run.noise.common_increments[: run.config.steps],
            dt=run.config.dt,
            s1_convention=run.config.s1_convention,
            blowup_norm=run.config.blowup_norm,
        )


def solve_characteristics(f: FrozenField, x0) -> np.ndarray:
    """Euler-Ito characteristics from one or many start points.

    Each step is the particle stepper's ``_euler_step`` with the frozen
    measure of that step as atoms and the current points as queries.
    Returns the full path array of shape (steps + 1, m, d) for a batch of m
    starts (a single (d,) start is promoted to m = 1).
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    if single:
        x0 = x0[None, :]
    k = f.kernel
    if x0.shape[-1] != k.dim:
        raise ValueError(f"start points have dimension {x0.shape[-1]}, kernel wants {k.dim}")
    atoms_path = f.field_path.states
    weights = f.field_path.weights
    out = np.empty((f.steps + 1,) + x0.shape)
    out[0] = x0
    current = x0
    for step in range(f.steps):
        current = _euler_step(
            k, atoms_path[step], weights, current, f.dt, f.common_increments[step],
            None, f.s1_convention,
        )
        max_norm = float(np.max(np.linalg.norm(current, axis=-1)))
        if not np.isfinite(max_norm) or max_norm > f.blowup_norm:
            raise BlowUpError(step, max_norm)
        out[step + 1] = current
    return out


def pushforward(f: FrozenField, init: EmpiricalMeasure) -> MeasurePath:
    """Push an initial measure through the frozen characteristic flow."""
    paths = solve_characteristics(f, init.atoms)
    return MeasurePath(f.field_path.times, paths, init.weights)


def transport_residual(run: TrajectoryRecord) -> float:
    """sup over grid times t of sqrt(sum_j w_j |x_j(t) - x~_j(t)|^2).

    x_j is atom j of the run and x~_j its pushforward through the run's own
    frozen field, matched by particle label. This coupling bounds
    W2(mu_t, mu~_t) from above and needs no transport solve, so it has no
    support cap. It is exactly 0 when the replay reproduces the run bit for
    bit, which it does for every common-noise-only run, because the
    characteristics recursion reuses the stepper arithmetic.
    """
    original = run.measure_path()
    replay = pushforward(FrozenField.from_run(run), original.measure_at(0))
    gap = np.sum((original.states - replay.states) ** 2, axis=-1) @ original.weights
    return float(np.sqrt(np.max(gap)))


def evolve_transport(
    k: KernelSet,
    init: EmpiricalMeasure,
    cfg: SimConfig,
    noise: Optional[NoisePath] = None,
) -> MeasurePath:
    """Transport-form solution for a weighted initial measure.

    The atoms follow the self-consistent field of their own weighted
    empirical measure; for uniform weights this is the plain particle system.
    """
    if k.sigma is not None:
        raise ValueError("transport form needs sigma = 0")
    return simulate(k, init.atoms, cfg, noise=noise, weights=init.weights).measure_path()


def _stopped_sup_cost(
    path_a: MeasurePath, path_b: MeasurePath, radius: float, p: float
) -> tuple[float, bool]:
    """(sup_{t <= tau_R} W_p^p(mu_t, nu_t), whether tau_R was reached).

    tau_R is the first grid time at which the joint support radius (the max
    of the two measures' support radii) exceeds ``radius``; exceedance at
    time zero makes the supremum empty, reported as 0.
    """
    worst = 0.0
    for t in range(path_a.n_times):
        mu_t = path_a.measure_at(t)
        nu_t = path_b.measure_at(t)
        hit = max(support_radius(mu_t), support_radius(nu_t)) > radius
        if hit and t == 0:
            return 0.0, True
        worst = max(worst, wasserstein(mu_t, nu_t, p) ** p)
        if hit:
            return worst, True
    return worst, False


def comparison_seed(
    k: KernelSet,
    init_a: EmpiricalMeasure,
    inits_b: Sequence[EmpiricalMeasure],
    cfg: SimConfig,
    radius: float,
    p: float = 2.0,
) -> list[tuple[float, bool]]:
    """Stopped sup costs of ``init_a`` against each of ``inits_b`` for one seed.

    All transport-form solutions share the common noise of
    ``cfg.master_seed``; the path of ``init_a`` is simulated once.
    """
    noise = NoisePath(cfg.master_seed, cfg.dt, cfg.steps, k.dim)
    path_a = evolve_transport(k, init_a, cfg, noise=noise)
    return [
        _stopped_sup_cost(path_a, evolve_transport(k, init_b, cfg, noise=noise), radius, p)
        for init_b in inits_b
    ]


def comparison_summary(
    initial_cost: float,
    per_seed: Sequence[tuple[float, bool]],
    radius: float,
    p: float = 2.0,
) -> dict:
    """Monte-Carlo estimate of E[sup_{t <= tau_R} W_p^p] from per-seed costs.

    ``initial_cost`` is W_p^p of the two initial measures; the headline
    number is the ratio of the estimate to it.
    """
    sups = np.array([cost for cost, _ in per_seed])
    n_seeds = len(per_seed)
    estimate = float(np.mean(sups))
    stderr = float(np.std(sups, ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else 0.0
    degenerate = initial_cost == 0.0
    ratio = 0.0 if degenerate else estimate / initial_cost
    return {
        "initial_cost": float(initial_cost),
        "estimate": estimate,
        "stderr": stderr,
        "ratio": float(ratio),
        "degenerate_initial_distance": degenerate,
        "stopped_runs": int(sum(hit for _, hit in per_seed)),
        "n_seeds": n_seeds,
        "p": float(p),
        "radius": float(radius),
    }
