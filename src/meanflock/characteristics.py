"""Frozen-field stochastic characteristics and transport-form checks.

A simulated run (``dynamics.TrajectoryRecord``) carries its measure path,
its kernel, its time grid and the noise that drove it. The characteristic
of a start point x solves the same Euler recursion as the particle system,
under the run's common-noise increments, but with the mean-field
coefficients evaluated against the run's recorded measures instead of the
evolving ensemble. The solver advances with the particle stepper's own
``dynamics._euler_step``, so pushing the initial measure through its own
frozen field reproduces the recorded run bit for bit: the discrete
transport identity holds by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dynamics import SimConfig, TrajectoryRecord, _euler_step, simulate
from .errors import BlowUpError
from .kernels import KernelSet
from .transport import EmpiricalMeasure, MeasurePath, support_radius, wasserstein


def solve_characteristics(run: TrajectoryRecord, x0) -> np.ndarray:
    """Euler-Ito characteristics in the frozen field of ``run``.

    Each step is the particle stepper's ``_euler_step`` with the run's
    measure at that step as atoms, the current points as queries and the
    run's common-noise increment. Returns the full path array of shape
    (steps + 1, m, d) for a batch of m starts (a single (d,) start is
    promoted to m = 1).
    """
    k, cfg = run.kernel, run.config
    if k.sigma is not None:
        raise ValueError("characteristics are defined for common noise only (sigma = 0)")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[None, :]
    if x0.shape[-1] != k.dim:
        raise ValueError(f"start points have dimension {x0.shape[-1]}, kernel wants {k.dim}")
    steps = run.times.size - 1
    dbeta = run.noise.common_increments[:steps]
    out = np.empty((steps + 1,) + x0.shape)
    out[0] = x0
    current = x0
    for step in range(steps):
        current = _euler_step(
            k, run.states[step], run.weights, current, cfg.dt, dbeta[step],
            None, cfg.s1_convention,
        )
        max_norm = float(np.max(np.linalg.norm(current, axis=-1)))
        if not np.isfinite(max_norm) or max_norm > cfg.blowup_norm:
            raise BlowUpError(step, max_norm, seed=cfg.master_seed)
        out[step + 1] = current
    return out


def pushforward(run: TrajectoryRecord, init: EmpiricalMeasure) -> MeasurePath:
    """Push an initial measure through the frozen characteristic flow of ``run``."""
    return MeasurePath(run.times, solve_characteristics(run, init.atoms), init.weights)


def transport_residual(run: TrajectoryRecord) -> float:
    """sup over grid times t of sqrt(sum_j w_j |x_j(t) - x~_j(t)|^2).

    x_j is atom j of the run and x~_j its pushforward through the run's own
    frozen field, matched by particle label. This coupling bounds
    W2(mu_t, mu~_t) from above and needs no transport solve, so it has no
    support cap. It is exactly 0 when the replay reproduces the run bit for
    bit, which it does for every common-noise-only run, because the
    characteristics recursion reuses the stepper arithmetic.
    """
    replay = pushforward(run, run.measure_at(0))
    gap = np.sum((run.states - replay.states) ** 2, axis=-1) @ run.weights
    return float(np.sqrt(np.max(gap)))


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

    Each initial measure evolves in the transport form: its atoms follow the
    field of their own weighted empirical measure, all under the common
    noise of ``cfg.master_seed``. The path of ``init_a`` is simulated once.
    """
    if k.sigma is not None:
        raise ValueError("transport form needs sigma = 0")
    path_a, *paths_b = [
        simulate(k, init.atoms, cfg, weights=init.weights) for init in (init_a, *inits_b)
    ]
    return [_stopped_sup_cost(path_a, path_b, radius, p) for path_b in paths_b]


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
