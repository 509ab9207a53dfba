"""Frozen-field replay of a simulated run along its stochastic characteristics.

A simulated run (``dynamics.TrajectoryRecord``) carries its measure path,
its kernel, its time grid and the noise that drove it. The characteristic
of a start point x solves the same Euler recursion as the particle system,
under the run's common-noise increments, but with the mean-field
coefficients evaluated against the run's recorded measures instead of the
evolving ensemble. The solver advances with the particle stepper's own
``dynamics._euler_step``, so replaying the run's initial atoms through its
own frozen field reproduces the recorded run bit for bit: the discrete
transport identity holds by construction.
"""

from __future__ import annotations

import numpy as np

from .dynamics import TrajectoryRecord, _euler_step
from .errors import BlowUpError


def solve_characteristics(run: TrajectoryRecord, x0) -> np.ndarray:
    """Euler-Ito characteristics in the frozen field of ``run``.

    Each step is the particle stepper's ``_euler_step`` with the run's
    measure at that step as atoms, the current points as queries and the
    run's common-noise increment. Returns the full path array of shape
    (steps + 1, m, d) for a batch of m starts (a single (d,) start is
    promoted to m = 1). The run must be a common-noise-only Euler-Ito run.
    """
    k, cfg = run.kernel, run.config
    if k.sigma is not None:
        raise ValueError("characteristics are defined for common noise only (sigma = 0)")
    if cfg.scheme != "euler_ito":
        raise ValueError(f"characteristics replay euler_ito runs only, got scheme {cfg.scheme!r}")
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


def transport_residual(run: TrajectoryRecord) -> float:
    """sup over grid times t of sqrt(sum_j w_j |x_j(t) - x~_j(t)|^2).

    x_j is atom j of the run and x~_j the characteristic from its initial
    position in the run's own frozen field, matched by particle label. This
    coupling bounds W2(mu_t, mu~_t) from above and needs no transport solve,
    so it has no support cap. It is exactly 0 when the replay reproduces the
    run bit for bit, which it does for every common-noise-only run, because
    the characteristics recursion reuses the stepper arithmetic.
    """
    replay = solve_characteristics(run, run.states[0])
    gap = np.sum((run.states - replay) ** 2, axis=-1) @ run.weights
    return float(np.sqrt(np.max(gap)))
