"""Frozen-field replay of a simulated run along its stochastic characteristics.

A simulated run (``dynamics.TrajectoryRecord``) carries its measure path,
kernel, time grid and noise. The characteristic of a start point x solves
the particle system's Euler recursion under the run's common-noise
increments, with the mean field of the run's recorded measures in place of
the evolving ensemble. The replay is the run's own loop,
``dynamics._integrate``, handed the recorded states as frozen measures, so
replaying the initial atoms reproduces the run bit for bit: the discrete
transport identity holds by construction. This module keeps only the
replay's rules and the residual that checks it.
"""

from __future__ import annotations

import numpy as np

from .dynamics import TrajectoryRecord, _integrate
from .transport import check_atoms


def solve_characteristics(run: TrajectoryRecord, x0) -> np.ndarray:
    """Euler-Ito characteristics in the frozen field of ``run``.

    Each step moves the current points in the field of the run's measure at
    that step, under the run's common-noise increment. Returns the full path
    array of shape (steps + 1, m, d) for m starts, checked as ``simulate``
    checks states (a single (d,) start is promoted to m = 1). The run must be
    a common-noise-only Euler-Ito run. A replay that leaves the run's norm bound raises
    ``BlowUpError`` with the run's seed and the replayed states so far.
    """
    k, cfg = run.kernel, run.config
    if k.sigma is not None:
        raise ValueError("characteristics are defined for common noise only (sigma = 0)")
    if cfg.scheme != "euler_ito":
        raise ValueError(f"characteristics replay euler_ito runs only, got scheme {cfg.scheme!r}")
    x0 = check_atoms(np.atleast_2d(x0), k.dim, "x0")
    return _integrate(k, x0, run.weights, cfg, run.noise, frozen=run.states)


def transport_residual(run: TrajectoryRecord) -> float:
    """sup over grid times t of sqrt(sum_j w_j |x_j(t) - x~_j(t)|^2).

    x_j is atom j of the run and x~_j the characteristic from its initial
    position in the run's own frozen field, matched by particle label. This
    coupling bounds W2(mu_t, mu~_t) from above and needs no transport solve,
    so it has no support cap. It is exactly 0 when the replay reproduces the
    run bit for bit, which it does for every common-noise-only run, because
    the replay runs the stepper's own loop.
    """
    replay = solve_characteristics(run, run.states[0])
    gap = np.sum((run.states - replay) ** 2, axis=-1) @ run.weights
    return float(np.sqrt(np.max(gap)))
