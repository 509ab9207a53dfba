"""C^2 test functions with analytic gradients and Hessians.

These pair smooth observables with the derivative data the weak-form
generator needs. ``bump`` is the one builder: a compactly supported bump in
the coordinate block z[..., start:], constant in the coordinates before it,
so a position-velocity state is tested on its velocities with ``start =
half_dim``. Its profile is ``quintic``, P(u) = 1 - u^3 (10 - 15 u + 6 u^2),
which has two vanishing derivatives at both ends of [0, 1] and therefore
gives C^2 regularity after composition with the squared radius; the
velocity truncation's chi (``kernels.Truncation``) is the same quintic. A
bounded functional of a path at a fixed time is a bump evaluated on the
state at one grid step; this module builds no path functionals. Every bump
is centred at 0, with the experiments' radius ``harness.TF_RADIUS``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class TestFunction:
    """Scalar observable with vectorized value, gradient and Hessian."""

    __slots__ = ("eval", "grad", "hess")

    def __init__(self, eval: Callable, grad: Callable, hess: Callable):
        self.eval, self.grad, self.hess = eval, grad, hess


def quintic(u: np.ndarray):
    """P, P' and P'' of P(u) = 1 - u^3 (10 - 15 u + 6 u^2) at u in (0, 1).

    P falls from 1 to 0, and P' and P'' vanish at both ends, so callers
    continue it by 1 below the band and 0 above it and stay C^2; they
    evaluate it on the band entries only.
    """
    one_m = 1.0 - u
    val = 1.0 - u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    return val, -30.0 * u * u * one_m * one_m, -60.0 * u * one_m * (1.0 - 2.0 * u)


def bump(radius: float, start: int = 0) -> TestFunction:
    """Compactly supported C^2 bump at 0: psi(z) = P(|z[start:]|^2 / R^2).

    psi is constant in z[..., :start], where its gradient and Hessian are
    exactly 0.
    """
    if not radius > 0:
        raise ValueError("test-function radius must be positive")
    r_sq = radius * radius

    def profile(z):
        """(P, P', P'') at u = |z[start:]|^2 / R^2, the block z[start:] and the band 0 < u < 1."""
        block = z[..., start:]
        u = np.asarray(np.einsum("...k,...k->...", block, block) / r_sq)
        band = (u > 0.0) & (u < 1.0)
        out = np.where(u >= 1.0, 0.0, 1.0), np.zeros(u.shape), np.zeros(u.shape)
        for table, part in zip(out, quintic(u[band])):
            table[band] = part
        return out, block, band

    def eval_(z):
        return profile(np.asarray(z, dtype=float))[0][0]

    def grad(z):
        z = np.asarray(z, dtype=float)
        (_, d1, _), block, _ = profile(z)
        out = np.zeros(z.shape)
        out[..., start:] = d1[..., None] * (2.0 / r_sq) * block
        return out

    def hess(z):
        z = np.asarray(z, dtype=float)
        (_, d1, d2), block, band = profile(z)
        # off the band P' = P'' = 0, and the outer product there can overflow
        block, d1, d2 = block[band], d1[band][:, None, None], d2[band][:, None, None]
        out = np.zeros(z.shape + z.shape[-1:])
        out[..., start:, start:][band] = (4.0 / r_sq**2) * d2 * (
            block[:, :, None] * block[:, None, :]
        ) + (2.0 / r_sq) * d1 * np.eye(block.shape[-1])
        return out

    return TestFunction(eval=eval_, grad=grad, hess=hess)
