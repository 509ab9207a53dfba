"""C^2 test functions with analytic gradients and Hessians.

These pair smooth observables with the derivative data the weak-form
generator needs. ``bump`` is the one builder: a compactly supported bump in
the coordinate block z[..., start:], constant in the coordinates before it,
so a position-velocity state is tested on its velocities with ``start =
half_dim``. It uses the quintic profile P(u) = 1 - u^3 (10 - 15 u + 6 u^2),
which has two vanishing derivatives at both ends of [0, 1] and therefore
gives C^2 regularity after composition with the squared radius. A bounded
functional of a path at a fixed time is a bump evaluated on the state at one
grid step; this module builds no path functionals.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import check_tf_radius


class TestFunction:
    """Scalar observable with vectorized value, gradient and Hessian."""

    __slots__ = ("eval", "grad", "hess")

    def __init__(self, eval: Callable, grad: Callable, hess: Callable):
        self.eval, self.grad, self.hess = eval, grad, hess


def _quintic_profile(u: np.ndarray):
    """P, P', P'' of the decreasing quintic profile on u in [0, 1]."""
    uc = np.clip(u, 0.0, 1.0)
    val = 1.0 - uc**3 * (10.0 - 15.0 * uc + 6.0 * uc**2)
    d1 = -30.0 * uc**2 * (1.0 - uc) ** 2
    d2 = -60.0 * uc * (1.0 - uc) * (1.0 - 2.0 * uc)
    outside = (u <= 0.0) | (u >= 1.0)
    d1 = np.where(outside, 0.0, d1)
    d2 = np.where(outside, 0.0, d2)
    val = np.where(u >= 1.0, 0.0, val)
    val = np.where(u <= 0.0, 1.0, val)
    return val, d1, d2


def bump(center, radius: float, dim: int | None = None, start: int = 0) -> TestFunction:
    """Compactly supported C^2 bump: psi(z) = P(|z[start:] - c|^2 / R^2).

    psi is constant in z[..., :start], where its gradient and Hessian are
    exactly 0. A scalar center repeats over the dim - start coordinates of
    the block.
    """
    check_tf_radius(radius)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if dim is not None and center.size == 1 and dim - start > 1:
        center = np.full(dim - start, center[0])
    r_sq = radius * radius
    eye = np.eye(center.size)

    def _u(z):
        diff = z[..., start:] - center
        return np.einsum("...k,...k->...", diff, diff) / r_sq, diff

    def eval_(z):
        u, _ = _u(np.asarray(z, dtype=float))
        return _quintic_profile(u)[0]

    def grad(z):
        z = np.asarray(z, dtype=float)
        u, diff = _u(z)
        _, d1, _ = _quintic_profile(u)
        out = np.zeros(z.shape)
        out[..., start:] = d1[..., None] * (2.0 / r_sq) * diff
        return out

    def hess(z):
        z = np.asarray(z, dtype=float)
        u, diff = _u(z)
        _, d1, d2 = _quintic_profile(u)
        outer = diff[..., :, None] * diff[..., None, :]
        out = np.zeros(z.shape + z.shape[-1:])
        out[..., start:, start:] = (4.0 / r_sq**2) * d2[..., None, None] * outer + (
            2.0 / r_sq
        ) * d1[..., None, None] * eye
        return out

    return TestFunction(eval=eval_, grad=grad, hess=hess)
