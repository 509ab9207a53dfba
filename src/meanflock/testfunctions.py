"""C^2 test functions with analytic gradients and Hessians.

These pair smooth observables with the derivative data the weak-form
generator needs. The compactly supported bumps use the quintic profile
P(u) = 1 - u^3 (10 - 15 u + 6 u^2), which has two vanishing derivatives at
both ends of [0, 1] and therefore gives C^2 regularity after composition
with the squared radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import check_tf_radius


@dataclass(frozen=True)
class TestFunction:
    """Scalar observable with vectorized value, gradient and Hessian."""

    eval: Callable
    grad: Callable
    hess: Callable


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


def bump(center, radius: float, dim: int | None = None) -> TestFunction:
    """Compactly supported C^2 bump: psi(x) = P(|x - c|^2 / R^2)."""
    check_tf_radius(radius)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if dim is not None and center.size == 1 and dim > 1:
        center = np.full(dim, center[0])
    d = center.size
    r_sq = radius * radius

    def _u(x):
        diff = x - center
        return np.einsum("...k,...k->...", diff, diff) / r_sq, diff

    def eval_(x):
        u, _ = _u(np.asarray(x, dtype=float))
        return _quintic_profile(u)[0]

    def grad(x):
        x = np.asarray(x, dtype=float)
        u, diff = _u(x)
        _, d1, _ = _quintic_profile(u)
        return d1[..., None] * (2.0 / r_sq) * diff

    def hess(x):
        x = np.asarray(x, dtype=float)
        u, diff = _u(x)
        _, d1, d2 = _quintic_profile(u)
        outer = diff[..., :, None] * diff[..., None, :]
        eye = np.eye(d)
        return (4.0 / r_sq**2) * d2[..., None, None] * outer + (
            2.0 / r_sq
        ) * d1[..., None, None] * eye

    return TestFunction(eval=eval_, grad=grad, hess=hess)


def velocity_bump(v_center, radius: float, half_dim: int) -> TestFunction:
    """Bump acting on the velocity block of a position-velocity state."""
    v_center = np.atleast_1d(np.asarray(v_center, dtype=float))
    if v_center.size == 1 and half_dim > 1:
        v_center = np.full(half_dim, v_center[0])
    inner = bump(v_center, radius)
    d = half_dim

    def eval_(z):
        return inner.eval(np.asarray(z, dtype=float)[..., d:])

    def grad(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        out[..., d:] = inner.grad(z[..., d:])
        return out

    def hess(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape + (2 * d,))
        out[..., d:, d:] = inner.hess(z[..., d:])
        return out

    return TestFunction(eval=eval_, grad=grad, hess=hess)


@dataclass(frozen=True)
class CylinderFunction:
    """Bounded path functional phi(x) = f(x_k) at a fixed grid step k."""

    fn: TestFunction
    index: int

    def apply_path(self, path: np.ndarray) -> np.ndarray:
        """Evaluate on (..., times, d) trajectories at grid step ``index``."""
        return self.fn.eval(path[..., self.index, :])
