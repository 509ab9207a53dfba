"""Independent oracles shared by the test modules.

Finite differences and exhaustive enumeration live here, away from the
package, so the analytic implementations they check can never leak in.
"""

import itertools

import numpy as np


def fd_jacobian(f, x, h=1e-5):
    """Central-difference Jacobian of a vector field at one point."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.zeros(f0.shape + x.shape)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        jac[..., j] = (np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2 * h)
    return jac


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function at one point."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def rel_close(a, b, rtol, floor=1e-8):
    """Relative closeness with an absolute floor for near-zero entries."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.all(np.abs(a - b) / scale <= rtol)


def chi_both_whole_table(radius, margin, s):
    """Truncation (chi, chi') with the quintic evaluated over the whole table.

    The formula ``Truncation.chi_both`` used before it restricted the quintic
    to the transition band; the band-only form must match it bit for bit.
    """
    u = (s - radius) / margin
    inside = (u > 0.0) & (u < 1.0)
    uc = np.where(inside, u, 0.0)
    core = uc * uc * uc * (10.0 + uc * (-15.0 + 6.0 * uc))
    chi = np.where(u >= 1.0, 0.0, np.where(inside, 1.0 - core, 1.0))
    one_m = 1.0 - uc
    cp = np.where(inside, (-30.0 / margin) * uc * uc * one_m * one_m, 0.0)
    return chi, cp


def brute_force_wasserstein_uniform(a, b, p):
    """Exact W_p between uniform measures by exhausting all assignments."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(
            np.linalg.norm(a - b[list(perm)], axis=1) ** p
        )
        best = min(best, cost)
    return best ** (1.0 / p)


def brute_force_path_wasserstein_uniform(a_states, b_states, p):
    """Exact path-space W_p (sup-norm ground metric) for uniform measures."""
    n = a_states.shape[1]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        dist = np.max(
            np.linalg.norm(a_states - b_states[:, list(perm), :], axis=2), axis=0
        )
        best = min(best, np.mean(dist**p))
    return best ** (1.0 / p)
