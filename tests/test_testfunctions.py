import numpy as np
import pytest

from meanflock.kernels import Truncation
from meanflock.testfunctions import bump, quintic

from helpers import (
    chi_ratio_table,
    constant,
    coordinate,
    fd_gradient,
    fd_jacobian,
    gaussian,
    rel_close,
    shifted,
)


@pytest.mark.parametrize(
    "tf,dim",
    [
        (shifted(bump(1.5), [0.5, -0.5]), 2),
        (bump(2.0), 3),
        (shifted(bump(1.0, start=1), [0.0, 0.25]), 2),
        (shifted(bump(1.2, start=2), [0.0, 0.0, 0.0, 0.5]), 4),
        (gaussian([1.0, 0.0], 0.8), 2),
        (coordinate(1, 3), 3),
    ],
    ids=["bump2", "bump3", "vbump1", "vbump2", "gaussian", "coord"],
)
def test_derivatives_match_finite_differences(tf, dim):
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        x = rng.uniform(-2.0, 2.0, size=dim)
        g = tf.grad(x)
        if np.linalg.norm(g) < 1e-7:
            continue  # flat plateau or outside support: FD ratio meaningless
        assert rel_close(g, fd_gradient(tf.eval, x), 2e-4, floor=1e-6)
        assert rel_close(tf.hess(x), fd_jacobian(tf.grad, x), 2e-4, floor=1e-5)
        checked += 1
    assert checked >= 10


def test_quintic_ends_and_derivatives():
    # P(0) = 1 and P(1) = 0, with P' and P'' vanishing at both ends
    ends = quintic(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(ends, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    # P' and P'' against central differences of P and P' on (0, 1)
    u, h = np.linspace(0.01, 0.99, 99), 1e-6
    (val, d1, d2), (lo, dlo, _), (hi, dhi, _) = quintic(u), quintic(u - h), quintic(u + h)
    assert np.all(np.diff(val) < 0) and np.all((val > 0) & (val < 1))
    np.testing.assert_allclose(d1, (hi - lo) / (2 * h), rtol=0, atol=1e-8)
    np.testing.assert_allclose(d2, (dhi - dlo) / (2 * h), rtol=0, atol=1e-7)


def test_truncation_and_bump_share_the_quintic():
    rng = np.random.default_rng(5)
    radius, margin = 1.25, 0.75
    s = radius + margin * rng.uniform(0.001, 0.999, size=200)
    chi, band, ratio = chi_ratio_table(Truncation(radius, margin), s)
    val, d1, _ = quintic((s - radius) / margin)
    assert np.array_equal(band, np.arange(s.size))
    assert chi.tobytes() == val.tobytes()
    assert ratio.tobytes() == (d1 / margin / s).tobytes()
    center, tf_radius = np.array([0.5, -0.25]), 1.5
    z = center + rng.uniform(-1.0, 1.0, size=(200, 2))
    diff = z - center
    u = (diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]) / (tf_radius * tf_radius)
    assert np.all(u < 1.0)
    got = bump(tf_radius).eval(diff)
    assert got.tobytes() == quintic(u)[0].tobytes()


def test_bump_support_and_range():
    tf = bump(1.0)
    assert tf.eval(np.zeros(2)) == 1.0
    assert tf.eval(np.array([1.5, 0.0])) == 0.0
    assert tf.eval(np.array([0.999, 0.0])) > 0.0
    vals = tf.eval(np.random.default_rng(0).normal(size=(100, 2)))
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # far off the support every derivative is exactly 0, with no overflow
    far = np.array([1e160, -1e160])
    assert tf.eval(far) == 0.0 and not tf.grad(far).any() and not tf.hess(far).any()


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_bump_needs_positive_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        bump(radius)
    with pytest.raises(ValueError, match="radius must be positive"):
        bump(radius, start=1)


def test_bump_c2_boundary():
    tf = bump(1.0)
    eps = 1e-7
    inside = tf.grad(np.array([1.0 - eps]))
    outside = tf.grad(np.array([1.0 + eps]))
    assert abs(inside[0] - outside[0]) < 1e-5
    hi = tf.hess(np.array([1.0 - eps]))
    ho = tf.hess(np.array([1.0 + eps]))
    assert abs(hi[0, 0] - ho[0, 0]) < 1e-4


def test_velocity_bump_ignores_positions():
    tf = bump(1.0, start=1)
    z1 = np.array([0.0, 0.3])
    z2 = np.array([100.0, 0.3])
    assert tf.eval(z1) == tf.eval(z2)
    assert tf.grad(z1)[0] == 0.0
    assert tf.hess(z1)[0, 0] == 0.0


def test_constant_function():
    tf = constant(2.5)
    x = np.random.default_rng(1).normal(size=(4, 3))
    np.testing.assert_array_equal(tf.eval(x), np.full(4, 2.5))
    np.testing.assert_array_equal(tf.grad(x), np.zeros((4, 3)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("batch", [(), (5,), (3, 4)], ids=["single", "batched", "batched2"])
def test_block_bump_is_the_bump_of_its_block(d, batch):
    # on z[..., d:] the bump of the block start = d is the d-dimensional bump
    # exactly; its gradient and Hessian are exactly 0 elsewhere. The block is
    # drawn off-centre, so some points lie outside the support
    full, block = bump(1.5, start=d), bump(1.5)
    z = np.random.default_rng(d).uniform(-1.5, 1.5, size=batch + (2 * d,))
    z[..., d:] -= 0.3
    v = z[..., d:]
    np.testing.assert_array_equal(full.eval(z), block.eval(v))
    grad, hess = full.grad(z), full.hess(z)
    assert grad.shape == z.shape and hess.shape == z.shape + (2 * d,)
    np.testing.assert_array_equal(grad[..., d:], block.grad(v))
    np.testing.assert_array_equal(hess[..., d:, d:], block.hess(v))
    np.testing.assert_array_equal(grad[..., :d], 0.0)
    np.testing.assert_array_equal(hess[..., :d, :], 0.0)
    np.testing.assert_array_equal(hess[..., :, :d], 0.0)
