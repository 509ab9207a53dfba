import numpy as np
import pytest

from meanflock.testfunctions import CylinderFunction, bump, velocity_bump

from helpers import constant, coordinate, fd_gradient, fd_jacobian, gaussian, rel_close


@pytest.mark.parametrize(
    "tf,dim",
    [
        (bump([0.5, -0.5], 1.5), 2),
        (bump(0.0, 2.0, dim=3), 3),
        (velocity_bump(0.25, 1.0, 1), 2),
        (velocity_bump([0.0, 0.5], 1.2, 2), 4),
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


def test_bump_support_and_range():
    tf = bump(0.0, 1.0, dim=2)
    assert tf.eval(np.zeros(2)) == 1.0
    assert tf.eval(np.array([1.5, 0.0])) == 0.0
    assert tf.eval(np.array([0.999, 0.0])) > 0.0
    vals = tf.eval(np.random.default_rng(0).normal(size=(100, 2)))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_bump_needs_positive_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        bump(0.0, radius)
    with pytest.raises(ValueError, match="radius must be positive"):
        velocity_bump(0.0, radius, 1)


def test_bump_c2_boundary():
    tf = bump(0.0, 1.0, dim=1)
    eps = 1e-7
    inside = tf.grad(np.array([1.0 - eps]))
    outside = tf.grad(np.array([1.0 + eps]))
    assert abs(inside[0] - outside[0]) < 1e-5
    hi = tf.hess(np.array([1.0 - eps]))
    ho = tf.hess(np.array([1.0 + eps]))
    assert abs(hi[0, 0] - ho[0, 0]) < 1e-4


def test_velocity_bump_ignores_positions():
    tf = velocity_bump(0.0, 1.0, 1)
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


def test_cylinder_on_grid():
    tf = coordinate(0, 1)
    cyl = CylinderFunction(tf, 5)
    times = np.linspace(0.0, 1.0, 11)
    path = times[:, None] ** 2
    assert cyl.apply_path(path) == pytest.approx(0.25)
    # (..., times, d) batches of paths take the same step
    paths = np.stack([path, 2.0 * path])
    np.testing.assert_allclose(cyl.apply_path(paths), [0.25, 0.5])


def test_cylinder_off_grid_rejected():
    # a step past the last grid step of the path
    cyl = CylinderFunction(coordinate(0, 1), 11)
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(IndexError):
        cyl.apply_path(times[:, None])
