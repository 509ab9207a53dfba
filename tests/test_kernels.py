import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanflock.errors import DimensionMismatchError
from meanflock.kernels import (
    CuckerSmaleParams,
    KernelSet,
    Truncation,
    constant_drift_kernels,
    cucker_smale_kernels,
    diag_individual_kernels,
    eval_S2,
    eval_s1,
    field_drift_diffusion,
    linear_common_kernels,
    mean_field_B,
    mean_field_C,
    mean_field_S,
    zero_kernels,
)
from meanflock.transport import EmpiricalMeasure

from helpers import fd_jacobian, rel_close


def constant_phi_kernel(phi0):
    return cucker_smale_kernels(
        CuckerSmaleParams(half_dim=1, lam=1.0, gamma=0.0, phi_lam=phi0, phi_gamma=0.0)
    )


class TestEvalS1:
    def test_constant_phi_hand_value(self):
        # c((x,v);(y,w)) = (0, 2 (w - v)); s1 velocity part = phi0^2 (v1 - v2) / 2
        k = constant_phi_kernel(2.0)
        out = eval_s1(k, np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 5.0]))
        np.testing.assert_allclose(out, [0.0, 2.0], atol=1e-14)

    def test_constant_c_vanishes(self):
        from meanflock.kernels import constant_common_kernels

        k = constant_common_kernels(2, [0.3, -1.2])
        rng = np.random.default_rng(1)
        x, y, z = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(eval_s1(k, x, y, z), np.zeros(2))

    def test_linear_c(self):
        k = linear_common_kernels(1)
        out = eval_s1(k, np.array([3.0]), np.array([0.5]), np.array([-2.0]))
        np.testing.assert_allclose(out, [1.5])

    def test_paper_literal_doubles_single_sided_term(self):
        # for c(x, y) = x the second term vanishes, so the literal variant
        # is exactly twice the derived one
        k = linear_common_kernels(1)
        x, y, z = np.array([3.0]), np.array([1.0]), np.array([2.0])
        half = eval_s1(k, x, y, z, s1_convention="half_both")
        lit = eval_s1(k, x, y, z, s1_convention="paper_literal")
        np.testing.assert_allclose(lit, 2.0 * half)

    def test_unknown_convention(self):
        k = linear_common_kernels(1)
        with pytest.raises(ValueError, match="convention"):
            eval_s1(k, np.zeros(1), np.zeros(1), np.zeros(1), s1_convention="both")

    def test_dimension_error_names_argument(self):
        k = linear_common_kernels(2)
        with pytest.raises(DimensionMismatchError, match="'y'"):
            eval_s1(k, np.zeros(2), np.zeros(3), np.zeros(2))


class TestEvalS2:
    def test_constant_sigma(self):
        from meanflock.kernels import constant_individual_kernels

        k = constant_individual_kernels(3, 0.7)
        np.testing.assert_array_equal(eval_S2(k, np.ones(3)), np.zeros(3))

    def test_linear_sigma_1d(self):
        k = diag_individual_kernels(1)
        np.testing.assert_allclose(eval_S2(k, np.array([2.0])), [1.0])

    def test_diag_sigma_2d(self):
        k = diag_individual_kernels(2)
        np.testing.assert_allclose(eval_S2(k, np.array([3.0, 5.0])), [1.5, 2.5])


class TestMeanFields:
    def test_cs_alignment_field(self):
        k = cucker_smale_kernels(CuckerSmaleParams(half_dim=1, lam=1.0, gamma=0.0))
        mu = EmpiricalMeasure.uniform([[0.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            mean_field_B(k, mu, np.array([0.0, 0.0])), [0.0, 1.0]
        )

    def test_single_atom_is_exact(self):
        k = constant_drift_kernels(2, [0.5, -1.0])
        mu = EmpiricalMeasure.uniform([[4.0, 4.0]])
        np.testing.assert_array_equal(
            mean_field_B(k, mu, np.array([1.0, 1.0])), [0.5, -1.0]
        )

    def test_zero_drift(self):
        k = zero_kernels(2)
        mu = EmpiricalMeasure.uniform([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_array_equal(mean_field_B(k, mu, np.zeros(2)), np.zeros(2))

    def test_zero_noise_gives_zero_s(self):
        k = zero_kernels(2)
        mu = EmpiricalMeasure.uniform([[1.0, 2.0]])
        np.testing.assert_array_equal(mean_field_S(k, mu, np.zeros(2)), np.zeros(2))

    def test_single_atom_s1_collapses(self):
        k = constant_phi_kernel(1.5)
        z = np.array([0.3, -0.7])
        mu = EmpiricalMeasure.uniform([z])
        x = np.array([0.1, 0.9])
        np.testing.assert_allclose(
            mean_field_S(k, mu, x), eval_s1(k, x, z, z), atol=1e-15
        )

    def test_s1_double_sum_oracle(self):
        # S1[mu](x) must equal the plain average of s1 over all atom pairs
        k = constant_phi_kernel(0.8)
        atoms = np.array([[0.0, 0.0], [0.0, 2.0]])
        mu = EmpiricalMeasure.uniform(atoms)
        x = np.array([0.0, 1.0])
        acc = np.zeros(2)
        for y in atoms:
            for z in atoms:
                acc += eval_s1(k, x, y, z)
        acc /= 4.0
        np.testing.assert_allclose(mean_field_S(k, mu, x), acc, atol=1e-14)

    def test_mean_field_c_matches_direct_sum(self):
        k = constant_phi_kernel(0.8)
        atoms = np.random.default_rng(0).normal(size=(5, 2))
        w = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        mu = EmpiricalMeasure(atoms, w)
        x = np.array([0.2, -0.4])
        direct = sum(wi * k.c(x, yi) for wi, yi in zip(w, atoms))
        np.testing.assert_allclose(mean_field_C(k, mu, x), direct, atol=1e-15)

    def test_atom_duplication_invariance(self):
        k = cucker_smale_kernels(
            CuckerSmaleParams(half_dim=1, lam=1.3, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
        )
        rng = np.random.default_rng(3)
        atoms = rng.normal(size=(6, 2))
        w = rng.uniform(0.5, 1.0, size=6)
        w /= w.sum()
        mu = EmpiricalMeasure(atoms, w)
        dup = EmpiricalMeasure(
            np.repeat(atoms, 2, axis=0), np.repeat(w / 2.0, 2)
        )
        x = np.array([0.4, 0.1])
        for field in (mean_field_B, mean_field_C, mean_field_S):
            a = field(k, mu, x)
            b = field(k, dup, x)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_empty_measure_rejected(self):
        with pytest.raises(Exception):
            EmpiricalMeasure(np.zeros((0, 2)), np.zeros(0))


class TestCuckerSmaleBuilder:
    def test_psi_at_zero_is_lambda(self):
        p = CuckerSmaleParams(half_dim=1, lam=2.5, gamma=1.2)
        assert p.psi(np.array(0.0)) == 2.5

    def test_psi_half_at_unit_distance(self):
        p = CuckerSmaleParams(half_dim=1, lam=1.0, gamma=1.0)
        assert p.psi(np.array(1.0)) == 0.5

    def test_truncation_identity_then_zero(self):
        t = Truncation(radius=1.0, margin=1.0)
        np.testing.assert_array_equal(t.apply(np.array([0.7])), [0.7])
        np.testing.assert_array_equal(t.apply(np.array([-0.5])), [-0.5])
        np.testing.assert_array_equal(t.apply(np.array([2.0])), [0.0])
        np.testing.assert_array_equal(t.apply(np.array([5.0])), [0.0])

    def test_truncation_jacobian_matches_fd(self):
        t = Truncation(radius=1.0, margin=0.5)
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.uniform(-2.0, 2.0, size=2)
            if abs(np.linalg.norm(v) - 1.0) < 1e-3 or abs(np.linalg.norm(v) - 1.5) < 1e-3:
                continue  # kink-free everywhere, but FD degrades at band edges
            assert rel_close(t.jacobian(v), fd_jacobian(t.apply, v), 1e-4, floor=1e-6)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CuckerSmaleParams(half_dim=1, lam=0.0)
        with pytest.raises(ValueError):
            CuckerSmaleParams(half_dim=1, lam=1.0, gamma=-0.2)
        with pytest.raises(ValueError):
            Truncation(radius=0.0, margin=1.0)

    def test_bounded_c_tag_and_bound(self):
        p = CuckerSmaleParams(
            half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0,
            truncation=Truncation(2.0, 1.0),
        )
        k = cucker_smale_kernels(p)
        bound = p.phi_lam * (p.truncation.radius + p.truncation.margin)
        rng = np.random.default_rng(0)
        for _ in range(100):
            z1, z2 = rng.uniform(-10, 10, size=(2, 2))
            assert np.linalg.norm(k.c(z1, z2)) <= bound + 1e-12

    def test_fused_pair_matches_separate_closures(self):
        p = CuckerSmaleParams(
            half_dim=2, lam=1.0, gamma=1.0, phi_lam=0.6, phi_gamma=0.5,
            truncation=Truncation(1.5, 0.7),
        )
        k = cucker_smale_kernels(p)
        rng = np.random.default_rng(5)
        z1 = rng.normal(size=(3, 1, 4))
        z2 = rng.normal(size=(1, 4, 4))
        c_val, gx, gy = k.c_pair(z1, z2, grads=True)
        np.testing.assert_array_equal(c_val, k.c(z1, z2))
        np.testing.assert_array_equal(gx, k.grad_c_x(z1, z2))
        np.testing.assert_array_equal(gy, k.grad_c_y(z1, z2))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-5, 5), st.floats(-5, 5)
        ),
        min_size=2,
        max_size=8,
    )
)
def test_cs_interaction_antisymmetry(states):
    # sum_{i,j} psi(x_i - x_j)(v_j - v_i) cancels exactly for even psi
    z = np.asarray(states, dtype=float)
    p = CuckerSmaleParams(half_dim=1, lam=1.0, gamma=1.0)
    total = 0.0
    for i in range(len(z)):
        for j in range(len(z)):
            total += p.psi((z[i, 0] - z[j, 0]) ** 2) * (z[j, 1] - z[i, 1])
    assert abs(total) < 1e-10 * max(1.0, np.abs(z).sum())


def _registered_kernels():
    trunc = Truncation(radius=2.0, margin=1.0)
    return [
        cucker_smale_kernels(
            CuckerSmaleParams(half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
        ),
        cucker_smale_kernels(
            CuckerSmaleParams(
                half_dim=2, lam=0.8, gamma=0.6, phi_lam=0.4, phi_gamma=0.3,
                truncation=trunc,
            )
        ),
        linear_common_kernels(2, rate=0.7),
        diag_individual_kernels(3, rate=0.5),
    ]


@pytest.mark.parametrize("kernel", _registered_kernels(), ids=lambda k: k.name)
def test_jacobians_match_finite_differences(kernel):
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.uniform(-5, 5, size=kernel.dim)
        y = rng.uniform(-5, 5, size=kernel.dim)
        if kernel.c is not None:
            assert rel_close(
                kernel.grad_c_x(x, y), fd_jacobian(lambda u: kernel.c(u, y), x),
                1e-4, floor=1e-5,
            )
            assert rel_close(
                kernel.grad_c_y(x, y), fd_jacobian(lambda u: kernel.c(x, u), y),
                1e-4, floor=1e-5,
            )
        if kernel.sigma is not None:
            fd = fd_jacobian(lambda u: kernel.sigma(u).ravel(), x).reshape(
                kernel.dim, kernel.dim, kernel.dim
            )
            assert rel_close(kernel.grad_sigma(x), fd, 1e-4, floor=1e-5)


def test_field_drift_diffusion_matches_pointwise_ops():
    k = cucker_smale_kernels(
        CuckerSmaleParams(half_dim=1, lam=1.1, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
    )
    rng = np.random.default_rng(9)
    atoms = rng.normal(size=(6, 2))
    w = np.full(6, 1.0 / 6)
    mu = EmpiricalMeasure(atoms, w)
    queries = rng.normal(size=(4, 2))
    drift, common = field_drift_diffusion(k, atoms, w, queries)
    for i, q in enumerate(queries):
        expected = mean_field_B(k, mu, q) + mean_field_S(k, mu, q)
        np.testing.assert_allclose(drift[i], expected, atol=1e-13)
        np.testing.assert_allclose(common[i], mean_field_C(k, mu, q), atol=1e-14)
