import numpy as np
import pytest

import meanflock.characteristics as characteristics
import meanflock.dynamics as dynamics
from meanflock.characteristics import solve_characteristics, transport_residual
from meanflock.dynamics import SimConfig, simulate
from meanflock.errors import BlowUpError
from meanflock.kernels import (
    CuckerSmaleParams,
    Truncation,
    affine_kernels,
    cucker_smale_kernels,
)


def noisy_cs():
    return cucker_smale_kernels(
        CuckerSmaleParams(half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
    )


def make_run(kernel, n=4, seed=11, t_final=0.5, dt=0.01, scheme="euler_ito"):
    rng = np.random.default_rng(seed)
    init = rng.normal(size=(n, kernel.dim))
    cfg = SimConfig(t_final=t_final, dt=dt, master_seed=seed, scheme=scheme)
    return simulate(kernel, init, cfg)


class TestSolveCharacteristics:
    def test_reproduces_own_particle_exactly(self):
        run = make_run(noisy_cs(), n=1)
        path = solve_characteristics(run, run.states[0, 0])
        np.testing.assert_array_equal(path[:, 0, :], run.states[:, 0, :])

    def test_zero_kernel_constant_path(self):
        run = make_run(affine_kernels(2), n=3)
        x0 = np.array([0.25, -1.0])
        path = solve_characteristics(run, x0)
        np.testing.assert_array_equal(path, np.broadcast_to(x0, path.shape))

    def test_constant_drift_affine_path(self):
        k = affine_kernels(2, b0=[2.0, -1.0])
        run = make_run(k, n=2, t_final=1.0, dt=0.25)
        x0 = np.zeros(2)
        path = solve_characteristics(run, x0)
        expected = np.outer(run.times, [2.0, -1.0])
        np.testing.assert_allclose(path[:, 0, :], expected, atol=1e-12)

    def test_requires_common_noise_only(self):
        k = affine_kernels(1, s0=0.3)
        run = make_run(k, n=2)
        with pytest.raises(ValueError, match="common"):
            solve_characteristics(run, run.states[0])

    def test_replay_blowup_carries_step_seed_and_partial(self):
        # the run stays in the norm bound; a start near it leaves it: the
        # replay moves by 0.1 a step, 4.55 -> 4.95 after four steps, then 5.05
        k = affine_kernels(1, b0=[1.0])
        cfg = SimConfig(t_final=1.0, dt=0.1, master_seed=7, blowup_norm=5.0)
        run = simulate(k, np.zeros((2, 1)), cfg)
        with pytest.raises(BlowUpError) as err:
            solve_characteristics(run, [4.55])
        assert err.value.step_index == 4
        assert err.value.seed == 7 and "seed=7" in str(err.value)
        partial = err.value.partial
        assert partial.shape == (err.value.step_index + 1, 1, 1)
        np.testing.assert_allclose(partial[:, 0, 0], 4.55 + 0.1 * np.arange(5), rtol=1e-14)

    def test_requires_euler_ito_run(self):
        # the replay steps with the Euler-Ito update: a Heun run cannot reproduce
        run = make_run(noisy_cs(), n=4, scheme="heun_stratonovich")
        with pytest.raises(ValueError, match="euler_ito"):
            solve_characteristics(run, run.states[0])


class TestPushforward:
    """The initial atoms pushed through the run's own frozen field."""

    def test_transport_identity(self):
        run = make_run(noisy_cs(), n=5)
        replay = solve_characteristics(run, run.states[0])
        np.testing.assert_array_equal(replay, run.states)

    def test_replay_steps_with_the_stepper_update(self, monkeypatch):
        # the identity above is exact because the run and its replay share one
        # loop; the replay hands it the run's recorded states as frozen measures
        assert characteristics._integrate is dynamics._integrate
        run = make_run(noisy_cs(), n=3)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["frozen"])
            return dynamics._integrate(*args, **kwargs)

        monkeypatch.setattr(characteristics, "_integrate", spy)
        solve_characteristics(run, run.states[0])
        assert len(seen) == 1 and seen[0] is run.states

    def test_single_atom(self):
        # each start moves alone in the frozen field: a batch is its rows
        run = make_run(noisy_cs(), n=3)
        starts = np.random.default_rng(0).normal(size=(4, 2))
        batch = solve_characteristics(run, starts)
        for j, x0 in enumerate(starts):
            np.testing.assert_allclose(
                batch[:, j], solve_characteristics(run, x0)[:, 0], rtol=1e-13, atol=1e-15
            )


class TestTransportResidual:
    def test_common_noise_run_residual_zero(self):
        # the replay repeats the stepper arithmetic, so the identity is exact,
        # also at benchmark size (4 steps of N = 256)
        truncated = cucker_smale_kernels(
            CuckerSmaleParams(
                half_dim=2, lam=0.8, gamma=0.5, phi_lam=0.4, phi_gamma=0.3,
                truncation=Truncation(radius=1.0, margin=1.0),
            )
        )
        cases = [(noisy_cs(), 2, 0.5), (noisy_cs(), 5, 0.5)]
        cases += [(noisy_cs(), 256, 0.04), (truncated, 256, 0.04)]
        for kernel, n, t_final in cases:
            run = make_run(kernel, n=n, t_final=t_final)
            assert transport_residual(run) == 0.0

    def test_zero_kernel_residual_exactly_zero(self):
        run = make_run(affine_kernels(2), n=3)
        assert transport_residual(run) == 0.0

    def test_individual_noise_rejected(self):
        run = make_run(affine_kernels(1, s0=0.5), n=2)
        with pytest.raises(ValueError, match="common"):
            transport_residual(run)

    def test_nudged_replay_residual_positive(self, monkeypatch):
        run = make_run(noisy_cs(), n=4)
        exact = characteristics.solve_characteristics

        def nudged(run, x0):
            states = exact(run, x0)
            states[-1, 2, 0] += 1e-9
            return states

        monkeypatch.setattr(characteristics, "solve_characteristics", nudged)
        # one of four atoms off by 1e-9: sqrt(1/4) * 1e-9
        assert transport_residual(run) == pytest.approx(0.5e-9, rel=1e-6)

    def test_no_support_cap(self):
        # 2 x 2100 atoms exceed the transport solvers' support cap of 4096
        run = make_run(affine_kernels(2, c0=[0.3, -0.2]), n=2100, t_final=0.02)
        assert run.config.steps == 2
        assert transport_residual(run) == 0.0


class TestEvolveTransport:
    def test_uniform_weights_match_simulate(self):
        # every particle weighs 1/N, built as np.full(N, 1 / N): the record
        # holds the weights the run's field took, and stepping under them
        # repeats the run bit for bit
        kernel = noisy_cs()
        atoms = np.random.default_rng(8).normal(size=(3, 2))
        cfg = SimConfig(t_final=0.3, dt=0.01, master_seed=5)
        run = simulate(kernel, atoms, cfg)
        assert run.weights.tobytes() == np.full(3, 1.0 / 3.0).tobytes()
        path = dynamics._integrate(kernel, atoms, run.weights, cfg, run.noise)
        np.testing.assert_array_equal(path, run.states)

    def test_weighted_atoms_follow_weighted_field(self):
        # two co-located atoms with weights (2/3, 1/3) must move like a
        # duplicated uniform triple under the same common noise
        kernel = noisy_cs()
        base = np.array([[0.0, 1.0], [1.0, -1.0]])
        tripled = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, -1.0]])
        cfg = SimConfig(t_final=0.2, dt=0.01, master_seed=6)
        uniform_path = simulate(kernel, tripled, cfg)
        weighted_path = dynamics._integrate(
            kernel, base, np.array([2.0 / 3.0, 1.0 / 3.0]), cfg, uniform_path.noise
        )
        np.testing.assert_allclose(
            uniform_path.states[:, [0, 2], :], weighted_path, atol=1e-12
        )


class TestFlowRegularity:
    def test_flow_continuity_ratio_bounded(self):
        # E[sup_t |X(x) - X(x')|^2] / |x - x'|^2 stable across offsets
        kernel = noisy_cs()
        ratios = []
        for offset in (1e-1, 1e-2, 1e-3):
            acc = 0.0
            for seed in range(4):
                run = make_run(kernel, n=6, seed=seed)
                x = np.array([0.5, 0.5])
                starts = np.stack([x, x + [offset, 0.0]])
                paths = solve_characteristics(run, starts)
                gap = np.max(np.sum((paths[:, 0] - paths[:, 1]) ** 2, axis=-1))
                acc += gap / offset**2
            ratios.append(acc / 4)
        ratios = np.array(ratios)
        assert np.all(ratios < 20.0)
        assert ratios.max() / ratios.min() < 5.0

    def test_support_growth_bounded(self):
        # E[sup_{x in K} sup_t |X_t(x)|^4] finite and dt-stable (bounded c)
        kernel = cucker_smale_kernels(
            CuckerSmaleParams(
                half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0,
            )
        )
        grid = np.stack(
            np.meshgrid(np.linspace(-1, 1, 3), np.linspace(-1, 1, 3)), axis=-1
        ).reshape(-1, 2)
        sups = []
        for dt in (0.02, 0.01):
            acc = 0.0
            for seed in range(4):
                run = make_run(kernel, n=6, seed=seed, dt=dt)
                paths = solve_characteristics(run, grid)
                acc += np.max(np.sum(paths**2, axis=-1) ** 2)
            sups.append(acc / 4)
        assert all(np.isfinite(s) for s in sups)
        assert 0.25 <= sups[0] / sups[1] <= 4.0
