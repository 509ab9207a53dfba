import itertools

import numpy as np
import pytest

from meanflock.characteristics import solve_characteristics
from meanflock.config import SCHEMES
from meanflock.dynamics import NoisePath, SimConfig, _state_norms, simulate
from meanflock.errors import BlowUpError, DimensionMismatchError
from meanflock.harness import _write_trajectory_csvs
from meanflock.kernels import (
    CuckerSmaleParams,
    Truncation,
    affine_kernels,
    cucker_smale_kernels,
)

from helpers import S1_FACTORS, affine_without_y_derivative


def cs_kernel(**kw):
    return cucker_smale_kernels(CuckerSmaleParams(half_dim=1, **kw))


def one_step(k, states, dt, scheme="euler_ito"):
    return simulate(k, states, SimConfig(t_final=dt, dt=dt, scheme=scheme)).states[-1]


class TestNoisePath:
    def test_replay_determinism(self):
        a = NoisePath(123, 0.01, 50, 2)
        b = NoisePath(123, 0.01, 50, 2)
        np.testing.assert_array_equal(a.common_increments, b.common_increments)
        np.testing.assert_array_equal(a.individual(4), b.individual(4))

    def test_particle_identity_independent_of_others(self):
        # particle 5's increments must not depend on how many are drawn with it
        noise = NoisePath(7, 0.01, 20, 2)
        block_small = noise.individual(6)
        block_big = NoisePath(7, 0.01, 20, 2).individual(10)
        assert block_small.shape == (6, 20, 2) and block_big.shape == (10, 20, 2)
        np.testing.assert_array_equal(block_small[5], block_big[5])
        np.testing.assert_array_equal(block_small, block_big[:6])

    def test_distinct_particles_distinct_noise(self):
        noise = NoisePath(7, 0.01, 20, 2)
        first = noise.individual(2)[:, 0]
        assert not np.array_equal(first[0], first[1])

    def test_common_increment_statistics(self):
        steps = 20_000
        dt = 0.01
        noise = NoisePath(99, dt, steps, 1)
        mean = noise.common_increments.mean()
        assert abs(mean) <= 4.0 * np.sqrt(dt / steps)
        var = noise.common_increments.var()
        assert var == pytest.approx(dt, rel=0.05)

    def test_individual_increment_statistics(self):
        # mean 0 and variance dt over the block, and two particles uncorrelated
        n, steps, dim, dt = 64, 2_000, 2, 0.01
        block = NoisePath(99, dt, steps, dim).individual(n)
        assert abs(block.mean()) <= 4.0 * np.sqrt(dt / block.size)
        assert block.var() == pytest.approx(dt, rel=0.05)
        corr = np.corrcoef(block[0].ravel(), block[1].ravel())[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(steps * dim)

    def test_invalid_args(self):
        for dt in (-0.1, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite dt > 0"):
                NoisePath(0, dt, 10, 1)
        with pytest.raises(ValueError):
            NoisePath(0, 0.1, -1, 1)


class TestSimConfig:
    def test_negative_horizon(self):
        with pytest.raises(ValueError, match="t_final must be >= 0"):
            SimConfig(t_final=-1.0, dt=0.1)

    def test_grid_must_divide(self):
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(t_final=1.0, dt=0.3)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            SimConfig(t_final=1.0, dt=0.1, scheme="milstein")

    def test_unknown_convention(self):
        # checked when the config is built, under either scheme, not at a field call
        for scheme in SCHEMES:
            with pytest.raises(ValueError, match="convention"):
                SimConfig(1.0, 0.1, scheme=scheme, s1_convention="both")

    def test_s1_factor_per_convention(self):
        for convention, factor in S1_FACTORS.items():
            assert SimConfig(1.0, 0.1, s1_convention=convention).s1_factor == factor


class TestSteps:
    def test_zero_kernel_identity(self):
        k = affine_kernels(2)
        states = np.array([[1.0, -2.0], [0.5, 0.0]])
        np.testing.assert_array_equal(one_step(k, states, 0.1), states)
        np.testing.assert_array_equal(one_step(k, states, 0.1, "heun_stratonovich"), states)

    def test_constant_drift_translation(self):
        k = affine_kernels(2, b0=[1.0, -3.0])
        out = one_step(k, np.zeros((3, 2)), 0.1)
        np.testing.assert_allclose(out, np.tile([0.1, -0.3], (3, 1)))

    def test_cs_hand_computed_step(self):
        # one Euler step with dt = 1/2 moves the velocities toward the mean,
        # self-interaction included in the 1/N sum
        k = cs_kernel(lam=1.0, gamma=0.0)
        out = one_step(k, [[0.0, 0.0], [0.0, 2.0]], 0.5)
        np.testing.assert_allclose(out, [[0.0, 0.5], [1.0, 1.5]])

    def test_heun_trapezoidal_ode(self):
        # one coefficient f(x) = x against its increment h: Heun's step is the
        # trapezoid x + h (f(x) + f(p)) / 2 at the Euler predictor p = x + h f(x)
        x, dt = 1.0, 0.1
        noise = NoisePath(0, dt, 1, 1)
        cases = [
            (affine_kernels(1, bx=1.0), dt),
            (affine_kernels(1, cx=1.0), noise.common_increments[0]),
            (affine_kernels(1, sx=1.0), noise.individual(1)[0, 0, 0]),
        ]
        for kernel, h in cases:
            want = x + 0.5 * h * (x + (x + h * x))
            out = one_step(kernel, [[x]], dt, "heun_stratonovich")
            np.testing.assert_allclose(out, [[want]], rtol=1e-15)


def replay(k, starts, cfg):
    """The characteristics of ``starts`` in the frozen field of a two-particle run."""
    return solve_characteristics(simulate(k, np.ones((2, k.dim)), cfg), starts)


# id -> (states, error, message) of start states that simulate rejects
REJECTED_STARTS = {
    "empty": (np.zeros((0, 2)), ValueError, "m >= 1"),
    "flat": (np.zeros(3), ValueError, "m >= 1"),
    "nan": (np.array([[0.0, np.nan]]), ValueError, "finite"),
    "kernel-dim": (np.zeros((2, 3)), DimensionMismatchError, "dimension"),
    "3d": (np.zeros((2, 3, 2)), ValueError, "m >= 1"),
}
# the replay promotes a single (d,) start to m = 1, so its flat start of the
# wrong length is a dimension error
REPLAY_REJECTED = {**REJECTED_STARTS, "flat": (np.zeros(3), DimensionMismatchError, "dimension")}


class TestInitialStates:
    @pytest.mark.parametrize(
        "entry, states, error, message",
        [pytest.param(simulate, *case, id=name) for name, case in REJECTED_STARTS.items()]
        + [pytest.param(replay, *case, id=f"replay-{name}")
           for name, case in REPLAY_REJECTED.items()],
    )
    def test_rejected(self, entry, states, error, message):
        # simulate and the characteristics replay share one check, which runs
        # before any step
        with pytest.raises(error, match=message):
            entry(cs_kernel(phi_lam=0.5), states, SimConfig(t_final=0.1, dt=0.1))

    def test_size_and_dimension_read_from_states(self):
        run = simulate(affine_kernels(3), np.ones((5, 3)), SimConfig(t_final=0.2, dt=0.1))
        assert (run.n_atoms, run.dim) == (5, 3)
        np.testing.assert_array_equal(run.times, [0.0, 0.1, 0.2])
        np.testing.assert_array_equal(run.states, np.ones((3, 5, 3)))


class TestSimulate:
    def test_single_particle_free_flight(self):
        # self-interaction alone cannot change the velocity
        k = cs_kernel(lam=1.0, gamma=1.0)
        init = np.array([[0.0, 0.75]])
        cfg = SimConfig(t_final=1.0, dt=0.05)
        run = simulate(k, init, cfg)
        np.testing.assert_allclose(run.states[:, 0, 1], 0.75, atol=1e-14)
        np.testing.assert_allclose(run.states[:, 0, 0], 0.75 * run.times, atol=1e-12)

    def test_zero_steps(self):
        k = affine_kernels(1)
        init = np.array([[2.0]])
        cfg = SimConfig(t_final=0.0, dt=0.1)
        run = simulate(k, init, cfg)
        assert run.times.shape == (1,)
        np.testing.assert_array_equal(run.states[0], init)

    def test_replay_bitwise(self):
        k = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
        init = np.random.default_rng(5).normal(size=(6, 2))
        cfg = SimConfig(t_final=0.4, dt=0.01, master_seed=17)
        a = simulate(k, init, cfg)
        b = simulate(k, init, cfg)
        np.testing.assert_array_equal(a.states, b.states)

    def test_blowup_carries_step_and_partial(self):
        k = affine_kernels(1, bx=40.0)
        init = np.array([[1.0]])
        cfg = SimConfig(t_final=2.0, dt=0.1, blowup_norm=100.0)
        with pytest.raises(BlowUpError) as err:
            simulate(k, init, cfg)
        # each step multiplies by 1 + 40 * 0.1 = 5: 1, 5, 25, then 125 > 100
        assert err.value.step_index == 2
        assert "seed=0" in str(err.value)
        partial = err.value.partial
        assert partial.shape[0] == err.value.step_index + 1
        np.testing.assert_array_equal(partial, [[[1.0]], [[5.0]], [[25.0]]])

    def test_overflowing_norm_is_a_blowup(self):
        # each coordinate is finite but the norm is not: a typed error, not a warning
        with pytest.raises(BlowUpError) as err:
            simulate(affine_kernels(2), np.full((3, 2), 1.5e308), SimConfig(0.1, 0.05))
        assert err.value.step_index == 0 and err.value.max_norm == np.inf

    def test_negative_one_coordinate_state_blows_up(self):
        # the norm of a one-coordinate state is |x|, not the signed coordinate
        k = affine_kernels(1, b0=[-400.0])
        cfg = SimConfig(t_final=1.0, dt=0.25, blowup_norm=150.0)
        with pytest.raises(BlowUpError) as err:
            simulate(k, np.zeros((2, 1)), cfg)
        # each step moves both particles by -100: 0, -100, then -200
        assert err.value.step_index == 1
        assert err.value.max_norm == 200.0
        np.testing.assert_array_equal(err.value.partial, [[[0.0]] * 2, [[-100.0]] * 2])

    def test_finite_state_beyond_squares_is_no_blowup(self):
        # one step takes every coordinate to 1e299: finite and below
        # blowup_norm, though its square overflows
        k = affine_kernels(2, bx=1e300)
        init = np.ones((3, 2))
        run = simulate(k, init, SimConfig(t_final=0.1, dt=0.1, blowup_norm=1e308))
        # the next step overflows the state itself, with no warning
        with pytest.raises(BlowUpError) as err:
            simulate(k, init, SimConfig(t_final=0.2, dt=0.1, blowup_norm=1e308))
        np.testing.assert_array_equal(run.states[-1], np.full((3, 2), 1e299))
        assert err.value.step_index == 1
        assert not np.isfinite(err.value.max_norm)
        np.testing.assert_array_equal(err.value.partial, run.states)

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("stack", [2, 3])
    def test_state_norms_match_the_hypot_reduction_bitwise(self, d, stack):
        # every row of d entries drawn from the edge values, then random rows
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324, 1.5]
        rows = np.concatenate([
            np.array(list(itertools.product(edges, repeat=d))),
            np.random.default_rng(d).standard_normal((16, d)),
        ])
        states = rows if stack == 2 else rows.reshape(2, -1, d)
        with np.errstate(over="ignore"):
            got, want = _state_norms(states), np.hypot.reduce(states, axis=-1, initial=0.0)
        assert got.shape == states.shape[:-1]
        assert got.tobytes() == want.tobytes()

    def test_individual_noise_statistics(self):
        # additive individual noise: terminal variance ~ sigma^2 T
        k = affine_kernels(1, s0=0.5)
        init = np.zeros((2000, 1))
        cfg = SimConfig(t_final=1.0, dt=0.05, master_seed=3)
        run = simulate(k, init, cfg)
        var = run.states[-1].var()
        assert var == pytest.approx(0.25, rel=0.1)


class TestMeanVelocityConservation:
    @pytest.mark.parametrize(
        "kernel",
        [
            cs_kernel(lam=1.0, gamma=1.0),
            cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0),
            cucker_smale_kernels(
                CuckerSmaleParams(
                    half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0,
                    truncation=Truncation(1.0, 1.0),
                )
            ),
        ],
        ids=["cs", "common-noise", "truncated"],
    )
    def test_pathwise_conservation(self, kernel):
        rng = np.random.default_rng(13)
        init = rng.normal(size=(16, 2))
        cfg = SimConfig(t_final=1.0, dt=0.01, master_seed=4)
        run = simulate(kernel, init, cfg)
        v_bar = run.states[:, :, 1].mean(axis=1)
        assert np.max(np.abs(v_bar - v_bar[0])) <= 1e-12

    def test_heun_also_conserves(self):
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
        rng = np.random.default_rng(14)
        init = rng.normal(size=(8, 2))
        cfg = SimConfig(t_final=1.0, dt=0.01, master_seed=4, scheme="heun_stratonovich")
        run = simulate(kernel, init, cfg)
        v_bar = run.states[:, :, 1].mean(axis=1)
        assert np.max(np.abs(v_bar - v_bar[0])) <= 1e-12


class TestStrongOrder:
    """Pathwise error against closed forms in the run's own beta_T, the sum
    of its common increments.

    flock: with gamma = 0 and phi_gamma = 0 the mean velocity v_bar is
    conserved and u_i = v_i - v_bar solves du = -lam u dt - phi u o d beta,
    so v_i(T) = v_bar + u_i(0) exp(-lam T - phi beta_T) exactly.

    affine: with b = 0, sigma = 0 and c(x, y) = cx x + cy y in dimension 1,
    the mean solves dX_bar = (cx + cy) X_bar o d beta and each offset
    X_i - X_bar solves du = cx u o d beta, so X_i(T) = X_bar(0)
    exp((cx + cy) beta_T) + (X_i(0) - X_bar(0)) exp(cx beta_T): the affine
    case of the particle representation of the SPDE (Kurtz & Xiong, Stoch.
    Proc. Appl. 83, 1999). The cloud sits off the origin, so the cy term of
    S1, the measure derivative, acts on the mean.

    Each error is linear in the initial states, so the slopes depend on the
    noise seeds only.
    """

    LAM, PHI, T = 1.0, 0.8, 0.5
    CX, CY = 0.6, -0.9
    DTS = (0.02, 0.005, 0.00125)
    EULER_BAND = (0.3, 0.8)
    HEUN_BAND = (0.75, 1.5)

    def flock(self):
        """(kernel, initial states, compared coordinate, exact final values)."""
        init = np.random.default_rng(5).normal(size=(16, 2))
        v0 = init[:, 1]

        def exact(beta_t):
            return v0.mean() + (v0 - v0.mean()) * np.exp(-self.LAM * self.T - self.PHI * beta_t)

        kernel = cs_kernel(lam=self.LAM, gamma=0.0, phi_lam=self.PHI, phi_gamma=0.0)
        return kernel, init, 1, exact

    def affine(self):
        init = np.random.default_rng(5).normal(size=(16, 1)) + 2.0
        x0 = init[:, 0]

        def exact(beta_t):
            mean = x0.mean()
            return (mean * np.exp((self.CX + self.CY) * beta_t)
                    + (x0 - mean) * np.exp(self.CX * beta_t))

        return affine_kernels(1, cx=self.CX, cy=self.CY), init, 0, exact

    def slope(self, case, scheme, convention="half_both", kernel=None, seeds=16):
        """The fitted log-log slope of the rms final error against dt;
        ``kernel`` replaces the case's own."""
        own, init, coord, exact = case()
        kernel = kernel or own
        errors = []
        for dt in self.DTS:
            squares = []
            for seed in range(seeds):
                cfg = SimConfig(self.T, dt, scheme=scheme, master_seed=seed,
                                s1_convention=convention)
                run = simulate(kernel, init, cfg)
                want = exact(run.noise.common_increments.sum())
                squares.append(np.mean((run.states[-1, :, coord] - want) ** 2))
            errors.append(np.sqrt(np.mean(squares)))
        return np.polyfit(np.log(self.DTS), np.log(errors), 1)[0]

    def test_euler_ito_has_order_one_half(self):
        # the affine case's disjoint blocks of seeds 0-255 read 0.29 to 0.77
        # over 16 seeds, and 0.46, 0.48, 0.59 and 0.54 over 64
        low, high = self.EULER_BAND
        assert low < self.slope(self.flock, "euler_ito") < high
        assert low < self.slope(self.affine, "euler_ito", seeds=64) < high

    def test_heun_has_order_one(self):
        # the affine case reads 0.75 over 16 seeds, at the band's edge, and
        # 0.90 over 32; six disjoint blocks of 32 seeds read 0.80 to 1.23
        low, high = self.HEUN_BAND
        assert low < self.slope(self.flock, "heun_stratonovich") < high
        assert low < self.slope(self.affine, "heun_stratonovich", seeds=32) < high

    def test_paper_literal_fails_the_euler_band(self):
        # the doubled correction is an O(1) drift error: the error stalls
        for case in (self.flock, self.affine):
            slope = self.slope(case, "euler_ito", "paper_literal")
            assert slope < self.EULER_BAND[0], case.__name__

    def test_dropping_the_measure_derivative_fails_the_euler_band(self):
        # S1 without its cy term, the y part of S[mu] alone, is an O(1)
        # drift error on the mean too
        kernel = affine_without_y_derivative(1, self.CX, self.CY)
        assert self.slope(self.affine, "euler_ito", kernel=kernel) < self.EULER_BAND[0]


class TestMomentStability:
    def test_second_moment_bounded_and_dt_stable(self):
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.4, phi_gamma=1.0)
        rng = np.random.default_rng(23)
        init = rng.normal(size=(32, 2))
        m2_0 = np.mean(np.sum(init**2, axis=1))
        sups = []
        for dt in (0.02, 0.01):
            cfg = SimConfig(t_final=1.0, dt=dt, master_seed=6)
            run = simulate(kernel, init, cfg)
            m2 = np.mean(np.sum(run.states**2, axis=2), axis=1)
            sups.append(m2.max())
        for sup in sups:
            assert sup <= 10.0 * (1.0 + m2_0)
        assert 0.5 <= sups[0] / sups[1] <= 2.0

    def test_path_regularity_fourth_moment(self):
        # (1/N) sum E|X_t - X_s|^4 / |t - s|^2 bounded over dyadic pairs
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.4, phi_gamma=1.0)
        rng = np.random.default_rng(29)
        init = rng.normal(size=(16, 2))
        acc = None
        seeds = range(8)
        for seed in seeds:
            cfg = SimConfig(t_final=1.0, dt=1.0 / 64, master_seed=seed)
            run = simulate(kernel, init, cfg)
            diffs = []
            for lag in (1, 2, 4, 8, 16, 32, 64):
                d = run.states[lag:] - run.states[:-lag]
                val = np.mean(np.sum(d**2, axis=2) ** 2, axis=1)  # per (s, t) pair
                diffs.append(np.max(val) / (lag / 64.0) ** 2)
            row = np.array(diffs)
            acc = row if acc is None else acc + row
        ratios = acc / len(list(seeds))
        assert np.all(np.isfinite(ratios))
        assert ratios.max() <= 500.0


def coupled_runs(k, init, cfg, n):
    """The full system and the subsystem of its first ``n`` particles.

    Both runs derive their noise from ``cfg.master_seed``, so the subsystem
    sees the full system's common increments and the individual increments
    of its particles.
    """
    return simulate(k, init, cfg), simulate(k, init[:n], cfg)


class TestCoupledPair:
    def test_full_subsample_identical(self):
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.3, phi_gamma=1.0)
        init = np.random.default_rng(1).normal(size=(8, 2))
        cfg = SimConfig(t_final=0.5, dt=0.05, master_seed=2)
        big, small = coupled_runs(kernel, init, cfg, 8)
        np.testing.assert_array_equal(big.states, small.states)

    def test_no_interaction_shared_particles_coincide(self):
        # no drift, no common noise: individual noise only, addressed by id
        kernel = affine_kernels(2, s0=0.8)
        init = np.random.default_rng(2).normal(size=(6, 2))
        cfg = SimConfig(t_final=0.5, dt=0.05, master_seed=9)
        big, small = coupled_runs(kernel, init, cfg, 3)
        np.testing.assert_array_equal(big.states[:, :3, :], small.states)

    def test_prefix_run_shares_the_noise_of_its_particles(self):
        # the Cauchy coupling: a run on the first half of the states draws
        # the same common increments and the same per-particle blocks
        kernel = affine_kernels(2, s0=0.8)
        init = np.random.default_rng(5).normal(size=(8, 2))
        cfg = SimConfig(t_final=0.3, dt=0.05, master_seed=4)
        big, small = coupled_runs(kernel, init, cfg, 4)
        np.testing.assert_array_equal(big.noise.common_increments, small.noise.common_increments)
        np.testing.assert_array_equal(
            big.noise.individual(4), small.noise.individual(4)
        )
        assert big.noise.master_seed == small.noise.master_seed == cfg.master_seed

    def test_free_flight_decoupled(self):
        # vanishing alignment weight: every particle flies independently
        kernel = cucker_smale_kernels(
            CuckerSmaleParams(half_dim=1, lam=1e-300, gamma=0.0)
        )
        init = np.random.default_rng(3).normal(size=(4, 2))
        cfg = SimConfig(t_final=0.5, dt=0.05, master_seed=12)
        big, small = coupled_runs(kernel, init, cfg, 2)
        np.testing.assert_allclose(big.states[:, :2, :], small.states, atol=1e-12)

    def test_coupled_distance_shrinks_with_n(self):
        kernel = affine_kernels(1, c0=1.0)
        rng = np.random.default_rng(31)
        init = rng.normal(size=(16, 1))
        cfg = SimConfig(t_final=0.2, dt=0.05, master_seed=7)
        big, small = coupled_runs(kernel, init, cfg, 8)
        # additive common noise translates everyone identically, so the
        # coupled paths stay at the initial offset
        np.testing.assert_allclose(
            big.states[:, :8, :] - small.states, 0.0, atol=1e-14
        )

    def test_csv_round_trip_header(self, tmp_path):
        kernel = affine_kernels(2)
        init = np.array([[1.5, -0.25]])
        cfg = SimConfig(t_final=0.2, dt=0.1, master_seed=0)
        run = simulate(kernel, init, cfg)
        _write_trajectory_csvs([0], [(run.times, run.states, 0.0)], tmp_path)
        lines = (tmp_path / "run_0.csv").read_text().strip().splitlines()
        assert lines[0] == "t,particle,coord_0,coord_1"
        assert lines[1] == "0.0,0,1.5,-0.25"
        assert len(lines) == 1 + 3 * 1
        # each float is written as its shortest round-trip repr
        times = np.array([0.0, 0.1])
        states = np.array([[[-0.0, 1e-300], [0.1, 1e16]], [[1e16, 0.1], [1e-300, -0.0]]])
        _write_trajectory_csvs([3], [(times, states, 0.0)], tmp_path)
        assert (tmp_path / "run_3.csv").read_text() == (
            "t,particle,coord_0,coord_1\n"
            "0.0,0,-0.0,1e-300\n"
            "0.0,1,0.1,1e+16\n"
            "0.1,0,1e+16,0.1\n"
            "0.1,1,1e-300,-0.0\n"
        )
