import math
from types import SimpleNamespace

import numpy as np
import pytest

from meanflock.config import parse_config
from meanflock.diagnostics import (
    COMPARISON_SHIFTS,
    _series,
    _stopped_sup_cost,
    _verdict,
    aggregate_cauchy,
    aggregate_chaos,
    aggregate_comparison,
    aggregate_weakform,
    cauchy_single,
    chaos_beta_path,
    comparison_seed,
    default_checkpoints,
    energy_series,
    mean_velocity_drift,
    observed_position_spread,
    weakform_single,
)
from meanflock.dynamics import NoisePath, SimConfig, _integrate, simulate
from meanflock.harness import (
    _comparison_pairs,
    _write_json,
    build_kernel,
    build_sim_config,
    run_from_text,
)
from meanflock.kernels import (
    CuckerSmaleParams,
    affine_kernels,
    cucker_smale_kernels,
)
from meanflock.testfunctions import bump
from meanflock.transport import optimal_pairing, wasserstein

from helpers import constant, position_spread_reference, read_report, reseeded


def cs_kernel(**kw):
    return cucker_smale_kernels(CuckerSmaleParams(half_dim=1, **kw))


def run_ensemble(kernel, n, cfg_kw, seeds, init_scale=(1.0, 1.0)):
    if kernel.dim % 2 == 0:
        scales = np.repeat(init_scale, kernel.dim // 2)
    else:
        scales = np.ones(kernel.dim)
    runs = []
    for seed in seeds:
        rng = np.random.default_rng(seed + 1000)
        atoms = rng.normal(size=(n, kernel.dim)) * scales
        cfg = SimConfig(master_seed=seed, **cfg_kw)
        runs.append(simulate(kernel, atoms, cfg))
    return runs


def run_config(tmp_path, body):
    """(exit code, report or None) of one harness run of a config body."""
    out = tmp_path / "out"
    code = run_from_text(body + f"output_dir = {out}\n")
    report = out / "report.json"
    return code, read_report(report) if report.exists() else None


def flocking_config(**keys):
    base = dict(experiment="flocking", model="cucker-smale", half_dim=1, gamma=0.0)
    return "".join(f"{k} = {v}\n" for k, v in dict(base, **keys).items())


def assert_rejected(tmp_path, capsys, body, message):
    code, report = run_config(tmp_path, body)
    assert code == 1
    assert report is None and not (tmp_path / "out").exists()
    assert message in capsys.readouterr().err


def still_energy(atoms):
    """energy_series of a zero-kernel run from ``atoms``; the states stay put."""
    atoms = np.asarray(atoms, dtype=float)
    cfg = SimConfig(t_final=0.03, dt=0.01)
    energies = energy_series(simulate(affine_kernels(atoms.shape[1]), atoms, cfg))
    assert energies.shape == (4,) and np.all(energies == energies[0])
    return energies[0]


class TestFlockingEnergy:
    def test_symmetric_pair(self):
        assert still_energy([[0.0, -1.0], [0.0, 1.0]]) == pytest.approx(1.0)

    def test_single_particle(self):
        assert still_energy([[1.0, 3.0]]) == 0.0

    def test_three_velocities(self):
        assert still_energy([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]) == pytest.approx(2.0 / 3.0)

    def test_velocity_translation_invariance(self):
        rng = np.random.default_rng(2)
        atoms = rng.normal(size=(6, 4))
        shifted = atoms.copy()
        shifted[:, 2:] += np.array([3.0, -1.0])
        assert still_energy(atoms) == pytest.approx(still_energy(shifted), rel=1e-12)


class TestFlockingRate:
    def test_deterministic_two_particle_rate(self, tmp_path):
        # gamma = 0 makes the deviation ODE linear: E_t = E_0 exp(-2 lam t)
        code, report = run_config(
            tmp_path, flocking_config(n_particles=2, t_final=2.0, dt=0.001, master_seed=0)
        )
        assert code == 0
        assert report["metrics"]["rate_bound"] == pytest.approx(2.0)
        assert report["metrics"]["fitted_rate"] == pytest.approx(2.0, rel=0.02)
        assert [v["pass"] for v in report["verdicts"]] == [True]

    def test_rate_bound_arithmetic(self, tmp_path):
        _, report = run_config(
            tmp_path, flocking_config(phi_lambda=0.2, n_particles=8, n_seeds=4)
        )
        assert report["metrics"]["rate_bound"] == pytest.approx(1.68)

    def test_already_flocked_stays_flocked(self):
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.4, phi_gamma=1.0)
        atoms = np.random.default_rng(0).normal(size=(6, 2))
        atoms[:, 1] = 0.7  # common velocity
        cfg = SimConfig(t_final=1.0, dt=0.01, master_seed=1)
        run = simulate(kernel, atoms, cfg)
        assert np.max(energy_series(run)) <= 1e-24

    def test_bound_not_applicable(self, tmp_path):
        code, report = run_config(
            tmp_path, flocking_config(**{"lambda": 0.2}, phi_lambda=0.9, n_particles=4, t_final=0.5)
        )
        assert code == 0
        assert not report["verdicts"]
        assert any("not applicable" in note for note in report["notes"])

    def test_one_step_has_too_few_samples(self, tmp_path):
        # one step leaves one positive energy in the fit window: no rate to fit
        code, report = run_config(
            tmp_path, flocking_config(n_particles=2, t_final=0.01, dt=0.01, master_seed=0)
        )
        assert code == 0
        assert report["verdicts"] == []
        assert report["notes"] == ["bound not applicable: too few positive-energy samples"]
        assert "fitted_rate" not in report["metrics"]

    def test_mean_velocity_drift_metric(self):
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.3, phi_gamma=1.0)
        runs = run_ensemble(kernel, 8, dict(t_final=0.5, dt=0.01), seeds=[3])
        assert mean_velocity_drift(runs[0]) <= 1e-12


class TestPositionSpread:
    def test_equals_pair_table_reference(self):
        # up to two squares add the same in any order, so half_dim 1 and 2
        # (every benchmark config) agree bitwise; einsum sums three squares
        # in another order, which may move the last bit
        rng = np.random.default_rng(17)
        for case in range(90):
            half_dim = case % 3 + 1
            n, steps = rng.integers(1, 40), rng.integers(0, 6)
            scale = 10.0 ** rng.uniform(-3, 3)
            states = rng.normal(size=(steps + 1, n, 2 * half_dim)) * scale
            run = SimpleNamespace(times=np.arange(steps + 1.0), states=states, dim=2 * half_dim)
            got, want = observed_position_spread(run), position_spread_reference(run)
            if half_dim < 3:
                assert got == want
            else:
                assert abs(got - want) <= np.spacing(want)


class TestWeakform:
    def test_requires_enough_runs(self, tmp_path, capsys):
        body = "experiment = weakform\nmodel = zero\ndim = 2\nn_seeds = 3\n"
        assert_rejected(tmp_path, capsys, body, "at least 16 seeds")

    def test_constant_test_function_exact_zero(self):
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.4, phi_gamma=1.0)
        runs = run_ensemble(kernel, 6, dict(t_final=0.2, dt=0.02), seeds=[0])
        checks = default_checkpoints(runs[0].config.steps)
        m, qv = weakform_single(runs[0], constant(1.0), checks)
        np.testing.assert_array_equal(m, np.zeros_like(m))

    def test_deterministic_defect_shrinks_linearly(self):
        # no noise: the residual is pure Euler quadrature error, O(dt)
        kernel = cs_kernel(lam=1.0, gamma=1.0)
        psi = bump(2.0, start=1)
        defects = []
        for dt in (0.02, 0.01, 0.005):
            runs = run_ensemble(kernel, 8, dict(t_final=0.4, dt=dt), seeds=[5])
            checks = default_checkpoints(runs[0].config.steps)
            m, _ = weakform_single(runs[0], psi, checks)
            defects.append(np.max(np.abs(m)))
        assert defects[0] > defects[1] > defects[2]
        slope = np.polyfit(np.log([0.02, 0.01, 0.005]), np.log(defects), 1)[0]
        assert slope >= 0.8

    def test_qv_nonnegative_and_additive(self):
        kernel = cs_kernel(lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
        runs = run_ensemble(kernel, 6, dict(t_final=0.2, dt=0.01), seeds=[7])
        checks = np.arange(runs[0].config.steps + 1)
        _, qv = weakform_single(runs[0], bump(2.0, start=1), checks)
        assert np.all(qv >= 0.0)
        assert np.all(np.diff(qv) >= 0.0)
        # additivity over disjoint intervals: increments sum to the total
        assert qv[-1] == pytest.approx(np.sum(np.diff(qv)), rel=1e-12)

    def test_martingale_bands_with_individual_noise(self):
        kernel = affine_kernels(1, s0=0.4)
        runs = run_ensemble(kernel, 16, dict(t_final=0.25, dt=0.0125), seeds=range(24))
        checks = default_checkpoints(runs[0].config.steps)
        psi = bump(2.0)
        per_run = [weakform_single(run, psi, checks) for run in runs]
        report = aggregate_weakform(per_run, runs[0].times[checks])
        assert len(report["verdicts"]) == 16
        assert all(v["pass"] for v in report["verdicts"])


class TestCauchy:
    def test_no_interaction_constant_common_noise_closed_form(self):
        # additive common noise translates all atoms identically: the coupled
        # path distance equals the initial measure distance exactly
        kernel = affine_kernels(1, c0=1.0)
        rng = np.random.default_rng(0)
        base = rng.normal(size=(8, 1))
        cfg = SimConfig(t_final=0.25, dt=0.05)
        sizes = [8, 4, 2]
        samples = np.stack([
            cauchy_single(kernel, base, sizes, reseeded(cfg, seed), 2.0) for seed in (0, 1)
        ])
        report = aggregate_cauchy(samples, sizes, 2.0)
        w42 = wasserstein(base[:4], base[:8], 2)
        assert report["metrics"]["distance_N=4"] == pytest.approx(w42**2, abs=1e-12)

    def test_degenerate_sizes_rejected(self, tmp_path, capsys):
        for sizes in ("4, 4", "4, 3"):
            body = f"experiment = cauchy\nmodel = constant-common\nsizes = {sizes}\n"
            assert_rejected(tmp_path, capsys, body, "each half the one before")

    def test_full_model_runs(self, tmp_path):
        # particle i has the same individual increments in every size, so the
        # prefix coupling holds with individual noise too
        body = ("experiment = cauchy\nmodel = cucker-smale-individual\nphi_lambda = 0.5\n"
                "sigma_scale = 0.3\nsizes = 64, 32, 16\nn_seeds = 4\n")
        code, report = run_config(tmp_path, body)
        assert code == 0
        distances = [report["metrics"][f"distance_N={n}"] for n in (32, 16)]
        assert all(math.isfinite(d) and d > 0 for d in distances), distances


class TestComparisonExperiment:
    def setup_method(self):
        self.kernel = cucker_smale_kernels(
            CuckerSmaleParams(
                half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0,
            )
        )
        rng = np.random.default_rng(4)
        self.atoms = rng.uniform(-1, 1, size=(8, 2))
        self.cfg = SimConfig(t_final=0.5, dt=0.05, master_seed=0)

    def shifted(self, shift):
        # one copy per COMPARISON_SHIFTS label, in its order, paired with self.atoms
        copies = [self.atoms + factor * shift for factor in COMPARISON_SHIFTS.values()]
        return [b[optimal_pairing(self.atoms, b)] for b in copies]

    def test_identical_inits_zero_and_flagged(self):
        a = self.atoms
        per_seed = [comparison_seed(self.kernel, a, [a, a], self.cfg, 50.0)]
        assert per_seed == [[(0.0, False), (0.0, False)]]
        report = aggregate_comparison(a, [a, a], per_seed, 50.0, 2.0)
        assert report["metrics"]["full_estimate"] == 0.0
        assert report["metrics"]["full_ratio"] == 0.0
        assert report["metrics"]["full_degenerate_initial_distance"] == 1.0
        assert report["verdicts"] == []
        assert report["notes"] == ["initial distance degenerate; stability check skipped"]

    def test_small_radius_stops_immediately(self):
        inits = self.shifted(0.2)
        per_seed = [
            comparison_seed(self.kernel, self.atoms, inits, reseeded(self.cfg, seed), 1e-6)
            for seed in (0, 1)
        ]
        assert per_seed == [[(0.0, True), (0.0, True)]] * 2
        report = aggregate_comparison(self.atoms, inits, per_seed, 1e-6, 2.0)
        for label in COMPARISON_SHIFTS:
            assert report["metrics"][f"{label}_estimate"] == 0.0
            assert report["metrics"][f"{label}_stopped_runs"] == 2.0
        assert report["metrics"]["full_initial_cost"] > 0
        assert report["metrics"]["full_degenerate_initial_distance"] == 0.0
        assert report["verdicts"] == []
        assert report["notes"] == ["every seed stopped at t = 0; stability check skipped"]

    def test_sup_stops_at_tau_r(self):
        # atom 1 of the second path leaves radius 2 at t = 1: the sup takes
        # t = 1 but not t = 2, and the first path's atoms count the same
        a = np.zeros((3, 2, 1))
        b = np.array([[[1.0], [0.0]], [[1.0], [3.0]], [[9.0], [9.0]]])
        assert _stopped_sup_cost(a, b, 2.0, 2.0) == (5.0, True)
        assert _stopped_sup_cost(b, a, 2.0, 1.0) == (2.0, True)
        assert _stopped_sup_cost(a, b, 10.0, 2.0) == (81.0, False)
        assert _stopped_sup_cost(a, b, 0.5, 2.0) == (0.0, True)

    def test_overflowing_norm_stops_at_once(self):
        # each coordinate is finite but the norm is not: beyond any radius, without a warning
        a = np.full((2, 3, 2), 1.5e308)
        assert _stopped_sup_cost(a, a, 50.0, 2.0) == (0.0, True)

    def test_ratio_finite_positive(self):
        inits = self.shifted(0.1)
        per_seed = [
            comparison_seed(self.kernel, self.atoms, inits, reseeded(self.cfg, seed), 50.0)
            for seed in range(8)
        ]
        report = aggregate_comparison(self.atoms, inits, per_seed, 50.0, 2.0)
        assert np.isfinite(report["metrics"]["full_ratio"])
        assert report["metrics"]["full_ratio"] > 0
        assert report["metrics"]["full_stderr"] > 0
        assert [v["check"] for v in report["verdicts"]] == ["ratio_stable_under_halving"]

    @pytest.mark.parametrize("independent, passed, value, sigma", [
        (False, True, 0.9211290171789863, None), (True, False, 2.2285876763596515, None),
        (False, True, 0.9218274758814555, 0.3), (True, False, 1.9277753737990608, 0.3),
    ])
    def test_halving_verdict_power(self, tmp_path, independent, passed, value, sigma):
        # the proof's coupling passes the [0.5, 1.5] band. It fails when nu
        # draws from seed + n_seeds: all its noise under common noise alone,
        # only its B^i (beta still shared) in the full model
        model = ("cucker-smale" if sigma is None
                 else f"cucker-smale-individual\nsigma_scale = {sigma}")
        values = parse_config(
            f"experiment = comparison\nmodel = {model}\nhalf_dim = 1\nphi_lambda = 0.5\n"
            f"n_particles = 64\nt_final = 1\ndt = 0.05\nn_seeds = 8\noutput_dir = {tmp_path}\n"
        ).values
        atoms_a, paired_b = _comparison_pairs(values)
        k, p = build_kernel(values), values["wasserstein_p"]

        def nu_path(b, seed):
            cfg = build_sim_config(values, seed)
            if not independent:
                return simulate(k, b, cfg).states
            if k.sigma is None:
                return simulate(k, b, build_sim_config(values, seed + 8)).states
            noise = NoisePath(seed, cfg.dt, cfg.steps, k.dim)
            db = NoisePath(seed + 8, cfg.dt, cfg.steps, k.dim).individual(len(b))
            return _integrate(k, b, np.full(len(b), 1.0 / len(b)), cfg, noise, db=db)

        rows = []
        for seed in range(8):
            path_a = simulate(k, atoms_a, build_sim_config(values, seed)).states
            rows.append([_stopped_sup_cost(path_a, nu_path(b, seed), values["radius"], p)
                         for b in paired_b])
        verdict, = aggregate_comparison(atoms_a, paired_b, rows, values["radius"], p)["verdicts"]
        assert verdict["pass"] is passed
        assert verdict["value"] == pytest.approx(value, rel=1e-9)


class TestChaos:
    def _sampler(self, rng, n):
        return rng.uniform(-1.0, 1.0, size=(n, 2))

    def _report(self, phis, n_list, cfg, beta_seeds, ref_n, n_resamples):
        per_beta = np.stack([
            chaos_beta_path(
                affine_kernels(2), self._sampler, phis, n_list, reseeded(cfg, seed),
                ref_n, n_resamples,
            )
            for seed in beta_seeds
        ])
        return aggregate_chaos(per_beta, n_list, len(phis), ref_n, n_resamples)

    def test_zero_interaction_gap_small(self):
        # frozen particles: conditional independence is exact, the gap is
        # pure Monte-Carlo noise
        cfg = SimConfig(t_final=0.125, dt=0.0625)
        phis = [
            (bump(1.5), 2),
            (bump(1.8), 1),
        ]
        report = self._report(phis, [8, 16], cfg, [0, 1], ref_n=64, n_resamples=48)
        for n in (8, 16):
            assert report["metrics"][f"delta_N={n}"] <= 0.12

    def test_single_marginal(self):
        cfg = SimConfig(t_final=0.125, dt=0.0625)
        phis = [(bump(1.5), 2)]
        report = self._report(phis, [4, 8], cfg, [0], ref_n=64, n_resamples=32)
        assert report["metrics"]["r"] == 1
        assert len(report["verdicts"]) == 1

    def test_too_few_resamples_rejected(self, tmp_path, capsys):
        body = "experiment = chaos\nmodel = zero\nn_list = 4, 8\nn_resamples = 16\n"
        assert_rejected(tmp_path, capsys, body, "n_resamples >= 32")

    def test_reference_must_exceed_tested_sizes(self, tmp_path, capsys):
        body = "experiment = chaos\nmodel = zero\nn_list = 4, 8\nref_n = 8\n"
        assert_rejected(tmp_path, capsys, body, "ref_n must exceed")


class TestReport:
    def test_verdicts_cite_tolerance(self):
        # numpy scalars become the plain float and bool that JSON writes
        verdict = _verdict("check_a", np.float64(0.5), 1, np.bool_(True))
        assert verdict == {"check": "check_a", "value": 0.5, "tolerance": 1.0, "pass": True}
        assert [type(verdict[key]) for key in ("value", "tolerance", "pass")] == [float, float, bool]

    def test_json_dict_is_deterministic(self, tmp_path):
        # the file lists metrics in key order, whatever order they were added in
        report = {"name": "demo", "metrics": {"b": 2.0, "a": 1.0},
                  "series": [_series("s", [0.0, 1.0], [3.0, 4.0])], "verdicts": [], "notes": []}
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        _write_json(first, report)
        _write_json(second, report)
        assert first.read_bytes() == second.read_bytes()
        assert list(read_report(first)["metrics"]) == ["a", "b"]
