"""Quantitative certification of the convergence and flocking claims.

Each experiment kind is one per-seed computation plus one aggregate that
turns the per-seed results, in seed order, into a report with explicit
tolerances. The harness runs the per-seed part, possibly across processes;
this module holds the numerics of both halves:

* flocking: ``energy_series``, ``observed_position_spread`` and
  ``mean_velocity_drift`` per seed, ``aggregate_flocking`` checks decay of
  the velocity variance at rate at least 2 (psi_m - 4 ||phi||_inf^2),
* weakform: ``weakform_single`` per seed, ``aggregate_weakform`` checks that
  the weak-form defect M_psi is a centered martingale whose variance
  matches its quadratic-variation estimator,
* cauchy: ``cauchy_single`` per seed, ``aggregate_cauchy`` checks that
  E[W_p^p(mu^N, mu^{2N})] decreases in N under the shared-noise coupling,
* comparison: ``comparison_seed`` per seed (stopped sup ``labelled_cost``
  of measures started ``COMPARISON_SHIFTS`` apart, paired once at t = 0,
  under one noise), ``aggregate_comparison`` checks that its ratio to the
  initial W_p^p survives halving the shift,
* chaos: ``chaos_beta_path`` per common-noise path, ``aggregate_chaos``
  checks that the conditional gap to factorized moments decreases in N,
* ``aggregate_simulate`` reports moments and ``aggregate_transport``
  checks the residual of ``characteristics.transport_residual``.

Input rules (ensemble sizes, size ladders, orders) are checked once, by
``config.parse_config``; the functions here assume valid inputs. Every
verdict is a pure function of the inputs and of this module's constants, so
reruns reproduce reports bitwise and no config can loosen a verdict until it
cannot fail: ``FLOCKING_RATE_SLACK`` (0.25), ``FLOCKING_FIT_START`` (0.1),
``WEAKFORM_MEAN_BAND`` (4.0), ``WEAKFORM_VAR_BAND`` (5.0),
``WEAKFORM_CHECKPOINTS`` (8), ``TRANSPORT_TOLERANCE`` (1e-10) and the test
functions' ``harness.TF_RADIUS`` (2.0) about the centre 0.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dynamics import SimConfig, TrajectoryRecord, _state_norms, init_rng, resample_rng, simulate
from .errors import NonFiniteCostError
from .kernels import CuckerSmaleParams, KernelSet, field_drift_diffusion
from .testfunctions import TestFunction
from .transport import _sup_distances, wasserstein_path

FLOCKING_RATE_SLACK = 0.25
FLOCKING_FIT_START = 0.1
WEAKFORM_MEAN_BAND = 4.0
WEAKFORM_VAR_BAND = 5.0
WEAKFORM_CHECKPOINTS = 8
TRANSPORT_TOLERANCE = 1e-10


def _report(name: str) -> dict:
    """An empty report: the five keys ``report.json`` holds, in this layout."""
    return {"name": name, "metrics": {}, "series": [], "verdicts": [], "notes": []}


def _series(name: str, times, values, stderr=None) -> dict:
    """One series entry of a report, every number a float."""
    entry = {"name": name, "times": [float(t) for t in times], "values": [float(v) for v in values]}
    if stderr is not None:
        entry["stderr"] = [float(s) for s in stderr]
    return entry


def _verdict(check: str, value: float, tolerance: float, passed: bool) -> dict:
    """One verdict record: its ``check`` name, its ``value``, the ``tolerance``
    it is held to, and whether it passed (``pass``)."""
    return {"check": check, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(passed)}


# ---------------------------------------------------------------------------
# Flocking
# ---------------------------------------------------------------------------


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 and its standard error std(ddof=1) / sqrt(n); zeros
    from a single sample. An overflow reads inf or NaN, with no warning."""
    n = samples.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.mean(axis=0)
        if n == 1:
            return mean, np.zeros_like(mean)
        return mean, samples.std(axis=0, ddof=1) / np.sqrt(n)


def energy_series(run: TrajectoryRecord) -> np.ndarray:
    """Velocity variance E_t at every recorded time of one run."""
    d = run.dim // 2
    v = run.states[:, :, d:]
    v_bar = np.einsum("j,tjk->tk", run.weights, v)
    dev = v - v_bar[:, None, :]
    return np.einsum("j,tjk,tjk->t", run.weights, dev, dev)


def observed_position_spread(run: TrajectoryRecord) -> float:
    """Largest pairwise position distance seen anywhere in the run."""
    x = run.states[:, :, : run.dim // 2]
    # positions over about 1e154 apart overflow their squared distance to inf
    with np.errstate(over="ignore"):
        return float(_sup_distances(x, x).max())


def aggregate_flocking(
    times: np.ndarray,
    energies: np.ndarray,
    spreads: Sequence[float],
    drifts: Sequence[float],
    params: CuckerSmaleParams,
) -> dict:
    """Fit the decay rate of E[E_t] and compare with the theoretical bound.

    ``energies`` holds one E_t series per run; ``spreads`` and ``drifts`` the
    per-run observed position ranges and mean-velocity drifts. The bound
    r* = 2 (psi_m - 4 ||phi||_inf^2) uses psi_m = inf psi over the largest
    observed spread; the rate fitted from ``FLOCKING_FIT_START`` (0.1) T on
    must reach (1 - ``FLOCKING_RATE_SLACK``) r* = 0.75 r*. When psi_m <= 4
    ||phi||_inf^2 the bound does not apply and the report carries a note; a
    non-finite mean energy raises :class:`NonFiniteCostError` instead.
    """
    n_runs = energies.shape[0]
    report = _report("flocking")
    mean_energy, se_energy = _mean_stderr(energies)
    if not np.isfinite(mean_energy).all():
        raise NonFiniteCostError("the flocking energy estimate")
    report["series"].append(_series("mean_velocity_variance", times, mean_energy, se_energy))

    window = max(spreads)
    psi_m = params.psi_inf(window)
    phi_sup = params.phi_lam
    rate_bound = 2.0 * (psi_m - 4.0 * phi_sup**2)
    report["metrics"].update(
        {
            "psi_m": float(psi_m),
            "phi_sup": float(phi_sup),
            "rate_bound": float(rate_bound),
            "window": float(window),
            "n_runs": n_runs,
            "max_mean_velocity_drift": float(max(drifts)),
        }
    )
    if psi_m <= 4.0 * phi_sup**2:
        report["notes"].append("bound not applicable: psi_m <= 4 ||phi||_inf^2")
        return report

    t_end = times[-1]
    mask = (times >= FLOCKING_FIT_START * t_end) & (mean_energy > 0)
    if mask.sum() < 2:
        report["notes"].append("bound not applicable: too few positive-energy samples")
        return report
    slope, _ = np.polyfit(times[mask], np.log(mean_energy[mask]), 1)
    fitted_rate = float(-slope)
    report["metrics"]["fitted_rate"] = fitted_rate
    report["metrics"]["fit_window_start"] = float(FLOCKING_FIT_START * t_end)
    threshold = rate_bound * (1.0 - FLOCKING_RATE_SLACK)
    report["verdicts"].append(
        _verdict("fitted_decay_rate_ge_bound", fitted_rate, threshold, fitted_rate >= threshold)
    )
    return report


def mean_velocity_drift(run: TrajectoryRecord) -> float:
    """max_t |v_bar(t) - v_bar(0)| over the recorded grid."""
    d = run.dim // 2
    v_bar = np.einsum("j,tjk->tk", run.weights, run.states[:, :, d:])
    with np.errstate(over="ignore"):
        return float(np.max(np.linalg.norm(v_bar - v_bar[0], axis=1)))


# ---------------------------------------------------------------------------
# Weak-form martingale residual
# ---------------------------------------------------------------------------


def weakform_single(
    run: TrajectoryRecord, psi: TestFunction, checkpoint_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(M_psi(t), QV(t)) of one run at the requested recorded indices.

    M_psi(t) = <psi, mu_t> - <psi, mu_0> - sum_k <L[mu] psi, mu> dt with the
    generator L[mu] psi = (B[mu] + S[mu]) . grad psi + A[mu] psi, and QV is
    the discrete quadratic-variation estimator
    sum_k (<C[mu] . grad psi, mu>^2 + (1/N) <|s * grad psi|^2, mu>) dt, with
    s the diagonal of sigma (``KernelSet.sigma``) and * the entrywise product.
    """
    k = run.kernel
    cfg = run.config
    states = run.states
    w = run.weights
    n_steps = cfg.steps
    psi_mean = np.array([np.sum(w * psi.eval(states[t])) for t in range(n_steps + 1)])
    gen = np.zeros(n_steps)
    qv_inc = np.zeros(n_steps)
    # far-apart states overflow the field to inf, with no warning
    with np.errstate(over="ignore"):
        for t in range(n_steps):
            x = states[t]
            drift, common = field_drift_diffusion(k, x, w, x, cfg.s1_factor)
            grad = psi.grad(x)
            hess = psi.hess(x)
            gen_t = np.sum(w * np.einsum("nd,nd->n", drift, grad))
            if common is not None:
                # second-order operator from the common noise: 1/2 C_i C_j d^2_ij
                gen_t += 0.5 * np.sum(
                    w * np.einsum("ni,nij,nj->n", common, hess, common)
                )
                paired = np.sum(w * np.einsum("nd,nd->n", common, grad))
                qv_inc[t] += paired**2
            if k.sigma is not None:
                # sigma is diagonal: 1/2 s_i^2 d^2_ii, and |s * grad psi|^2
                sig = k.sigma(x)
                gen_t += 0.5 * np.sum(w * np.einsum("ni,ni,nii->n", sig, sig, hess))
                sig_grad = sig * grad
                qv_inc[t] += (1.0 / run.n_atoms) * np.sum(
                    w * np.einsum("nj,nj->n", sig_grad, sig_grad)
                )
            gen[t] = gen_t
    gen_cum = np.concatenate([[0.0], np.cumsum(gen) * cfg.dt])
    qv_cum = np.concatenate([[0.0], np.cumsum(qv_inc) * cfg.dt])
    martingale = psi_mean - psi_mean[0] - gen_cum
    return martingale[checkpoint_indices], qv_cum[checkpoint_indices]


def default_checkpoints(n_steps: int) -> np.ndarray:
    """``WEAKFORM_CHECKPOINTS`` (8) equispaced recorded indices, excluding
    t = 0 and ending at the horizon; every step when there are fewer."""
    count = min(WEAKFORM_CHECKPOINTS, n_steps)
    return np.unique(np.round(np.linspace(1, n_steps, count)).astype(int))


def aggregate_weakform(
    per_run: Sequence[tuple[np.ndarray, np.ndarray]], times: np.ndarray
) -> dict:
    """Combine per-run (M, QV) samples into mean/variance verdicts, held to
    ``WEAKFORM_MEAN_BAND`` (4.0) and ``WEAKFORM_VAR_BAND`` (5.0) standard errors."""
    m = np.stack([mq[0] for mq in per_run])
    qv = np.stack([mq[1] for mq in per_run])
    n_runs = m.shape[0]
    mean_m, se_m = _mean_stderr(m)
    var_m = m.var(axis=0, ddof=1)
    mean_qv, se_qv = _mean_stderr(qv)
    # standard error of the sample variance from the fourth central moment
    centered = m - mean_m
    m4 = np.mean(centered**4, axis=0)
    se_var = np.sqrt(np.maximum(m4 - var_m**2 * (n_runs - 3) / (n_runs - 1), 0.0) / n_runs)

    report = _report("weakform")
    report["metrics"]["n_runs"] = n_runs
    report["series"] += [
        _series("martingale_mean", times, mean_m, se_m),
        _series("martingale_variance", times, var_m),
        _series("quadratic_variation_mean", times, mean_qv, se_qv),
    ]
    for idx, t in enumerate(times):
        tol_mean = WEAKFORM_MEAN_BAND * se_m[idx]
        mean_gap = abs(mean_m[idx])
        tol_var = WEAKFORM_VAR_BAND * float(np.sqrt(se_var[idx] ** 2 + se_qv[idx] ** 2))
        gap = abs(var_m[idx] - mean_qv[idx])
        report["verdicts"] += [
            _verdict(f"martingale_mean_t={t:g}", mean_gap, tol_mean, mean_gap <= tol_mean),
            _verdict(f"variance_matches_qv_t={t:g}", gap, tol_var, gap <= tol_var),
        ]
    return report


# ---------------------------------------------------------------------------
# Cauchy convergence in N
# ---------------------------------------------------------------------------


def cauchy_single(
    k: KernelSet,
    base_atoms: np.ndarray,
    sizes: Sequence[int],
    cfg: SimConfig,
    p: float,
) -> np.ndarray:
    """Coupled path distances W_p^p(mu^N, mu^{2N}) under ``cfg.master_seed``."""
    # nested prefixes of one atom draw under one seed: particle i is the
    # same particle, driven by the same increments, in every size
    runs = {n: simulate(k, base_atoms[:n], cfg) for n in sizes}
    out = np.empty(len(sizes) - 1)
    for idx in range(len(sizes) - 1):
        big, small = sizes[idx], sizes[idx + 1]
        out[idx] = wasserstein_path(runs[small], runs[big], p=p) ** p
    return out


def aggregate_cauchy(samples: np.ndarray, sizes: Sequence[int], p: float) -> dict:
    """Verdicts from per-seed coupled distances (one row per seed). A mean or stderr
    that is not finite raises :class:`NonFiniteCostError`, not a verdict."""
    n_seeds = samples.shape[0]
    means, ses = _mean_stderr(samples)
    paired = [_mean_stderr(samples[:, i + 1] - samples[:, i]) for i in range(len(sizes) - 2)]
    if not np.isfinite([*means, *ses, *np.ravel(paired)]).all():
        raise NonFiniteCostError("the cauchy estimate")
    report = _report("cauchy")
    small_sizes = list(sizes[1:])
    metrics = report["metrics"]
    metrics["n_seeds"] = n_seeds
    metrics["p"] = float(p)
    for n, mean, se in zip(small_sizes, means, ses):
        metrics[f"distance_N={n}"] = float(mean)
        metrics[f"stderr_N={n}"] = float(se)
    report["series"].append(_series("coupled_distance", small_sizes, means, ses))
    # smaller N means a coarser system: the estimate must grow as N shrinks
    for idx, (diff, se_diff) in enumerate(paired):
        check = f"decreasing_{small_sizes[idx + 1]}_to_{small_sizes[idx]}"
        report["verdicts"].append(_verdict(check, diff, -se_diff, diff >= -se_diff))
    return report


# ---------------------------------------------------------------------------
# Stability under one common noise (comparison)
# ---------------------------------------------------------------------------

# labels and relative sizes of the initial shifts a comparison runs
COMPARISON_SHIFTS = {"full": 1.0, "half": 0.5}


def labelled_cost(states_a: np.ndarray, states_b: np.ndarray, p: float):
    """(1/N) sum_i |X_i - Y_i|^p over paired rows: per time for (T, N, d) paths.

    A cost that overflows is inf, with no warning; ``aggregate_comparison``
    refuses it with a typed error.
    """
    with np.errstate(over="ignore"):
        return np.mean(np.linalg.norm(states_a - states_b, axis=-1) ** p, axis=-1)


def _stopped_sup_cost(states_a, states_b, radius: float, p: float) -> tuple[float, bool]:
    """(sup_{t <= tau_R} ``labelled_cost``, whether tau_R was reached).

    tau_R is the first grid time at which an atom of either path lies
    farther than ``radius`` from the origin; exceedance at time zero makes
    the supremum empty, reported as 0.
    """
    with np.errstate(over="ignore"):
        reach = _state_norms(np.concatenate([states_a, states_b], axis=1)).max(axis=1)
    hits = np.flatnonzero(reach > radius)
    if hits.size and hits[0] == 0:
        return 0.0, True
    # the sup runs up to tau_R, inclusive
    stop = hits[0] + 1 if hits.size else len(reach)
    return float(labelled_cost(states_a[:stop], states_b[:stop], p).max()), bool(hits.size)


def comparison_seed(
    k: KernelSet, atoms_a: np.ndarray, paired_b: Sequence[np.ndarray], cfg: SimConfig,
    radius: float, p: float = 2.0,
) -> list[tuple[float, bool]]:
    """Stopped sup labelled costs of ``atoms_a`` against each of ``paired_b``.

    Row i of ``paired_b``'s arrays is atom i's partner in an optimal pairing
    at t = 0 (``transport.optimal_pairing``). Under ``cfg.master_seed`` each
    pair shares beta and, by particle label, B^i: the synchronous coupling
    of the stability proof. The path of ``atoms_a`` is simulated once.
    """
    path_a, *paths_b = [simulate(k, atoms, cfg).states for atoms in (atoms_a, *paired_b)]
    return [_stopped_sup_cost(path_a, path_b, radius, p) for path_b in paths_b]


def aggregate_comparison(
    atoms_a: np.ndarray, paired_b: Sequence[np.ndarray], per_seed: Sequence[list],
    radius: float, p: float,
) -> dict:
    """Estimates of E[sup_{t <= tau_R} labelled cost], an upper bound on W_p^p,
    per shift, and the halving verdict.

    Entry i of ``paired_b`` and of each ``comparison_seed`` row in
    ``per_seed`` belongs to the i-th ``COMPARISON_SHIFTS`` label. Each
    shift's headline number is the ratio of its estimate to its initial
    cost, the labelled cost W_p^p at t = 0; halving the shift must keep it.
    An initial cost, estimate or stderr that is not finite raises
    :class:`NonFiniteCostError`: an overflow is no failed claim.
    """
    report = _report("comparison")
    n_seeds = len(per_seed)
    ratios = {}
    for i, (label, b) in enumerate(zip(COMPARISON_SHIFTS, paired_b)):
        initial_cost = float(labelled_cost(atoms_a, b, p))
        sups = np.array([row[i][0] for row in per_seed])
        estimate, stderr = map(float, _mean_stderr(sups))
        if not np.all(np.isfinite([initial_cost, estimate, stderr])):
            raise NonFiniteCostError(f"the '{label}' comparison estimate")
        degenerate = initial_cost == 0.0
        ratios[label] = 0.0 if degenerate else estimate / initial_cost
        summary = {
            "initial_cost": initial_cost,
            "estimate": estimate,
            "stderr": stderr,
            "ratio": ratios[label],
            "degenerate_initial_distance": degenerate,
            "stopped_runs": sum(row[i][1] for row in per_seed),
            "n_seeds": n_seeds,
            "p": p,
            "radius": radius,
        }
        for key, val in summary.items():
            report["metrics"][f"{label}_{key}"] = float(val)
    full, half = ratios["full"], ratios["half"]
    if full > 0:
        rel = half / full
        verdict = _verdict("ratio_stable_under_halving", rel, 1.5, 0.5 <= rel <= 1.5)
        report["verdicts"].append(verdict)
    elif report["metrics"]["full_degenerate_initial_distance"]:
        report["notes"].append("initial distance degenerate; stability check skipped")
    else:
        # a seed's sup holds the positive initial cost unless it stopped at t = 0
        report["notes"].append("every seed stopped at t = 0; stability check skipped")
    return report


# ---------------------------------------------------------------------------
# Conditional propagation of chaos
# ---------------------------------------------------------------------------


def chaos_beta_path(
    k: KernelSet,
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    phis: Sequence[tuple[TestFunction, int]],
    n_list: Sequence[int],
    cfg: SimConfig,
    ref_n: int,
    n_resamples: int,
) -> np.ndarray:
    """|E-hat[prod phi | beta] - prod <phi, mu_ref>| for each N at one beta.

    ``phis`` are (test function, grid step) pairs; the i-th is evaluated on
    particle i's state at its step, so the product runs over the first
    ``len(phis)`` particles. The beta path, the reference draw and the
    resamples all come from ``cfg.master_seed``.
    """
    beta_seed = cfg.master_seed
    ref_run = simulate(k, sampler(init_rng(beta_seed), ref_n), cfg)
    ref_marginals = [float(np.mean(fn.eval(ref_run.states[step]))) for fn, step in phis]
    target = float(np.prod(ref_marginals))

    n_max = max(n_list)
    products = np.empty((len(n_list), n_resamples))
    for s in range(n_resamples):
        atoms_block = sampler(resample_rng(beta_seed, s), n_max)
        for n_idx, n in enumerate(n_list):
            run = simulate(k, atoms_block[:n], cfg)
            vals = [fn.eval(run.states[step, i]) for i, (fn, step) in enumerate(phis)]
            products[n_idx, s] = float(np.prod(vals))
    return np.abs(products.mean(axis=1) - target)


def aggregate_chaos(
    per_beta: np.ndarray,
    n_list: Sequence[int],
    r: int,
    ref_n: int,
    n_resamples: int,
) -> dict:
    """Verdicts from per-beta-path conditional gaps (one row per beta)."""
    n_beta = per_beta.shape[0]
    deltas, ses = _mean_stderr(per_beta)
    report = _report("chaos")
    metrics = report["metrics"]
    metrics.update(
        {
            "r": int(r),
            "ref_n": int(ref_n),
            "n_resamples": int(n_resamples),
            "n_beta_paths": int(n_beta),
        }
    )
    for n, delta, se in zip(n_list, deltas, ses):
        metrics[f"delta_N={n}"] = float(delta)
        metrics[f"stderr_N={n}"] = float(se)
    report["series"].append(_series("conditional_gap", n_list, deltas, ses))
    for idx in range(len(n_list) - 1):
        check = f"decreasing_{n_list[idx]}_to_{n_list[idx + 1]}"
        report["verdicts"].append(
            _verdict(check, deltas[idx + 1], deltas[idx], deltas[idx + 1] < deltas[idx])
        )
    return report


# ---------------------------------------------------------------------------
# Simulation and transport identity
# ---------------------------------------------------------------------------


def aggregate_simulate(seeds: Sequence[int], runs: Sequence[tuple]) -> dict:
    """Final second moment of each (times, states, m2) run; no verdicts.

    ``simulate`` raises on a non-finite state, so every run here is finite.
    """
    report = _report("simulate")
    report["metrics"]["n_runs"] = len(seeds)
    for seed, (_, _, m2) in zip(seeds, runs):
        report["metrics"][f"final_second_moment_seed={seed}"] = m2
    return report


def aggregate_transport(seeds: Sequence[int], residuals: Sequence[float]) -> dict:
    """One transport-identity verdict per seed's residual, which passes at
    most ``TRANSPORT_TOLERANCE`` (1e-10)."""
    report = _report("transport-check")
    for seed, res in zip(seeds, residuals):
        report["metrics"][f"residual_seed={seed}"] = float(res)
        passed = res <= TRANSPORT_TOLERANCE
        report["verdicts"].append(
            _verdict(f"transport_identity_seed={seed}", res, TRANSPORT_TOLERANCE, passed)
        )
    return report
