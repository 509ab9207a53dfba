"""Independent oracles shared by the test modules.

Finite differences, exhaustive enumeration, the general transportation LP,
the test functions only tests evaluate, and the pointwise references of
every model live here, away from the package, so the implementations they
check can never leak in; so do the wrong variants that a verdict test
must reject. The package evaluates each model through its fused
``field`` and the diagonal of sigma that ``KernelSet.sigma`` returns only;
its pair coefficients b, c and dc, the (d, d) sigma matrix and its
derivative, the mean-field sums and corrections built from them (S1 and
S2 = 1/2 Tr(grad sigma sigma^T)) and the matrix form of the
individual-noise terms are written out here and only here.
"""

import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from meanflock.dynamics import SimConfig
from meanflock.errors import DimensionMismatchError
from meanflock.kernels import KernelSet, affine_kernels
from meanflock.testfunctions import TestFunction

S1_FACTORS = {"half_both": 0.5, "paper_literal": 1.0}


def reseeded(cfg: SimConfig, seed: int) -> SimConfig:
    """``cfg`` under another master seed."""
    return SimConfig(cfg.t_final, cfg.dt, cfg.scheme, seed, cfg.s1_convention, cfg.blowup_norm)


def read_json_strict(path):
    """A run artifact's JSON; the non-strict constants NaN and (-)Infinity raise."""

    def refuse(constant):
        raise ValueError(f"{path} is not strict JSON: {constant}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def read_report(path):
    """A ``report.json``, read as ``read_json_strict`` does, with its layout checked.

    The top-level keys are exactly name, metrics, series, verdicts and
    notes; each verdict is exactly check, value, tolerance and a boolean
    pass; each series has a name and times, values and, if given, stderr of
    one length.
    """
    report = read_json_strict(path)
    assert set(report) == {"name", "metrics", "series", "verdicts", "notes"}, sorted(report)
    for verdict in report["verdicts"]:
        assert set(verdict) == {"check", "value", "tolerance", "pass"}, verdict
        assert isinstance(verdict["pass"], bool), verdict
    for series in report["series"]:
        columns = set(series) - {"name"}
        assert "name" in series and columns in ({"times", "values"}, {"times", "values", "stderr"})
        assert len({len(series[key]) for key in columns}) == 1, series["name"]
    return report


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

    The formula ``Truncation.chi_ratio`` applied before it restricted the
    quintic to the transition band, with chi' = P'(u) / margin in the float
    order of ``testfunctions.quintic``; its chi and chi'/s must match the
    band-only form bit for bit.
    """
    u = (s - radius) / margin
    inside = (u > 0.0) & (u < 1.0)
    uc = np.where(inside, u, 0.0)
    core = uc * uc * uc * (10.0 + uc * (-15.0 + 6.0 * uc))
    chi = np.where(u >= 1.0, 0.0, np.where(inside, 1.0 - core, 1.0))
    one_m = 1.0 - uc
    cp = np.where(inside, -30.0 * uc * uc * one_m * one_m / margin, 0.0)
    return chi, cp


def chi_ratio_table(truncation, s):
    """``Truncation.chi_ratio`` at speeds s, squared into a new table, with the
    band's chi'/s scattered into a zero table of s's shape: (chi, band, chi'/s
    at every entry)."""
    chi, band, ratio = truncation.chi_ratio(np.multiply(s, s, out=np.empty(np.shape(s))))
    table = np.zeros(np.shape(s))
    table.put(band, ratio)
    return chi, band, table


def truncate(truncation, v):
    """R(v) = v chi(|v|), with chi from the whole-table formula."""
    s = np.sqrt(np.einsum("...k,...k->...", v, v))
    return v * chi_both_whole_table(truncation.radius, truncation.margin, s)[0][..., None]


class PointwiseReference:
    """Pointwise coefficients of one model over R^dim, one pair at a time.

    ``b(x, y)`` is the pair drift, ``c(x, y)`` the common-noise coefficient
    and ``dc(x, y, ex, ey) = grad_x c ex + grad_y c ey`` its directional
    derivative; each broadcasts over leading axes, and None means
    identically zero. ``sigma(x)`` is the individual noise and
    ``grad_sigma(x)[..., i, l, k] = d sigma_{i,l} / d x_k`` its derivative,
    both None without individual noise.
    """

    __slots__ = ("dim", "b", "c", "dc", "sigma", "grad_sigma")

    def __init__(self, dim, b=None, c=None, dc=None, sigma=None, grad_sigma=None):
        self.dim, self.b, self.c, self.dc = dim, b, c, dc
        self.sigma, self.grad_sigma = sigma, grad_sigma

    def check_point(self, x, argument):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(argument, self.dim, x.shape[-1])
        return x


def with_sigma(ref, noise):
    """``ref`` with the individual noise of the reference ``noise``."""
    return PointwiseReference(ref.dim, ref.b, ref.c, ref.dc, noise.sigma, noise.grad_sigma)


def constant_sigma_reference(matrix):
    """No interaction; sigma(x) = matrix at every x, so grad sigma = 0."""
    dim = matrix.shape[0]
    return PointwiseReference(
        dim,
        sigma=lambda x: np.broadcast_to(matrix, x.shape[:-1] + (dim, dim)),
        grad_sigma=lambda x: np.zeros(x.shape[:-1] + (dim, dim, dim)),
    )


def velocity_noise_reference(ref, sigma_v):
    """``ref`` over (x, v) plus constant individual noise sigma_v on velocities."""
    d = ref.dim // 2
    matrix = np.zeros((ref.dim, ref.dim))
    matrix[d:, d:] = sigma_v * np.eye(d)
    return with_sigma(ref, constant_sigma_reference(matrix))


def _pair_shape(*args):
    return np.broadcast_shapes(*(a.shape for a in args))


def affine_reference(dim, b0=0.0, bx=0.0, c0=0.0, cx=0.0, cy=0.0, s0=0.0, sx=0.0):
    """The affine model one pair at a time: b(x, y) = b0 + bx x and
    c(x, y) = c0 + cx x + cy y, so dc(x, y, ex, ey) = cx ex + cy ey, with b0
    and c0 numbers or (dim,) vectors; sigma(x) = s0 I + sx diag(x), so grad
    sigma has the one entry sx at i = l = k. c is None when c0, cx and cy
    are 0, and sigma when s0 and sx are."""
    b0, c0 = (np.broadcast_to(np.asarray(v, dtype=float), (dim,)) for v in (b0, c0))
    idx = np.arange(dim)

    def b(x, y):
        return np.broadcast_to(b0 + bx * x, _pair_shape(x, y))

    def c(x, y):
        return np.broadcast_to(c0 + cx * x + cy * y, _pair_shape(x, y))

    def dc(x, y, ex, ey):
        return np.broadcast_to(cx * ex + cy * ey, _pair_shape(x, y, ex, ey))

    def sigma(x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        out[..., idx, idx] = s0 + sx * x
        return out

    def grad_sigma(x):
        out = np.zeros(x.shape[:-1] + (dim, dim, dim))
        out[..., idx, idx, idx] = sx
        return out

    common = np.any(c0 != 0.0) or cx != 0.0 or cy != 0.0
    noise = s0 != 0.0 or sx != 0.0
    return PointwiseReference(dim, b, c if common else None, dc if common else None,
                              sigma if noise else None, grad_sigma if noise else None)


def affine_without_y_derivative(dim, cx, cy):
    """A wrong variant of ``affine_kernels(dim, cx=cx, cy=cy)``: its S1 keeps
    the cx term, factor cx C[mu](q) W, and drops the cy term, the part the
    y-argument of c (the measure derivative) adds on its own."""
    right = affine_kernels(dim, cx=cx, cy=cy)

    def field(atoms, weights, queries, factor):
        drift, common = right.field(atoms, weights, queries, None)
        if factor is not None:
            drift = drift + factor * cx * common * weights.sum()
        return drift, common

    return KernelSet(dim, field)


def _rational(amplitude, exponent, r_sq):
    return amplitude * (1.0 + r_sq) ** (-exponent)


def cucker_smale_reference(p):
    """Pointwise reference of ``cucker_smale_kernels(p)``.

    b = (v, psi(x-y)(w-v)), c = (0, phi(x-y) R(w-v)) and dc the derivative
    of c along (ex, ey), each one pair at a time; the fused field must agree
    with their mean-field sums.
    """
    d = p.half_dim
    dim = 2 * d
    trunc = p.truncation

    def split(z):
        return z[..., :d], z[..., d:]

    def b(z1, z2):
        x, v = split(z1)
        y, w = split(z2)
        r = x - y
        psi = _rational(p.lam, p.gamma, np.einsum("...k,...k->...", r, r))
        out = np.empty(psi.shape + (dim,))
        out[..., :d] = v
        out[..., d:] = psi[..., None] * (w - v)
        return out

    def pair(z1, z2):
        """r = x - y, u = w - v, |r|^2, phi(|r|^2), R(u) and, with a
        truncation, (chi, chi'/s) at s = |u| (both None without one)."""
        x, v = split(z1)
        y, w = split(z2)
        r = x - y
        u = w - v
        r_sq = np.einsum("...k,...k->...", r, r)
        phi = _rational(p.phi_lam, p.phi_gamma, r_sq)
        if trunc is None:
            return r, u, r_sq, phi, u, None, None
        s = np.sqrt(np.einsum("...k,...k->...", u, u))
        chi, cp = chi_both_whole_table(trunc.radius, trunc.margin, s)
        ratio = np.where(s > 0, cp / np.where(s > 0, s, 1.0), 0.0)
        return r, u, r_sq, phi, u * chi[..., None], chi, ratio

    def c(z1, z2):
        _, _, _, phi, ru, _, _ = pair(z1, z2)
        out = np.zeros(phi.shape + (dim,))
        out[..., d:] = phi[..., None] * ru
        return out

    def dc(z1, z2, e1, e2):
        """(0, 2 phi'(|r|^2) (r . dr) R(u) + phi J_R(u) du) along the
        direction dr = e1_x - e2_x, du = e2_v - e1_v, where
        J_R(u) = chi I + (chi'/s) u u^T."""
        r, u, r_sq, phi, ru, chi, ratio = pair(z1, z2)
        ex, ev = split(e1)
        ey, ew = split(e2)
        dr = ex - ey
        du = ew - ev
        r_dr = np.einsum("...k,...k->...", r, dr)
        if chi is None:
            jdu = du
        else:
            u_du = np.einsum("...k,...k->...", u, du)
            jdu = chi[..., None] * du + (ratio * u_du)[..., None] * u
        phi_prime = _rational(-p.phi_gamma * p.phi_lam, p.phi_gamma + 1.0, r_sq)
        vel = (2.0 * phi_prime * r_dr)[..., None] * ru + phi[..., None] * jdu
        out = np.zeros(vel.shape[:-1] + (dim,))
        out[..., d:] = vel
        return out

    noisy = p.phi_lam > 0.0
    return PointwiseReference(dim, b, c if noisy else None, dc if noisy else None)


def eval_s1(k, x, y, z, s1_convention="half_both"):
    """Stratonovich-to-Ito corrective kernel s1(x, y, z) of a pointwise reference."""
    factor = S1_FACTORS[s1_convention]
    x = k.check_point(x, "x")
    y = k.check_point(y, "y")
    z = k.check_point(z, "z")
    if k.c is None:
        return np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape))
    return factor * k.dc(x, y, k.c(x, z), k.c(y, z))


def eval_S2(k, x):
    """Individual-noise corrective drift 1/2 Tr(grad sigma sigma^T) of a
    pointwise reference at x."""
    x = k.check_point(x, "x")
    if k.sigma is None:
        return np.zeros(x.shape)
    return 0.5 * np.einsum("...ilk,...kl->...i", k.grad_sigma(x), k.sigma(x))


def diag_matrix(s):
    """The (..., d, d) matrices with diagonal s and exact zeros elsewhere."""
    out = np.zeros(s.shape + s.shape[-1:])
    idx = np.arange(s.shape[-1])
    out[..., idx, idx] = s
    return out


def weakform_sigma_terms(run, psi, sigma):
    """Per step of ``run``, the weak form's individual-noise generator term
    <1/2 Tr(sigma sigma^T hess psi), mu> and QV increment (1/N) <|sigma^T
    grad psi|^2, mu>, from the (n, d, d) matrices ``sigma(x)`` by the
    general contractions."""
    gen, qv = np.zeros(run.config.steps), np.zeros(run.config.steps)
    for t, x in enumerate(run.states[:-1]):
        sig, w = sigma(x), run.weights
        gen[t] = 0.5 * np.sum(w * np.einsum("nik,njk,nij->n", sig, sig, psi.hess(x)))
        sig_grad = np.einsum("nij,ni->nj", sig, psi.grad(x))
        qv[t] = (1.0 / run.n_atoms) * np.sum(w * np.einsum("nj,nj->n", sig_grad, sig_grad))
    return gen, qv


def _require_atoms(k, atoms):
    if atoms.shape[0] == 0:
        raise ValueError("mean-field evaluation against an empty measure")
    if atoms.shape[1] != k.dim:
        raise DimensionMismatchError("atoms", k.dim, atoms.shape[1])


def mean_field_B(k, atoms, weights, x):
    """Drift field B[mu](x) = sum_j w_j b(x, y_j) of a pointwise reference,
    mu = sum_j w_j delta_{y_j} as the package's fields take it."""
    _require_atoms(k, atoms)
    x = k.check_point(x, "x")
    if k.b is None:
        return np.zeros(x.shape)
    return np.einsum("j,...jd->...d", weights, k.b(x[..., None, :], atoms))


def mean_field_C(k, atoms, weights, x):
    """Common-noise field C[mu](x) = sum_j w_j c(x, y_j) of a pointwise reference."""
    _require_atoms(k, atoms)
    x = k.check_point(x, "x")
    if k.c is None:
        return np.zeros(x.shape)
    return np.einsum("j,...jd->...d", weights, k.c(x[..., None, :], atoms))


def mean_field_S(k, atoms, weights, x, s1_convention="half_both"):
    """Full corrective field S[mu](x) = S1[mu](x) + S2(x) of a pointwise reference.

    The double integral S1[mu](x) = sum_{j,l} w_j w_l s1(x, y_j, y_l)
    factorizes through C[mu]: S1[mu](x) = factor sum_j w_j
    dc(x, y_j, C[mu](x), C[mu](y_j)).
    """
    _require_atoms(k, atoms)
    x = k.check_point(x, "x")
    out = eval_S2(k, x)
    if k.c is None:
        return out
    w = weights
    c_q = np.einsum("j,...jd->...d", w, k.c(x[..., None, :], atoms))
    c_atoms = np.einsum("j,mjd->md", w, k.c(atoms[:, None, :], atoms[None, :, :]))
    s1 = k.dc(x[..., None, :], atoms, c_q[..., None, :], c_atoms)
    return out + S1_FACTORS[s1_convention] * np.einsum("j,...jd->...d", w, s1)


def transport_lp_cost(dist, wa, wb, p):
    """General weighted W_p^p through the transportation LP (HiGHS).

    One column-marginal constraint is dropped: it is implied by the others
    because both weight vectors sum to 1.
    """
    n, m = dist.shape
    row_idx = np.concatenate([np.repeat(np.arange(n), m), n + np.repeat(np.arange(m - 1), n)])
    col_idx = np.concatenate(
        [np.arange(n * m), np.arange(n * m).reshape(n, m)[:, :-1].ravel(order="F")]
    )
    a_eq = sparse.csr_matrix(
        (np.ones(row_idx.size), (row_idx, col_idx)), shape=(n + m - 1, n * m)
    )
    b_eq = np.concatenate([wa, wb[:-1]])
    res = linprog((dist**p).ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


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


def peak_traced_bytes(f):
    """Peak bytes numpy and Python allocate during one call of ``f``, after
    a warm-up call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def squared_distances_broadcast(a, b):
    """(n, m) squared distances sum_k (a_ik - b_jk)^2 from broadcast
    differences, added one coordinate at a time in the package's order.

    ``transport._squared_distances`` builds each difference table as a
    matrix product instead; the two must agree bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, None, k] - b[None, :, k]
        out += diff * diff
    return out


def position_spread_reference(run):
    """``observed_position_spread`` from an (N, N, d) table and an einsum per time.

    The formula the package used before it kept a running maximum of
    squared distances in reused buffers; the two must agree bit for bit.
    """
    d = run.dim // 2
    worst = 0.0
    for t in range(run.times.size):
        x = run.states[t, :, :d]
        diff = x[:, None, :] - x[None, :, :]
        worst = max(worst, float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", diff, diff)))))
    return worst


def gaussian(center, width: float, dim: int | None = None) -> TestFunction:
    """psi(x) = exp(-|x - c|^2 / (2 w^2)); smooth with bounded derivatives."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if dim is not None and center.size == 1 and dim > 1:
        center = np.full(dim, center[0])
    d = center.size
    w_sq = width * width

    def eval_(x):
        diff = np.asarray(x, dtype=float) - center
        return np.exp(-np.einsum("...k,...k->...", diff, diff) / (2.0 * w_sq))

    def grad(x):
        x = np.asarray(x, dtype=float)
        diff = x - center
        return eval_(x)[..., None] * (-diff / w_sq)

    def hess(x):
        x = np.asarray(x, dtype=float)
        diff = x - center
        outer = diff[..., :, None] * diff[..., None, :]
        return eval_(x)[..., None, None] * (outer / w_sq**2 - np.eye(d) / w_sq)

    return TestFunction(eval=eval_, grad=grad, hess=hess)


def coordinate(index: int, dim: int) -> TestFunction:
    """psi(x) = x_index; linear, so the Hessian vanishes."""
    e = np.zeros(dim)
    e[index] = 1.0

    def eval_(x):
        return np.asarray(x, dtype=float)[..., index]

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(e, x.shape).copy()

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (dim,))

    return TestFunction(eval=eval_, grad=grad, hess=hess)


def constant(value: float = 1.0) -> TestFunction:
    """psi(x) = value; every derivative vanishes."""
    def eval_(x):
        return np.full(np.asarray(x).shape[:-1], value)

    def grad(x):
        return np.zeros(np.asarray(x, dtype=float).shape)

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (x.shape[-1],))

    return TestFunction(eval=eval_, grad=grad, hess=hess)


def shifted(tf: TestFunction, center) -> TestFunction:
    """tf moved to ``center``: its value, gradient and Hessian at z - center."""
    center = np.asarray(center, dtype=float)

    def at(f):
        return lambda z: f(np.asarray(z, dtype=float) - center)

    return TestFunction(eval=at(tf.eval), grad=at(tf.grad), hess=at(tf.hess))
