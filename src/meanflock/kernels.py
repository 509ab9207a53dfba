"""Interaction kernels, their Ito corrective terms, and mean-field fields.

A :class:`KernelSet` describes one model through exactly one evaluation
path for its mean-field sums, plus the individual-noise coefficient
``sigma(x)`` and its derivative:

* fused: ``field(atoms, weights, queries, factor) -> (drift, common)``
  gives B[mu] + factor S1[mu] and C[mu] at once (``factor`` None: no
  correction). The Cucker-Smale builder supplies it, as weighted matrix
  products over one (m, n) distance table;
* pointwise: the pair drift ``b(x, y)``, the common-noise coefficient
  ``c(x, y)`` (scalar driving noise) and its directional derivative
  ``dc(x, y, ex, ey) = grad_x c(x,y) ex + grad_y c(x,y) ey``, summed over
  pair tables. The generic test kernels supply these; every closure
  broadcasts over leading axes like ``c`` does over two arguments.

``grad_sigma(x)[..., i, l, k] = d sigma_{i,l} / d x_k`` either way.

The corrective drift converting circle (Stratonovich) dynamics to their Ito
form is built from ``s1(x, y, z) = 1/2 dc(x, y, c(x,z), c(y,z))`` and
``S2(x) = 1/2 Tr(grad sigma sigma^T)``; averaged over the measure, s1 is the
derivative of c along the common field, S1[mu](q) = 1/2 sum_j w_j
dc(q, y_j, C[mu](q), C[mu](y_j)). ``s1_convention="paper_literal"`` drops
the 1/2 on s1 entirely; it exists so the integrator cross-validation can
demonstrate that this variant is wrong.

:func:`field_drift_diffusion` is the one evaluator the stepper and the
characteristics solver call. On the Cucker-Smale field the direction of dc
is (C[mu](q), C[mu](y_j)); its C has no position block, so the position
part dr of that direction is 0 and dc's phi' term, which carries r . dr,
vanishes exactly. Pointwise references of the Cucker-Smale coefficients and
of the mean-field integrals live with the tests, which hold the fused field
to them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError

S1_CONVENTIONS = ("half_both", "paper_literal")


def _s1_factor(convention: str) -> float:
    if convention not in S1_CONVENTIONS:
        raise ValueError(f"unknown s1 convention {convention!r}, expected one of {S1_CONVENTIONS}")
    return 0.5 if convention == "half_both" else 1.0


@dataclass(frozen=True)
class KernelSet:
    """Coefficients of one interacting-particle model over R^dim.

    A kernel carries one evaluation path (see the module docstring): either
    the fused ``field`` or the pointwise ``b``/``c``/``dc``, never both.
    On the pointwise path ``b``/``c`` set to None mean identically zero and
    let the simulator skip that work, and ``c`` needs its directional
    derivative ``dc``. ``sigma`` set to None means no individual noise;
    otherwise ``grad_sigma`` is required, and S2 is added outside either
    path. Derivatives are analytic by contract, finite differences are
    reserved for test oracles.
    """

    dim: int
    b: Optional[Callable] = None
    c: Optional[Callable] = None
    dc: Optional[Callable] = None
    sigma: Optional[Callable] = None
    grad_sigma: Optional[Callable] = None
    field: Optional[Callable] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("kernel dimension must be >= 1")
        if self.field is not None and any(f is not None for f in (self.b, self.c, self.dc)):
            raise ValueError("kernel with a fused field takes no pointwise b, c or dc")
        if self.c is not None and self.dc is None:
            raise ValueError("kernel with common noise needs dc")
        if self.sigma is not None and self.grad_sigma is None:
            raise ValueError("kernel with individual noise needs grad_sigma")

    def check_point(self, x: np.ndarray, argument: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(argument, self.dim, x.shape[-1])
        return x


def eval_S2(k: KernelSet, x) -> np.ndarray:
    """Individual-noise corrective drift 1/2 Tr(grad sigma sigma^T) at x."""
    x = k.check_point(x, "x")
    if k.sigma is None:
        return np.zeros(x.shape)
    return 0.5 * np.einsum("...ilk,...kl->...i", k.grad_sigma(x), k.sigma(x))


def field_drift_diffusion(
    k: KernelSet,
    atoms: np.ndarray,
    weights: np.ndarray,
    queries: np.ndarray,
    s1_convention: str = "half_both",
    include_correction: bool = True,
):
    """Batched mean-field fields against an atom cloud.

    Returns ``(drift, common_diff)`` evaluated at every query point, where
    drift is B[mu] plus, when ``include_correction``, the Ito correction
    S[mu] = S1[mu] + S2, and ``common_diff`` is C[mu] (None when the kernel
    carries no common noise). This is the single evaluation path shared by
    the particle stepper and the frozen-field characteristics solver, which
    is what makes the discrete transport identity exact.
    """
    factor = _s1_factor(s1_convention) if include_correction else None
    if k.field is not None:
        drift, common = k.field(atoms, weights, queries, factor)
    else:
        drift, common = _pointwise_field(k, atoms, weights, queries, factor)
    if k.sigma is not None and include_correction:
        drift += eval_S2(k, queries)
    return drift, common


def _pointwise_field(k: KernelSet, atoms, weights, queries, factor):
    """B[mu] + factor S1[mu] and C[mu] as weighted sums of pair tables."""
    m = queries.shape[0]
    drift = np.zeros((m, k.dim))
    q = queries[:, None, :]
    a = atoms[None, :, :]
    if k.b is not None:
        drift += np.einsum("j,mjd->md", weights, k.b(q, a))
    common = None
    if k.c is not None:
        common = np.einsum("j,mjd->md", weights, k.c(q, a))
        if factor is not None:
            # C[mu] at the atoms; the stepper queries the atoms themselves
            if queries is atoms:
                c_atoms = common
            else:
                c_atoms = np.einsum("j,mjd->md", weights, k.c(atoms[:, None, :], a))
            s1 = k.dc(q, a, common[:, None, :], c_atoms[None, :, :])
            drift += factor * np.einsum("j,mjd->md", weights, s1)
    return drift, common


# ---------------------------------------------------------------------------
# Cucker-Smale family
# ---------------------------------------------------------------------------


def _rational_weight(amplitude: float, exponent: float, r_sq: np.ndarray) -> np.ndarray:
    """amplitude / (1 + r^2)^exponent with fast paths for small integer powers."""
    if amplitude == 0.0:
        return np.zeros(np.shape(r_sq))
    if exponent == 0.0:
        return np.full(np.shape(r_sq), amplitude)
    base = 1.0 + r_sq
    if exponent == 1.0:
        return amplitude / base
    if exponent == 2.0:
        return amplitude / (base * base)
    return amplitude * base ** (-exponent)


@dataclass(frozen=True)
class Truncation:
    """C^2 velocity truncation: R(v) = v * chi(|v|), chi quintic smoothstep.

    chi is 1 on [0, radius], 0 beyond radius + margin.
    """

    radius: float
    margin: float

    def __post_init__(self):
        if self.radius <= 0 or self.margin <= 0:
            raise ValueError("truncation radius and margin must be positive")

    def chi_both(self, s: np.ndarray):
        """(chi(s), chi'(s)); the quintic is evaluated on the band entries only."""
        u = np.asarray((s - self.radius) / self.margin)
        chi = np.where(u >= 1.0, 0.0, 1.0)
        cp = np.zeros(u.shape)
        band = (u > 0.0) & (u < 1.0)
        ub = u[band]
        chi[band] = 1.0 - ub * ub * ub * (10.0 + ub * (-15.0 + 6.0 * ub))
        one_m = 1.0 - ub
        cp[band] = (-30.0 / self.margin) * ub * ub * one_m * one_m
        return chi, cp

    def chi_ratio(self, v: np.ndarray):
        """(chi(s), chi'(s)/s) at s = |v|, the two scalars of the Jacobian."""
        s = np.sqrt(np.einsum("...k,...k->...", v, v))
        chi, cp = self.chi_both(s)
        # chi' vanishes identically for s <= radius, so the ratio is safe
        return chi, np.where(s > 0, cp / np.where(s > 0, s, 1.0), 0.0)


@dataclass(frozen=True)
class CuckerSmaleParams:
    """Parameters of the flocking kernels over states (x, v) in R^{2 half_dim}.

    The alignment weight is psi(r) = lam / (1 + |r|^2)^gamma and the
    common-noise weight phi has the same rational form with (phi_lam,
    phi_gamma). A positive phi_lam switches on the noisy-interaction term
    phi(x - y) R(w - v) circle d beta.
    """

    half_dim: int
    lam: float = 1.0
    gamma: float = 1.0
    phi_lam: float = 0.0
    phi_gamma: float = 0.0
    truncation: Optional[Truncation] = None

    def __post_init__(self):
        if self.half_dim < 1:
            raise ValueError("half_dim must be >= 1")
        if self.lam <= 0:
            raise ValueError("psi amplitude lam must be positive")
        if self.gamma < 0:
            raise ValueError("psi exponent gamma must be >= 0")
        if self.phi_lam < 0 or self.phi_gamma < 0:
            raise ValueError("phi parameters must be >= 0")

    def psi(self, r_sq: np.ndarray) -> np.ndarray:
        return _rational_weight(self.lam, self.gamma, r_sq)

    def phi(self, r_sq: np.ndarray) -> np.ndarray:
        return _rational_weight(self.phi_lam, self.phi_gamma, r_sq)

    def psi_inf(self, window: float) -> float:
        """inf of psi over |r| <= window (psi decreases in |r|)."""
        return float(self.psi(np.asarray(window) ** 2))

    def phi_sup(self) -> float:
        return self.phi_lam


def cucker_smale_kernels(p: CuckerSmaleParams) -> KernelSet:
    """Flocking KernelSet over R^{2d} with b = (v, psi(x-y)(w-v)) and
    c = (0, phi(x-y) R(w-v)), supplied as one fused ``field``."""
    d = p.half_dim
    dim = 2 * d

    def split(z):
        return z[..., :d], z[..., d:]

    has_noise = p.phi_lam > 0.0
    trunc = p.truncation

    # Every pair term is a scalar weight times a velocity difference, so
    # each mean-field sum is a matrix product over the (m, n) weight table,
    # sum_j W_qj (v_j - v_q) = (W @ V)_q - (W 1)_q v_q.

    def sq_dist(xq, xa):
        r = xq[:, None, :] - xa[None, :, :]
        return np.einsum("mnk,mnk->mn", r, r)

    def pair_sum(weight, va, vq):
        """sum_j weight_qj (va_j - vq_q) for every query q."""
        return weight @ va - weight.sum(axis=1)[:, None] * vq

    def noise_weights(r_sq, vq, va, weights):
        """(w_j phi, w_j phi chi, chi'/s, u = v_j - v_q) on the pair table;
        without a truncation chi = 1 and the last two are None."""
        w_phi = weights * p.phi(r_sq)
        if trunc is None:
            return w_phi, w_phi, None, None
        u = va[None, :, :] - vq[:, None, :]
        chi, ratio = trunc.chi_ratio(u)
        return w_phi, w_phi * chi, ratio, u

    def field(atoms, weights, queries, factor):
        """(B[mu] + factor S1[mu], C[mu]) at the queries; factor None skips S1."""
        xq, vq = split(queries)
        xa, va = split(atoms)
        r_sq = sq_dist(xq, xa)
        drift = np.empty(queries.shape)
        drift[:, :d] = vq * weights.sum()
        drift[:, d:] = pair_sum(weights * p.psi(r_sq), va, vq)
        if not has_noise:
            return drift, None
        w_phi, w_c, ratio, u = noise_weights(r_sq, vq, va, weights)
        cq = pair_sum(w_c, va, vq)
        common = np.zeros(queries.shape)
        common[:, d:] = cq
        if factor is None:
            return drift, common
        # C[mu] at the atoms; the stepper queries the atoms themselves
        if queries is atoms:
            ca = cq
        else:
            ca = pair_sum(noise_weights(sq_dist(xa, xa), va, va, weights)[1], va, va)
        # S1 = factor sum_j w_j dc(q, y_j, C(q), C(y_j)). C has no position
        # block, so dr = 0 and dc's phi' term (r . dr) vanishes exactly; what
        # is left is phi J_R(u) du = phi chi du + phi chi'/s (u . du) u with
        # du = C_v(y_j) - C_v(q).
        s1 = pair_sum(w_c, ca, cq)
        if ratio is not None:
            du = ca[None, :, :] - cq[:, None, :]
            s1 += pair_sum(w_phi * ratio * np.einsum("mnk,mnk->mn", u, du), va, vq)
        drift[:, d:] += factor * s1
        return drift, common

    return KernelSet(dim=dim, field=field)


def _constant_sigma(matrix: np.ndarray) -> dict:
    """KernelSet fields for sigma(x) = matrix at every x (grad sigma = 0)."""
    dim = matrix.shape[0]

    def sigma(x):
        return np.broadcast_to(matrix, x.shape[:-1] + (dim, dim))

    def grad_sigma(x):
        return np.zeros(x.shape[:-1] + (dim, dim, dim))

    return {"sigma": sigma, "grad_sigma": grad_sigma}


def with_velocity_noise(base: KernelSet, sigma_v: float) -> KernelSet:
    """A position-velocity kernel plus constant individual noise sigma_v on velocities."""
    d = base.dim // 2
    diag = np.zeros((base.dim, base.dim))
    diag[d:, d:] = sigma_v * np.eye(d)
    return replace(base, **_constant_sigma(diag))


# ---------------------------------------------------------------------------
# Generic test kernels
# ---------------------------------------------------------------------------


def zero_kernels(dim: int) -> KernelSet:
    return KernelSet(dim=dim)


def constant_drift_kernels(dim: int, drift) -> KernelSet:
    b0 = np.broadcast_to(np.asarray(drift, dtype=float), (dim,))

    def b(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)
        return np.broadcast_to(b0, shape)

    return KernelSet(dim=dim, b=b)


def linear_drift_kernels(dim: int, rate: float = 1.0) -> KernelSet:
    """b(x, y) = rate * x; the classical exponential-growth test drift."""

    def b(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)
        return rate * np.broadcast_to(x, shape)

    return KernelSet(dim=dim, b=b)


def constant_common_kernels(dim: int, value) -> KernelSet:
    """c(x, y) = value, additive common noise; all corrective terms vanish."""
    c0 = np.broadcast_to(np.asarray(value, dtype=float), (dim,))

    def c(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)
        return np.broadcast_to(c0, shape)

    def dc(x, y, ex, ey):
        return np.zeros(np.broadcast_shapes(x.shape, y.shape, ex.shape, ey.shape))

    return KernelSet(dim=dim, c=c, dc=dc)


def linear_common_kernels(dim: int, rate: float = 1.0) -> KernelSet:
    """c(x, y) = rate * x, a geometric common noise; s1(x, y, z) = rate^2 x / 2."""

    def c(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)
        return rate * np.broadcast_to(x, shape)

    def dc(x, y, ex, ey):
        shape = np.broadcast_shapes(x.shape, y.shape, ex.shape, ey.shape)
        return rate * np.broadcast_to(ex, shape)

    return KernelSet(dim=dim, c=c, dc=dc)


def diag_individual_kernels(dim: int, rate: float = 1.0) -> KernelSet:
    """sigma(x) = rate * diag(x); S2(x) = rate^2 x / 2."""

    def sigma(x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        idx = np.arange(dim)
        out[..., idx, idx] = rate * x
        return out

    def grad_sigma(x):
        out = np.zeros(x.shape[:-1] + (dim, dim, dim))
        idx = np.arange(dim)
        out[..., idx, idx, idx] = rate
        return out

    return KernelSet(dim=dim, sigma=sigma, grad_sigma=grad_sigma)


def constant_individual_kernels(dim: int, scale: float = 1.0) -> KernelSet:
    """sigma(x) = scale * I, additive individual noise."""
    return KernelSet(dim=dim, **_constant_sigma(scale * np.eye(dim)))


# builders of the generic test kernels, keyed by model name
GENERIC_KERNELS = {
    "zero": zero_kernels,
    "constant-drift": constant_drift_kernels,
    "linear-drift": linear_drift_kernels,
    "linear-common": linear_common_kernels,
    "constant-common": constant_common_kernels,
    "diag-individual": diag_individual_kernels,
    "constant-individual": constant_individual_kernels,
}
