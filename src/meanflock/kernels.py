"""Interaction kernels, their Ito corrective terms, and mean-field fields.

A :class:`KernelSet` describes one model through one contract: the fused
``field(atoms, weights, queries, factor) -> (drift, common)`` gives the Ito
drift B[mu] + factor S1[mu] + S2 and C[mu] at the queries at once
(``factor`` None: the uncorrected drift B[mu]; ``common`` None: no common
noise), and ``sigma(x)``, shaped like x, is the diagonal s(x) of the
individual-noise coefficient, which is diagonal in every model, or None.

The Cucker-Smale builder computes its field as products of unweighted
(m, n) pair tables with the weighted atoms: one distance table that psi
overwrites in place, none for a weight whose exponent is 0 (it is one (n,)
row shared by every query), and a few more with a truncation or when C is
needed at atoms that are not the queries. The affine model, b(x, y) =
b0 + bx x, c(x, y) = c0 + cx x + cy y and s(x) = s0 + sx x,
has O(N) closed forms in the total weight W = sum_j w_j and the weighted
sum m = sum_j w_j y_j, with no pair table: B = b0 W + bx q W, C = c0 W +
cx q W + cy m, S1 = factor (cx C(q) W + cy W (c0 W + (cx + cy) m)) and
S2 = sx (s0 + sx q) / 2 coordinate-wise. The cy term of S1 is
sum_j w_j cy C(y_j), the part that the y-argument of c, the measure
derivative, adds on its own.

The truncation R(v) = v chi(|v|) of the Cucker-Smale noise is C^2: chi is
the test functions' quintic smoothstep ``testfunctions.quintic``, decided by
the squared speeds off its band and taken, root and all, on the band only.

The corrective drift converting circle (Stratonovich) dynamics to their Ito
form is built from ``s1(x, y, z) = 1/2 dc(x, y, c(x,z), c(y,z))``, with dc
the directional derivative of the common-noise pair coefficient c, and
``S2(x) = 1/2 Tr(grad sigma sigma^T)`` (Kloeden & Platen, Numerical
Solution of SDEs, 1992, section 4.9), which for the diagonal s is
S2_i = 1/2 s_i d_i s_i and vanishes for a constant sigma;
averaged over the measure, s1 is the derivative of c along the common
field, S1[mu](q) = 1/2 sum_j w_j dc(q, y_j, C[mu](q), C[mu](y_j)). The
field takes the factor on s1 as a number, which ``SimConfig.s1_factor``
resolves from the run's convention: 1/2, or 1 under ``paper_literal``, a
variant that exists so the integrator cross-validation can demonstrate
that it is wrong.

:func:`field_drift_diffusion` is the one evaluator the stepper and the
characteristics solver call. On the Cucker-Smale field the direction of dc
is (C[mu](q), C[mu](y_j)); its C has no position block, so the position
part dr of that direction is 0 and dc's phi' term, which carries r . dr,
vanishes exactly. The pointwise b, c, dc, sigma matrix and its gradient
of every model, and the mean-field sums over them, live with the tests,
which hold each field to them.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .config import check_cucker_smale, check_dim, check_truncation
from .testfunctions import quintic
from .transport import _squared_distances


class KernelSet:
    """Coefficients of one interacting-particle model over R^dim.

    ``field`` is the model's fused mean-field evaluation (see the module
    docstring) and is required; with a factor its drift includes every Ito
    correction, S2 too. ``sigma(x)`` is the diagonal s(x) of the individual
    noise, shaped like x; None means no individual noise.
    The constructor checks these rules. Corrections are closed forms by
    contract, finite differences are reserved for test oracles.
    """

    __slots__ = ("dim", "field", "sigma")

    # Read only by the benchmark tracer (bench/tracing.py), which sizes a
    # common-noise Jacobian when a kernel's c is not None; no field builds one.
    c = None

    def __init__(self, dim: int, field: Callable, sigma: Optional[Callable] = None):
        check_dim(dim)
        if field is None:
            raise ValueError("kernel needs a field")
        self.dim, self.field, self.sigma = dim, field, sigma


def field_drift_diffusion(
    k: KernelSet,
    atoms: np.ndarray,
    weights: np.ndarray,
    queries: np.ndarray,
    factor: Optional[float],
):
    """Batched mean-field fields against an atom cloud.

    Returns ``k.field``'s ``(drift, common_diff)`` at every query point,
    where drift is B[mu] + factor S1[mu] + S2, with ``factor`` a run's
    ``SimConfig.s1_factor``, or B[mu] alone when ``factor`` is None;
    ``common_diff`` is C[mu] (None when the kernel carries no common noise).
    This is the single evaluation path shared by the particle stepper and
    the frozen-field characteristics solver, which is what makes the
    discrete transport identity exact.
    """
    return k.field(atoms, weights, queries, factor)


# ---------------------------------------------------------------------------
# Cucker-Smale family
# ---------------------------------------------------------------------------


def _rational_weight(
    amplitude: float, exponent: float, r_sq: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """amplitude / (1 + r^2)^exponent, computed in ``out`` when given (it may
    be ``r_sq`` itself), with fast paths for small integer powers."""
    base = np.add(r_sq, 1.0, out=np.empty(np.shape(r_sq)) if out is None else out)
    if exponent == 1.0:
        return np.divide(amplitude, base, out=base)
    if exponent == 2.0:
        base *= base
        return np.divide(amplitude, base, out=base)
    np.power(base, -exponent, out=base)
    base *= amplitude
    return base


class Truncation:
    """C^2 velocity truncation: R(v) = v * chi(|v|), chi(s) = P((s - radius) /
    margin) with P the quintic smoothstep.

    chi is 1 for s^2 <= radius^2 and 0 for s^2 >= (radius + margin)^2; the
    constructor checks that radius and margin are positive.
    """

    __slots__ = ("radius", "margin")

    def __init__(self, radius: float, margin: float):
        check_truncation(radius, margin)
        self.radius, self.margin = radius, margin

    def chi_ratio(self, s_sq: np.ndarray):
        """(chi(s), band, chi'(s)/s on the band) at s = |v| from s_sq = |v|^2, which
        chi overwrites, for the Jacobian J_R(v) = chi I + (chi'/s) v v^T. ``band``
        holds the flat indices where radius^2 < s_sq < (radius + margin)^2, the
        only ones where chi' is not 0; s and the quintic are taken there alone."""
        outer = (self.radius + self.margin) * (self.radius + self.margin)
        band = np.flatnonzero((s_sq > self.radius * self.radius) & (s_sq < outer))
        s = np.sqrt(s_sq.take(band))
        val, d1, _ = quintic((s - self.radius) / self.margin)
        # chi is 1 below the band and 0 beyond it; it takes the squares' table
        chi = np.less(s_sq, outer, out=s_sq)
        chi.put(band, val)
        # s > radius > 0 on the band
        return chi, band, d1 / self.margin / s


class CuckerSmaleParams:
    """Parameters of the flocking kernels over states (x, v) in R^{2 half_dim}.

    The alignment weight is psi(r) = lam / (1 + |r|^2)^gamma and the
    common-noise weight phi has the same rational form with (phi_lam,
    phi_gamma). A positive phi_lam switches on the noisy-interaction term
    phi(x - y) R(w - v) circle d beta. The constructor checks the values.
    """

    __slots__ = ("half_dim", "lam", "gamma", "phi_lam", "phi_gamma", "truncation")

    def __init__(self, half_dim: int, lam: float = 1.0, gamma: float = 1.0, phi_lam: float = 0.0,
                 phi_gamma: float = 0.0, truncation: Optional[Truncation] = None):
        check_cucker_smale(half_dim, lam, gamma, phi_lam, phi_gamma)
        self.half_dim, self.lam, self.gamma = half_dim, lam, gamma
        self.phi_lam, self.phi_gamma, self.truncation = phi_lam, phi_gamma, truncation

    def psi_inf(self, window: float) -> float:
        """inf of psi over |r| <= window (psi decreases in |r|)."""
        return float(_rational_weight(self.lam, self.gamma, np.asarray(window) ** 2))


def cucker_smale_kernels(p: CuckerSmaleParams) -> KernelSet:
    """Flocking KernelSet over R^{2d} with b = (v, psi(x-y)(w-v)) and
    c = (0, phi(x-y) R(w-v)), supplied as one fused ``field``.

    Pair tables: the position distances are one (m, n) table, which psi
    overwrites in place; phi takes a second table only when both weights
    depend on the pair. A weight whose exponent is 0 does not, and is one
    (n,) row shared by every query, so with both exponents 0 a call builds
    no pair table. The tables stay unweighted: the measure weights ride in
    the matrix product that sums them. A truncation adds the squared speeds
    |v_j - v_q|^2, which chi overwrites; S1's chi'/s term is summed over the
    band pairs, where chi' is not 0, gathered by their flat indices.
    Queries that are not the atoms need C at the atoms as well,
    which costs (n, n) tables unless phi is a row and there is no
    truncation. No state is kept between calls.
    """
    d = p.half_dim
    dim = 2 * d

    def split(z):
        return z[..., :d], z[..., d:]

    has_noise = p.phi_lam > 0.0
    trunc = p.truncation

    # Every pair term is a scalar weight times a velocity difference, so
    # each mean-field sum is one matrix product over the (m, n) table or
    # the (n,) row W: sum_j w_j W_qj (v_j - v_q) = (W @ wV)_q - (W @ w)_q v_q.

    def pair_sum(table, wva, vq, out=None):
        """sum_j w_j table_qj (va_j - vq_q) per query q, from the one product
        table @ [w va | w], written to ``out`` when given."""
        prod = table @ wva
        return np.subtract(prod[..., :d], prod[..., d:] * vq, out=out)

    def pair_table(amplitude, exponent, n, r_sq, out):
        """amplitude / (1 + r_qj^2)^exponent computed in ``out``; a shared
        (n,) row when the exponent is 0."""
        if exponent == 0.0:
            return np.full(n, amplitude)
        return _rational_weight(amplitude, exponent, r_sq, out=out)

    def pair_tables(xq, xa):
        """(psi, phi) at the pairs; psi overwrites the distances."""
        pair_psi, pair_phi = p.gamma != 0.0, has_noise and p.phi_gamma != 0.0
        r_sq = _squared_distances(xq, xa) if pair_psi or pair_phi else None
        n, phi = xa.shape[0], None
        if has_noise:
            out = None if pair_psi else r_sq
            phi = pair_table(p.phi_lam, p.phi_gamma, n, r_sq, out)
        return pair_table(p.lam, p.gamma, n, r_sq, r_sq), phi

    def noise_tables(phi, vq, va):
        """(phi chi, band, chi'/s on the band) at s = |v_j - v_q|, from
        ``Truncation.chi_ratio`` on the squared speeds, whose table chi takes;
        without a truncation chi = 1 and the band and ratio are None."""
        if trunc is None:
            return phi, None, None
        chi, band, ratio = trunc.chi_ratio(_squared_distances(vq, va))
        return np.multiply(chi, phi, out=chi), band, ratio

    def field(atoms, weights, queries, factor):
        """(B[mu] + factor S1[mu], C[mu]) at the queries; factor None skips S1."""
        xq, vq = split(queries)
        xa, va = split(atoms)
        psi, phi = pair_tables(xq, xa)
        drift = np.empty(queries.shape)
        drift[:, :d] = vq * weights.sum()
        wva = np.empty((weights.size, d + 1))
        np.multiply(va, weights[:, None], out=wva[:, :d])
        wva[:, d] = weights
        pair_sum(psi, wva, vq, out=drift[:, d:])
        del psi  # free the table before the noise builds its own
        if not has_noise:
            return drift, None
        # C[mu] at the atoms, whose tables are freed before the queries'
        # are built; the stepper queries the atoms themselves
        ca = None
        if factor is not None and queries is not atoms:
            r_sq = _squared_distances(xa, xa) if p.phi_gamma != 0.0 else None
            phi_a = pair_table(p.phi_lam, p.phi_gamma, xa.shape[0], r_sq, r_sq)
            ca = pair_sum(noise_tables(phi_a, va, va)[0], wva, va)
            del r_sq, phi_a
        phi_chi, band, ratio = noise_tables(phi, vq, va)
        common = np.zeros(queries.shape)
        cq = pair_sum(phi_chi, wva, vq, out=common[:, d:])
        if factor is None:
            return drift, common
        if ca is None:
            ca = cq
        # S1 = factor sum_j w_j dc(q, y_j, C(q), C(y_j)). C has no position
        # block, so dr = 0 and dc's phi' term (r . dr) vanishes exactly; what
        # is left is phi J_R(u) du = phi chi du + phi chi'/s (u . du) u with
        # u = v_j - v_q and du = C_v(y_j) - C_v(q).
        wca = wva.copy()
        np.multiply(ca, weights[:, None], out=wca[:, :d])
        s1 = pair_sum(phi_chi, wca, cq)
        if band is not None:
            # chi' is 0 off the band: sum its term over the band pairs (q, j)
            q, j = np.divmod(band, va.shape[0])
            u, du = va[j] - vq[q], ca[j] - cq[q]
            coef = np.broadcast_to(phi, phi_chi.shape)[q, j] * ratio
            coef *= np.einsum("ij,ij->i", u, du) * weights[j]
            for k in range(d):
                s1[:, k] += np.bincount(q, coef * u[:, k], minlength=len(s1))
        drift[:, d:] += factor * s1
        return drift, common

    return KernelSet(dim=dim, field=field)


def _constant_sigma(diag: np.ndarray) -> Callable:
    """The diagonal of sigma is ``diag`` at every x, so S2 = 0."""
    return lambda x: np.broadcast_to(diag, x.shape)


def with_velocity_noise(base: KernelSet, sigma_v: float) -> KernelSet:
    """A position-velocity kernel plus constant individual noise sigma_v on
    velocities; sigma is constant, so S2 = 0 and ``base.field`` is the whole
    Ito drift."""
    diag = np.zeros(base.dim)
    diag[base.dim // 2:] = sigma_v
    return KernelSet(base.dim, base.field, _constant_sigma(diag))


# ---------------------------------------------------------------------------
# The affine model
# ---------------------------------------------------------------------------


def affine_kernels(dim: int, b0=0.0, bx=0.0, c0=0.0, cx=0.0, cy=0.0, s0=0.0, sx=0.0) -> KernelSet:
    """The affine model of the module docstring; b0 and c0 are numbers or
    (dim,) vectors. A zero coefficient's term is not computed, so C is None
    when c0, cx and cy are 0, and sigma None when s0 and sx are."""
    check_dim(dim)  # before the coefficients are shaped by it
    b0, c0 = (np.broadcast_to(np.asarray(v, dtype=float), (dim,)) for v in (b0, c0))
    has_common = np.any(c0 != 0.0) or cx != 0.0 or cy != 0.0

    def field(atoms, weights, queries, factor):
        total = weights.sum()
        mean = weights @ atoms if cy != 0.0 else None
        drift = np.full(queries.shape, b0 * total)
        if bx != 0.0:
            drift += bx * queries * total
        common = None
        if has_common:
            common = np.full(queries.shape, c0 * total)
            if cx != 0.0:
                common += cx * queries * total
            if cy != 0.0:
                common += cy * mean
        if factor is None:
            return drift, common
        if cx != 0.0:
            drift += factor * cx * common * total
        if cy != 0.0:
            # sum_j w_j C[mu](y_j) = W (c0 W + (cx + cy) m)
            drift += factor * cy * total * (c0 * total + (cx + cy) * mean)
        if sx != 0.0:
            drift += 0.5 * (sx * (s0 + sx * queries))
        return drift, common

    if sx == 0.0:
        sigma = None if s0 == 0.0 else _constant_sigma(np.full(dim, s0))
        return KernelSet(dim, field, sigma)
    return KernelSet(dim, field, lambda x: s0 + sx * x)
