import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanflock.config import MODELS, S1_CONVENTIONS, parse_config
from meanflock.errors import DimensionMismatchError
from meanflock.harness import _cs_params, build_kernel
from meanflock.kernels import (
    CuckerSmaleParams,
    KernelSet,
    Truncation,
    affine_kernels,
    cucker_smale_kernels,
    field_drift_diffusion,
    with_velocity_noise,
)
from meanflock.transport import check_atoms

from helpers import (
    PointwiseReference,
    _rational,
    affine_reference,
    chi_both_whole_table,
    cucker_smale_reference,
    eval_S2,
    eval_s1,
    fd_jacobian,
    mean_field_B,
    mean_field_C,
    mean_field_S,
    peak_traced_bytes,
    rel_close,
    truncate,
    velocity_noise_reference,
    with_sigma,
)


# the S1 factor of the default convention
HALF = S1_CONVENTIONS["half_both"]


def constant_phi_kernel(phi0):
    """Pointwise reference of Cucker-Smale with constant psi = 1, phi = phi0."""
    return cucker_smale_reference(
        CuckerSmaleParams(half_dim=1, lam=1.0, gamma=0.0, phi_lam=phi0, phi_gamma=0.0)
    )


class TestEvalS1:
    def test_constant_phi_hand_value(self):
        # c((x,v);(y,w)) = (0, 2 (w - v)); s1 velocity part = phi0^2 (v1 - v2) / 2
        k = constant_phi_kernel(2.0)
        out = eval_s1(k, np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 5.0]))
        np.testing.assert_allclose(out, [0.0, 2.0], atol=1e-14)

    def test_constant_c_vanishes(self):
        k = affine_reference(2, c0=[0.3, -1.2])
        rng = np.random.default_rng(1)
        x, y, z = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(eval_s1(k, x, y, z), np.zeros(2))

    def test_linear_c(self):
        k = affine_reference(1, cx=1.0)
        out = eval_s1(k, np.array([3.0]), np.array([0.5]), np.array([-2.0]))
        np.testing.assert_allclose(out, [1.5])

    def test_paper_literal_doubles_single_sided_term(self):
        # for c(x, y) = x the second term vanishes, so the literal variant
        # is exactly twice the derived one
        k = affine_reference(1, cx=1.0)
        x, y, z = np.array([3.0]), np.array([1.0]), np.array([2.0])
        half = eval_s1(k, x, y, z, s1_convention="half_both")
        lit = eval_s1(k, x, y, z, s1_convention="paper_literal")
        np.testing.assert_allclose(lit, 2.0 * half)

    def test_dimension_error_names_argument(self):
        k = affine_reference(2, cx=1.0)
        with pytest.raises(DimensionMismatchError, match="'y'"):
            eval_s1(k, np.zeros(2), np.zeros(3), np.zeros(2))


class TestEvalS2:
    def test_constant_sigma(self):
        k = affine_reference(3, s0=0.7)
        np.testing.assert_array_equal(eval_S2(k, np.ones(3)), np.zeros(3))

    def test_linear_sigma_1d(self):
        k = affine_reference(1, sx=1.0)
        np.testing.assert_allclose(eval_S2(k, np.array([2.0])), [1.0])

    def test_diag_sigma_2d(self):
        k = affine_reference(2, sx=1.0)
        np.testing.assert_allclose(eval_S2(k, np.array([3.0, 5.0])), [1.5, 2.5])


class TestMeanFields:
    def test_cs_alignment_field(self):
        k = cucker_smale_kernels(CuckerSmaleParams(half_dim=1, lam=1.0, gamma=0.0))
        drift, common = field_drift_diffusion(
            k, np.array([[0.0, 0.0], [0.0, 2.0]]), np.full(2, 0.5), np.zeros((1, 2)), HALF
        )
        np.testing.assert_allclose(drift, [[0.0, 1.0]])
        assert common is None

    def test_single_atom_is_exact(self):
        k = affine_reference(2, b0=[0.5, -1.0])
        np.testing.assert_array_equal(
            mean_field_B(k, np.array([[4.0, 4.0]]), np.ones(1), np.array([1.0, 1.0])), [0.5, -1.0]
        )

    def test_zero_drift(self):
        k = PointwiseReference(2)
        atoms = np.array([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_array_equal(
            mean_field_B(k, atoms, np.full(2, 0.5), np.zeros(2)), np.zeros(2)
        )

    def test_zero_noise_gives_zero_s(self):
        k = PointwiseReference(2)
        atoms = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(mean_field_S(k, atoms, np.ones(1), np.zeros(2)), np.zeros(2))

    def test_single_atom_s1_collapses(self):
        k = constant_phi_kernel(1.5)
        z = np.array([0.3, -0.7])
        x = np.array([0.1, 0.9])
        np.testing.assert_allclose(
            mean_field_S(k, z[None], np.ones(1), x), eval_s1(k, x, z, z), atol=1e-15
        )

    def test_s1_double_sum_oracle(self):
        # S1[mu](x) must equal the plain average of s1 over all atom pairs
        k = constant_phi_kernel(0.8)
        atoms = np.array([[0.0, 0.0], [0.0, 2.0]])
        x = np.array([0.0, 1.0])
        acc = np.zeros(2)
        for y in atoms:
            for z in atoms:
                acc += eval_s1(k, x, y, z)
        acc /= 4.0
        np.testing.assert_allclose(mean_field_S(k, atoms, np.full(2, 0.5), x), acc, atol=1e-14)

    def test_mean_field_c_matches_direct_sum(self):
        k = constant_phi_kernel(0.8)
        atoms = np.random.default_rng(0).normal(size=(5, 2))
        w = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        x = np.array([0.2, -0.4])
        direct = sum(wi * k.c(x, yi) for wi, yi in zip(w, atoms))
        np.testing.assert_allclose(mean_field_C(k, atoms, w, x), direct, atol=1e-15)

    def test_empty_measure_rejected(self):
        with pytest.raises(ValueError, match="m >= 1"):
            check_atoms(np.zeros((0, 2)), 2)

    def test_atom_duplication_invariance(self):
        noisy = CuckerSmaleParams(half_dim=1, lam=1.3, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
        # the velocity gap of the co-located pair below, 2, lies in the band
        band = Truncation(radius=0.5, margin=2.0)
        truncated = CuckerSmaleParams(half_dim=1, lam=1.3, gamma=1.0, phi_lam=0.5,
                                      phi_gamma=1.0, truncation=band)
        rng = np.random.default_rng(3)
        atoms = rng.normal(size=(6, 2))
        w = rng.uniform(0.5, 1.0, size=6)
        w /= w.sum()
        x = np.array([[0.4, 0.1]])
        for k in map(cucker_smale_kernels, (noisy, truncated)):
            for factor in (HALF, None):
                a = field_drift_diffusion(k, atoms, w, x, factor)
                doubled = np.repeat(atoms, 2, axis=0), np.repeat(w / 2.0, 2)
                b = field_drift_diffusion(k, *doubled, x, factor)
                for fa, fb in zip(a, b):
                    np.testing.assert_allclose(fa, fb, rtol=0, atol=1e-14)
            # two co-located atoms of a uniform measure are one atom of twice
            # the weight: [a, a, b] moves in the field of [a, b] weighted
            # (2/3, 1/3), at its atoms and elsewhere
            tripled = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, -1.0]])
            pair, pair_weights = tripled[1:], np.array([2.0 / 3.0, 1.0 / 3.0])
            for queries in (tripled, x):
                a = field_drift_diffusion(k, tripled, np.full(3, 1.0 / 3.0), queries, HALF)
                b = field_drift_diffusion(k, pair, pair_weights, queries, HALF)
                for fa, fb in zip(a, b):
                    np.testing.assert_allclose(fa, fb, rtol=0, atol=1e-14)


class TestCuckerSmaleBuilder:
    def test_psi_at_zero_is_lambda(self):
        p = CuckerSmaleParams(half_dim=1, lam=2.5, gamma=1.2)
        assert p.psi_inf(0.0) == 2.5

    def test_psi_half_at_unit_distance(self):
        p = CuckerSmaleParams(half_dim=1, lam=1.0, gamma=1.0)
        assert p.psi_inf(1.0) == 0.5

    def test_truncation_identity_then_zero(self):
        t = Truncation(radius=1.0, margin=1.0)
        v = np.array([[0.7], [-0.5], [2.0], [5.0]])
        chi, ratio = t.chi_ratio(np.abs(v[:, 0]))
        np.testing.assert_array_equal(chi, [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(ratio, np.zeros(4))
        np.testing.assert_array_equal(truncate(t, v), [[0.7], [-0.5], [0.0], [0.0]])

    @pytest.mark.parametrize("radius, margin", [(1.0, 0.5), (0.25, 1.75), (2.0, 2.0**-10)])
    def test_chi_band_only_bitwise_equal_whole_table(self, radius, margin):
        rng = np.random.default_rng(12)
        edges = [0.0, radius / 2, radius, radius + margin, 3 * (radius + margin)]
        inside = radius + margin * np.array([1e-12, 0.25, 0.5, 0.999, 1 - 1e-16])
        s = np.concatenate([edges, inside, rng.uniform(0, 2 * (radius + margin), 400)])
        t = Truncation(radius, margin)
        u = (s - radius) / margin
        assert np.any(u == 0.0) and np.any(u == 1.0) and np.any((u > 0) & (u < 1))
        for table in (s, s.reshape(-1, 5), s[7]):
            chi, cp = chi_both_whole_table(radius, margin, table)
            ratio = np.divide(cp, table, out=np.zeros(np.shape(cp)), where=table > 0)
            got, want = t.chi_ratio(table), (chi, ratio)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_truncation_jacobian_matches_fd(self):
        # the fused field's J_R(v) = chi I + (chi'/s) v v^T from chi_ratio,
        # against a finite difference of R(v) = v chi(|v|)
        t = Truncation(radius=1.0, margin=0.5)
        rng = np.random.default_rng(11)
        in_band = 0
        for _ in range(50):
            v = rng.uniform(-2.0, 2.0, size=2)
            s = np.linalg.norm(v)
            if abs(s - 1.0) < 1e-3 or abs(s - 1.5) < 1e-3:
                continue  # kink-free everywhere, but FD degrades at band edges
            in_band += 1.0 < s < 1.5
            chi, ratio = t.chi_ratio(s)
            jac = chi * np.eye(2) + ratio * np.outer(v, v)
            assert rel_close(jac, fd_jacobian(lambda u: truncate(t, u), v), 1e-4, floor=1e-6)
        assert in_band >= 5

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CuckerSmaleParams(half_dim=1, lam=0.0)
        with pytest.raises(ValueError):
            CuckerSmaleParams(half_dim=1, lam=1.0, gamma=-0.2)
        with pytest.raises(ValueError):
            Truncation(radius=0.0, margin=1.0)

    def test_bounded_c_tag_and_bound(self):
        # bounded environmental noise: |C[mu](q)| <= phi_lam (R + margin)
        # for every probability measure mu, however spread its velocities
        p = CuckerSmaleParams(
            half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0,
            truncation=Truncation(2.0, 1.0),
        )
        k = cucker_smale_kernels(p)
        bound = p.phi_lam * (p.truncation.radius + p.truncation.margin)
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 40):
            for _ in range(25):
                atoms = rng.uniform(-10, 10, size=(n, 2))
                w = rng.uniform(0.1, 1.0, size=n)
                queries = rng.uniform(-10, 10, size=(30, 2))
                _, common = field_drift_diffusion(k, atoms, w / w.sum(), queries, HALF)
                assert np.all(np.linalg.norm(common, axis=1) <= bound + 1e-12)
        # at the radius R(u) = u, so one atom gives |C| = phi_lam * radius
        _, common = field_drift_diffusion(
            k, np.zeros((1, 2)), np.ones(1), np.array([[0.0, -2.0]]), HALF
        )
        np.testing.assert_array_equal(common, [[0.0, 1.0]])


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
    total = 0.0
    for i in range(len(z)):
        for j in range(len(z)):
            total += _rational(1.0, 1.0, (z[i, 0] - z[j, 0]) ** 2) * (z[j, 1] - z[i, 1])
    assert abs(total) < 1e-10 * max(1.0, np.abs(z).sum())


TRUNC = Truncation(radius=2.0, margin=1.0)

# every coefficient of the affine model non-zero; the cloud's mean m feeds
# both C's cy term and S1's
AFFINE = dict(b0=[0.3, -0.2], bx=-0.4, c0=[0.2, -0.5], cx=0.6, cy=-0.9, s0=0.4, sx=0.5)

# pointwise references whose dc and grad_sigma are checked by finite
# differences; the kernels' fields are held to them below
REGISTERED = {
    "cucker-smale": cucker_smale_reference(
        CuckerSmaleParams(half_dim=1, lam=1.0, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
    ),
    "cucker-smale-truncated": cucker_smale_reference(
        CuckerSmaleParams(
            half_dim=2, lam=0.8, gamma=0.6, phi_lam=0.4, phi_gamma=0.3, truncation=TRUNC,
        )
    ),
    "linear-common": affine_reference(2, cx=0.7),
    "constant-common": affine_reference(3, c0=[0.3, -1.2, 0.5]),
    "diag-individual": affine_reference(3, sx=0.5),
    "constant-individual": affine_reference(2, s0=0.8),
    "affine": affine_reference(2, **AFFINE),
}


def _pair_points(name, kernel, rng):
    x = rng.uniform(-5, 5, size=kernel.dim)
    y = rng.uniform(-5, 5, size=kernel.dim)
    if name == "cucker-smale-truncated" and rng.uniform() < 0.5:
        # |w - v| strictly inside the band (radius, radius + margin), where
        # chi' is nonzero
        d = kernel.dim // 2
        u = rng.normal(size=d)
        s = rng.uniform(TRUNC.radius + 0.05, TRUNC.radius + TRUNC.margin - 0.05)
        y[d:] = x[d:] + s * u / np.linalg.norm(u)
    return x, y


@pytest.mark.parametrize("name", list(REGISTERED))
def test_jacobians_match_finite_differences(name):
    # dc against a central difference of c along a random direction (ex, ey);
    # grad_sigma against the full finite-difference Jacobian
    kernel = REGISTERED[name]
    rng = np.random.default_rng(42)
    in_band = 0
    for _ in range(40):
        x, y = _pair_points(name, kernel, rng)
        if kernel.c is not None:
            ex, ey = rng.normal(size=(2, kernel.dim))
            h = 1e-5
            fd = (kernel.c(x + h * ex, y + h * ey) - kernel.c(x - h * ex, y - h * ey)) / (2 * h)
            assert rel_close(kernel.dc(x, y, ex, ey), fd, 1e-4, floor=1e-5)
        if name == "cucker-smale-truncated":
            s = np.linalg.norm(y[2:] - x[2:])
            in_band += TRUNC.radius < s < TRUNC.radius + TRUNC.margin
        if kernel.sigma is not None:
            fd = fd_jacobian(lambda u: kernel.sigma(u).ravel(), x).reshape(
                kernel.dim, kernel.dim, kernel.dim
            )
            assert rel_close(kernel.grad_sigma(x), fd, 1e-4, floor=1e-5)
    if name == "cucker-smale-truncated":
        assert in_band >= 10


def test_dc_broadcasts_like_c():
    k = REGISTERED["cucker-smale-truncated"]  # half_dim=2
    rng = np.random.default_rng(5)
    z1, e1 = rng.normal(size=(2, 3, 1, 4))
    z2, e2 = rng.normal(size=(2, 1, 5, 4))
    table = k.dc(z1, z2, e1, e2)
    assert table.shape == (3, 5, 4)
    np.testing.assert_array_equal(table[2, 4], k.dc(z1[2, 0], z2[0, 4], e1[2, 0], e2[0, 4]))


FIELD_TRUNC = Truncation(radius=0.8, margin=1.0)

# (dim, coefficients) of each affine preset in the field cases, keyed by
# model name. The coefficient a preset's value key sets is written out here,
# not read from its MODELS row, and ``catalogue_reference`` reads it from
# here too. A dimension below 4 keeps the cases out of the truncation band
# count.
PRESET_ARGS = {
    "zero": (2, {}),
    "constant-drift": (3, {"b0": [0.5, -1.0, 2.0]}),
    "linear-drift": (2, {"bx": 0.7}),
    "linear-common": (2, {"cx": 0.7}),
    "constant-common": (3, {"c0": [0.3, -1.2, 0.5]}),
    "diag-individual": (2, {"sx": 0.5}),
    "constant-individual": (1, {"s0": 0.8}),
}


def _field_kernels():
    """(kernel, its pointwise reference, convention)."""
    cs = dict(half_dim=1, lam=1.1, gamma=1.0, phi_lam=0.5, phi_gamma=1.0)
    tr = dict(half_dim=2, lam=0.8, gamma=0.6, phi_lam=0.4, phi_gamma=0.3, truncation=FIELD_TRUNC)

    def both(**params):
        params = CuckerSmaleParams(**params)
        return cucker_smale_kernels(params), cucker_smale_reference(params)

    def affine(dim, coefficients, convention="half_both"):
        kernel, ref = affine_kernels(dim, **coefficients), affine_reference(dim, **coefficients)
        return kernel, ref, convention

    plain, plain_ref = both(**cs)
    # non-constant sigma = rate diag(x) on a fused kernel, whose field adds
    # S2 = rate^2 x / 2 in closed form
    rate = 0.5

    def noisy_field(atoms, weights, queries, factor):
        drift, common = plain.field(atoms, weights, queries, factor)
        if factor is not None:
            drift += 0.5 * (rate * (rate * queries))
        return drift, common

    noisy = KernelSet(plain.dim, noisy_field, affine_kernels(plain.dim, sx=rate).sigma)
    velocity = with_velocity_noise(plain, 0.3)
    return [
        (plain, plain_ref, "half_both"),
        (plain, plain_ref, "paper_literal"),
        (*both(**tr), "half_both"),
        (*both(**{**cs, "phi_lam": 0.0}), "half_both"),
        # an exponent of 0 makes that weight one row shared by every query;
        # phi_gamma = 0 is the setting of every benchmark config
        (*both(**{**cs, "phi_gamma": 0.0}), "half_both"),
        (*both(**{**tr, "phi_gamma": 0.0}), "half_both"),
        (*both(**{**cs, "gamma": 0.0}), "half_both"),
        (*both(**{**cs, "gamma": 0.0, "phi_gamma": 0.0}), "paper_literal"),
        (*both(**{**cs, "gamma": 2.0, "phi_gamma": 2.0}), "half_both"),
        (*both(**{**tr, "gamma": 2.0, "phi_gamma": 0.0}), "half_both"),
        (velocity, velocity_noise_reference(plain_ref, 0.3), "half_both"),
        (noisy, with_sigma(plain_ref, affine_reference(plain.dim, sx=rate)), "half_both"),
        *(affine(*args) for args in PRESET_ARGS.values()),
        affine(*PRESET_ARGS["linear-common"], "paper_literal"),
        affine(2, AFFINE, "half_both"),
        affine(2, AFFINE, "paper_literal"),
    ]


def _field_cases(rng):
    """(kernel, reference, convention, factor, atoms, weights, queries), with
    the queries apart from the atoms and at the atoms themselves. ``factor``
    is the convention's S1 factor, or None for no correction; the oracle
    reads the convention through its own map."""
    kernels = _field_kernels()
    for kernel, ref, convention in kernels:
        atoms = rng.normal(size=(6, kernel.dim))
        w = rng.uniform(0.5, 1.0, size=6)
        for queries in (rng.normal(size=(4, kernel.dim)), atoms):
            for correct in (True, False):
                factor = S1_CONVENTIONS[convention] if correct else None
                yield kernel, ref, convention, factor, atoms, w / w.sum(), queries
    # large enough that the products go through BLAS: phi a table, then a row
    w = rng.uniform(0.5, 1.0, size=300)
    atoms = rng.normal(size=(300, 2))
    for kernel, ref, _ in (kernels[0], kernels[4]):
        for queries in (rng.normal(size=(200, 2)), atoms):
            yield kernel, ref, "half_both", HALF, atoms, w / w.sum(), queries


def _assert_field_held(kernel, ref, convention, factor, atoms, w, queries):
    """The kernel's field against the reference's mean-field sums; returns
    its C[mu], None when the reference has no common noise."""
    drift, common = field_drift_diffusion(kernel, atoms, w, queries, factor)
    want = mean_field_B(ref, atoms, w, queries)
    if factor is not None:
        want = want + mean_field_S(ref, atoms, w, queries, convention)
    np.testing.assert_allclose(drift, want, rtol=0, atol=1e-13)
    if ref.c is None:
        assert common is None
    else:
        np.testing.assert_allclose(common, mean_field_C(ref, atoms, w, queries), rtol=0, atol=1e-14)
    return common


def test_field_drift_diffusion_matches_pointwise_ops():
    rng = np.random.default_rng(9)
    band = np.zeros(3, int)  # truncated pairs below, inside and beyond the band
    edges = [FIELD_TRUNC.radius, FIELD_TRUNC.radius + FIELD_TRUNC.margin]
    for kernel, ref, convention, factor, atoms, w, queries in _field_cases(rng):
        if _assert_field_held(kernel, ref, convention, factor, atoms, w, queries) is None:
            continue
        if kernel.dim == 4:
            s = np.linalg.norm(atoms[None, :, 2:] - queries[:, None, 2:], axis=-1)
            band += np.bincount(np.digitize(s.ravel(), edges), minlength=3)
        if factor is None or atoms.shape[0] > 6:
            continue
        # S1 is the average of s1 over every atom pair
        s_q = mean_field_S(ref, atoms, w, queries, convention) - eval_S2(ref, queries)
        s1 = sum(
            wj * wl * eval_s1(ref, queries, yj, yl, convention)
            for wj, yj in zip(w, atoms)
            for wl, yl in zip(w, atoms)
        )
        np.testing.assert_allclose(s_q, s1, atol=1e-13)
    assert band.min() > 0, band


def test_kernel_needs_a_field():
    assert KernelSet.__slots__ == ("dim", "field", "sigma")
    with pytest.raises(ValueError, match="^kernel needs a field$"):
        KernelSet(2, None)
    # the dimension rule is checked first
    with pytest.raises(ValueError, match="dimension"):
        KernelSet(0, None)


def test_every_model_builds_a_field_held_to_a_reference():
    # each catalogued model, built from the schema defaults plus the keys it
    # requires, is evaluated through its field. The field cases above hold
    # the Cucker-Smale fields and the affine kernel's to a reference; here
    # each affine preset, its value key at -0.6, is held to the reference of
    # the coefficient PRESET_ARGS names, so a row setting another one fails
    rng = np.random.default_rng(31)
    for name, model in MODELS.items():
        required = "".join(f"{key} = 1\n" for key in model.required)
        text = f"experiment = simulate\nmodel = {name}\noutput_dir = out\n{required}"
        if not model.position_velocity:
            text += "dim = 2\n" + "".join(f"{key} = -0.6\n" for key in model.keys[1:])
        values = parse_config(text).values
        kernel = build_kernel(values)
        assert callable(kernel.field), name
        if model.position_velocity:
            continue
        ref = catalogue_reference(values)
        atoms = rng.normal(size=(5, 2))
        w = np.full(5, 0.2)
        for factor in (HALF, None):
            _assert_field_held(kernel, ref, "half_both", factor, atoms, w, atoms)
        assert (kernel.sigma is None) == (ref.sigma is None), name
        if ref.sigma is not None:
            np.testing.assert_array_equal(kernel.sigma(atoms), ref.sigma(atoms))
    assert set(PRESET_ARGS) == {name for name, m in MODELS.items() if not m.position_velocity}


# values under which every catalogued sigma is non-zero, and the Cucker-Smale
# model's S1 too
NOISE_VALUES = {"dim": 3, "half_dim": 1, "phi_lambda": 0.5, "sigma_scale": 0.7}


def catalogue_reference(values):
    """The pointwise reference of a parsed config's model, as ``build_kernel``
    builds its kernel."""
    model = MODELS[values["model"]]
    if not model.position_velocity:
        dim, *value = (values[key] for key in model.keys)
        return affine_reference(dim, **dict(zip(PRESET_ARGS[values["model"]][1], value)))
    ref = cucker_smale_reference(_cs_params(values))
    if model.individual_noise:
        ref = velocity_noise_reference(ref, values["sigma_scale"])
    return ref


@pytest.mark.parametrize("name", [name for name, m in MODELS.items() if m.individual_noise])
def test_every_sigma_model_adds_its_S2(name):
    # the corrected drift minus the uncorrected one is factor S1 + S2 of the
    # reference, whose sigma is the kernel's and whose grad sigma is held to
    # it by finite differences; so a sigma model whose field left S2 out
    # fails here. The uncorrected drift of Heun's stages is B alone.
    model = MODELS[name]
    keys = [key for key in NOISE_VALUES if key in model.keys]
    required = [key for key in model.required if key not in keys]
    lines = [f"{key} = {NOISE_VALUES[key]}" for key in keys] + [f"{key} = 1" for key in required]
    text = f"experiment = simulate\nmodel = {name}\noutput_dir = out\n" + "\n".join(lines)
    values = parse_config(text).values
    kernel, ref = build_kernel(values), catalogue_reference(values)
    rng = np.random.default_rng(23)
    atoms = rng.normal(size=(6, kernel.dim))
    w = rng.uniform(0.5, 1.0, size=6)
    w /= w.sum()
    for queries in (rng.normal(size=(4, kernel.dim)), atoms):
        np.testing.assert_array_equal(ref.sigma(queries), kernel.sigma(queries))
        for x in queries:
            fd = fd_jacobian(lambda u: kernel.sigma(u).ravel(), x)
            assert rel_close(ref.grad_sigma(x), fd.reshape((kernel.dim,) * 3), 1e-4, floor=1e-5)
        corrected, _ = field_drift_diffusion(kernel, atoms, w, queries, HALF)
        plain, _ = field_drift_diffusion(kernel, atoms, w, queries, None)
        want = mean_field_S(ref, atoms, w, queries, "half_both")
        np.testing.assert_allclose(corrected - plain, want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(plain, mean_field_B(ref, atoms, w, queries), rtol=0, atol=1e-14)
    if name == "diag-individual":
        # sigma_scale diag(x) has S2 = sigma_scale^2 x / 2, non-zero at every query
        assert np.all(eval_S2(ref, queries) != 0)


def test_queries_at_atoms_shortcut_changes_no_bit():
    # the stepper passes the atoms themselves as queries; the characteristics
    # solver passes other arrays holding the same values. The transport
    # identity is exact only if both give the same bits.
    rng = np.random.default_rng(13)
    for kernel, _, _ in _field_kernels():
        for n in (7, 300):
            x = rng.normal(size=(n, kernel.dim))
            unequal = rng.uniform(0.5, 2.0, size=n)
            for w in (np.full(n, 1.0 / n), unequal / unequal.sum()):
                for factor in S1_CONVENTIONS.values():
                    same = field_drift_diffusion(kernel, x, w, x, factor)
                    copy = field_drift_diffusion(kernel, x, w, x.copy(), factor)
                    for a, b in zip(same, copy):
                        np.testing.assert_array_equal(a, b)


def test_field_keeps_inputs_and_returns_fresh_arrays():
    # the fused field works in place on its own tables only: the inputs keep
    # every bit, and no result aliases an input or an earlier result
    rng = np.random.default_rng(17)
    for kernel, _, convention in _field_kernels():
        atoms = rng.normal(size=(40, kernel.dim))
        w = rng.uniform(0.5, 1.0, size=40)
        w /= w.sum()
        for queries in (atoms, rng.normal(size=(25, kernel.dim))):
            inputs = (atoms, w, queries)
            saved = [a.tobytes() for a in inputs]
            factor = S1_CONVENTIONS[convention]
            before = field_drift_diffusion(kernel, atoms, w, queries, factor)
            after = field_drift_diffusion(kernel, atoms, w, queries, factor)
            assert [a.tobytes() for a in inputs] == saved
            results = [r for r in after if r is not None]
            others = [*inputs, *(r for r in before if r is not None)]
            for i, r in enumerate(results):
                for other in others + results[i + 1:]:
                    assert not np.shares_memory(r, other)


# Peak traced bytes of one call at N = 256, in (m, n) float tables. The
# tables are unweighted: the weights ride in the matrix product that sums
# them. A truncation-free half_dim 1 field keeps the one distance table,
# which psi overwrites; the truncated half_dim 2 field (benchmark flocking
# settings) adds the speed table, chi, chi'/s and two scratch tables for
# u . du, and builds C at the atoms before the queries' tables when the
# queries are not the atoms. The margins above the tables cover numpy's
# iterator buffers and the O(n) operands of the products.
PEAK_TABLES = [
    (dict(half_dim=1, phi_lam=0.5), "atoms", 1.5),
    (dict(half_dim=1, phi_lam=0.5), "apart", 1.5),
    (dict(half_dim=2, gamma=0.5, phi_lam=0.1, truncation=Truncation(4.0, 1.0)), "atoms", 4.5),
    (dict(half_dim=2, gamma=0.5, phi_lam=0.1, truncation=Truncation(4.0, 1.0)), "apart", 4.5),
]


@pytest.mark.parametrize("params, queries, tables", PEAK_TABLES)
def test_field_peak_memory_in_pair_tables(params, queries, tables):
    n = 256
    kernel = cucker_smale_kernels(CuckerSmaleParams(**params))
    x = np.random.default_rng(3).normal(size=(n, kernel.dim))
    q = x if queries == "atoms" else x + 0.01
    w = np.full(n, 1.0 / n)
    peak = peak_traced_bytes(lambda: field_drift_diffusion(kernel, x, w, q, HALF))
    assert peak / (n * n * 8) <= tables


def test_affine_field_builds_no_pair_table():
    # the affine field is closed form in W and m: O(N) memory, no (N, N) table
    n = 4096
    kernel = affine_kernels(2, **AFFINE)
    x = np.random.default_rng(5).normal(size=(n, 2))
    q, w = x + 0.01, np.full(n, 1.0 / n)
    peak = peak_traced_bytes(lambda: field_drift_diffusion(kernel, x, w, q, HALF))
    assert peak < 0.01 * n * n * 8
