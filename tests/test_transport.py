import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from meanflock.errors import (
    DimensionMismatchError,
    EmptyMeasureError,
    NonFiniteCostError,
    SupportCapError,
    UnsupportedTransportError,
)
from meanflock.transport import (
    DEFAULT_SUPPORT_CAP,
    EmpiricalMeasure,
    MeasurePath,
    _assignment,
    _squared_distances,
    _transport_cost,
    check_weights,
    moments,
    path_sup_distances,
    support_radius,
    wasserstein,
    wasserstein_path,
)

from helpers import (
    brute_force_path_wasserstein_uniform,
    brute_force_wasserstein_uniform,
    peak_traced_bytes,
    squared_distances_broadcast,
    transport_lp_cost,
)


def uniform(atoms):
    return EmpiricalMeasure.uniform(np.asarray(atoms, dtype=float))


def distances(a, b):
    """(n, m) Euclidean distances between the rows of a and b."""
    return np.sqrt(squared_distances_broadcast(a, b))


def uniform_path(states):
    states = np.asarray(states, dtype=float)
    n = states.shape[1]
    return MeasurePath(np.arange(states.shape[0], dtype=float), states, np.full(n, 1.0 / n))


# both distances with a builder of their inputs from (n, d) atoms: the
# measure itself, or a path that holds it at one time
DISTANCES = {
    "wasserstein": (wasserstein, uniform),
    "wasserstein_path": (wasserstein_path, lambda atoms: uniform_path([atoms])),
}


class TestMeasureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([0.4, 0.4]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([1.2, -0.2]))

    def test_nan_weights_rejected(self):
        # NaN compares false, so each check is written to fail on it
        for weights in ([np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]):
            with pytest.raises(ValueError, match="measure weights must be positive"):
                check_weights(weights, 2)
            with pytest.raises(ValueError, match="positive"):
                EmpiricalMeasure(np.zeros((2, 1)), weights)
        with pytest.raises(ValueError, match="^weights sum to inf, expected 1$"):
            check_weights([np.inf, 1.0], 2)

    def test_empty_uniform_measure(self):
        # the constructor's emptiness check runs before any weight is made
        for atoms in (np.zeros((0, 2)), np.zeros(0), []):
            with pytest.raises(EmptyMeasureError, match="n >= 1"):
                EmpiricalMeasure.uniform(atoms)

    def test_atoms_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalMeasure(np.array([[np.nan]]), np.array([1.0]))

    def test_path_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            MeasurePath(np.array([0.0, 0.0]), np.zeros((2, 1, 1)), np.array([1.0]))

    def test_path_weights_checked_like_a_measure(self):
        # when the path is built, not when a distance is first asked of it
        with pytest.raises(ValueError, match="measure weights must be positive"):
            MeasurePath(np.array([0.0, 1.0]), np.zeros((2, 2, 1)), np.array([2.0, -1.0]))


class TestWasserstein:
    def test_two_diracs(self):
        a, b = np.array([1.0, 2.0]), np.array([4.0, 6.0])
        for p in (1.0, 2.0, 3.5):
            assert wasserstein(uniform([a]), uniform([b]), p) == pytest.approx(5.0)

    def test_frozen_1d_example(self):
        # sorted matching of {0,2} against {1,3} moves each atom by 1
        mu = uniform([[0.0], [2.0]])
        nu = uniform([[1.0], [3.0]])
        assert wasserstein(mu, nu, p=1) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(0)
        mu = uniform(rng.normal(size=(5, 3)))
        assert wasserstein(mu, mu, p=2) <= 1e-12

    @pytest.mark.parametrize("distance, build", DISTANCES.values(), ids=DISTANCES.keys())
    def test_dimension_mismatch(self, distance, build):
        with pytest.raises(DimensionMismatchError):
            distance(build([[0.0]]), build([[0.0, 0.0]]), 2)

    def test_support_cap(self):
        # 2049 against 2048 atoms: outside 1-D the cap is checked before any solve
        assert DEFAULT_SUPPORT_CAP == 4096
        rng = np.random.default_rng(1)
        mu = uniform(rng.normal(size=(2049, 2)))
        nu = uniform(rng.normal(size=(2048, 2)))
        with pytest.raises(SupportCapError, match="4097 exceeds solver cap 4096"):
            wasserstein(mu, nu, 2)
        a = uniform_path(rng.normal(size=(2, 2049, 2)))
        b = uniform_path(rng.normal(size=(2, 2048, 2)))
        with pytest.raises(SupportCapError, match="4097"):
            wasserstein_path(a, b, 2)
        # 3000 against 2000 atoms in 1-D: the closed form builds no pair table,
        # so the cap does not apply; replicated to 6000 each, the optimal plan
        # is the sorted matching
        a = rng.normal(size=3000)
        b = rng.normal(size=2000)
        gap = np.sort(np.repeat(a, 2)) - np.sort(np.repeat(b, 3))
        for p in (1.0, 2.0):
            want = np.mean(np.abs(gap) ** p) ** (1.0 / p)
            assert wasserstein(uniform(a), uniform(b), p) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("distance, build", DISTANCES.values(), ids=DISTANCES.keys())
    def test_invalid_order(self, distance, build):
        with pytest.raises(ValueError, match="order p must be >= 1"):
            distance(build([[0.0]]), build([[1.0]]), p=0.5)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_assignment_equals_brute_force(self, p):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = rng.integers(2, 8)
            d = rng.integers(1, 4)
            a = rng.normal(size=(n, d))
            b = rng.normal(size=(n, d))
            got = wasserstein(uniform(a), uniform(b), p)
            want = brute_force_wasserstein_uniform(a, b, p)
            assert got == pytest.approx(want, abs=1e-10)

    def test_1d_fast_path_equals_lp(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n, m = rng.integers(2, 9, size=2)
            a = rng.normal(size=(n, 1))
            b = rng.normal(size=(m, 1))
            wa = rng.uniform(0.2, 1.0, size=n)
            wa /= wa.sum()
            wb = rng.uniform(0.2, 1.0, size=m)
            wb /= wb.sum()
            p = float(rng.choice([1.0, 2.0]))
            fast = wasserstein(EmpiricalMeasure(a, wa), EmpiricalMeasure(b, wb), p)
            lp = transport_lp_cost(distances(a, b), wa, wb, p) ** (1.0 / p)
            assert fast == pytest.approx(lp, abs=1e-10)
        # equal uniform sizes (every breakpoint coincides), one-atom measures
        # and 150 against 200 atoms with arbitrary weights
        for n, m, uniform_weights in ((5, 5, True), (6, 6, False), (1, 4, False),
                                      (3, 1, False), (1, 1, True), (150, 200, False)):
            a = rng.normal(size=(n, 1))
            b = rng.normal(size=(m, 1))
            wa = np.full(n, 1.0) if uniform_weights else rng.uniform(0.2, 1.0, size=n)
            wb = np.full(m, 1.0) if uniform_weights else rng.uniform(0.2, 1.0, size=m)
            wa, wb = wa / wa.sum(), wb / wb.sum()
            for p in (1.0, 2.0, 3.0):
                fast = wasserstein(EmpiricalMeasure(a, wa), EmpiricalMeasure(b, wb), p)
                lp = transport_lp_cost(distances(a, b), wa, wb, p) ** (1.0 / p)
                # HiGHS stops within about 1e-9 of the optimal cost
                assert fast == pytest.approx(lp, rel=1e-7)
        # 1500 against 2000 uniform atoms: replicated to 6000 each, the optimal
        # plan is the sorted matching (the LP has 3e6 variables, too many here)
        a = rng.normal(size=1500)
        b = rng.normal(size=2000)
        gap = np.sort(np.repeat(a, 4)) - np.sort(np.repeat(b, 3))
        for p in (1.0, 2.0):
            want = np.mean(np.abs(gap) ** p) ** (1.0 / p)
            assert wasserstein(uniform(a), uniform(b), p) == pytest.approx(want, rel=1e-14, abs=0)
        assert wasserstein(uniform(a), uniform(a[::-1]), 2) == 0.0

    def test_unequal_sizes_lp_route(self):
        # 2 against 3 atoms: in 1-D the closed form solves any sizes
        mu = uniform([[0.0], [1.0]])
        nu = uniform([[0.0], [1.0], [0.5]])
        # optimal plan keeps 1/3 at each matched atom and splits the rest
        got = wasserstein(mu, nu, p=1)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-9)


def divisible(sizes):
    """Sizes rounded down to a chain where each divides the next larger one."""
    sizes = sorted(sizes)
    out = [sizes[0]]
    for n in sizes[1:]:
        out.append(max(out[-1], n // out[-1] * out[-1]))
    return out


POINTS = st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(POINTS, POINTS)
def test_symmetry(a, b):
    # 2-D: sizes cut to a divisible pair, the only unequal pairs solved there
    n, m = divisible([len(a), len(b)])
    a, b = (a[:n], b[:m]) if len(a) <= len(b) else (a[:m], b[:n])
    mu, nu = uniform(a), uniform(b)
    assert wasserstein(mu, nu, 2) == pytest.approx(wasserstein(nu, mu, 2), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(POINTS, POINTS)
def test_symmetry_1d(a, b):
    mu, nu = uniform([[x] for x, _ in a]), uniform([[x] for x, _ in b])
    assert wasserstein(mu, nu, 2) == pytest.approx(wasserstein(nu, mu, 2), abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_divisible_sizes_assignment_equals_lp(p):
    # n against k*n uniform atoms: the replicated assignment is the LP optimum
    rng = np.random.default_rng(int(p))
    for n in range(1, 8):
        for k in range(1, 5):
            for d in (2, 3):
                a = rng.normal(size=(n, d))
                b = rng.normal(size=(k * n, d))
                lp = transport_lp_cost(
                    distances(a, b), np.full(n, 1.0 / n), np.full(k * n, 1.0 / (k * n)), p
                )
                got = wasserstein(uniform(a), uniform(b), p)
                assert got == pytest.approx(lp ** (1.0 / p), rel=1e-9)
                pa = uniform_path(rng.normal(size=(3, n, d)))
                pb = uniform_path(rng.normal(size=(3, k * n, d)))
                lp = transport_lp_cost(path_sup_distances(pb, pa), pb.weights, pa.weights, p)
                got = wasserstein_path(pb, pa, p)
                assert got == pytest.approx(lp ** (1.0 / p), rel=1e-9)


def test_divisible_sizes_symmetric_bitwise():
    rng = np.random.default_rng(12)
    for n in (1, 3, 8):
        mu = uniform(rng.normal(size=(n, 2)))
        nu = uniform(rng.normal(size=(2 * n, 2)))
        assert wasserstein(mu, nu, 2) == wasserstein(nu, mu, 2)
        a = uniform_path(rng.normal(size=(4, n, 2)))
        b = uniform_path(rng.normal(size=(4, 2 * n, 2)))
        assert wasserstein_path(a, b, 2) == wasserstein_path(b, a, 2)


def test_unsupported_pairs_raise():
    rng = np.random.default_rng(13)
    weights = np.array([0.5, 0.25, 0.25])
    pairs = [
        (uniform(rng.normal(size=(4, 2))), uniform(rng.normal(size=(6, 2))), (4, 6)),
        (EmpiricalMeasure(rng.normal(size=(3, 2)), weights), uniform(rng.normal(size=(6, 2))),
         (3, 6)),
        (EmpiricalMeasure(rng.normal(size=(3, 2)), weights), uniform(rng.normal(size=(3, 2))),
         (3, 3)),
    ]
    for mu, nu, (n, m) in pairs:
        with pytest.raises(UnsupportedTransportError, match=f"between {n} and {m} atoms"):
            wasserstein(mu, nu, 2)
    with pytest.raises(UnsupportedTransportError, match="between 4 and 6 atoms"):
        wasserstein_path(uniform_path(rng.normal(size=(3, 4, 1))),
                         uniform_path(rng.normal(size=(3, 6, 1))), 2)
    # 1-D takes the closed form, whatever the weights and sizes
    a, b = rng.normal(size=(3, 1)), rng.normal(size=(6, 1))
    want = transport_lp_cost(distances(a, b), weights, np.full(6, 1 / 6), 2) ** 0.5
    assert wasserstein(EmpiricalMeasure(a, weights), uniform(b), 2) == pytest.approx(want, rel=1e-7)
    a = uniform_path(rng.normal(size=(5, 128, 2)))
    b = uniform_path(rng.normal(size=(5, 256, 2)))
    assert wasserstein_path(a, b, 2) > 0


def test_path_sup_distances_match_per_step_roots():
    rng = np.random.default_rng(14)
    a = uniform_path(rng.normal(size=(7, 9, 3)))
    b = uniform_path(rng.normal(size=(7, 18, 3)))
    want = np.max([distances(a.states[t], b.states[t]) for t in range(7)], axis=0)
    assert np.array_equal(path_sup_distances(a, b), want)


def spread_magnitudes(rng, n, dim):
    """n points whose coordinates range over magnitudes 1e-8 to 1e8."""
    return rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_squared_distances_equal_broadcast_bitwise(dim):
    # every difference table is an exact matrix product: the squared
    # distances equal the broadcast formula bit for bit, for repeated points,
    # signed zeros, mixed magnitudes, m != n and sizes past BLAS's blocking
    rng = np.random.default_rng(dim)
    a = spread_magnitudes(rng, 40, dim)
    a[5], a[7], a[8] = a[3], 0.0, -0.0
    a[9, 0] = -0.0
    b = np.concatenate([spread_magnitudes(rng, 20, dim), a[:4], a[7:10]])
    wide = np.concatenate([a, rng.normal(size=a.shape)], axis=1)
    big_a, big_b = spread_magnitudes(rng, 300, dim), spread_magnitudes(rng, 200, dim) + 1e4
    for x, y in ((a, b), (b, a), (a, a), (wide[:, :dim], b), (big_a, big_b)):
        want = squared_distances_broadcast(x, y).tobytes()
        assert _squared_distances(x, y).tobytes() == want
        # buffers holding NaN: nothing of their old contents may leak in
        out, diff = np.full((2, x.shape[0], y.shape[0]), np.nan)
        got = _squared_distances(x, y, out=out, diff=diff)
        assert got is out and got.tobytes() == want


def test_path_sup_distances_equal_broadcast_bitwise():
    # 21 steps of 128 against 256 trajectories, drifting far from the origin
    rng = np.random.default_rng(21)
    drift = np.linspace(0.0, 1e6, 21)[:, None, None]
    a = uniform_path(rng.normal(size=(21, 128, 2)).cumsum(axis=0) + drift)
    b = uniform_path(rng.normal(size=(21, 256, 2)).cumsum(axis=0) + drift)
    sq = [squared_distances_broadcast(a.states[t], b.states[t]) for t in range(21)]
    assert path_sup_distances(a, b).tobytes() == np.sqrt(np.max(sq, axis=0)).tobytes()


@pytest.mark.parametrize("dim, tables", [(1, 0), (2, 3), (3, 3)])
def test_wasserstein_peak_memory(dim, tables):
    # 1-D builds no (n, m) table. Otherwise the root overwrites the squared
    # distances, whose coordinate differences are freed before their p-th
    # powers are taken, and the assignment's column reduction copies the
    # costs once: three tables, whatever the dimension
    n, m = 128, 256
    rng = np.random.default_rng(dim)
    mu, nu = uniform(rng.normal(size=(n, dim))), uniform(rng.normal(size=(m, dim)))
    peak = peak_traced_bytes(lambda: wasserstein(mu, nu, 2))
    assert peak <= 8 * (tables * n * m + 16 * (n + m))


@pytest.mark.parametrize("steps", [2, 21])
def test_path_sup_distances_peak_memory(steps):
    # the running maximum, one squared-distance table and one coordinate's
    # differences, plus O(n + m) factors: nothing is allocated per step
    n, m, dim = 128, 256, 2
    rng = np.random.default_rng(steps)
    a = uniform_path(rng.normal(size=(steps, n, dim)))
    b = uniform_path(rng.normal(size=(steps, m, dim)))
    peak = peak_traced_bytes(lambda: path_sup_distances(a, b))
    assert peak <= 8 * (3 * n * m + 8 * dim * (n + m))


def assert_assignment_matches_scipy(dist, k, p):
    """The solver against scipy on the rows repeated k times, at rel 1e-12."""
    n, m = dist.shape
    cols = _assignment(dist**p, k)
    # a bijection of the n*k row copies onto the columns
    assert cols.shape == (n, k)
    assert np.array_equal(np.sort(cols, axis=None), np.arange(m))
    repeated = np.repeat(dist**p, k, axis=0)
    rows, want_cols = linear_sum_assignment(repeated)
    want = np.sum(repeated[rows, want_cols]) / m
    got = _transport_cost(dist, np.full(n, 1.0 / n), np.full(m, 1.0 / m), p)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("rounded", [False, True])
def test_assignment_matches_scipy(rounded):
    # rounded atoms sit on a small integer grid: many tied costs
    rng = np.random.default_rng(31 + rounded)
    for _ in range(150):
        n, k, d, p = (int(x) for x in rng.integers([1, 1, 1, 1], [41, 5, 4, 4]))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(k * n, d))
        if rounded:
            a, b = np.round(a), np.round(b)
        assert_assignment_matches_scipy(distances(a, b), k, p)


def test_assignment_matches_scipy_cauchy_shapes():
    # sup distances between coupled random walks of N and 2N particles
    rng = np.random.default_rng(32)
    for n in (32, 64, 128):
        steps = rng.normal(scale=0.1, size=(21, 2 * n, 2))
        b = uniform_path(np.cumsum(steps, axis=0))
        a = uniform_path(b.states[:, :n] + rng.normal(scale=0.05, size=(21, n, 2)))
        assert_assignment_matches_scipy(path_sup_distances(a, b), 2, 2)


class CountedRows(np.ndarray):
    """Cost matrix that counts the single rows read from it.

    Reductions of it (the column minima) are 1-D views of this class too;
    they count nothing.
    """

    reads = 0

    def __getitem__(self, key):
        if self.ndim == 2 and isinstance(key, (int, np.integer)):
            CountedRows.reads += 1
        return np.asarray(self)[key]


def test_constant_costs_one_scan_per_augmentation():
    # every path length ties: the search must end on a free column at once,
    # not rescan the matched ones (quadratic in n). The column reduction
    # gives row 0 column 0; each other row then takes one scan.
    n = 512
    CountedRows.reads = 0
    cols = _assignment(np.ones((n, n)).view(CountedRows), 1)
    assert np.array_equal(cols[:, 0], np.arange(n))
    assert CountedRows.reads == n - 1


def test_non_finite_costs_raise():
    rng = np.random.default_rng(33)
    for bad in (np.nan, np.inf):
        dist = rng.uniform(size=(4, 8))
        dist[2, 5] = bad
        with pytest.raises(NonFiniteCostError, match=r"shape \(4, 8\) has non-finite"):
            _transport_cost(dist, np.full(4, 0.25), np.full(8, 0.125), 2)
        states = rng.normal(size=(3, 8, 2))
        states[1, 3, 0] = bad
        with pytest.raises(NonFiniteCostError, match=r"shape \(4, 8\)"):
            wasserstein_path(uniform_path(rng.normal(size=(3, 4, 2))), uniform_path(states), 2)
    # finite atoms whose cost overflows
    with np.errstate(over="ignore"), pytest.raises(NonFiniteCostError, match=r"shape \(2, 2\)"):
        wasserstein(uniform([[0.0, 0.0], [1e110, 0.0]]), uniform([[1.0, 1.0], [-1e110, 0.0]]), 3)


def assert_triangle(seed, dim):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 8, size=3)
    if dim > 1:
        sizes = rng.permutation(divisible(sizes))
    mu, nu, rho = (uniform(rng.normal(size=(n, dim))) for n in sizes)
    d_ab = wasserstein(mu, nu, 2)
    d_bc = wasserstein(nu, rho, 2)
    d_ac = wasserstein(mu, rho, 2)
    assert d_ac <= d_ab + d_bc + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_inequality(seed):
    # 2-D: sizes cut to a divisible chain, so every pair has a route
    assert_triangle(seed, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_inequality_1d(seed):
    assert_triangle(seed, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_monotone_in_p(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    mu = uniform(rng.normal(size=(n, 2)))
    nu = uniform(rng.normal(size=(n, 2)))
    w1 = wasserstein(mu, nu, 1)
    w2 = wasserstein(mu, nu, 2)
    w3 = wasserstein(mu, nu, 3)
    assert w1 <= w2 + 1e-10
    assert w2 <= w3 + 1e-10


class TestMoments:
    def test_dirac_at_zero(self):
        mu = uniform([[0.0, 0.0]])
        assert moments(mu, 2) == 0.0

    def test_symmetric_pair(self):
        mu = uniform([[1.0], [-1.0]])
        assert moments(mu, 2) == pytest.approx(1.0)

    def test_support_radius(self):
        assert support_radius(uniform([[0.0, 0.0]])) == 0.0
        assert support_radius(uniform([[3.0, 4.0], [0.0, 0.0]])) == 5.0
        weighted = EmpiricalMeasure(
            np.array([[3.0, 4.0], [0.0, 0.0]]), np.array([0.01, 0.99])
        )
        assert support_radius(weighted) == 5.0


class TestWassersteinPath:
    def test_identical_paths(self):
        rng = np.random.default_rng(2)
        p = uniform_path(rng.normal(size=(4, 3, 2)))
        assert wasserstein_path(p, p, 2) <= 1e-12

    def test_single_atom_sup_distance(self):
        a = uniform_path([[[0.0]], [[1.0]], [[0.5]]])
        b = uniform_path([[[0.0]], [[3.0]], [[0.5]]])
        assert wasserstein_path(a, b, 2) == pytest.approx(2.0)

    def test_two_atom_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=(3, 2, 2))
            b = rng.normal(size=(3, 2, 2))
            got = wasserstein_path(uniform_path(a), uniform_path(b), 2)
            want = brute_force_path_wasserstein_uniform(a, b, 2)
            assert got == pytest.approx(want, abs=1e-10)

    def test_uniform_many_atoms_brute_force(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 5, 2))
        b = rng.normal(size=(4, 5, 2))
        got = wasserstein_path(uniform_path(a), uniform_path(b), 2)
        want = brute_force_path_wasserstein_uniform(a, b, 2)
        assert got == pytest.approx(want, abs=1e-10)

    def test_mismatched_grids_rejected(self):
        a = uniform_path(np.zeros((3, 2, 1)))
        b = MeasurePath(np.array([0.0, 0.5, 1.0]), np.zeros((3, 2, 1)), np.full(2, 0.5))
        with pytest.raises(ValueError, match="grid"):
            wasserstein_path(a, b, 2)
