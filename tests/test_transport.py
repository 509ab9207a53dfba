import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from meanflock.diagnostics import labelled_cost
from meanflock.errors import (
    DimensionMismatchError,
    NonFiniteCostError,
    SupportCapError,
    UnsupportedTransportError,
)
from meanflock.transport import (
    DEFAULT_SUPPORT_CAP,
    MeasurePath,
    _assignment,
    _squared_distances,
    _transport_cost,
    moments,
    optimal_pairing,
    path_sup_distances,
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
    """The (n, d) atom array of a measure."""
    return np.asarray(atoms, dtype=float)


def distances(a, b):
    """(n, m) Euclidean distances between the rows of a and b."""
    return np.sqrt(squared_distances_broadcast(a, b))


def uniform_path(states):
    states = np.asarray(states, dtype=float)
    return MeasurePath(np.arange(states.shape[0], dtype=float), states)


# both distances and the pairing, which share their checks, each with what
# it takes made from (n, d) atoms: the atoms, or a path that holds them at
# one time
CHECKED = {
    "wasserstein": (wasserstein, uniform),
    "wasserstein_path": (wasserstein_path, lambda atoms: uniform_path([atoms])),
    "optimal_pairing": (optimal_pairing, np.asarray),
}


# entry points that read an atom array, each with its call on one array
ATOM_READERS = (
    lambda atoms: wasserstein(atoms, [[0.0]], 2),
    lambda atoms: wasserstein([[0.0]], atoms, 2),
    lambda atoms: optimal_pairing(atoms, atoms, 2),
    lambda atoms: moments(atoms, 2),
)


class TestMeasureValidation:
    def test_empty_uniform_measure(self):
        # one (m, d) check, m >= 1: a flat array is no atom array
        for read in ATOM_READERS:
            for atoms in (np.zeros((0, 1)), np.zeros(0), [], np.zeros(3), np.zeros((2, 1, 1))):
                with pytest.raises(ValueError, match=r"must be a \(m, d\) array with m >= 1"):
                    read(atoms)

    def test_atoms_must_be_finite(self):
        for read in ATOM_READERS:
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match="must be finite"):
                    read(np.array([[bad]]))

    def test_path_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            MeasurePath(np.array([0.0, 0.0]), np.zeros((2, 1, 1)))


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

    @pytest.mark.parametrize("distance, build", CHECKED.values(), ids=CHECKED.keys())
    def test_dimension_mismatch(self, distance, build):
        with pytest.raises(DimensionMismatchError):
            distance(build([[0.0]]), build([[0.0, 0.0]]), 2)

    def test_support_cap(self):
        # 2049 against 2048 atoms: the cap is checked before any solve
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
        with pytest.raises(SupportCapError, match="4098"):
            optimal_pairing(rng.normal(size=(2049, 2)), rng.normal(size=(2049, 2)))
        # in 1-D as in 2-D
        with pytest.raises(SupportCapError, match="4097 exceeds solver cap 4096"):
            wasserstein(rng.normal(size=(2049, 1)), rng.normal(size=(2048, 1)), 2)

    @pytest.mark.parametrize("distance, build", CHECKED.values(), ids=CHECKED.keys())
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
    # 1-D has the same route and the same divisible pairs as 2-D
    n, m = divisible([len(a), len(b)])
    a, b = (a[:n], b[:m]) if len(a) <= len(b) else (a[:m], b[:n])
    mu, nu = uniform([[x] for x, _ in a]), uniform([[x] for x, _ in b])
    assert wasserstein(mu, nu, 2) == pytest.approx(wasserstein(nu, mu, 2), abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_divisible_sizes_assignment_equals_lp(p):
    # n against k*n uniform atoms: the replicated assignment is the LP optimum
    rng = np.random.default_rng(int(p))
    for n in range(1, 8):
        for k in range(1, 5):
            for d in (1, 2, 3):
                a = rng.normal(size=(n, d))
                b = rng.normal(size=(k * n, d))
                lp = transport_lp_cost(
                    distances(a, b), np.full(n, 1.0 / n), np.full(k * n, 1.0 / (k * n)), p
                )
                got = wasserstein(uniform(a), uniform(b), p)
                assert got == pytest.approx(lp ** (1.0 / p), rel=1e-9)
                pa = uniform_path(rng.normal(size=(3, n, d)))
                pb = uniform_path(rng.normal(size=(3, k * n, d)))
                lp = transport_lp_cost(
                    path_sup_distances(pb, pa), np.full(k * n, 1.0 / (k * n)), np.full(n, 1.0 / n), p
                )
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
    for dim in (1, 2):
        a, b = rng.normal(size=(4, dim)), rng.normal(size=(6, dim))
        with pytest.raises(UnsupportedTransportError, match="between 4 and 6 atoms"):
            wasserstein(a, b, 2)
    with pytest.raises(UnsupportedTransportError, match="between 4 and 6 atoms"):
        wasserstein_path(uniform_path(rng.normal(size=(3, 4, 1))),
                         uniform_path(rng.normal(size=(3, 6, 1))), 2)
    for dim in (1, 2):
        with pytest.raises(ValueError, match="equal atom counts, got 4 and 8"):
            optimal_pairing(rng.normal(size=(4, dim)), rng.normal(size=(8, dim)))
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


@pytest.mark.parametrize("dim, tables", [(1, 2), (2, 2), (3, 2)])
def test_wasserstein_peak_memory(dim, tables):
    # the root overwrites the squared distances, whose coordinate
    # differences are freed before their p-th powers are taken, and the
    # assignment finds each column's holder a row at a time: two tables,
    # whatever the dimension
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
    """The solver against scipy on the rows repeated k times, at rel 1e-12;
    returns the solved cost."""
    n, m = dist.shape
    cols = _assignment(dist**p, k)
    # a bijection of the n*k row copies onto the columns
    assert cols.shape == (n, k)
    assert np.array_equal(np.sort(cols, axis=None), np.arange(m))
    repeated = np.repeat(dist**p, k, axis=0)
    rows, want_cols = linear_sum_assignment(repeated)
    want = np.sum(repeated[rows, want_cols]) / m
    got = _transport_cost(dist, p)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    return got


@pytest.mark.parametrize("rounded", [False, True])
def test_assignment_matches_scipy(rounded):
    # rounded atoms sit on a small integer grid: many tied costs
    rng = np.random.default_rng(31 + rounded)
    paired = set()
    for _ in range(150):
        n, k, d, p = (int(x) for x in rng.integers([1, 1, 1, 1], [41, 5, 4, 4]))
        a, b = rng.normal(size=(n, d)), rng.normal(size=(k * n, d))
        if rounded:
            a, b = np.round(a), np.round(b)
        cost = assert_assignment_matches_scipy(distances(a, b), k, p)
        if k == 1:
            # comparison's t = 0 pairing (the sort order in 1-D): its labelled
            # cost is the optimum
            labelled = labelled_cost(a, b[optimal_pairing(a, b, p)], p)
            assert labelled == pytest.approx(cost, rel=1e-12, abs=0)
            w = wasserstein(uniform(a), uniform(b), p)
            assert labelled == pytest.approx(w**p, rel=1e-12, abs=0)
            paired.add((d, p))
    assert paired >= {(d, p) for d in (1, 2) for p in (1, 2, 3)}


def test_assignment_matches_scipy_cauchy_shapes():
    # sup distances between coupled random walks of N and 2N particles. The
    # row scans and the cost, bit for bit, are pinned: a faster solver must
    # run the same search, not another one
    rng = np.random.default_rng(32)
    pinned = {
        32: (59, "0x1.5c625e9f3c4cep-3"),
        64: (269, "0x1.25b09b0d4f067p-3"),
        128: (1111, "0x1.0917b35a2fcf7p-3"),
    }
    for n, (scans, cost) in pinned.items():
        steps = rng.normal(scale=0.1, size=(21, 2 * n, 2))
        b = uniform_path(np.cumsum(steps, axis=0))
        a = uniform_path(b.states[:, :n] + rng.normal(scale=0.05, size=(21, n, 2)))
        dist = path_sup_distances(a, b)
        CountedRows.reads = 0
        _assignment((dist**2).view(CountedRows), 2)
        assert CountedRows.reads == scans
        assert assert_assignment_matches_scipy(dist, 2, 2).hex() == cost


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
            _transport_cost(dist, 2)
        states = rng.normal(size=(3, 8, 2))
        states[1, 3, 0] = bad
        with pytest.raises(NonFiniteCostError, match=r"shape \(4, 8\)"):
            wasserstein_path(uniform_path(rng.normal(size=(3, 4, 2))), uniform_path(states), 2)
    # finite atoms whose squared distances, or their cubes, overflow: a typed
    # error, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big, p in ((1e110, 3), (1e160, 2)):
            a, b = [[0.0, 0.0], [big, 0.0]], [[1.0, 1.0], [-big, 0.0]]
            for solve in (wasserstein, optimal_pairing):
                with pytest.raises(NonFiniteCostError, match=r"shape \(2, 2\)"):
                    solve(a, b, p)
            with pytest.raises(NonFiniteCostError, match=r"shape \(2, 2\)"):
                wasserstein_path(uniform_path([a]), uniform_path([b]), p)
        # in 1-D too, 2 against 4 atoms: the squared gap of 1e200 overflows
        with pytest.raises(NonFiniteCostError, match=r"shape \(2, 4\)"):
            wasserstein([[0.0], [1.0]], [[1e200], [2.0], [3.0], [4.0]], 2)


def assert_triangle(seed, dim):
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(divisible(rng.integers(1, 8, size=3)))
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
    # 1-D too: sizes cut to a divisible chain
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
        b = MeasurePath(np.array([0.0, 0.5, 1.0]), np.zeros((3, 2, 1)))
        with pytest.raises(ValueError, match="grid"):
            wasserstein_path(a, b, 2)
