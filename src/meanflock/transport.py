"""Empirical measures and exact Wasserstein distances on small supports.

Two exact solver routes, selected automatically, both in numpy alone:

* one-dimensional supports: the closed form on the merged quantile
  breakpoints (exact for arbitrary weights),
* uniform weights where one atom count divides the other: an optimal
  assignment in which each atom of the smaller support takes m/n atoms of
  the larger; scaled by m the marginals are integers, so the transportation
  polytope has integral vertices and its optimum is this assignment. The
  package solves it itself by shortest augmenting paths (``_assignment``).

Every pair an experiment builds takes one of them: simulated measures are
uniform, and Cauchy-in-N sizes halve. Any other pair outside 1-D (weighted,
or 4 against 6 atoms) raises :class:`UnsupportedTransportError` rather than
falling back to a general transportation LP.

All distances are exact up to solver round-off; there is no entropic or
sliced approximation anywhere in this module. ``wasserstein``,
``wasserstein_path`` and ``optimal_pairing`` (the plan itself, for equal
atom counts) share one checked path (``_checked_ground``). On the
assignment route, measures with more than ``DEFAULT_SUPPORT_CAP`` atoms
combined raise :class:`SupportCapError` before any pair table is built, and
a cost matrix that overflows raises :class:`NonFiniteCostError`; the 1-D
routes build none and take any size.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_SUPPORT_CAP
from .errors import (
    DimensionMismatchError,
    EmptyMeasureError,
    NonFiniteCostError,
    SupportCapError,
    UnsupportedTransportError,
)

_WEIGHT_TOL = 1e-12


def check_weights(weights, n: int) -> np.ndarray:
    """``weights`` as a float array, if they are n positive weights summing to 1."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise DimensionMismatchError("weights", n, weights.size)
    # written so that a NaN weight fails both checks
    if not np.all(weights > 0):
        raise ValueError("measure weights must be positive")
    total = float(weights.sum())
    if not abs(total - 1.0) <= _WEIGHT_TOL:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    return weights


class EmpiricalMeasure:
    """Weighted point cloud sum_j w_j * delta_{y_j} with weights summing to 1,
    each 1/n when ``weights`` is None; the constructor checks the atoms and
    the weights."""

    __slots__ = ("atoms", "weights")

    def __init__(self, atoms, weights=None):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] == 0:
            raise EmptyMeasureError("measure needs a (n, d) atom array with n >= 1")
        n = atoms.shape[0]
        self.weights = check_weights(np.full(n, 1.0 / n) if weights is None else weights, n)
        if not np.all(np.isfinite(atoms)):
            raise ValueError("measure atoms must be finite")
        self.atoms = atoms

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


class MeasurePath:
    """Time-indexed empirical measures with a fixed atom count and weights.

    ``states[t, j]`` is atom j at time ``times[t]``; the index j is a stable
    trajectory label, which is what path-space distances match on. The
    constructor checks the shapes, the time order and the weights.
    """

    __slots__ = ("times", "states", "weights")

    def __init__(self, times, states, weights):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if states.ndim != 3:
            raise ValueError("states must have shape (times, atoms, dim)")
        if times.shape != (states.shape[0],):
            raise ValueError("times and states lengths differ")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.weights = check_weights(weights, states.shape[1])
        self.times, self.states = times, states

    @property
    def n_atoms(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def measure_at(self, index: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states[index], self.weights)


def moments(mu: EmpiricalMeasure, q: float) -> float:
    """q-th absolute moment sum_j w_j ||y_j||^q."""
    if q < 1:
        raise ValueError("moment order q must be >= 1")
    # a moment that overflows is inf, which reports write as "inf"
    with np.errstate(over="ignore"):
        return float(np.sum(mu.weights * np.linalg.norm(mu.atoms, axis=1) ** q))


def _is_uniform(weights: np.ndarray) -> bool:
    return bool(np.max(np.abs(weights - 1.0 / weights.size)) <= _WEIGHT_TOL)


def _difference_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) with lhs[k] @ rhs[k] = [a_k, -1] @ [1; b_k] the (n, m)
    table a_ik - b_jk, written by BLAS at contiguous speed."""
    lhs = np.empty((a.shape[1], a.shape[0], 2))
    lhs[..., 0], lhs[..., 1] = a.T, -1.0
    rhs = np.empty((b.shape[1], 2, b.shape[0]))
    rhs[:, 0], rhs[:, 1] = 1.0, b.T
    return lhs, rhs


def _squared_distances(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, diff: np.ndarray | None = None
) -> np.ndarray:
    """(n, m) squared Euclidean distances, added one coordinate at a time.

    Both products in an entry of a ``_difference_factors`` table, a_ik * 1
    and -1 * b_jk, are exact, and a sum of two exact terms rounds once in
    any order, with or without FMA. So each table is the broadcast
    a_ik - b_jk bit for bit under any BLAS, up to the sign of a zero, which
    squaring removes. The expansion |a|^2 - 2 a.b + |b|^2 is not exact:
    its cancellation error grows with |a|^2, and flocks drift far from the
    origin.

    ``out`` and ``diff`` are optional (n, m) buffers, for callers in a loop.
    """
    lhs, rhs = _difference_factors(a, b)
    out = np.matmul(lhs[0], rhs[0], out=out)
    out *= out
    if diff is None and a.shape[1] > 1:
        diff = np.empty_like(out)
    for k in range(1, a.shape[1]):
        np.matmul(lhs[k], rhs[k], out=diff)
        diff *= diff
        out += diff
    return out


def _cumulative_weights(weights: np.ndarray) -> np.ndarray:
    """Running sums of ``weights``; k/n, correctly rounded, when uniform.

    A running float sum drifts by up to n ulps, so breakpoints that coincide
    in exact arithmetic (k/n = l/m) would be split by spurious slivers.
    """
    n = weights.size
    return np.arange(1, n + 1) / n if _is_uniform(weights) else np.cumsum(weights)


def _wasserstein_1d(xa, wa, xb, wb, p: float) -> float:
    """Exact 1-d W_p^p from the quantile functions on merged breakpoints.

    Both quantile functions are step functions that jump only at cumulative
    weights, so on each interval (t_{k-1}, t_k] between consecutive merged
    breakpoints each is constant, equal to its value at t_k (Peyre & Cuturi,
    Computational Optimal Transport, arXiv:1803.00567, section 2.6):
    W_p^p = sum_k (t_k - t_{k-1}) |F_a^{-1}(t_k) - F_b^{-1}(t_k)|^p.
    Coinciding breakpoints give empty intervals, which add nothing.
    """
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, ca = xa[ia], _cumulative_weights(wa[ia])
    xb, cb = xb[ib], _cumulative_weights(wb[ib])
    t = np.sort(np.concatenate([ca, cb]))
    # the two totals may differ in the last bit: clip past-the-end indices
    qa = xa[np.minimum(np.searchsorted(ca, t), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, t), xb.size - 1)]
    return float(np.sum(np.diff(t, prepend=0.0) * np.abs(qa - qb) ** p))


# entries of ``cost`` that the column reduction copies at a time
_BLOCK = 2048


def _column_reduction(cost: np.ndarray, k: int) -> tuple:
    """Duals v_j = min_i c_ij and the matching they start from: ``(v,
    row4col, cols_of, free_cols)``, the row of each column (-1 if free),
    the columns of each row, and the free columns, ascending.

    Each column is held by the first row, in row order, attaining its
    minimum; each row takes the first k columns it holds. ``argmin`` along
    axis 0 finds those rows but copies what it reads, so it reads
    ``_BLOCK`` entries at a time.
    """
    n, m = cost.shape
    v = cost.min(axis=0)
    holder = np.empty(m, dtype=np.intp)
    width = max(1, _BLOCK // n)
    for j in range(0, m, width):
        holder[j : j + width] = cost[:, j : j + width].argmin(axis=0)
    order = np.argsort(holder, kind="stable")
    held = holder[order]
    keep = np.arange(m) - np.searchsorted(held, held) < k
    row4col = np.full(m, -1)
    row4col[order[keep]] = held[keep]
    cols_of = [[] for _ in range(n)]
    for j, i in zip(order[keep].tolist(), held[keep].tolist()):
        cols_of[i].append(j)
    return v, row4col, cols_of, np.sort(order[~keep])


def _assignment(cost: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row in a least-cost assignment where every row takes k.

    ``cost`` is (n, k*n); the result is an (n, k) array, each row's columns
    ascending, holding every column once. Successive shortest augmenting
    paths with dual potentials (Jonker & Volgenant, Computing 38, 1987;
    Crouse, IEEE Trans. Aerosp. Electron. Syst. 52, 2016), run on rows with
    capacity k rather than on k copies of each row: copies share one dual,
    so a Dijkstra search scans each row at most once per augmentation.

    The duals start from ``_column_reduction``, and each further unit of
    row capacity takes one augmentation. There is no augmenting row
    reduction: on the Cauchy-in-N tables it ran away (361,000 iterations in
    one solve), and capped it saved augmentations but no time.

    A Dijkstra step scans one row: three vector operations on the path
    lengths (subtract the column duals, add the row's offset, keep the
    minimum), one ``argmin``, and k scalar exclusions that shut the row's
    columns off for the rest of the search. Among tied minima a step takes
    a free column if there is one, the first in column order, which ends
    the search; without that rule a constant matrix rescans every matched
    column. ``argmin`` takes the first minimum, so the free columns are
    gathered only when the minimum is matched and a lower bound on their
    least length reaches it: the least, over the scanned rows, of
    ``floor[i]`` (row i's least reduced cost on the free columns) plus the
    row's offset, which rounding, being monotone, keeps exact while the
    floors are current. A stale floor only lies below the current value,
    as free columns keep their duals and only leave the free set, so the
    bound stays a bound; a gather that finds no tie recomputes the floor
    of the row that set it.

    Once a free column is reached, the path is walked back: each column
    came from the first row, among those scanned before it was reached,
    whose scan gave its length. dist_row - u is taken once per search, so
    a hop gathers one column of ``cost``, and the lengths are the same sums,
    so the same floats. In the dual update every matched column takes the
    shift of its row in one vector operation; an unscanned row's shift,
    and a free column's, is 0.0, which leaves v bitwise unchanged.

    A NaN or an infinity in ``cost``, on which the search may never end,
    raises :class:`NonFiniteCostError`.
    """
    # costs are >= 0: the max is finite unless an entry is inf or NaN
    if not np.isfinite(cost.max()):
        raise NonFiniteCostError(cost.shape)
    n, m = cost.shape
    v, row4col, cols_of, free_cols = _column_reduction(cost, k)
    # floor[i]: the least reduced cost c_ij - v_j of row i on the free columns
    vfree = v[free_cols]
    floor = np.full(n, np.inf)
    for f, vf in zip(free_cols.tolist(), vfree.tolist()):
        np.minimum(floor, cost[:, f] - vf, out=floor)
    u = np.zeros(n)
    # per search: d holds the path lengths to the columns, w is v with the
    # columns of scanned rows at -inf, so that no later scan reaches them
    d, w, cand = np.empty(m), np.empty(m), np.empty(m)
    # numpy adds a 0-d array faster than a Python float, which it converts
    offset = np.empty(())
    dist_row = np.zeros(n)
    # shift[-1] stays 0.0: it is the shift of the free columns (row -1)
    shift = np.zeros(n + 1)
    reach = [0] * n
    # the loop runs once per scan: bind what it calls, and give ``out`` as
    # the tuple numpy would otherwise build on every call
    subtract, add, minimum = np.subtract, np.add, np.minimum
    d_out, inf, ninf = (d,), np.inf, -np.inf
    for s in range(n):
        for _ in range(k - len(cols_of[s])):
            d.fill(inf)
            np.copyto(w, v)
            for c in cols_of[s]:
                w[c] = ninf
            scanned, low, i = [s], 0.0, s
            free_low, culprit = inf, s
            dist_row[s] = 0.0
            while True:
                off = low - u.item(i)
                offset[()] = off
                subtract(cost[i], w, cand)
                add(cand, offset, cand)
                minimum(d, cand, out=d_out)
                bound = floor.item(i) + off
                if bound < free_low:
                    free_low, culprit = bound, i
                j = int(d.argmin())
                low, i = d.item(j), row4col.item(j)
                if i < 0:
                    break
                if free_low <= low:
                    tied = d[free_cols]
                    f = int(tied.argmin())
                    free_low = tied.item(f)
                    if free_low == low:
                        j = int(free_cols[f])
                        break
                    reduced = cost[culprit, free_cols]
                    reduced -= vfree
                    floor[culprit] = minimum.reduce(reduced)
                for c in cols_of[i]:
                    w[c] = ninf
                    d[c] = inf
                # row i was reached through column j, before its own scan
                reach[i] = j
                dist_row[i] = low
                scanned.append(i)
            # walk back from the free column j
            rows = np.array(scanned)
            base = dist_row[rows] - u[rows]
            hops, n_before = [], len(scanned)
            while True:
                lengths = cost[:, j][rows[:n_before]]
                offset[()] = v.item(j)
                subtract(lengths, offset, lengths)
                add(lengths, base[:n_before], lengths)
                i = scanned[int(lengths.argmin())]
                hops.append((i, j))
                if i == s:
                    break
                n_before, j = scanned.index(i), reach[i]
            # dual update: reduced costs stay >= 0, and 0 on the new matching
            shift[rows] = low - dist_row[rows]
            u[rows] += shift[rows]
            v -= shift[row4col]
            shift[rows] = 0.0
            kept = free_cols != hops[0][1]
            free_cols, vfree = free_cols[kept], vfree[kept]
            for i, j in hops:
                row4col[j] = i
                cols_of[i].append(j)
                if i != s:
                    cols_of[i].remove(reach[i])
    return np.argsort(row4col, kind="stable").reshape(n, k)


def _transport_cost(dist: np.ndarray, wa: np.ndarray, wb: np.ndarray, p: float) -> float:
    """W_p^p between weights ``wa`` (rows of ``dist``) and ``wb`` (columns).

    Uniform weights where one atom count divides the other are solved as an
    assignment with the smaller support as rows, so swapping two measures
    of unequal size gives the same float; any other pair raises
    :class:`UnsupportedTransportError`. Each of the n rows takes k = m/n of
    the m columns: ``_assignment`` treats a row as k copies sharing one
    dual, so no replicated (m, m) table is built. It is exact (successive
    shortest augmenting paths) and, among tied path lengths, ends on a free
    column, the first in column order. A cost that overflows raises
    :class:`NonFiniteCostError`.
    """
    n, m = dist.shape
    if not (_is_uniform(wa) and _is_uniform(wb) and max(n, m) % min(n, m) == 0):
        raise UnsupportedTransportError(n, m)
    if n > m:
        dist, n, m = np.ascontiguousarray(dist.T), m, n
    cost = dist**p
    cols = _assignment(cost, m // n)
    return float(np.sum(np.take_along_axis(cost, cols, axis=1).ravel()) / m)


def _checked_ground(mu, nu, p: float, ground):
    """``ground(mu, nu)``, the (n, m) ground-distance table of two measures or
    measure paths, once p >= 1, equal dimensions and the support cap are
    checked; None, with no cap, for a 1-D route (``ground`` None)."""
    if p < 1:
        raise ValueError("Wasserstein order p must be >= 1")
    if mu.dim != nu.dim:
        raise DimensionMismatchError("nu", mu.dim, nu.dim)
    if ground is None:
        return None
    if mu.weights.size + nu.weights.size > DEFAULT_SUPPORT_CAP:
        raise SupportCapError(mu.weights.size + nu.weights.size, DEFAULT_SUPPORT_CAP)
    return ground(mu, nu)


def _euclidean(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> np.ndarray:
    # the root overwrites the squared distances
    dist = _squared_distances(mu.atoms, nu.atoms)
    return np.sqrt(dist, out=dist)


def wasserstein(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0) -> float:
    """Exact W_p between two finitely supported measures.

    1-D supports take the closed form for any weights and sizes; otherwise
    both measures must be uniform with one atom count dividing the other
    (:class:`UnsupportedTransportError` if not) and at most
    ``DEFAULT_SUPPORT_CAP`` atoms combined (:class:`SupportCapError`).
    """
    dist = _checked_ground(mu, nu, p, None if mu.dim == 1 else _euclidean)
    if dist is None:
        cost = _wasserstein_1d(mu.atoms[:, 0], mu.weights, nu.atoms[:, 0], nu.weights, p)
    else:
        cost = _transport_cost(dist, mu.weights, nu.weights, p)
    return float(cost ** (1.0 / p))


def optimal_pairing(a, b, p: float = 2.0) -> np.ndarray:
    """Permutation pi pairing row i of ``a`` with row pi[i] of ``b`` in an
    optimal W_p plan of the uniform measures on n rows each: the assignment
    of ``wasserstein``, under its checks, or in 1-D the monotone
    rearrangement, optimal for every p >= 1, which builds no table."""
    mu, nu = EmpiricalMeasure(a), EmpiricalMeasure(b)
    if mu.n != nu.n:
        raise ValueError(f"a pairing needs equal atom counts, got {mu.n} and {nu.n}")
    dist = _checked_ground(mu, nu, p, None if mu.dim == 1 else _euclidean)
    if dist is None:
        rank = np.argsort(np.argsort(mu.atoms[:, 0], kind="stable"))
        return np.argsort(nu.atoms[:, 0], kind="stable")[rank]
    return _assignment(dist**p, 1)[:, 0]


def _sup_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) sup over the grid of the distances between the rows of the
    (T, n, d) states ``a`` and the (T, m, d) states ``b``: a running max of
    squared distances, then one sqrt."""
    out = np.zeros((a.shape[1], b.shape[1]))
    sq, diff = np.empty_like(out), np.empty_like(out)
    for t in range(a.shape[0]):
        _squared_distances(a[t], b[t], out=sq, diff=diff)
        np.maximum(out, sq, out=out)
    # sqrt is monotone and correctly rounded: the max of the roots, bitwise
    return np.sqrt(out, out=out)


def path_sup_distances(mu: MeasurePath, nu: MeasurePath) -> np.ndarray:
    """Matrix of sup-over-time distances between trajectories of two paths."""
    if mu.times.shape != nu.times.shape or not np.array_equal(mu.times, nu.times):
        raise ValueError("measure paths must share an identical time grid")
    return _sup_distances(mu.states, nu.states)


def wasserstein_path(mu: MeasurePath, nu: MeasurePath, p: float = 2.0) -> float:
    """Exact W_p on path space under the sup-norm ground distance.

    The ground cost between two trajectories is their sup-over-time
    distance on the grid both paths must share (``path_sup_distances``
    checks it). The transport problem over these costs is solved as an
    assignment, which needs uniform weights where one atom count divides
    the other (the Cauchy-in-N coupling of N against 2N atoms); any other
    pair raises :class:`UnsupportedTransportError`, whatever the dimension.
    """
    dist = _checked_ground(mu, nu, p, path_sup_distances)
    return float(_transport_cost(dist, mu.weights, nu.weights, p) ** (1.0 / p))
