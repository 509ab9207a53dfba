"""Uniform empirical measures and exact Wasserstein distances on small supports.

A measure is the uniform measure (1/n) sum_j delta_{y_j} on the rows of a
finite (n, d) atom array: the empirical measure of a particle system, whose
particles all weigh the same. ``check_atoms`` is the one atom check, of a
run's initial states, of the replay's starts and of every measure this
module reads.

One exact solver route, in numpy alone: one atom count must divide the
other. Each atom of the smaller support then takes m/n atoms of the
larger; scaled by m the marginals are integers, so the transportation
polytope has integral vertices and its optimum is an assignment. The
package solves it itself by shortest augmenting paths (``_assignment``).
``wasserstein`` and ``wasserstein_path`` take it in every dimension, and
``optimal_pairing`` outside 1-D, each through one ground-distance table
(``_ground``).

Every pair an experiment builds has this route: Cauchy-in-N sizes halve,
and comparison pairs n atoms with n. Any other pair (4 against 6 atoms)
raises :class:`UnsupportedTransportError` rather than falling back to a
general transportation LP.

All distances are exact up to solver round-off; there is no entropic or
sliced approximation anywhere in this module. Measures with more than
``DEFAULT_SUPPORT_CAP`` atoms combined raise :class:`SupportCapError`
before any pair table is built; only ``optimal_pairing`` in 1-D, the
monotone rearrangement, builds none and has no cap. A cost that
overflows raises :class:`NonFiniteCostError`, with no warning.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_SUPPORT_CAP
from .errors import (
    DimensionMismatchError,
    NonFiniteCostError,
    SupportCapError,
    UnsupportedTransportError,
)


def check_atoms(atoms, dim: int | None = None, argument: str = "atoms") -> np.ndarray:
    """``atoms`` as floats, if a finite (m, d) array with m >= 1 and, where
    ``dim`` is given, d = dim; a wrong d raises ``DimensionMismatchError``
    naming ``argument``. The one atom check of the package."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim != 2 or atoms.shape[0] < 1:
        raise ValueError(f"{argument} must be a (m, d) array with m >= 1")
    if not np.all(np.isfinite(atoms)):
        raise ValueError(f"{argument} must be finite")
    if dim is not None and atoms.shape[1] != dim:
        raise DimensionMismatchError(argument, dim, atoms.shape[1])
    return atoms


class MeasurePath:
    """Time-indexed uniform measures with a fixed atom count.

    ``states[t, j]`` is atom j at time ``times[t]``; the index j is a stable
    trajectory label, which is what path-space distances match on. The
    constructor checks the shapes and the time order.
    """

    __slots__ = ("times", "states")

    def __init__(self, times, states):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if states.ndim != 3:
            raise ValueError("states must have shape (times, atoms, dim)")
        if times.shape != (states.shape[0],):
            raise ValueError("times and states lengths differ")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        self.times, self.states = times, states

    @property
    def n_atoms(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def moments(atoms, q: float) -> float:
    """q-th absolute moment (1/n) sum_j ||y_j||^q of the measure on ``atoms``."""
    if q < 1:
        raise ValueError("moment order q must be >= 1")
    atoms = check_atoms(atoms)
    n = atoms.shape[0]
    # each atom weighs 1/n as in the run's field, to the bit (a mean would
    # divide the sum instead); a moment that overflows is inf, which
    # reports write as "inf"
    with np.errstate(over="ignore"):
        return float(np.sum(np.full(n, 1.0 / n) * np.linalg.norm(atoms, axis=1) ** q))


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
        raise NonFiniteCostError(f"transport cost matrix of shape {cost.shape}")
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


def _assignment_plan(dist: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(cost, cols): ``dist``**p with the smaller support as rows, and the
    columns each row takes in a least-cost assignment.

    The pair needs one atom count dividing the other; any other raises
    :class:`UnsupportedTransportError`. Each of the n rows takes k = m/n of
    the m columns: ``_assignment`` treats a row as k copies sharing one
    dual, so no replicated (m, m) table is built. It is exact (successive
    shortest augmenting paths) and, among tied path lengths, ends on a free
    column, the first in column order. A cost that overflows is inf, which
    ``_assignment`` refuses with :class:`NonFiniteCostError`.
    """
    n, m = dist.shape
    if max(n, m) % min(n, m):
        raise UnsupportedTransportError(n, m)
    if n > m:
        dist, n, m = np.ascontiguousarray(dist.T), m, n
    with np.errstate(over="ignore"):
        cost = dist**p
    return cost, _assignment(cost, m // n)


def _transport_cost(dist: np.ndarray, p: float) -> float:
    """W_p^p between the measures on the rows and on the columns of the
    ground-distance table ``dist``, solved by ``_assignment_plan``; swapping
    two measures of unequal size gives the same float."""
    cost, cols = _assignment_plan(dist, p)
    return float(np.sum(np.take_along_axis(cost, cols, axis=1).ravel()) / cost.shape[1])


def _check_order(p: float) -> None:
    if p < 1:
        raise ValueError("Wasserstein order p must be >= 1")


def _checked_pair(a, b, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The atom arrays ``a`` and ``b``, checked, of one dimension, once p >= 1."""
    _check_order(p)
    a = check_atoms(a, argument="a")
    return a, check_atoms(b, a.shape[1], "b")


def _ground(distances, a, b, n: int, m: int) -> np.ndarray:
    """``distances(a, b)``, the (n, m) ground-distance table, once the
    support cap is checked. An entry that overflows is inf, with no
    warning: the solver refuses it with a typed error."""
    if n + m > DEFAULT_SUPPORT_CAP:
        raise SupportCapError(n + m, DEFAULT_SUPPORT_CAP)
    with np.errstate(over="ignore"):
        return distances(a, b)


def _euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the root overwrites the squared distances
    dist = _squared_distances(a, b)
    return np.sqrt(dist, out=dist)


def wasserstein(a, b, p: float = 2.0) -> float:
    """Exact W_p between the measures on the (n, d) and (m, d) atom arrays.

    One atom count must divide the other (:class:`UnsupportedTransportError`
    if not), and the two hold at most ``DEFAULT_SUPPORT_CAP`` atoms combined
    (:class:`SupportCapError`), in 1-D as in any dimension. No experiment
    calls it: Cauchy-in-N measures paths (``wasserstein_path``) and
    comparison pairs atoms (``optimal_pairing``). It stays as the library's
    distance between two atom arrays, which ``bench/tracing.py`` patches by
    name.
    """
    a, b = _checked_pair(a, b, p)
    dist = _ground(_euclidean, a, b, a.shape[0], b.shape[0])
    return float(_transport_cost(dist, p) ** (1.0 / p))


def optimal_pairing(a, b, p: float = 2.0) -> np.ndarray:
    """Permutation pi pairing row i of ``a`` with row pi[i] of ``b`` in an
    optimal W_p plan of the measures on n rows each: the assignment of
    ``wasserstein``, under its checks, or in 1-D the monotone
    rearrangement, optimal for every p >= 1, which builds no table."""
    a, b = _checked_pair(a, b, p)
    n = a.shape[0]
    if n != b.shape[0]:
        raise ValueError(f"a pairing needs equal atom counts, got {n} and {b.shape[0]}")
    if a.shape[1] == 1:
        rank = np.argsort(np.argsort(a[:, 0], kind="stable"))
        return np.argsort(b[:, 0], kind="stable")[rank]
    return _assignment_plan(_ground(_euclidean, a, b, n, n), p)[1][:, 0]


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
    assignment, which needs one atom count dividing the other (the
    Cauchy-in-N coupling of N against 2N atoms); any other pair raises
    :class:`UnsupportedTransportError`, whatever the dimension.
    """
    _check_order(p)
    if mu.dim != nu.dim:
        raise DimensionMismatchError("nu", mu.dim, nu.dim)
    dist = _ground(path_sup_distances, mu, nu, mu.n_atoms, nu.n_atoms)
    return float(_transport_cost(dist, p) ** (1.0 / p))
