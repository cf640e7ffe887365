"""Particle measures on a domain, trajectory ensembles, Wasserstein distances.

Measures are purely atomic: a weighted cloud of continuous positions.
Trajectory ensembles store dense uniform-dt samples of piecewise-linear
paths; time marginals are the column clouds e_t#Q.
"""
from __future__ import annotations

import math
import mmap
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

MAX_LP_SUPPORT = 512
WEIGHT_TOL = 1e-12
# trajectories per block in the row-blocked scans of an ensemble (the
# certificate checks and the moves of mix): bounds their temporaries
ROW_BLOCK = 256


class MeasureError(ValueError):
    pass


class SupportCapError(MeasureError):
    """A support exceeds the exact transport LP's cap of MAX_LP_SUPPORT atoms."""


def _first_seen_groups(keys):
    """Group equal rows of a 2d array in the order each row first appears.

    Returns (first, label): first[g] is the row where group g first appears,
    and label[k] is the group of row k, so np.bincount(label, w) adds the
    weights of each group in row order.
    """
    keys = np.ascontiguousarray(keys)
    return _first_seen(keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel())


def _first_seen(keys):
    """_first_seen_groups over a 1d array of keys."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


# splitmix64 constants: the golden-ratio increment and the two finalizer multipliers
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def _mix64(x):
    """splitmix64 finalizer on a uint64 array, in place (integer arithmetic wraps mod 2**64)."""
    x ^= x >> np.uint64(30)
    x *= _MIX_A
    x ^= x >> np.uint64(27)
    x *= _MIX_B
    x ^= x >> np.uint64(31)
    return x


def trajectory_keys(exit_indices, samples):
    """64-bit key per trajectory over its exit index and sample bits.

    Rows that are equal bit for bit get equal keys, so -0.0 and 0.0 differ.
    Distinct rows may collide; TrajectoryEnsemble merges check every grouped
    row against its group's first row and regroup exactly on a mismatch.
    """
    n = len(exit_indices)
    words = np.column_stack([exit_indices, np.ascontiguousarray(samples).reshape(
        n, math.prod(np.shape(samples)[1:])).view(np.int64)]).view(np.uint64)
    words += np.arange(1, words.shape[1] + 1, dtype=np.uint64) * _GOLDEN  # the salt
    return _mix64(np.bitwise_xor.reduce(_mix64(words), axis=1))


class ParticleMeasure:
    """Weighted particle cloud representing a probability measure on the domain."""

    def __init__(self, domain, points, weights, validate=True):
        self.domain = domain
        self.points = domain.as_points(points)
        self.weights = np.atleast_1d(np.array(weights, dtype=float))
        if len(self.weights) != len(self.points):
            raise MeasureError("points and weights length mismatch")
        if validate:
            if np.any(self.weights < -WEIGHT_TOL):
                raise MeasureError("negative atom weight")
            if abs(self.weights.sum() - 1.0) > WEIGHT_TOL:
                raise MeasureError(f"weights sum to {self.weights.sum()}, not 1")
            domain.validate_points(self.points)

    @classmethod
    def dirac(cls, domain, point):
        return cls(domain, point, np.array([1.0]))

    @property
    def n_atoms(self):
        return len(self.weights)

    def merged(self):
        """Merge bitwise-equal atoms (so -0.0 and 0.0 stay apart), preserving first-seen order."""
        keys = self.points.reshape(self.n_atoms, -1).view(np.int64)
        idx, label = _first_seen_groups(keys)
        w = np.bincount(label, weights=self.weights, minlength=len(idx))
        return ParticleMeasure(self.domain, self.points[idx], w, validate=False)

    def p_moment(self, p):
        d = self.domain.point_origin_distance(self.points)
        return float(np.sum(self.weights * d ** p))

    def origin_distances(self):
        return self.domain.point_origin_distance(self.points)


def wasserstein(mu, nu, p):
    """Exact W_p between two particle measures on the same domain.

    Interval backend uses the sorted quantile coupling; other backends solve
    the transport LP on the supports (capped at MAX_LP_SUPPORT atoms each),
    except between bit-identical measures (same point and weight bits),
    which are 0 apart with no LP. The cap holds for those too.
    """
    if p not in (1, 2):
        raise MeasureError("p must be 1 or 2")
    if mu.domain is not nu.domain:
        raise MeasureError("measures live on different domains")
    if mu.domain.kind == "interval":
        return _wasserstein_quantile_1d(mu.points, mu.weights, nu.points, nu.weights, p)
    _check_lp_support(mu.n_atoms, nu.n_atoms)
    if (mu.points.shape == nu.points.shape and mu.points.tobytes() == nu.points.tobytes()
            and mu.weights.tobytes() == nu.weights.tobytes()):
        return 0.0
    return wasserstein_lp(mu.domain.point_distance_matrix(mu.points, nu.points),
                          mu.weights, nu.weights, p)


def _wasserstein_quantile_1d(xs, wx, ys, wy, p):
    ix = np.argsort(xs, kind="stable")
    iy = np.argsort(ys, kind="stable")
    x, u = xs[ix], np.cumsum(wx[ix])
    y, v = ys[iy], np.cumsum(wy[iy])
    levels = np.union1d(u, v)
    levels = levels[(levels > 1e-15) & (levels <= 1.0 + 1e-12)]
    seg = np.diff(levels, prepend=0.0)
    mids = levels - seg / 2
    a = x[np.minimum(np.searchsorted(u, mids, side="left"), len(x) - 1)]
    b = y[np.minimum(np.searchsorted(v, mids, side="left"), len(y) - 1)]
    return float(np.sum(seg * np.abs(a - b) ** p)) ** (1.0 / p)


def _check_lp_support(n, m):
    if n > MAX_LP_SUPPORT or m > MAX_LP_SUPPORT:
        raise SupportCapError(
            f"support {n}x{m} exceeds the exact-LP cap {MAX_LP_SUPPORT}: "
            "reduce support or project to histogram")


def wasserstein_lp(dist, wx, wy, p):
    """Optimal transport cost^(1/p) by exact linear programming."""
    n, m = dist.shape
    _check_lp_support(n, m)
    c = (np.asarray(dist, dtype=float) ** p).ravel()
    # column k = i * m + j couples source i (row i) and sink j (row n + j)
    k = np.arange(n * m)
    rows = np.column_stack([k // m, n + k % m]).ravel()
    a_eq = sp.csr_matrix((np.ones(2 * n * m), (rows, np.repeat(k, 2))), shape=(n + m, n * m))
    b_eq = np.concatenate([wx, wy])
    res = linprog(c, A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs")
    if not res.success:
        raise MeasureError(f"transport LP failed: {res.message}")
    return max(res.fun, 0.0) ** (1.0 / p)


class TrajectoryEnsemble:
    """Weighted set of timed trajectories sampled on a uniform time grid.

    samples has shape (n_traj, n_steps + 1) on the interval backend and
    (n_traj, n_steps + 1, point_dim) otherwise. Every trajectory starts at
    slice 0 (time 0) and is constant after exit_index (-1 marks a
    non-exiting path). exit_nodes holds the target node hit at exit (-1 when
    there is none); when omitted it is read off the exit positions by
    snapping them to the target set. The per-row fields after weights are
    keyword-only. Two more per-row fields are caches of the samples, computed
    here and carried by mix, which changes an ensemble in place:
    node_indices, the int32 nearest node of every sample, and row_keys, the
    trajectory_keys() of every trajectory. node_indices is stored slice-major
    and exposed as its transpose: node_indices.T[j] is slice j's nodes of
    every trajectory, one contiguous row. settled_slice is derived from the
    samples once, and mix carries it.
    """

    def __init__(self, domain, dt, samples, weights, *, exit_indices=None,
                 exit_nodes=None, validate=True):
        self.domain = domain
        self.dt = float(dt)
        self.samples = np.asarray(samples, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        n = self.samples.shape[0]
        self.exit_indices = (np.full(n, -1, dtype=int) if exit_indices is None
                             else np.asarray(exit_indices, dtype=int))
        if exit_nodes is None:
            exit_nodes = np.full(n, -1, dtype=int)
            exited = np.flatnonzero(self.exit_indices >= 0)
            if len(exited):
                _, exit_nodes[exited] = domain.snap_to_target(
                    self.samples[exited, self.exit_indices[exited]])
        self.exit_nodes = np.asarray(exit_nodes, dtype=int)
        self.node_indices = np.ascontiguousarray(
            domain.nearest_nodes(self.samples).T, dtype=np.int32).T
        self.row_keys = trajectory_keys(self.exit_indices, self.samples)
        self._store = None  # mix's row buffers, with spare capacity
        if validate and abs(self.weights.sum() - 1.0) > 1e-9:
            raise MeasureError("trajectory weights must sum to 1")

    @property
    def n_traj(self):
        return self.samples.shape[0]

    @property
    def n_steps(self):
        return self.samples.shape[1] - 1

    @property
    def horizon(self):
        return self.n_steps * self.dt

    @cached_property
    def settled_slice(self):
        """The last slice at which any sample changes bits (0 when none does).

        Every later slice is bit-equal to it. Rows are constant after their
        exit index, so the tail after the latest exit is checked against its
        first slice in one comparison; should some row move after its
        recorded exit, the slices are compared one by one from the end.
        """
        bits = self._sample_bits()
        exits = self.exit_indices
        last = self.n_steps
        if len(exits) and np.all(exits >= 0):
            hint = int(np.max(exits))
            if np.all(bits[:, hint:] == bits[:, hint:hint + 1]):
                last = hint
        return _last_change(bits, last)

    def _sample_bits(self):
        """The samples as int64 words, (n_traj, n_steps + 1, words per point)."""
        return self.samples.reshape(self.n_traj, self.n_steps + 1, -1).view(np.int64)

    def time_index(self, t):
        j = int(round(t / self.dt))
        if t < -self.dt / 2 or j > self.n_steps:
            raise MeasureError(f"time {t} outside [0, {self.horizon}]")
        return max(j, 0)

    def time_marginal(self, t, merge=False):
        j = self.time_index(t)
        m = ParticleMeasure(self.domain, self.samples[:, j], self.weights.copy(),
                            validate=False)
        return m.merged() if merge else m

    def step_lengths(self, rows):
        """d(x_j, x_{j+1}) of every step of the rows in the slice rows: (n_rows, n_steps)."""
        block = self.samples[rows]
        return np.reshape(self.domain.point_distance(block[:, :-1], block[:, 1:]),
                          (len(block), self.n_steps))

    def check_lipschitz(self, k_max):
        """Worst excess over the Lipschitz bound k_max*dt + dx, read ROW_BLOCK rows at a time."""
        bound = k_max * self.dt + self.domain.dx
        longest = max((np.max(self.step_lengths(slice(lo, lo + ROW_BLOCK)), initial=-np.inf)
                       for lo in range(0, self.n_traj, ROW_BLOCK)), default=-np.inf)
        # rounding is monotone, so max(d) - bound is max(d - bound) to the bit
        return float(longest - bound)

    def check_constant_after_exit(self):
        """Worst distance of a sample after the exit index from the exit sample."""
        worst = [0.0]
        for lo in range(0, self.n_traj, ROW_BLOCK):
            rows, e = self.samples[lo:lo + ROW_BLOCK], self.exit_indices[lo:lo + ROW_BLOCK]
            exit_pts = rows[np.arange(len(rows)), np.maximum(e, 0)]
            drift = self.domain.point_distance(rows, exit_pts[:, None])
            after = (np.arange(self.n_steps + 1) > e[:, None]) & (e >= 0)[:, None]
            worst.append(np.max(drift[after], initial=0.0))
        return float(np.max(worst))

    def mix(self, other, lam, prune):
        """Fictitious-play style weighted union (1-lam)*self + lam*other, in place.

        Equal to concatenating the two, merging trajectories with equal exit
        index and sample bits (groups keep first-seen order and add their
        weights in row order), then dropping weights below prune and
        renormalizing. The result replaces this ensemble's rows and weights,
        and self is returned; other is only read, and may be self. Arrays
        read from this ensemble before the call, and measures built on them,
        may change with it.

        From its first mix on the ensemble keeps its rows in buffers of its
        own with geometric spare capacity (node_indices slice-major, as the
        constructor lays it out). The surviving rows of self move
        toward the front in ascending order, ROW_BLOCK rows at a time, and
        the new rows of other follow them, so a mix that fits the buffers
        holds no second copy of the samples: only other's new rows and one
        block of self's at a time.

        Every kept row is constant from its own ensemble's settled slice on,
        so the result's settled slice is found by walking back from the
        larger of the two, one slice at a time.
        """
        if other.samples.shape[1:] != self.samples.shape[1:] or other.dt != self.dt:
            raise MeasureError("cannot mix ensembles on different grids")
        n = self.n_traj
        rows, w = _merged_rows((self, other), np.concatenate([(1 - lam) * self.weights,
                                                             lam * other.weights]))
        keep = w >= prune
        if not np.any(keep):
            raise MeasureError("pruning removed all trajectories")
        rows, w = rows[keep], w[keep]
        mine = rows[rows < n]
        fields = {name: getattr(self, name) for name in ROW_FIELDS}
        # read before any row of self moves: other may share self's buffers
        new = _run(rows[len(mine):] - n)
        added = {name: np.array(getattr(other, name)[new]) for name in ROW_FIELDS}
        settled = max(self.settled_slice, other.settled_slice)
        room = 0 if self._store is None else len(self._store["samples"])
        if len(rows) > room:
            cap = max(len(rows), 2 * max(room, n))
            self._store = {name: _mapped((cap,) + a.shape[1:], a.dtype)
                           for name, a in fields.items() if name != "node_indices"}
            # node_indices stays slice-major: the transpose of a (slices, cap) store
            self._store["node_indices"] = _mapped(
                (fields["node_indices"].shape[1], cap), np.int32).T
            start = 0
        else:  # rows already in place lead: mine[i] - i is 0 there and never falls
            start = int(np.searchsorted(mine - np.arange(len(mine)), 0, side="right"))
        for name, src in fields.items():
            dst = self._store[name]
            # mine[i] >= i: a block reads only rows at or past its own, which
            # no earlier block wrote
            for lo in range(start, len(mine), ROW_BLOCK):
                hi = min(lo + ROW_BLOCK, len(mine))
                dst[lo:hi] = src[_run(mine[lo:hi])]
            dst[len(mine):len(rows)] = added[name]
            setattr(self, name, dst[:len(rows)])
        self.weights = w / w.sum()
        self.settled_slice = _last_change(self._sample_bits(), settled)
        return self


def _run(rows):
    """Ascending distinct row indices as a slice when they are consecutive, else as they are.

    A slice reads the same rows; on the slice-major node_indices it copies
    each slice's run at once, where an index array gathers one element at
    a time.
    """
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _last_change(bits, last):
    """The last slice up to last whose bits differ from the slice before it (0 when none).

    Every slice after last must be bit-equal to slice last.
    """
    while last > 0 and np.array_equal(bits[:, last], bits[:, last - 1]):
        last -= 1
    return last


def _mapped(shape, dtype):
    """An empty array in an anonymous memory map of its own.

    Pages take memory only once written, and all of them go back to the
    system when the array is freed. A malloc'd buffer of this size may come
    from the heap instead, where a freed buffer can stay resident as a hole.
    """
    count = math.prod(shape)
    pages = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(pages, dtype=dtype, count=count).reshape(shape)


# the per-row fields of TrajectoryEnsemble: the samples, the exit data and the two caches
ROW_FIELDS = ("samples", "exit_indices", "exit_nodes", "node_indices", "row_keys")


def _take(arrays, rows):
    """Rows (ascending) of the concatenation of arrays, without building it."""
    out = np.empty((len(rows),) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    split = np.searchsorted(rows, np.cumsum([len(a) for a in arrays[:-1]]))
    lo = offset = 0
    for a, hi in zip(arrays, list(split) + [len(rows)]):
        # mode="clip" writes straight into out; the default mode buffers a copy
        np.take(a, rows[lo:hi] - offset, axis=0, out=out[lo:hi], mode="clip")
        lo, offset = hi, offset + len(a)
    return out


def _merged_rows(parts, weights):
    """First-seen representative rows of the concatenated parts and the group weights.

    Rows are grouped by row key. Every row of a group is then checked bit for
    bit against the group's first row (exit, samples); on any mismatch,
    a key collision, the rows are regrouped exactly on their bits.
    """
    keys = np.concatenate([p.row_keys for p in parts])
    first, label = _first_seen(keys)
    rep = first[label]
    dup = np.flatnonzero(rep != np.arange(len(keys)))
    if len(dup) and not _rows_equal(parts, dup, rep[dup]):
        first, label = _first_seen_groups(_bit_rows(parts, np.arange(len(keys))))
    return first, np.bincount(label, weights=weights, minlength=len(first))


def _bit_rows(parts, rows):
    """(exit, sample bits) of the given rows (ascending), one int64 row each."""
    exits, samples = (_take([getattr(p, name) for p in parts], rows)
                      for name in ("exit_indices", "samples"))
    return np.column_stack([exits, samples.reshape(len(rows), -1).view(np.int64)])


def _rows_equal(parts, a, b):
    """Whether rows a[k] and b[k] of the concatenated parts are equal bit for bit."""
    rows = np.unique(np.concatenate([a, b]))
    bits = _bit_rows(parts, rows)
    return bool(np.array_equal(bits[np.searchsorted(rows, a)], bits[np.searchsorted(rows, b)]))
