"""Particle measures on a domain, trajectory ensembles, pushforward, Wasserstein.

Measures are purely atomic: a weighted cloud of continuous positions.
Trajectory ensembles store dense uniform-dt samples of piecewise-linear
paths; time marginals are the column clouds e_t#Q.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

MAX_LP_SUPPORT = 512
WEIGHT_TOL = 1e-12


class MeasureError(ValueError):
    pass


def _first_seen_groups(keys):
    """Group equal rows of a 2d array in the order each row first appears.

    Returns (first, label): first[g] is the row where group g first appears,
    and label[k] is the group of row k, so np.bincount(label, w) adds the
    weights of each group in row order.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


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

    def pushforward(self, mapping):
        """Apply a point map atomwise; colliding atoms merge."""
        out = []
        for k in range(self.n_atoms):
            q = mapping(self.points[k])
            if q is None:
                raise MeasureError(f"pushforward map undefined at atom {k} ({self.points[k]})")
            out.append(q)
        pts = np.array(out, dtype=float)
        return ParticleMeasure(self.domain, pts, self.weights.copy(), validate=False).merged()

    def p_moment(self, p):
        d = self.domain.point_origin_distance(self.points)
        return float(np.sum(self.weights * d ** p))

    def origin_distances(self):
        return self.domain.point_origin_distance(self.points)


def wasserstein(mu, nu, p=1):
    """Exact W_p between two particle measures on the same domain.

    Interval backend uses the sorted quantile coupling; other backends solve
    the transport LP on the supports (capped at MAX_LP_SUPPORT atoms each).
    """
    if p not in (1, 2):
        raise MeasureError("p must be 1 or 2")
    if mu.domain is not nu.domain:
        raise MeasureError("measures live on different domains")
    if mu.domain.kind == "interval":
        return _wasserstein_quantile_1d(mu.points, mu.weights, nu.points, nu.weights, p)
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


def wasserstein_lp(dist, wx, wy, p=1):
    """Optimal transport cost^(1/p) by exact linear programming."""
    n, m = dist.shape
    if n > MAX_LP_SUPPORT or m > MAX_LP_SUPPORT:
        raise MeasureError(
            f"support {n}x{m} exceeds the exact-LP cap {MAX_LP_SUPPORT}: "
            "reduce support or project to histogram")
    c = (np.asarray(dist, dtype=float) ** p).ravel()
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(m):
            k = i * m + j
            rows += [i, n + j]
            cols += [k, k]
            vals += [1.0, 1.0]
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(n + m, n * m))
    b_eq = np.concatenate([wx, wy])
    res = linprog(c, A_eq=a_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs")
    if not res.success:
        raise MeasureError(f"transport LP failed: {res.message}")
    return max(res.fun, 0.0) ** (1.0 / p)


def sample_from_density(domain, density, n, seed, mode="auto"):
    """Build an n-atom measure from a nonnegative node density.

    On the interval backend the default is deterministic quantization: the
    density is read as piecewise-constant over node-centered cells (isolated
    single-node spikes count as point masses) and atoms sit at the
    (i + 1/2)/n quantiles with equal weights. Other backends draw seeded
    i.i.d. node samples proportional to cell mass.
    """
    coords = domain.node_coords()
    if callable(density):
        d = np.array([density(c) for c in coords], dtype=float)
    else:
        d = np.asarray(density, dtype=float)
    if np.any(d < 0):
        raise MeasureError("density must be nonnegative")
    if d.sum() <= 0:
        raise MeasureError("density has zero total mass")
    if domain.kind == "interval" and mode in ("auto", "quantile"):
        return _quantize_1d(domain, d, n)
    rng = np.random.default_rng(seed)
    mass = d / d.sum()
    idx = rng.choice(domain.n_nodes, size=n, p=mass)
    pts = domain.points_of_nodes(idx)
    return ParticleMeasure(domain, pts, np.full(n, 1.0 / n)).merged()


def _quantize_1d(domain, d, n):
    xs = domain.node_coords()
    nn = len(xs)
    dx = domain.dx
    half = dx / 2.0
    pos = d > 0
    isolated = pos & ~np.roll(pos, 1) & ~np.roll(pos, -1)
    if nn > 1:
        isolated[0] = pos[0] and not pos[1]
        isolated[-1] = pos[-1] and not pos[-2]
    # cell extents clipped to the domain
    left = np.maximum(xs - half, xs[0])
    right = np.minimum(xs + half, xs[-1])
    width = right - left
    mass = np.where(isolated, d, d * width)
    mass = mass / mass.sum()
    cdf = np.cumsum(mass)
    q = (np.arange(n) + 0.5) / n
    cell = np.searchsorted(cdf, q, side="left")
    cell = np.minimum(cell, nn - 1)
    prev = np.where(cell > 0, cdf[cell - 1], 0.0)
    frac = np.where(mass[cell] > 0, (q - prev) / mass[cell], 0.5)
    pts = np.where(isolated[cell], xs[cell], left[cell] + frac * width[cell])
    return ParticleMeasure(domain, pts, np.full(n, 1.0 / n))


class TrajectoryEnsemble:
    """Weighted set of timed trajectories sampled on a uniform time grid.

    samples has shape (n_traj, n_steps + 1) on the interval backend and
    (n_traj, n_steps + 1, point_dim) otherwise. Trajectories are constant
    before start_index and after exit_index (-1 marks a non-exiting path).
    exit_nodes holds the target node hit at exit (-1 when there is none);
    when omitted it is read off the exit positions by snapping them to the
    target set.
    """

    def __init__(self, domain, dt, samples, weights, start_indices=None,
                 exit_indices=None, exit_nodes=None, validate=True):
        self.domain = domain
        self.dt = float(dt)
        self.samples = np.asarray(samples, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        n = self.samples.shape[0]
        self.start_indices = (np.zeros(n, dtype=int) if start_indices is None
                              else np.asarray(start_indices, dtype=int))
        self.exit_indices = (np.full(n, -1, dtype=int) if exit_indices is None
                             else np.asarray(exit_indices, dtype=int))
        if exit_nodes is None:
            exit_nodes = np.full(n, -1, dtype=int)
            exited = np.flatnonzero(self.exit_indices >= 0)
            if len(exited):
                _, exit_nodes[exited] = domain.snap_to_target(
                    self.samples[exited, self.exit_indices[exited]])
        self.exit_nodes = np.asarray(exit_nodes, dtype=int)
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

    def times(self):
        return np.arange(self.n_steps + 1) * self.dt

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

    def step_lengths(self):
        d = self.domain.point_distance(self.samples[:, :-1], self.samples[:, 1:])
        return np.reshape(d, (self.n_traj, self.n_steps))

    def check_lipschitz(self, k_max):
        """Worst excess over the discrete Lipschitz bound k_max*dt + dx."""
        excess = self.step_lengths() - (k_max * self.dt + self.domain.dx)
        return float(np.max(excess, initial=-np.inf))

    def check_constant_after_exit(self):
        """Worst distance of a sample after the exit index from the exit sample."""
        e = self.exit_indices
        exit_pts = self.samples[np.arange(self.n_traj), np.maximum(e, 0)]
        drift = self.domain.point_distance(self.samples, exit_pts[:, None])
        after = (np.arange(self.n_steps + 1) > e[:, None]) & (e >= 0)[:, None]
        return float(np.max(drift[after], initial=0.0))

    def merged(self):
        """Merge trajectories with equal start index, exit index and sample bits."""
        n = self.n_traj
        keys = np.column_stack([self.start_indices, self.exit_indices,
                                self.samples.reshape(n, -1).view(np.int64)])
        idx, label = _first_seen_groups(keys)
        w = np.bincount(label, weights=self.weights, minlength=len(idx))
        return TrajectoryEnsemble(self.domain, self.dt, self.samples[idx], w,
                                  self.start_indices[idx], self.exit_indices[idx],
                                  self.exit_nodes[idx], validate=False)

    def pruned(self, threshold=1e-9):
        keep = self.weights >= threshold
        if not np.any(keep):
            raise MeasureError("pruning removed all trajectories")
        w = self.weights[keep]
        return TrajectoryEnsemble(self.domain, self.dt, self.samples[keep],
                                  w / w.sum(), self.start_indices[keep],
                                  self.exit_indices[keep], self.exit_nodes[keep],
                                  validate=False)

    def mix(self, other, lam, prune=1e-9):
        """Fictitious-play style weighted union (1-lam)*self + lam*other."""
        if other.samples.shape[1:] != self.samples.shape[1:] or other.dt != self.dt:
            raise MeasureError("cannot mix ensembles on different grids")
        samples = np.concatenate([self.samples, other.samples])
        weights = np.concatenate([(1 - lam) * self.weights, lam * other.weights])
        starts = np.concatenate([self.start_indices, other.start_indices])
        exits = np.concatenate([self.exit_indices, other.exit_indices])
        nodes = np.concatenate([self.exit_nodes, other.exit_nodes])
        out = TrajectoryEnsemble(self.domain, self.dt, samples, weights,
                                 starts, exits, nodes, validate=False).merged()
        return out.pruned(prune)
