"""Nonautonomous exit-time optimal control on the space-time grid.

Backward first-order semi-Lagrangian sweeps compute the value field; greedy
descent on the interpolated value synthesizes trajectories. The candidate
move set from a point with budget r = k*dt is the null step, the two (or
2d/graph generalized) sphere endpoints at metric distance r, and every grid
node inside the closed r-ball. On the interval backend this computes the
exact minimum of the piecewise-linear value over the reachable ball, which
makes the scheme monotone in the speed field.
"""
from __future__ import annotations

import numpy as np

from .domain import BIG

STATIONARY_TOL = 1e-10  # sup-norm sweep change that ends the terminal stationary solve


class OcpError(RuntimeError):
    pass


class SynthesisStall(OcpError):
    pass


def default_dpp_tol(domain, dt):
    """First-order scheme tolerance 4*(dt + dx)."""
    return 4.0 * (dt + domain.dx)


class SpeedField:
    """Speed cap k(t_j, x_i) on the space-time grid, bounded per (H5)."""

    def __init__(self, domain, dt, values, bounds):
        self.domain = domain
        self.dt = float(dt)
        self.values = np.asarray(values, dtype=float)
        self.k_min, self.k_max = float(bounds[0]), float(bounds[1])
        if self.values.ndim != 2 or self.values.shape[1] != domain.n_nodes:
            raise OcpError("speed field must have shape (n_times, n_nodes)")
        if self.k_min <= 0:
            raise OcpError("speed lower bound must be positive (H5)")
        lo, hi = self.values.min(), self.values.max()
        if lo < self.k_min - 1e-9 or hi > self.k_max + 1e-9:
            raise OcpError(
                f"speed values [{lo:.6g}, {hi:.6g}] leave the declared bounds "
                f"[{self.k_min:.6g}, {self.k_max:.6g}] (H5)")

    @classmethod
    def constant(cls, domain, k, dt, horizon):
        n_steps = int(np.ceil(horizon / dt - 1e-9))
        values = np.full((n_steps + 1, domain.n_nodes), float(k))
        return cls(domain, dt, values, (k, k))

    @property
    def n_steps(self):
        return self.values.shape[0] - 1

    @property
    def horizon(self):
        return self.n_steps * self.dt

    def time_index(self, t):
        j = int(round(t / self.dt))
        if t < -self.dt / 2 or j > self.n_steps:
            raise OcpError(f"time {t} outside the field horizon {self.horizon}")
        return max(j, 0)

    def at_nodes(self, j):
        return self.values[min(j, self.n_steps)]

    def at_points(self, j, pts):
        return self.domain.interp(self.at_nodes(j), pts)

class ValueField:
    """Value function phi(t_j, x_i) with backend-native spatial interpolation.

    A field from solve_value also keeps what it was solved from (the exit
    cost and the speed field), so that a later solve can reuse its rows;
    both are None otherwise.
    """

    def __init__(self, domain, dt, values, cost=None, speed=None):
        self.domain = domain
        self.dt = float(dt)
        self.values = np.asarray(values, dtype=float)
        self.cost = cost
        self.speed = speed

    @property
    def n_steps(self):
        return self.values.shape[0] - 1

    @property
    def horizon(self):
        return self.n_steps * self.dt

    def time_index(self, t):
        return max(min(int(round(t / self.dt)), self.n_steps), 0)

    def at_points(self, j, pts):
        return self.domain.interp(self.values[min(j, self.n_steps)], pts)

    def at(self, t, point):
        return float(self.at_points(self.time_index(t), self.domain.as_points(point))[0])


def horizon_bound(domain, cost, bounds, r):
    """A-priori value bound T(R) = G_0 + D d(0, y_0)/K_min + D R/K_min.

    r may be an array (one bound per radius); a scalar r gives a float. The
    terms are summed in this order on purpose: the ledger prints the bound,
    and a regrouped form such as G_0 + (d(0, y_0) + R)/K_min rounds differently.
    """
    if len(domain.targets) == 0:
        raise OcpError("target set is empty")
    k_min = bounds[0]
    d = domain.point_distance(domain.points_of_nodes(domain.origin),
                              domain.points_of_nodes(domain.targets))
    k = int(np.argmin(d))  # y_0: the first nearest target
    g0 = cost.at_node(domain.targets[k])
    d0 = d[k]
    d_const = domain.geodesic_constant
    t = g0 + d_const * d0 / k_min + d_const * np.asarray(r, dtype=float) / k_min
    return float(t) if t.ndim == 0 else t


def trajectory_bound(t_of_r, k_max, r):
    """Confinement radius psi(R) = K_max T(R) + R for optimal paths (arrays broadcast)."""
    out = k_max * np.asarray(t_of_r, dtype=float) + np.asarray(r, dtype=float)
    return float(out) if out.ndim == 0 else out


def solve_value(domain, cost, speed, reuse=None):
    """Backward semi-Lagrangian solve of the exit-time value function.

    The terminal slice is the stationary minimal-time solve under the frozen
    final speed slice, which removes horizon truncation bias; earlier slices
    follow the dynamic programming recursion with the exit cost pinned on the
    target set at every slice.

    reuse, when given, is an earlier solve_value result. Value slice j
    depends only on speed slice j and value slice j + 1, and the terminal
    slice only on the last speed slice (with the domain, the cost, dt and
    K_min). So when all of those match, the value rows over the longest
    trailing run of speed rows that are bit-equal to reuse's are reuse's
    rows: they are copied, and the solve starts below the run. The result is bit-identical to a solve without reuse.
    """
    if cost.lipschitz_constant * speed.k_max >= 1.0:
        raise OcpError(
            f"smallness violated: L_g * K_max = {cost.lipschitz_constant * speed.k_max:.6g} >= 1 (H10)")
    dt = speed.dt
    n_steps = speed.n_steps
    g = cost.node_table()
    targets = domain.targets
    g_t = g[targets]
    values = np.empty((n_steps + 1, domain.n_nodes))
    start = _reused_rows(domain, cost, speed, reuse)
    if start <= n_steps:
        values[start:] = reuse.values[start:]
    if start == 0:
        return ValueField(domain, dt, values, cost, speed)

    # one node stencil serves every slice: no slice's reach exceeds r_max
    stencil = domain.reach_stencil(float(np.max(speed.values)) * dt)
    if start > n_steps:
        start = n_steps
        values[n_steps] = _stationary_slice(domain, cost, speed, stencil)
    # rebind only where the speed slice changes (frozen fields and emptied
    # late slices repeat)
    bits = speed.values.view(np.int64)
    changed = np.any(bits[:-1] != bits[1:], axis=1)
    for j in range(start - 1, -1, -1):
        if j == start - 1 or changed[j]:
            ball_min = stencil(speed.values[j] * dt)
        values[j] = dt + ball_min(values[j + 1])
        values[j][targets] = g_t
    return ValueField(domain, dt, values, cost, speed)


def _reused_rows(domain, cost, speed, reuse):
    """First row of the trailing run of speed rows bit-equal to reuse's.

    The row count (no row) when reuse is None or was solved on another
    domain, cost, dt, K_min or grid shape.
    """
    n_rows = speed.values.shape[0]
    if (reuse is None or reuse.speed is None or reuse.domain is not domain
            or reuse.cost is not cost or reuse.speed.dt != speed.dt
            or reuse.speed.k_min != speed.k_min
            or reuse.speed.values.shape != speed.values.shape):
        return n_rows
    same = np.all(speed.values.view(np.int64) == reuse.speed.values.view(np.int64), axis=1)
    differs = np.flatnonzero(~same)
    return int(differs[-1]) + 1 if len(differs) else 0


def _stationary_slice(domain, cost, speed, stencil):
    """Stationary fixed point under the frozen last speed slice.

    Iterated monotonically down from the a-priori supersolution T-style
    bound (geodesic travel at K_min plus the worst exit cost).
    """
    dt = speed.dt
    targets = domain.targets
    g_t = cost.node_table()[targets]
    ball_min = stencil(speed.at_nodes(speed.n_steps) * dt)
    tdist = domain.target_node_distances()
    if not np.all(np.isfinite(tdist)):
        raise OcpError("some nodes cannot reach the target; domain may be disconnected")
    phi = tdist * domain.geodesic_constant / speed.k_min + cost.max_cost
    phi[targets] = g_t
    max_sweeps = int(3 * np.max(tdist) / (speed.k_min * dt)) + 200
    for _ in range(max_sweeps):
        new = dt + ball_min(phi)
        new[targets] = g_t
        new = np.minimum(new, phi)
        delta = np.max(phi - new)
        phi = new
        if delta <= STATIONARY_TOL:
            return phi
    raise OcpError("stationary terminal solve did not converge")


def _select_candidates(vals, disp):
    """Argmin by (value, displacement, slot order); slots are direction-ordered."""
    tie = vals == np.min(vals, axis=1)[:, None]
    tie &= disp == np.min(np.where(tie, disp, np.inf), axis=1)[:, None]
    best_slot = np.argmax(tie, axis=1)
    return best_slot, vals[np.arange(len(vals)), best_slot]


def synthesize_batch(phi, speed, start_points, t0=0.0, raise_on_stall=True):
    """Greedy semi-Lagrangian descent for a batch of start points at time t0.

    Returns (samples, start_index, exit_indices, exit_nodes). Exit positions
    snap to the hit target node; paths extend constantly before t0 and after
    exit.
    """
    domain = phi.domain
    dt = phi.dt
    n_steps = phi.n_steps
    j0 = speed.time_index(t0)
    pts = domain.as_points(start_points)
    m = len(pts)
    samples = np.empty((m, n_steps + 1) + pts.shape[1:])
    exit_idx = np.full(m, -1, dtype=int)
    exit_node = np.full(m, -1, dtype=int)

    pos, tgt = domain.snap_to_target(pts)
    hit = tgt >= 0
    exit_idx[hit] = j0
    exit_node[hit] = tgt[hit]
    samples[:, :j0 + 1] = pos[:, None]

    # one plan serves every step: no step's budget exceeds r_max
    place = domain.reach_plan(float(np.max(speed.values)) * dt)
    for j in range(j0, n_steps):
        active = np.flatnonzero(exit_idx < 0)
        if len(active) == 0:
            samples[:, j + 1:] = samples[:, j][:, None]
            break
        cur = pos[active]
        r = speed.at_points(j, cur) * dt
        cand, vals, disp = place(cur, r)(phi.values[j + 1])
        slot, best_val = _select_candidates(vals, disp)
        if np.any(best_val >= BIG / 2):
            k = active[int(np.flatnonzero(best_val >= BIG / 2)[0])]
            raise SynthesisStall(f"no admissible move from {pos[k]} at step {j}")
        new = cand[np.arange(len(active)), slot]
        snapped, tgt = domain.snap_to_target(new)
        pos[active] = snapped
        hit = tgt >= 0
        exit_idx[active[hit]] = j + 1
        exit_node[active[hit]] = tgt[hit]
        samples[:, j + 1] = pos
    if raise_on_stall:
        stuck = np.flatnonzero(exit_idx < 0)
        if len(stuck) > 0:
            k = int(stuck[0])
            raise SynthesisStall(
                f"synthesis stall: trajectory from {pts[k]} never reached "
                f"the target within the horizon (stall position {pos[k]})")
    return samples, j0, exit_idx, exit_node


def check_dpp(phi, samples, start_indices, exit_indices):
    """Residuals of phi(t0+h, gamma(t0+h)) + h >= phi(t0, x0) along each row.

    samples holds one path per row (an ensemble's rows, or synthesize_batch's
    output, whose single start index serves every row). Each row is read from
    its start index up to its exit index, or to its last slice when it never
    exits, with one interpolation per slice over the rows read there. Returns
    per-row arrays of the worst inequality violation (positive when the
    inequality fails) and the worst equality residual.
    """
    m = len(samples)
    start = np.broadcast_to(np.asarray(start_indices, dtype=int), (m,))
    exit_idx = np.asarray(exit_indices, dtype=int)
    end = np.where(exit_idx >= 0, exit_idx, samples.shape[1] - 1)
    base = np.empty(m)
    worst_ineq = np.zeros(m)
    worst_eq = np.zeros(m)
    for j in range(int(np.min(start, initial=0)), int(np.max(end, initial=-1)) + 1):
        rows = np.flatnonzero((start <= j) & (j <= end))
        if len(rows) == 0:
            continue
        at_j = phi.at_points(j, samples[rows, j])
        first = start[rows] == j
        base[rows[first]] = at_j[first]
        val = at_j + (j - start[rows]) * phi.dt - base[rows]
        # replace only on a strict increase, as max(worst, new) does
        worst_ineq[rows] = np.where(-val > worst_ineq[rows], -val, worst_ineq[rows])
        worst_eq[rows] = np.where(np.abs(val) > worst_eq[rows], np.abs(val), worst_eq[rows])
    return {"max_inequality_violation": worst_ineq, "max_equality_residual": worst_eq}


def value_bound_excess(phi, domain, cost, bounds):
    """Worst excess of phi over T(R) + max g with R = d(0, x) (a-priori bound)."""
    limit = horizon_bound(domain, cost, bounds, domain.origin_node_distances()) + cost.max_cost
    return float(np.max(phi.values - limit[None, :]))


def confinement_excess(samples, domain, cost, bounds):
    """Worst excess of trajectory excursions over the psi(R)-ball radius."""
    dists = domain.point_origin_distance(samples)
    start_r = dists[:, 0]
    psi_r = trajectory_bound(horizon_bound(domain, cost, bounds, start_r), bounds[1], start_r)
    return float(np.max(np.max(dists, axis=1) - psi_r, initial=-np.inf))
