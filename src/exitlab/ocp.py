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

from .domain import BIG, STENCIL_ROWS

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

    @property
    def n_steps(self):
        return self.values.shape[0] - 1

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

    def time_index(self, t):
        return max(min(int(round(t / self.dt)), self.n_steps), 0)

    def at_points(self, j, pts):
        return self.domain.interp(self.values[min(j, self.n_steps)], pts)

    def at(self, t, point):
        return float(self.at_points(self.time_index(t), self.domain.as_points(point))[0])


def horizon_bound(cost, bounds, r):
    """A-priori value bound T(R) = G_0 + D d(0, y_0)/K_min + D R/K_min, with D = 1 (H4),
    on the exit cost's domain.

    r may be an array (one bound per radius); a scalar r gives a float. The
    terms are summed in this order on purpose: the ledger prints the bound,
    and a regrouped form such as G_0 + (d(0, y_0) + R)/K_min rounds differently.
    """
    domain = cost.domain
    targets = domain._nonempty_targets()
    k_min = bounds[0]
    d = domain.point_distance(domain.points_of_nodes(domain.origin),
                              domain.points_of_nodes(targets))
    k = int(np.argmin(d))  # y_0: the first nearest target
    g0 = cost.at_node(targets[k])
    t = g0 + d[k] / k_min + np.asarray(r, dtype=float) / k_min
    return float(t) if t.ndim == 0 else t


def trajectory_bound(cost, bounds, r):
    """Confinement radius psi(R) = K_max T(R) + R for optimal paths, with
    T(R) = horizon_bound(cost, bounds, R): the one definition of psi.

    r may be an array (one radius per entry); a scalar r gives a float.
    """
    t = np.asarray(horizon_bound(cost, bounds, r), dtype=float)
    out = bounds[1] * t + np.asarray(r, dtype=float)
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

    Fixed-point rows: value row j is F_j(row j + 1), where F_j (dt plus the
    reach-ball minimum, targets pinned) depends only on speed row j. When
    speed row j is bit-equal to speed row j + 1 and value row j + 1 =
    F_{j+1}(row j + 2) is bit-equal to row j + 2, then F_j = F_{j+1} and row
    j = F_j(row j + 1) = F_{j+1}(row j + 2) = row j + 1: it is copied. Row
    j + 1 must be a recursion row (j + 2 <= n_steps), which the terminal
    stationary row is not; reused rows are recursion rows under this speed.
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
    start = _reused_rows(cost, speed, reuse)
    if start <= n_steps:
        values[start:] = reuse.values[start:]
    if start == 0:
        return ValueField(domain, dt, values, cost, speed)

    # one node stencil serves every slice: no slice's reach exceeds r_max
    stencil = domain.reach_stencil(float(np.max(speed.values)) * dt)
    if start > n_steps:
        start = n_steps
        values[n_steps] = _stationary_slice(cost, speed, stencil)
    # a new ball minimum only where the speed slice changes (frozen fields and
    # emptied late slices repeat): row start - 1 and every changed row below
    # it are bound, a block of rows per placement, and each row in between
    # shares the speed row bound last. A row is copied once its frozen run
    # reaches a fixed point.
    bits = speed.values.view(np.int64)
    changed = np.any(bits[:-1] != bits[1:], axis=1)
    bound = np.concatenate([[start - 1], np.flatnonzero(changed[:start - 1])[::-1]])
    ball_mins = (ball_min for lo in range(0, len(bound), STENCIL_ROWS)
                 for ball_min in stencil(speed.values[bound[lo:lo + STENCIL_ROWS]] * dt))
    words = values.view(np.int64)
    for j in range(start - 1, -1, -1):
        if j == start - 1 or changed[j]:
            ball_min = next(ball_mins)
        if not changed[j] and j + 2 <= n_steps and np.array_equal(words[j + 1], words[j + 2]):
            values[j] = values[j + 1]
            continue
        values[j] = dt + ball_min(values[j + 1])
        values[j][targets] = g_t
    return ValueField(domain, dt, values, cost, speed)


def _reused_rows(cost, speed, reuse):
    """First row of the trailing run of speed rows bit-equal to reuse's.

    The row count (no row) when reuse is None or was solved on another
    domain than speed's, or another cost, dt, K_min or grid shape.
    """
    n_rows = speed.values.shape[0]
    if (reuse is None or reuse.speed is None or reuse.domain is not speed.domain
            or reuse.cost is not cost or reuse.speed.dt != speed.dt
            or reuse.speed.k_min != speed.k_min
            or reuse.speed.values.shape != speed.values.shape):
        return n_rows
    same = np.all(speed.values.view(np.int64) == reuse.speed.values.view(np.int64), axis=1)
    differs = np.flatnonzero(~same)
    return int(differs[-1]) + 1 if len(differs) else 0


def _stationary_slice(cost, speed, stencil):
    """Stationary fixed point under the frozen last speed slice, on its domain.

    Iterated monotonically down from the a-priori supersolution T-style
    bound (geodesic travel at K_min plus the worst exit cost).
    """
    domain = speed.domain
    dt = speed.dt
    targets = domain.targets
    g_t = cost.node_table()[targets]
    (ball_min,) = stencil(speed.at_nodes(speed.n_steps)[None] * dt)
    tdist = domain.target_node_distances()
    if not np.all(np.isfinite(tdist)):
        raise OcpError("some nodes cannot reach the target; domain may be disconnected")
    phi = tdist / speed.k_min + cost.max_cost
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
    """Argmin by (value, displacement, slot order) over slot-major (S, m) arrays.

    Slots are direction-ordered. Returns each column's slot and the column
    minimum of vals; a tie of 0.0 and -0.0 may give the minimum either sign,
    and vals[slot, column] is the chosen slot's own value. Overwrites disp:
    every slot off its column's minimum gets an infinite displacement, so
    argmin takes the first least displacement among the value ties, which
    is the slot-order tie-break; a column whose ties all have an infinite
    displacement (no valid slot) gets its first tie.
    """
    best = np.minimum.reduce(vals, axis=0)
    np.copyto(disp, np.inf, where=vals != best)
    return disp.argmin(axis=0), best


def synthesize_batch(phi, start_points, *, raise_on_stall=True):
    """Greedy semi-Lagrangian descent of phi under phi.speed, the field it
    was solved on, for a batch of start points at time 0.

    Returns (samples, exit_indices, exit_nodes); samples is a C-contiguous
    (m, n_steps + 1[, dim]) array and every path starts at slice 0. Exit
    positions snap to the hit target node; paths extend constantly after
    exit. Each step moves only the paths still active and writes one
    contiguous slice of a slice-major buffer, copied from a carried row of
    every path's latest point (an exited path keeps its exit point); once
    the last path exits, one broadcast fills the later slices. OcpError
    when phi keeps no speed field (it was not made by solve_value).
    """
    speed = phi.speed
    if speed is None:
        raise OcpError("synthesis needs the speed field phi was solved on (phi.speed is None)")
    domain = phi.domain
    dt = phi.dt
    n_steps = phi.n_steps
    pts = domain.as_points(start_points)
    m = len(pts)
    slices = np.empty((n_steps + 1, m) + pts.shape[1:])
    exit_idx = np.full(m, -1, dtype=int)
    exit_node = np.full(m, -1, dtype=int)

    row, tgt = domain.snap_to_target(pts)
    hit = tgt >= 0
    exit_idx[hit] = 0
    exit_node[hit] = tgt[hit]
    slices[0] = row
    act = np.flatnonzero(~hit)
    cur = row[act]

    # one plan serves every step: no step's budget exceeds r_max
    place = domain.reach_plan(float(np.max(speed.values)) * dt)
    cols = np.arange(len(act))
    j = 0
    while len(act) and j < n_steps:
        r = speed.at_points(j, cur) * dt
        cand, vals, disp = place(cur, r)(phi.values[j + 1])
        slot, best = _select_candidates(vals, disp)
        if best.max() >= BIG / 2:
            raise SynthesisStall(f"no admissible move from {cur[(best >= BIG / 2).argmax()]} "
                                 f"at step {j}")
        cur, tgt = domain.snap_to_target(cand[slot, cols])
        j += 1
        row[act] = cur
        slices[j] = row
        if tgt.max() >= 0:
            hit = tgt >= 0
            exit_idx[act[hit]] = j
            exit_node[act[hit]] = tgt[hit]
            act, cur = act[~hit], cur[~hit]
            cols = cols[:len(act)]
    if raise_on_stall and len(act) > 0:
        raise SynthesisStall(
            f"synthesis stall: trajectory from {pts[act[0]]} never reached "
            f"the target within the horizon (stall position {cur[0]})")
    # every path has exited or the horizon is reached: the row stays put
    slices[j + 1:] = row
    # in C order: np.save would write a transposed view in Fortran order
    return np.ascontiguousarray(np.swapaxes(slices, 0, 1)), exit_idx, exit_node


def check_dpp(phi, samples, exit_indices):
    """Residuals of phi(h, gamma(h)) + h >= phi(0, gamma(0)) along each row.

    samples holds one path per row (an ensemble's rows, or synthesize_batch's
    output), each starting at slice 0. Each row is read up to its exit
    index, or to its last slice when it never exits, with one interpolation
    per slice over the rows read there. Returns per-row arrays of the worst
    inequality violation (positive when the inequality fails) and the worst
    equality residual.
    """
    m = len(samples)
    exit_idx = np.asarray(exit_indices, dtype=int)
    end = np.where(exit_idx >= 0, exit_idx, samples.shape[1] - 1)
    base = phi.at_points(0, samples[:, 0])
    worst_ineq = np.zeros(m)
    worst_eq = np.zeros(m)
    for j in range(1, int(np.max(end, initial=0)) + 1):
        rows = np.flatnonzero(j <= end)
        val = phi.at_points(j, samples[rows, j]) + j * phi.dt - base[rows]
        # replace only on a strict increase, as max(worst, new) does
        worst_ineq[rows] = np.where(-val > worst_ineq[rows], -val, worst_ineq[rows])
        worst_eq[rows] = np.where(np.abs(val) > worst_eq[rows], np.abs(val), worst_eq[rows])
    return {"max_inequality_violation": worst_ineq, "max_equality_residual": worst_eq}


def value_bound_excess(phi, cost, bounds):
    """Worst excess of phi over T(R) + max g with R = d(0, x) (a-priori bound)."""
    limit = horizon_bound(cost, bounds, phi.domain.origin_node_distances()) + cost.max_cost
    return float(np.max(phi.values - limit[None, :]))


def confinement_excess(start_r, furthest, cost, bounds):
    """Worst excess of trajectory excursions over the psi(R)-ball radius.

    start_r and furthest are each trajectory's starting and largest origin
    distance (TrajectoryEnsemble.row_scan), on the exit cost's domain.
    """
    psi_r = trajectory_bound(cost, bounds, start_r)
    return float(np.max(furthest - psi_r, initial=-np.inf))
