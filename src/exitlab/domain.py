"""Discretized metric domains: interval grids, rectangular grids, weighted metric graphs.

Each backend is a finite graph whose shortest-path metric plays the role of the
space metric. Continuous positions (points) live on the geometry itself:
scalars on the interval, planar coordinates on the 2d grid, and (u, v, s)
edge offsets on a metric graph. Geodesics are realized exactly on the graph,
so the geodesic constant is 1 by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

SQRT2 = float(np.sqrt(2.0))
BIG = 1e30  # value of an inadmissible candidate move


class DomainError(ValueError):
    """Invalid node, point, or domain construction.

    key names the constructor argument at fault, when there is one.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class HypothesisReport:
    checks: list[HypothesisCheck] = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append(HypothesisCheck(name, bool(passed), detail))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in self.checks
        ]


class SpatialDomain:
    """Base for the three discretization backends.

    Attributes shared by all backends:
      kind            backend name
      coord_names     one name per point coordinate (artifact column headers)
      n_nodes         number of grid/graph nodes
      dx              grid spacing (min edge length on graphs)
      origin          index of the distinguished node
      targets         sorted array of target node indices
      geodesic_constant  D in the geodesic-length bound (1 on these backends)
    """

    kind = "abstract"
    coord_names = ()
    geodesic_constant = 1.0

    # ---- node-level API -------------------------------------------------

    def node_coords(self):
        return self.coords

    def _check_node(self, i, key=None):
        if not (0 <= int(i) < self.n_nodes):
            raise DomainError(f"unknown node index {i} (n_nodes={self.n_nodes})", key)
        return int(i)

    def _resolve_nodes(self, coords, key):
        """Node index of each coordinate (node id on graphs), errors tagged with key."""
        try:
            return [self.node_at(c) for c in coords]
        except DomainError as err:
            raise DomainError(str(err), key) from None

    def distance(self, i, j):
        """Shortest-path distance between two nodes."""
        raise NotImplementedError

    def geodesic(self, i, j):
        """Unit-speed shortest path i -> j as (node index list, length)."""
        raise NotImplementedError

    def target_node_distances(self):
        """Distance from every node to the target set."""
        raise NotImplementedError

    def origin_node_distances(self):
        raise NotImplementedError

    def node_at(self, coord):
        """Index of the node nearest to a coordinate."""
        raise NotImplementedError

    # ---- point-level API (continuous positions) -------------------------
    # A point batch's trailing axis holds the len(coord_names) coordinates;
    # the interval's one coordinate has no axis, so its batches are 1d.

    def as_points(self, x):
        """Float copy of a point or a point batch, as a batch."""
        pts = np.array(x, dtype=float, ndmin=2)
        if pts.shape[-1] != len(self.coord_names):
            raise DomainError(f"{self.kind} points have {len(self.coord_names)} "
                              f"coordinates, got an array of shape {pts.shape}")
        return pts

    def nearest_nodes(self, ps):
        """Index of the nearest node of each point, for any leading batch shape."""
        raise NotImplementedError

    def node_points(self):
        """All nodes as a batch of points."""
        return self.points_of_nodes(np.arange(self.n_nodes))

    def points_of_nodes(self, idx):
        return self.coords[np.asarray(idx, dtype=int)]

    def point_distance(self, p, q):
        """Metric distance between two point batches (broadcast elementwise, any shape)."""
        raise NotImplementedError

    def point_distance_matrix(self, ps, qs):
        """Distance from every point of batch ps to every point of batch qs."""
        return self.point_distance(np.asarray(ps)[:, None], np.asarray(qs)[None, :])

    def point_origin_distance(self, ps):
        """Distance of each point to the origin node, for any leading batch shape."""
        return self.point_distance(ps, self.points_of_nodes(self.origin))

    def point_target_distance(self, ps):
        """Distance of each point of a batch to the nearest target node."""
        return np.min(self.point_distance_matrix(ps, self.points_of_nodes(self.targets)), axis=1)

    def interp(self, node_values, ps):
        """Interpolate a per-node field at continuous points."""
        raise NotImplementedError

    def reach_candidates(self, ps, r):
        """Candidate moves of metric length <= r from each point.

        Returns (cand, disp, valid): cand is a (m, S, ...) point batch, disp
        the metric displacement per slot, valid a mask. Slot 0 is the null
        step; further slots are ordered by the deterministic direction
        convention (sphere endpoints, then in-ball nodes in ascending order).
        Candidates that would leave the domain are marked invalid.
        """
        raise NotImplementedError

    def reach_stencil(self, r_max):
        """Reach-ball minimum over every node, for budgets up to r_max.

        Returns bind(r): r is a per-node budget array with r <= r_max, and
        bind(r)(node_values) is, per node, the minimum of the interpolated
        node field over the candidate moves reach_candidates(node, r) marks
        valid. The r-dependent work happens in bind, so one bound stencil
        serves any number of fields. Backends override this with a
        precomputed node stencil; every override must return bit-identical
        minima to this default.
        """
        pts = self.node_points()

        def bind(r):
            cand, _, valid = self.reach_candidates(pts, r)
            flat = cand.reshape(-1, *cand.shape[2:])

            def ball_min(node_values):
                vals = self.interp(node_values, flat).reshape(valid.shape)
                return np.min(np.where(valid, vals, BIG), axis=1)
            return ball_min
        return bind

    def reach_plan(self, r_max):
        """One greedy-descent step's candidate evaluation, for budgets up to r_max.

        Returns evaluate(ps, r, node_values) -> (cand, vals, disp) for budgets
        r <= r_max: the candidate moves and displacements of
        reach_candidates(ps, r), and the node field interpolated at every
        candidate, with BIG at invalid slots and an infinite displacement.
        Backends override this with a slot layout fixed from r_max, which may
        hold further invalid slots; the first slot with the least (value,
        displacement) must hold the same move, with the same bits, as in
        reach_candidates. Arrays an override returns may be reused by its
        next call.
        """
        def evaluate(ps, r, node_values):
            cand, disp, valid = self.reach_candidates(ps, r)
            vals = np.full(valid.shape, BIG)
            vals[valid] = self.interp(node_values, cand[valid])
            return cand, vals, disp
        return evaluate

    def snap_to_target(self, ps):
        """Snap points within dx/2 of a target node onto it.

        Returns (snapped point batch, target node index per point or -1).
        """
        raise NotImplementedError

    def validate_points(self, ps):
        raise NotImplementedError


class IntervalDomain(SpatialDomain):
    """1d interval [lo, hi] sampled with uniform spacing dx."""

    kind = "interval"
    coord_names = ("x",)

    def __init__(self, lo, hi, dx, targets, origin=None):
        if hi <= lo:
            raise DomainError("interval requires hi > lo", "hi")
        if dx <= 0:
            raise DomainError("dx must be positive", "dx")
        n = int(round((hi - lo) / dx)) + 1
        self.lo, self.hi = float(lo), float(hi)
        self.dx = (self.hi - self.lo) / (n - 1)
        self.coords = np.linspace(self.lo, self.hi, n)
        self.n_nodes = n
        self.targets = np.array(sorted(set(self._resolve_nodes(targets, "targets"))), dtype=int)
        if origin is None:
            origin = self.lo
        self.origin = self._resolve_nodes([origin], "origin")[0]
        self._target_dist = None

    def node_at(self, coord):
        i = int(round((float(coord) - self.lo) / self.dx))
        if not (0 <= i < self.n_nodes) or abs(self.coords[min(max(i, 0), self.n_nodes - 1)] - coord) > self.dx / 2 + 1e-9:
            raise DomainError(f"coordinate {coord} outside [{self.lo}, {self.hi}]")
        return i

    def distance(self, i, j):
        return abs(self.coords[self._check_node(i)] - self.coords[self._check_node(j)])

    def geodesic(self, i, j):
        i, j = self._check_node(i), self._check_node(j)
        step = 1 if j >= i else -1
        path = list(range(i, j + step, step)) if i != j else [i]
        return path, self.distance(i, j)

    def target_node_distances(self):
        if self._target_dist is None:
            tc = self.coords[self.targets]
            self._target_dist = np.min(np.abs(self.coords[:, None] - tc[None, :]), axis=1)
        return self._target_dist

    def origin_node_distances(self):
        return np.abs(self.coords - self.coords[self.origin])

    def as_points(self, x):
        return np.array(x, dtype=float).reshape(-1)

    def nearest_nodes(self, ps):
        i = np.round((np.asarray(ps, dtype=float) - self.lo) / self.dx).astype(int)
        return np.clip(i, 0, self.n_nodes - 1)

    def point_distance(self, p, q):
        return np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))

    def interp(self, node_values, ps):
        return np.interp(np.asarray(ps, dtype=float), self.coords, node_values)

    def reach_candidates(self, ps, r):
        ps = np.asarray(ps, dtype=float)
        r = np.broadcast_to(np.asarray(r, dtype=float), ps.shape)
        n_ball = int(np.floor(np.max(r, initial=0.0) / self.dx + 1e-9)) * 2 + 2
        # sphere endpoints, left before right
        ends = ps[:, None] + np.array([-1.0, 1.0]) * r[:, None]
        # nodes inside the closed ball, ascending coordinate
        i_lo, i_hi = self._ball_bounds(ps, r)
        idx = i_lo[:, None] + np.arange(n_ball)
        cand = np.concatenate([ps[:, None], np.clip(ends, self.lo, self.hi),
                               self.coords[np.clip(idx, 0, self.n_nodes - 1)]], axis=1)
        valid = np.concatenate([np.ones((len(ps), 1), dtype=bool),
                                (ends >= self.lo - 1e-12) & (ends <= self.hi + 1e-12),
                                (idx <= i_hi[:, None]) & (idx >= 0) & (idx < self.n_nodes)], axis=1)
        disp = np.abs(cand - ps[:, None])
        disp[~valid] = np.inf
        return cand, disp, valid

    def reach_plan(self, r_max):
        """reach_candidates' slots, slot-major in buffers reused from step to step.

        The layout is fixed from r_max: the null step, the two sphere
        endpoints and n_ball node slots, sized with room for an interpolated
        budget that overshoots r_max in its last bits (node slots past a
        ball's last node are invalid). One np.interp call evaluates the first
        three slots; node slots gather the node values, which is what np.interp
        returns at a node coordinate. The arrays returned are (m, S) views.
        """
        n_ball = int(np.floor(r_max / self.dx + 1e-6)) * 2 + 2
        n_slot = 3 + n_ball
        offsets = np.arange(n_ball)[:, None]
        signs = np.array([[-1.0], [1.0]])
        buffers = []

        def evaluate(ps, r, node_values):
            m = len(ps)
            if not buffers or buffers[0].size < n_slot * m:
                buffers[:] = [np.empty(n_slot * m) for _ in range(3)] + [np.empty(n_slot * m, bool)]
            cand, vals, disp, valid = (b[:n_slot * m].reshape(n_slot, m) for b in buffers)
            cand[0] = ps
            valid[0] = True
            # sphere endpoints, left before right: -r + ps and r + ps are ps - r
            # and ps + r to the bit
            ends = cand[1:3]
            np.multiply(signs, r, out=ends)
            ends += ps
            valid[1:3] = (ends >= self.lo - 1e-12) & (ends <= self.hi + 1e-12)
            # nodes inside the closed ball, as _ball_bounds computes them
            f = (ends - self.lo) / self.dx
            i_lo = np.ceil(f[0] - 1e-9).astype(int)
            i_hi = np.floor(f[1] + 1e-9).astype(int)
            np.clip(ends, self.lo, self.hi, out=ends)
            idx = i_lo + offsets
            safe = np.minimum(np.maximum(idx, 0), self.n_nodes - 1)
            np.equal(safe, idx, out=valid[3:])
            valid[3:] &= idx <= i_hi
            cand[3:] = self.coords[safe]
            vals[:3] = self.interp(node_values, cand[:3])
            vals[3:] = node_values[safe]
            invalid = ~valid
            np.copyto(vals, BIG, where=invalid)
            np.abs(np.subtract(cand, ps, out=disp), out=disp)
            np.copyto(disp, np.inf, where=invalid)
            return cand.T, vals.T, disp.T
        return evaluate

    def _ball_bounds(self, ps, r):
        """First and last node index inside each closed ball, as reach_candidates."""
        i_lo = np.ceil((ps - r - self.lo) / self.dx - 1e-9).astype(int)
        i_hi = np.floor((ps + r - self.lo) / self.dx + 1e-9).astype(int)
        return i_lo, i_hi

    def reach_stencil(self, r_max):
        """Node stencil i + o over the offsets o any ball of radius <= r_max reaches.

        Node values are gathered directly (np.interp returns the node value
        exactly at a node coordinate); the two sphere endpoints go through
        one np.interp call per field.
        """
        x = self.coords
        i_lo, i_hi = self._ball_bounds(x, np.full(self.n_nodes, float(r_max)))
        own = np.arange(self.n_nodes)
        offsets = np.arange(min(np.min(i_lo - own), 0), max(np.max(i_hi - own), 0) + 1)
        idx = own[:, None] + offsets[None, :]
        in_range = (idx >= 0) & (idx < self.n_nodes)
        safe = np.clip(idx, 0, self.n_nodes - 1)
        null_step = offsets[None, :] == 0

        def bind(r):
            r = np.broadcast_to(np.asarray(r, dtype=float), x.shape)
            lo_b, hi_b = self._ball_bounds(x, r)
            node_ok = null_step | (in_range & (idx >= lo_b[:, None]) & (idx <= hi_b[:, None]))
            ends = np.concatenate([x - r, x + r])
            end_ok = (ends >= self.lo - 1e-12) & (ends <= self.hi + 1e-12)
            ends = np.clip(ends, self.lo, self.hi)

            def ball_min(node_values):
                end_vals = np.where(end_ok, np.interp(ends, x, node_values), BIG)
                node_best = np.min(np.where(node_ok, node_values[safe], BIG), axis=1)
                return np.minimum(node_best, np.min(end_vals.reshape(2, -1), axis=0))
            return ball_min
        return bind

    def snap_to_target(self, ps):
        ps = np.asarray(ps, dtype=float).copy()
        tc = self.coords[self.targets]
        d = np.abs(ps[:, None] - tc[None, :])
        j = np.argmin(d, axis=1)
        hit = d[np.arange(len(ps)), j] <= self.dx / 2 + 1e-12
        ps[hit] = tc[j[hit]]
        out = np.where(hit, self.targets[j], -1)
        return ps, out

    def validate_points(self, ps):
        ps = np.asarray(ps, dtype=float)
        if np.any(ps < self.lo - 1e-9) or np.any(ps > self.hi + 1e-9):
            raise DomainError("point outside interval domain")


class Grid2dDomain(SpatialDomain):
    """Rectangular grid on [lo_x, hi_x] x [lo_y, hi_y] with 4- or 8-connectivity.

    The metric is the shortest-path metric of the lattice extended to the
    continuum: L1 for 4-connectivity, octile for 8-connectivity.
    """

    kind = "grid2d"
    coord_names = ("x", "y")

    def __init__(self, lo, hi, dx, targets, origin=None, connectivity=8):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi <= lo):
            raise DomainError("grid2d requires hi > lo per axis", "hi")
        if connectivity not in (4, 8):
            raise DomainError("connectivity must be 4 or 8", "connectivity")
        self.lo, self.hi = lo, hi
        self.connectivity = int(connectivity)
        nx = int(round((hi[0] - lo[0]) / dx)) + 1
        ny = int(round((hi[1] - lo[1]) / dx)) + 1
        for extent, n in (((hi[0] - lo[0]), nx), ((hi[1] - lo[1]), ny)):
            if abs(extent / (n - 1) - dx) > 1e-9 * max(1.0, dx):
                raise DomainError(f"extent {extent} is not a multiple of dx = {dx}", "dx")
        self.shape = (nx, ny)
        self.dx = float((hi[0] - lo[0]) / (nx - 1))
        xs = np.linspace(lo[0], hi[0], nx)
        ys = np.linspace(lo[1], hi[1], ny)
        self.xs, self.ys = xs, ys
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self.coords = np.column_stack([gx.ravel(), gy.ravel()])
        self.n_nodes = nx * ny
        self.targets = np.array(sorted(set(self._resolve_nodes(targets, "targets"))), dtype=int)
        self.origin = self._resolve_nodes([origin if origin is not None else lo], "origin")[0]
        self._target_dist = None
        if self.connectivity == 8:
            self._offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        else:
            self._offsets = [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def node_at(self, coord):
        coord = np.asarray(coord, dtype=float)
        ix = int(round((coord[0] - self.lo[0]) / self.dx))
        iy = int(round((coord[1] - self.lo[1]) / self.dx))
        if not (0 <= ix < self.shape[0] and 0 <= iy < self.shape[1]):
            raise DomainError(f"coordinate {coord} outside grid")
        return ix * self.shape[1] + iy

    def _metric(self, d):
        ax = np.abs(d[..., 0])
        ay = np.abs(d[..., 1])
        if self.connectivity == 4:
            return ax + ay
        lo = np.minimum(ax, ay)
        return np.maximum(ax, ay) + (SQRT2 - 1.0) * lo

    def distance(self, i, j):
        return float(self._metric(self.coords[self._check_node(i)] - self.coords[self._check_node(j)]))

    def geodesic(self, i, j):
        i, j = self._check_node(i), self._check_node(j)
        ny = self.shape[1]
        ix, iy = divmod(i, ny)
        jx, jy = divmod(j, ny)
        path = [i]
        cx, cy = ix, iy
        while (cx, cy) != (jx, jy):
            sx = int(np.sign(jx - cx))
            sy = int(np.sign(jy - cy))
            if self.connectivity == 4 and sx != 0 and sy != 0:
                sy = 0  # axis-by-axis staircase
            cx, cy = cx + sx, cy + sy
            path.append(cx * ny + cy)
        length = sum(self.distance(a, b) for a, b in zip(path[:-1], path[1:]))
        return path, length

    def target_node_distances(self):
        if self._target_dist is None:
            d = self.coords[:, None, :] - self.coords[self.targets][None, :, :]
            self._target_dist = np.min(self._metric(d), axis=1)
        return self._target_dist

    def origin_node_distances(self):
        return self._metric(self.coords - self.coords[self.origin])

    def nearest_nodes(self, ps):
        ps = np.asarray(ps, dtype=float)
        ix = np.clip(np.round((ps[..., 0] - self.lo[0]) / self.dx).astype(int), 0, self.shape[0] - 1)
        iy = np.clip(np.round((ps[..., 1] - self.lo[1]) / self.dx).astype(int), 0, self.shape[1] - 1)
        return ix * self.shape[1] + iy

    def point_distance(self, p, q):
        return self._metric(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))

    def _bilinear_plan(self, ps):
        """Flat corner indices and the factors (1-tx, tx, 1-ty, ty) per point."""
        nx, ny = self.shape
        fx = np.clip((ps[:, 0] - self.lo[0]) / self.dx, 0, nx - 1)
        fy = np.clip((ps[:, 1] - self.lo[1]) / self.dx, 0, ny - 1)
        ix = np.minimum(fx.astype(int), nx - 2) if nx > 1 else np.zeros(len(ps), dtype=int)
        iy = np.minimum(fy.astype(int), ny - 2) if ny > 1 else np.zeros(len(ps), dtype=int)
        tx = fx - ix
        ty = fy - iy
        jx = np.minimum(ix + 1, nx - 1)
        jy = np.minimum(iy + 1, ny - 1)
        corners = (ix * ny + iy, jx * ny + iy, ix * ny + jy, jx * ny + jy)
        return corners, (1 - tx, tx, 1 - ty, ty)

    @staticmethod
    def _bilinear(node_values, plan):
        # products stay in the order v * x-factor * y-factor, term by term,
        # so a cached plan gives the same floats as interp
        (i00, i10, i01, i11), (sx, tx, sy, ty) = plan
        return (node_values[i00] * sx * sy + node_values[i10] * tx * sy
                + node_values[i01] * sx * ty + node_values[i11] * tx * ty)

    def interp(self, node_values, ps):
        """Bilinear interpolation of a flat node field."""
        return self._bilinear(node_values, self._bilinear_plan(np.asarray(ps, dtype=float)))

    def _in_box(self, q):
        return np.all((q >= self.lo - 1e-12) & (q <= self.hi + 1e-12), axis=-1)

    def _sphere_endpoints(self, ps, r):
        """Points at metric distance r from ps along each lattice direction."""
        units = np.array(self._offsets, dtype=float)
        scale = r[:, None] / self._metric(units)[None, :]
        return ps[:, None, :] + units[None, :, :] * scale[:, :, None]

    def _window_nodes(self, ps, r_max):
        """Clipped lattice nodes in the (2w+1)^2 window that holds every r_max-ball."""
        w = int(np.floor(r_max / self.dx + 1e-9)) + 1
        ix = np.round((ps[:, 0] - self.lo[0]) / self.dx).astype(int)
        iy = np.round((ps[:, 1] - self.lo[1]) / self.dx).astype(int)
        off = np.arange(-w, w + 1)
        jx = np.clip(ix[:, None, None] + off[None, :, None], 0, self.shape[0] - 1)
        jy = np.clip(iy[:, None, None] + off[None, None, :], 0, self.shape[1] - 1)
        q = np.stack(np.broadcast_arrays(self.xs[jx], self.ys[jy]), axis=-1)
        return q.reshape(len(ps), -1, 2)

    def reach_stencil(self, r_max):
        """Window node slots that some node's r_max-ball holds, plus sphere endpoints.

        The node slots, their bilinear plans and their displacements are
        fixed; bind(r) only places the sphere endpoints and plans their
        interpolation in one batch.
        """
        x = self.coords
        q = self._window_nodes(x, r_max)
        disp = self._metric(q - x[:, None, :])
        keep = np.any(disp <= r_max + 1e-12, axis=0)
        q, disp = q[:, keep], disp[:, keep]
        node_plan = self._bilinear_plan(q.reshape(-1, 2))

        def bind(r):
            r = np.broadcast_to(np.asarray(r, dtype=float), (self.n_nodes,))
            node_ok = disp <= r[:, None] + 1e-12
            ends = self._sphere_endpoints(x, r)
            end_ok = self._in_box(ends)
            end_plan = self._bilinear_plan(ends.reshape(-1, 2))

            def ball_min(node_values):
                node_vals = self._bilinear(node_values, node_plan).reshape(disp.shape)
                end_vals = self._bilinear(node_values, end_plan).reshape(end_ok.shape)
                return np.minimum(np.min(np.where(node_ok, node_vals, BIG), axis=1),
                                  np.min(np.where(end_ok, end_vals, BIG), axis=1))
            return ball_min
        return bind

    def reach_candidates(self, ps, r):
        ps = np.asarray(ps, dtype=float)
        r = np.broadcast_to(np.asarray(r, dtype=float), (ps.shape[0],))
        ends = self._sphere_endpoints(ps, r)
        nodes = self._window_nodes(ps, np.max(r, initial=0.0))
        node_disp = self._metric(nodes - ps[:, None, :])
        cand = np.concatenate([ps[:, None, :], ends, nodes], axis=1)
        valid = np.concatenate([np.ones((len(ps), 1), dtype=bool), self._in_box(ends),
                                node_disp <= r[:, None] + 1e-12], axis=1)
        disp = np.concatenate([np.zeros((len(ps), 1)),
                               np.broadcast_to(r[:, None], ends.shape[:2]), node_disp], axis=1)
        disp[~valid] = np.inf
        return cand, disp, valid

    def snap_to_target(self, ps):
        ps = np.asarray(ps, dtype=float).copy()
        tc = self.coords[self.targets]
        d = self._metric(ps[:, None, :] - tc[None, :, :])
        j = np.argmin(d, axis=1)
        hit = d[np.arange(len(ps)), j] <= self.dx / 2 + 1e-12
        ps[hit] = tc[j[hit]]
        out = np.where(hit, self.targets[j], -1)
        return ps, out

    def validate_points(self, ps):
        if not np.all(self._in_box(np.asarray(ps, dtype=float))):
            raise DomainError("point outside grid2d domain")


class GraphDomain(SpatialDomain):
    """Finite weighted metric graph; points are (u, v, s) edge offsets.

    A point (u, v, s) sits at distance s from node u along edge (u, v);
    nodes themselves are encoded as (i, i, 0).
    """

    kind = "graph"
    coord_names = ("u", "v", "s")

    def __init__(self, n_nodes, edges, targets, origin=0, coords=None):
        self.n_nodes = int(n_nodes)
        if self.n_nodes < 1:
            raise DomainError("graph needs at least one node", "n_nodes")
        rows, cols, vals = [], [], []
        self.edge_length = {}
        for u, v, length in edges:
            u, v, length = int(u), int(v), float(length)
            if length <= 0:
                raise DomainError(f"edge ({u},{v}) has nonpositive length", "edges")
            if u == v:
                raise DomainError(f"self-loop at node {u}", "edges")
            self._check_node(u, "edges"), self._check_node(v, "edges")
            key = (min(u, v), max(u, v))
            if key in self.edge_length:
                raise DomainError(f"duplicate edge {key}", "edges")
            rows += [u, v]
            cols += [v, u]
            vals += [length, length]
            self.edge_length[key] = length
        self.adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(self.n_nodes, self.n_nodes))
        # edge length by (u, v) in both orders, 0 where there is no edge
        self._edge_table = self.adjacency.toarray()
        self.dx = min(self.edge_length.values()) if self.edge_length else 1.0
        self._dm, self._pred = dijkstra(self.adjacency, return_predecessors=True)
        self.targets = np.array(sorted(set(self._resolve_nodes(targets, "targets"))), dtype=int)
        self.origin = self._resolve_nodes([origin], "origin")[0]
        self.coords = None if coords is None else np.asarray(coords, dtype=float)

    def node_coords(self):
        if self.coords is not None:
            return self.coords
        return np.arange(self.n_nodes, dtype=float)

    def node_at(self, node_id):
        return self._check_node(node_id)

    def distance(self, i, j):
        return float(self._dm[self._check_node(i), self._check_node(j)])

    def geodesic(self, i, j):
        i, j = self._check_node(i), self._check_node(j)
        if not np.isfinite(self._dm[i, j]):
            raise DomainError(f"nodes {i} and {j} are disconnected")
        path = [j]
        while path[-1] != i:
            path.append(int(self._pred[i, path[-1]]))
        path.reverse()
        return path, float(self._dm[i, j])

    def target_node_distances(self):
        return np.min(self._dm[:, self.targets], axis=1)

    def origin_node_distances(self):
        return self._dm[:, self.origin].copy()

    # point helpers: array formulas over _dm and _edge_table --------------

    def points_of_nodes(self, idx):
        idx = np.asarray(idx, dtype=float)
        return np.stack([idx, idx, np.zeros_like(idx)], axis=-1)

    def _split(self, ps):
        """(u, v, s, edge length) of a point batch; s and the length are 0 at a node."""
        ps = np.asarray(ps, dtype=float)
        u, v = ps[..., 0].astype(int), ps[..., 1].astype(int)
        return u, v, np.where(u == v, 0.0, ps[..., 2]), self._edge_table[u, v]

    def _node_dist(self, u, v, s, length, nodes):
        """Split points to nodes, broadcast; at a node both terms are dm[u, nodes] exactly."""
        return np.minimum(s + self._dm[u, nodes], (length - s) + self._dm[v, nodes])

    def nearest_nodes(self, ps):
        u, v, s, length = self._split(ps)
        return np.where((u == v) | (s <= length / 2), u, v)

    def point_distance(self, p, q):
        pu, pv, ps, pl = self._split(p)
        qu, qv, qs, ql = self._split(q)
        best = np.minimum(self._node_dist(pu, pv, ps, pl, qu) + qs,
                          self._node_dist(pu, pv, ps, pl, qv) + (ql - qs))
        # two points on one edge are also |s - s2| apart along it
        fwd = (pu == qu) & (pv == qv)
        same = (pu != pv) & (fwd | ((pu == qv) & (pv == qu)))
        along = np.abs(ps - np.where(fwd, qs, ql - qs))
        return np.where(same, np.minimum(best, along), best)

    def interp(self, node_values, ps):
        u, v, s, length = self._split(ps)
        t = s / np.where(u == v, 1.0, length)  # 0 at a node: (1 - 0) f[u] + 0 f[u] is f[u]
        return (1 - t) * node_values[u] + t * node_values[v]

    def reach_candidates(self, ps, r):
        """Each row packed by layout rank: null 0, the along-edge sphere points 1
        and 2, in-ball node y 3 + y + indptr[y], then its frontier CSR edges k 4 + y + k.
        """
        ps = np.atleast_2d(np.asarray(ps, dtype=float))
        m = len(ps)
        r = np.broadcast_to(np.asarray(r, dtype=float), (m,))
        u, v, s, length = self._split(ps)
        dists = self._node_dist(u[:, None], v[:, None], s[:, None], length[:, None],
                                np.arange(self.n_nodes))
        rows, ys = np.nonzero(dists <= (r + 1e-12)[:, None])
        dy = dists[rows, ys]
        # every CSR edge (y, z) of every in-ball node y
        indptr, nbr, ell = self.adjacency.indptr, self.adjacency.indices, self.adjacency.data
        deg = indptr[ys + 1] - indptr[ys]
        pair = np.repeat(np.arange(len(ys)), deg)
        k = np.arange(len(pair)) + np.repeat(indptr[ys] - (np.cumsum(deg) - deg), deg)
        er, y, z = rows[pair], ys[pair], nbr[k]
        rem = r[er] - dy[pair]
        keep = (1e-15 < rem) & (rem < ell[k] - 1e-15) & (dists[er, z] > r[er] + 1e-12)
        er, y, z, k, rem = er[keep], y[keep], z[keep], k[keep], rem[keep]
        # along-edge sphere points: side 0 at s - r, side 1 at s + r
        lr, side = np.nonzero((u != v)[:, None]
                              & (r[:, None] < np.column_stack([s, length - s]) - 1e-15))
        entries = [  # (row, rank, point, displacement)
            (np.arange(m), np.zeros(m, dtype=int), ps, np.zeros(m)),
            (lr, 1 + side, np.column_stack(
                [u[lr], v[lr], s[lr] + np.where(side, r[lr], -r[lr])]), r[lr]),
            (rows, 3 + ys + indptr[ys], np.column_stack([ys, ys, np.zeros(len(ys))]), dy),
            (er, 4 + y + k, np.column_stack([np.minimum(y, z), np.maximum(y, z),
                                             np.where(y < z, rem, ell[k] - rem)]), r[er]),
        ]
        row, rank, pts, disp = (np.concatenate(col) for col in zip(*entries))
        order = np.lexsort((rank, row))
        row, pts, disp = row[order], pts[order], disp[order]
        count = np.bincount(row, minlength=m)
        slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        S = int(count.max(initial=0))
        cand = np.zeros((m, S, 3))
        out_disp = np.full((m, S), np.inf)
        valid = np.zeros((m, S), dtype=bool)
        cand[row, slot], out_disp[row, slot], valid[row, slot] = pts, disp, True
        return cand, out_disp, valid

    def snap_to_target(self, ps):
        ps = np.atleast_2d(np.asarray(ps, dtype=float)).copy()
        u, v, s, length = self._split(ps)
        d = self._node_dist(u[:, None], v[:, None], s[:, None], length[:, None], self.targets)
        j = np.argmin(d, axis=1)
        hit = d[np.arange(len(ps)), j] <= self.dx / 2 + 1e-12
        out = np.where(hit, self.targets[j], -1)
        ps[hit] = self.points_of_nodes(out[hit])
        return ps, out

    def validate_points(self, ps):
        ps = np.atleast_2d(np.asarray(ps, dtype=float))
        for p in ps:
            u, v, s = int(p[0]), int(p[1]), float(p[2])
            self._check_node(u), self._check_node(v)
            length = self._edge_table[u, v]  # 0 where (u, v) is no edge
            if u != v and not (length > 0 and 0 <= s <= length + 1e-9):
                raise DomainError(f"offset {s} outside edge ({u},{v})")


class ExitCost:
    """Exit cost g on the target set with its Lipschitz constant."""

    def __init__(self, domain, values, lipschitz_constant=None):
        self.domain = domain
        self.values = {int(k): float(v) for k, v in values.items()}
        tgt, keys = set(domain.targets.tolist()), set(self.values)
        for what, nodes in (("missing target", tgt - keys), ("on non-target", keys - tgt)):
            if nodes:
                raise DomainError(f"exit cost {what} nodes {sorted(nodes)}")
        for k, v in self.values.items():
            if not np.isfinite(v) or v < 0:
                raise DomainError(f"exit cost at node {k} must be finite and >= 0")
        if lipschitz_constant is None:  # the tightest constant over target pairs
            _, _, d, gap = self._target_pairs()
            lipschitz_constant = np.max(gap[d > 0] / d[d > 0], initial=0.0)
        self.lipschitz_constant = float(lipschitz_constant)

    @classmethod
    def zero(cls, domain):
        return cls(domain, {int(t): 0.0 for t in domain.targets}, 0.0)

    @classmethod
    def constant(cls, domain, value):
        return cls(domain, {int(t): float(value) for t in domain.targets}, 0.0)

    def _target_pairs(self):
        """(a, b, d(a, b), |g(a) - g(b)|) over target pairs a < b, in (a, b) order;
        pairs in different components bound nothing."""
        tgt = self.domain.targets
        pts = self.domain.points_of_nodes(tgt)
        d = self.domain.point_distance_matrix(pts, pts)
        order = np.arange(len(tgt))
        a, b = np.nonzero((order[:, None] < order) & np.isfinite(d))
        g = self.node_table()[tgt]
        return tgt[a], tgt[b], d[a, b], np.abs(g[a] - g[b])

    def at_node(self, i):
        return self.values[int(i)]

    def node_table(self):
        """Cost per node, +inf off the target set."""
        g = np.full(self.domain.n_nodes, np.inf)
        for k, v in self.values.items():
            g[k] = v
        return g

    @property
    def max_cost(self):
        return max(self.values.values())

    def lipschitz_violation(self):
        """Worst (pair, excess) over target pairs, or None when (H3) holds.

        The witness is the first pair in (a, b) order with the largest excess.
        """
        a, b, d, gap = self._target_pairs()
        excess = gap - self.lipschitz_constant * d - 1e-12
        if not np.any(excess > 0):
            return None
        k = int(np.argmax(excess))
        return int(a[k]), int(b[k]), float(excess[k])


def validate_hypotheses(domain, cost=None, rng=None, samples=200):
    """Check the structural hypotheses (H1)-(H4) on a domain and exit cost.

    Failures are report entries carrying witnessing node pairs, never raises.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    report = HypothesisReport()

    finite_edges = True
    if domain.kind == "graph":
        finite_edges = all(np.isfinite(l) and l > 0 for l in domain.edge_length.values())
    report.add("H1", finite_edges and domain.n_nodes > 0,
               "finite node set with positive edge lengths: closed balls are compact")

    tgt_ok = len(domain.targets) > 0 and np.all((domain.targets >= 0) & (domain.targets < domain.n_nodes))
    report.add("H2", tgt_ok, "target set nonempty and contained in the node set"
               if tgt_ok else "target set empty or has unknown nodes")

    if cost is not None:
        worst = cost.lipschitz_violation()
        if worst is None:
            report.add("H3", True, f"L_g = {cost.lipschitz_constant:.6g} verified on all target pairs")
        else:
            report.add("H3", False,
                       f"witness pair ({worst[0]}, {worst[1]}): excess {worst[2]:.3g} over L_g bound")

    connected = True
    if domain.kind == "graph":
        connected = bool(np.all(np.isfinite(domain._dm)))
    worst_ratio = 0.0
    witness = None
    if connected and domain.n_nodes > 1:
        pairs = rng.integers(0, domain.n_nodes, size=(samples, 2))
        for i, j in pairs:
            if i == j:
                continue
            d = domain.distance(i, j)
            _, length = domain.geodesic(i, j)
            ratio = length / d
            if ratio > worst_ratio:
                worst_ratio, witness = ratio, (int(i), int(j))
    h4_ok = connected and worst_ratio <= domain.geodesic_constant + 1e-9
    detail = ("graph is disconnected" if not connected else
              f"max sampled geodesic/distance ratio {worst_ratio:.6g} at pair {witness}"
              f" (D = {domain.geodesic_constant})")
    report.add("H4", h4_ok, detail)
    return report
