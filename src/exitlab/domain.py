"""Discretized metric domains: interval grids, rectangular grids, weighted metric graphs.

Each backend is a finite graph whose shortest-path metric plays the role of the
space metric. Continuous positions (points) live on the geometry itself:
scalars on the interval, planar coordinates on the 2d grid, and (u, v, s)
edge offsets on a metric graph. A backend has one metric, point_distance;
at the nodes it is the graph's shortest-path metric, so geodesics realize
distances and the geodesic constant is 1 by construction.
"""
from __future__ import annotations

import operator

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

SQRT2 = float(np.sqrt(2.0))
BIG = 1e30  # value of an inadmissible candidate move
# budget rows per reach_stencil bind: bounds a placed block's temporaries,
# which every value solve frees and the allocator may hand back to the system
STENCIL_ROWS = 16
# rows of a node kernel matrix built per distance evaluation: the (n, n[, dim])
# temporaries of a one-shot build dwarf the matrix itself
NODE_MATRIX_ROW_BLOCK = 128
# the most nodes a domain may have: node ids are stored as int32
# (TrajectoryEnsemble.node_indices)
INDEX_MAX = 2**31 - 1
# a graph's two dense n x n float64 tables (edge lengths, all-pairs
# distances) take 16 n^2 bytes and stay within this: at most 8,192 nodes
GRAPH_TABLE_BYTES = 2**30


class DomainError(ValueError):
    """Invalid node, point, or domain construction.

    key names the constructor argument at fault, when there is one.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def _node_count(extent, dx):
    """Nodes along an axis of the given extent at spacing dx, which must divide it."""
    steps = extent / dx
    if not steps <= INDEX_MAX - 0.5:  # round(steps) + 1 > INDEX_MAX nodes; steps may be inf
        raise DomainError(f"extent {extent} at dx = {dx} has more than {INDEX_MAX} nodes", "dx")
    n = int(round(steps)) + 1
    if n < 2 or abs(extent / (n - 1) - dx) > 1e-9 * max(1.0, dx):
        raise DomainError(f"extent {extent} is not a multiple of dx = {dx}", "dx")
    return n


def _axis_offsets(coords):
    """Distinct |c_i - c_k| over one axis's node coordinates, and each pair's index into them."""
    gaps = np.abs(coords[:, None] - coords[None, :])
    values, inverse = np.unique(gaps, return_inverse=True)
    # the inverse's shape changed across numpy 2.x releases: reshape it explicitly
    return values, inverse.reshape(gaps.shape)


class SpatialDomain:
    """Base for the three discretization backends.

    Attributes shared by all backends:
      kind            backend name
      coord_names     one name per point coordinate (artifact column headers)
      n_nodes         number of grid/graph nodes
      dx              grid spacing (min edge length on graphs)
      origin          index of the distinguished node
      targets         sorted array of target node indices
    Every metric is a shortest-path metric: the geodesic constant D of (H4) is 1.
    """

    kind = "abstract"
    coord_names = ()

    # ---- node-level API -------------------------------------------------

    def _check_node(self, i, key=None):
        """Index of node id i, which must be a whole number (3 or 3.0) below n_nodes."""
        try:
            idx = operator.index(i)  # an int or a numpy integer
        except TypeError:
            idx = int(i) if isinstance(i, (float, np.floating)) and float(i).is_integer() else -1
        if not 0 <= idx < self.n_nodes:
            raise DomainError(f"unknown node index {i} (n_nodes={self.n_nodes})", key)
        return idx

    def _resolve_nodes(self, coords, key):
        """Node index of each coordinate (node id on graphs), errors tagged with key."""
        try:
            return [self.node_at(c) for c in coords]
        except DomainError as err:
            raise DomainError(str(err), key) from None

    def _nonempty_targets(self):
        """The target nodes, for a query that needs one: a domain without any builds (H2 fails)."""
        if len(self.targets) == 0:
            raise DomainError(f"{self.kind} domain has no target node", "targets")
        return self.targets

    def target_node_distances(self):
        """Distance from every node to the target set."""
        return self.point_target_distance(self.node_points())

    def origin_node_distances(self):
        """Distance from every node to the origin node."""
        return self.point_origin_distance(self.node_points())

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

    def node_kernel_matrix(self, f, col_weights):
        """f(d(x_i, x_c)) * col_weights[c] over every node pair i, c.

        f maps an array of distances to an array of the same shape,
        elementwise. Built NODE_MATRIX_ROW_BLOCK rows per distance
        evaluation. An override must return the same matrix, bit for bit.
        """
        nodes = self.node_points()
        out = np.empty((self.n_nodes, self.n_nodes))
        for lo in range(0, self.n_nodes, NODE_MATRIX_ROW_BLOCK):
            d = self.point_distance_matrix(nodes[lo:lo + NODE_MATRIX_ROW_BLOCK], nodes)
            out[lo:lo + len(d)] = f(d) * col_weights[None, :]
        return out

    def point_origin_distance(self, ps):
        """Distance of each point to the origin node, for any leading batch shape."""
        return self.point_distance(ps, self.points_of_nodes(self.origin))

    def point_target_distance(self, ps):
        """Distance of each point of a batch to the nearest target node."""
        targets = self.points_of_nodes(self._nonempty_targets())
        return np.min(self.point_distance_matrix(ps, targets), axis=1)

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

        Returns bind(rows) for a (B, n_nodes) block of per-node budget rows
        <= r_max, B <= STENCIL_ROWS: bind places reach_plan(r_max)'s moves at
        the node points of every row at once and yields one ball_min per
        row, in row order; ball_min(node_values) is the least value the plan
        evaluates per node under that row, and serves until the next bind.
        A slice's reach-ball geometry depends only on its budget row, never
        on the value, so a block of rows can be placed before any of its
        values is known. An override (a precomputed node stencil) must
        return the same minima, bit for bit; it may place its rows one at a
        time, as they are drawn.
        """
        place = self.reach_plan(r_max)
        pts = self.node_points()
        n = self.n_nodes

        def bind(rows):
            rows = np.asarray(rows, dtype=float)
            evaluate = place(np.concatenate([pts] * len(rows)), rows.ravel())
            for b in range(len(rows)):
                # the plan may reuse its arrays on its next call: reduce them at once
                yield lambda node_values, part=slice(b * n, (b + 1) * n): np.minimum.reduce(
                    evaluate(node_values, part)[1], axis=0)
        return bind

    def reach_plan(self, r_max):
        """Candidate evaluation for greedy descent and the reach-ball minimum.

        Returns place(ps, r) for budgets r <= r_max: it places the moves of
        reach_candidates(ps, r) and returns evaluate(node_values, part) ->
        (cand, vals, disp) for the points ps[part] (default: all of them),
        slot-major: the moves, the node field at each (BIG at invalid slots)
        and the displacements (infinite there), each with the slot on axis
        0, for any number of fields. Every evaluate of a placement returns
        the same displacement array, computed once at placement: a caller
        that writes to it, as ocp._select_candidates does, must place again
        before it evaluates another field. Backends override this with a
        slot layout fixed from r_max, which may hold further invalid slots;
        the first slot with the least (value, displacement) must hold the
        same move, with the same bits, as in reach_candidates. An override
        may reuse its arrays at its next placement or evaluation: an
        evaluate serves until the next placement.
        """
        def place(ps, r):
            cand, disp, valid = (np.swapaxes(a, 0, 1) for a in self.reach_candidates(ps, r))

            def evaluate(node_values, part=slice(None)):
                at, ok = cand[:, part], valid[:, part]
                vals = np.full(ok.shape, BIG)
                vals[ok] = self.interp(node_values, at[ok])
                return at, vals, disp[:, part]
            return evaluate
        return place

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
        n = _node_count(hi - lo, dx)
        self.lo, self.hi = float(lo), float(hi)
        self.dx = (self.hi - self.lo) / (n - 1)
        self.coords = np.linspace(self.lo, self.hi, n)
        self.n_nodes = n
        self.targets = np.array(sorted(set(self._resolve_nodes(targets, "targets"))), dtype=int)
        if origin is None:
            origin = self.lo
        self.origin = self._resolve_nodes([origin], "origin")[0]

    def node_at(self, coord):
        i = int(round((float(coord) - self.lo) / self.dx))
        if not (0 <= i < self.n_nodes) or abs(self.coords[min(max(i, 0), self.n_nodes - 1)] - coord) > self.dx / 2 + 1e-9:
            raise DomainError(f"coordinate {coord} outside [{self.lo}, {self.hi}]")
        return i

    def as_points(self, x):
        return np.array(x, dtype=float).reshape(-1)

    def nearest_nodes(self, ps):
        i = np.round((np.asarray(ps, dtype=float) - self.lo) / self.dx).astype(int)
        return np.clip(i, 0, self.n_nodes - 1)

    def point_distance(self, p, q):
        d = np.subtract(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        return np.abs(d, out=d if d.ndim else None)  # in place, but a scalar for scalars

    def interp(self, node_values, ps):
        return np.interp(np.asarray(ps, dtype=float), self.coords, node_values)

    def reach_candidates(self, ps, r):
        ps = np.asarray(ps, dtype=float)
        r = np.broadcast_to(np.asarray(r, dtype=float), ps.shape)
        n_ball = int(np.floor(np.max(r, initial=0.0) / self.dx + 1e-9)) * 2 + 2
        # sphere endpoints, left before right
        ends = ps[:, None] + np.array([-1.0, 1.0]) * r[:, None]
        # nodes inside the closed ball, ascending coordinate
        i_lo = np.ceil((ps - r - self.lo) / self.dx - 1e-9).astype(int)
        i_hi = np.floor((ps + r - self.lo) / self.dx + 1e-9).astype(int)
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
        """reach_candidates' slots, slot-major in buffers reused from placement to placement.

        The buffers' (slot, point) views are rebuilt only when the number of
        points changes.

        The layout is fixed from r_max: the null step, the two sphere
        endpoints and n_ball node slots, sized with room for an interpolated
        budget that overshoots r_max in its last bits (node slots past a
        ball's last node are invalid). One np.interp call evaluates the first
        three slots; node slots gather the node values, which is what np.interp
        returns at a node coordinate. The node arrays are padded with one
        cell on each side, an infinite coordinate and the value BIG: a node
        slot outside the grid gathers a pad cell (the gather clips its
        index), and a slot past the ball's last node is sent to one, so an
        invalid node slot has an infinite displacement and the value BIG.
        A sphere endpoint past lo - 1e-12 or hi + 1e-12, which reach_candidates
        marks invalid, is not masked: it clips to lo or hi, which np.linspace
        makes coords[0] and coords[-1] exactly, and that node then sits in a
        valid node slot with the same coordinate, value and displacement.
        So the clipped endpoint moves neither the ball minimum nor the first
        slot with the least (value, displacement): a later twin can hold it.
        """
        n_ball = int(np.floor(r_max / self.dx + 1e-6)) * 2 + 2
        n_slot = 3 + n_ball
        offsets = np.arange(n_ball)[:, None]
        cells = offsets + 1  # node i_lo + k is padded cell i_lo + k + 1
        shifts = np.array([[-1e-9], [1e-9]])
        coords = np.concatenate([[np.inf], self.coords, [np.inf]])
        padded = np.full(self.n_nodes + 2, BIG)  # BIG, the node field, BIG
        buffers = []
        views = [None, None]  # a batch size and its slot-major views of the buffers

        def place(ps, r):
            m = len(ps)
            if views[0] != m:
                if not buffers or buffers[0].size < n_slot * m:
                    buffers[:] = [np.empty(n_slot * m) for _ in range(3)]
                views[:] = [m, [b[:n_slot * m].reshape(n_slot, m) for b in buffers]]
            cand, vals, disp = views[1]
            cand[0] = ps
            # sphere endpoints, left before right
            ends = cand[1:3]
            np.subtract(ps, r, out=ends[0])
            np.add(ps, r, out=ends[1])
            # nodes i_lo .. i_hi inside the closed ball, as reach_candidates
            # computes them (adding -1e-9 is subtracting 1e-9, to the bit)
            f = (ends - self.lo) / self.dx
            f += shifts
            i_lo = np.ceil(f[0])
            span = np.floor(f[1]) - i_lo  # i_hi - i_lo, exact on whole numbers
            gather = np.where(offsets <= span, i_lo.astype(int) + cells, 0)
            np.minimum(np.maximum(ends, self.lo, out=ends), self.hi, out=ends)  # np.clip
            coords.take(gather, out=cand[3:], mode="clip")
            np.abs(np.subtract(cand, ps, out=disp), out=disp)

            def evaluate(node_values, part=slice(None)):
                out = vals[:, part]
                out[:3] = self.interp(node_values, cand[:3, part])
                padded[1:-1] = node_values
                padded.take(gather[:, part], out=out[3:], mode="clip")
                return cand[:, part], out, disp[:, part]
            return evaluate
        return place

    def snap_to_target(self, ps):
        """Snap points within dx/2 of a target node onto it.

        A point's nearest target is the only one, or one of the two around
        it in the sorted target coordinates, found by np.searchsorted; the
        left one wins a tie, as the first least distance over all targets
        does. The single target of the corridor and the tails is compared
        directly: synthesis snaps every step, and the general path's extra
        calls made a corridor synthesis about 15% slower.
        """
        ps = np.array(ps, dtype=float)
        tc = self.coords[self._nonempty_targets()]
        tol = self.dx / 2 + 1e-12
        if len(tc) == 1:
            hit = (np.abs(ps - tc[0]) <= tol).nonzero()[0]
            j = np.zeros(len(hit), dtype=int)
        else:
            k = tc.searchsorted(ps)  # tc[k - 1] < p <= tc[k]
            # take clips k - 1 = -1 and k = len(tc): past either end a point
            # compares the end target with itself
            d_left = np.abs(ps - tc.take(k - 1, mode="clip"))
            d_right = np.abs(ps - tc.take(k, mode="clip"))
            hit = (np.minimum(d_left, d_right) <= tol).nonzero()[0]
            j = (k[hit] - (d_left[hit] <= d_right[hit])).clip(0)
        ps[hit] = tc[j]
        out = np.full(len(ps), -1)
        out[hit] = self.targets[j]
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
        nx, ny = (_node_count(extent, dx) for extent in hi - lo)
        if nx * ny > INDEX_MAX:
            raise DomainError(f"{nx} x {ny} grid has more than {INDEX_MAX} nodes", "dx")
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

    def node_kernel_matrix(self, f, col_weights):
        """The row-block build's matrix, bit for bit, from per-axis offset tables.

        A node pair's metric depends only on |x_i - x_c| and |y_i - y_c|, and
        each takes few distinct values on a grid (a few bit patterns per
        lattice offset: linspace coordinates are not exactly uniform). So the
        metric and f run once on the table over those value pairs, and each
        x row of nodes gathers its (ny, nx, ny) block of the matrix whole.
        """
        nx, ny = self.shape
        ux, ix = _axis_offsets(self.xs)
        uy, iy = _axis_offsets(self.ys)
        # the metric's output is a fresh contiguous array, as in the row-block
        # build: a strided input could take numpy's scalar exp path in f and
        # differ from it by an ulp
        table = f(self._metric(np.stack(np.meshgrid(ux, uy, indexing="ij"), axis=-1)))
        # [row y, x offset value, column y]: one gather along axis 1 per x row
        by_row_y = np.ascontiguousarray(table[:, iy].transpose(1, 0, 2))
        weights = np.asarray(col_weights, dtype=float).reshape(nx, ny)
        out = np.empty((self.n_nodes, self.n_nodes))
        blocks = out.reshape(nx, ny, nx, ny)  # [row x, row y, column x, column y]
        for a in range(nx):
            # mode="clip" writes straight into out (every index is in range)
            np.take(by_row_y, ix[a], axis=1, out=blocks[a], mode="clip")
            blocks[a] *= weights
        return out

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
        x, y = q[..., 0], q[..., 1]
        (lo_x, lo_y), (hi_x, hi_y) = self.lo - 1e-12, self.hi + 1e-12
        return (x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)

    def _sphere_endpoints(self, ps, r):
        """Points at metric distance r from ps along each lattice direction, (n_dir, m, 2)."""
        units = np.array(self._offsets, dtype=float)
        scale = r[None, :] / self._metric(units)[:, None]
        return ps[None, :, :] + units[:, None, :] * scale[:, :, None]

    def _window_nodes(self, ps, r_max):
        """Lattice nodes of the (2w+1)^2 window that holds every r_max-ball.

        Returns the window slots' node points, (m, (2w+1)^2, 2), clipped to
        the grid, and the mask of the slots that needed no clipping.
        """
        w = int(np.floor(r_max / self.dx + 1e-9)) + 1
        ix = np.round((ps[:, 0] - self.lo[0]) / self.dx).astype(int)
        iy = np.round((ps[:, 1] - self.lo[1]) / self.dx).astype(int)
        off = np.arange(-w, w + 1)
        jx = ix[:, None, None] + off[None, :, None]
        jy = iy[:, None, None] + off[None, None, :]
        inside = (jx >= 0) & (jx < self.shape[0]) & (jy >= 0) & (jy < self.shape[1])
        jx = np.clip(jx, 0, self.shape[0] - 1)
        jy = np.clip(jy, 0, self.shape[1] - 1)
        q = np.stack(np.broadcast_arrays(self.xs[jx], self.ys[jy]), axis=-1)
        return q.reshape(len(ps), -1, 2), inside.reshape(len(ps), -1)

    def reach_stencil(self, r_max):
        """Each node's in-ball window nodes and its sphere endpoints, slot-major.

        A node keeps the window slots in its r_max-ball that needed no
        clipping: a clipped slot repeats an unclipped one, with the same
        value and displacement. Short rows are padded with the node's own
        slot (displacement 0, always valid), so the node slots, their
        bilinear plan and their displacements are fixed (K, n_nodes) arrays;
        a row's bind only places the (n_dir, n_nodes) sphere endpoints and
        plans their interpolation in one batch. bind places each row of a
        block as it is drawn: a placed row's endpoint plan takes about 0.9 MB
        on a 1,681-node grid, so a whole block's would raise peak memory.
        """
        x = self.coords
        q, inside = self._window_nodes(x, r_max)
        keep = inside & (self._metric(q - x[:, None, :]) <= r_max + 1e-12)
        k = int(np.max(np.sum(keep, axis=1)))
        # kept slots first, in window order; the centre slot is the node's own
        slot = np.argsort(~keep, axis=1, kind="stable")[:, :k]
        slot = np.where(np.take_along_axis(keep, slot, axis=1), slot, q.shape[1] // 2)
        q = np.ascontiguousarray(np.take_along_axis(q, slot[:, :, None], axis=1).transpose(1, 0, 2))
        disp = self._metric(q - x[None, :, :])
        node_plan = self._bilinear_plan(q.reshape(-1, 2))

        def bind_row(r):
            node_out = disp > r + 1e-12
            ends = self._sphere_endpoints(x, r)
            end_out = ~self._in_box(ends)
            end_plan = self._bilinear_plan(ends.reshape(-1, 2))

            def ball_min(node_values):
                node_vals = self._bilinear(node_values, node_plan).reshape(disp.shape)
                node_vals[node_out] = BIG
                end_vals = self._bilinear(node_values, end_plan).reshape(end_out.shape)
                end_vals[end_out] = BIG
                return np.minimum(np.minimum.reduce(node_vals, axis=0),
                                  np.minimum.reduce(end_vals, axis=0))
            return ball_min
        return lambda rows: map(bind_row, np.asarray(rows, dtype=float))

    def reach_candidates(self, ps, r):
        ps = np.asarray(ps, dtype=float)
        r = np.broadcast_to(np.asarray(r, dtype=float), (ps.shape[0],))
        ends = self._sphere_endpoints(ps, r).transpose(1, 0, 2)
        nodes, _ = self._window_nodes(ps, np.max(r, initial=0.0))
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
        tc = self.coords[self._nonempty_targets()]
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

    def __init__(self, n_nodes, edges, targets, origin=0):
        self.n_nodes = int(n_nodes)
        if self.n_nodes < 1:
            raise DomainError("graph needs at least one node", "n_nodes")
        if 16 * self.n_nodes**2 > GRAPH_TABLE_BYTES:
            raise DomainError(f"{self.n_nodes} nodes need {16 * self.n_nodes**2} bytes of "
                              f"dense n x n tables, more than {GRAPH_TABLE_BYTES}", "n_nodes")
        rows, cols, vals = [], [], []
        seen = set()
        for u, v, length in edges:
            u, v, length = self._check_node(u, "edges"), self._check_node(v, "edges"), float(length)
            if not 0 < length < np.inf:
                raise DomainError(f"edge ({u},{v}) needs a finite positive length, got {length}",
                                  "edges")
            if u == v:
                raise DomainError(f"self-loop at node {u}", "edges")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DomainError(f"duplicate edge {key}", "edges")
            seen.add(key)
            rows += [u, v]
            cols += [v, u]
            vals += [length, length]
        self.adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(self.n_nodes, self.n_nodes))
        # edge length by (u, v) in both orders, 0 where there is no edge
        self._edge_table = self.adjacency.toarray()
        self.dx = float(self.adjacency.data.min()) if self.adjacency.nnz else 1.0
        self._dm = dijkstra(self.adjacency)
        self.targets = np.array(sorted(set(self._resolve_nodes(targets, "targets"))), dtype=int)
        self.origin = self._resolve_nodes([origin], "origin")[0]

    def node_at(self, node_id):
        return self._check_node(node_id)

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
        targets = self._nonempty_targets()
        u, v, s, length = self._split(ps)
        d = self._node_dist(u[:, None], v[:, None], s[:, None], length[:, None], targets)
        j = np.argmin(d, axis=1)
        hit = d[np.arange(len(ps)), j] <= self.dx / 2 + 1e-12
        out = np.where(hit, self.targets[j], -1)
        ps[hit] = self.points_of_nodes(out[hit])
        return ps, out

    def validate_points(self, ps):
        ps = np.atleast_2d(np.asarray(ps, dtype=float))
        for p in ps:
            u, v, s = self._check_node(p[0]), self._check_node(p[1]), float(p[2])
            length = self._edge_table[u, v]  # 0 where (u, v) is no edge
            if u != v and not (length > 0 and 0 <= s <= length + 1e-9):
                raise DomainError(f"offset {s} outside edge ({u},{v})")


class ExitCost:
    """Exit cost g on the target set with its tightest Lipschitz constant."""

    def __init__(self, domain, values):
        self.domain = domain
        self.values = {domain._check_node(k): float(v) for k, v in values.items()}
        tgt, keys = set(domain.targets.tolist()), set(self.values)
        for what, nodes in (("missing target", tgt - keys), ("on non-target", keys - tgt)):
            if nodes:
                raise DomainError(f"exit cost {what} nodes {sorted(nodes)}")
        for k, v in self.values.items():
            if not np.isfinite(v) or v < 0:
                raise DomainError(f"exit cost at node {k} must be finite and >= 0")
        # the tightest constant over target pairs a < b; pairs in different
        # components bound nothing
        pts = domain.points_of_nodes(domain.targets)
        d = domain.point_distance_matrix(pts, pts)
        g = self.node_table()[domain.targets]
        pair = np.triu(np.isfinite(d) & (d > 0), 1)
        gap = np.abs(g[:, None] - g)[pair]
        self.lipschitz_constant = float(np.max(gap / d[pair], initial=0.0))

    @classmethod
    def zero(cls, domain):
        return cls(domain, {int(t): 0.0 for t in domain.targets})

    @classmethod
    def constant(cls, domain, value):
        return cls(domain, {int(t): float(value) for t in domain.targets})

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


def validate_hypotheses(domain, cost):
    """Check the structural hypotheses (H1)-(H4) on a domain and exit cost.

    Returns one {"name", "passed", "detail"} check per hypothesis: failures
    are entries, never raises. (H3) holds by construction: ExitCost derives
    the tightest L_g.
    """
    lengths = domain.adjacency.data if domain.kind == "graph" else domain.dx
    compact = bool(domain.n_nodes > 0 and np.all((lengths > 0) & (lengths < np.inf)))
    targets_ok = bool(len(domain.targets) > 0 and np.all(
        (domain.targets >= 0) & (domain.targets < domain.n_nodes)))
    # the metric is the graph's shortest-path metric, so every pair of nodes a
    # finite distance apart is joined by a path of exactly that length (D = 1)
    connected = domain.kind != "graph" or bool(np.all(np.isfinite(domain._dm)))
    return [
        {"name": "H1", "passed": compact,
         "detail": "finite node set with finite positive edge lengths: closed balls are compact"},
        {"name": "H2", "passed": targets_ok,
         "detail": ("target set nonempty and contained in the node set" if targets_ok
                    else "target set empty or has unknown nodes")},
        {"name": "H3", "passed": True,
         "detail": f"L_g = {cost.lipschitz_constant:.6g}, the tightest constant over target "
                   "pairs: holds by construction"},
        {"name": "H4", "passed": connected,
         "detail": ("graph is disconnected" if not connected else "shortest-path metric: "
                    "geodesics realize distances (D = 1)")},
    ]
