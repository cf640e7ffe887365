"""The graph backend's point methods as array formulas over its edge tables.

The references below are copies of the per-point loops these methods
replaced (a node-distance helper, a pair-distance helper, per-point interp
and target snapping, and the per-point reach candidate list). Each test
asserts results bit-equal to them (int64 views) on random graphs, edge
midpoints, points on the targets, and batches of several shapes.
"""
import tracemalloc

import numpy as np
import pytest

from exitlab.domain import ExitCost, GraphDomain
from exitlab.ocp import SpeedField, solve_value, synthesize_batch


# ---- kept copies of the per-point code ------------------------------------

def edge_len_reference(dom, u, v):
    if u == v:
        return 0.0
    return dom._edge_table[u, v]


def point_node_dist_reference(dom, p, nodes):
    u, v, s = int(p[0]), int(p[1]), float(p[2])
    if u == v:
        return dom._dm[u, nodes]
    rem = edge_len_reference(dom, u, v) - s
    return np.minimum(s + dom._dm[u, nodes], rem + dom._dm[v, nodes])


def pair_dist_reference(dom, p, q):
    pu, pv, psg = int(p[0]), int(p[1]), float(p[2])
    qu, qv, qsg = int(q[0]), int(q[1]), float(q[2])
    nodes = np.array([qu, qv])
    offs = np.array([qsg, edge_len_reference(dom, qu, qv) - qsg if qu != qv else 0.0])
    best = np.min(point_node_dist_reference(dom, p, nodes) + offs)
    if pu != pv and {pu, pv} == {qu, qv}:
        s2 = qsg if (pu, pv) == (qu, qv) else edge_len_reference(dom, qu, qv) - qsg
        best = min(best, abs(psg - s2))
    return float(best)


def point_distance_reference(dom, p, q):
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    out = np.array([pair_dist_reference(dom, a, b)
                    for a, b in zip(p.reshape(-1, 3), q.reshape(-1, 3))])
    return out.reshape(p.shape[:-1])


def interp_reference(dom, node_values, ps):
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    out = np.empty(len(ps))
    for k, p in enumerate(ps):
        u, v, s = int(p[0]), int(p[1]), float(p[2])
        if u == v:
            out[k] = node_values[u]
        else:
            t = s / edge_len_reference(dom, u, v)
            out[k] = (1 - t) * node_values[u] + t * node_values[v]
    return out


def snap_to_target_reference(dom, ps):
    ps = np.atleast_2d(np.asarray(ps, dtype=float)).copy()
    out = np.full(len(ps), -1, dtype=int)
    for k, p in enumerate(ps):
        d = point_node_dist_reference(dom, p, dom.targets)
        j = int(np.argmin(d))
        if d[j] <= dom.dx / 2 + 1e-12:
            t = dom.targets[j]
            ps[k] = (float(t), float(t), 0.0)
            out[k] = t
    return ps, out


def point_candidates_reference(dom, p, r):
    """Null step, reachable nodes, and ball-sphere points on frontier edges."""
    u, v, s = int(p[0]), int(p[1]), float(p[2])
    cands = [(tuple(p), 0.0)]
    if u != v:
        length = edge_len_reference(dom, u, v)
        if r < s - 1e-15:
            cands.append(((float(u), float(v), s - r), r))
        if r < length - s - 1e-15:
            cands.append(((float(u), float(v), s + r), r))
    all_nodes = np.arange(dom.n_nodes)
    dists = point_node_dist_reference(dom, p, all_nodes)
    inside = [(int(y), float(dists[y])) for y in all_nodes if dists[y] <= r + 1e-12]
    inside.sort()
    indptr, indices = dom.adjacency.indptr, dom.adjacency.indices
    for y, dy in inside:
        cands.append(((float(y), float(y), 0.0), dy))
        for z in indices[indptr[y]:indptr[y + 1]].tolist():
            rem = r - dy
            ell = edge_len_reference(dom, y, z)
            if 1e-15 < rem < ell - 1e-15 and dists[z] > r + 1e-12:
                a, b = (y, z) if y < z else (z, y)
                off = rem if a == y else ell - rem
                cands.append(((float(a), float(b), off), r))
    return cands


def reach_candidates_reference(dom, ps, r):
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    r = np.broadcast_to(np.asarray(r, dtype=float), (len(ps),))
    rows = [point_candidates_reference(dom, p, ri) for p, ri in zip(ps, r)]
    S = max(len(row) for row in rows)
    cand = np.zeros((len(ps), S, 3))
    disp = np.full((len(ps), S), np.inf)
    valid = np.zeros((len(ps), S), dtype=bool)
    for k, row in enumerate(rows):
        for s, (pt, d) in enumerate(row):
            cand[k, s] = pt
            disp[k, s] = d
            valid[k, s] = True
    return cand, disp, valid


# ---- random graphs and points ---------------------------------------------

def random_graph(seed, n, chords, n_targets=3):
    """A connected graph: a random tree plus random chords, lengths in [0.2, 1]."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    while len(pairs) < n - 1 + chords:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((u, v))
    edges = [(u, v, float(rng.uniform(0.2, 1.0))) for u, v in sorted(pairs)]
    targets = rng.choice(n, size=n_targets, replace=False).tolist()
    return GraphDomain(n, edges, targets=targets, origin=int(rng.integers(0, n)))


def random_points(dom, rng, shape):
    """Nodes, edge midpoints, random edge offsets (both orientations), targets."""
    edges = list(zip(*np.nonzero(np.triu(dom._edge_table))))  # (u, v), u < v, ascending
    pick = rng.integers(0, len(edges), shape)
    u = np.array([edges[k][0] for k in pick.ravel()], dtype=float).reshape(shape)
    v = np.array([edges[k][1] for k in pick.ravel()], dtype=float).reshape(shape)
    length = np.array([dom._edge_table[edges[k]] for k in pick.ravel()]).reshape(shape)
    frac = rng.uniform(0.0, 1.0, shape)
    frac[rng.random(shape) < 0.15] = 0.5
    pts = np.stack([u, v, frac * length], axis=-1)
    flip = rng.random(shape) < 0.2
    pts[flip] = np.stack([v[flip], u[flip], (1 - frac[flip]) * length[flip]], axis=-1)
    at_node = rng.random(shape) < 0.2
    pts[at_node] = np.stack([u[at_node], u[at_node], np.zeros(at_node.sum())], axis=-1)
    on_target = rng.random(shape) < 0.1
    t = rng.choice(dom.targets, shape).astype(float)
    pts[on_target] = np.stack([t[on_target], t[on_target], np.zeros(on_target.sum())], axis=-1)
    return pts


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


GRAPHS = [(0, 12, 6), (1, 30, 10), (2, 60, 30)]


@pytest.mark.parametrize("seed, n, chords", GRAPHS)
def test_point_distance_matches_pair_loop(seed, n, chords):
    dom = random_graph(seed, n, chords)
    rng = np.random.default_rng(seed)
    for shape in [(1,), (7,), (4, 5)]:
        p, q = random_points(dom, rng, shape), random_points(dom, rng, shape)
        got = dom.point_distance(p, q)
        assert got.shape == shape
        assert np.array_equal(bits(got), bits(point_distance_reference(dom, p, q)))
    # one point against a batch, a point against itself, and a full matrix
    p = random_points(dom, rng, (9,))
    assert np.array_equal(bits(dom.point_distance(p, p[3])),
                          bits(point_distance_reference(dom, p, p[3])))
    assert np.array_equal(bits(dom.point_distance(p, p)), np.zeros(9, dtype=np.int64))
    assert np.array_equal(bits(dom.point_distance_matrix(p, p[:4])),
                          bits(point_distance_reference(dom, p[:, None], p[None, :4])))
    assert dom.point_distance(p[0], p[1]).shape == ()


@pytest.mark.parametrize("seed, n, chords", GRAPHS)
def test_origin_and_target_distances_match_node_loop(seed, n, chords):
    dom = random_graph(seed, n, chords)
    rng = np.random.default_rng(seed + 10)
    p = random_points(dom, rng, (6, 4))
    want = np.array([[point_node_dist_reference(dom, a, np.array([dom.origin]))[0] for a in row]
                     for row in p])
    assert np.array_equal(bits(dom.point_origin_distance(p)), bits(want))
    flat = p.reshape(-1, 3)
    want = np.array([np.min(point_node_dist_reference(dom, a, dom.targets)) for a in flat])
    assert np.array_equal(bits(dom.point_target_distance(flat)), bits(want))
    assert "point_origin_distance" not in vars(GraphDomain)
    assert "point_target_distance" not in vars(GraphDomain)


@pytest.mark.parametrize("seed, n, chords", GRAPHS)
def test_interp_and_snap_match_point_loops(seed, n, chords):
    dom = random_graph(seed, n, chords)
    rng = np.random.default_rng(seed + 20)
    f = rng.uniform(-2.0, 3.0, dom.n_nodes)
    f[rng.integers(0, dom.n_nodes)] = -0.0
    p = random_points(dom, rng, (40,))
    assert np.array_equal(bits(dom.interp(f, p)), bits(interp_reference(dom, f, p)))
    got_pts, got_idx = dom.snap_to_target(p)
    want_pts, want_idx = snap_to_target_reference(dom, p)
    assert np.array_equal(bits(got_pts), bits(want_pts))
    assert np.array_equal(got_idx, want_idx)
    assert np.any(got_idx >= 0) and np.any(got_idx < 0)


def test_points_of_nodes_takes_any_shape():
    dom = random_graph(3, 10, 4)
    idx = np.arange(6).reshape(2, 3)
    pts = dom.points_of_nodes(idx)
    assert pts.shape == (2, 3, 3)
    assert np.array_equal(pts[1, 2], [5.0, 5.0, 0.0])
    assert dom.points_of_nodes(4).tolist() == [4.0, 4.0, 0.0]


@pytest.mark.parametrize("seed, n, chords", GRAPHS)
def test_reach_candidates_match_point_loop(seed, n, chords):
    dom = random_graph(seed, n, chords)
    rng = np.random.default_rng(seed + 30)
    p = np.concatenate([dom.node_points(), random_points(dom, rng, (50,))])
    # budgets from below one edge to several hops, one per row and scalar
    for r in [rng.uniform(0.05, 2.5, len(p)), 0.6, dom.dx / 2]:
        got = dom.reach_candidates(p, r)
        want = reach_candidates_reference(dom, p, r)
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(bits(got[1]), bits(want[1]))
        assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("seed, n, chords", GRAPHS)
def test_value_solve_and_synthesis_match_the_point_loops(seed, n, chords, monkeypatch):
    dom = random_graph(seed, n, chords)
    rng = np.random.default_rng(seed + 40)
    cost = ExitCost(dom, {int(t): 0.05 * k for k, t in enumerate(dom.targets)})
    dt = dom.dx
    n_steps = 80
    speed = SpeedField(dom, dt, rng.uniform(0.5, 1.0, (n_steps + 1, dom.n_nodes)), (0.5, 1.0))
    starts = np.concatenate([dom.node_points(), random_points(dom, rng, (20,))])
    phi = solve_value(dom, cost, speed)
    got = synthesize_batch(phi, starts, raise_on_stall=False)

    monkeypatch.setattr(GraphDomain, "reach_candidates", reach_candidates_reference)
    monkeypatch.setattr(GraphDomain, "interp", interp_reference)
    monkeypatch.setattr(GraphDomain, "snap_to_target", snap_to_target_reference)
    phi_ref = solve_value(dom, cost, speed)
    assert np.array_equal(bits(phi.values), bits(phi_ref.values))
    want = synthesize_batch(phi_ref, starts, raise_on_stall=False)
    assert np.array_equal(bits(got[0]), bits(want[0]))  # move for move
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    assert np.any(got[0][..., 0] != got[0][..., 1])  # some moves stop on an edge


def test_reach_candidates_memory_stays_near_the_distance_matrix():
    dom = random_graph(5, 300, 60)
    pts = dom.node_points()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cand, _, valid = dom.reach_candidates(pts, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert valid.sum(axis=1).max() > 10  # balls of several nodes and edges
    assert peak <= 4 * dom._dm.nbytes
