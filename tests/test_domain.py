"""Metric backends: distances, geodesics, target queries, hypothesis checks."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from exitlab.domain import (DomainError, ExitCost, GraphDomain, Grid2dDomain,
                            IntervalDomain, validate_hypotheses)


def grid2d_dijkstra_oracle(dom):
    """Brute-force shortest-path matrix of the lattice graph."""
    nx, ny = dom.shape
    rows, cols, vals = [], [], []
    for ix in range(nx):
        for iy in range(ny):
            for ox, oy in dom._offsets:
                jx, jy = ix + ox, iy + oy
                if 0 <= jx < nx and 0 <= jy < ny:
                    rows.append(ix * ny + iy)
                    cols.append(jx * ny + jy)
                    vals.append(dom.dx * float(np.hypot(ox, oy)))
    g = sp.csr_matrix((vals, (rows, cols)), shape=(dom.n_nodes, dom.n_nodes))
    return dijkstra(g)


def test_interval_distance_examples():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    assert dom.distance(dom.node_at(0.20), dom.node_at(0.70)) == pytest.approx(0.5, abs=1e-12)
    assert dom.distance(dom.node_at(0.3), dom.node_at(0.3)) == 0.0


def test_interval_unknown_node_raises():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0])
    with pytest.raises(DomainError):
        dom.distance(0, 5000)
    with pytest.raises(DomainError):
        dom.node_at(1.7)


def test_grid2d_distance_against_dijkstra_oracle():
    dom = Grid2dDomain([0.0, 0.0], [0.5, 0.5], 0.1, targets=[[0.0, 0.0]], connectivity=8)
    dm = grid2d_dijkstra_oracle(dom)
    a = dom.node_at([0.0, 0.0])
    b = dom.node_at([0.3, 0.4])
    assert dom.distance(a, b) == pytest.approx(dm[a, b], abs=1e-12)
    for i in range(dom.n_nodes):
        for j in range(dom.n_nodes):
            assert dom.distance(i, j) == pytest.approx(dm[i, j], abs=1e-12)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_grid2d_geodesic_matches_distance(connectivity):
    dom = Grid2dDomain([0.0, 0.0], [0.4, 0.4], 0.1, targets=[[0.0, 0.0]],
                       connectivity=connectivity)
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j = rng.integers(0, dom.n_nodes, 2)
        path, length = dom.geodesic(i, j)
        assert path[0] == i and path[-1] == j
        assert length == pytest.approx(dom.distance(i, j), abs=1e-9)


def test_interval_geodesic():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0])
    path, length = dom.geodesic(dom.node_at(0.5), dom.node_at(0.0))
    assert length == pytest.approx(0.5, abs=1e-12)
    assert len(path) == 51
    path, length = dom.geodesic(7, 7)
    assert path == [7] and length == 0.0


def test_graph_disconnected_geodesic_raises():
    dom = GraphDomain(4, [(0, 1, 1.0), (2, 3, 1.0)], targets=[0], origin=0)
    with pytest.raises(DomainError):
        dom.geodesic(0, 3)
    report = validate_hypotheses(dom)
    h4 = [c for c in report.checks if c.name == "H4"][0]
    assert not h4.passed


def test_target_node_distances_examples():
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0])
    tdist = dom.target_node_distances()
    assert tdist[dom.node_at(0.5)] == pytest.approx(0.5, abs=1e-12)
    assert tdist[dom.node_at(0.0)] == 0.0
    left = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0])
    assert left.target_node_distances()[left.node_at(0.3)] == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_metric_axioms_interval(seed):
    dom = IntervalDomain(0.0, 2.0, 0.05, targets=[0.0])
    rng = np.random.default_rng(seed)
    for _ in range(60):
        i, j, k = rng.integers(0, dom.n_nodes, 3)
        assert dom.distance(i, j) == pytest.approx(dom.distance(j, i), abs=1e-12)
        assert dom.distance(i, j) >= 0
        assert (dom.distance(i, j) == 0) == (i == j)
        assert dom.distance(i, k) <= dom.distance(i, j) + dom.distance(j, k) + 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_metric_axioms_grid2d_and_graph(seed):
    rng = np.random.default_rng(seed)
    grid = Grid2dDomain([0.0, 0.0], [0.3, 0.3], 0.1, targets=[[0.0, 0.0]])
    graph = GraphDomain(6, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0), (3, 4, 0.4),
                            (4, 5, 0.3), (5, 0, 0.8), (1, 4, 0.9)],
                        targets=[3], origin=0)
    for dom in (grid, graph):
        for _ in range(50):
            i, j, k = rng.integers(0, dom.n_nodes, 3)
            assert dom.distance(i, j) == pytest.approx(dom.distance(j, i), abs=1e-12)
            assert (dom.distance(i, j) == 0) == (i == j)
            assert dom.distance(i, k) <= dom.distance(i, j) + dom.distance(j, k) + 1e-12


def test_geodesic_within_constant_bound():
    graph = GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 1.0),
                            (0, 4, 4.0)], targets=[4], origin=0)
    rng = np.random.default_rng(1)
    for _ in range(40):
        i, j = rng.integers(0, 5, 2)
        if i == j:
            continue
        _, length = graph.geodesic(i, j)
        assert length <= graph.geodesic_constant * graph.distance(i, j) + 1e-12


def test_validate_hypotheses_remark_domain():
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0])
    cost = ExitCost.zero(dom)
    report = validate_hypotheses(dom, cost)
    assert report.passed
    assert cost.lipschitz_constant == 0.0


def test_validate_hypotheses_empty_target_fails_h2():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[])
    report = validate_hypotheses(dom)
    h2 = [c for c in report.checks if c.name == "H2"][0]
    assert not h2.passed


def test_exit_cost_lipschitz_violation_witness():
    dom = IntervalDomain(0.0, 1.0, 0.1, targets=[0.0, 0.1])
    cost = ExitCost(dom, {dom.node_at(0.0): 0.0, dom.node_at(0.1): 0.5},
                    lipschitz_constant=0.1)
    worst = cost.lipschitz_violation()
    assert worst is not None
    report = validate_hypotheses(dom, cost)
    h3 = [c for c in report.checks if c.name == "H3"][0]
    assert not h3.passed and "witness" in h3.detail


def test_exit_cost_requires_all_targets_and_nonnegative():
    dom = IntervalDomain(0.0, 1.0, 0.5, targets=[0.0, 1.0])
    with pytest.raises(DomainError):
        ExitCost(dom, {dom.node_at(0.0): 0.0})
    with pytest.raises(DomainError):
        ExitCost(dom, {dom.node_at(0.0): -1.0, dom.node_at(1.0): 0.0})


def test_exit_cost_rejects_entries_off_the_target_set():
    dom = IntervalDomain(0.0, 1.0, 0.5, targets=[0.0, 1.0])
    # an entry off the target set would raise max_cost and loosen the value bound
    with pytest.raises(DomainError, match=r"non-target nodes \[1\]"):
        ExitCost(dom, {0: 0.0, 1: 5.0, 2: 0.0})


def tightest_lipschitz_reference(cost):
    """The per-pair loop the array formula replaced."""
    tgt = cost.domain.targets
    best = 0.0
    for a in range(len(tgt)):
        for b in range(a + 1, len(tgt)):
            d = cost.domain.distance(tgt[a], tgt[b])
            if d > 0:
                best = max(best, abs(cost.values[int(tgt[a])] - cost.values[int(tgt[b])]) / d)
    return best


def lipschitz_violation_reference(cost):
    tgt = cost.domain.targets
    worst = None
    for a in range(len(tgt)):
        for b in range(a + 1, len(tgt)):
            d = cost.domain.distance(tgt[a], tgt[b])
            gap = abs(cost.values[int(tgt[a])] - cost.values[int(tgt[b])])
            excess = gap - cost.lipschitz_constant * d - 1e-12
            if excess > 0 and (worst is None or excess > worst[2]):
                worst = (int(tgt[a]), int(tgt[b]), excess)
    return worst


def lipschitz_domains():
    interval = IntervalDomain(0.0, 1.0, 0.05, targets=[0.0, 0.25, 0.5, 0.75, 1.0])
    grid = Grid2dDomain([0.0, 0.0], [0.6, 0.4], 0.1,
                        targets=[[0.6, 0.0], [0.6, 0.1], [0.6, 0.2], [0.0, 0.4], [0.3, 0.4]])
    rng = np.random.default_rng(4)
    edges = [(k, k + 1, float(rng.uniform(0.2, 1.0))) for k in range(11)] + [(0, 6, 0.9), (3, 9, 0.4)]
    graph = GraphDomain(12, edges, targets=[0, 2, 5, 7, 11])
    return [interval, grid, graph]


@pytest.mark.parametrize("dom", lipschitz_domains(), ids=["interval", "grid2d", "graph"])
def test_exit_cost_lipschitz_pairs_match_the_pair_loops(dom):
    rng = np.random.default_rng(6)
    for _ in range(20):
        values = {int(t): float(rng.uniform(0.0, 1.0)) for t in dom.targets}
        cost = ExitCost(dom, values)
        assert cost.lipschitz_constant == tightest_lipschitz_reference(cost)
        assert cost.lipschitz_violation() is None
        for lip in (0.0, 0.5 * cost.lipschitz_constant):
            loose = ExitCost(dom, values, lip)
            assert loose.lipschitz_violation() == lipschitz_violation_reference(loose)
    # tied excesses: every pair with one end at the first target has the same gap
    t = dom.targets
    tied = ExitCost(dom, {int(k): (1.0 if k == t[0] else 0.0) for k in t}, 0.0)
    want = lipschitz_violation_reference(tied)
    assert tied.lipschitz_violation() == want == (int(t[0]), int(t[1]), want[2])


def test_exit_cost_with_a_single_target():
    dom = IntervalDomain(0.0, 1.0, 0.1, targets=[1.0])
    cost = ExitCost(dom, {dom.node_at(1.0): 0.7})
    assert cost.lipschitz_constant == 0.0 == tightest_lipschitz_reference(cost)
    assert cost.lipschitz_violation() is None is lipschitz_violation_reference(cost)
    graph = GraphDomain(3, [(0, 1, 1.0), (1, 2, 0.5)], targets=[2])
    assert ExitCost(graph, {2: 0.4}).lipschitz_violation() is None


def test_exit_cost_pairs_in_different_components_bound_nothing():
    dom = GraphDomain(4, [(0, 1, 1.0), (2, 3, 1.0)], targets=[0, 1, 3])
    cost = ExitCost(dom, {0: 0.0, 1: 0.5, 3: 2.0})
    assert cost.lipschitz_constant == 0.5 == tightest_lipschitz_reference(cost)
    zero = ExitCost(dom, {0: 0.0, 1: 0.0, 3: 2.0}, 0.0)
    assert zero.lipschitz_violation() is None is lipschitz_violation_reference(zero)


def test_target_snapping_within_half_cell():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    pts = np.array([0.004, 0.006, 0.997, 0.5])
    snapped, hit = dom.snap_to_target(pts)
    assert hit[0] == dom.node_at(0.0) and snapped[0] == 0.0
    assert hit[1] == -1
    assert hit[2] == dom.node_at(1.0) and snapped[2] == 1.0
    assert hit[3] == -1


def test_reach_candidates_respect_domain_bounds():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0])
    pts = np.array([0.0, 0.005, 0.995])
    cand, disp, valid = dom.reach_candidates(pts, np.full(3, 0.01))
    assert np.all(cand[valid] >= -1e-12)
    assert np.all(cand[valid] <= 1 + 1e-12)
    assert np.all(disp[valid] <= 0.01 + 1e-12)


def looped_interval_candidates(dom, ps, r):
    """IntervalDomain.reach_candidates as it was built, slot by slot."""
    ps = np.asarray(ps, dtype=float)
    r = np.broadcast_to(np.asarray(r, dtype=float), ps.shape)
    m = ps.shape[0]
    n_ball = int(np.floor(np.max(r, initial=0.0) / dom.dx + 1e-9)) * 2 + 2
    cand = np.empty((m, 3 + n_ball))
    valid = np.zeros((m, 3 + n_ball), dtype=bool)
    cand[:, 0] = ps
    valid[:, 0] = True
    for s, sgn in ((1, -1.0), (2, 1.0)):
        q = ps + sgn * r
        cand[:, s] = np.clip(q, dom.lo, dom.hi)
        valid[:, s] = (q >= dom.lo - 1e-12) & (q <= dom.hi + 1e-12)
    i_lo, i_hi = dom._ball_bounds(ps, r)
    for s in range(n_ball):
        idx = i_lo + s
        cand[:, 3 + s] = dom.coords[np.clip(idx, 0, dom.n_nodes - 1)]
        valid[:, 3 + s] = (idx <= i_hi) & (idx >= 0) & (idx < dom.n_nodes)
    disp = np.abs(cand - ps[:, None])
    disp[~valid] = np.inf
    return cand, disp, valid


@pytest.mark.parametrize("r_scale", [0.0, 1.0, 2.7])
def test_interval_reach_candidates_match_slot_loop(r_scale):
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[1.0])
    rng = np.random.default_rng(5)
    ps = np.concatenate([rng.uniform(0.0, 1.0, 300), dom.coords[[0, 1, 50, -2, -1]]])
    r = r_scale * dom.dx * rng.uniform(0.2, 1.0, len(ps))
    for got, want in zip(dom.reach_candidates(ps, r), looped_interval_candidates(dom, ps, r)):
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
