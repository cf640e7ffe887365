"""Metric backends: the point metric at the nodes, target queries, hypothesis checks."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from exitlab.domain import (DomainError, ExitCost, GraphDomain, Grid2dDomain,
                            IntervalDomain, validate_hypotheses)


def node_distance_reference(dom, i, j):
    """Distance between two nodes, as each backend defined it per pair."""
    if dom.kind == "interval":
        return abs(dom.coords[i] - dom.coords[j])
    if dom.kind == "grid2d":
        return float(dom._metric(dom.coords[i] - dom.coords[j]))
    return float(dom._dm[i, j])


def node_metric(dom):
    """The point metric between every pair of node points."""
    pts = dom.node_points()
    return dom.point_distance_matrix(pts, pts)


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


def interval_dijkstra_oracle(dom):
    """Shortest-path matrix of the path graph through the interval's nodes."""
    k = np.arange(dom.n_nodes - 1)
    g = sp.csr_matrix((np.full(len(k), dom.dx), (k, k + 1)), shape=(dom.n_nodes, dom.n_nodes))
    return dijkstra(g, directed=False)


def graph_dijkstra_oracle(dom, edges):
    """Shortest-path matrix over an edge list, built apart from the domain."""
    u, v, length = zip(*edges)
    g = sp.csr_matrix((length, (u, v)), shape=(dom.n_nodes, dom.n_nodes))
    return dijkstra(g, directed=False)


# a long chord (0, 4) that the path 0-1-2-3-4 undercuts
CHORD_EDGES = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 1.0), (0, 4, 4.0)]

ORACLE_DOMAINS = {
    "interval": lambda: (IntervalDomain(0.0, 1.0, 0.04, targets=[0.0]), interval_dijkstra_oracle),
    "grid2d_4": lambda: (Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1, targets=[[0.0, 0.0]],
                                      connectivity=4), grid2d_dijkstra_oracle),
    "grid2d_8": lambda: (Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1, targets=[[0.0, 0.0]],
                                      connectivity=8), grid2d_dijkstra_oracle),
    "graph_chord": lambda: (GraphDomain(5, CHORD_EDGES, targets=[4], origin=0),
                            lambda dom: graph_dijkstra_oracle(dom, CHORD_EDGES)),
}


def test_interval_distance_examples():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    p = dom.points_of_nodes([dom.node_at(0.20), dom.node_at(0.70), dom.node_at(0.3)])
    assert dom.point_distance(p[0], p[1]) == pytest.approx(0.5, abs=1e-12)
    assert dom.point_distance(p[2], p[2]) == 0.0


def test_interval_unknown_node_raises():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0])
    with pytest.raises(DomainError, match="unknown node index 5000"):
        ExitCost(dom, {5000: 0.0})
    with pytest.raises(DomainError):
        dom.node_at(1.7)
    for coord in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError, match="not a finite number"):
            dom.node_at(coord)


@pytest.mark.parametrize("coord", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["targets", "origin"])
def test_non_finite_target_and_origin_coordinates_raise_domain_error(key, coord):
    with pytest.raises(DomainError, match="not a finite") as err:
        IntervalDomain(0.0, 1.0, 0.1, **{"targets": [1.0], key: [coord]})
    assert err.value.key == key
    with pytest.raises(DomainError, match="not a finite") as err:
        Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1,
                     **{"targets": [[0.5, 0.2]], key: [[0.1, coord]]})
    assert err.value.key == key


@pytest.mark.parametrize("name", ORACLE_DOMAINS)
def test_node_metric_is_the_shortest_path_metric(name):
    """The closed-form point metric at the nodes is the graph's geodesic metric: every
    distance is the length of a shortest edge path, so D = 1."""
    dom, oracle = ORACLE_DOMAINS[name]()
    got, want = node_metric(dom), oracle(dom)
    assert got.shape == want.shape == (dom.n_nodes, dom.n_nodes)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    for i in range(dom.n_nodes):
        for j in range(dom.n_nodes):
            assert got[i, j] == node_distance_reference(dom, i, j)
    if name == "graph_chord":
        assert got[0, 4] == 3.0 < dom._edge_table[0, 4]


def test_graph_disconnected_fails_h4():
    dom = GraphDomain(4, [(0, 1, 1.0), (2, 3, 1.0)], targets=[0], origin=0)
    assert np.isinf(node_metric(dom)[0, 3])
    checks = validate_hypotheses(dom, ExitCost.zero(dom))
    h4 = [c for c in checks if c["name"] == "H4"][0]
    assert not h4["passed"] and h4["detail"] == "graph is disconnected"
    assert [c["name"] for c in checks if not c["passed"]] == ["H4"]


@pytest.mark.parametrize("name", [*ORACLE_DOMAINS, "graph_one_node"])
def test_h1_and_h4_pass_on_shortest_path_metrics(name):
    if name == "graph_one_node":
        dom = GraphDomain(1, [], targets=[0])
        assert dom.dx == 1.0
    else:
        dom, _ = ORACLE_DOMAINS[name]()
    checks = validate_hypotheses(dom, ExitCost.zero(dom))
    assert all(c["passed"] for c in checks)
    assert [c["name"] for c in checks] == ["H1", "H2", "H3", "H4"]


@pytest.mark.parametrize("length", [0.0, -1.0, float("inf"), float("nan")])
def test_graph_rejects_edge_lengths_that_are_not_finite_and_positive(length):
    with pytest.raises(DomainError, match="finite positive length") as err:
        GraphDomain(3, [(0, 1, 1.0), (1, 2, length)], targets=[2])
    assert err.value.key == "edges"


def test_graph_edge_list_sets_dx_and_rejects_duplicates():
    dom = GraphDomain(5, CHORD_EDGES, targets=[4])
    assert dom.dx == 0.5 and type(dom.dx) is float
    with pytest.raises(DomainError, match="duplicate edge") as err:
        GraphDomain(3, [(0, 1, 1.0), (1, 0, 2.0)], targets=[2])
    assert err.value.key == "edges"


def test_target_node_distances_examples():
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0])
    tdist = dom.target_node_distances()
    assert tdist[dom.node_at(0.5)] == pytest.approx(0.5, abs=1e-12)
    assert tdist[dom.node_at(0.0)] == 0.0
    left = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0])
    assert left.target_node_distances()[left.node_at(0.3)] == pytest.approx(0.3, abs=1e-12)


# (target, origin) node tables as each backend computed them before the base
# class derived them from the point formulas
def interval_node_tables_reference(dom):
    tc = dom.coords[dom.targets]
    return (np.min(np.abs(dom.coords[:, None] - tc[None, :]), axis=1),
            np.abs(dom.coords - dom.coords[dom.origin]))


def grid2d_node_tables_reference(dom):
    d = dom.coords[:, None, :] - dom.coords[dom.targets][None, :, :]
    return np.min(dom._metric(d), axis=1), dom._metric(dom.coords - dom.coords[dom.origin])


def graph_node_tables_reference(dom):
    return np.min(dom._dm[:, dom.targets], axis=1), dom._dm[:, dom.origin].copy()


def graph_with_an_unreachable_component(n=60, cut=19, seed=7):
    """Random tree on the first n - cut nodes plus a chain on the rest, with no edge between."""
    rng = np.random.default_rng(seed)
    main = n - cut
    edges = [(k, int(rng.integers(0, k)), float(rng.uniform(0.1, 1.0))) for k in range(1, main)]
    edges += [(k, k + 1, float(rng.uniform(0.1, 1.0))) for k in range(main, n - 1)]
    return GraphDomain(n, edges, targets=[0, 5, 17], origin=3)


NODE_TABLE_DOMAINS = {
    "interval_one_target": (lambda: IntervalDomain(0.0, 1.3, 0.01, targets=[1.3], origin=0.37),
                            interval_node_tables_reference),
    "interval_three_targets": (lambda: IntervalDomain(-0.5, 1.0, 0.015, targets=[-0.5, 0.2, 0.71],
                                                      origin=0.455),
                               interval_node_tables_reference),
    "grid2d_4": (lambda: Grid2dDomain([0.0, -0.2], [0.7, 0.5], 0.05,
                                      targets=[[0.7, 0.15], [0.0, 0.5], [0.35, -0.2]],
                                      origin=[0.2, 0.1], connectivity=4),
                 grid2d_node_tables_reference),
    "grid2d_8": (lambda: Grid2dDomain([0.0, -0.2], [0.7, 0.5], 0.05,
                                      targets=[[0.7, 0.15], [0.0, 0.5], [0.35, -0.2]],
                                      origin=[0.2, 0.1], connectivity=8),
                 grid2d_node_tables_reference),
    "graph_unreachable": (graph_with_an_unreachable_component, graph_node_tables_reference),
}


@pytest.mark.parametrize("name", NODE_TABLE_DOMAINS)
def test_node_tables_are_the_point_formulas_at_the_nodes(name):
    make, reference = NODE_TABLE_DOMAINS[name]
    dom = make()
    want_target, want_origin = reference(dom)
    for got, want in ((dom.target_node_distances(), want_target),
                      (dom.origin_node_distances(), want_origin)):
        assert got.shape == want.shape == (dom.n_nodes,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if name == "graph_unreachable":  # the cut-off chain is infinitely far from both
        assert np.count_nonzero(np.isinf(want_target)) == 19
        assert np.array_equal(np.isinf(want_origin), np.isinf(want_target))
    else:
        assert dom.origin != 0


def test_one_definition_of_the_node_tables_and_the_interval_stencil():
    for cls in (IntervalDomain, Grid2dDomain, GraphDomain):
        assert "target_node_distances" not in vars(cls)
        assert "origin_node_distances" not in vars(cls)
    assert "reach_stencil" not in vars(IntervalDomain)
    assert "reach_stencil" in vars(Grid2dDomain)  # precomputed bilinear node plans


@pytest.mark.parametrize("node", [2.7, 0.5, -1, 5, "3", "a", None, float("nan"),
                                  float("inf"), [1]])
def test_malformed_node_ids_are_rejected(node):
    dom = GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)], targets=[2])
    with pytest.raises(DomainError, match="unknown node index"):
        dom.node_at(node)
    with pytest.raises(DomainError, match="unknown node index") as err:
        GraphDomain(5, [(0, 1, 1.0), (node, 2, 0.5)], targets=[2])
    assert err.value.key == "edges"
    with pytest.raises(DomainError) as err:
        GraphDomain(5, [(0, 1, 1.0)], targets=[node])
    assert err.value.key == "targets"
    with pytest.raises(DomainError) as err:
        GraphDomain(5, [(0, 1, 1.0)], targets=[1], origin=node)
    assert err.value.key == "origin"


def test_integral_node_ids_are_accepted():
    dom = GraphDomain(5, [(0.0, 1, 1.0), (1, 2.0, 0.5), (np.int64(1), 3, 0.7), (3, 4, 0.4)],
                      targets=[2.0, np.float64(4)], origin=3.0)
    assert dom.targets.tolist() == [2, 4] and dom.origin == 3
    assert dom.node_at(np.float64(1.0)) == 1
    dom.validate_points(dom.points_of_nodes([0, 4]))
    with pytest.raises(DomainError, match="unknown node index 0.5"):
        dom.validate_points([[0.5, 1.0, 0.2]])


def assert_metric_axioms_on_triples(dom, rng, count):
    d = node_metric(dom)
    i, j, k = rng.integers(0, dom.n_nodes, (3, count))
    assert np.allclose(d, d.T, rtol=0.0, atol=1e-12)
    assert np.all(d >= 0)
    assert np.array_equal(d[i, j] == 0, i == j)
    assert np.all(d[i, k] <= d[i, j] + d[j, k] + 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_metric_axioms_interval(seed):
    dom = IntervalDomain(0.0, 2.0, 0.05, targets=[0.0])
    assert_metric_axioms_on_triples(dom, np.random.default_rng(seed), 60)


@pytest.mark.parametrize("seed", range(3))
def test_metric_axioms_grid2d_and_graph(seed):
    rng = np.random.default_rng(seed)
    grid = Grid2dDomain([0.0, 0.0], [0.3, 0.3], 0.1, targets=[[0.0, 0.0]])
    graph = GraphDomain(6, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0), (3, 4, 0.4),
                            (4, 5, 0.3), (5, 0, 0.8), (1, 4, 0.9)],
                        targets=[3], origin=0)
    for dom in (grid, graph):
        assert_metric_axioms_on_triples(dom, rng, 50)


def test_validate_hypotheses_remark_domain():
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0])
    cost = ExitCost.zero(dom)
    checks = validate_hypotheses(dom, cost)
    assert all(c["passed"] for c in checks)
    assert cost.lipschitz_constant == 0.0


def test_validate_hypotheses_empty_target_fails_h2():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[])
    checks = validate_hypotheses(dom, ExitCost.zero(dom))
    h2 = [c for c in checks if c["name"] == "H2"][0]
    assert not h2["passed"]


@pytest.mark.parametrize("make", [
    lambda: IntervalDomain(0.0, 1.0, 0.1, targets=[]),
    lambda: Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.25, targets=[]),
    lambda: GraphDomain(3, [[0, 1, 1.0], [1, 2, 0.5]], targets=[]),
], ids=["interval", "grid2d", "graph"])
def test_target_queries_on_an_empty_target_set_raise_domain_error(make):
    """The domain builds (so H2 can fail), but each query that needs a
    target names the target set instead of failing inside a reduction."""
    from exitlab.ocp import horizon_bound, solve_value
    from test_ocp import constant_speed

    dom = make()
    points = dom.node_points()[:2]
    field = constant_speed(dom, 1.0, dom.dx, 1.2)
    for query in (lambda: dom.snap_to_target(points),
                  lambda: dom.point_target_distance(points),
                  lambda: solve_value(dom, ExitCost.zero(dom), field),
                  lambda: horizon_bound(ExitCost.zero(dom), (1.0, 1.0), 0.5)):
        with pytest.raises(DomainError, match="no target node") as err:
            query()
        assert err.value.key == "targets"


def test_h3_holds_by_construction_with_the_tightest_constant():
    dom = IntervalDomain(0.0, 1.0, 0.1, targets=[0.0, 0.1])
    cost = ExitCost(dom, {dom.node_at(0.0): 0.0, dom.node_at(0.1): 0.5})
    assert cost.lipschitz_constant == pytest.approx(5.0, rel=1e-12)
    checks = validate_hypotheses(dom, cost)
    h3 = [c for c in checks if c["name"] == "H3"][0]
    assert h3["passed"] and "by construction" in h3["detail"]


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
    # a fractional node index is no node, not the node below it
    with pytest.raises(DomainError, match="unknown node index 2.5"):
        ExitCost(dom, {0: 0.0, 2.5: 0.0})


def tightest_lipschitz_reference(cost):
    """The per-pair loop the array formula replaced."""
    tgt = cost.domain.targets
    best = 0.0
    for a in range(len(tgt)):
        for b in range(a + 1, len(tgt)):
            d = node_distance_reference(cost.domain, tgt[a], tgt[b])
            if d > 0:
                best = max(best, abs(cost.values[int(tgt[a])] - cost.values[int(tgt[b])]) / d)
    return best


def worst_lipschitz_excess(cost):
    """max over target pairs of |g(a) - g(b)| - L_g d(a, b), or -inf without pairs."""
    tgt = cost.domain.targets
    worst = -np.inf
    for a in range(len(tgt)):
        for b in range(a + 1, len(tgt)):
            d = node_distance_reference(cost.domain, tgt[a], tgt[b])
            if np.isfinite(d):
                gap = abs(cost.values[int(tgt[a])] - cost.values[int(tgt[b])])
                worst = max(worst, gap - cost.lipschitz_constant * d)
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
        assert worst_lipschitz_excess(cost) <= 1e-12


def test_exit_cost_with_a_single_target():
    dom = IntervalDomain(0.0, 1.0, 0.1, targets=[1.0])
    cost = ExitCost(dom, {dom.node_at(1.0): 0.7})
    assert cost.lipschitz_constant == 0.0 == tightest_lipschitz_reference(cost)
    assert worst_lipschitz_excess(cost) == -np.inf
    graph = GraphDomain(3, [(0, 1, 1.0), (1, 2, 0.5)], targets=[2])
    assert ExitCost(graph, {2: 0.4}).lipschitz_constant == 0.0


def test_exit_cost_pairs_in_different_components_bound_nothing():
    dom = GraphDomain(4, [(0, 1, 1.0), (2, 3, 1.0)], targets=[0, 1, 3])
    cost = ExitCost(dom, {0: 0.0, 1: 0.5, 3: 2.0})
    assert cost.lipschitz_constant == 0.5 == tightest_lipschitz_reference(cost)
    assert worst_lipschitz_excess(cost) <= 1e-12
    zero = ExitCost(dom, {0: 0.0, 1: 0.0, 3: 2.0})
    assert zero.lipschitz_constant == 0.0 == tightest_lipschitz_reference(zero)
    assert worst_lipschitz_excess(zero) == 0.0


def test_target_snapping_within_half_cell():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    pts = np.array([0.004, 0.006, 0.997, 0.5])
    snapped, hit = dom.snap_to_target(pts)
    assert hit[0] == dom.node_at(0.0) and snapped[0] == 0.0
    assert hit[1] == -1
    assert hit[2] == dom.node_at(1.0) and snapped[2] == 1.0
    assert hit[3] == -1


def snap_table_reference(dom, ps):
    """Interval snap by its definition: the first least distance over all targets."""
    ps = np.array(ps, dtype=float)
    tc = dom.coords[dom.targets]
    d = np.abs(ps[:, None] - tc)
    j = d.argmin(axis=1)
    hit = d[np.arange(len(ps)), j] <= dom.dx / 2 + 1e-12
    ps[hit] = tc[j[hit]]
    return ps, np.where(hit, dom.targets[j], -1)


@pytest.mark.parametrize("targets", [[1.0], [0.0], [0.0, 1.0], [0.0, 0.375, 0.4375, 0.5, 1.0]])
def test_interval_snap_matches_the_nearest_target_table(targets):
    """np.searchsorted finds the table's nearest target, the first on a tie,
    also at the edges of the half-cell and exactly midway between targets."""
    dom = IntervalDomain(0.0, 1.0, 0.0625, targets=targets)
    tc = dom.coords[dom.targets]
    edges = np.concatenate([tc - (dom.dx / 2 + 1e-12), tc + (dom.dx / 2 + 1e-12),
                            (tc[:-1] + tc[1:]) / 2, tc])
    pts = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                          np.random.default_rng(5).uniform(-0.1, 1.1, 200), [-0.0]])
    got, got_idx = dom.snap_to_target(pts)
    want, want_idx = snap_table_reference(dom, pts)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got_idx, want_idx)
    assert np.any(got_idx >= 0) and np.any(got_idx < 0)


def test_grid2d_in_box_matches_the_all_axes_formula():
    dom = Grid2dDomain([0.1, -0.3], [0.73, 0.9], 0.03, targets=[[0.73, 0.9]])

    def axis_values(lo, hi):
        edges = [lo - 1e-12, lo, hi, hi + 1e-12]
        return np.unique([np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
                         + edges + [(lo + hi) / 2])

    xs, ys = axis_values(dom.lo[0], dom.hi[0]), axis_values(dom.lo[1], dom.hi[1])
    q = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)  # a 2d batch of points
    want = np.all((q >= dom.lo - 1e-12) & (q <= dom.hi + 1e-12), axis=-1)
    got = dom._in_box(q)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert want.any() and not want.all()


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
    # first and last node index inside each closed ball
    i_lo = np.ceil((ps - r - dom.lo) / dom.dx - 1e-9).astype(int)
    i_hi = np.floor((ps + r - dom.lo) / dom.dx + 1e-9).astype(int)
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
