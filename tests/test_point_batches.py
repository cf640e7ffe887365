"""The backend point-batch surface: as_points, nearest_nodes, batched distances,
array-valued T(R) and psi(R), the vectorized constant-after-exit check, and
the bound checks read ROW_BLOCK rows at a time by one row_scan.

The references below are the per-item versions these functions replaced; each
test asserts bit-equal results against them on all backends that apply.
"""
import numpy as np
import pytest

from exitlab.domain import DomainError, ExitCost, GraphDomain, Grid2dDomain, IntervalDomain
from exitlab.measures import ROW_BLOCK, ParticleMeasure, TrajectoryEnsemble
from exitlab.ocp import ValueField, confinement_excess, horizon_bound, trajectory_bound
from test_domain import node_distance_reference
from test_equilibrium import apriori_checks
from test_graph_arrays import edge_len_reference, pair_dist_reference, point_node_dist_reference


def interval():
    return IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0], origin=0.3)


def grid():
    return Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1, targets=[[0.5, 0.2]],
                        origin=[0.1, 0.1], connectivity=8)


def graph():
    return GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                       targets=[2, 4], origin=0)


def random_points(domain, rng, shape):
    """Points of the given leading batch shape spread over the domain."""
    if domain.kind == "interval":
        return rng.uniform(domain.lo - 0.02, domain.hi + 0.02, shape)
    if domain.kind == "grid2d":
        return rng.uniform(domain.lo - 0.02, domain.hi + 0.02, shape + (2,))
    edges = list(zip(*np.nonzero(np.triu(domain._edge_table))))  # (u, v), u < v, ascending
    pick = rng.integers(0, len(edges), shape)
    u = np.array([edges[k][0] for k in pick.ravel()], dtype=float).reshape(shape)
    v = np.array([edges[k][1] for k in pick.ravel()], dtype=float).reshape(shape)
    length = np.array([domain._edge_table[edges[k]] for k in pick.ravel()]).reshape(shape)
    pts = np.stack([u, v, rng.uniform(0.0, 1.0, shape) * length], axis=-1)
    at_node = rng.random(shape) < 0.2
    pts[at_node] = np.stack([u[at_node], u[at_node], np.zeros(at_node.sum())], axis=-1)
    return pts


def node_index_of_points_reference(domain, pts):
    """Nearest node of each point of a 1d point batch, one backend branch each."""
    if domain.kind == "interval":
        return np.clip(np.round((pts - domain.lo) / domain.dx).astype(int), 0, domain.n_nodes - 1)
    if domain.kind == "grid2d":
        ix = np.clip(np.round((pts[:, 0] - domain.lo[0]) / domain.dx).astype(int), 0, domain.shape[0] - 1)
        iy = np.clip(np.round((pts[:, 1] - domain.lo[1]) / domain.dx).astype(int), 0, domain.shape[1] - 1)
        return ix * domain.shape[1] + iy
    pts = np.atleast_2d(pts)
    out = np.empty(len(pts), dtype=int)
    for k, p in enumerate(pts):
        u, v, s = int(p[0]), int(p[1]), float(p[2])
        out[k] = u if (u == v or s <= edge_len_reference(domain, u, v) / 2) else v
    return out


def test_interval_as_points_shapes():
    dom = interval()
    assert dom.as_points(0.5).shape == (1,)
    assert dom.as_points([0.5]).shape == (1,)
    assert dom.as_points(np.linspace(0, 1, 7)).shape == (7,)
    rows = np.linspace(0, 1, 4).reshape(4, 1)  # ledger rows: one column per coordinate
    assert np.array_equal(dom.as_points(rows), rows.ravel())
    assert dom.as_points(3).dtype == float


@pytest.mark.parametrize("make", [grid, graph])
def test_as_points_shapes_and_trailing_axis(make):
    dom = make()
    dim = len(dom.coord_names)
    point = [0.0] * dim
    assert dom.as_points(point).shape == (1, dim)
    assert dom.as_points([point, point, point]).shape == (3, dim)
    assert dom.as_points(np.zeros((2, 1, dim))).shape == (2, 1, dim)
    with pytest.raises(DomainError):
        dom.as_points(0.5)
    with pytest.raises(DomainError):
        dom.as_points(np.zeros((4, 1)))
    with pytest.raises(DomainError):
        dom.as_points(np.zeros((4, dim + 1)))


@pytest.mark.parametrize("make", [interval, grid, graph])
def test_as_points_returns_a_float_copy(make):
    dom = make()
    src = dom.node_points()[:3]
    pts = dom.as_points(src)
    pts[...] = -1.0
    assert np.all(src[..., -1] >= 0.0)
    assert dom.as_points(src.astype(int)).dtype == float


@pytest.mark.parametrize("make", [interval, grid, graph])
def test_nearest_nodes_matches_reference_on_batches(make):
    dom = make()
    rng = np.random.default_rng(11)
    batch = random_points(dom, rng, (40, 6))
    got = dom.nearest_nodes(batch)
    assert got.shape == (40, 6)
    want = np.stack([node_index_of_points_reference(dom, batch[:, j]) for j in range(6)], axis=1)
    assert np.array_equal(got, want)
    flat = random_points(dom, rng, (25,))
    assert np.array_equal(dom.nearest_nodes(flat), node_index_of_points_reference(dom, flat))


def test_graph_nearest_nodes_around_an_edge_midpoint():
    dom = graph()
    half = dom._edge_table[1, 3] / 2
    offsets = [0.0, np.nextafter(half, 0.0), half, np.nextafter(half, 1.0), 2 * half]
    pts = np.array([[1.0, 3.0, s] for s in offsets] + [[3.0, 3.0, 0.0], [4.0, 4.0, 0.0]])
    got = dom.nearest_nodes(pts)
    assert np.array_equal(got, node_index_of_points_reference(dom, pts))
    assert got.tolist() == [1, 1, 1, 3, 3, 3, 4]


def test_graph_point_distances_on_batches_of_any_shape():
    dom = graph()
    rng = np.random.default_rng(5)
    one_p, one_q = random_points(dom, rng, (1,)), random_points(dom, rng, (1,))
    d = dom.point_distance(one_p, one_q)
    assert isinstance(d, np.ndarray) and d.shape == (1,)
    assert d[0] == pair_dist_reference(dom, one_p[0], one_q[0])
    o = dom.point_origin_distance(one_p)
    assert isinstance(o, np.ndarray) and o.shape == (1,)

    p, q = random_points(dom, rng, (4, 3)), random_points(dom, rng, (4, 3))
    d = dom.point_distance(p, q)
    assert d.shape == (4, 3)
    want = np.array([[pair_dist_reference(dom, p[i, j], q[i, j]) for j in range(3)] for i in range(4)])
    assert np.array_equal(d, want)
    # broadcasting one point against a batch
    d_row = dom.point_distance(p, q[0, 0])
    assert np.array_equal(d_row, [[pair_dist_reference(dom, a, q[0, 0]) for a in row] for row in p])
    o = dom.point_origin_distance(p)
    assert o.shape == (4, 3)
    want = np.array([[point_node_dist_reference(dom, p[i, j], np.array([dom.origin]))[0]
                      for j in range(3)] for i in range(4)])
    assert np.array_equal(o, want)


def horizon_bound_reference(domain, cost, bounds, r):
    """T(R) for one radius in Python floats, as the per-item loops evaluated it."""
    k_min = bounds[0]
    y0 = int(domain.targets[np.argmin([node_distance_reference(domain, domain.origin, t)
                                       for t in domain.targets])])
    g0 = cost.at_node(y0)
    d0 = node_distance_reference(domain, domain.origin, y0)
    return g0 + d0 / k_min + float(r) / k_min  # the geodesic constant D is 1


@pytest.mark.parametrize("make", [interval, grid, graph])
def test_array_bounds_bit_equal_to_scalar_calls(make):
    dom = make()
    cost = ExitCost(dom, {int(t): 0.1 + 0.07 * k for k, t in enumerate(dom.targets)})
    bounds = (0.37, 1.9)
    rng = np.random.default_rng(2)
    radii = np.concatenate([rng.uniform(0.0, 3.0, 2000), dom.origin_node_distances(), [0.0]])
    t_arr = horizon_bound(cost, bounds, radii)
    t_ref = np.array([horizon_bound_reference(dom, cost, bounds, r) for r in radii])
    assert np.array_equal(t_arr.view(np.int64), t_ref.view(np.int64))
    scalar = horizon_bound(cost, bounds, radii[0])
    assert type(scalar) is float and scalar == t_ref[0]

    psi_arr = trajectory_bound(cost, bounds, radii)
    psi_ref = np.array([bounds[1] * t + float(r) for t, r in zip(t_ref, radii)])
    assert np.array_equal(psi_arr.view(np.int64), psi_ref.view(np.int64))
    scalar = trajectory_bound(cost, bounds, radii[0])
    assert type(scalar) is float and scalar == psi_ref[0]


def check_constant_after_exit_reference(ens):
    worst = 0.0
    for k in range(ens.n_traj):
        e = ens.exit_indices[k]
        if e >= 0 and e < ens.n_steps:
            tail = ens.samples[k, e:]
            dev = np.max(ens.domain.point_distance(tail[1:], np.broadcast_to(tail[0], tail[1:].shape)),
                         initial=0.0)
            worst = max(worst, float(dev))
    return worst


@pytest.mark.parametrize("make", [interval, grid, graph])
def test_check_constant_after_exit_matches_reference(make):
    dom = make()
    rng = np.random.default_rng(8)
    n, steps = 12, 9
    samples = random_points(dom, rng, (n, steps + 1))
    exits = np.array([-1, 0, 3, steps, 5, 2, -1, 7, 1, 4, steps, 6])
    for k, e in enumerate(exits):
        if e >= 0:
            samples[k, e:] = samples[k, e]
    ens = TrajectoryEnsemble(dom, 0.1, samples, np.full(n, 1.0 / n), exit_indices=exits,
                             exit_nodes=np.zeros(n, dtype=int))
    assert ens.row_scan()[3] == 0.0 == check_constant_after_exit_reference(ens)
    # drift after exit on a few rows, including the last step and a non-exited row
    for k, j in ((2, 6), (4, steps), (7, 8), (0, 4)):
        samples[k, j] = random_points(dom, rng, ())
    got = ens.row_scan()[3]
    assert got > 0.0
    assert got == check_constant_after_exit_reference(ens)


# ---- row-blocked certificate checks against the whole-array code ----------

def check_lipschitz_whole(ens, k_max):
    """The Lipschitz check's excess before row blocks: one step-length array, less the bound."""
    d = ens.domain.point_distance(ens.samples[:, :-1], ens.samples[:, 1:])
    excess = np.reshape(d, (ens.n_traj, ens.n_steps)) - (k_max * ens.dt + ens.domain.dx)
    return float(np.max(excess, initial=-np.inf))


def check_constant_after_exit_whole(ens):
    """The constant-after-exit drift before row blocks: one drift array over every sample."""
    e = ens.exit_indices
    exit_pts = ens.samples[np.arange(ens.n_traj), np.maximum(e, 0)]
    drift = ens.domain.point_distance(ens.samples, exit_pts[:, None])
    after = (np.arange(ens.n_steps + 1) > e[:, None]) & (e >= 0)[:, None]
    return float(np.max(drift[after], initial=0.0))


def confinement_excess_whole(samples, domain, cost, bounds):
    """confinement_excess before row blocks."""
    dists = domain.point_origin_distance(samples)
    start_r = dists[:, 0]
    psi_r = bounds[1] * horizon_bound(cost, bounds, start_r) + start_r
    return float(np.max(np.max(dists, axis=1) - psi_r, initial=-np.inf))


def excursions_whole(samples, domain):
    """The mass check's per-row excursions before row blocks."""
    return np.max(domain.point_origin_distance(samples), axis=1)


def float_bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def blocked_ensemble(domain, rng, n, steps):
    """n rows that stay at their exit sample, never exit, or move after their recorded exit."""
    samples = random_points(domain, rng, (n, steps + 1))
    exits = rng.choice([-1, 0, 2, steps], n)
    for k, e in enumerate(exits):
        if e >= 0:
            samples[k, e:] = samples[k, e]
    moved = np.flatnonzero((exits >= 0) & (exits < steps))[::5]
    samples[moved, -1] = random_points(domain, rng, (len(moved),))
    return TrajectoryEnsemble(domain, 0.1, samples, np.full(n, 1.0 / max(n, 1)),
                              exit_indices=exits, exit_nodes=np.zeros(n, dtype=int),
                              validate=False)


def exit_cost(domain):
    return ExitCost(domain, {int(t): 0.1 + 0.07 * k for k, t in enumerate(domain.targets)})


@pytest.mark.parametrize("n", [0, 1, 2 * ROW_BLOCK + 37])
@pytest.mark.parametrize("make", [interval, grid, graph])
def test_row_blocked_checks_equal_the_whole_array_code(make, n):
    dom = make()
    ens = blocked_ensemble(dom, np.random.default_rng(n), n, steps=7)
    cost = exit_cost(dom)
    start, furthest, longest, drift = ens.row_scan()  # one pass serves every check
    for k_max in (0.37, 1.9, 50.0):
        assert float_bits(longest - (k_max * ens.dt + dom.dx)) == float_bits(
            check_lipschitz_whole(ens, k_max))
        bounds = (0.37, k_max)
        assert float_bits(confinement_excess(start, furthest, cost, bounds)) == float_bits(
            confinement_excess_whole(ens.samples, dom, cost, bounds))
    assert float_bits(drift) == float_bits(check_constant_after_exit_whole(ens))
    assert drift > 0.0 or n < 2  # the rows moved after their exit are seen
    assert np.array_equal(float_bits(furthest), float_bits(excursions_whole(ens.samples, dom)))
    assert np.array_equal(float_bits(start),
                          float_bits(dom.point_origin_distance(ens.samples[:, 0])))


@pytest.mark.parametrize("make", [interval, grid, graph])
def test_bound_checks_peak_stays_below_one_copy_of_the_samples(make):
    """The a-priori bound checks read the final mixture ROW_BLOCK rows at a time.

    What they hold at once is row_scan's two per-row vectors (each row's
    starting and largest origin distance) with one block of temporaries;
    the whole-array checks held two copies of the samples.
    """
    import tracemalloc
    from types import SimpleNamespace

    dom = make()
    ens = blocked_ensemble(dom, np.random.default_rng(3), 40 * ROW_BLOCK + 37, steps=5)
    phi = ValueField(dom, ens.dt, np.zeros((ens.n_steps + 1, dom.n_nodes)))
    report = SimpleNamespace(final_ensemble=ens, final_phi=phi, t_bound=1.0,
                             certification={"weak": True, "strong": True, "agree": True,
                                            "tol": 0.1})
    m0 = ParticleMeasure(dom, ens.samples[:, 0], ens.weights, validate=False)
    kernel = SimpleNamespace(k_min=0.37, k_max=1.9)
    cost = exit_cost(dom)
    tracemalloc.start()
    try:
        apriori_checks(report, m0, kernel, cost)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ens.samples.nbytes
