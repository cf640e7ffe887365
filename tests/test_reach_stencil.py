"""Backend reach stencils reproduce the candidate-set minimum bit for bit.

The reference is the scheme's definition: interpolate the node field at
every valid candidate of reach_candidates and take the minimum. Budgets are
per node and non-uniform in [k_min dt, k_max dt]; border nodes always get
the largest budget, so their clipped slots are exercised. Node fields are
drawn from a continuum and from three levels, whose ties the minimum must
also reproduce.
"""
import numpy as np
import pytest

from exitlab.domain import BIG, STENCIL_ROWS, GraphDomain, Grid2dDomain, IntervalDomain

K_MIN, K_MAX = 0.2, 1.0


def reference_ball_min(domain, node_values, r):
    cand, _, valid = domain.reach_candidates(domain.node_points(), r)
    best = np.full(domain.n_nodes, BIG)
    for s in range(valid.shape[1]):
        vals = domain.interp(node_values, cand[:, s])
        best = np.minimum(best, np.where(valid[:, s], vals, BIG))
    return best


def budgets(domain, dt, rng, border):
    r = rng.uniform(K_MIN * dt, K_MAX * dt, domain.n_nodes)
    r[rng.random(domain.n_nodes) < 0.2] = K_MAX * dt
    r[border] = K_MAX * dt
    return r


def check_stencil(domain, border, cfl, seed):
    rng = np.random.default_rng(seed)
    dt = cfl * domain.dx / K_MAX
    stencil = domain.reach_stencil(K_MAX * dt)
    for _ in range(3):
        r = budgets(domain, dt, rng, border)
        (ball_min,) = stencil(r[None])
        # one bound stencil serves several fields; three levels make ties
        for values in (rng.uniform(0.0, 2.0, domain.n_nodes),
                       rng.uniform(0.0, 2.0, domain.n_nodes),
                       rng.choice([0.0, 0.5, 1.0], domain.n_nodes)):
            assert np.array_equal(ball_min(values), reference_ball_min(domain, values, r))


@pytest.mark.parametrize("cfl", [1.0, 2.5])
def test_interval_stencil_matches_candidates(cfl):
    dom = IntervalDomain(0.0, 1.0, 0.008, targets=[1.0], origin=0.0)
    check_stencil(dom, [0, dom.n_nodes - 1], cfl, seed=1)


def grid_border(dom):
    nx, ny = dom.shape
    ix, iy = np.divmod(np.arange(dom.n_nodes), ny)
    return np.flatnonzero((ix == 0) | (ix == nx - 1) | (iy == 0) | (iy == ny - 1))


def distinct_ball_nodes(dom, r_max):
    """The largest number of distinct nodes that one node's r_max-ball holds."""
    cand, _, valid = dom.reach_candidates(dom.node_points(), np.full(dom.n_nodes, r_max))
    nodes = cand[:, 1 + len(dom._offsets):]
    inside = valid[:, 1 + len(dom._offsets):]
    return max(len(np.unique(nodes[i][inside[i]], axis=0)) for i in range(dom.n_nodes))


def stencil_node_slots(dom, r_max, monkeypatch):
    """Node slots per node of reach_stencil(r_max): the points it plans before any bind."""
    planned = []
    plan = dom._bilinear_plan

    def recording(ps):
        planned.append(len(ps))
        return plan(ps)

    monkeypatch.setattr(dom, "_bilinear_plan", recording)
    dom.reach_stencil(r_max)
    monkeypatch.undo()
    assert len(planned) == 1 and planned[0] % dom.n_nodes == 0
    return planned[0] // dom.n_nodes


def grid(connectivity, hi=(1.0, 0.6), dx=0.05):
    return Grid2dDomain([0.0, 0.0], list(hi), dx, targets=[[hi[0], hi[1] / 2]],
                        origin=[0.0, hi[1] / 2], connectivity=connectivity)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("cfl", [0.999, 1.0, 1.7, 2.5])
def test_grid2d_stencil_matches_candidates(connectivity, cfl, monkeypatch):
    dom = grid(connectivity)
    check_stencil(dom, grid_border(dom), cfl, seed=connectivity)
    # only in-ball nodes are slots: one (the node's own) just under dx
    r_max = cfl * dom.dx
    slots = stencil_node_slots(dom, r_max, monkeypatch)
    assert slots <= distinct_ball_nodes(dom, r_max)
    assert cfl >= 1.0 or slots == 1


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("cfl", [0.999, 1.0, 1.7, 2.5])
def test_grid2d_stencil_on_a_3x3_grid(connectivity, cfl):
    """Every node but the centre is a border node, and wide windows clip on both sides."""
    dom = grid(connectivity, hi=(1.0, 1.0), dx=0.5)
    assert dom.shape == (3, 3)
    check_stencil(dom, grid_border(dom), cfl, seed=10 + connectivity)


def test_graph_default_stencil_matches_candidates():
    dom = GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                      targets=[2, 4], origin=0)
    check_stencil(dom, [0, 4], 1.0, seed=3)


BLOCK_DOMAINS = {
    "interval": lambda: IntervalDomain(0.0, 1.0, 0.008, targets=[1.0], origin=0.0),
    "grid4": lambda: grid(4),
    "grid8": lambda: grid(8),
    "graph": lambda: GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                                 targets=[2, 4], origin=0),
}


@pytest.mark.parametrize("cfl", [1.0, 2.5])
@pytest.mark.parametrize("name", list(BLOCK_DOMAINS))
def test_a_block_bind_equals_per_row_binds(name, cfl):
    """bind over a block of budget rows, some repeated, yields each row's ball
    minimum as a bind of that row alone does."""
    dom = BLOCK_DOMAINS[name]()
    rng = np.random.default_rng(len(name) + int(10 * cfl))
    dt = cfl * dom.dx / K_MAX
    stencil = dom.reach_stencil(K_MAX * dt)
    fields = (rng.uniform(0.0, 2.0, dom.n_nodes), rng.choice([0.0, 0.5, 1.0], dom.n_nodes))
    for n_rows in (1, 5, STENCIL_ROWS):
        rows = rng.uniform(K_MIN * dt, K_MAX * dt, (n_rows, dom.n_nodes))
        rows[rng.random(rows.shape) < 0.2] = K_MAX * dt
        block = rows[np.sort(rng.integers(0, n_rows, n_rows))]  # runs of repeated rows
        # a ball_min serves until the next bind: evaluate each as it is drawn
        got = [[ball_min(v) for v in fields] for ball_min in stencil(block)]
        assert len(got) == n_rows
        for row, mins in zip(block, got):
            (ball_min,) = stencil(row[None])
            for values, block_min in zip(fields, mins):
                want = ball_min(values)
                assert np.array_equal(block_min.view(np.int64), want.view(np.int64))
