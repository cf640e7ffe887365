"""Backend reach stencils reproduce the candidate-set minimum bit for bit.

The reference is the scheme's definition: interpolate the node field at
every valid candidate of reach_candidates and take the minimum. Budgets are
per node and non-uniform in [k_min dt, k_max dt]; border nodes always get
the largest budget, so their clipped slots are exercised.
"""
import numpy as np
import pytest

from exitlab.domain import BIG, GraphDomain, Grid2dDomain, IntervalDomain

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
        ball_min = stencil(r)
        for _ in range(2):  # one bound stencil serves several fields
            values = rng.uniform(0.0, 2.0, domain.n_nodes)
            assert np.array_equal(ball_min(values), reference_ball_min(domain, values, r))


@pytest.mark.parametrize("cfl", [1.0, 2.5])
def test_interval_stencil_matches_candidates(cfl):
    dom = IntervalDomain(0.0, 1.0, 0.008, targets=[1.0], origin=0.0)
    check_stencil(dom, [0, dom.n_nodes - 1], cfl, seed=1)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("cfl", [1.0, 1.7])
def test_grid2d_stencil_matches_candidates(connectivity, cfl):
    dom = Grid2dDomain([0.0, 0.0], [1.0, 0.6], 0.05, targets=[[1.0, 0.3]],
                       origin=[0.0, 0.3], connectivity=connectivity)
    nx, ny = dom.shape
    ix, iy = np.divmod(np.arange(dom.n_nodes), ny)
    border = np.flatnonzero((ix == 0) | (ix == nx - 1) | (iy == 0) | (iy == ny - 1))
    check_stencil(dom, border, cfl, seed=connectivity)


def test_graph_default_stencil_matches_candidates():
    dom = GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                      targets=[2, 4], origin=0)
    check_stencil(dom, [0, 4], 1.0, seed=3)
