"""Congestion kernel: speed evaluation, certified bounds, Lipschitz estimates."""
import numpy as np
import pytest

from exitlab import domain as domain_module
from exitlab.congestion import (Chi, CongestionKernel, Eta, HypothesisViolation,
                                Kappa, MeasurePreconditionError)
from exitlab.domain import ExitCost, GraphDomain, Grid2dDomain, IntervalDomain
from exitlab.equilibrium import field_from_marginals, frozen_field
from exitlab.measures import ParticleMeasure, TrajectoryEnsemble, wasserstein

E_MINUS_HALF = float(np.exp(-0.5))


def make_domain(dx=0.01):
    return IntervalDomain(0.0, 1.0, dx, targets=[0.0, 1.0])


def make_kernel(domain, kappa=None, chi=None, eta=None):
    return CongestionKernel(
        domain,
        kappa or Kappa("constant", value=1.0),
        chi or Chi("constant", value=0.0),
        eta or Eta("constant", value=1.0),
    )


def speed_at_node(kernel, mu, x):
    return float(kernel.node_speeds(mu)[kernel.domain.node_at(x)])


def speed_at_points(kernel, mu, x):
    """Speeds at off-node points, interpolated from the nodes as synthesis reads them."""
    field = frozen_field(mu, kernel, kernel.domain.dx, 1)
    return field.at_points(0, kernel.domain.as_points(x))


def brute_force_density(chi, eta_vals, domain, mu, x):
    return sum(w * float(chi(np.array(abs(x - p)))) * ev
               for p, w, ev in zip(mu.points, mu.weights, eta_vals))


def test_constant_kappa_gives_unit_speed_everywhere():
    dom = make_domain()
    kernel = make_kernel(dom)
    mu = ParticleMeasure(dom, [0.2, 0.8], [0.5, 0.5])
    for x in (0.0, 0.37, 1.0):
        assert speed_at_node(kernel, mu, x) == 1.0
    assert np.all(speed_at_points(kernel, mu, [0.123, 0.555]) == 1.0)


def test_zero_chi_gives_kappa_at_zero():
    dom = make_domain()
    kernel = make_kernel(dom, kappa=Kappa("affine_clamped", intercept=0.9,
                                          slope=1.0, floor=0.2))
    mu = ParticleMeasure.dirac(dom, 0.5)
    assert speed_at_node(kernel, mu, 0.5) == pytest.approx(0.9)


def test_ball_chi_dirac_example():
    dom = make_domain()
    kernel = make_kernel(dom,
                         kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                         chi=Chi("ball", radius=0.1))
    mu_here = ParticleMeasure.dirac(dom, 0.5)
    assert speed_at_node(kernel, mu_here, 0.5) == pytest.approx(0.2)
    mu_far = ParticleMeasure.dirac(dom, 0.9)
    assert speed_at_node(kernel, mu_far, 0.5) == pytest.approx(1.0)
    # cross-check against direct summation
    eta_vals = np.ones(1)
    s = brute_force_density(kernel.chi, eta_vals, dom, mu_here, 0.5)
    assert float(kernel.kappa(np.array(s))) == pytest.approx(0.2)


def test_unnormalized_measure_rejected():
    dom = make_domain()
    kernel = make_kernel(dom, chi=Chi("gaussian", width=0.1))
    bad = ParticleMeasure(dom, [0.4, 0.6], [0.5, 0.6], validate=False)
    with pytest.raises(MeasurePreconditionError):
        kernel.node_speeds(bad)


def test_derive_bounds_examples():
    dom = make_domain()
    assert make_kernel(dom).derive_bounds() == (1.0, 1.0)
    k2 = make_kernel(dom,
                     kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                     chi=Chi("constant", value=1.0))
    assert k2.derive_bounds() == pytest.approx((0.2, 1.0))
    k3 = make_kernel(dom, kappa=Kappa("exponential", scale=1.0, rate=1.0),
                     chi=Chi("constant", value=2.0))
    lo, hi = k3.derive_bounds()
    assert lo == pytest.approx(np.exp(-2.0))
    assert hi == pytest.approx(1.0)


def test_kappa_reaching_zero_violates_h8():
    dom = make_domain()
    with pytest.raises(HypothesisViolation):
        make_kernel(dom, kappa=Kappa("affine_clamped", intercept=1.0, slope=2.0,
                                     floor=0.0),
                    chi=Chi("constant", value=1.0))


@pytest.mark.parametrize("make, message", [
    (lambda: Chi("constant", amplitude=5.0), "chi.amplitude is not read with family 'constant'"),
    (lambda: Chi("gaussian", width=0.1, value=5.0),
     "chi.value is not read with family 'gaussian'"),
    (lambda: Eta("taper", distance=0.2, value=3.0), "eta.value is not read with family 'taper'"),
])
def test_a_parameter_the_family_does_not_read_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_lipschitz_estimates():
    dom = make_domain()
    assert make_kernel(dom).estimate_lipschitz()[0] == 0.0
    sigma = 0.2
    k = make_kernel(dom, kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.1),
                    chi=Chi("gaussian", width=sigma))
    l_r, certified = k.estimate_lipschitz()
    assert certified
    assert l_r == pytest.approx(E_MINUS_HALF / sigma)
    k_eta0 = make_kernel(dom, kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.1),
                         chi=Chi("gaussian", width=sigma), eta=Eta("constant", value=0.0))
    assert k_eta0.estimate_lipschitz()[0] == 0.0
    k_ball = make_kernel(dom, kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.1),
                         chi=Chi("ball", radius=0.1))
    _, certified = k_ball.estimate_lipschitz()
    assert not certified
    h9 = [c for c in k_ball.hypothesis_report(ExitCost.zero(dom)) if c["name"] == "H9"][0]
    assert "not Lipschitz" in h9["detail"]


def test_check_smallness():
    dom = make_domain()
    kernel = make_kernel(dom)
    assert kernel.check_smallness(ExitCost.zero(dom))
    # targets 0 and 1 a unit apart: the tightest L_g is the cost difference
    half = ExitCost(dom, {dom.node_at(0.0): 0.0, dom.node_at(1.0): 0.5})
    assert half.lipschitz_constant == 0.5 and kernel.check_smallness(half)
    big = ExitCost(dom, {dom.node_at(0.0): 0.0, dom.node_at(1.0): 1.2})
    assert big.lipschitz_constant == 1.2 and not kernel.check_smallness(big)


@pytest.mark.parametrize("seed", range(6))
def test_speed_stays_within_bounds_on_fuzzed_measures(seed):
    dom = make_domain()
    rng = np.random.default_rng(seed)
    kernel = make_kernel(dom,
                         kappa=Kappa("affine_clamped", intercept=1.0, slope=1.5, floor=0.3),
                         chi=Chi("gaussian", width=rng.uniform(0.05, 0.3)),
                         eta=Eta("taper", distance=0.15))
    n = rng.integers(1, 40)
    pts = rng.uniform(0, 1, n)
    w = rng.uniform(0.01, 1, n)
    mu = ParticleMeasure(dom, pts, w / w.sum())
    speeds = kernel.node_speeds(mu)
    assert np.all(speeds >= kernel.k_min - 1e-12)
    assert np.all(speeds <= kernel.k_max + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_monotone_congestion(seed):
    """Moving a particle into interaction range never increases the speed."""
    dom = make_domain()
    rng = np.random.default_rng(seed)
    kernel = make_kernel(dom,
                         kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                         chi=Chi("gaussian", width=0.1))
    x = rng.uniform(0.3, 0.7)
    pts = rng.uniform(0, 1, 10)
    w = np.full(10, 0.1)
    before = speed_at_points(kernel, ParticleMeasure(dom, pts, w), x)[0]
    far = int(np.argmax(np.abs(pts - x)))
    pts2 = pts.copy()
    pts2[far] = x  # pull the farthest particle onto the query point
    after = speed_at_points(kernel, ParticleMeasure(dom, pts2, w), x)[0]
    assert after <= before + 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_continuity_in_measure(seed):
    """Speeds converge when particle clouds converge in W_1."""
    dom = make_domain()
    rng = np.random.default_rng(seed)
    kernel = make_kernel(dom,
                         kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                         chi=Chi("gaussian", width=0.1))
    pts = rng.uniform(0.1, 0.9, 20)
    w = np.full(20, 0.05)
    mu = ParticleMeasure(dom, pts, w)
    x = 0.5
    base = speed_at_node(kernel, mu, x)
    prev_gap = np.inf
    for eps in (0.1, 0.01, 0.001):
        shifted = ParticleMeasure(dom, np.clip(pts + eps, 0, 1), w)
        gap = abs(speed_at_node(kernel, shifted, x) - base)
        assert gap <= prev_gap + 1e-12
        assert wasserstein(shifted, mu, 1) <= eps + 1e-12
        prev_gap = gap
    assert prev_gap < 0.02


@pytest.mark.parametrize("seed", range(4))
def test_spatial_lipschitz_bound(seed):
    dom = make_domain()
    rng = np.random.default_rng(seed)
    kernel = make_kernel(dom,
                         kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                         chi=Chi("gaussian", width=0.1))
    l_r, _ = kernel.estimate_lipschitz()
    pts = rng.uniform(0, 1, 15)
    mu = ParticleMeasure(dom, pts, np.full(15, 1 / 15))
    for _ in range(40):
        x1, x2 = rng.uniform(0, 1, 2)
        k1, k2 = speed_at_points(kernel, mu, [x1, x2])
        gap = abs(k1 - k2)
        assert gap <= l_r * abs(x1 - x2) + 1e-9


def test_binned_evaluation_error_within_bound():
    dom = make_domain(dx=0.02)
    kernel = make_kernel(dom,
                         kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                         chi=Chi("gaussian", width=0.1))
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, 50)
    mu = ParticleMeasure(dom, pts, np.full(50, 0.02))
    ens = TrajectoryEnsemble(dom, dom.dx, pts[:, None], mu.weights)  # one slice: mu
    exact = field_from_marginals(kernel, ens, binned=False)
    binned = field_from_marginals(kernel, ens, binned=True)
    assert np.array_equal(exact.values[0], kernel.node_speeds(mu))
    assert np.max(np.abs(binned.values - exact.values)) <= kernel.binning_error_bound() + 1e-12


def congested_kernel(domain):
    return make_kernel(domain,
                       kappa=Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                       chi=Chi("gaussian", width=0.15, amplitude=0.6),
                       eta=Eta("taper", distance=0.1))


def one_shot_node_matrix(kernel):
    """chi(d) * eta over every node pair in one broadcast, as before the row blocks."""
    nodes = kernel.domain.node_points()
    d = kernel.domain.point_distance_matrix(nodes, nodes)
    return kernel.chi(d) * kernel._eta_at_points(nodes)[None, :]


@pytest.mark.parametrize("backend", ["interval", "grid2d", "graph"])
def test_node_interaction_matrix_blocks_match_one_shot(backend, monkeypatch):
    if backend == "interval":  # 334 nodes: two full blocks and a partial one
        dom = IntervalDomain(0.0, 0.999, 0.003, targets=[0.999])
    elif backend == "grid2d":  # 273 nodes
        dom = Grid2dDomain([0.0, 0.0], [1.0, 0.6], 0.05, targets=[[1.0, 0.3]])
    else:  # 12 nodes in blocks of 5
        monkeypatch.setattr(domain_module, "NODE_MATRIX_ROW_BLOCK", 5)
        edges = [(i, i + 1, 0.05 + 0.01 * (i % 3)) for i in range(11)] + [(2, 7, 0.12)]
        dom = GraphDomain(12, edges, targets=[11], origin=0)
    kernel = congested_kernel(dom)
    got = kernel.node_interaction_matrix()
    assert dom.n_nodes > domain_module.NODE_MATRIX_ROW_BLOCK
    assert np.array_equal(got.view(np.int64), one_shot_node_matrix(kernel).view(np.int64))


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("chi", [Chi("gaussian", width=0.15, amplitude=0.6),
                                 Chi("ball", radius=0.1), Chi("constant", value=0.7)],
                         ids=lambda c: c.family)
@pytest.mark.parametrize("eta", [Eta("taper", distance=0.1), Eta("constant", value=0.5)],
                         ids=lambda e: e.family)
@pytest.mark.parametrize("box", [([0.0, 0.0], [1.0, 0.6], 0.05),       # 21 x 13
                                 ([0.1, -0.3], [0.73, 0.9], 0.03)],  # 22 x 41
                         ids=["21x13", "22x41"])
def test_grid2d_interaction_matrix_from_offset_tables_matches_row_blocks(connectivity, chi,
                                                                         eta, box):
    lo, hi, dx = box
    dom = Grid2dDomain(lo, hi, dx, targets=[hi], connectivity=connectivity)
    kernel = make_kernel(dom, chi=chi, eta=eta)
    got = kernel.node_interaction_matrix()
    eta_nodes = kernel._eta_at_points(dom.node_points())
    want = domain_module.SpatialDomain.node_kernel_matrix(dom, chi, eta_nodes)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("connectivity", [4, 8])
def test_node_interaction_matrix_build_peak_stays_near_its_size(connectivity):
    import tracemalloc

    dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.025, targets=[[1.0, 0.5]],
                       connectivity=connectivity)  # 41 x 41
    kernel = congested_kernel(dom)
    tracemalloc.start()
    try:
        matrix = kernel.node_interaction_matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix.nbytes
