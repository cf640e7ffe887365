"""Particle measures: Wasserstein, moments, ensembles."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from exitlab.domain import DomainError, GraphDomain, Grid2dDomain, IntervalDomain
from exitlab.measures import (MeasureError, ParticleMeasure, SupportCapError, TrajectoryEnsemble,
                              wasserstein, wasserstein_lp)
from test_trajectory_caches import merged


def make_domain(dx=0.01):
    return IntervalDomain(0.0, 1.0, dx, targets=[0.0, 1.0])


def brute_force_two_atom_w(mu_pts, mu_w, nu_pts, nu_w, p):
    """Enumerate transport plans on a 2x1 support by sweeping the free mass."""
    best = np.inf
    for m00 in np.linspace(0, min(mu_w[0], nu_w[0]), 2001):
        plan = np.array([[m00, mu_w[0] - m00],
                         [nu_w[0] - m00, mu_w[1] - (nu_w[0] - m00)]])
        if np.any(plan < -1e-12):
            continue
        cost = sum(plan[i, j] * abs(mu_pts[i] - nu_pts[j]) ** p
                   for i in range(2) for j in range(2))
        best = min(best, cost)
    return best ** (1 / p)


def test_wasserstein_dirac_pair():
    dom = make_domain()
    a = ParticleMeasure.dirac(dom, 0.2)
    b = ParticleMeasure.dirac(dom, 0.7)
    assert wasserstein(a, b, 1) == pytest.approx(0.5, abs=1e-12)
    assert wasserstein(a, a, 1) == 0.0
    assert wasserstein(a, a, 2) == 0.0


def test_wasserstein_two_atoms_vs_brute_force():
    dom = make_domain()
    mu = ParticleMeasure(dom, [0.0, 1.0], [0.5, 0.5])
    nu = ParticleMeasure.dirac(dom, 0.5)
    for p in (1, 2):
        w = wasserstein(mu, nu, p)
        assert w == pytest.approx(0.5, abs=1e-9)
        oracle = brute_force_two_atom_w(np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                                        np.array([0.5, 0.5001]), np.array([1.0, 0.0]), p)
        assert w == pytest.approx(oracle, abs=1e-3)


@pytest.mark.parametrize("seed", range(10))
def test_quantile_matches_lp(seed):
    dom = make_domain()
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(1, 17, 2)
    wa = rng.uniform(0.1, 1, na)
    wb = rng.uniform(0.1, 1, nb)
    mu = ParticleMeasure(dom, rng.uniform(0, 1, na), wa / wa.sum())
    nu = ParticleMeasure(dom, rng.uniform(0, 1, nb), wb / wb.sum())
    for p in (1, 2):
        wq = wasserstein(mu, nu, p)
        wl = wasserstein_lp(np.abs(mu.points[:, None] - nu.points[None, :]),
                            mu.weights, nu.weights, p)
        assert abs(wq - wl) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_wasserstein_metric_axioms(seed):
    dom = make_domain()
    rng = np.random.default_rng(seed)
    measures = []
    for _ in range(3):
        n = rng.integers(1, 8)
        w = rng.uniform(0.1, 1, n)
        measures.append(ParticleMeasure(dom, rng.uniform(0, 1, n), w / w.sum()))
    a, b, c = measures
    for p in (1, 2):
        assert wasserstein(a, b, p) == pytest.approx(wasserstein(b, a, p), abs=1e-9)
        assert wasserstein(a, a, p) <= 1e-9
        assert wasserstein(a, c, p) <= wasserstein(a, b, p) + wasserstein(b, c, p) + 1e-8


def test_lp_support_cap():
    dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.5, targets=[[0.0, 0.0]])
    pts = np.tile(dom.coords, (60, 1))[:600]
    w = np.full(len(pts), 1.0 / len(pts))
    mu = ParticleMeasure(dom, pts, w, validate=False)
    with pytest.raises(SupportCapError, match="reduce support"):
        wasserstein(mu, mu, 1)
    assert issubclass(SupportCapError, MeasureError)


def failing_linprog(*args, **kwargs):
    raise AssertionError("the transport LP was called")


@pytest.mark.parametrize("kind", ["interval", "grid2d", "graph"])
def test_wasserstein_of_bit_identical_measures_is_zero_without_an_lp(kind, monkeypatch):
    monkeypatch.setattr("exitlab.measures.linprog", failing_linprog)
    if kind == "interval":
        dom, pts = make_domain(), [0.2, 0.5, 0.7]
    elif kind == "grid2d":
        dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.25, targets=[[0.0, 0.0]])
        pts = [[0.1, 0.3], [0.5, 0.5], [1.0, 0.2]]
    else:
        dom = GraphDomain(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], targets=[3], origin=0)
        pts = [(0.0, 1.0, 0.25), (1.0, 2.0, 0.5), (3.0, 3.0, 0.0)]
    mu = ParticleMeasure(dom, pts, [0.2, 0.3, 0.5])
    twin = ParticleMeasure(dom, mu.points.copy(), mu.weights.copy())
    for p in (1, 2):
        assert wasserstein(mu, mu, p) == 0.0
        assert wasserstein(mu, twin, p) == 0.0
    if kind != "interval":  # one weight ulp apart is not bit-identical: the LP runs
        twin.weights[0] = np.nextafter(twin.weights[0], 1.0)
        with pytest.raises(AssertionError, match="transport LP was called"):
            wasserstein(mu, twin, 1)


def transport_constraints_reference(n, m):
    """wasserstein_lp's equality constraints as the n*m double loop built them."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(m):
            k = i * m + j
            rows += [i, n + j]
            cols += [k, k]
            vals += [1.0, 1.0]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + m, n * m))


def wasserstein_lp_reference(dist, wx, wy, p=1):
    a_eq = transport_constraints_reference(*dist.shape)
    c = (np.asarray(dist, dtype=float) ** p).ravel()
    res = linprog(c, A_eq=a_eq[:-1], b_eq=np.concatenate([wx, wy])[:-1], bounds=(0, None),
                  method="highs")
    return max(res.fun, 0.0) ** (1.0 / p)


@pytest.mark.parametrize("n, m", [(1, 1), (3, 5), (7, 2)])
def test_transport_constraints_match_the_double_loop(n, m, monkeypatch):
    built = []
    monkeypatch.setattr("exitlab.measures.linprog",
                        lambda c, A_eq, **kw: built.append(A_eq) or linprog(c, A_eq=A_eq, **kw))
    rng = np.random.default_rng(n * 10 + m)
    dist = rng.uniform(0.0, 1.0, (n, m))
    wx, wy = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    for p in (1, 2):
        got = wasserstein_lp(dist, wx, wy, p)
        assert np.array_equal(np.float64(got).view(np.int64),
                              np.float64(wasserstein_lp_reference(dist, wx, wy, p)).view(np.int64))
    ref = transport_constraints_reference(n, m)[:-1]
    assert len(built) == 2
    for a_eq in built:
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a_eq, attr), getattr(ref, attr))
            assert getattr(a_eq, attr).dtype == getattr(ref, attr).dtype


def test_p_moment_examples():
    dom = make_domain()
    assert ParticleMeasure.dirac(dom, 0.0).p_moment(2) == 0.0
    assert ParticleMeasure.dirac(dom, 0.4).p_moment(2) == pytest.approx(0.16)
    mu = ParticleMeasure(dom, [0.2, 0.6], [0.5, 0.5])
    assert mu.p_moment(2) == pytest.approx(0.5 * 0.04 + 0.5 * 0.36)


def test_weight_invariants():
    dom = make_domain()
    with pytest.raises(MeasureError):
        ParticleMeasure(dom, [0.1, 0.2], [0.6, 0.6])
    with pytest.raises(MeasureError):
        ParticleMeasure(dom, [0.1], [-1.0])
    # a NaN weight or point fails the checks, as a wrong one does
    with pytest.raises(MeasureError, match="NaN atom weight"):
        ParticleMeasure(dom, [0.5], [np.nan])
    with pytest.raises(MeasureError, match="NaN atom weight"):
        ParticleMeasure(dom, [0.1, 0.2], [np.nan, 1.0])
    with pytest.raises(DomainError, match="outside"):
        ParticleMeasure(dom, [np.nan], [1.0])
    with pytest.raises(MeasureError, match="sum to 1"):
        TrajectoryEnsemble(dom, 0.1, np.zeros((1, 3)), [np.nan])
    mu = ParticleMeasure(dom, [0.1, 0.2, 0.1], [0.25, 0.5, 0.25])
    assert abs(mu.weights.sum() - 1.0) <= 1e-12
    merged = mu.merged()
    assert merged.n_atoms == 2
    assert abs(merged.weights.sum() - 1.0) <= 1e-12


def make_gamma_r_ensemble(dom, dt=0.005, horizon=1.0):
    """Single trajectory min(1/2 + t, 1) sampled on the grid."""
    n = int(round(horizon / dt))
    t = np.arange(n + 1) * dt
    path = np.minimum(0.5 + t, 1.0)
    exit_idx = int(np.searchsorted(path, 1.0 - 1e-12))
    return TrajectoryEnsemble(dom, dt, path[None, :], np.array([1.0]),
                              exit_indices=np.array([exit_idx]))


def test_time_marginal_examples():
    dom = make_domain(dx=0.005)
    ens = make_gamma_r_ensemble(dom)
    m0 = ens.time_marginal(0.0)
    assert m0.points[0] == 0.5 and m0.weights[0] == 1.0
    m_half = ens.time_marginal(0.5)
    assert m_half.points[0] == pytest.approx(1.0)
    with pytest.raises(MeasureError):
        ens.time_marginal(ens.horizon + 1.0)


def test_time_marginal_mass_and_initial_exactness():
    dom = make_domain()
    rng = np.random.default_rng(2)
    starts = rng.uniform(0.2, 0.8, 12)
    n_steps = 40
    samples = np.maximum(starts[:, None] - np.arange(n_steps + 1)[None, :] * 0.01, 0.0)
    w = rng.uniform(0.1, 1, 12)
    ens = TrajectoryEnsemble(dom, 0.01, samples, w / w.sum())
    m0 = ens.time_marginal(0.0)
    assert np.allclose(m0.points, starts)
    assert m0.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_marginal_continuity_bound(seed):
    """W_p(e_t#Q, e_s#Q) <= k_max |t - s| + dx for Lipschitz ensembles."""
    dom = make_domain()
    rng = np.random.default_rng(seed)
    k_max = 1.0
    dt = dom.dx / k_max
    n_traj, n_steps = 10, 60
    starts = rng.uniform(0.3, 0.9, n_traj)
    steps = rng.uniform(-1, 1, (n_traj, n_steps)) * k_max * dt
    samples = np.concatenate([starts[:, None], starts[:, None] + np.cumsum(steps, axis=1)], axis=1)
    samples = np.clip(samples, 0, 1)
    w = np.full(n_traj, 1 / n_traj)
    ens = TrajectoryEnsemble(dom, dt, samples, w)
    assert ens.row_scan()[2] - (k_max * dt + dom.dx) <= 1e-12  # the longest step
    for _ in range(10):
        t, s = rng.uniform(0, ens.horizon, 2)
        for p in (1, 2):
            gap = wasserstein(ens.time_marginal(t), ens.time_marginal(s), p)
            assert gap <= k_max * (abs(ens.time_index(t) - ens.time_index(s)) * dt) + dom.dx + 1e-9


def test_mix_merges_and_preserves_mass():
    dom = make_domain()
    path = np.linspace(0.5, 0.0, 11)
    base = TrajectoryEnsemble(dom, 0.05, path[None, :], np.array([1.0]),
                              exit_indices=np.array([10]))
    other_path = np.linspace(0.5, 1.0, 11)
    other = TrajectoryEnsemble(dom, 0.05, other_path[None, :], np.array([1.0]),
                               exit_indices=np.array([10]))
    mixed = base.mix(other, 0.25, 1e-9)
    assert mixed.n_traj == 2
    assert mixed.weights.sum() == pytest.approx(1.0, abs=1e-12)
    again = mixed.mix(other, 0.5, 1e-9)
    assert again.n_traj == 2  # identical trajectory merged, not duplicated
    assert again.weights.sum() == pytest.approx(1.0, abs=1e-12)


def merged_points_reference(m):
    """Dict-based ParticleMeasure.merged: keys are float hex / point bytes."""
    seen = {}
    for k in range(m.n_atoms):
        key = m.points[k].tobytes() if m.points.ndim > 1 else float(m.points[k]).hex()
        if key in seen:
            seen[key][1] += m.weights[k]
        else:
            seen[key] = [m.points[k], m.weights[k]]
    return (np.array([v[0] for v in seen.values()]),
            np.array([v[1] for v in seen.values()]))


def merged_ensemble_reference(ens):
    """Dict-based TrajectoryEnsemble.merged: keys are (exit, sample bytes)."""
    seen = {}
    for k in range(ens.n_traj):
        key = (int(ens.exit_indices[k]), ens.samples[k].tobytes())
        if key in seen:
            seen[key][1] += ens.weights[k]
        else:
            seen[key] = [k, ens.weights[k]]
    idx = np.array([v[0] for v in seen.values()], dtype=int)
    return idx, np.array([v[1] for v in seen.values()])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["repeats", "signed_zero", "grid2d"])
def test_particle_merge_matches_dict_reference(case):
    rng = np.random.default_rng(4)
    if case == "grid2d":
        dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.25, targets=[[0.0, 0.0]])
        pts = rng.choice([0.0, -0.0, 0.25, 0.5], size=(60, 2))
    else:
        dom = make_domain()
        values = [0.0, -0.0] if case == "signed_zero" else [0.1, 0.3, 0.30000000000000004, 0.7]
        pts = rng.choice(values, size=60)
    w = rng.uniform(0.1, 1.0, len(pts))
    m = ParticleMeasure(dom, pts, w / w.sum(), validate=False)
    ref_pts, ref_w = merged_points_reference(m)
    out = m.merged()
    assert _same_bits(out.points, ref_pts)
    assert _same_bits(out.weights, ref_w)
    if case == "signed_zero":
        assert out.n_atoms == 2


@pytest.mark.parametrize("dim", [1, 2])
def test_trajectory_merge_matches_dict_reference(dim):
    rng = np.random.default_rng(5)
    if dim == 1:
        dom = make_domain()
        paths = np.array([[0.5, 0.25, 0.0], [0.5, 0.25, -0.0], [0.5, 0.75, 1.0]])
    else:
        dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.25, targets=[[0.0, 0.0]])
        paths = np.array([[[0.5, 0.5], [0.25, 0.0], [0.0, 0.0]],
                          [[0.5, 0.5], [0.25, -0.0], [0.0, 0.0]],
                          [[0.5, 0.5], [0.5, 0.25], [0.5, 0.5]]])
    n = 80
    pick = rng.integers(0, len(paths), n)
    exits = rng.choice([-1, 2], n)
    w = rng.uniform(0.1, 1.0, n)
    ens = TrajectoryEnsemble(dom, 0.25, paths[pick], w / w.sum(), exit_indices=exits,
                             exit_nodes=np.arange(n), validate=False)
    idx, ref_w = merged_ensemble_reference(ens)
    out = merged(ens)
    assert _same_bits(out.samples, ens.samples[idx])
    assert _same_bits(out.weights, ref_w)
    assert np.array_equal(out.exit_indices, ens.exit_indices[idx])
    assert np.array_equal(out.exit_nodes, idx)
    # 3 paths x 2 exits: equal samples with another exit stay apart
    assert out.n_traj == 6
