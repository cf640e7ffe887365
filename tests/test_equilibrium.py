"""Best response, exploitability, certification, and the fixed-point loop."""
import numpy as np
import pytest

from exitlab.asymptotics import limit_measure
from exitlab.congestion import Chi, CongestionKernel, Eta, Kappa
from exitlab.domain import DomainError, ExitCost, IntervalDomain
from exitlab.equilibrium import (EquilibriumConfig, _bound_checks, certify, exploitability,
                                 field_from_marginals, frozen_field, run_grid,
                                 solve_equilibrium)
from exitlab.measures import ParticleMeasure, TrajectoryEnsemble
from exitlab.ocp import default_dpp_tol, solve_value


def remark_game(dx=0.005):
    dom = IntervalDomain(0.0, 1.0, dx, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    kernel = CongestionKernel(dom, Kappa("constant", value=1.0),
                              Chi("constant", value=0.0), Eta("constant", value=1.0))
    return dom, cost, kernel


def congested_game(dx=0.01):
    dom = IntervalDomain(0.0, 1.0, dx, targets=[1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    kernel = CongestionKernel(
        dom,
        Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
        Chi("gaussian", width=0.05, amplitude=0.6),
        Eta("taper", distance=0.1))
    return dom, cost, kernel


def build_line_ensemble(dom, dt, start, target_coord, n_steps, speed=1.0):
    """One unit-speed trajectory from start to a target coordinate."""
    t = np.arange(n_steps + 1) * dt
    direction = np.sign(target_coord - start)
    path = np.clip(start + direction * speed * t, min(start, target_coord),
                   max(start, target_coord))
    exit_idx = int(np.argmax(path == target_coord))
    return TrajectoryEnsemble(dom, dt, path[None, :], np.array([1.0]),
                              exit_indices=np.array([exit_idx]),
                              exit_nodes=np.array([dom.node_at(target_coord)]))


def best_response(m0, dom, cost, kernel):
    """The iteration's first best response, to the frozen field K(m0, .).

    Returns (ensemble, value of the frozen field, dt).
    """
    report = solve_equilibrium(m0, kernel, cost, EquilibriumConfig(max_iterations=1))
    dt, n_steps, _, _ = run_grid(kernel, cost, m0)
    phi = solve_value(dom, cost, frozen_field(m0, kernel, dt, n_steps))
    return report.final_ensemble, phi, dt


def test_induced_field_constant_kernel():
    dom, cost, kernel = remark_game()
    ens = build_line_ensemble(dom, 0.005, 0.5, 0.0, 120)
    field = field_from_marginals(kernel, ens, False)
    assert np.all(field.values == 1.0)


def test_induced_field_far_cloud_ball_chi():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0])
    kernel = CongestionKernel(dom, Kappa("affine_clamped", intercept=0.9, slope=1.0, floor=0.2),
                              Chi("ball", radius=0.05), Eta("constant", value=1.0))
    ens = build_line_ensemble(dom, 0.01, 0.9, 0.9, 10, speed=0.0)
    field = field_from_marginals(kernel, ens, False)
    x_far = dom.node_at(0.2)
    assert np.allclose(field.values[:, x_far], 0.9)  # kappa(0)
    x_near = dom.node_at(0.9)
    assert np.allclose(field.values[:, x_near], 0.2)  # single atom in range


def test_best_response_preserves_initial_marginal():
    dom, cost, kernel = remark_game()
    m0 = ParticleMeasure(dom, [0.21, 0.5, 0.83], [0.25, 0.5, 0.25])
    ens, _, _ = best_response(m0, dom, cost, kernel)
    e0 = ens.time_marginal(0.0)
    assert np.array_equal(e0.points, m0.points)
    assert np.array_equal(e0.weights, m0.weights)


def test_best_response_is_optimal_for_its_field():
    dom, cost, kernel = congested_game()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 0.2, 30)
    m0 = ParticleMeasure(dom, pts, np.full(30, 1 / 30))
    ens, phi, dt = best_response(m0, dom, cost, kernel)
    tol = default_dpp_tol(dom, dt)
    realized = ens.exit_indices * dt
    gaps = realized - phi.at_points(0, ens.samples[:, 0])
    assert np.max(gaps) <= tol


def test_exploitability_of_misrouted_atom():
    """Sending the 0.3 atom to the far exit costs 0.7 against a value of 0.3."""
    dom, cost, kernel = remark_game()
    dt = 0.005
    n_steps = 220
    ens = build_line_ensemble(dom, dt, 0.3, 1.0, n_steps)
    eps, det = exploitability(ens, kernel, cost)
    assert eps == pytest.approx(0.4, abs=default_dpp_tol(dom, dt))


def test_exploitability_of_optimal_mixture():
    dom, cost, kernel = remark_game()
    dt = 0.005
    n_steps = 140
    left = build_line_ensemble(dom, dt, 0.5, 0.0, n_steps)
    right = build_line_ensemble(dom, dt, 0.5, 1.0, n_steps)
    for alpha in (0.0, 0.3, 1.0):
        mix = TrajectoryEnsemble(
            dom, dt, np.concatenate([left.samples, right.samples]),
            np.array([alpha, 1 - alpha]),
            exit_indices=np.concatenate([left.exit_indices, right.exit_indices]))
        eps, _ = exploitability(mix, kernel, cost)
        assert abs(eps) <= default_dpp_tol(dom, dt)


def test_solve_remark_dirac_converges_immediately():
    dom, cost, kernel = remark_game()
    m0 = ParticleMeasure.dirac(dom, 0.3)
    report = solve_equilibrium(m0, kernel, cost,
                               EquilibriumConfig(exploitability_tol=0.01))
    assert report.converged and report.iterations == 1
    assert abs(report.history[-1]["exploitability"]) <= 0.01
    m_inf = limit_measure(report.final_ensemble)
    assert m_inf is not None
    assert m_inf.points[0] == 0.0  # Lim(delta_a) = delta_0 for a < 1/2


def test_solve_initial_mass_on_target():
    dom, cost, kernel = remark_game()
    m0 = ParticleMeasure(dom, [0.0, 1.0], [0.5, 0.5])
    report = solve_equilibrium(m0, kernel, cost,
                               EquilibriumConfig(exploitability_tol=0.01))
    assert report.converged and report.iterations == 1
    assert np.all(report.final_ensemble.exit_indices == 0)
    m_inf = limit_measure(report.final_ensemble)
    assert m_inf is not None
    got = dict(zip(m_inf.points.tolist(), m_inf.weights.tolist()))
    assert got == {0.0: pytest.approx(0.5), 1.0: pytest.approx(0.5)}


def test_congested_solve_certifies_and_flags_agree():
    dom, cost, kernel = congested_game()
    m0 = ParticleMeasure(dom, np.linspace(0.005, 0.195, 40), np.full(40, 1 / 40))
    config = EquilibriumConfig(max_iterations=60, damping="constant",
                               damping_value=0.4, exploitability_tol=0.15)
    report = solve_equilibrium(m0, kernel, cost, config)
    assert report.converged
    assert report.iterations > 1  # genuine congestion feedback
    cert = certify(report.final_ensemble, kernel, cost, report.certification["tol"])
    assert cert["weak"] and cert["strong"] and cert["agree"]
    assert all(c["passed"] for c in _bound_checks(report, m0, kernel, cost))


def test_two_exit_congestion_splits_the_crowd():
    """With both exits open, congestion pushes part of a crowd that is
    uniformly nearer the right exit onto the longer left route."""
    dom = IntervalDomain(0.0, 1.0, 0.008, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    kernel = CongestionKernel(
        dom,
        Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
        Chi("gaussian", width=0.06, amplitude=0.8),
        Eta("taper", distance=0.1))
    pts = 0.52 + 0.2 * (np.arange(80) + 0.5) / 80
    m0 = ParticleMeasure(dom, pts, np.full(80, 1 / 80))
    config = EquilibriumConfig(max_iterations=80, damping="constant",
                               damping_value=0.4, exploitability_tol=0.15)
    report = solve_equilibrium(m0, kernel, cost, config)
    assert report.converged
    exits = report.final_ensemble.samples[:, -1]
    left_mass = float(report.final_ensemble.weights[exits < 0.5].sum())
    assert 0.05 <= left_mass <= 0.5
    assert all(c["passed"] for c in _bound_checks(report, m0, kernel, cost))


def test_certify_rejects_suboptimal_mixture():
    dom, cost, kernel = remark_game()
    dt = 0.005
    n_steps = 220
    good = build_line_ensemble(dom, dt, 0.3, 0.0, n_steps)
    bad = build_line_ensemble(dom, dt, 0.3, 1.0, n_steps)
    mix = TrajectoryEnsemble(
        dom, dt, np.concatenate([good.samples, bad.samples]),
        np.array([0.5, 0.5]),
        exit_indices=np.concatenate([good.exit_indices, bad.exit_indices]))
    cert = certify(mix, kernel, cost, tol=0.15)
    assert not cert["weak"] and not cert["strong"]
    assert cert["agree"]


def test_certification_is_seed_stable():
    dom, cost, kernel = remark_game()
    m0 = ParticleMeasure.dirac(dom, 0.3)
    config = EquilibriumConfig(exploitability_tol=0.01)
    report = solve_equilibrium(m0, kernel, cost, config)
    base = certify(report.final_ensemble, kernel, cost, 0.01)
    for _ in range(3):
        again = certify(report.final_ensemble, kernel, cost, 0.01)
        assert again["epsilon"] == base["epsilon"]


def test_non_convergence_is_reported_not_raised():
    dom, cost, kernel = congested_game()
    m0 = ParticleMeasure(dom, np.linspace(0.005, 0.195, 40), np.full(40, 1 / 40))
    config = EquilibriumConfig(max_iterations=1, damping="constant",
                               damping_value=0.4, exploitability_tol=1e-6)
    report = solve_equilibrium(m0, kernel, cost, config)
    assert not report.converged
    assert report.iterations == 1
    assert len(report.history) == 1


def test_exploitability_floor():
    """The weighted residual never drops below -tol_dpp on optimal ensembles."""
    dom, cost, kernel = remark_game()
    m0 = ParticleMeasure(dom, np.linspace(0.1, 0.9, 9), np.full(9, 1 / 9))
    report = solve_equilibrium(m0, kernel, cost,
                               EquilibriumConfig(exploitability_tol=0.02))
    assert report.converged
    assert report.history[-1]["exploitability"] >= -default_dpp_tol(dom, report.final_ensemble.dt)


def test_exploitability_rejects_foreign_speeding():
    """An ensemble with steps far beyond its own field's budget is not in the
    admissible class and cannot be certified, though it can be measured."""
    from exitlab.equilibrium import CertificationError

    dom, cost, kernel = remark_game(dx=0.01)
    dt = 0.01
    n_steps = 60
    t = np.arange(n_steps + 1) * dt
    path = np.maximum(0.9 - 5.0 * t, 0.0)  # speed 5 against a cap of 1
    exit_idx = int(np.argmax(path == 0.0))
    ens = TrajectoryEnsemble(dom, dt, path[None, :], np.array([1.0]),
                             exit_indices=np.array([exit_idx]))
    eps, _ = exploitability(ens, kernel, cost)
    assert np.isfinite(eps)
    with pytest.raises(CertificationError, match="admissible"):
        certify(ens, kernel, cost, tol=0.15)


def test_induced_field_inherits_kernel_lipschitz():
    """The field k_Q(t, x) obeys the kernel's certified spatial constant."""
    dom, cost, kernel = congested_game()
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 0.2, 25)
    m0 = ParticleMeasure(dom, pts, np.full(25, 1 / 25))
    dt, n_steps, _, _ = run_grid(kernel, cost, m0)
    field = frozen_field(m0, kernel, dt, min(n_steps, 50))
    l_r, _ = kernel.estimate_lipschitz()
    nodes = dom.node_points()
    dist = dom.point_distance_matrix(nodes, nodes)
    # (H6) over all node pairs of every distinct slice
    for k in np.unique(field.values, axis=0):
        assert np.max(np.abs(k[:, None] - k[None, :]) - l_r * dist) <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        EquilibriumConfig(max_iterations=0)
    with pytest.raises(ValueError):
        EquilibriumConfig(exploitability_tol=0.0)
    with pytest.raises(ValueError):
        EquilibriumConfig(damping="constant", damping_value=1.5)
    with pytest.raises(ValueError):
        EquilibriumConfig(damping="secant")
    fp = EquilibriumConfig()
    assert fp.weight(0) == 1.0 and fp.weight(3) == 0.25


@pytest.mark.parametrize("entry", ["solve_equilibrium", "exploitability", "certify"])
def test_a_game_on_two_domain_objects_raises_domain_error(entry):
    """The kernel, the exit cost and the measure or ensemble of one game live
    on one domain object; a twin domain with the same grid is another one."""
    dom, cost, kernel = remark_game(dx=0.02)
    twin, twin_cost, twin_kernel = remark_game(dx=0.02)
    m0 = ParticleMeasure.dirac(dom, 0.3)
    config = EquilibriumConfig(exploitability_tol=0.05)
    ens = solve_equilibrium(m0, kernel, cost, config).final_ensemble
    twin_ens = TrajectoryEnsemble(twin, ens.dt, ens.samples, ens.weights,
                                  exit_indices=ens.exit_indices, exit_nodes=ens.exit_nodes)
    calls = {
        "solve_equilibrium": lambda m, k, c: solve_equilibrium(
            ParticleMeasure(m.domain, m0.points, m0.weights), k, c, config),
        "exploitability": lambda e, k, c: exploitability(e, k, c),
        "certify": lambda e, k, c: certify(e, k, c, 0.05),
    }
    call = calls[entry]
    call(ens, kernel, cost)  # one domain: no error
    for parts in ((twin_ens, kernel, cost), (ens, twin_kernel, cost), (ens, kernel, twin_cost)):
        with pytest.raises(DomainError, match="live on different domains"):
            call(*parts)
