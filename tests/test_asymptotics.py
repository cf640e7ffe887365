"""Limit extraction, convergence curves, decay bounds and rates, stability."""
import json

import numpy as np
import pytest

from exitlab import runner
from exitlab.asymptotics import (ConvergenceCurve, ShrinkWindowError,
                                 convergence_curve, curve_bound_excess,
                                 decay_constants, fit_decay_rate, limit_measure,
                                 p_moment_excess, psi_function, settling_time,
                                 theorem_bound, transport_distance)
from exitlab.congestion import Chi, CongestionKernel, Eta, Kappa
from exitlab.domain import ExitCost, Grid2dDomain, IntervalDomain
from exitlab.equilibrium import EquilibriumConfig, solve_equilibrium
from exitlab.measures import MeasureError, ParticleMeasure, TrajectoryEnsemble, wasserstein
from exitlab.scenarios import load_scenario
from test_measures import failing_linprog


def remark_game(dx=0.005):
    dom = IntervalDomain(0.0, 1.0, dx, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    kernel = CongestionKernel(dom, Kappa("constant", value=1.0),
                              Chi("constant", value=0.0), Eta("constant", value=1.0))
    return dom, cost, kernel


def line_path(dom, dt, start, target, n_steps):
    t = np.arange(n_steps + 1) * dt
    d = np.sign(target - start)
    path = np.clip(start + d * t, min(start, target), max(start, target))
    exit_idx = int(np.argmax(path == target)) if np.any(path == target) else -1
    return path, exit_idx


def two_sided_ensemble(dom, alpha, dt=0.005, n_steps=140):
    left, el = line_path(dom, dt, 0.5, 0.0, n_steps)
    right, er = line_path(dom, dt, 0.5, 1.0, n_steps)
    return TrajectoryEnsemble(dom, dt, np.stack([left, right]),
                              np.array([alpha, 1 - alpha]), exit_indices=np.array([el, er]))


def test_limit_measure_examples():
    dom, cost, kernel = remark_game()
    report = solve_equilibrium(ParticleMeasure.dirac(dom, 0.3), kernel, dom, cost,
                               EquilibriumConfig(exploitability_tol=0.01))
    m_inf = limit_measure(report.final_ensemble)
    assert m_inf.n_atoms == 1 and m_inf.points[0] == 0.0

    ens = two_sided_ensemble(dom, 0.25)
    m_inf = limit_measure(ens)
    got = dict(zip(m_inf.points.tolist(), m_inf.weights.tolist()))
    assert got == {0.0: pytest.approx(0.25), 1.0: pytest.approx(0.75)}


def test_limit_measure_requires_settling():
    dom, _, _ = remark_game()
    path, _ = line_path(dom, 0.005, 0.9, 0.0, 60)  # still moving at the end
    ens = TrajectoryEnsemble(dom, 0.005, path[None, :], np.array([1.0]))
    with pytest.raises(MeasureError, match="horizon too short"):
        limit_measure(ens)


def test_convergence_curve_matches_line_formula():
    dom, cost, kernel = remark_game()

    def w1_curve(ens, times):
        return convergence_curve(ens, times, 1, ens.time_marginal(0.0), dom, cost,
                                 (kernel.k_min, kernel.k_max), limit_measure(ens))

    path, e = line_path(dom, 0.005, 0.5, 0.0, 140)
    ens = TrajectoryEnsemble(dom, 0.005, path[None, :], np.array([1.0]),
                             exit_indices=np.array([e]))
    times = np.arange(0, 0.7, 0.05)
    curve = w1_curve(ens, times)
    expected = np.maximum(0.5 - times, 0.0)
    assert np.max(np.abs(curve.values - expected)) <= 1e-9
    # symmetric two-atom mixture: each atom is (0.5 - t) from its own exit
    sym = two_sided_ensemble(dom, 0.5)
    curve2 = w1_curve(sym, times)
    assert np.max(np.abs(curve2.values - expected)) <= 1e-9


def test_transport_distance_projects_an_over_cap_identical_pair(monkeypatch):
    monkeypatch.setattr("exitlab.measures.linprog", failing_linprog)
    dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.5, targets=[[0.0, 0.0]])
    pts = np.tile(dom.coords, (60, 1))[:600]
    mu = ParticleMeasure(dom, pts, np.full(len(pts), 1.0 / len(pts)), validate=False)
    assert transport_distance(mu, mu, 1) == (0.0, True)


def test_a_failed_transport_lp_raises_and_is_not_projected(monkeypatch):
    """Only the first LP fails: a retry on node-projected measures would succeed."""
    from scipy.optimize import OptimizeResult

    import exitlab.measures as measures

    calls = []
    lp = measures.linprog

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return OptimizeResult(success=False, status=4, message="forced failure", fun=None)
        return lp(*args, **kwargs)

    monkeypatch.setattr(measures, "linprog", fail_once)
    dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.5, targets=[[0.0, 0.0]])
    mu = ParticleMeasure(dom, [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    nu = ParticleMeasure.dirac(dom, [0.5, 0.5])
    with pytest.raises(MeasureError, match="transport LP failed: forced failure"):
        transport_distance(mu, nu, 1)
    assert len(calls) == 1


def test_settling_time_examples():
    dom, cost, kernel = remark_game()
    report = solve_equilibrium(ParticleMeasure.dirac(dom, 0.5), kernel, dom, cost,
                               EquilibriumConfig(exploitability_tol=0.01))
    t_star = settling_time(report.final_ensemble)
    assert t_star == pytest.approx(0.5, abs=report.dt + 1e-12)

    on_target = solve_equilibrium(ParticleMeasure.dirac(dom, 0.0), kernel, dom, cost,
                                  EquilibriumConfig(exploitability_tol=0.01))
    assert settling_time(on_target.final_ensemble) == 0.0

    path, _ = line_path(dom, 0.005, 0.9, 0.0, 60)
    moving = TrajectoryEnsemble(dom, 0.005, path[None, :], np.array([1.0]))
    assert settling_time(moving) is None


def test_settling_time_uniform_band():
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0], origin=0.0)
    cost = ExitCost.zero(dom)
    kernel = CongestionKernel(dom, Kappa("constant", value=1.0),
                              Chi("constant", value=0.0), Eta("constant", value=1.0))
    pts = 0.8 + 0.2 * (np.arange(50) + 0.5) / 50
    m0 = ParticleMeasure(dom, pts, np.full(50, 0.02))
    report = solve_equilibrium(m0, kernel, dom, cost,
                               EquilibriumConfig(exploitability_tol=0.02))
    t_star = settling_time(report.final_ensemble)
    assert t_star == pytest.approx(1.0, abs=2 * report.dt)


# ---- "settled" as the step-length scans defined it ------------------------

def settling_time_by_steps(ens, tol=1e-12):
    """settling_time as it scanned every step length against tol."""
    moving = ens.step_lengths(slice(None)) > tol
    if not moving.any():
        return 0.0
    last = int(np.max(np.nonzero(moving.any(axis=0))[0]))
    return None if last == ens.n_steps - 1 else (last + 1) * ens.dt


def limit_guard_by_steps(ens, tol=1e-12):
    """The limit guard as it scanned the last two step lengths against tol."""
    return bool(np.max(ens.step_lengths(slice(None))[:, -2:], initial=0.0) <= tol)


def has_limit(ens):
    try:
        limit_measure(ens)
    except MeasureError:
        return False
    return True


def solved_reports():
    dom, cost, kernel = remark_game(dx=0.01)
    config = EquilibriumConfig(exploitability_tol=0.02)
    m0s = [ParticleMeasure.dirac(dom, 0.3), ParticleMeasure.dirac(dom, 0.0),
           ParticleMeasure(dom, [0.0, 1.0], [0.5, 0.5]),
           ParticleMeasure(dom, np.linspace(0.2, 0.8, 13), np.full(13, 1 / 13))]
    reports = [solve_equilibrium(m0, kernel, dom, cost, config) for m0 in m0s]
    congested = CongestionKernel(dom, Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                                 Chi("gaussian", width=0.1, amplitude=0.6),
                                 Eta("taper", distance=0.1))
    m0 = ParticleMeasure(dom, np.linspace(0.3, 0.6, 16), np.full(16, 1 / 16))
    reports.append(solve_equilibrium(m0, congested, dom, cost,
                                     EquilibriumConfig(max_iterations=5, damping="constant",
                                                       damping_value=0.4)))
    return reports


def test_solved_ensembles_settle_as_the_step_lengths_said():
    for report in solved_reports():
        ens = report.final_ensemble
        assert settling_time(ens) == settling_time_by_steps(ens)
        assert (report.m_infinity is not None) == limit_guard_by_steps(ens) == has_limit(ens)
        if report.m_infinity is not None:
            again = limit_measure(ens)
            assert np.array_equal(again.points, report.m_infinity.points)
            assert np.array_equal(again.weights, report.m_infinity.weights)


def held_path(n_steps, start, stop, last_move, dt=0.01):
    """A path that moves by dt per step up to step last_move, then holds still."""
    j = np.minimum(np.arange(n_steps + 1), last_move + 1)
    return np.minimum(start + j * dt, stop)


def hand_built_ensembles():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[1.0], origin=0.0)
    out = {}
    for n_steps in (0, 1):
        still = np.full((2, n_steps + 1), 0.5)
        out[f"n_steps_{n_steps}_still"] = TrajectoryEnsemble(dom, 0.01, still, [0.5, 0.5])
    out["n_steps_1_moving"] = TrajectoryEnsemble(dom, 0.01, [[0.5, 0.51], [0.5, 0.5]], [0.5, 0.5])
    out["n_steps_2_moving_first"] = TrajectoryEnsemble(dom, 0.01, [[0.5, 0.51, 0.51]], [1.0])
    for last_move in (17, 18, 19, 5):  # moving at the last step, the one before, ...
        rows = [held_path(20, 0.3, 1.0, last_move), held_path(20, 0.5, 1.0, 3)]
        out[f"last_move_{last_move}"] = TrajectoryEnsemble(dom, 0.01, rows, [0.5, 0.5])
    # rows recorded as exited at slice 2 that move on afterwards: settled_slice
    # then compares the slices one by one from the end
    for last_move in (8, 19):
        rows = [held_path(20, 0.3, 1.0, last_move), held_path(20, 0.6, 1.0, 1)]
        out[f"moves_after_exit_{last_move}"] = TrajectoryEnsemble(
            dom, 0.01, rows, [0.5, 0.5], exit_indices=[2, 2], exit_nodes=[0, 0])
    grid = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.05, targets=[[1.0, 0.5]])
    rng = np.random.default_rng(3)
    walk = np.clip(0.5 + np.cumsum(rng.normal(0.0, 0.02, (4, 31, 2)), axis=1), 0.0, 1.0)
    for hold in (10, 29, 30):
        held = walk.copy()
        held[:, hold:] = held[:, hold:hold + 1]
        out[f"grid2d_held_from_{hold}"] = TrajectoryEnsemble(grid, 0.01, held, np.full(4, 0.25))
    return out


@pytest.mark.parametrize("name", sorted(hand_built_ensembles()))
def test_hand_built_ensembles_settle_as_the_step_lengths_said(name):
    ens = hand_built_ensembles()[name]
    assert settling_time(ens) == settling_time_by_steps(ens)
    assert has_limit(ens) == limit_guard_by_steps(ens)


def test_theorem_bound_edges():
    dom, cost, kernel = remark_game()
    bounds = (kernel.k_min, kernel.k_max)
    alpha, t0 = decay_constants(dom, cost, bounds)
    psi = psi_function(dom, cost, bounds)
    m0 = ParticleMeasure(dom, [0.3, 0.7], [0.5, 0.5])
    whole = theorem_bound(m0, psi, alpha, t0, t0, 1)
    expected = 2.0 * float(np.sum(m0.weights * psi(m0.origin_distances())))
    assert whole == pytest.approx(expected)
    # compact support: the bound vanishes once the exclusion ball covers it
    t_large = t0 + 0.7 / alpha + 1.0
    assert theorem_bound(m0, psi, alpha, t0, t_large, 1) == 0.0
    with pytest.raises(ValueError):
        theorem_bound(m0, psi, alpha, t0, t0 - 1.0, 1)


def test_theorem_bound_power_tail_decay():
    """With a beta = 4 tail the bound itself decays like t^-2 (p = d = 1)."""
    dom = IntervalDomain(0.0, 60.0, 0.05, targets=[0.0], origin=0.0)
    cost = ExitCost.zero(dom)
    bounds = (1.0, 1.0)
    alpha, t0 = decay_constants(dom, cost, bounds)
    psi = psi_function(dom, cost, bounds)
    beta = 4.0
    n = 4000
    # quantile atoms of the pure tail law on [1, 60]
    q = (np.arange(n) + 0.5) / n
    total = (1 - 60.0 ** (1 - beta)) / (beta - 1)
    pts = (1 - (beta - 1) * q * total) ** (1 / (1 - beta))
    m0 = ParticleMeasure(dom, pts, np.full(n, 1 / n))
    ts = np.geomspace(2, 12, 8)
    vals = [theorem_bound(m0, psi, alpha, t0, t, 1) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-(beta - 1 - 1), abs=0.25)


def test_fit_decay_rate_recovers_synthetic_models():
    times = np.geomspace(1.0, 20.0, 40)
    power = ConvergenceCurve(times, times ** -2.0, np.full(40, np.nan), 1)
    fit = fit_decay_rate(power, (1.0, 20.0), "power", 1)
    assert fit.value == pytest.approx(-2.0, abs=1e-6)
    assert fit.residual <= 1e-9

    gamma = 1.7
    expo = ConvergenceCurve(times, times ** 1.0 * np.exp(-gamma * times),
                            np.full(40, np.nan), 1)
    fit2 = fit_decay_rate(expo, (2.0, 15.0), "exponential", tail_dimension=1)
    assert fit2.value == pytest.approx(gamma, abs=1e-6)


def test_fit_decay_rate_window_errors():
    times = np.linspace(1.0, 10.0, 10)
    vals = np.maximum(5.0 - times, 0.0)
    curve = ConvergenceCurve(times, vals, np.full(10, np.nan), 1)
    with pytest.raises(ShrinkWindowError, match="zero"):
        fit_decay_rate(curve, (1.0, 10.0), "power", 1)
    with pytest.raises(ShrinkWindowError, match="samples"):
        fit_decay_rate(curve, (1.0, 1.5), "power", 1)
    # log t at t = 0 is -inf: the window is refused before any fit
    at_zero = ConvergenceCurve(np.linspace(0.0, 1.0, 5), np.full(5, 0.5), np.full(5, np.nan), 1)
    for mode in ("power", "exponential"):
        with pytest.raises(ShrinkWindowError, match="<= 0"):
            fit_decay_rate(at_zero, (0.0, 1.0), mode, 1)


def test_curve_bound_and_moment_checks_on_solved_game():
    dom, cost, kernel = remark_game()
    m0 = ParticleMeasure(dom, [0.25, 0.5, 0.75], [0.25, 0.5, 0.25])
    report = solve_equilibrium(m0, kernel, dom, cost,
                               EquilibriumConfig(exploitability_tol=0.02))
    ens = report.final_ensemble
    bounds = (kernel.k_min, kernel.k_max)
    times = np.arange(0.0, ens.horizon, 0.05)
    curve = convergence_curve(ens, times, 1, m0=m0, domain=dom, cost=cost, bounds=bounds,
                              m_inf=limit_measure(ens))
    assert curve_bound_excess(curve, 4 * (report.dt + dom.dx)) <= 1e-9
    assert p_moment_excess(ens, m0, dom, cost, bounds, times, 1) <= 1e-9


def stability_sweep(tmp_path, location, members):
    """runner.sweep of remark_5_13 from a template at location over the
    member locations: (sweep_report, stability_report, reference ledger)."""
    cfg = load_scenario("remark_5_13")
    cfg["initial_measure"]["location"] = location
    out = tmp_path / "sweep"
    aggregate = runner.sweep(cfg, {"initial_measure.location": members}, str(out))
    table = json.loads((out / "stability_report.json").read_text())
    reference = json.loads((out / "reference" / "report.json").read_text())
    return aggregate, table, reference


def test_stability_sweep_remark_case_table(tmp_path):
    dom, cost, kernel = remark_game()
    config = EquilibriumConfig(exploitability_tol=0.01)
    # limits flip across a = 1/2: delta_1 above, delta_0 below
    limits = []
    for a in (0.7, 0.55, 0.45, 0.3):
        member_rep = solve_equilibrium(ParticleMeasure.dirac(dom, a), kernel,
                                       dom, cost, config)
        limits.append(float(member_rep.m_infinity.points[0]))
    assert limits == [1.0, 1.0, 0.0, 0.0]
    # a decreasing perturbation schedule toward the base
    _, table, reference = stability_sweep(tmp_path, 0.5, [0.7, 0.55, 0.52])
    assert reference["equilibrium"]["converged"]
    assert table["reference"] == {"status": 0}
    rows = table["members"]
    assert [r["perturbation"] for r in rows] == [0.2, 0.05, 0.02]
    assert [r["limit_distance"] for r in rows] == [0.0, 0.0, 0.0]
    assert all(abs(r["cross_exploitability"]) <= 1e-15 for r in rows)
    assert all(r["converged"] and r["status"] == 0 for r in rows)
    assert table["schedule_monotone"]
    assert table["closed_graph_probe"] == {
        "perturbation": 0.02, "cross_exploitability": 1.11022302463e-16,
        "tolerance": 0.05, "passed": True}


def test_stability_zero_perturbation_matches_base(tmp_path):
    _, table, reference = stability_sweep(tmp_path, 0.3, [0.3])
    member = table["members"][0]
    assert member["perturbation"] == 0.0
    assert member["limit_distance"] == 0.0
    assert member["exploitability"] == reference["equilibrium"]["exploitability"]
    assert member["cross_exploitability"] == member["exploitability"]


def test_stability_convergent_family_containment(tmp_path):
    """Members a_n = 1/2 - 1/n all limit to delta_0, which the limit set
    {delta_0, delta_1} of the game at a = 1/2 contains, although the solver's
    own pick at 1/2 is delta_1."""
    dom, _, _ = remark_game()
    aggregate, table, reference = stability_sweep(
        tmp_path, 0.5, [0.5 - 1.0 / n for n in (4, 8, 16, 32)])
    assert reference["m_infinity"] == [[1.0, 1.0]]
    limit_set = [ParticleMeasure.dirac(dom, 0.0), ParticleMeasure.dirac(dom, 1.0)]
    for member in aggregate["members"]:
        atoms = np.array(member["m_infinity"])
        m_inf = ParticleMeasure(dom, atoms[:, 0], atoms[:, 1])
        assert min(wasserstein(m_inf, b, 1) for b in limit_set) <= 1e-9
        assert member["m_infinity"] == [[0.0, 1.0]]
    rows = table["members"]
    assert [r["perturbation"] for r in rows] == [0.25, 0.125, 0.0625, 0.03125]
    assert [r["limit_distance"] for r in rows] == [1.0, 1.0, 1.0, 1.0]
    assert [r["cross_exploitability"] for r in rows] == [
        2.77555756156e-17, 5.55111512313e-17, -0.0025, 0.00125]
    probe = table["closed_graph_probe"]
    assert probe["perturbation"] == 0.03125 and probe["tolerance"] == 0.05
    assert probe["passed"]
