"""Certification on the last iteration's field and value solve, and the moving-step gate."""
import numpy as np
import pytest

from exitlab import equilibrium
from exitlab.congestion import Chi, CongestionKernel, Eta, Kappa
from exitlab.domain import ExitCost, Grid2dDomain, IntervalDomain
from exitlab.equilibrium import (CertificationError, EquilibriumConfig, _use_binning,
                                 admissibility_excess, certify, exploitability,
                                 field_from_marginals, realized_costs, solve_equilibrium)
from exitlab.measures import ParticleMeasure, TrajectoryEnsemble
from exitlab.ocp import SpeedField


def congested_kernel(dom, width):
    return CongestionKernel(dom, Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                            Chi("gaussian", width=width, amplitude=0.6),
                            Eta("taper", distance=0.1))


def interval_game():
    """Congested interval exit that needs several iterations to converge."""
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[1.0], origin=0.0)
    kernel = congested_kernel(dom, 0.05)
    m0 = ParticleMeasure(dom, np.linspace(0.005, 0.195, 40), np.full(40, 1 / 40))
    return dom, ExitCost.zero(dom), kernel, m0, dict(exploitability_tol=0.15)


def grid2d_game():
    """Small congested room, three door nodes; stops at max_iterations."""
    dx = 0.05
    dom = Grid2dDomain([0.0, 0.0], [0.5, 0.5], dx, origin=[0.0, 0.25],
                       targets=[[0.5, 0.2], [0.5, 0.25], [0.5, 0.3]])
    kernel = congested_kernel(dom, 0.15)
    pts = np.array([[i * dx, j * dx] for i in range(4) for j in range(2, 9)])
    m0 = ParticleMeasure(dom, pts, np.full(len(pts), 1 / len(pts)))
    return dom, ExitCost.zero(dom), kernel, m0, dict(exploitability_tol=0.05, max_iterations=4)


# the work cap that forces a path: None keeps the size rule, -1 bins every
# field and 10**18 none
GAMES = [
    pytest.param(interval_game, None, id="interval"),
    pytest.param(grid2d_game, 10**18, id="grid2d-unbinned"),
    pytest.param(grid2d_game, -1, id="grid2d-binned"),
]


def solved(game, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(equilibrium, "BINNING_WORK_CAP", cap)
    dom, cost, kernel, m0, extra = game()
    config = EquilibriumConfig(damping="constant", damping_value=0.4, **extra)
    return dom, cost, kernel, solve_equilibrium(m0, kernel, cost, config)


@pytest.mark.parametrize("game, cap", GAMES)
def test_report_certification_equals_fresh_certify(game, cap, monkeypatch):
    dom, cost, kernel, report = solved(game, cap, monkeypatch)
    assert report.iterations > 1
    fresh = certify(report.final_ensemble, kernel, cost, report.certification["tol"])
    assert report.certification == fresh


@pytest.mark.parametrize("game, cap", GAMES)
def test_final_field_is_the_final_ensembles_induced_field(game, cap, monkeypatch):
    dom, _, kernel, report = solved(game, cap, monkeypatch)
    ens = report.final_ensemble
    binned = _use_binning(ens.n_traj, ens.n_steps + 1, dom.n_nodes)
    if cap is not None:
        assert binned == (cap == -1)
    again = field_from_marginals(kernel, ens, binned).values
    assert np.array_equal(report.final_phi.speed.values.view(np.int64), again.view(np.int64))


def test_exploitability_rejects_speeding_after_exit():
    """The gate reads every step, also those after the recorded exit index.
    exploitability measures the ensemble; certify rejects it."""
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0], origin=0.0)
    kernel = CongestionKernel(dom, Kappa("constant", value=1.0),
                              Chi("constant", value=0.0), Eta("constant", value=1.0))
    dt = 0.01
    t = np.arange(61) * dt
    path = np.minimum(np.maximum(5.0 * (t - 0.2), 0.0), 0.9)  # at the exit, then speed 5
    ens = TrajectoryEnsemble(dom, dt, path[None, :], np.array([1.0]),
                             exit_indices=np.zeros(1, dtype=int))
    assert ens.exit_indices[0] == 0 and ens.exit_nodes[0] == 0
    cost = ExitCost.zero(dom)
    eps, _ = exploitability(ens, kernel, cost)
    assert np.isfinite(eps)
    with pytest.raises(CertificationError, match="admissible"):
        certify(ens, kernel, cost, tol=0.15)


def exit_and_stay_ensemble(weights):
    """Row 0 walks from 0.3 to the exit at 0 at unit speed; row 1 stays at 0.5."""
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0], origin=0.0)
    kernel = CongestionKernel(dom, Kappa("constant", value=1.0),
                              Chi("constant", value=0.0), Eta("constant", value=1.0))
    t = np.arange(61) * 0.01
    samples = np.stack([np.maximum(0.3 - t, 0.0), np.full_like(t, 0.5)])
    ens = TrajectoryEnsemble(dom, 0.01, samples, np.array(weights), exit_indices=[30, -1])
    assert samples[0, 30] == 0.0 and list(ens.exit_nodes) == [0, -1]
    return dom, kernel, ens


def test_a_non_exiting_row_fails_the_certificate():
    """A trajectory that never exits costs +inf, not a capped stand-in."""
    dom, kernel, ens = exit_and_stay_ensemble([0.5, 0.5])
    cost = ExitCost.zero(dom)
    assert realized_costs(ens, cost)[1] == np.inf
    cert = certify(ens, kernel, cost, tol=0.15)
    assert not cert["strong"] and not cert["weak"] and cert["agree"]
    assert cert["max_gap"] == np.inf and cert["epsilon"] == np.inf


def test_a_zero_weight_non_exiting_row_adds_nothing():
    dom, kernel, ens = exit_and_stay_ensemble([1.0, 0.0])
    cost = ExitCost.zero(dom)
    eps, details = exploitability(ens, kernel, cost)
    assert np.isfinite(eps) and abs(eps) <= 0.02
    assert details["max_gap"] == np.inf
    cert = certify(ens, kernel, cost, tol=0.15)
    assert cert["strong"] and cert["weak"] and cert["max_gap"] == eps


def full_scan_excess(ensemble, speed, slack):
    """The gate as it read every step; also where its maximum sits."""
    worst, worst_moves = -np.inf, False
    for j in range(ensemble.n_steps):
        cur = ensemble.samples[:, j]
        step = ensemble.domain.point_distance(cur, ensemble.samples[:, j + 1])
        excess = step - (speed.at_points(j, cur) * ensemble.dt + slack)
        k = int(np.argmax(excess))
        if excess[k] > worst:
            worst, worst_moves = float(excess[k]), bool(step[k] > 0)
    return worst, worst_moves


def random_ensemble(dom, rng, n_traj, n_steps, scale):
    """Random walks that hold still on about half of their steps."""
    d = len(dom.coord_names)
    shape = (n_traj, n_steps) + ((d,) if d > 1 else ())
    moves = rng.normal(0.0, scale, shape)
    still = rng.random((n_traj, n_steps)) < 0.5
    moves[still] = 0.0
    start = rng.uniform(0.3, 0.7, (n_traj, 1) + shape[2:])
    samples = np.clip(start + np.concatenate([np.zeros_like(start), np.cumsum(moves, axis=1)],
                                             axis=1), 0.0, 1.0)
    return TrajectoryEnsemble(dom, 0.01, samples, np.full(n_traj, 1 / n_traj), validate=False)


@pytest.mark.parametrize("backend", ["interval", "grid2d"])
def test_moving_step_excess_matches_full_scan(backend):
    rng = np.random.default_rng(7)
    if backend == "interval":
        dom = IntervalDomain(0.0, 1.0, 0.01, targets=[1.0])
    else:
        dom = Grid2dDomain([0.0, 0.0], [1.0, 1.0], 0.05, targets=[[1.0, 0.5]])
    slack = 1.5 * dom.dx
    compared = 0
    for trial in range(40):
        ens = random_ensemble(dom, rng, 25, 30, scale=rng.choice([0.002, 0.02, 0.05]))
        values = rng.uniform(0.2, 1.0, (ens.n_steps + 1, dom.n_nodes))
        speed = SpeedField(dom, ens.dt, values, (0.2, 1.0))
        got = admissibility_excess(ens, speed, slack)
        want, on_moving_step = full_scan_excess(ens, speed, slack)
        assert (got > 1e-9) == (want > 1e-9)
        if on_moving_step:
            assert got == want
            compared += 1
        else:
            assert got <= want
    assert compared > 10
    still = TrajectoryEnsemble(dom, 0.01, np.repeat(ens.samples[:, :1], 5, axis=1),
                               ens.weights, validate=False)
    assert admissibility_excess(still, speed, slack) == -np.inf


def test_execute_measures_the_final_mixture_once(monkeypatch):
    """The loop measures through exploitability, one gap pass per iteration;
    the ledger's certificate is its last gap pass, the one admissibility gate
    reads the returned mixture on its own field, and only the Lipschitz check
    reads its step lengths, each row once."""
    from exitlab import equilibrium as eq, runner
    from exitlab.scenarios import load_scenario

    measured, passes, gates, scans = [], [], [], []
    plain_measure, plain_gaps = eq.exploitability, eq.optimality_gaps
    plain_gate, plain_steps = eq.admissibility_excess, TrajectoryEnsemble.step_lengths

    def counted_measure(*args, **kwargs):
        measured.append(args[0])
        return plain_measure(*args, **kwargs)

    def counted_gaps(*args, **kwargs):
        passes.append(args[0])
        return plain_gaps(*args, **kwargs)

    def counted_gate(ensemble, speed, slack):
        gates.append((ensemble, speed))
        return plain_gate(ensemble, speed, slack)

    def counted_steps(self, rows):
        scans.append((self, rows))
        return plain_steps(self, rows)

    monkeypatch.setattr(eq, "exploitability", counted_measure)
    monkeypatch.setattr(eq, "optimality_gaps", counted_gaps)
    monkeypatch.setattr(eq, "admissibility_excess", counted_gate)
    monkeypatch.setattr(TrajectoryEnsemble, "step_lengths", counted_steps)
    bundle = runner.execute(load_scenario("congested_corridor") | {"equilibrium": {
        "max_iterations": 3, "damping": {"rule": "constant", "value": 0.4}}})
    report = bundle["equilibrium"]
    assert report.iterations == 3 and len(passes) == 3 and passes[-1] is report.final_ensemble
    assert len(measured) == 3 and all(m is p for m, p in zip(measured, passes))
    assert len(gates) == 1
    assert gates[0][0] is report.final_ensemble and gates[0][1] is report.final_phi.speed
    final = report.final_ensemble
    assert scans and all(ens is final for ens, _ in scans)
    read = np.concatenate([np.arange(final.n_traj)[rows] for _, rows in scans])
    assert np.array_equal(read, np.arange(final.n_traj))
    assert "certification" not in bundle
    ledger = runner.build_ledger(bundle)
    assert ledger["certification"]["epsilon"] == runner._r12(report.certification["epsilon"])
    assert report.certification["epsilon"] == report.history[-1]["exploitability"]


def test_a_speeding_best_response_fails_the_solve(monkeypatch):
    """A candidate that jumps to the exit in one step stays in the returned
    mixture, and the gate after the loop rejects it."""
    from exitlab import equilibrium as eq

    dom, cost, kernel, m0, extra = interval_game()
    plain = eq.synthesize_batch

    def speeding(phi, start_points):
        samples, exits, nodes = plain(phi, start_points)
        samples[0, 1:] = dom.coords[dom.targets[0]]
        exits[0], nodes[0] = 1, dom.targets[0]
        return samples, exits, nodes

    monkeypatch.setattr(eq, "synthesize_batch", speeding)
    config = EquilibriumConfig(damping="constant", damping_value=0.4, max_iterations=3, **extra)
    with pytest.raises(CertificationError, match="leaves its own admissible class"):
        solve_equilibrium(m0, kernel, cost, config)
