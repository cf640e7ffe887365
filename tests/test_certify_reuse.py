"""Certification on the last iteration's field and value solve, and the moving-step gate."""
import numpy as np
import pytest

from exitlab.congestion import Chi, CongestionKernel, Eta, Kappa
from exitlab.domain import ExitCost, Grid2dDomain, IntervalDomain
from exitlab.equilibrium import (CertificationError, EquilibriumConfig, _use_binning,
                                 admissibility_excess, certify, exploitability,
                                 induced_speed_field, solve_equilibrium)
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


GAMES = [
    pytest.param(interval_game, "auto", id="interval"),
    pytest.param(grid2d_game, "off", id="grid2d-unbinned"),
    pytest.param(grid2d_game, "on", id="grid2d-binned"),
]


def solved(game, binning):
    dom, cost, kernel, m0, extra = game()
    config = EquilibriumConfig(damping="constant", damping_value=0.4,
                               marginal_binning=binning, **extra)
    return dom, cost, kernel, config, solve_equilibrium(m0, kernel, dom, cost, config)


@pytest.mark.parametrize("game, binning", GAMES)
def test_report_certification_equals_fresh_certify(game, binning):
    dom, cost, kernel, config, report = solved(game, binning)
    assert report.iterations > 1
    fresh = certify(report.final_ensemble, kernel, dom, cost, report.tol, config)
    assert report.certification == fresh


@pytest.mark.parametrize("game, binning", GAMES)
def test_final_field_is_the_final_ensembles_induced_field(game, binning):
    dom, _, kernel, config, report = solved(game, binning)
    ens = report.final_ensemble
    binned = _use_binning(config, ens.n_traj, ens.n_steps + 1, dom.n_nodes)
    again = induced_speed_field(ens, kernel, binned).values
    assert np.array_equal(report.final_phi.speed.values.view(np.int64), again.view(np.int64))


def test_exploitability_rejects_speeding_after_exit():
    """The gate reads every step, also those after the recorded exit index."""
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0], origin=0.0)
    kernel = CongestionKernel(dom, Kappa("constant", value=1.0),
                              Chi("constant", value=0.0), Eta("constant", value=1.0))
    dt = 0.01
    t = np.arange(61) * dt
    path = np.minimum(np.maximum(5.0 * (t - 0.2), 0.0), 0.9)  # at the exit, then speed 5
    ens = TrajectoryEnsemble(dom, dt, path[None, :], np.array([1.0]),
                             np.zeros(1, dtype=int), np.zeros(1, dtype=int))
    assert ens.exit_indices[0] == 0 and ens.exit_nodes[0] == 0
    with pytest.raises(CertificationError, match="admissible"):
        exploitability(ens, kernel, dom, ExitCost.zero(dom))


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
    """The ledger's certificate is the loop's last exploitability pass; only
    the Lipschitz check reads the final ensemble's step lengths."""
    from exitlab import equilibrium as eq, runner
    from exitlab.scenarios import load_scenario

    passes, scans = [], []
    plain_exploitability, plain_steps = eq.exploitability, TrajectoryEnsemble.step_lengths

    def counted_exploitability(*args, **kwargs):
        passes.append(args[0])
        return plain_exploitability(*args, **kwargs)

    def counted_steps(self):
        scans.append(self)
        return plain_steps(self)

    monkeypatch.setattr(eq, "exploitability", counted_exploitability)
    monkeypatch.setattr(TrajectoryEnsemble, "step_lengths", counted_steps)
    bundle = runner.execute(load_scenario("congested_corridor") | {"equilibrium": {
        "max_iterations": 3, "damping": {"rule": "constant", "value": 0.4}}})
    report = bundle["equilibrium"]
    assert report.iterations == 3 and len(passes) == 3 and passes[-1] is report.final_ensemble
    assert scans == [report.final_ensemble]
    assert bundle["certification"] is report.certification
    assert report.certification["epsilon"] == report.exploitability
