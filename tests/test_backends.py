"""End-to-end coverage of the grid2d and graph backends through the pipeline."""
import numpy as np
import pytest

from exitlab import runner
from exitlab.domain import ExitCost, GraphDomain, Grid2dDomain
from exitlab.equilibrium import realized_costs
from exitlab.measures import ParticleMeasure, TrajectoryEnsemble, wasserstein
from exitlab.ocp import solve_value, synthesize_batch
from exitlab.scenarios import validate_config
from test_ocp import constant_speed


def synthesize_one(phi, field, cost, x0):
    """(exit node, realized cost) of the path synthesized from x0 at t = 0."""
    samples, exit_idx, exit_node = synthesize_batch(phi, phi.domain.as_points(x0))
    ens = TrajectoryEnsemble(phi.domain, phi.dt, samples, np.ones(1),
                             exit_indices=exit_idx, exit_nodes=exit_node)
    return int(ens.exit_nodes[0]), float(realized_costs(ens, cost)[0])


def test_grid2d_value_and_synthesis_constant_speed():
    dom = Grid2dDomain([0.0, 0.0], [0.5, 0.5], 0.1, targets=[[0.0, 0.0]],
                       connectivity=8)
    cost = ExitCost.zero(dom)
    field = constant_speed(dom, 1.0, dom.dx, 2.0)
    phi = solve_value(dom, cost, field)
    dist = dom.target_node_distances()
    assert np.max(np.abs(phi.values[0] - dist)) <= dom.dx
    _, cost_realized = synthesize_one(phi, field, cost, [0.3, 0.4])
    start, exit_node = dom.points_of_nodes([dom.node_at([0.3, 0.4]), dom.node_at([0.0, 0.0])])
    gap = abs(cost_realized - dom.point_distance(start, exit_node))
    assert gap <= 4 * (field.dt + dom.dx)


def test_graph_value_exact_on_line_of_edges():
    dom = GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                      targets=[2, 4], origin=0)
    cost = ExitCost(dom, {2: 0.0, 4: 0.1})
    field = constant_speed(dom, 1.0, dom.dx, 5.0)
    phi = solve_value(dom, cost, field)
    assert np.allclose(phi.values[0], [1.5, 0.5, 0.0, 0.5, 0.1], atol=1e-9)
    exit_node, cost_realized = synthesize_one(phi, field, cost, (0.0, 0.0, 0.0))
    assert exit_node == 2
    assert cost_realized == pytest.approx(1.5, abs=4 * (field.dt + dom.dx))


def grid2d_scenario():
    return validate_config({
        "schema": 1,
        "name": "grid2d_demo",
        "seed": 0,
        "domain": {"kind": "grid2d", "lo": [0.0, 0.0], "hi": [0.5, 0.5],
                   "dx": 0.1, "targets": [[0.0, 0.0]], "origin": [0.0, 0.0],
                   "connectivity": 8},
        "exit_cost": {"kind": "zero"},
        "kernel": {"kappa": {"family": "constant", "value": 1.0},
                   "chi": {"family": "constant", "value": 0.0},
                   "eta": {"family": "constant", "value": 1.0}},
        "initial_measure": {"kind": "atoms",
                            "points": [[0.3, 0.4], [0.5, 0.2]],
                            "weights": [0.5, 0.5]},
        "equilibrium": {"max_iterations": 10, "tolerance": 0.25,
                        "damping": {"rule": "fictitious_play"}},
        "asymptotics": {"p": 1,
                        "report_times": {"kind": "linear", "start": 0.0,
                                         "stop": None, "step": 0.2},
                        "rate_fit": None},
    })


def test_grid2d_pipeline_end_to_end(tmp_path):
    result = runner.run(grid2d_scenario(), str(tmp_path / "grid"))
    assert result.status == 0, result.error
    assert result.ledger["certification"]["agree"]
    atoms = result.ledger["m_infinity"]
    assert all(row[:2] == [0.0, 0.0] for row in atoms)
    check = runner.verify(str(tmp_path / "grid"))
    assert check.passed


def test_grid2d_run_solves_one_transport_lp_per_unsettled_report_time(monkeypatch):
    """Marginals from the settled slice on are the limit measure, bit for bit: no LP."""
    import exitlab.measures as measures

    calls = []
    lp = measures.linprog
    monkeypatch.setattr(measures, "linprog", lambda *args, **kwargs: calls.append(1) or lp(
        *args, **kwargs))
    bundle = runner.execute(grid2d_scenario())
    ens = bundle["equilibrium"].final_ensemble
    unsettled = sum(ens.time_index(t) < ens.settled_slice for t in bundle["report_grid"])
    assert 0 < unsettled < len(bundle["report_grid"])
    assert len(calls) == unsettled


def graph_scenario():
    return validate_config({
        "schema": 1,
        "name": "graph_demo",
        "seed": 0,
        "domain": {"kind": "graph", "n_nodes": 5,
                   "edges": [[0, 1, 1.0], [1, 2, 0.5], [1, 3, 0.7], [3, 4, 0.4]],
                   "targets": [2, 4], "origin": 0},
        "exit_cost": {"kind": "table", "entries": [[2, 0.0], [4, 0.1]]},
        "kernel": {"kappa": {"family": "constant", "value": 1.0},
                   "chi": {"family": "constant", "value": 0.0},
                   "eta": {"family": "constant", "value": 1.0}},
        "initial_measure": {"kind": "atoms", "points": [0, 3],
                            "weights": [0.5, 0.5]},
        "equilibrium": {"max_iterations": 10, "tolerance": 0.6,
                        "damping": {"rule": "fictitious_play"}},
        "asymptotics": {"p": 1,
                        "report_times": {"kind": "linear", "start": 0.0,
                                         "stop": None, "step": 0.4},
                        "rate_fit": None},
    })


def test_graph_pipeline_end_to_end(tmp_path):
    result = runner.run(graph_scenario(), str(tmp_path / "graph"))
    assert result.status == 0, result.error
    atoms = result.ledger["m_infinity"]
    exits = {tuple(row[:3]) for row in atoms}
    assert exits <= {(2.0, 2.0, 0.0), (4.0, 4.0, 0.0)}
    check = runner.verify(str(tmp_path / "graph"))
    assert check.passed


def test_interval_targets_from_predicate(tmp_path):
    from exitlab.scenarios import build_domain
    cfg = validate_config({
        "schema": 1, "name": "band", "seed": 0,
        "domain": {"kind": "interval", "lo": 0.0, "hi": 1.0, "dx": 0.1,
                   "targets": {"intervals": [[0.0, 0.15], [0.9, 1.0]]}},
        "exit_cost": {"kind": "zero"},
        "kernel": {"kappa": {"family": "constant", "value": 1.0},
                   "chi": {"family": "constant", "value": 0.0},
                   "eta": {"family": "constant", "value": 1.0}},
        "initial_measure": {"kind": "dirac", "location": 0.5},
        "equilibrium": {}, "asymptotics": {},
    })
    dom = build_domain(cfg)
    assert set(dom.coords[dom.targets].round(6)) == {0.0, 0.1, 0.9, 1.0}


def test_wasserstein_between_graph_measures():
    dom = GraphDomain(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], targets=[3], origin=0)
    a = ParticleMeasure.dirac(dom, (0.0, 0.0, 0.0))
    b = ParticleMeasure.dirac(dom, (3.0, 3.0, 0.0))
    assert wasserstein(a, b, 1) == pytest.approx(3.0, abs=1e-9)
    mid = ParticleMeasure.dirac(dom, (1.0, 2.0, 0.5))
    assert wasserstein(a, mid, 1) == pytest.approx(1.5, abs=1e-9)
