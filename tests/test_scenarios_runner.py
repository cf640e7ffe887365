"""Scenario schema, run orchestration, persistence, verify, sweep, and CLI."""
import filecmp
import json
import os
import tracemalloc

import numpy as np
import pytest

from exitlab import cli, runner
from exitlab.equilibrium import realized_costs
from exitlab.scenarios import (ScenarioError, build_domain,
                               build_initial_measure, load_scenario,
                               scenario_registry, validate_config)
from test_backends import graph_scenario, grid2d_scenario


def test_registry_names_resolve_and_validate():
    reg = scenario_registry()
    assert set(reg) == {"remark_5_3", "remark_5_13", "power_tail_cor56a",
                        "exp_tail_cor56b", "congested_corridor"}
    for name in reg:
        cfg = load_scenario(name)
        assert cfg["name"] == name


def test_unknown_keys_rejected():
    cfg = load_scenario("remark_5_3")
    cfg["extra"] = 1
    with pytest.raises(ScenarioError, match="^extra is not read$"):
        validate_config(cfg)
    cfg2 = load_scenario("remark_5_3")
    cfg2["domain"]["typo"] = 1
    with pytest.raises(ScenarioError, match="typo"):
        validate_config(cfg2)


def test_schema_version_enforced():
    cfg = load_scenario("remark_5_3")
    cfg["schema"] = 99
    with pytest.raises(ScenarioError, match="schema"):
        validate_config(cfg)


def test_unknown_source_message_lists_registry():
    with pytest.raises(ScenarioError, match="remark_5_3"):
        load_scenario("no_such_scenario")


def test_scenario_file_round_trip(tmp_path):
    cfg = load_scenario("remark_5_3")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    loaded = load_scenario(str(path))
    assert loaded == cfg


def test_minimal_scenario_resolves_every_default():
    """Defaults are filled in; origin, report-time kind and binning stay absent when absent."""
    minimal = {"schema": 1,
               "domain": {"kind": "interval", "lo": 0.0, "hi": 1.0, "dx": 0.1, "targets": [1.0]},
               "kernel": {"kappa": {"family": "constant", "value": 1.0},
                          "chi": {"family": "constant"}, "eta": {"family": "constant"}},
               "initial_measure": {"kind": "dirac", "location": 0.5}}
    assert validate_config(minimal) == {
        "schema": 1, "name": "unnamed", "seed": 0,
        "domain": {"kind": "interval", "lo": 0.0, "hi": 1.0, "dx": 0.1, "targets": [1.0]},
        "exit_cost": {"kind": "zero"},
        "kernel": {"kappa": {"family": "constant", "value": 1.0},
                   "chi": {"family": "constant"}, "eta": {"family": "constant"}},
        "initial_measure": {"kind": "dirac", "location": 0.5},
        "equilibrium": {"max_iterations": 60, "damping": {"rule": "fictitious_play"},
                        "tolerance": 0.02},
        "asymptotics": {"p": 1, "rate_fit": None,
                        "report_times": {"kind": "linear", "start": 0.0, "stop": None,
                                         "step": None}}}
    cfg = dict(minimal, asymptotics={"report_times": {"step": 0.1}})
    assert validate_config(cfg)["asymptotics"]["report_times"] == {"step": 0.1}


@pytest.mark.parametrize("name", sorted(scenario_registry()))
def test_validation_is_idempotent(name):
    cfg = validate_config(scenario_registry()[name])
    assert validate_config(cfg) == cfg


def test_resolved_copy_shares_no_list_with_the_input():
    raw = grid2d_scenario()
    raw["exit_cost"] = {"kind": "table", "entries": [[[0.0, 0.0], 0.0]]}
    cfg = validate_config(raw)
    before = json.dumps(cfg, sort_keys=True)
    for block in (raw["domain"]["lo"], raw["domain"]["targets"][0],
                  raw["initial_measure"]["points"][0], raw["initial_measure"]["weights"],
                  raw["exit_cost"]["entries"][0][0]):
        block[0] = 99.0
    raw["domain"]["targets"].append([0.5, 0.5])
    raw["asymptotics"]["report_times"]["step"] = 7.0
    assert json.dumps(cfg, sort_keys=True) == before


@pytest.mark.parametrize("content", ['{"schema": 1,', "\xff\xfe", None])
def test_unreadable_scenario_file_is_validation_failure(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content.encode("latin-1"))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith(f"{str(path)!r} is not a readable JSON scenario")


def test_null_log_count_reads_the_default_count():
    """A null report-time key reads as an absent one; a null log count used to exit 4."""
    from exitlab.scenarios import report_times
    cfg = load_scenario("remark_5_3")
    cfg["asymptotics"]["report_times"] = {"kind": "log", "start": 0.1, "count": None}
    assert len(report_times(validate_config(cfg), 2.0)) == 20


def test_tail_measures_flag_truncation():
    cfg = load_scenario("power_tail_cor56a")
    dom = build_domain(cfg)
    m0, flags = build_initial_measure(dom, cfg)
    assert m0.n_atoms == 4000
    assert abs(m0.weights.sum() - 1.0) <= 1e-12
    assert any("truncated tail" in f for f in flags)


def test_run_writes_artifacts_and_passes_verify(tmp_path):
    out = tmp_path / "run"
    result = runner.run("remark_5_3", str(out))
    assert result.status == 0
    expected = {"manifest.json", "report.json", "exploitability_history.csv",
                "trajectories.npy", "trajectory_summary.csv", "marginals.csv",
                "initial_measure.csv", "value_function.csv", "convergence_curve.csv"}
    assert expected <= set(os.listdir(out))
    check = runner.verify(str(out))
    assert check.passed and not check.differences


def test_verify_names_corrupted_artifact(tmp_path):
    out = tmp_path / "run"
    runner.run("remark_5_3", str(out))
    path = out / "trajectories.npy"
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    check = runner.verify(str(out))
    assert not check.passed
    assert "trajectories.npy" in check.error


@pytest.mark.parametrize("case, expected", [
    ("not json", "not valid JSON"),
    ("no artifacts", "no artifacts object"),
    ("no config", "no config object"),
    ("artifacts list", "no artifacts object"),
])
def test_verify_fails_cleanly_on_a_malformed_manifest(tmp_path, capsys, case, expected):
    out = tmp_path / "run"
    runner.run("remark_5_3", str(out))
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    if case == "not json":
        path.write_text(path.read_text()[:-20])
    else:
        if case == "artifacts list":
            manifest["artifacts"] = list(manifest["artifacts"])
        else:
            del manifest[case.split()[1]]
        path.write_text(json.dumps(manifest))
    check = runner.verify(str(out))
    assert (check.passed, check.differences) == (False, [])
    assert expected in check.error and "manifest.json" in check.error
    assert cli.main(["verify", str(out)]) == 1
    assert f"FAIL: {check.error}" in capsys.readouterr().err


@pytest.mark.parametrize("case, expected", [
    ("report unlisted", "manifest.json does not list report.json"),
    ("report not an object", "report.json is not a JSON object"),
    ("parent path", "manifest.json lists '../outside.csv', not a file name"),
    ("absolute path", "outside.csv', not a file name"),
])
def test_verify_fails_cleanly_on_a_bad_report_or_artifact_name(tmp_path, capsys, case, expected):
    """Each case used to raise from verify, or to read a file outside the run directory."""
    out = tmp_path / "run"
    runner.run("remark_5_3", str(out))
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    outside = tmp_path / "outside.csv"
    outside.write_text("x\n")
    if case == "report unlisted":
        del manifest["artifacts"]["report.json"]
        (out / "report.json").unlink()
    elif case == "report not an object":
        (out / "report.json").write_text("[1]\n")
        manifest["artifacts"]["report.json"] = runner._sha256(out / "report.json")
    else:
        name = "../outside.csv" if case == "parent path" else str(outside)
        manifest["artifacts"][name] = runner._sha256(outside)
    path.write_text(json.dumps(manifest))
    check = runner.verify(str(out))
    assert (check.passed, check.differences) == (False, [])
    assert expected in check.error, check.error
    assert cli.main(["verify", str(out)]) == 1
    assert f"FAIL: {check.error}" in capsys.readouterr().err


def test_verify_with_tol_override_lists_differences(tmp_path):
    out = tmp_path / "run"
    runner.run("remark_5_3", str(out))
    check = runner.verify(str(out), tol=1e-9)
    assert check.passed  # integrity passes; differences reported
    assert any("tol" in d or "certification" in d for d in check.differences)


def test_validation_failure_status(tmp_path):
    cfg = load_scenario("remark_5_3")
    cfg["domain"]["targets"] = []
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    h2 = [h for h in report["hypotheses"] if h["name"] == "H2"][0]
    assert not h2["passed"]


@pytest.mark.parametrize("path, value", [
    ("equilibrium.max_iterations", 0),
    ("equilibrium.max_iterations", 2.5),
    ("equilibrium.tolerance", -1),
    ("equilibrium.tolerance", float("nan")),
    ("domain.dx", 0),
    ("domain.dx", "a"),
    ("domain.dx", float("nan")),
    ("asymptotics.p", 3),
    ("equilibrium.damping.rule", "secant"),
    ("equilibrium.damping.value", 1.5),
    pytest.param("exit_cost", {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.5]],
                               "lipschitz": 0.5}, id="exit_cost-table_lipschitz"),
    ("initial_measure.location", 2.0),
    pytest.param("initial_measure", {"kind": "atoms", "points": [0.5, 3.0],
                                     "weights": [0.5, 0.5]}, id="initial_measure-atoms_outside"),
    pytest.param("kernel.kappa", {"family": "affine_clamped", "slope": 0.5, "floor": 0.2},
                 id="kernel.kappa-no_intercept"),
    pytest.param("initial_measure", {"kind": "atoms", "points": [0.25, 0.75],
                                     "weights": [0.5, 0.4]}, id="initial_measure-weights_sum_0.9"),
    pytest.param("initial_measure", {"kind": "uniform", "support": [0.2, 0.8], "count": 0},
                 id="initial_measure-count_0"),
    pytest.param("initial_measure", {"kind": "uniform", "support": [0.5, 2.0], "count": 10},
                 id="initial_measure-uniform_support_outside"),
    pytest.param("exit_cost", {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.0], [0.5, 5.0]]},
                 id="exit_cost-entry_off_the_target"),
    pytest.param("initial_measure", {"kind": "uniform", "support": [0.2, 0.8], "count": -3},
                 id="initial_measure-count_-3"),
    pytest.param("initial_measure", {"kind": "uniform", "support": [0.2, 0.8], "count": "a"},
                 id="initial_measure-count_a"),
    ("asymptotics.report_times.step", 0),
    pytest.param("asymptotics.rate_fit", {"mode": "power", "window": [1.0]},
                 id="asymptotics.rate_fit-window_of_one"),
    pytest.param("asymptotics.rate_fit", {"mode": "linear", "window": [1.0, 5.0]},
                 id="asymptotics.rate_fit-mode_linear"),
    pytest.param("exit_cost", {"kind": "table"}, id="exit_cost-table_without_entries"),
    ("domain.hi", 0.0),
    pytest.param("domain.targets", [0.0, 2.0], id="domain.targets-outside"),
    pytest.param("kernel.kappa", {"family": "affine_clamped", "intercept": "x", "slope": 0.5,
                                  "floor": 0.2}, id="kernel.kappa-intercept_x"),
    ("initial_measure.location", "a"),
    pytest.param("initial_measure", {"kind": "atoms", "points": ["a", 0.5], "weights": [0.5, 0.5]},
                 id="initial_measure-atoms_not_numbers"),
    pytest.param("domain.targets", {"foo": [[0.9, 1.0]]}, id="domain.targets-no_intervals"),
    pytest.param("asymptotics.report_times", {"kind": "linear", "start": 0.4, "stop": 0.2},
                 id="asymptotics.report_times-stop_below_start"),
    pytest.param("asymptotics.report_times", {"kind": "log", "start": 0.0, "stop": 0, "count": 5},
                 id="asymptotics.report_times-log_stop_0"),
    pytest.param("asymptotics.report_times", [0.0, -1.0, 0.3],
                 id="asymptotics.report_times-negative_time"),
    ("asymptotics.report_times.start", -1.0),
    ("seed", "abc"),
    # blocks of the wrong type used to exit with status 4
    ("kernel.kappa", 5),
    ("exit_cost", 5),
    ("equilibrium", 3),
    ("asymptotics", []),
    ("asymptotics.rate_fit", 3),
    pytest.param("initial_measure", {"kind": "dirac"}, id="initial_measure-dirac_no_location"),
    pytest.param("initial_measure", {"kind": "atoms", "weights": [1.0]},
                 id="initial_measure-atoms_no_points"),
    pytest.param("initial_measure", {"kind": "atoms", "points": 5, "weights": [1.0]},
                 id="initial_measure-atoms_points_5"),
    ("equilibrium.damping", "x"),
    ("kernel.kappa.family", "foo"),
    ("kernel.chi.family", 3),
    # a dx that does not divide the extent used to run on another grid, or exit 4
    ("domain.dx", 0.6),
    ("domain.dx", 5.0),
    # kernel parameters the family does not read, and an exit-cost constant
    # that a kind other than table drops, used to run with status 0
    pytest.param("kernel.kappa", {"family": "constant", "value": 1.0, "slope": 7.0},
                 id="kernel.kappa-constant_with_slope"),
    pytest.param("kernel.chi", {"family": "constant", "value": 0.0, "width": -3.0},
                 id="kernel.chi-constant_with_width"),
    pytest.param("kernel.eta", {"family": "taper", "distance": 0.3, "value": 5.0},
                 id="kernel.eta-taper_with_value"),
    # every kind derives the tightest L_g, so no kind reads a declared one
    pytest.param("exit_cost", {"kind": "zero", "lipschitz": -1.0}, id="exit_cost-zero_lipschitz"),
    pytest.param("exit_cost", {"kind": "constant", "value": 0.0, "lipschitz": 5.0},
                 id="exit_cost-constant_lipschitz"),
    pytest.param("exit_cost", {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.0]],
                               "lipschitz": -1.0}, id="exit_cost-table_negative_lipschitz"),
    # keys that the kind or rule does not read used to be accepted and dropped
    pytest.param("exit_cost", {"kind": "zero", "value": 5.0}, id="exit_cost-zero_with_value"),
    pytest.param("exit_cost", {"kind": "constant", "value": 0.0, "entries": [[0.0, 1.0]]},
                 id="exit_cost-constant_with_entries"),
    pytest.param("equilibrium.damping", {"rule": "fictitious_play", "value": 0.3},
                 id="equilibrium.damping-fictitious_play_with_value"),
    pytest.param("asymptotics.rate_fit", {"mode": "power", "window": [1.0, 5.0],
                                          "tail_dimension": 1},
                 id="asymptotics.rate_fit-power_with_tail_dimension"),
    # a second entry for one target node used to replace the first silently
    pytest.param("exit_cost", {"kind": "table", "entries": [[0.0, 0.3], [1.0, 0.0], [0.0, 0.0]]},
                 id="exit_cost-duplicate_entry"),
    pytest.param("exit_cost", {"kind": "table",
                               "entries": [[0.0, 0.3], [1.0, 0.0], [0.001, 0.0]]},
                 id="exit_cost-entry_on_the_same_node"),
    # report-time keys that the grid kind does not read used to be dropped
    pytest.param("asymptotics.report_times", {"kind": "linear", "step": 0.05, "count": 3},
                 id="asymptotics.report_times-linear_with_count"),
    pytest.param("asymptotics.report_times", {"step": 0.05, "count": 3},
                 id="asymptotics.report_times-default_kind_with_count"),
    pytest.param("asymptotics.report_times", {"kind": "log", "start": 0.1, "count": 5,
                                              "step": 0.2},
                 id="asymptotics.report_times-log_with_step"),
    # a name that is not a string used to run
    ("name", 5),
    # an integer too large for a float made math.isfinite raise OverflowError (status 4)
    pytest.param("seed", 10 ** 400, id="seed-401_digits"),
    pytest.param("equilibrium.max_iterations", 10 ** 400,
                 id="equilibrium.max_iterations-401_digits"),
    # counts past the int32 node ids used to exit 4 or to blame another key
    pytest.param("domain", {"kind": "graph", "n_nodes": 10 ** 300, "edges": [], "targets": [0]},
                 id="domain-graph_n_nodes_10e300"),
    pytest.param("domain.dx", 1e-12, id="domain.dx-1e-12"),
    pytest.param("initial_measure", {"kind": "uniform", "support": [0.2, 0.8], "count": 10 ** 300},
                 id="initial_measure-count_10e300"),
])
def test_malformed_scenario_is_validation_failure(tmp_path, path, value):
    cfg = load_scenario("remark_5_3")
    cfg["equilibrium"]["damping"] = {"rule": "constant", "value": 0.5}
    runner.set_by_path(cfg, path, value)
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION
    assert result.error.startswith(path), result.error


@pytest.mark.parametrize("block, path", [
    ({"initial_measure": {"kind": "uniform", "support": [0.5, 2.0], "count": 10}},
     "initial_measure.support: point outside interval domain"),
    ({"exit_cost": {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.0], [0.5, 5.0]]}},
     "exit_cost.entries: exit cost on non-target nodes [100]"),
    ({"exit_cost": {"kind": "table", "entries": [[0.0, 0.3], [1.0, 0.0], [0.001, 0.0]]}},
     "exit_cost.entries[2][0]: 0.001 is node 0, already priced by exit_cost.entries[0]"),
])
def test_off_domain_support_and_off_target_cost_name_their_paths(tmp_path, block, path):
    cfg = load_scenario("remark_5_3")
    cfg.update(block)
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION
    assert result.error == path


def test_unknown_rate_fit_mode_names_the_path_and_the_value():
    cfg = load_scenario("remark_5_3")
    cfg["asymptotics"]["rate_fit"] = {"mode": "linear", "window": [1.0, 5.0]}
    with pytest.raises(ScenarioError, match=r"asymptotics\.rate_fit\.mode .*'linear'"):
        validate_config(cfg)


@pytest.mark.parametrize("edges", [[[0, 1]], [[0, 1, "a"]], "0-1"])
def test_malformed_graph_edges_are_validation_failures(tmp_path, edges):
    cfg = graph_scenario()
    cfg["domain"]["edges"] = edges
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION
    assert "domain.edges" in result.error


def interval_scenario():
    return load_scenario("remark_5_3")


def power_tail_scenario():
    return load_scenario("power_tail_cor56a")


def exp_tail_scenario():
    return load_scenario("exp_tail_cor56b")


GRAPH_EDGES = [[1, 2, 0.5], [1, 3, 0.7], [3, 4, 0.4]]


@pytest.mark.parametrize("make, path, value, named", [
    # graph ids that are not whole numbers used to be cut to another node
    (graph_scenario, "initial_measure.points", [0.6, 3], "initial_measure.points: "),
    (graph_scenario, "domain.targets", [2.7, 4], "domain.targets: "),
    (graph_scenario, "domain.origin", 0.9, "domain.origin: "),
    (graph_scenario, "domain.edges", [[0.5, 1, 1.0]] + GRAPH_EDGES, "domain.edges: "),
    (graph_scenario, "initial_measure", {"kind": "dirac", "location": 1.5},
     "initial_measure.location: "),
    (graph_scenario, "exit_cost.entries", [[2.5, 0.0], [4, 0.0]], "exit_cost.entries: "),
    # targets and origins of the wrong shape used to fail inside the builders
    (interval_scenario, "domain.targets", ["a"], "domain.targets[0] "),
    (interval_scenario, "domain.targets", [None], "domain.targets[0] "),
    (interval_scenario, "domain.targets", 1.0, "domain.targets "),
    (grid2d_scenario, "domain.targets", ["a"], "domain.targets[0] "),
    (grid2d_scenario, "domain.targets", [None], "domain.targets[0] "),
    (grid2d_scenario, "domain.targets", 1.0, "domain.targets "),
    (graph_scenario, "domain.targets", ["a"], "domain.targets[0] "),
    (graph_scenario, "domain.targets", [None], "domain.targets[0] "),
    (graph_scenario, "domain.targets", 2, "domain.targets "),
    (graph_scenario, "domain.origin", "x", "domain.origin "),
    (interval_scenario, "domain.origin", "x", "domain.origin "),
    (grid2d_scenario, "domain.targets", [[0.1]], "domain.targets[0] "),
    (grid2d_scenario, "domain.origin", [0.0], "domain.origin "),
    (grid2d_scenario, "exit_cost", {"kind": "table", "entries": [[0.0, 0.0]]},
     "exit_cost.entries[0][0] "),
    (interval_scenario, "initial_measure", {"kind": "atoms", "points": [0.5], "weights": ["a"]},
     "initial_measure.weights[0] "),
    (interval_scenario, "initial_measure", {"kind": "atoms", "points": [0.5], "weights": 1.0},
     "initial_measure.weights "),
])
def test_malformed_node_reference_names_its_path(tmp_path, make, path, value, named):
    cfg = make()
    runner.set_by_path(cfg, path, value)
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION, result.error
    assert result.error.startswith(named)


@pytest.mark.parametrize("make, path, value, named", [
    (interval_scenario, "equilibrium.damping", "x", "equilibrium.damping must be an object, "),
    (interval_scenario, "initial_measure", {"kind": "atoms", "points": 5, "weights": [1.0]},
     "initial_measure.points must be a list, "),
    (interval_scenario, "initial_measure", {"kind": "dirac"}, "initial_measure.location must be "),
    (grid2d_scenario, "initial_measure", {"kind": "atoms", "points": [[0.1, 0.2], 0.3],
                                          "weights": [0.5, 0.5]}, "initial_measure.points[1] "),
    (interval_scenario, "kernel.kappa.family", "foo", "kernel.kappa.family must be one of "),
    (graph_scenario, "kernel.eta.family", None, "kernel.eta.family must be one of "),
    (interval_scenario, "domain.dx", 0.6, "domain.dx: extent 1.0 is not a multiple of dx = 0.6"),
    (interval_scenario, "domain.dx", 5.0, "domain.dx: "),
    (grid2d_scenario, "domain.dx", 5.0, "domain.dx: "),
    (grid2d_scenario, "domain.dx", 0.3, "domain.dx: "),
    (interval_scenario, "exit_cost", {"kind": "zero", "lipschitz": 0.0},
     "exit_cost.lipschitz is not read with kind 'zero'"),
    (interval_scenario, "exit_cost", {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.5]],
                                      "lipschitz": 0.5},
     "exit_cost.lipschitz is not read with kind 'table'"),
    (graph_scenario, "kernel.eta", {"family": "taper", "distance": 0.3, "value": 5.0},
     "kernel.eta.value is not read with family 'taper'"),
    (interval_scenario, "exit_cost", {"kind": "zero", "value": 5.0},
     "exit_cost.value is not read with kind 'zero'"),
    (grid2d_scenario, "exit_cost", {"kind": "constant", "value": 0.0, "entries": [[1.0, 0.5]]},
     "exit_cost.entries is not read with kind 'constant'"),
    (interval_scenario, "exit_cost", {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.0]],
                                      "value": 1.0},
     "exit_cost.value is not read with kind 'table'"),
    (interval_scenario, "equilibrium.damping", {"rule": "fictitious_play", "value": 0.3},
     "equilibrium.damping.value is not read with rule 'fictitious_play'"),
    (interval_scenario, "exit_cost", {"kind": "constant", "value": 0.2, "lipschitz": 0.0},
     "exit_cost.lipschitz is not read with kind 'constant'"),
    (interval_scenario, "asymptotics.report_times", {"kind": "linear", "step": 0.05, "count": 3},
     "asymptotics.report_times.count is not read with kind 'linear'"),
    (interval_scenario, "asymptotics.report_times", {"count": 3},
     "asymptotics.report_times.count is not read with kind 'linear'"),
    (interval_scenario, "asymptotics.report_times",
     {"kind": "log", "start": 0.1, "count": 5, "step": 0.2},
     "asymptotics.report_times.step is not read with kind 'log'"),
    # tail parameters and backends used to fail without naming their path
    (power_tail_scenario, "initial_measure.shoulder", 40.0,
     "initial_measure.shoulder must lie inside the domain (0.0, 30.0), got 40.0"),
    (power_tail_scenario, "initial_measure.exponent", 0.5,
     "initial_measure.exponent must be > 1, got 0.5"),
    (exp_tail_scenario, "initial_measure.rate", -1.0,
     "initial_measure.rate must be > 0, got -1.0"),
    (grid2d_scenario, "initial_measure", {"kind": "uniform", "support": [0.0, 0.2], "count": 4},
     "initial_measure.kind must be one of ['dirac', 'atoms'], got 'uniform'"),
    # counts past the int32 node ids used to exit 4 from scipy.sparse or numpy,
    # or to blame initial_measure.support
    pytest.param(graph_scenario, "domain.n_nodes", 10 ** 300,
                 "domain.n_nodes must be > 0 and <= 2147483647", id="graph-n_nodes_10e300"),
    pytest.param(interval_scenario, "domain.dx", 1e-12,
                 "domain.dx: extent 1.0 at dx = 1e-12 has more than ", id="interval-dx_1e-12"),
    pytest.param(interval_scenario, "domain", {"kind": "interval", "lo": 0.0, "hi": 1.0,
                                               "dx": 1e-12, "targets": {"intervals": [[0.9, 1.0]]}},
                 "domain.dx: extent 1.0 at dx = 1e-12 has more than ",
                 id="interval-dx_1e-12_target_intervals"),
    pytest.param(interval_scenario, "domain", {"kind": "interval", "lo": 0.0, "hi": -1.0,
                                               "dx": 0.1, "targets": {"intervals": [[0.9, 1.0]]}},
                 "domain.hi: interval requires hi > lo", id="interval-hi_below_lo_target_intervals"),
    pytest.param(grid2d_scenario, "domain.dx", 1e-6,
                 "domain.dx: 500001 x 500001 grid has more than ", id="grid2d-dx_1e-6"),
    pytest.param(interval_scenario, "initial_measure",
                 {"kind": "uniform", "support": [0.2, 0.8], "count": 10 ** 300},
                 "initial_measure.count must be ", id="interval-count_10e300"),
    # dense n x n graph tables and report grids past their bound used to exit 4
    # from numpy ("Unable to allocate 7.28 TiB", 16 GiB for the log grid)
    pytest.param(graph_scenario, "domain.n_nodes", 10 ** 6,
                 "domain.n_nodes: 1000000 nodes need 16000000000000 bytes of dense n x n tables",
                 id="graph-n_nodes_10e6"),
    pytest.param(interval_scenario, "asymptotics.report_times",
                 {"kind": "log", "start": 0.1, "count": 2**31 - 1},
                 "asymptotics.report_times.count must be > 0 and <= 10000, got 2147483647",
                 id="interval-log_count_2e31"),
    pytest.param(interval_scenario, "asymptotics.report_times.step", 1e-300,
                 "asymptotics.report_times.step must give at most 10000 report times",
                 id="interval-linear_step_1e-300"),
    # chi reads one amplitude key per family: given both, one used to win silently
    (interval_scenario, "kernel.chi", {"family": "constant", "value": 0.0, "amplitude": 5.0},
     "kernel.chi.amplitude is not read with family 'constant'"),
    (interval_scenario, "kernel.chi", {"family": "gaussian", "width": 0.05, "value": 0.6},
     "kernel.chi.value is not read with family 'gaussian'"),
    (interval_scenario, "kernel.chi", {"family": "ball", "radius": 0.1, "value": 0.5},
     "kernel.chi.value is not read with family 'ball'"),
])
def test_wrong_blocks_families_and_spacings_name_their_path(tmp_path, make, path, value, named):
    cfg = make()
    runner.set_by_path(cfg, path, value)
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION, result.error
    assert result.error.startswith(named), result.error


@pytest.mark.parametrize("value", ["on", "off", "maybe", True])
def test_marginal_binning_accepts_only_auto(tmp_path, value):
    """Binning is the size rule; "auto", its name, is the one accepted value."""
    cfg = load_scenario("remark_5_3")
    assert "marginal_binning" not in cfg["equilibrium"]
    cfg["equilibrium"]["marginal_binning"] = value
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION, result.error
    assert result.error.startswith("equilibrium.marginal_binning must be one of ['auto']")
    cfg["equilibrium"]["marginal_binning"] = "auto"
    assert validate_config(cfg)["equilibrium"]["marginal_binning"] == "auto"


@pytest.mark.parametrize("make", [interval_scenario, grid2d_scenario, graph_scenario])
def test_null_origin_reads_as_an_absent_one(tmp_path, make):
    """A null domain.origin is the default origin; on a graph it used to exit 2."""
    absent = make()
    del absent["domain"]["origin"]
    base = runner.run(absent, str(tmp_path / "absent"))
    cfg = make()
    cfg["domain"]["origin"] = None
    result = runner.run(cfg, str(tmp_path / "null"))
    assert result.status == base.status == 0, result.error
    assert result.ledger == base.ledger


def test_whole_number_graph_ids_written_as_floats_still_run(tmp_path):
    base = runner.run(graph_scenario(), str(tmp_path / "base"))
    cfg = graph_scenario()
    for path, value in [("domain.targets", [2.0, 4]), ("domain.origin", 0.0),
                        ("domain.edges", [[0.0, 1.0, 1.0]] + GRAPH_EDGES),
                        ("initial_measure.points", [0.0, 3.0]),
                        ("exit_cost.entries", [[2.0, 0.0], [4.0, 0.1]])]:
        runner.set_by_path(cfg, path, value)
    result = runner.run(cfg, str(tmp_path / "float"))
    assert result.status == base.status == 0
    assert result.ledger["m_infinity"] == base.ledger["m_infinity"]


def test_indicator_chi_flagged_outside_coverage(tmp_path):
    cfg = load_scenario("remark_5_3")
    cfg["kernel"]["chi"] = {"family": "ball", "radius": 0.1, "amplitude": 0.5}
    result = runner.run(cfg, str(tmp_path / "ball"))
    assert result.status == 0
    assert any("outside hypothesis coverage" in f for f in result.ledger["flags"])


def test_kernel_hypothesis_violation_is_validation_failure(tmp_path):
    cfg = load_scenario("congested_corridor")
    # speed reaches zero at the achievable density sup: breaks (H8)
    cfg["kernel"]["kappa"]["floor"] = 0.0
    cfg["kernel"]["chi"]["amplitude"] = 2.0
    result = runner.run(cfg, str(tmp_path / "h8"))
    assert result.status == runner.STATUS_VALIDATION
    report = json.loads((tmp_path / "h8" / "report.json").read_text())
    h8 = [h for h in report["hypotheses"] if h["name"] == "H8"][0]
    assert not h8["passed"]


def with_targets_beyond_the_interval():
    cfg = load_scenario("remark_5_3")
    cfg["domain"]["targets"] = {"intervals": [[5, 6]]}
    return cfg


def with_a_disconnected_graph():
    cfg = graph_scenario()
    cfg["domain"]["n_nodes"] = 7  # nodes 5 and 6 have no edge
    return cfg


def with_kappa_reaching_zero():
    cfg = load_scenario("congested_corridor")
    cfg["kernel"]["kappa"].update(slope=2.0, floor=-0.5)
    return cfg


def with_a_steep_exit_cost():
    cfg = load_scenario("remark_5_3")
    cfg["exit_cost"] = {"kind": "table", "entries": [[0.0, 0.0], [1.0, 1.5]]}
    return cfg


FAILED_HYPOTHESES = [
    (with_targets_beyond_the_interval, "domain.targets: H2 fails: target set empty"),
    (with_a_disconnected_graph, "domain.edges: H4 fails: graph is disconnected"),
    (with_kappa_reaching_zero, "kernel: H8 fails: kappa reaches -0.2 <= 0"),
    (with_a_steep_exit_cost, "exit_cost: H10 fails: L_g * K_max = 1.5 >= 1"),
]


@pytest.mark.parametrize("make, message", FAILED_HYPOTHESES)
def test_failed_hypothesis_names_its_path_and_reason(tmp_path, make, message):
    out = tmp_path / "run"
    result = runner.run(make(), str(out))
    assert result.status == runner.STATUS_VALIDATION
    assert result.error.startswith(message), result.error
    assert result.path == str(out)
    report = json.loads((out / "report.json").read_text())
    assert report == result.ledger
    assert any(not h["passed"] for h in report["hypotheses"])


@pytest.mark.parametrize("make, message", FAILED_HYPOTHESES)
def test_cli_run_prints_a_failed_hypothesis_and_the_run_directory(tmp_path, capsys, make,
                                                                  message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make()))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message), captured.err
    run_dir = tmp_path / "runs" / "scenario"
    assert f"run directory: {run_dir}" in captured.out
    assert (run_dir / "report.json").exists()


@pytest.mark.parametrize("part, params, message", [
    ("kappa", {"family": "constant", "value": 0.0}, "constant kappa must be positive"),
    ("chi", {"family": "gaussian", "width": -1.0}, "gaussian chi needs positive width"),
    ("eta", {"family": "taper", "distance": 0.0}, "taper eta needs positive distance"),
    ("chi", {"family": "ball", "radius": -0.5}, "ball chi needs a nonnegative radius"),
])
def test_a_kernel_part_that_breaks_h8_names_its_path(tmp_path, part, params, message):
    cfg = load_scenario("congested_corridor")
    cfg["kernel"][part] = params
    result = runner.run(cfg, str(tmp_path / "run"))
    assert result.status == runner.STATUS_VALIDATION
    assert result.error == f"kernel.{part}: H8 fails: {message}"
    assert [h["name"] for h in result.ledger["hypotheses"]] == ["H1", "H2", "H3", "H4", "H8"]


def test_run_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    runner.run("remark_5_3", str(a))
    runner.run("remark_5_3", str(b))
    assert_same_run_dirs(a, b)


def test_overrides_change_the_config(tmp_path):
    cfg = runner.apply_overrides(load_scenario("remark_5_3"),
                                 params={"initial_measure.location": 0.25})
    result = runner.run(cfg, str(tmp_path / "o"), tol=0.005)
    assert result.status == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] == 0  # the scenario's label, recorded as given
    assert manifest["config"]["initial_measure"]["location"] == 0.25
    assert manifest["config"]["equilibrium"]["tolerance"] == 0.005
    # started left of the midpoint, so the limit is the left exit
    assert result.ledger["m_infinity"] == [[0.0, 1.0]]


def test_sweep_runs_members_and_aggregates(tmp_path):
    out = tmp_path / "sweep"
    aggregate = runner.sweep("remark_5_13",
                             {"initial_measure.location": [0.3, 0.7]}, str(out))
    assert len(aggregate["members"]) == 2
    limits = {m["params"]["initial_measure.location"]: m["m_infinity"]
              for m in aggregate["members"]}
    assert limits[0.3] == [[0.0, 1.0]]
    assert limits[0.7] == [[1.0, 1.0]]
    assert (out / "sweep_report.json").exists()


def test_sweep_power_tail_exponents(tmp_path):
    """Fitted decay exponents track the tail exponent: <= -(beta - 2) + 0.3."""
    aggregate = runner.sweep("power_tail_cor56a",
                             {"initial_measure.exponent": [3.0, 4.0, 5.0]},
                             str(tmp_path / "beta"))
    for member in aggregate["members"]:
        beta = member["params"]["initial_measure.exponent"]
        assert member["status"] == 0
        assert member["rate_fit"]["value"] <= -(beta - 2) + 0.3


def test_sweep_empty_range(tmp_path):
    aggregate = runner.sweep("remark_5_13", {}, str(tmp_path / "s"))
    assert aggregate["members"] == []


def test_sweep_records_member_failures(tmp_path):
    bad = load_scenario("remark_5_13")
    aggregate = runner.sweep(bad, {"initial_measure.location": [0.3, 4.0]},
                             str(tmp_path / "s"))
    statuses = [m["status"] for m in aggregate["members"]]
    assert statuses[0] == 0
    assert statuses[1] != 0


@pytest.mark.parametrize("value", ["../../../escaped", "x" * 300, "nul\0byte"],
                         ids=["separators", "long", "nul"])
def test_sweep_member_directories_are_names_under_the_output_root(tmp_path, monkeypatch, value):
    """A swept value with path separators or a NUL, or longer than a file
    name may be, still names one member directory directly under out_root,
    and the member runs there."""
    monkeypatch.chdir(tmp_path)
    out = os.path.join("a", "b", "out")
    aggregate = runner.sweep("remark_5_3", {"name": [value]}, out)
    (member,) = aggregate["members"]
    assert member["status"] == 0
    assert os.path.dirname(member["dir"]) == out
    assert os.listdir(tmp_path / "a" / "b") == ["out"]
    assert sorted(os.listdir(out)) == [os.path.basename(member["dir"]), "sweep_report.json"]
    assert (tmp_path / member["dir"] / "report.json").exists()


def assert_same_run_dirs(a, b):
    """Every artifact byte-identical, and the manifests' artifact hashes equal."""
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        if name == "manifest.json":
            ma = json.loads((a / name).read_text())
            mb = json.loads((b / name).read_text())
            assert ma["artifacts"] == mb["artifacts"]
            continue
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_stability_report_is_byte_identical_and_its_runs_are_plain_runs(tmp_path):
    family = {"initial_measure.location": [0.45, 0.7]}
    for root in ("s1", "s2"):
        runner.sweep("remark_5_13", family, str(tmp_path / root), tol=0.02)
    assert filecmp.cmp(tmp_path / "s1" / "stability_report.json",
                       tmp_path / "s2" / "stability_report.json", shallow=False)
    table = json.loads((tmp_path / "s1" / "stability_report.json").read_text())
    assert [r["perturbation"] for r in table["members"]] == [0.15, 0.4]
    assert [r["limit_distance"] for r in table["members"]] == [0.0, 1.0]
    assert not table["schedule_monotone"]
    assert table["closed_graph_probe"]["perturbation"] == 0.15
    # the reference is the unswept template under the same overrides, and
    # every run directory is what run writes
    reference = tmp_path / "s1" / "reference"
    assert runner.verify(str(reference)).passed
    runner.run("remark_5_13", str(tmp_path / "plain"), tol=0.02)
    assert_same_run_dirs(reference, tmp_path / "plain")
    member = runner.apply_overrides(load_scenario("remark_5_13"),
                                    params={"initial_measure.location": 0.7})
    runner.run(member, str(tmp_path / "plain_member"), tol=0.02)
    assert_same_run_dirs(tmp_path / "s1" / "001_location=0.7", tmp_path / "plain_member")


def test_stability_report_records_failed_runs_without_quantities(tmp_path):
    cfg = load_scenario("remark_5_13")
    runner.sweep(cfg, {"initial_measure.location": [0.3, 4.0]}, str(tmp_path / "s"))
    table = json.loads((tmp_path / "s" / "stability_report.json").read_text())
    assert table["members"][1] == {"index": 1, "params": {"initial_measure.location": 4.0},
                                   "status": runner.STATUS_VALIDATION}
    assert table["members"][0]["perturbation"] == 0.0
    assert table["closed_graph_probe"]["passed"]
    # a template that fails validation leaves every member without quantities
    cfg["initial_measure"]["location"] = 4.0
    runner.sweep(cfg, {"initial_measure.location": [0.3]}, str(tmp_path / "bad"))
    table = json.loads((tmp_path / "bad" / "stability_report.json").read_text())
    assert table["reference"]["status"] == runner.STATUS_VALIDATION
    assert "initial_measure" in table["reference"]["error"]
    assert table["members"] == [{"index": 0, "params": {"initial_measure.location": 0.3},
                                 "status": 0}]
    assert table["closed_graph_probe"] is None


def test_stability_rows_measure_members_against_the_reference_run(tmp_path):
    """Under congestion the reference's value differs from a member's own, so
    the cross-exploitability is not the member's exploitability."""
    cfg = load_scenario("congested_corridor")
    cfg["domain"]["dx"] = 0.02
    cfg["initial_measure"] = {"kind": "uniform", "support": [0.0, 0.2], "count": 10}
    cfg["equilibrium"]["max_iterations"] = 8
    shifted = {"initial_measure.support": [0.1, 0.3]}
    runner.sweep(cfg, {k: [v] for k, v in shifted.items()}, str(tmp_path / "s"))
    row = json.loads((tmp_path / "s" / "stability_report.json").read_text())["members"][0]
    ref = runner.execute(cfg)
    member = runner.execute(runner.apply_overrides(cfg, params=shifted))
    ens = member["equilibrium"].final_ensemble
    costs = realized_costs(ens, member["cost"])
    base = ref["equilibrium"].final_phi.at_points(0, ens.samples[:, 0])
    cross = runner._r12(np.sum(ens.weights * (costs - base)))
    assert row["cross_exploitability"] == cross
    assert abs(cross - row["exploitability"]) > 0.05
    assert row["exploitability"] == runner._r12(member["equilibrium"].history[-1]["exploitability"])
    assert row["perturbation"] == 0.1 and row["limit_distance"] == 0.0


def test_sweep_outside_the_initial_measure_writes_no_stability_report(tmp_path):
    out = tmp_path / "s"
    aggregate = runner.sweep("remark_5_13", {"initial_measure.location": [0.3],
                                             "equilibrium.tolerance": [0.02]}, str(out))
    assert aggregate["members"][0]["status"] == 0
    assert sorted(os.listdir(out)) == ["000_tolerance=0.02_location=0.3", "sweep_report.json"]


def test_cli_list_and_run_and_verify(tmp_path, capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "remark_5_3" in out and "congested_corridor" in out

    code = cli.main(["run", "remark_5_3", "--out", str(tmp_path)])
    assert code == 0
    run_dir = tmp_path / "remark_5_3"
    assert run_dir.exists()
    assert cli.main(["verify", str(run_dir)]) == 0
    (run_dir / "marginals.csv").write_text("broken")
    assert cli.main(["verify", str(run_dir)]) == 1


def test_cli_sweep_param_parsing(tmp_path):
    code = cli.main(["sweep", "remark_5_13", "--out", str(tmp_path / "sw"),
                     "--param", "initial_measure.location=0.3,0.7"])
    assert code == 0
    report = json.loads((tmp_path / "sw" / "sweep_report.json").read_text())
    assert len(report["members"]) == 2


def test_cli_sweep_param_takes_json_lists(tmp_path):
    """A value list that parses as JSON keeps its commas inside list values."""
    cfg = load_scenario("remark_5_13")
    cfg["initial_measure"] = {"kind": "uniform", "support": [0.1, 0.2], "count": 3}
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["sweep", str(path), "--out", str(tmp_path / "sw"),
                     "--param", "initial_measure.support=[0.1,0.2],[0.7,0.8]"])
    assert code == 0
    members = json.loads((tmp_path / "sw" / "sweep_report.json").read_text())["members"]
    assert [m["params"]["initial_measure.support"] for m in members] == [[0.1, 0.2], [0.7, 0.8]]
    assert [m["status"] for m in members] == [0, 0]
    assert [m["m_infinity"] for m in members] == [[[0.0, 1.0]], [[1.0, 1.0]]]
    # a list that is no JSON is split at every comma, as before
    assert cli._parse_param_values("0.3,abc") == [0.3, "abc"]


def test_sweep_refuses_a_non_empty_output_directory(tmp_path, capsys):
    out = tmp_path / "sw"
    out.mkdir()  # an existing empty directory is accepted
    runner.sweep("remark_5_13", {"initial_measure.location": [0.3]}, str(out))
    before = sorted(os.listdir(out))
    with pytest.raises(FileExistsError, match=f"{out} is not empty"):
        runner.sweep("remark_5_13", {"equilibrium.tolerance": [0.02]}, str(out))
    assert sorted(os.listdir(out)) == before
    code = cli.main(["sweep", "remark_5_13", "--out", str(out),
                     "--param", "equilibrium.tolerance=0.02"])
    assert code == runner.STATUS_VALIDATION
    assert f"{out} is not empty" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == before


def test_cli_sweep_default_output_is_a_fresh_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EXITLAB_OUT", str(tmp_path))
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "stale.txt").write_text("an earlier sweep")
    for want in ("sweep-2", "sweep-3"):
        assert cli.main(["sweep", "remark_5_13", "--param", "initial_measure.location=0.3"]) == 0
        assert f"sweep directory: {tmp_path / want} (1 members)" in capsys.readouterr().out
        assert (tmp_path / want / "sweep_report.json").exists()
    assert os.listdir(tmp_path / "sweep") == ["stale.txt"]


@pytest.mark.parametrize("params, expected", [
    (["--param", "equilibrium.tolerance"], "bad --param 'equilibrium.tolerance'"),
    ([], "at least one --param"),
])
def test_cli_sweep_rejects_a_missing_or_malformed_param(tmp_path, capsys, params, expected):
    code = cli.main(["sweep", "remark_5_13", "--out", str(tmp_path / "sw")] + params)
    assert code == runner.STATUS_VALIDATION
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_validation_exit_code(tmp_path):
    cfg = load_scenario("remark_5_3")
    cfg["domain"]["targets"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2


def test_report_times_grid():
    from exitlab.scenarios import report_times
    cfg = load_scenario("remark_5_3")
    times = report_times(cfg, 0.51)
    assert times[0] == 0.0 and times[-1] <= 0.51 + 1e-9
    cfg["asymptotics"]["report_times"] = [0.0, 0.3, 0.9]
    assert list(report_times(cfg, 0.51)) == [0.0, 0.3]


def test_report_grid_is_bounded_before_it_is_allocated():
    """A log count or a linear step past REPORT_TIMES_MAX fails before the grid
    is allocated; the largest grids at the bound are still built."""
    from exitlab.scenarios import REPORT_TIMES_MAX, report_times
    cfg = load_scenario("remark_5_3")
    tracemalloc.start()
    try:
        cfg["asymptotics"]["report_times"] = {"kind": "log", "start": 0.1, "count": 2**31 - 1}
        with pytest.raises(ScenarioError, match=r"^asymptotics\.report_times\.count "):
            validate_config(cfg)
        cfg["asymptotics"]["report_times"] = {"kind": "linear", "step": 1e-300}
        with pytest.raises(ScenarioError, match=r"^asymptotics\.report_times\.step "):
            report_times(validate_config(cfg), 0.51)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    cfg["asymptotics"]["report_times"] = {"kind": "log", "start": 0.1, "count": REPORT_TIMES_MAX}
    assert len(report_times(validate_config(cfg), 1.0)) == REPORT_TIMES_MAX
    cfg["asymptotics"]["report_times"] = {"kind": "linear", "step": 1 / (REPORT_TIMES_MAX - 1)}
    assert len(report_times(validate_config(cfg), 1.0)) == REPORT_TIMES_MAX


def test_report_times_null_start_is_zero(tmp_path):
    cfg = load_scenario("remark_5_3")
    cfg["asymptotics"]["report_times"] = {"kind": "linear", "start": None, "stop": 0.5,
                                          "step": 0.25}
    result = runner.run(cfg, str(tmp_path / "null_start"))
    assert result.status == 0, result.error
    from exitlab.scenarios import report_times
    assert list(report_times(cfg, 0.51)) == [0.0, 0.25, 0.5]


@pytest.mark.parametrize("times", [
    pytest.param([5.0, 6.0], id="list"),
    pytest.param({"kind": "linear", "start": 5.0}, id="linear"),
    pytest.param({"kind": "log", "start": 5.0, "count": 4}, id="log"),
])
def test_report_grid_beyond_the_horizon_fails_a_check(tmp_path, times):
    cfg = load_scenario("remark_5_3")
    cfg["asymptotics"]["report_times"] = times
    out = tmp_path / "late"
    result = runner.run(cfg, str(out))
    assert result.status == runner.STATUS_NOT_CONVERGED, result.error
    checks = {c["name"]: c for c in result.ledger["checks"]}
    assert checks["report_grid_nonempty"]["passed"] is False
    assert "0.51" in checks["report_grid_nonempty"]["detail"]
    assert result.ledger["equilibrium"]["converged"]
    check = runner.verify(str(out))
    assert check.passed and not check.differences


def test_report_grid_check_only_when_the_grid_is_empty(tmp_path):
    result = runner.run("remark_5_3", str(tmp_path / "run"))
    assert "report_grid_nonempty" not in {c["name"] for c in result.ledger["checks"]}


@pytest.mark.parametrize("window, detail", [
    pytest.param([100.0, 200.0], "holds 0 samples", id="no_report_time"),
    pytest.param([0.0, 0.3], "holds the time 0 <= 0", id="holds_t_0"),
])
def test_unusable_rate_fit_window_fails_a_check(tmp_path, capfd, window, detail):
    cfg = load_scenario("remark_5_3")
    cfg["asymptotics"]["rate_fit"] = {"mode": "power", "window": window}
    out = tmp_path / "fit"
    result = runner.run(cfg, str(out))
    assert result.status == runner.STATUS_NOT_CONVERGED, result.error
    checks = {c["name"]: c for c in result.ledger["checks"]}
    assert checks["rate_fit_window"]["passed"] is False
    assert detail in checks["rate_fit_window"]["detail"]
    assert [c["name"] for c in result.ledger["checks"] if not c["passed"]] == ["rate_fit_window"]
    assert "rate_fit" not in result.ledger
    assert not (out / "rate_fit.json").exists()
    assert "DLASCL" not in capfd.readouterr().err
    check = runner.verify(str(out))
    assert check.passed and not check.differences


def test_rate_fit_window_check_only_when_the_fit_fails(tmp_path):
    cfg = load_scenario("remark_5_3")
    cfg["asymptotics"]["rate_fit"] = {"mode": "power", "window": [0.05, 0.3]}
    result = runner.run(cfg, str(tmp_path / "run"))
    assert "rate_fit_window" not in {c["name"] for c in result.ledger["checks"]}
    assert "rate_fit" in result.ledger
