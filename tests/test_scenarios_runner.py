"""Scenario schema, run orchestration, persistence, verify, sweep, and CLI."""
import filecmp
import json
import os

import pytest

from exitlab import cli, runner
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
    with pytest.raises(ScenarioError, match="unknown keys"):
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
                "trajectories.csv", "trajectory_summary.csv", "marginals.csv",
                "initial_measure.csv", "value_function.csv", "convergence_curve.csv"}
    assert expected <= set(os.listdir(out))
    check = runner.verify(str(out))
    assert check.passed and not check.differences


def test_verify_names_corrupted_artifact(tmp_path):
    out = tmp_path / "run"
    runner.run("remark_5_3", str(out))
    path = out / "trajectories.csv"
    data = path.read_text().splitlines()
    path.write_text("\n".join(data[:-5]))
    check = runner.verify(str(out))
    assert not check.passed
    assert "trajectories.csv" in check.error


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
    ("equilibrium.marginal_binning", "maybe"),
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
    pytest.param("exit_cost", {"kind": "zero", "lipschitz": -1.0}, id="exit_cost-zero_lipschitz"),
    pytest.param("exit_cost", {"kind": "constant", "value": 0.0, "lipschitz": 5.0},
                 id="exit_cost-constant_lipschitz"),
    pytest.param("exit_cost", {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.0]],
                               "lipschitz": -1.0}, id="exit_cost-table_negative_lipschitz"),
])
def test_malformed_scenario_is_validation_failure(tmp_path, path, value):
    cfg = load_scenario("remark_5_3")
    cfg["equilibrium"]["damping"] = {"rule": "constant", "value": 0.5}
    runner.set_by_path(cfg, path, value)
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION
    assert path in result.error


@pytest.mark.parametrize("block, path", [
    ({"initial_measure": {"kind": "uniform", "support": [0.5, 2.0], "count": 10}},
     "initial_measure.support: point outside interval domain"),
    ({"exit_cost": {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.0], [0.5, 5.0]]}},
     "exit_cost.entries: exit cost on non-target nodes [100]"),
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
    (interval_scenario, "exit_cost", {"kind": "zero", "lipschitz": -1.0},
     "exit_cost.lipschitz is read only with kind 'table', got kind 'zero'"),
    (interval_scenario, "exit_cost", {"kind": "table", "entries": [[0.0, 0.0], [1.0, 0.0]],
                                      "lipschitz": -1.0},
     "exit_cost.lipschitz must not be negative"),
    (graph_scenario, "kernel.eta", {"family": "taper", "distance": 0.3, "value": 5.0},
     "unknown keys ['value'] in kernel.eta (family 'taper')"),
])
def test_wrong_blocks_families_and_spacings_name_their_path(tmp_path, make, path, value, named):
    cfg = make()
    runner.set_by_path(cfg, path, value)
    result = runner.run(cfg, str(tmp_path / "bad"))
    assert result.status == runner.STATUS_VALIDATION, result.error
    assert result.error.startswith(named), result.error


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


def test_run_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    runner.run("remark_5_3", str(a))
    runner.run("remark_5_3", str(b))
    for name in os.listdir(a):
        if name == "manifest.json":
            ma = json.loads((a / name).read_text())
            mb = json.loads((b / name).read_text())
            assert ma["artifacts"] == mb["artifacts"]
            continue
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_overrides_change_the_config(tmp_path):
    result = runner.run("remark_5_3", str(tmp_path / "o"), seed=7, tol=0.005,
                        params={"initial_measure.location": 0.25})
    assert result.status == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] == 7
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
