"""Byte-identical artifacts on the binned, multi-iteration grid2d and graph paths.

Every registry scenario is an interval, so tests/golden_sha256.json does not
cover the grid2d or graph mixture loop. tests/golden_backends_sha256.json
holds the digests of five further scenarios, run for several iterations
with congestion: a binned grid2d room, and a small metric graph and a
60-node random graph, each binned and unbinned. Each run forces its binning
through exitlab.equilibrium.BINNING_WORK_CAP, whatever the size rule would
pick. Every file of each run directory except manifest.json is compared,
and the small ledger files also byte for byte with tests/golden/<run>/.
The room2d benchmark workload's seed 0 is checked against the hash pinned
in perfbench/pinned_report_sha256.json, which is only read here.
"""
import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from exitlab import equilibrium, runner
from exitlab.scenarios import validate_config

HERE = os.path.dirname(__file__)
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

with open(os.path.join(HERE, "golden_backends_sha256.json")) as fh:
    GOLDEN = json.load(fh)

CONGESTED = {"kappa": {"family": "affine_clamped", "intercept": 1.0, "slope": 1.0,
                       "floor": 0.2},
             "chi": {"family": "gaussian", "width": 0.15, "amplitude": 0.6},
             "eta": {"family": "taper", "distance": 0.1}}


def room2d_binned():
    """The room2d benchmark kernel on a 0.1 grid, 40 atoms, binned, 20 iterations."""
    rng = np.random.default_rng(0)
    ix = rng.integers(0, 4, size=40)
    iy = rng.integers(2, 9, size=40)
    points = [[round(i * 0.1, 10), round(j * 0.1, 10)] for i, j in zip(ix, iy)]
    return {"schema": 1, "name": "room2d_binned", "seed": 0,
            "domain": {"kind": "grid2d", "lo": [0.0, 0.0], "hi": [1.0, 1.0], "dx": 0.1,
                       "targets": [[1.0, 0.4], [1.0, 0.5], [1.0, 0.6]],
                       "origin": [0.0, 0.5], "connectivity": 8},
            "exit_cost": {"kind": "zero"},
            "kernel": CONGESTED,
            "initial_measure": {"kind": "atoms", "points": points,
                                "weights": [1.0 / 40] * 40},
            "equilibrium": {"max_iterations": 20, "tolerance": 0.02,
                            "damping": {"rule": "constant", "value": 0.4}},
            "asymptotics": {"p": 1,
                            "report_times": {"kind": "linear", "start": 0.0,
                                             "stop": None, "step": 0.25},
                            "rate_fit": None}}


def graph_congested(binning):
    """tests/test_backends.py's graph scenario with a congested kernel, 10 iterations."""
    kernel = dict(CONGESTED, chi={"family": "gaussian", "width": 0.5, "amplitude": 0.6},
                  eta={"family": "taper", "distance": 0.3})
    return {"schema": 1, "name": "graph_congested_" + binning, "seed": 0,
            "domain": {"kind": "graph", "n_nodes": 5,
                       "edges": [[0, 1, 1.0], [1, 2, 0.5], [1, 3, 0.7], [3, 4, 0.4]],
                       "targets": [2, 4], "origin": 0},
            "exit_cost": {"kind": "table", "entries": [[2, 0.0], [4, 0.1]]},
            "kernel": kernel,
            "initial_measure": {"kind": "atoms", "points": [0, 3], "weights": [0.5, 0.5]},
            "equilibrium": {"max_iterations": 10, "tolerance": 0.05,
                            "damping": {"rule": "fictitious_play"}},
            "asymptotics": {"p": 1,
                            "report_times": {"kind": "linear", "start": 0.0,
                                             "stop": None, "step": 0.4},
                            "rate_fit": None}}


def graph_random(binning):
    """A connected 60-node random graph (a random tree plus 30 chords), congested, 6 iterations."""
    rng = np.random.default_rng(7)
    n = 60
    pairs = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    while len(pairs) < n - 1 + 30:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((u, v))
    edges = [[u, v, round(float(rng.uniform(0.2, 1.0)), 3)] for u, v in sorted(pairs)]
    targets = [int(t) for t in rng.choice(n, size=3, replace=False)]
    starts = [int(x) for x in rng.choice(n, size=12, replace=False)]
    kernel = dict(CONGESTED, chi={"family": "gaussian", "width": 0.8, "amplitude": 0.6},
                  eta={"family": "taper", "distance": 0.5})
    return {"schema": 1, "name": "graph_random_" + binning, "seed": 0,
            "domain": {"kind": "graph", "n_nodes": n, "edges": edges,
                       "targets": targets, "origin": starts[0]},
            "exit_cost": {"kind": "table",
                          "entries": [[t, 0.1 * k] for k, t in enumerate(targets)]},
            "kernel": kernel,
            "initial_measure": {"kind": "atoms", "points": starts,
                                "weights": [1.0 / len(starts)] * len(starts)},
            "equilibrium": {"max_iterations": 6, "tolerance": 1e-6,
                            "damping": {"rule": "fictitious_play"}},
            "asymptotics": {"p": 1,
                            "report_times": {"kind": "linear", "start": 0.0,
                                             "stop": None, "step": 0.5},
                            "rate_fit": None}}


# all five stop at max_iterations without meeting the tolerance (status 3);
# each with the work cap that forces the binning its digests were recorded
# with: -1 bins every field, and 10**18 none
SCENARIOS = {cfg["name"]: (cfg, cap) for cfg, cap in
             ((room2d_binned(), -1), (graph_congested("on"), -1),
              (graph_congested("off"), 10**18), (graph_random("on"), -1),
              (graph_random("off"), 10**18))}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_backend_artifacts_match_golden_digests(tmp_path, monkeypatch, assert_readable_goldens,
                                                name):
    cfg, cap = SCENARIOS[name]
    monkeypatch.setattr(equilibrium, "BINNING_WORK_CAP", cap)
    run_dir = str(tmp_path / name)
    result = runner.run(validate_config(cfg), run_dir)
    assert result.status == runner.STATUS_NOT_CONVERGED, result.error
    assert_readable_goldens(run_dir, name)
    got = {f"{name}/{f}": _digest(os.path.join(run_dir, f))
           for f in sorted(os.listdir(run_dir)) if f != "manifest.json"}
    want = {k: v for k, v in GOLDEN.items() if k.split("/")[0] == name}
    assert got == want


def test_room2d_benchmark_seed0_matches_pinned_report(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(PERFBENCH, "pinned_report_sha256.json")) as fh:
        pinned = json.load(fh)
    (cfg,) = workloads.generate("room2d", 0)
    run_dir = str(tmp_path / "room2d")
    result = runner.run(cfg, run_dir)
    assert result.status == runner.STATUS_OK, result.error
    assert _digest(os.path.join(run_dir, "report.json")) == pinned["room2d"]
