import difflib
import os
import time

import numpy as np
import pytest

from exitlab import runner
from exitlab.domain import ExitCost, IntervalDomain
from exitlab.scenarios import scenario_registry


@pytest.fixture
def unit_interval():
    return IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0], origin=0.0)


@pytest.fixture
def left_exit_interval():
    return IntervalDomain(0.0, 1.0, 0.01, targets=[0.0], origin=0.0)


@pytest.fixture
def zero_cost():
    def make(domain):
        return ExitCost.zero(domain)
    return make


def random_interval_measure(domain, rng, n_atoms):
    pts = rng.uniform(domain.lo, domain.hi, n_atoms)
    w = rng.uniform(0.1, 1.0, n_atoms)
    return pts, w / w.sum()


@pytest.fixture
def rng_factory():
    def make(seed):
        return np.random.default_rng(seed)
    return make


@pytest.fixture(scope="session")
def registry_runs(tmp_path_factory):
    """Every registry scenario, run once per session into a shared directory."""
    root = tmp_path_factory.mktemp("registry_runs")
    runs = {}
    for name in sorted(scenario_registry()):
        t0 = time.monotonic()
        result = runner.run(name, str(root / name))
        runs[name] = {"result": result, "elapsed": time.monotonic() - t0,
                      "dir": str(root / name)}
        assert result.status == 0, f"{name} failed: status {result.status} {result.error}"
    return runs


# the small ledger files of a run, committed under tests/golden/<run>/ where
# the run writes them; the golden tests compare them besides the digests
READABLE_GOLDENS = ("report.json", "exploitability_history.csv", "convergence_curve.csv",
                    "rate_fit.json")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="session")
def assert_readable_goldens():
    """check(run_dir, name): each of READABLE_GOLDENS is in run_dir exactly when
    tests/golden/<name>/ has it, byte for byte; a mismatch fails with a
    unified diff of the lines that moved."""
    def check(run_dir, name):
        for f in READABLE_GOLDENS:
            got_path, want_path = os.path.join(run_dir, f), os.path.join(GOLDEN_DIR, name, f)
            assert os.path.exists(got_path) == os.path.exists(want_path), f"{name}/{f}"
            if not os.path.exists(got_path):
                continue
            with open(got_path) as fh:
                got = fh.read()
            with open(want_path) as fh:
                want = fh.read()
            if got != want:
                diff = difflib.unified_diff(want.splitlines(keepends=True),
                                            got.splitlines(keepends=True),
                                            fromfile=f"tests/golden/{name}/{f}",
                                            tofile=f"this run's {f}")
                pytest.fail("".join(diff), pytrace=False)
    return check
