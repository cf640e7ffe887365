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
