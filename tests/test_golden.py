"""Registry artifacts are byte-identical to their recorded sha256 digests.

tests/golden_sha256.json holds the digest of every file of the five registry
run directories except manifest.json (which carries a timestamp). A change
that moves any of these bytes must say why and record the new digests.
"""
import hashlib
import json
import os

import pytest

from exitlab.scenarios import scenario_registry

with open(os.path.join(os.path.dirname(__file__), "golden_sha256.json")) as fh:
    GOLDEN = json.load(fh)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(scenario_registry()))
def test_registry_artifacts_match_golden_digests(registry_runs, name):
    run_dir = registry_runs[name]["dir"]
    got = {f"{name}/{f}": _digest(os.path.join(run_dir, f))
           for f in sorted(os.listdir(run_dir)) if f != "manifest.json"}
    want = {k: v for k, v in GOLDEN.items() if k.split("/")[0] == name}
    assert got == want
