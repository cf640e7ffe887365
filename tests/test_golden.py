"""Registry artifacts are byte-identical to their recorded sha256 digests.

tests/golden_sha256.json holds the digest of every file of the five registry
run directories except manifest.json (which carries a timestamp). A change
that moves any of these bytes must say why and record the new digests.
The small ledger files are also committed under tests/golden/<run>/ and
compared byte for byte first, so a failure shows the lines that moved.
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
def test_registry_artifacts_match_golden_digests(registry_runs, assert_readable_goldens, name):
    run_dir = registry_runs[name]["dir"]
    assert_readable_goldens(run_dir, name)
    got = {f"{name}/{f}": _digest(os.path.join(run_dir, f))
           for f in sorted(os.listdir(run_dir)) if f != "manifest.json"}
    want = {k: v for k, v in GOLDEN.items() if k.split("/")[0] == name}
    assert got == want


def test_pinned_benchmark_reports_match_the_golden_ledgers():
    """Every registry name pinned by the benchmark has the same report.json
    digest here, so the two golden files cannot drift apart."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench",
                        "pinned_report_sha256.json")
    with open(path) as fh:
        pinned = json.load(fh)
    names = sorted(set(pinned) & set(scenario_registry()))
    assert names
    assert {n: GOLDEN[f"{n}/report.json"] for n in names} == {n: pinned[n] for n in names}
