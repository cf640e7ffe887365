"""Smoke test of the benchmark harness on the sub-second remark_5_3 scenario.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_smoke.py
"""
import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def _bench(trace, tamper=False):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "remark_5_3", "--seed", "0", "--seconds", "1",
                         "--trace", str(trace)], tamper=tamper)
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines):
    """{metric name: (value, unit)} from the 'metric NAME = VALUE UNIT' lines."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, value, unit = line.split(" ")
            out[name] = (float(value), unit)
    return out


def test_every_end_to_end_metric_printed_with_its_unit():
    lines, result = _bench(0)
    printed = _printed(lines)
    for m in run.load_spec()["end_to_end"]:
        assert printed[m["name"]][1] == m["unit"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert printed["failed_fraction"] == (0.0, "ratio")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2


def test_tampered_report_counts_as_failed():
    lines, result = _bench(0, tamper=True)
    assert _printed(lines)["failed_fraction"][0] > 0
    assert not result["correct"] and result["failed"] > 0


def test_traced_counts_repeat_exactly():
    first_lines, first = _bench(1)
    second_lines, _ = _bench(1)
    printed = _printed(first_lines)
    for m in run.load_spec()["per_layer"]:
        assert printed[m["name"]][1] == m["unit"]
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    again = _printed(second_lines)
    counts = [n for n, (_, unit) in printed.items() if unit == "count"]
    assert "ocp.candidate_evals" in counts
    assert {n: printed[n] for n in counts} == {n: again[n] for n in counts}
