"""Benchmark worker: one job for one workload in a fresh process.

Usage: python3 perfbench/worker.py JOB.json

JOB.json holds {"kind", "scenarios", "tamper", "op_dir", "deadline",
"spans_path"}; the worker writes result.json next to it. kind "setup" times
repeated set-up passes; "op" runs and verifies each scenario once into
op_dir and then times set-up passes, so that every op adds a set-up window
at another moment of the run; "verify" repeats runner.verify of every
scenario in op_dir while another pass is expected to end before deadline
(a time.monotonic() value), at least once; "trace" does one set-up pass and
one op under the tracer. Every op starts cold in its own process, as a
command-line run does, and its ru_maxrss, read before the set-up passes, is
that op's peak.
The worker imports exitlab from the checkout's src/ and calls only public
functions.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from exitlab import runner  # noqa: E402
from exitlab import scenarios as sc  # noqa: E402
from exitlab import domain as dom  # noqa: E402

SETUP_SECONDS = 0.5
SETUP_MIN_REPS = 11


def setup_once(cfgs):
    """The set-up path of execute: scenario dict to built, hypothesis-checked problem.

    Functions are looked up on their modules at call time so that a tracer's
    patches see these calls too.
    """
    for raw in cfgs:
        cfg = sc.validate_config(raw)
        domain = sc.build_domain(cfg)
        cost = sc.build_cost(domain, cfg)
        kernel = sc.build_kernel(domain, cfg)
        sc.build_initial_measure(domain, cfg)
        dom.validate_hypotheses(domain, cost)
        kernel.hypothesis_report(cost)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _last_gaps(run_dir):
    """(max_gap, min_gap) of the last row of exploitability_history.csv."""
    with open(os.path.join(run_dir, "exploitability_history.csv")) as fh:
        header = fh.readline().strip().split(",")
        last = fh.read().strip().splitlines()[-1].split(",")
    row = dict(zip(header, last))
    return float(row["max_gap"]), float(row["min_gap"])


def _stolen_s():
    """Steal time of this process's CPUs so far, from /proc/stat: seconds in
    which the hypervisor ran something else on them while they had work."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    with open("/proc/stat") as fh:
        ticks = sum(int(f[8]) for f in (line.split() for line in fh) if f[0] in cpus)
    return ticks / os.sysconf("SC_CLK_TCK")


def _verify(run_dir):
    """Timed runner.verify of one run directory, as record fields."""
    t0, c0, s0 = time.monotonic(), time.process_time(), _stolen_s()
    ver = runner.verify(run_dir)
    t1, c1, s1 = time.monotonic(), time.process_time(), _stolen_s()
    return {"verify_s": t1 - t0, "verify_cpu_s": c1 - c0, "verify_stolen_s": s1 - s0,
            "verify_passed": bool(ver.passed), "verify_error": ver.error,
            "verify_differences": ver.differences[:5]}


def one_op(cfgs, op_dir, tamper=False):
    """run then verify each scenario in turn into op_dir; one record per scenario."""
    shutil.rmtree(op_dir, ignore_errors=True)
    records = []
    for cfg in cfgs:
        run_dir = os.path.join(op_dir, cfg["name"])
        t0, c0, s0 = time.monotonic(), time.process_time(), _stolen_s()
        res = runner.run(cfg, run_dir)
        t1, c1, s1 = time.monotonic(), time.process_time(), _stolen_s()
        rec = {"name": cfg["name"], "run_s": t1 - t0, "run_cpu_s": c1 - c0,
               "run_stolen_s": s1 - s0,
               "status": res.status, "error": res.error}
        if res.path is None:
            records.append(rec)
            continue
        if tamper:
            with open(os.path.join(run_dir, "report.json"), "a") as fh:
                fh.write(" ")
        rec.update(_verify(run_dir))
        ledger = res.ledger
        rec["failed_checks"] = [c["name"] for c in ledger.get("checks", []) if not c["passed"]]
        rec["failed_checks"] += [h["name"] for h in ledger["hypotheses"] if not h["passed"]]
        rec["iterations"] = ledger.get("equilibrium", {}).get("iterations")
        if "equilibrium" in ledger:
            max_gap, min_gap = _last_gaps(run_dir)
            rec["max_abs_gap"] = max(max_gap, -min_gap)
        rec["artifacts"] = {name: _sha256(os.path.join(run_dir, name))
                            for name in sorted(os.listdir(run_dir))}
        rec["bytes"] = sum(os.path.getsize(os.path.join(run_dir, name))
                           for name in os.listdir(run_dir))
        records.append(rec)
    return records


def verify_passes(cfgs, op_dir, deadline):
    """Repeated verifies of the runs an op left in op_dir, while one more fits before deadline."""
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append([{"name": cfg["name"], **_verify(os.path.join(op_dir, cfg["name"]))}
                       for cfg in cfgs])
        now = time.monotonic()
        if now + (now - t0) > deadline:
            return passes


def setup_passes(cfgs):
    """Times of repeated set-up passes, for at least SETUP_SECONDS."""
    times = []
    start = time.monotonic()
    while len(times) < SETUP_MIN_REPS or time.monotonic() - start < SETUP_SECONDS:
        t0 = time.monotonic()
        setup_once(cfgs)
        times.append(time.monotonic() - t0)
    return times


def traced_op(cfgs, op_dir, tamper, spans_path):
    """One traced set-up pass and one traced op; returns (records, layer metrics)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            setup_once(cfgs)
        records = one_op(cfgs, op_dir, tamper)
        shutil.rmtree(op_dir, ignore_errors=True)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["runner.persist.bytes"] = sum(r.get("bytes", 0) for r in records)
    tracer.write_spans(spans_path)
    return records, layers


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    cfgs = job["scenarios"]
    if job["kind"] == "setup":
        result = {"setup_s": setup_passes(cfgs)}
    elif job["kind"] == "verify":
        result = {"passes": verify_passes(cfgs, job["op_dir"], job["deadline"])}
    elif job["kind"] == "op":
        records = one_op(cfgs, job["op_dir"], job["tamper"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"records": records, "peak_rss_mb": peak_rss_mb,
                  "setup_s": setup_passes(cfgs)}
    else:
        records, layers = traced_op(cfgs, job["op_dir"], job["tamper"], job["spans_path"])
        result = {"records": records, "layers": layers}
    with open(os.path.join(os.path.dirname(job_path), "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
