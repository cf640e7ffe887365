"""exitlab benchmark: seeded workloads through runner.run then runner.verify.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corridor --seed 0 --seconds 60 --trace 0

The workload's scenario dicts are generated from the seed (workloads.py) and
handed to fresh worker processes (worker.py), one per op, which run and
verify each scenario in turn and then time set-up passes; ops repeat in a
closed loop for about --seconds, after a first window of set-up passes, and
re-verify passes fill what is left of the window. This process checks
every op's outputs, prints each metric with its unit and the sha256 of every
artifact, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
with reference.py running on a second CPU so that every time can be scaled
to the host's uncontended speed; --trace 1 alternates untraced and traced
ops instead and reports the per-layer metrics.
See README.md for the definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKER_TIMEOUT_S = 170
# one scenario at a time on one core: multi-threaded OpenBLAS on this
# problem size was both slower and less steady on a shared 2-vCPU machine
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# printed but not in BENCHMARK.json: an end-to-end ratio that is 0 when all is
# well cannot carry a relative bound; the JSON line carries it as failed/attempted
EXTRA_UNITS = {"failed_fraction": "ratio"}

# seconds of one reference.py chunk on an uncontended core of the machine
# the benchmark was tuned on (a 2-vCPU Intel Xeon VM); times are reported
# at that speed, see README.md, Steadiness
REFERENCE_CHUNK_S = 1.0e-3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_pinned():
    with open(os.path.join(BENCH, "pinned_report_sha256.json")) as fh:
        return json.load(fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def run_worker(workdir, **job):
    """Run one worker job in a fresh process and return its result."""
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), job_path],
                          cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    with open(os.path.join(workdir, "result.json")) as fh:
        return json.load(fh)


def start_reference(path, cpu):
    """reference.py pinned to `cpu`, once it has recorded its first chunks."""
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "reference.py"), path],
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    give_up = time.monotonic() + 10.0
    while not (os.path.exists(path) and os.path.getsize(path)):
        if proc.poll() is not None or time.monotonic() > give_up:
            stop_reference(proc)
            raise RuntimeError("reference load did not start")
        time.sleep(0.05)
    return proc


def stop_reference(proc):
    proc.terminate()
    proc.wait()


def reference_slowdown(path):
    """Reference chunk time in the fastest second of the run, over REFERENCE_CHUNK_S.

    The median chunk time of each whole second of the run, and the least of
    those: one factor for the whole run that rises only when the host is
    slow all through the run. Each CPU also stalls on its own, for a
    fraction of a second to many seconds; such stalls on the reference's
    CPU say nothing about the workers' CPU, and a factor that followed
    them (the mean over each call, or the 10th percentile over the run)
    added more spread than it removed.
    """
    ends, secs = np.loadtxt(path, ndmin=2).T
    second = np.floor(ends - ends[0]).astype(int)
    full = np.unique(second)[:-1]  # the last second is cut short
    medians = [np.median(secs[second == k]) for k in full] or [np.median(secs)]
    return float(min(medians)) / REFERENCE_CHUNK_S


def measure(cfgs, seconds, tamper, workdir):
    """Closed-loop ops for about `seconds`, set-up window included.

    A first worker times set-up passes. Then ops (run + verify of every
    scenario, each op in a fresh worker, which times another set-up window
    after its op) repeat while another is expected to end in time. What is
    left of the window, when it cannot hold another op, goes to one more
    worker that re-verifies the last op's runs while another pass fits, so
    that every run of a workload samples verify for about as long. Set-up
    takes milliseconds, so its passes are timed in several windows spread
    over the run, to sample more than one moment of a shared machine.
    """
    # time.monotonic, not perf_counter: the re-verify worker compares the
    # deadline with its own clock, and monotonic is one clock for every process
    deadline = time.monotonic() + seconds
    job = {"scenarios": cfgs, "tamper": tamper}
    setup_s = run_worker(workdir, kind="setup", **job)["setup_s"]
    ops, verifies, peaks = [], [], []
    last = 0.0
    while not ops or time.monotonic() + last <= deadline:
        op_dir = os.path.join(workdir, f"op{len(ops)}")
        t0 = time.monotonic()
        res = run_worker(workdir, kind="op", op_dir=op_dir, **job)
        last = time.monotonic() - t0
        if ops:
            shutil.rmtree(os.path.join(workdir, f"op{len(ops) - 1}"), ignore_errors=True)
        ops.append(res["records"])
        peaks.append(res["peak_rss_mb"])
        setup_s += res["setup_s"]
    # a verify pass costs about the op's verify time, plus a worker start
    # of about the op's time outside its timed calls and set-up window;
    # an op whose run wrote no directory leaves nothing to re-verify
    verify = sum(r.get("verify_s", 0.0) for r in ops[-1])
    overhead = last - verify - sum(r["run_s"] for r in ops[-1]) - sum(res["setup_s"])
    if (all("verify_s" in r for r in ops[-1])
            and time.monotonic() + verify + max(overhead, 0.0) <= deadline):
        verifies = run_worker(workdir, kind="verify", op_dir=op_dir, deadline=deadline,
                              **job)["passes"]
    return {"setup_s": setup_s, "ops": ops, "verifies": verifies,
            "peak_rss_mb": statistics.median(peaks)}


def measure_traced(cfgs, seconds, tamper, workdir, spans_path):
    """Pairs of one untraced and one traced op, each in a fresh worker, for about `seconds`.

    Layer metrics are medians over the traced ops; trace.overhead_s is the
    median traced run_s minus the median untraced run_s.
    """
    job = {"scenarios": cfgs, "tamper": tamper, "op_dir": os.path.join(workdir, "op")}
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        plain.append(run_worker(workdir, kind="op", **job)["records"])
        res = run_worker(workdir, kind="trace", spans_path=spans_path, **job)
        last = time.perf_counter() - t0
        traced.append(res["records"])
        layers.append(res["layers"])
    run_s = {"untraced": [sum(r["run_s"] for r in op) for op in plain],
             "traced": [sum(r["run_s"] for r in op) for op in traced]}
    merged = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
    merged["trace.overhead_s"] = (statistics.median(run_s["traced"])
                                  - statistics.median(run_s["untraced"]))
    return {"ops": plain + traced, "verifies": [], "layers": merged, "run_s": run_s}


def check_ops(ops, verifies, seed, pinned):
    """(attempted, failed, messages); each run and each verify is one operation."""
    attempted = failed = 0
    messages = []
    first = {}
    for k, op in enumerate(ops):
        for rec in op:
            name = rec["name"]
            attempted += 2
            why = []
            if rec["status"] != 0:
                why.append(f"status {rec['status']}: {rec.get('error')}")
            if rec.get("failed_checks"):
                why.append(f"failed ledger checks {rec['failed_checks']}")
            arts = rec.get("artifacts", {})
            if seed == 0 and arts.get("report.json") != pinned.get(name):
                why.append("report.json differs from the pinned sha256")
            stable = {a: h for a, h in arts.items() if a != "manifest.json"}
            if first.setdefault(name, stable) != stable:
                why.append("artifacts differ from the first op of this run")
            if why:
                failed += 1
                messages.append(f"FAIL run {name} op {k}: " + "; ".join(why))
            if not rec.get("verify_passed", False):
                failed += 1
                messages.append(f"FAIL verify {name} op {k}: {rec.get('verify_error')} "
                                f"{rec.get('verify_differences')}")
    for k, rep in enumerate(verifies):
        for rec in rep:
            attempted += 1
            if not rec["verify_passed"]:
                failed += 1
                messages.append(f"FAIL re-verify {rec['name']} pass {k}: "
                                f"{rec['verify_error']} {rec['verify_differences']}")
    return attempted, failed, messages


def samples(result, slowdown):
    """Set-up pass times and per-op (or per re-verify pass) run and verify
    times summed over scenarios: as measured ("raw"), the steal time within
    them, and scaled to reference speed. Scaling subtracts the steal time
    of the workers' CPU during each call and divides by the run's
    reference slowdown. Set-up passes are only divided: they are shorter
    than a steal tick, and their minimum skips the stolen ones."""
    ops = result["ops"]
    verifies = ops + result["verifies"]
    raw = {"setup_s": result["setup_s"],
           "run_s": [sum(r["run_s"] for r in op) for op in ops],
           "verify_s": [sum(r.get("verify_s", 0.0) for r in op) for op in verifies]}
    stolen = {"setup_s": [0.0] * len(raw["setup_s"]),
              "run_s": [sum(r["run_stolen_s"] for r in op) for op in ops],
              "verify_s": [sum(r.get("verify_stolen_s", 0.0) for r in op) for op in verifies]}
    return {**{name: [(t - st) / slowdown for t, st in zip(times, stolen[name])]
               for name, times in raw.items()},
            **{f"raw {name}": times for name, times in raw.items()},
            "stolen run_s": stolen["run_s"],
            "stolen verify_s": stolen["verify_s"],
            "raw run_cpu_s": [sum(r["run_cpu_s"] for r in op) for op in ops],
            "raw verify_cpu_s": [sum(r.get("verify_cpu_s", 0.0) for r in op)
                                 for op in verifies]}


def end_to_end(result, timed, attempted, failed):
    first = result["ops"][0]
    gaps = [r["max_abs_gap"] for r in first if r.get("max_abs_gap") is not None]
    return {
        # the minimum, not the median: a set-up pass takes milliseconds, so
        # each one falls in a fast or a slow state of the shared host as a
        # whole, and the median followed the share of slow time, which
        # drifts between quarter hours (+35% between two sets of runs on
        # the same code), while the fast passes' time held within 3%
        "setup_s": min(timed["setup_s"]),
        "run_s": statistics.median(timed["run_s"]),
        "verify_s": statistics.median(timed["verify_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "iterations": sum(r.get("iterations") or 0 for r in first),
        "max_abs_gap": max(gaps) if gaps else float("nan"),
        "failed_fraction": failed / attempted,
    }


def main(argv=None, tamper=False):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exitlab", "__init__.py")):
        print(f"exitlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.GENERATORS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    cfgs = workloads.generate(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}"
    workdir = os.path.join(BENCH, "_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(BENCH, "_out")
    cpus = sorted(os.sched_getaffinity(0))
    if not args.trace and len(cpus) < 2:
        print("the benchmark needs two CPUs: one for the workers, one for the reference load",
              file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            result = measure_traced(cfgs, args.seconds, tamper, workdir,
                                    os.path.join(out_dir, f"spans-{args.workload}.csv"))
        else:
            # workers inherit this process's CPU; the reference load runs on another
            ref_path = os.path.join(workdir, "reference.txt")
            ref_proc = start_reference(ref_path, cpus[1])
            os.sched_setaffinity(0, {cpus[0]})
            try:
                result = measure(cfgs, args.seconds, tamper, workdir)
                if ref_proc.poll() is not None:
                    raise RuntimeError("reference load ended during the run")
            finally:
                os.sched_setaffinity(0, cpus)
                stop_reference(ref_proc)
            slowdown = reference_slowdown(ref_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, messages = check_ops(result["ops"], result["verifies"], args.seed,
                                            load_pinned())
    print(f"workload {args.workload} seed {args.seed}: {len(result['ops'])} op(s) and "
          f"{len(result['verifies'])} re-verify pass(es) of "
          f"{len(cfgs)} scenario(s) ({', '.join(c['name'] for c in cfgs)}), "
          "closed loop, one worker process per op, trace " + ("on" if args.trace else "off"))
    for line in messages:
        print(line)
    for rec in result["ops"][0]:
        for art, digest in sorted(rec.get("artifacts", {}).items()):
            print(f"sha256 {rec['name']}/{art} {digest}")

    if args.trace:
        for name, timed in result["run_s"].items():
            print(f"samples run_s {name} n={len(timed)} "
                  + " ".join(f"{t:.6g}" for t in timed))
        values = result["layers"]
        declared = spec["per_layer"]
    else:
        print(f"reference slowdown {slowdown!r}")
        timed = samples(result, slowdown)
        for name, values in timed.items():
            print(f"samples {name} n={len(values)} min={min(values):.6g} "
                  f"median={statistics.median(values):.6g} max={max(values):.6g}")
        values = end_to_end(result, timed, attempted, failed)
        declared = spec["end_to_end"]
    units = {**{m["name"]: m["unit"] for m in declared}, **EXTRA_UNITS}
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # a terminated benchmark still stops its workers and reference load
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
