"""Out-of-program tracing: wrap exitlab's layer functions and record spans.

Every function is patched where its callers look it up, not only where it
is defined (equilibrium imports solve_value and synthesize_batch by name, so
patching ocp.solve_value alone would never be hit). Spans are kept in memory
as [name, start, end, parent, child_time] and written out after the run.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import defaultdict

# (span name, [(module path or class path, attribute), ...]); every owner of
# one span holds the same original function object
LAYER_FUNCTIONS = [
    ("scenarios.validate_config", [("exitlab.scenarios", "validate_config")]),
    ("scenarios.build_domain", [("exitlab.scenarios", "build_domain")]),
    ("scenarios.build_cost", [("exitlab.scenarios", "build_cost")]),
    ("scenarios.build_kernel", [("exitlab.scenarios", "build_kernel")]),
    ("scenarios.build_initial_measure", [("exitlab.scenarios", "build_initial_measure")]),
    ("domain.validate_hypotheses", [("exitlab.domain", "validate_hypotheses"),
                                    ("exitlab.runner", "validate_hypotheses")]),
    ("congestion.hypothesis_report", [("exitlab.congestion:CongestionKernel",
                                       "hypothesis_report")]),
    ("congestion.node_speeds", [("exitlab.congestion:CongestionKernel", "node_speeds")]),
    ("congestion.node_interaction_matrix", [("exitlab.congestion:CongestionKernel",
                                             "node_interaction_matrix")]),
    ("ocp.solve_value", [("exitlab.ocp", "solve_value"),
                         ("exitlab.equilibrium", "solve_value")]),
    ("ocp.synthesize_batch", [("exitlab.ocp", "synthesize_batch"),
                              ("exitlab.equilibrium", "synthesize_batch")]),
    ("ocp.horizon_bound", [("exitlab.ocp", "horizon_bound"),
                           ("exitlab.equilibrium", "horizon_bound"),
                           ("exitlab.asymptotics", "horizon_bound")]),
    # equilibrium._bound_checks imports these at call time from exitlab.ocp
    ("ocp.value_bound_excess", [("exitlab.ocp", "value_bound_excess")]),
    ("ocp.confinement_excess", [("exitlab.ocp", "confinement_excess")]),
    ("equilibrium.solve_equilibrium", [("exitlab.equilibrium", "solve_equilibrium")]),
    ("equilibrium.field_from_marginals", [("exitlab.equilibrium", "field_from_marginals")]),
    ("equilibrium.exploitability", [("exitlab.equilibrium", "exploitability")]),
    ("equilibrium.realized_costs", [("exitlab.equilibrium", "realized_costs")]),
    ("equilibrium.admissibility_excess", [("exitlab.equilibrium", "admissibility_excess")]),
    ("equilibrium.certify", [("exitlab.equilibrium", "certify")]),
    ("measures.mix", [("exitlab.measures:TrajectoryEnsemble", "mix")]),
    ("measures.step_lengths", [("exitlab.measures:TrajectoryEnsemble", "step_lengths")]),
    ("measures.wasserstein", [("exitlab.measures", "wasserstein"),
                              ("exitlab.asymptotics", "wasserstein"),
                              ("exitlab.runner", "wasserstein")]),
    ("measures.wasserstein_lp", [("exitlab.measures", "wasserstein_lp")]),
    ("asymptotics.convergence_curve", [("exitlab.asymptotics", "convergence_curve")]),
    ("asymptotics.p_moment_excess", [("exitlab.asymptotics", "p_moment_excess")]),
    ("runner.run", [("exitlab.runner", "run")]),
    ("runner.verify", [("exitlab.runner", "verify")]),
    ("runner.execute", [("exitlab.runner", "execute")]),
    ("runner.persist", [("exitlab.runner", "persist")]),
]

# backend methods, patched on every concrete domain class that defines them
DOMAIN_CLASSES = ("IntervalDomain", "Grid2dDomain", "GraphDomain")
DOMAIN_METHODS = ("reach_candidates", "interp", "snap_to_target", "point_distance")


SETUP_BUILD = ("scenarios.validate_config", "scenarios.build_domain", "scenarios.build_cost",
               "scenarios.build_kernel", "scenarios.build_initial_measure")
SETUP_HYPOTHESES = ("domain.validate_hypotheses", "congestion.hypothesis_report")


def _resolve(path):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Patches the layer functions on install() and restores them on uninstall()."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []
        # (before(*args, **kwargs), after(result)) work counters per span name
        self._hooks = {
            "ocp.solve_value": (self._count_backward_steps, None),
            "domain.reach_candidates": (None, self._count_candidates),
            "equilibrium.solve_equilibrium": (None, self._record_mixture),
        }

    # -- recording ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][4] += rec[2] - rec[1]

    def _wrap(self, name, fn):
        before, after = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(out)
            return out
        return wrapper

    def _count_backward_steps(self, *args, **kwargs):
        speed = kwargs["speed"] if "speed" in kwargs else args[2]
        self.counters["backward_steps"] += int(speed.n_steps)

    def _count_candidates(self, out):
        m, s_count = out[1].shape
        self.counters["ocp.candidate_evals"] += m * s_count
        if any(self.spans[i][0] == "ocp.solve_value" for i in self._stack):
            self.counters["reach_under_solve"] += 1

    def _record_mixture(self, report):
        ens = report.final_ensemble
        c = self.counters
        c["measures.mixture_support"] = max(c["measures.mixture_support"], ens.n_traj)
        c["measures.mixture_bytes"] = max(c["measures.mixture_bytes"], ens.samples.nbytes)

    # -- patching ----------------------------------------------------------
    def install(self):
        targets = list(LAYER_FUNCTIONS)
        for meth in DOMAIN_METHODS:
            owners = [(f"exitlab.domain:{cls}", meth) for cls in DOMAIN_CLASSES]
            targets.append((f"domain.{meth}", owners))
        for name, owners in targets:
            wrappers = {}
            for path, attr in owners:
                owner = _resolve(path)
                original = vars(owner)[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                setattr(owner, attr, wrappers[id(original)])
                self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                out.writerow([i, name, repr(start - t0), repr(end - t0), parent])

    def _root(self, idx):
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return self.spans[idx][0]

    def layer_metrics(self):
        """Per-layer metrics over every recorded span (see README.md for definitions)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        setup = defaultdict(float)
        covered = run_s = execute_in_run = 0.0
        for i, (name, start, end, parent, child) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child
            root = self._root(i)
            if root == "bench.setup":
                setup[name] += dur
            if name == "runner.run":
                run_s += dur
            if name == "runner.execute" and root == "runner.run":
                execute_in_run += dur
            # layer spans directly under run, or under run's execute, cover
            # disjoint intervals of the run
            if root == "runner.run" and name not in ("runner.run", "runner.execute"):
                p = parent
                if self.spans[p][0] == "runner.execute":
                    p = self.spans[p][3]
                if self.spans[p][0] == "runner.run":
                    covered += dur
        execute_in_verify = total["runner.execute"] - execute_in_run
        c = self.counters
        return {
            "scenarios.build_s": sum(setup[n] for n in SETUP_BUILD),
            "domain.hypotheses_s": sum(setup[n] for n in SETUP_HYPOTHESES),
            "domain.reach_candidates.calls": calls["domain.reach_candidates"],
            "domain.reach_candidates.self_s": self_s["domain.reach_candidates"],
            "domain.interp.calls": calls["domain.interp"],
            "domain.interp.self_s": self_s["domain.interp"],
            "domain.snap_to_target.calls": calls["domain.snap_to_target"],
            "domain.point_distance.calls": calls["domain.point_distance"],
            "congestion.node_speeds.calls": calls["congestion.node_speeds"],
            "congestion.node_speeds.self_s": self_s["congestion.node_speeds"],
            "congestion.node_interaction_matrix.calls": calls["congestion.node_interaction_matrix"],
            "congestion.node_interaction_matrix_s": total["congestion.node_interaction_matrix"],
            "ocp.solve_value.calls": calls["ocp.solve_value"],
            "ocp.solve_value.self_s": self_s["ocp.solve_value"],
            "ocp.stationary_sweeps": c["reach_under_solve"] - c["backward_steps"],
            "ocp.candidate_evals": c["ocp.candidate_evals"],
            "ocp.synthesize_batch.calls": calls["ocp.synthesize_batch"],
            "ocp.synthesize_batch.self_s": self_s["ocp.synthesize_batch"],
            "ocp.horizon_bound.calls": calls["ocp.horizon_bound"],
            "ocp.bound_checks_s": total["ocp.value_bound_excess"] + total["ocp.confinement_excess"],
            "equilibrium.field_from_marginals.self_s": self_s["equilibrium.field_from_marginals"],
            "equilibrium.exploitability.self_s": self_s["equilibrium.exploitability"],
            "equilibrium.realized_costs.self_s": self_s["equilibrium.realized_costs"],
            "equilibrium.admissibility_excess.self_s": self_s["equilibrium.admissibility_excess"],
            "equilibrium.certify_s": total["equilibrium.certify"],
            "measures.mix.calls": calls["measures.mix"],
            "measures.mix.self_s": self_s["measures.mix"],
            "measures.mixture_support": c["measures.mixture_support"],
            "measures.mixture_bytes": c["measures.mixture_bytes"],
            "measures.step_lengths.self_s": self_s["measures.step_lengths"],
            "measures.wasserstein.calls": calls["measures.wasserstein"],
            "measures.wasserstein.self_s": self_s["measures.wasserstein"],
            "measures.wasserstein_lp.calls": calls["measures.wasserstein_lp"],
            "asymptotics.convergence_curve.self_s": self_s["asymptotics.convergence_curve"],
            "asymptotics.p_moment_excess.self_s": self_s["asymptotics.p_moment_excess"],
            "runner.execute_s": execute_in_run,
            "runner.persist_s": total["runner.persist"],
            "runner.verify.recheck_s": total["runner.verify"] - execute_in_verify,
            "trace.run_s": run_s,
            "trace.uncovered_s": run_s - covered,
            "trace.spans": len(self.spans),
        }

