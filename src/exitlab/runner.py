"""Run orchestration and persistence: validate -> solve -> certify -> asymptotics.

A run directory holds report.json (the re-checkable ledger), manifest.json
(resolved config, seed, artifact hashes), the final mixture's paths as
trajectories.npy, and CSV companions. All floats in the JSON and CSV
artifacts are printed with 12 significant digits so reruns are byte-stable;
verify re-executes the pipeline from the manifest and compares ledgers.
"""
from __future__ import annotations

import copy
import datetime
import hashlib
import json
import os
import traceback

import numpy as np

from . import asymptotics as asy
from . import equilibrium as eq
# ocp's functions are looked up on the module at call time, where
# perfbench/tracer.py patches value_bound_excess and confinement_excess
from . import ocp
from . import scenarios as sc
from .congestion import HypothesisViolation
from .domain import validate_hypotheses
from .measures import MeasureError, ParticleMeasure
# not called here; kept because perfbench/tracer.py patches exitlab.runner.wasserstein
from .measures import wasserstein  # noqa: F401

STATUS_OK = 0
STATUS_VALIDATION = 2
STATUS_NOT_CONVERGED = 3
STATUS_INTERNAL = 4

PACKAGE_VERSION = "0.1.0"
# characters of a sweep member directory's label: at 4 UTF-8 bytes each the
# name stays under the 255-byte limit of common file systems (the index
# prefix keeps the cut names distinct)
MEMBER_LABEL_CAP = 60
# the config path each hypothesis reads: a failed one's error line starts with it
HYPOTHESIS_PATHS = {"H1": "domain", "H2": "domain.targets", "H3": "exit_cost",
                    "H4": "domain.edges", "H5-H7": "kernel", "H8": "kernel", "H9": "kernel",
                    "H10": "exit_cost"}


def _r12(x):
    """Round to 12 significant digits for ledger-stable floats."""
    if x is None:
        return None
    x = float(x)
    if not np.isfinite(x):
        return None
    return float(f"{x:.12g}")


def set_by_path(cfg, dotted, value):
    node = cfg
    parts = dotted.split(".")
    for p in parts[:-1]:
        if p not in node:
            raise sc.ScenarioError(f"override path {dotted!r}: no key {p!r}")
        node = node[p]
    if parts[-1] not in node:
        raise sc.ScenarioError(f"override path {dotted!r}: no key {parts[-1]!r}")
    node[parts[-1]] = value


def apply_overrides(cfg, tol=None, max_iter=None, params=None):
    cfg = copy.deepcopy(cfg)
    if tol is not None:
        cfg["equilibrium"]["tolerance"] = float(tol)
    if max_iter is not None:
        cfg["equilibrium"]["max_iterations"] = int(max_iter)
    for dotted, value in (params or {}).items():
        set_by_path(cfg, dotted, value)
    return cfg


def execute(cfg):
    """Run the full pipeline in memory; returns the artifact bundle.

    A run that fails a hypothesis stops with status 2 and bundle["error"],
    one line per failed hypothesis that starts with the config path it reads.
    """
    cfg = sc.validate_config(cfg)
    bundle = {"config": cfg, "status": STATUS_OK, "flags": [], "checks": []}

    domain = sc.build_domain(cfg)
    cost = sc.build_cost(domain, cfg)
    hypotheses = validate_hypotheses(domain, cost)
    paths = dict(HYPOTHESIS_PATHS)
    try:
        kernel = sc.build_kernel(domain, cfg)
    except HypothesisViolation as err:
        hypotheses.append({"name": "H8", "passed": False, "detail": str(err)})
        paths["H8"] = "kernel" if err.key is None else f"kernel.{err.key}"
    else:
        m0, m0_flags = sc.build_initial_measure(domain, cfg)
        bundle["flags"] += m0_flags
        if kernel.chi.family == "ball":
            bundle["flags"].append(
                "indicator chi: run is outside hypothesis coverage (speed field "
                "not continuous in the population in the continuum limit)")
        hypotheses += kernel.hypothesis_report(cost)
    bundle["hypotheses"] = hypotheses
    failed = [h for h in hypotheses if not h["passed"]]
    if failed:
        bundle["status"] = STATUS_VALIDATION
        bundle["error"] = "\n".join(f"{paths[h['name']]}: {h['name']} fails: {h['detail']}"
                                    for h in failed)
        return bundle

    config = sc.build_equilibrium_config(cfg)
    report = eq.solve_equilibrium(m0, kernel, cost, config)
    bundle.update(domain=domain, cost=cost, kernel=kernel, m0=m0, equilibrium=report)
    bundle["flags"] += report.flags

    _asymptotics_stage(bundle, cfg)
    _assemble_checks(bundle)
    if not report.converged or not all(c["passed"] for c in bundle["checks"]):
        bundle["status"] = STATUS_NOT_CONVERGED
    return bundle


def _asymptotics_stage(bundle, cfg):
    """The limit of the final mixture (bundle["m_infinity"], None while some
    trajectory still moves at the horizon end), its settling time, the
    convergence curve to the limit and the rate fit on it."""
    cost, kernel, m0 = (bundle[k] for k in ("cost", "kernel", "m0"))
    ens = bundle["equilibrium"].final_ensemble
    bounds = (kernel.k_min, kernel.k_max)
    p = int(cfg["asymptotics"]["p"])
    times = sc.report_times(cfg, ens.horizon)
    bundle["report_grid"] = times

    bundle["settling_time"] = asy.settling_time(ens)
    try:
        m_inf = asy.limit_measure(ens)
    except MeasureError:  # some trajectory still moves at the horizon end
        m_inf = None
    bundle["m_infinity"] = m_inf
    curve = None
    if m_inf is not None:
        curve = asy.convergence_curve(ens, times, p, m0=m0, cost=cost, bounds=bounds,
                                      m_inf=m_inf)
        bundle["flags"] += curve.flags
    bundle["curve"] = curve
    bundle["p"] = p

    fit_cfg = cfg["asymptotics"]["rate_fit"]
    bundle["rate_fit"] = bundle["rate_fit_error"] = None
    if fit_cfg is not None and curve is not None:
        try:
            bundle["rate_fit"] = asy.fit_decay_rate(
                curve, tuple(fit_cfg["window"]), fit_cfg["mode"],
                int(fit_cfg.get("tail_dimension", 1)))
        except asy.ShrinkWindowError as err:  # the report grid is known only now
            bundle["rate_fit_error"] = str(err)


def _assemble_checks(bundle):
    """Every ledger check of the final mixture, into bundle["checks"].

    The a-priori bounds come first: the value bound, psi(R)-ball and mass
    confinement, the Lipschitz bound and constant-after-exit, the last four
    from one row_scan of the mixture.
    """
    report = bundle["equilibrium"]
    domain, cost, kernel, m0 = (bundle[k] for k in ("domain", "cost", "kernel", "m0"))
    bounds = (kernel.k_min, kernel.k_max)
    cert = report.certification
    ens = report.final_ensemble
    tol_dpp = ocp.default_dpp_tol(domain, ens.dt)
    checks = []

    # exact on the interval backend (the 1d scheme computes true reach-ball
    # minima); 2d/graph carry the first-order interpolation slack
    slack = 1e-9 if domain.kind == "interval" else tol_dpp
    excess = ocp.value_bound_excess(report.final_phi, cost, bounds)
    checks.append({"name": "value_upper_bound", "passed": bool(excess <= slack),
                   "detail": f"max phi - (T(R) + max g) = {excess:.6g}"})

    start_r, furthest, longest, drift = ens.row_scan()
    exc = ocp.confinement_excess(start_r, furthest, cost, bounds)
    checks.append({"name": "psi_ball_confinement", "passed": bool(exc <= slack),
                   "detail": f"max excursion excess over psi(R) = {exc:.6g}"})

    # for each tested R, the mixture's mass inside the psi(R)-ball must
    # cover m0's mass inside the R-ball (the compact search set)
    start_d = m0.origin_distances()
    radii = np.quantile(start_d, [0.25, 0.5, 0.75, 1.0])
    worst = min(float(np.sum(ens.weights[furthest <= psi_r + 1e-9]))
                - float(np.sum(m0.weights[start_d <= r + 1e-9]))
                for r, psi_r in zip(radii, ocp.trajectory_bound(cost, bounds, radii)))
    checks.append({"name": "mass_confinement", "passed": bool(worst >= -1e-9),
                   "detail": f"min over tested R of Q(psi-ball) - m0(R-ball) = {worst:.6g}"})

    # rounding is monotone, so longest - bound is the largest step excess to the bit
    lip = longest - (kernel.k_max * ens.dt + domain.dx)
    checks.append({"name": "ensemble_lipschitz", "passed": bool(lip <= 1e-9),
                   "detail": f"max step excess over K_max dt + dx = {lip:.6g}"})
    checks.append({"name": "constant_after_exit", "passed": bool(drift <= 1e-12),
                   "detail": f"max drift after exit = {drift:.6g}"})

    checks.append({"name": "weak_strong_agreement", "passed": cert["agree"],
                   "detail": f"weak={cert['weak']} strong={cert['strong']}"})

    curve = bundle["curve"]
    if curve is not None:
        excess = asy.curve_bound_excess(curve, tol_dpp)
        checks.append({"name": "tail_decay_bound",
                       "passed": bool(excess <= 1e-9 or not np.isfinite(excess)),
                       "detail": f"max W_p^p - bound - {tol_dpp:.6g} = {excess:.6g}"})
        pm = asy.p_moment_excess(ens, m0, cost, bounds, bundle["report_grid"], bundle["p"])
        checks.append({"name": "p_moment_propagation", "passed": bool(pm <= 1e-9),
                       "detail": f"max p_moment excess over psi ceiling = {pm:.6g}"})

    m_inf = bundle["m_infinity"]
    if m_inf is not None:
        tdist = domain.point_target_distance(m_inf.points)
        worst = float(np.max(tdist, initial=0.0))
        checks.append({"name": "limit_support_in_target", "passed": bool(worst <= 1e-9),
                       "detail": f"max distance of limit atoms to the target = {worst:.6g}"})

    # the horizon is known only after the solve, so validate_config cannot
    # reject a report grid that lies wholly beyond it
    if len(bundle["report_grid"]) == 0:
        checks.append({"name": "report_grid_nonempty", "passed": False,
                       "detail": f"no report time lies in [0, {ens.horizon:.6g}]"})

    if bundle["rate_fit_error"] is not None:
        checks.append({"name": "rate_fit_window", "passed": False,
                       "detail": bundle["rate_fit_error"]})

    t_star = bundle["settling_time"]
    settle_bound = report.t_bound + ens.dt
    settled_ok = t_star is not None and t_star <= settle_bound + 1e-9
    checks.append({"name": "compact_support_settling", "passed": bool(settled_ok),
                   "detail": ("not settled within horizon" if t_star is None
                              else f"t_* = {t_star:.6g} <= T(R_0) + dt = {settle_bound:.6g}")})

    # equality case of the DPP along (near-)optimal paths: probe the three
    # heaviest atoms, which are the most recently re-synthesized ones
    top = np.argsort(ens.weights)[::-1][:3]
    res = ocp.check_dpp(report.final_phi, ens.samples[top], ens.exit_indices[top])
    worst_eq = float(np.max(res["max_equality_residual"], initial=0.0))
    dpp_cap = cert["tol"] + tol_dpp
    checks.append({"name": "dpp_equality_spot_check",
                   "passed": bool(worst_eq <= dpp_cap),
                   "detail": f"max equality residual {worst_eq:.6g} vs tol {dpp_cap:.6g}"})

    bundle["checks"] = checks


def build_ledger(bundle):
    """The deterministic, re-checkable part of a run's outcome."""
    ledger = {
        "status": bundle["status"],
        "hypotheses": [
            {"name": h["name"], "passed": h["passed"]} for h in bundle["hypotheses"]],
        "flags": sorted(bundle["flags"]),
    }
    if "equilibrium" not in bundle:
        return ledger
    report = bundle["equilibrium"]
    cert, last = report.certification, report.history[-1]
    ledger["equilibrium"] = {
        "converged": report.converged,
        "iterations": report.iterations,
        "exploitability": _r12(last["exploitability"]),
        "max_gap": _r12(last["max_gap"]),
        "dt": _r12(report.final_ensemble.dt),
        "r_max": _r12(report.r_max),
        "t_bound": _r12(report.t_bound),
    }
    ledger["certification"] = {
        "weak": cert["weak"], "strong": cert["strong"], "agree": cert["agree"],
        "epsilon": _r12(cert["epsilon"]), "max_gap": _r12(cert["max_gap"]),
        "tol": _r12(cert["tol"]),
    }
    ledger["checks"] = [
        {"name": c["name"], "passed": c["passed"], "detail": c["detail"]}
        for c in bundle["checks"]]
    ledger["settling_time"] = _r12(bundle.get("settling_time"))
    m_inf = bundle["m_infinity"]
    if m_inf is not None:
        pts = m_inf.points.reshape(m_inf.n_atoms, -1)
        ledger["m_infinity"] = [
            [_r12(c) for c in row] + [_r12(w)]
            for row, w in zip(pts.tolist(), m_inf.weights.tolist())]
    fit = bundle.get("rate_fit")
    if fit is not None:
        ledger["rate_fit"] = {"mode": fit.mode, "value": _r12(fit.value),
                              "residual": _r12(fit.residual),
                              "window": [_r12(w) for w in fit.window]}
    return ledger


# ---------------------------------------------------------------------------
# persistence

def _cells(col):
    """Text of each cell: integers in decimal, floats as %.12g, non-finite floats empty.

    Each distinct 64-bit pattern is formatted once (by bits, not by value:
    -0.0 prints as -0) and gathered back to its cells.
    """
    is_int = np.issubdtype(col.dtype, np.integer)
    _, first, inverse = np.unique(col if is_int else col.view(np.int64),
                                  return_index=True, return_inverse=True)
    distinct = col[first]
    if is_int:
        text = list(map(str, distinct.tolist()))
    else:
        text = list(map("%.12g".__mod__, distinct.tolist()))
        for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
            text[i] = ""
    return list(map(text.__getitem__, inverse.tolist()))


def _write_table(path, header, columns):
    """Write a CSV from equal-length 1d columns."""
    rows = zip(*(_cells(np.asarray(c)) for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _point_columns(points):
    """One float column per coordinate of a point batch."""
    points = np.asarray(points, dtype=float)
    return [points] if points.ndim == 1 else list(points.T)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def persist(bundle, run_dir):
    os.makedirs(run_dir, exist_ok=True)
    files = []

    _write_json(os.path.join(run_dir, "report.json"), build_ledger(bundle))
    files.append("report.json")

    if "equilibrium" in bundle:
        domain = bundle["domain"]
        report = bundle["equilibrium"]
        ens = report.final_ensemble
        coord_cols = list(domain.coord_names)

        hist = report.history
        _write_table(os.path.join(run_dir, "exploitability_history.csv"),
                     ["iteration", "exploitability", "max_gap", "min_gap", "mixture_support"],
                     [np.array([h["iteration"] for h in hist], dtype=int)]
                     + [np.array([h[key] for h in hist], dtype=float)
                        for key in ("exploitability", "max_gap", "min_gap")]
                     + [np.array([h["mixture_support"] for h in hist], dtype=int)])
        files.append("exploitability_history.csv")

        # the final mixture's paths, every bit: row k is particle_id k of
        # trajectory_summary.csv and slice j is time j * dt
        np.save(os.path.join(run_dir, "trajectories.npy"), ens.samples, allow_pickle=False)
        files.append("trajectories.npy")

        costs = eq.realized_costs(ens, bundle["cost"])
        exit_time = np.where(ens.exit_indices >= 0, ens.exit_indices * ens.dt, np.nan)
        _write_table(os.path.join(run_dir, "trajectory_summary.csv"),
                     ["particle_id", "weight"] + [f"start_{c}" for c in coord_cols]
                     + ["exit_time", "realized_cost"],
                     [np.arange(ens.n_traj), ens.weights, *_point_columns(ens.samples[:, 0]),
                      exit_time, costs])
        files.append("trajectory_summary.csv")

        grid = np.asarray(bundle["report_grid"], dtype=float)
        marginals = [ens.time_marginal(t, merge=True) for t in grid]
        # the zero-length leading pieces keep the column shapes for an empty grid
        _write_table(os.path.join(run_dir, "marginals.csv"),
                     ["t"] + coord_cols + ["weight"],
                     [np.repeat(grid, [m.n_atoms for m in marginals]),
                      *_point_columns(np.concatenate(
                          [ens.samples[:0, 0]] + [m.points for m in marginals])),
                      np.concatenate([np.empty(0)] + [m.weights for m in marginals])])
        files.append("marginals.csv")

        m0 = bundle["m0"]
        _write_table(os.path.join(run_dir, "initial_measure.csv"),
                     coord_cols + ["weight"], [*_point_columns(m0.points), m0.weights])
        files.append("initial_measure.csv")

        phi = report.final_phi
        js = np.array(list(dict.fromkeys(phi.time_index(t) for t in grid)), dtype=int)
        row_j = np.repeat(js, domain.n_nodes)
        row_node = np.tile(np.arange(domain.n_nodes), len(js))
        _write_table(os.path.join(run_dir, "value_function.csv"),
                     ["t"] + coord_cols + ["phi"],
                     [row_j * phi.dt, *_point_columns(domain.node_points()[row_node]),
                      phi.values[row_j, row_node]])
        files.append("value_function.csv")

        curve = bundle["curve"]
        if curve is not None:
            _write_table(os.path.join(run_dir, "convergence_curve.csv"),
                         ["t", "w_p", "bound"], [curve.times, curve.values, curve.bounds])
            files.append("convergence_curve.csv")

        fit = bundle.get("rate_fit")
        if fit is not None:
            _write_json(os.path.join(run_dir, "rate_fit.json"),
                        {k: (_r12(v) if isinstance(v, float) else v)
                         for k, v in fit.as_dict().items()})
            files.append("rate_fit.json")

    config_json = json.dumps(bundle["config"], sort_keys=True)
    manifest = {
        "schema": 1,
        "package_version": PACKAGE_VERSION,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": bundle["config"],
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
        "seed": bundle["config"].get("seed", 0),
        "status": bundle["status"],
        "artifacts": {name: _sha256(os.path.join(run_dir, name)) for name in files},
    }
    _write_json(os.path.join(run_dir, "manifest.json"), manifest)
    return run_dir


class RunResult:
    def __init__(self, status, path, ledger, error=None):
        self.status = status
        self.path = path
        self.ledger = ledger
        self.error = error


def run(source, out_dir, tol=None, max_iter=None):
    """Execute a scenario and persist the run directory."""
    return _run(source, out_dir, tol, max_iter, None)[0]


def _run(source, out_dir, tol, max_iter, params):
    """run, also returning the in-memory bundle (None when nothing executed)."""
    try:
        cfg = sc.load_scenario(source)
        cfg = apply_overrides(cfg, tol=tol, max_iter=max_iter, params=params)
        bundle = execute(cfg)
    except sc.ScenarioError as err:
        return RunResult(STATUS_VALIDATION, None, None, str(err)), None
    except Exception as err:
        return RunResult(STATUS_INTERNAL, None, None,
                         f"{err}\n{traceback.format_exc()}"), None
    persist(bundle, out_dir)
    return RunResult(bundle["status"], out_dir, build_ledger(bundle), bundle.get("error")), bundle


class VerifyResult:
    def __init__(self, passed, differences, error=None):
        self.passed = passed
        self.differences = differences
        self.error = error


def _dict_diffs(a, b, prefix=""):
    diffs = []
    keys = sorted(set(a) | set(b))
    for k in keys:
        pa, pb = a.get(k), b.get(k)
        path = f"{prefix}{k}"
        if isinstance(pa, dict) and isinstance(pb, dict):
            diffs += _dict_diffs(pa, pb, path + ".")
        elif pa != pb:
            diffs.append(f"{path}: {pa!r} != {pb!r}")
    return diffs


def verify(run_dir, tol=None):
    """Integrity-check a run directory and deterministically re-derive its ledger.

    passed means the re-derived ledger has no difference from the stored one;
    tol re-derives it at another tolerance, and the differences list what moved.
    """
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        return VerifyResult(False, [], f"missing manifest.json in {run_dir}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        return VerifyResult(False, [], f"manifest.json is not valid JSON: {err}")
    for key in ("artifacts", "config"):
        if not isinstance(manifest, dict) or not isinstance(manifest.get(key), dict):
            return VerifyResult(False, [], f"manifest.json has no {key} object")
    for name, digest in manifest["artifacts"].items():
        # an artifact is a file of the run directory: a path would be read outside it
        if os.path.basename(name) != name:
            return VerifyResult(False, [], f"manifest.json lists {name!r}, not a file name")
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            return VerifyResult(False, [], f"missing artifact {name}")
        if _sha256(path) != digest:
            return VerifyResult(False, [], f"artifact {name} is corrupted (hash mismatch)")
    if "report.json" not in manifest["artifacts"]:
        return VerifyResult(False, [], "manifest.json does not list report.json")
    try:
        with open(os.path.join(run_dir, "report.json")) as fh:
            stored = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        return VerifyResult(False, [], f"report.json is not valid JSON: {err}")
    if not isinstance(stored, dict):
        return VerifyResult(False, [], "report.json is not a JSON object")
    cfg = manifest["config"]
    if tol is not None:
        cfg = apply_overrides(cfg, tol=tol)
    try:
        bundle = execute(cfg)
    except Exception as err:
        return VerifyResult(False, [], f"re-execution failed: {err}")
    fresh = build_ledger(bundle)
    differences = _dict_diffs(stored, fresh)
    return VerifyResult(len(differences) == 0, differences)


def sweep(source, param_values, out_root, tol=None, max_iter=None):
    """Run a scenario template over the cartesian product of parameter lists.

    param_values maps dotted config paths to value lists. Per-member failures
    are recorded in the aggregate; the sweep keeps going. When every swept
    path lies under initial_measure., the unswept template also runs as the
    reference (run directory reference/), and stability_report.json holds
    each member's stability quantities against it.

    out_root must be absent or empty: a sweep refuses, with FileExistsError,
    to write beside the directories of another run.
    """
    if os.path.isdir(out_root) and os.listdir(out_root):
        raise FileExistsError(f"sweep output directory {out_root} is not empty")
    os.makedirs(out_root, exist_ok=True)
    names = sorted(param_values)
    combos = [()]
    for name in names:
        combos = [c + ((name, v),) for c in combos for v in param_values[name]]
    if not param_values:
        combos = []
    stability = bool(names) and all(n.startswith("initial_measure.") for n in names)
    if stability:
        ref_result, ref = _run(source, os.path.join(out_root, "reference"), tol, max_iter, None)
        if ref is not None and "equilibrium" not in ref:
            ref = None
        rows = []
    members = []
    for i, combo in enumerate(combos):
        label = "_".join(f"{n.split('.')[-1]}={v}" for n, v in combo)
        # a value's path separators would leave out_root, a NUL fails the mkdir
        for sep in filter(None, (os.sep, os.altsep, "\0")):
            label = label.replace(sep, "_")
        member_dir = os.path.join(out_root, f"{i:03d}_{label[:MEMBER_LABEL_CAP]}")
        result, bundle = _run(source, member_dir, tol, max_iter, dict(combo))
        entry = {"index": i, "params": {n: v for n, v in combo},
                 "status": result.status, "dir": member_dir}
        if result.ledger is not None:
            entry["m_infinity"] = result.ledger.get("m_infinity")
            entry["converged"] = result.ledger.get("equilibrium", {}).get("converged")
            entry["exploitability"] = result.ledger.get("equilibrium", {}).get("exploitability")
            if "rate_fit" in result.ledger:
                entry["rate_fit"] = result.ledger["rate_fit"]
        else:
            entry["error"] = result.error
        members.append(entry)
        if stability:
            row = {"index": i, "params": entry["params"], "status": result.status}
            if ref is not None and bundle is not None and "equilibrium" in bundle:
                row.update(_stability_quantities(bundle, ref))
            rows.append(row)
    aggregate = {"source": source if isinstance(source, str) else "inline",
                 "params": {n: list(v) for n, v in param_values.items()},
                 "members": members}
    _write_json(os.path.join(out_root, "sweep_report.json"), aggregate)
    if stability:
        _write_json(os.path.join(out_root, "stability_report.json"),
                    _stability_table(ref_result, ref, rows))
    return aggregate


def _on_domain(domain, measure):
    """The measure's atoms read on another domain object with the same grid."""
    return ParticleMeasure(domain, measure.points, measure.weights, validate=False)


def _stability_quantities(bundle, ref):
    """A member's W1 distances, cross-exploitability and certificate against
    the reference run, both given as execute bundles."""
    report, ref_report = bundle["equilibrium"], ref["equilibrium"]
    domain = ref["domain"]
    limit_distance = np.nan
    if bundle["m_infinity"] is not None and ref["m_infinity"] is not None:
        limit_distance, _ = asy.transport_distance(
            _on_domain(domain, bundle["m_infinity"]), ref["m_infinity"], 1)
    return {
        "perturbation": asy.transport_distance(_on_domain(domain, bundle["m0"]),
                                               ref["m0"], 1)[0],
        "limit_distance": limit_distance,
        # the member's gaps against the reference's value at its starts
        "cross_exploitability": eq.optimality_gaps(report.final_ensemble, bundle["cost"],
                                                   ref_report.final_phi)[0],
        "converged": report.converged,
        "exploitability": report.history[-1]["exploitability"],
    }


def _stability_table(ref_result, ref, rows):
    """stability_report.json: the rows, whether the perturbations shrink along
    the sweep, and the closed-graph probe at the member nearest the reference
    (its cross-exploitability within the reference's tolerance plus the
    scheme's 4(dt + dx))."""
    measured = [r for r in rows if "perturbation" in r]
    pert = [r["perturbation"] for r in measured]
    probe = None
    if measured:
        nearest = min(measured, key=lambda r: r["perturbation"])
        ref_report = ref["equilibrium"]
        tol = (ref_report.certification["tol"]
               + ocp.default_dpp_tol(ref["domain"], ref_report.final_ensemble.dt))
        cross = nearest["cross_exploitability"]
        probe = {"perturbation": _r12(nearest["perturbation"]),
                 "cross_exploitability": _r12(cross), "tolerance": _r12(tol),
                 "passed": bool(cross <= tol)}
    reference = {"status": ref_result.status}
    if ref_result.error is not None:
        reference["error"] = ref_result.error
    return {
        "reference": reference,
        "members": [{k: (_r12(v) if isinstance(v, float) else v) for k, v in r.items()}
                    for r in rows],
        "schedule_monotone": all(a >= b - 1e-12 for a, b in zip(pert[:-1], pert[1:])),
        "closed_graph_probe": probe,
    }
