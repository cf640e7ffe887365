"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Registry scenarios run once per session into a shared directory; criteria
read the persisted artifacts and ledgers, re-running only where the
criterion itself demands it (determinism, verification).
"""
import filecmp
import json
import os
import time

import numpy as np
import pytest

from exitlab import runner
from exitlab.domain import ExitCost, IntervalDomain
from exitlab.measures import ParticleMeasure, wasserstein, wasserstein_lp
from exitlab.ocp import (SpeedField, horizon_bound, solve_value,
                         synthesize_batch)
from exitlab.scenarios import load_scenario, scenario_registry

REGISTRY = sorted(scenario_registry())


def report_line(number, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number}: {tag} ({detail})")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def limit_distance_to_dirac(ledger, domain, location):
    """W_1 between a persisted m_infinity and a Dirac at a coordinate."""
    atoms = ledger["m_infinity"]
    pts = np.array([row[:-1] for row in atoms], dtype=float)
    w = np.array([row[-1] for row in atoms], dtype=float)
    m = ParticleMeasure(domain, pts, w, validate=False)
    return wasserstein(m, ParticleMeasure.dirac(domain, location), 1)


def test_criterion_1_remark_5_3_oracle(registry_runs):
    run = registry_runs["remark_5_3"]
    ledger = run["result"].ledger
    eq = ledger["equilibrium"]
    ok = eq["converged"] and abs(eq["exploitability"]) < 0.02

    header, rows = read_csv(os.path.join(run["dir"], "value_function.csv"))
    phi_at_half = [float(r[2]) for r in rows if float(r[0]) == 0.0
                   and abs(float(r[1]) - 0.5) < 1e-12][0]
    dx = 0.005
    ok = ok and abs(phi_at_half - 0.5) <= 2 * dx

    atoms = ledger["m_infinity"]
    coords = [a[0] for a in atoms]
    weights = [a[1] for a in atoms]
    ok = ok and all(c in (0.0, 1.0) for c in coords)
    ok = ok and sum(weights) == 1.0
    ok = ok and run["elapsed"] < 10.0
    report_line(1, ok, f"eps={eq['exploitability']:.3g} phi(0,1/2)={phi_at_half:.6g} "
                       f"m_inf={list(zip(coords, weights))} {run['elapsed']:.1f}s")
    assert ok


def test_criterion_2_remark_5_13_case_table(tmp_path):
    t0 = time.monotonic()
    sweep = runner.sweep("remark_5_13",
                         {"initial_measure.location": [0.1, 0.3, 0.45, 0.55, 0.7, 0.9]},
                         str(tmp_path / "sweep"))
    elapsed = time.monotonic() - t0
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0])
    ok = elapsed < 60.0
    table = {}
    for member in sweep["members"]:
        a = member["params"]["initial_measure.location"]
        ok = ok and member["status"] == 0
        expected = 0.0 if a < 0.5 else 1.0
        dist = limit_distance_to_dirac(member, dom, expected)
        table[a] = dist
        ok = ok and dist <= 2 * dom.dx
    report_line(2, ok, f"W1 to expected dirac per a: "
                       f"{ {a: round(d, 6) for a, d in table.items()} } {elapsed:.1f}s")
    assert ok


def test_criterion_3_settling():
    cfg = load_scenario("remark_5_3")
    cfg["name"] = "settling_band"
    cfg["domain"]["targets"] = [0.0]
    cfg["initial_measure"] = {"kind": "uniform", "support": [0.8, 1.0], "count": 100}
    bundle = runner.execute(cfg)
    dt = bundle["equilibrium"].final_ensemble.dt
    t_star = bundle["settling_time"]
    ok = bundle["status"] == 0
    ok = ok and t_star is not None and abs(t_star - 1.0) <= 2 * dt
    curve = bundle["curve"]
    after = curve.values[curve.times >= t_star - 1e-9]
    ok = ok and np.all(after == 0.0)
    report_line(3, ok, f"t*={t_star} max W1 after settling="
                       f"{float(np.max(after, initial=0.0)):.3g}")
    assert ok


def test_criterion_4_corridor_decay_bound(registry_runs):
    run = registry_runs["congested_corridor"]
    cfg = load_scenario("congested_corridor")
    dx = cfg["domain"]["dx"]
    dt = run["result"].ledger["equilibrium"]["dt"]
    slack = 4 * (dx + dt)
    header, rows = read_csv(os.path.join(run["dir"], "convergence_curve.csv"))
    violations = 0
    checked = 0
    for row in rows:
        w = float(row[1])
        bound = row[2]
        if bound == "":
            continue
        checked += 1
        if w > float(bound) + slack:
            violations += 1
    ok = checked > 0 and violations == 0
    ledger_check = [c for c in run["result"].ledger["checks"]
                    if c["name"] == "tail_decay_bound"][0]
    ok = ok and ledger_check["passed"]
    report_line(4, ok, f"{checked} sampled times at/after t_0, {violations} violations")
    assert ok


def test_criterion_5_power_tail_rate(registry_runs):
    run = registry_runs["power_tail_cor56a"]
    fit = run["result"].ledger["rate_fit"]
    ok = fit["mode"] == "power" and fit["value"] <= -2.0 + 0.3
    # pointwise match with the closed-form oracle sum_i w_i max(x_i - t, 0)
    _, atom_rows = read_csv(os.path.join(run["dir"], "initial_measure.csv"))
    xs = np.array([float(r[0]) for r in atom_rows])
    ws = np.array([float(r[1]) for r in atom_rows])
    _, curve_rows = read_csv(os.path.join(run["dir"], "convergence_curve.csv"))
    dx = 0.05
    worst = 0.0
    for row in curve_rows:
        t, w = float(row[0]), float(row[1])
        oracle = float(np.sum(ws * np.maximum(xs - t, 0.0)))
        worst = max(worst, abs(w - oracle))
    ok = ok and worst <= 3 * dx
    ok = ok and run["elapsed"] < 30.0
    report_line(5, ok, f"exponent={fit['value']:.4g} max oracle gap={worst:.4g} "
                       f"{run['elapsed']:.1f}s")
    assert ok


def test_criterion_6_exp_tail_rate(registry_runs):
    run = registry_runs["exp_tail_cor56b"]
    fit = run["result"].ledger["rate_fit"]
    gamma_0, alpha = 2.0, 1.0
    ok = fit["mode"] == "exponential" and fit["value"] >= 0.85 * gamma_0 * alpha
    report_line(6, ok, f"rate={fit['value']:.4g} >= {0.85 * gamma_0 * alpha}")
    assert ok


def _random_ocp_instance(rng, dom):
    """A smooth speed field satisfying (H5)-(H6) and a Lipschitz exit cost (H7)."""
    k_lo, k_hi = 0.4, 1.0
    dt = dom.dx / k_lo  # node hops stay admissible at every speed
    cost_vals = {int(t): float(rng.uniform(0.0, 0.3)) for t in dom.targets}
    tc = dom.coords[dom.targets]
    l_g = 0.4
    for a in range(len(tc)):
        for b in range(len(tc)):
            cap = cost_vals[int(dom.targets[a])] + l_g * abs(tc[a] - tc[b])
            cost_vals[int(dom.targets[b])] = min(cost_vals[int(dom.targets[b])], cap)
    cost = ExitCost(dom, cost_vals)
    assert cost.lipschitz_constant <= l_g
    horizon = horizon_bound(cost, (k_lo, k_hi), 1.0) + 3 * dt
    n_steps = int(np.ceil(horizon / dt))
    t = np.arange(n_steps + 1)[:, None] * dt
    x = dom.coords[None, :]
    a, b, c, d, f1, f2 = rng.uniform(-1, 1, 6)
    raw = a * np.sin(2 * np.pi * (f1 * x + b)) + c * np.sin(2 * np.pi * (0.5 * f2 * t + d))
    vals = k_lo + (k_hi - k_lo) / (1.0 + np.exp(-2.5 * raw))
    return SpeedField(dom, dt, vals, (k_lo, k_hi)), cost


def test_criterion_7_ocp_suite():
    dom = IntervalDomain(0.0, 1.0, 0.02, targets=[0.0, 1.0], origin=0.0)
    rng = np.random.default_rng(2024)
    tol = 4 * (dom.dx / 0.4 + dom.dx)
    worst_gap = 0.0
    worst_dpp = 0.0
    walks = 0
    for trial in range(50):
        field, cost = _random_ocp_instance(rng, dom)
        phi = solve_value(dom, cost, field)
        samples, exit_idx, exit_node = synthesize_batch(phi, dom.coords)
        realized = exit_idx * field.dt + np.array(
            [cost.at_node(n) for n in exit_node])
        gaps = np.abs(realized - phi.at_points(0, dom.coords))
        worst_gap = max(worst_gap, float(np.max(gaps)))
        # random admissible node walks: every step is one of the solver's own
        # candidates, so the inequality is exact up to float accumulation
        for _ in range(10):
            walks += 1
            i = int(rng.integers(0, dom.n_nodes))
            j_start = int(rng.integers(0, field.n_steps // 2))
            base = phi.values[j_start, i]
            j, node = j_start, i
            while j < field.n_steps and node not in dom.targets:
                reach = int(np.floor(field.values[j, node] * field.dt / dom.dx + 1e-12))
                node = int(np.clip(node + rng.integers(-reach, reach + 1), 0,
                                   dom.n_nodes - 1))
                j += 1
                residual = phi.values[j, node] + (j - j_start) * field.dt - base
                worst_dpp = min(worst_dpp, float(residual))
    ok = worst_gap <= tol and worst_dpp >= -1e-9 and walks == 500

    mono_ok = True
    for trial in range(10):
        field, cost = _random_ocp_instance(rng, dom)
        bump = rng.uniform(0.0, 1.0 - 0.4, field.values.shape)
        faster = SpeedField(dom, field.dt, np.minimum(field.values + bump, 1.0),
                            (0.4, 1.0))
        phi_slow = solve_value(dom, cost, field)
        phi_fast = solve_value(dom, cost, faster)
        mono_ok = mono_ok and bool(np.all(phi_slow.values >= phi_fast.values - 1e-9))
    ok = ok and mono_ok
    report_line(7, ok, f"max |realized - phi| = {worst_gap:.4g} (tol {tol:.3g}), "
                       f"min DPP residual over {walks} walks = {worst_dpp:.2g}, "
                       f"monotone pairs ok = {mono_ok}")
    assert ok


def test_criterion_8_bounds_ledger(registry_runs):
    ok = True
    details = []
    for name in REGISTRY:
        checks = {c["name"]: c["passed"] for c in registry_runs[name]["result"].ledger["checks"]}
        good = checks["value_upper_bound"] and checks["psi_ball_confinement"] \
            and checks["mass_confinement"]
        details.append(f"{name}:{'ok' if good else 'VIOLATION'}")
        ok = ok and good
    report_line(8, ok, " ".join(details))
    assert ok


def test_criterion_9_measures_suite():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        na, nb = rng.integers(1, 17, 2)
        wa = rng.uniform(0.05, 1, na)
        wb = rng.uniform(0.05, 1, nb)
        mu = ParticleMeasure(dom, rng.uniform(0, 1, na), wa / wa.sum())
        nu = ParticleMeasure(dom, rng.uniform(0, 1, nb), wb / wb.sum())
        p = int(rng.integers(1, 3))
        wq = wasserstein(mu, nu, p)
        wl = wasserstein_lp(np.abs(mu.points[:, None] - nu.points[None, :]),
                            mu.weights, nu.weights, p)
        worst = max(worst, abs(wq - wl))
    ok = worst <= 1e-9

    axiom_failures = 0
    for trial in range(1000):
        ms = []
        for _ in range(3):
            n = rng.integers(1, 6)
            w = rng.uniform(0.1, 1, n)
            ms.append(ParticleMeasure(dom, rng.uniform(0, 1, n), w / w.sum()))
        a, b, c = ms
        p = int(rng.integers(1, 3))
        ab, ba = wasserstein(a, b, p), wasserstein(b, a, p)
        if abs(ab - ba) > 1e-9 or wasserstein(a, a, p) > 1e-9:
            axiom_failures += 1
        elif wasserstein(a, c, p) > ab + wasserstein(b, c, p) + 1e-8:
            axiom_failures += 1
    ok = ok and axiom_failures == 0
    report_line(9, ok, f"max quantile-LP gap {worst:.2g}, "
                       f"{axiom_failures} axiom failures in 1000 triples")
    assert ok


def test_criterion_10_weak_strong_agreement(registry_runs):
    ok = True
    details = []
    for name in REGISTRY:
        ledger = registry_runs[name]["result"].ledger
        cert = ledger["certification"]
        converged = ledger["equilibrium"]["converged"]
        agree = cert["agree"] and cert["weak"] and cert["strong"]
        ok = ok and converged and agree
        details.append(f"{name}:weak={cert['weak']},strong={cert['strong']}")
    report_line(10, ok, " ".join(details))
    assert ok


def test_criterion_11_determinism_and_verify(registry_runs, tmp_path):
    ok = True
    details = []
    for name in REGISTRY:
        fresh_dir = tmp_path / name
        rerun = runner.run(name, str(fresh_dir))
        same = rerun.status == registry_runs[name]["result"].status
        for artifact in os.listdir(fresh_dir):
            if artifact == "manifest.json":
                a = json.loads((fresh_dir / artifact).read_text())
                with open(os.path.join(registry_runs[name]["dir"], artifact)) as fh:
                    b = json.load(fh)
                same = same and a["artifacts"] == b["artifacts"]
                continue
            same = same and filecmp.cmp(str(fresh_dir / artifact),
                                        os.path.join(registry_runs[name]["dir"], artifact),
                                        shallow=False)
        check = runner.verify(registry_runs[name]["dir"])
        ok = ok and same and check.passed
        details.append(f"{name}:{'ok' if same and check.passed else 'MISMATCH'}")
    report_line(11, ok, " ".join(details))
    assert ok
