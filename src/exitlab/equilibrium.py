"""Equilibrium computation as a damped fixed-point iteration of best response.

The damping state is a fictitious-play mixture of past best responses; each
iteration best-responds to the speed field induced by the mixture and then
measures the candidate's exploitability against the field induced by the
candidate itself. Convergence is declared when every atom's optimality gap
falls below the tolerance, which makes the weak and strong certification
flags coincide on the returned ensemble.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asymptotics import limit_measure
from .measures import MeasureError, ParticleMeasure, TrajectoryEnsemble
from .ocp import (SpeedField, horizon_bound, trajectory_bound, solve_value,
                  synthesize_batch, default_dpp_tol)

PRUNE_DEFAULT = 1e-9
BINNING_WORK_CAP = 4_000_000
# slices per np.bincount in the binned field: bounds its bin and weight temporaries
HIST_SLICE_BLOCK = 64


class CertificationError(RuntimeError):
    pass


@dataclass
class EquilibriumConfig:
    max_iterations: int = 60
    damping: str = "fictitious_play"  # or "constant"
    damping_value: float = 0.5
    exploitability_tol: float = 0.02
    marginal_binning: str = "auto"  # "on" | "off" | "auto"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.exploitability_tol <= 0:
            raise ValueError("exploitability tolerance must be positive")
        if self.damping == "constant" and not (0 < self.damping_value <= 1):
            raise ValueError("constant damping weight must lie in (0, 1]")
        if self.damping not in ("fictitious_play", "constant"):
            raise ValueError(f"unknown damping rule {self.damping!r}")

    def weight(self, n):
        if self.damping == "fictitious_play":
            return 1.0 / (n + 1.0)
        return self.damping_value


@dataclass
class EquilibriumReport:
    final_ensemble: TrajectoryEnsemble
    converged: bool
    iterations: int
    exploitability: float
    max_gap: float
    history: list = field(default_factory=list)
    m_infinity: ParticleMeasure | None = None  # set when the horizon end is settled
    certification: dict = field(default_factory=dict)
    bound_checks: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    tol: float = 0.0
    dt: float = 0.0
    r_max: float = 0.0
    t_bound: float = 0.0
    final_phi: object = None  # final_phi.speed is final_ensemble's induced field


def run_grid(domain, kernel, cost, m0):
    """Unit-CFL time grid covering the a-priori exit bound of m0's support, plus two steps."""
    dt = domain.dx / kernel.k_max
    r_max = float(np.max(m0.origin_distances()))
    t_bound = horizon_bound(domain, cost, (kernel.k_min, kernel.k_max), r_max)
    n_steps = int(np.ceil(t_bound / dt - 1e-9)) + 2
    return dt, n_steps, r_max, t_bound


def field_from_marginals(kernel, positions, weights, dt, binned, nodes=None, settled=None):
    """Speed field k(t_j, x_i) from per-slice particle positions.

    positions has shape (n_traj, n_slices[, dim]); slice j of the field is
    the kernel evaluated against the weighted cloud at slice j, optionally
    histogram-binned to grid cells. nodes, when given, is
    domain.nearest_nodes(positions) (an ensemble's node_indices). settled,
    when given, is a slice after which every slice of positions is bit-equal
    to it (an ensemble's settled_slice): the clouds, and so their histogram
    rows or speed rows, are computed up to it and copied after it.
    """
    domain = kernel.domain
    n_slices = positions.shape[1]
    if kernel.kappa.family == "constant":
        values = np.full((n_slices, domain.n_nodes), kernel.kappa.value)
        return SpeedField(domain, dt, values, (kernel.k_min, kernel.k_max))
    values = np.empty((n_slices, domain.n_nodes))
    last = n_slices - 1 if settled is None else settled
    if binned:
        if nodes is None:
            nodes = domain.nearest_nodes(positions)
        hist = _slice_histograms(nodes, weights, domain.n_nodes, last)
        # the product runs over every row, so BLAS blocking sees the same matrix
        density = hist @ kernel.node_interaction_matrix().T
        values[:] = np.clip(kernel.kappa(density), kernel.k_min, kernel.k_max)
    else:
        for j in range(last + 1):
            mu = ParticleMeasure(domain, positions[:, j], weights, validate=False)
            values[j] = kernel.node_speeds(mu)
        values[last + 1:] = values[last]
    return SpeedField(domain, dt, values, (kernel.k_min, kernel.k_max))


def _slice_histograms(nodes, weights, n_nodes, last=None):
    """hist[j, i]: the weight of the trajectories whose slice-j node is i.

    One np.bincount over the bins j * n_nodes + nodes per block of slices,
    read row by row. Each bin belongs to one slice and np.bincount adds in
    array order, so every bin sums its weights in trajectory order, as
    np.add.at per slice does: the histogram is the same to the bit. Slices
    after last (default: the last slice) repeat slice last's nodes, so they
    copy its row.
    """
    n_slices = nodes.shape[1]
    last = n_slices - 1 if last is None else last
    hist = np.empty((n_slices, n_nodes))
    repeated = None
    for lo in range(0, last + 1, HIST_SLICE_BLOCK):
        block = nodes[:, lo:min(lo + HIST_SLICE_BLOCK, last + 1)]
        width = block.shape[1]
        if repeated is None or len(repeated) != block.size:
            repeated = np.repeat(weights, width)  # row k's weight on each of its bins
        bins = (block + np.arange(width) * n_nodes).ravel()
        hist[lo:lo + width] = np.bincount(bins, weights=repeated,
                                          minlength=width * n_nodes).reshape(width, n_nodes)
    hist[last + 1:] = hist[last]
    return hist


def _use_binning(config, n_traj, n_slices, n_nodes):
    if config.marginal_binning == "on":
        return True
    if config.marginal_binning == "off":
        return False
    return n_traj * n_slices * n_nodes > BINNING_WORK_CAP


def induced_speed_field(ensemble, kernel, binned=False):
    """k_Q(t, x) = K(e_t#Q, x) on the ensemble's grid."""
    return field_from_marginals(kernel, ensemble.samples, ensemble.weights,
                                ensemble.dt, binned, ensemble.node_indices,
                                ensemble.settled_slice)


def frozen_field(m0, kernel, dt, n_steps):
    """Time-constant field K(m_0, x), the iteration's starting point."""
    domain = kernel.domain
    if kernel.kappa.family == "constant":
        values = np.full((n_steps + 1, domain.n_nodes), kernel.kappa.value)
    else:
        values = np.tile(kernel.node_speeds(m0), (n_steps + 1, 1))
    return SpeedField(domain, dt, values, (kernel.k_min, kernel.k_max))


def realized_costs(ensemble, cost, cap=None):
    """Exit time plus exit cost per trajectory; non-exits get capped + flagged."""
    exited = ensemble.exit_indices >= 0
    nodes = ensemble.exit_nodes
    g = np.where(nodes >= 0, cost.node_table()[nodes], np.inf)
    out = (ensemble.exit_indices - ensemble.start_indices) * ensemble.dt + g
    out[~exited] = np.inf if cap is None else cap
    return out, int(np.count_nonzero(~exited))


def admissibility_excess(ensemble, speed, slack):
    """Worst step-length excess over k dt + slack across the moving steps.

    A zero-length step never exceeds a budget k dt + slack with k >= k_min > 0,
    so the budget is interpolated only where a step moves. The result is -inf
    when nothing moves; the gate's decision (excess > 1e-9) is the same as over
    every step. Steps after the ensemble's settled slice join bit-equal points
    and have length zero, so the loop stops there.
    """
    worst = -np.inf
    for j in range(ensemble.settled_slice):
        cur = ensemble.samples[:, j]
        step = ensemble.domain.point_distance(cur, ensemble.samples[:, j + 1])
        moving = step > 0
        budget = speed.at_points(j, cur[moving]) * ensemble.dt + slack
        worst = max(worst, float(np.max(step[moving] - budget, initial=-np.inf)))
    return worst


def exploitability(ensemble, kernel, domain, cost, config=None, cap=None,
                   field=None, phi=None):
    """Weighted optimality gap of an ensemble against its own induced field.

    epsilon = sum_i w_i (realized_i - phi_Q(0, x_i(0))). Returns (epsilon,
    details) with per-atom extremes; raises CertificationError when some
    trajectory is inadmissible (beyond the dx slack) under its own field.
    """
    config = config or EquilibriumConfig()
    if field is None:
        binned = _use_binning(config, ensemble.n_traj, ensemble.n_steps + 1, domain.n_nodes)
        field = induced_speed_field(ensemble, kernel, binned)
    if phi is None:
        phi = solve_value(domain, cost, field)
    # scheme-legitimate steps reach k_max dt + dx/2 (unit CFL move plus target
    # snap), so the admissibility gate allows 1.5 dx of slack
    excess = admissibility_excess(ensemble, field, 1.5 * domain.dx)
    if excess > 1e-9:
        raise CertificationError(
            f"ensemble leaves its own admissible class: step excess {excess:.3g} beyond slack")
    if cap is None:
        r_max = float(np.max(ensemble.time_marginal(0.0).origin_distances()))
        cap = 10.0 * horizon_bound(domain, cost, (kernel.k_min, kernel.k_max), r_max)
    costs, capped = realized_costs(ensemble, cost, cap=cap)
    starts = ensemble.samples[:, 0]
    base = phi.at_points(0, starts)
    gaps = costs - base
    eps = float(np.sum(ensemble.weights * gaps))
    details = {
        "epsilon": eps,
        "max_gap": float(np.max(gaps)),
        "min_gap": float(np.min(gaps)),
        "capped_trajectories": capped,
        "admissibility_excess": excess,
        "phi": phi,
        "gaps": gaps,
    }
    return eps, details


def _certificate(weights, details, tol):
    """Weak / strong flags at tolerance tol from exploitability's details."""
    eps = details["epsilon"]
    max_gap = float(np.max(details["gaps"][weights > 0]))
    weak, strong = eps <= tol, max_gap <= tol
    return {
        "weak": bool(weak),
        "strong": bool(strong),
        "agree": bool(weak == strong),
        "epsilon": eps,
        "max_gap": max_gap,
        "min_gap": details["min_gap"],
        "tol": tol,
        "capped_trajectories": details["capped_trajectories"],
    }


def certify(ensemble, kernel, domain, cost, tol, config=None):
    """Weak / strong equilibrium flags at tolerance tol.

    weak: weighted exploitability <= tol. strong: every positive-weight
    trajectory has optimality gap <= tol. On atomic ensembles the two are
    designed to coincide at the solver's stopping rule. solve_equilibrium
    builds the same flags from its last iteration (EquilibriumReport.certification).
    """
    _, details = exploitability(ensemble, kernel, domain, cost, config=config)
    return _certificate(ensemble.weights, details, tol)


def solve_equilibrium(m0, kernel, domain, cost, config=None):
    """Damped best-response iteration for MFG equilibria.

    The damping state Q_n is the weighted union of past best responses
    (Q_{n+1} = (1 - lam_n) Q_n + lam_n BR(Q_n), merged and pruned); each
    iteration measures Q_n's exploitability against its own induced field
    and stops once every positive-weight atom's gap is below the tolerance.
    Non-convergence is reported, not raised.
    """
    config = config or EquilibriumConfig()
    dt, n_steps, r_max, t_bound = run_grid(domain, kernel, cost, m0)
    tol = config.exploitability_tol
    flags = []
    binned_any = False

    field = frozen_field(m0, kernel, dt, n_steps)
    phi = solve_value(domain, cost, field)
    mixture = None
    history = []
    converged = False
    iterations = 0

    for n in range(config.max_iterations):
        iterations = n + 1
        # best response of every atom of m0 to the current field
        samples, j0, exit_idx, exit_node = synthesize_batch(phi, field, m0.points, 0.0)
        candidate = TrajectoryEnsemble(domain, dt, samples, m0.weights.copy(),
                                       np.full(m0.n_atoms, j0), exit_idx, exit_node,
                                       validate=False)
        if mixture is None:
            mixture = candidate
        else:
            mixture = mixture.mix(candidate, config.weight(n), PRUNE_DEFAULT)
        binned = _use_binning(config, mixture.n_traj, n_steps + 1, domain.n_nodes)
        binned_any = binned_any or binned
        # the mixture's settled tail leaves the previous solve's trailing
        # speed and value rows unchanged: the solve copies them
        field = induced_speed_field(mixture, kernel, binned)
        phi = solve_value(domain, cost, field, reuse=phi)
        eps, det = exploitability(mixture, kernel, domain, cost, config=config,
                                  field=field, phi=phi)
        history.append({
            "iteration": n,
            "exploitability": eps,
            "max_gap": det["max_gap"],
            "min_gap": det["min_gap"],
            "mixture_support": int(mixture.n_traj),
        })
        # two-sided gate: positive gaps mean suboptimal atoms, negative gaps
        # mean the value/realization certificate is internally inconsistent
        if max(det["max_gap"], -det["min_gap"]) <= tol:
            converged = True
            break

    if binned_any:
        flags.append(f"marginal binning active (speed error bound "
                     f"{kernel.binning_error_bound():.6g})")
    if det["capped_trajectories"]:
        flags.append(f"{det['capped_trajectories']} non-exiting trajectories "
                     f"capped at 10*T(R_max)")

    report = EquilibriumReport(
        final_ensemble=mixture,
        converged=converged,
        iterations=iterations,
        exploitability=history[-1]["exploitability"],
        max_gap=history[-1]["max_gap"],
        history=history,
        flags=flags,
        tol=tol,
        dt=dt,
        r_max=r_max,
        t_bound=t_bound,
        final_phi=det["phi"],
        # the last iteration measured the returned mixture on its own field
        certification=_certificate(mixture.weights, det, tol),
    )
    try:
        report.m_infinity = limit_measure(mixture)
    except MeasureError:  # some trajectory still moves at the horizon end
        pass
    report.bound_checks = _bound_checks(report, m0, kernel, domain, cost)
    return report


def _bound_checks(report, m0, kernel, domain, cost):
    """Ledger entries for the a-priori confinement and mass bounds."""
    from .ocp import value_bound_excess, confinement_excess

    ens = report.final_ensemble
    bounds = (kernel.k_min, kernel.k_max)
    checks = []

    # exact on the interval backend (the 1d scheme computes true reach-ball
    # minima); 2d/graph carry the first-order interpolation slack
    slack = 1e-9 if domain.kind == "interval" else default_dpp_tol(domain, report.dt)
    excess = value_bound_excess(report.final_phi, domain, cost, bounds)
    checks.append({"name": "value_upper_bound", "passed": bool(excess <= slack),
                   "detail": f"max phi - (T(R) + max g) = {excess:.6g}"})

    exc = confinement_excess(ens.samples, domain, cost, bounds)
    checks.append({"name": "psi_ball_confinement", "passed": bool(exc <= slack),
                   "detail": f"max excursion excess over psi(R) = {exc:.6g}"})

    # mass confinement (the compact-search-set property): for each tested R,
    # the ensemble mass staying inside the psi(R)-ball must cover the
    # m0-mass of the R-ball.
    start_d = m0.origin_distances()
    radii = np.quantile(start_d, [0.25, 0.5, 0.75, 1.0])
    psis = trajectory_bound(horizon_bound(domain, cost, bounds, radii), bounds[1], radii)
    excursions = np.max(domain.point_origin_distance(ens.samples), axis=1)
    worst = np.inf
    for r, psi_r in zip(radii, psis):
        lhs = float(np.sum(ens.weights[excursions <= psi_r + 1e-9]))
        rhs = float(np.sum(m0.weights[start_d <= r + 1e-9]))
        worst = min(worst, lhs - rhs)
    checks.append({"name": "mass_confinement", "passed": bool(worst >= -1e-9),
                   "detail": f"min over tested R of Q(psi-ball) - m0(R-ball) = {worst:.6g}"})

    lip = ens.check_lipschitz(kernel.k_max)
    checks.append({"name": "ensemble_lipschitz", "passed": bool(lip <= 1e-9),
                   "detail": f"max step excess over K_max dt + dx = {lip:.6g}"})

    tail = ens.check_constant_after_exit()
    checks.append({"name": "constant_after_exit", "passed": bool(tail <= 1e-12),
                   "detail": f"max drift after exit = {tail:.6g}"})
    return checks
