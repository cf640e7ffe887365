"""Equilibrium computation as a damped fixed-point iteration of best response.

The damping state is a fictitious-play mixture of past best responses; each
iteration best-responds to the speed field induced by the mixture, mixes the
candidate in, and then measures the new mixture with exploitability, the one
gap pass, against the field induced by that mixture. Convergence is declared
when every atom's optimality gap falls below the tolerance, which makes the
weak and strong certification flags coincide on the returned ensemble.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import DomainError
from .measures import ParticleMeasure, TrajectoryEnsemble
from .ocp import (SpeedField, horizon_bound, trajectory_bound, solve_value,
                  synthesize_batch, default_dpp_tol, origin_excursions)

PRUNE_DEFAULT = 1e-9
BINNING_WORK_CAP = 4_000_000


class CertificationError(RuntimeError):
    pass


@dataclass
class EquilibriumConfig:
    max_iterations: int = 60
    damping: str = "fictitious_play"  # or "constant"
    damping_value: float = 0.5
    exploitability_tol: float = 0.02

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
    history: list = field(default_factory=list)
    certification: dict = field(default_factory=dict)  # its "tol" is the loop's tolerance
    flags: list = field(default_factory=list)
    r_max: float = 0.0
    t_bound: float = 0.0
    final_phi: object = None  # final_phi.speed is final_ensemble's induced field


def _game_domain(kernel, cost, measure):
    """The one domain object that the kernel, the exit cost and the measure
    (or ensemble) of a game live on; DomainError when they are not on one."""
    domain = kernel.domain
    if cost.domain is not domain or measure.domain is not domain:
        raise DomainError("the kernel, the exit cost and the measure live on different domains")
    return domain


def run_grid(kernel, cost, m0):
    """Unit-CFL time grid covering the a-priori exit bound of m0's support, plus two steps."""
    dt = kernel.domain.dx / kernel.k_max
    r_max = float(np.max(m0.origin_distances()))
    t_bound = horizon_bound(cost, (kernel.k_min, kernel.k_max), r_max)
    n_steps = int(np.ceil(t_bound / dt - 1e-9)) + 2
    return dt, n_steps, r_max, t_bound


def field_from_marginals(kernel, ensemble, binned):
    """Speed field k_Q(t_j, x_i) = K(e_{t_j}#Q, x_i) on the ensemble's grid.

    Slice j of the field is the kernel evaluated against the weighted cloud
    of the ensemble's samples at slice j, histogram-binned to grid cells (on
    the ensemble's node_indices) when binned. Every slice after the
    ensemble's settled_slice is bit-equal to it, so the clouds, and so their
    histogram rows or speed rows, are computed up to it and copied after it.
    """
    domain = kernel.domain
    n_slices = ensemble.n_steps + 1
    if kernel.kappa.family == "constant":
        values = np.full((n_slices, domain.n_nodes), kernel.kappa.value)
        return SpeedField(domain, ensemble.dt, values, (kernel.k_min, kernel.k_max))
    values = np.empty((n_slices, domain.n_nodes))
    last = ensemble.settled_slice
    if binned:
        hist = _slice_histograms(ensemble.node_indices, ensemble.weights, domain.n_nodes, last)
        # the product runs over every row, so BLAS blocking sees the same
        # matrix; the density and then the speeds are written into values,
        # and hist is freed before kappa's temporaries are made
        np.matmul(hist, kernel.node_interaction_matrix().T, out=values)
        del hist
        np.clip(kernel.kappa(values), kernel.k_min, kernel.k_max, out=values)
    else:
        for j in range(last + 1):
            mu = ParticleMeasure(domain, ensemble.samples[:, j], ensemble.weights,
                                 validate=False)
            values[j] = kernel.node_speeds(mu)
        values[last + 1:] = values[last]
    return SpeedField(domain, ensemble.dt, values, (kernel.k_min, kernel.k_max))


def _slice_histograms(nodes, weights, n_nodes, last):
    """hist[j, i]: the weight of the trajectories whose slice-j node is i.

    One np.bincount per slice j <= last bins row j of nodes.T, which an
    ensemble's slice-major node_indices holds contiguously, so no slab is
    copied. np.bincount adds in array order, so every bin sums its weights
    in trajectory order, as np.add.at per slice does: the histogram is the
    same to the bit. Slices after last repeat slice last's nodes, so they
    copy its row.
    """
    hist = np.empty((nodes.shape[1], n_nodes))
    for j, row in enumerate(nodes.T[:last + 1]):
        hist[j] = np.bincount(row, weights=weights, minlength=n_nodes)
    hist[last + 1:] = hist[last]
    return hist


def _use_binning(n_traj, n_slices, n_nodes):
    """The size rule: bin the marginals when n_traj * n_slices * n_nodes > BINNING_WORK_CAP."""
    return n_traj * n_slices * n_nodes > BINNING_WORK_CAP


def frozen_field(m0, kernel, dt, n_steps):
    """Time-constant field K(m_0, x), the iteration's starting point."""
    domain = kernel.domain
    if kernel.kappa.family == "constant":
        values = np.full((n_steps + 1, domain.n_nodes), kernel.kappa.value)
    else:
        values = np.tile(kernel.node_speeds(m0), (n_steps + 1, 1))
    return SpeedField(domain, dt, values, (kernel.k_min, kernel.k_max))


def realized_costs(ensemble, cost):
    """Exit time plus exit cost per trajectory; +inf where a trajectory never exits."""
    nodes = ensemble.exit_nodes
    g = np.where(nodes >= 0, cost.node_table()[nodes], np.inf)
    return np.where(ensemble.exit_indices >= 0, ensemble.exit_indices * ensemble.dt + g, np.inf)


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


def exploitability(ensemble, kernel, cost, reuse=None):
    """Weighted optimality gap of an ensemble against its own induced field.

    epsilon = sum_i w_i (realized_i - phi_Q(0, x_i(0))), the one gap pass.
    reuse, an earlier solve_value result, saves work and changes no bit.
    Returns (epsilon, details) as optimality_gaps does, plus
    details["binned"]. It measures and never gates: certify gates. The
    ensemble, the kernel and the cost must live on one domain (DomainError).
    """
    domain = _game_domain(kernel, cost, ensemble)
    binned = _use_binning(ensemble.n_traj, ensemble.n_steps + 1, domain.n_nodes)
    phi = solve_value(domain, cost, field_from_marginals(kernel, ensemble, binned), reuse=reuse)
    eps, details = optimality_gaps(ensemble, cost, phi)
    details["binned"] = binned
    return eps, details


def optimality_gaps(ensemble, cost, phi):
    """Per-trajectory optimality gaps against phi.

    Returns (epsilon, details) with per-atom extremes. A trajectory that
    never exits has gap +inf, so a positive weight on it fails the
    certificate.
    """
    gaps = realized_costs(ensemble, cost) - phi.at_points(0, ensemble.samples[:, 0])
    w = ensemble.weights
    # a zero-weight row adds nothing to epsilon, also when its gap is +inf
    eps = float(np.sum(np.multiply(w, gaps, out=np.zeros_like(gaps), where=w > 0)))
    details = {
        "epsilon": eps,
        "max_gap": float(np.max(gaps)),
        "min_gap": float(np.min(gaps)),
        "phi": phi,
        "gaps": gaps,
    }
    return eps, details


def _certificate(ensemble, details, tol):
    """The admissibility gate, then weak / strong flags at tolerance tol, of a gap pass."""
    phi = details["phi"]
    # scheme-legitimate steps reach k_max dt + dx/2 (unit CFL move plus target
    # snap), so the admissibility gate allows 1.5 dx of slack
    excess = admissibility_excess(ensemble, phi.speed, 1.5 * phi.domain.dx)
    if excess > 1e-9:
        raise CertificationError(
            f"ensemble leaves its own admissible class: step excess {excess:.3g} beyond slack")
    eps = details["epsilon"]
    max_gap = float(np.max(details["gaps"][ensemble.weights > 0]))
    weak, strong = eps <= tol, max_gap <= tol
    return {
        "weak": bool(weak),
        "strong": bool(strong),
        "agree": bool(weak == strong),
        "epsilon": eps,
        "max_gap": max_gap,
        "min_gap": details["min_gap"],
        "tol": tol,
    }


def certify(ensemble, kernel, cost, tol):
    """Weak / strong equilibrium flags at tolerance tol.

    weak: weighted exploitability <= tol. strong: every positive-weight
    trajectory has optimality gap <= tol. On atomic ensembles the two are
    designed to coincide at the solver's stopping rule. Raises
    CertificationError on an ensemble inadmissible under its own field, and
    DomainError as exploitability does.
    """
    return _certificate(ensemble, exploitability(ensemble, kernel, cost)[1], tol)


def solve_equilibrium(m0, kernel, cost, config):
    """Damped best-response iteration for MFG equilibria.

    The damping state Q_n is the weighted union of past best responses
    (Q_{n+1} = (1 - lam_n) Q_n + lam_n BR(Q_n), merged and pruned); each
    iteration measures Q_n's optimality gaps against its own induced field
    and stops once every positive-weight atom's gap is below the tolerance.
    Non-convergence is reported, not raised. The loop certifies once, after
    it ends, the last gap pass (the returned mixture on its own field): the
    admissibility gate raises CertificationError when some trajectory of
    that mixture is inadmissible. m0, the kernel and the cost must live on
    one domain (DomainError).
    """
    domain = _game_domain(kernel, cost, m0)
    dt, n_steps, r_max, t_bound = run_grid(kernel, cost, m0)
    tol = config.exploitability_tol
    flags = []
    binned_any = False

    phi = solve_value(domain, cost, frozen_field(m0, kernel, dt, n_steps))
    mixture = None
    history = []
    converged = False
    iterations = 0

    for n in range(config.max_iterations):
        iterations = n + 1
        # best response of every atom of m0 to the current field
        samples, exit_idx, exit_node = synthesize_batch(phi, m0.points)
        candidate = TrajectoryEnsemble(domain, dt, samples, m0.weights.copy(),
                                       exit_indices=exit_idx, exit_nodes=exit_node,
                                       validate=False)
        if mixture is None:
            mixture = candidate
        else:
            mixture = mixture.mix(candidate, config.weight(n), PRUNE_DEFAULT)
        # the mixture's settled tail leaves the previous solve's trailing
        # speed and value rows unchanged: the solve copies them
        eps, det = exploitability(mixture, kernel, cost, reuse=phi)
        binned_any = binned_any or det["binned"]
        phi = det["phi"]
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

    # the last gap pass measured the returned mixture on its own field
    certification = _certificate(mixture, det, tol)
    if binned_any:
        flags.append(f"marginal binning active (speed error bound "
                     f"{kernel.binning_error_bound():.6g})")

    return EquilibriumReport(
        final_ensemble=mixture,
        converged=converged,
        iterations=iterations,
        history=history,
        flags=flags,
        r_max=r_max,
        t_bound=t_bound,
        final_phi=phi,
        certification=certification,
    )


def _bound_checks(report, m0, kernel, cost):
    """Ledger entries for the a-priori confinement and mass bounds."""
    from .ocp import value_bound_excess, confinement_excess

    ens = report.final_ensemble
    domain = ens.domain
    bounds = (kernel.k_min, kernel.k_max)
    checks = []

    # exact on the interval backend (the 1d scheme computes true reach-ball
    # minima); 2d/graph carry the first-order interpolation slack
    slack = 1e-9 if domain.kind == "interval" else default_dpp_tol(domain, ens.dt)
    excess = value_bound_excess(report.final_phi, cost, bounds)
    checks.append({"name": "value_upper_bound", "passed": bool(excess <= slack),
                   "detail": f"max phi - (T(R) + max g) = {excess:.6g}"})

    # one pass over the mixture serves both confinement checks
    excursions = origin_excursions(ens.samples, domain)
    exc = confinement_excess(excursions, cost, bounds)
    checks.append({"name": "psi_ball_confinement", "passed": bool(exc <= slack),
                   "detail": f"max excursion excess over psi(R) = {exc:.6g}"})

    worst = _mass_confinement_gap(ens.weights, excursions[1], m0, cost, bounds)
    checks.append({"name": "mass_confinement", "passed": bool(worst >= -1e-9),
                   "detail": f"min over tested R of Q(psi-ball) - m0(R-ball) = {worst:.6g}"})

    lip = ens.check_lipschitz(kernel.k_max)
    checks.append({"name": "ensemble_lipschitz", "passed": bool(lip <= 1e-9),
                   "detail": f"max step excess over K_max dt + dx = {lip:.6g}"})

    tail = ens.check_constant_after_exit()
    checks.append({"name": "constant_after_exit", "passed": bool(tail <= 1e-12),
                   "detail": f"max drift after exit = {tail:.6g}"})
    return checks


def _mass_confinement_gap(weights, furthest, m0, cost, bounds):
    """min over tested R of Q(psi(R)-ball) - m0(R-ball).

    Mass confinement, the compact-search-set property: for each tested R,
    the ensemble mass staying inside the psi(R)-ball must cover the m0-mass
    of the R-ball. weights and furthest are the ensemble's trajectory
    weights and largest origin distances (origin_excursions).
    """
    start_d = m0.origin_distances()
    radii = np.quantile(start_d, [0.25, 0.5, 0.75, 1.0])
    psis = trajectory_bound(horizon_bound(cost, bounds, radii), bounds[1], radii)
    worst = np.inf
    for r, psi_r in zip(radii, psis):
        lhs = float(np.sum(weights[furthest <= psi_r + 1e-9]))
        rhs = float(np.sum(m0.weights[start_d <= r + 1e-9]))
        worst = min(worst, lhs - rhs)
    return worst
