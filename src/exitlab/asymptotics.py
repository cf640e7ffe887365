"""Long-time behavior of equilibria: limit measures, convergence curves,
tail-driven decay bounds and rates, and stability under the initial measure.

The limit is extracted at the horizon end behind a settling guard; the decay
bound instantiates the tail estimate with alpha = K_min / D and
t_0 = G_0 + D d(0, y_0) / K_min, the explicit linear majorant of the exit
bound T(R).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import ParticleMeasure, wasserstein, MeasureError
from .ocp import horizon_bound, trajectory_bound


class ShrinkWindowError(ValueError):
    pass


@dataclass
class ConvergenceCurve:
    times: np.ndarray
    values: np.ndarray       # W_p(m_t, m_inf)
    bounds: np.ndarray       # tail bound at the same times, nan below t_0
    p: int
    flags: list = field(default_factory=list)


@dataclass
class RateFit:
    mode: str
    value: float             # log-log slope (power) or decay rate (exponential)
    residual: float
    window: tuple
    n_points: int

    def as_dict(self):
        return {"mode": self.mode, "value": self.value, "residual": self.residual,
                "window": list(self.window), "n_points": self.n_points}


def limit_measure(ensemble, tol=1e-12):
    """e_inf#Q realized at the horizon end behind a settling guard."""
    steps = ensemble.step_lengths()
    if ensemble.n_steps >= 2:
        moving = np.max(steps[:, -2:], axis=1)
    else:
        moving = steps[:, -1:].max(axis=1)
    bad = np.flatnonzero(moving > tol)
    if len(bad) > 0:
        raise MeasureError(
            f"horizon too short for the limit: trajectory {bad[0]} still moves "
            f"at the final steps (displacement {moving[bad[0]]:.3g})")
    return ensemble.time_marginal(ensemble.horizon, merge=True)


def settling_time(ensemble, tol=1e-12):
    """Smallest grid time from which every trajectory is constant, or None."""
    steps = ensemble.step_lengths()
    moving = steps > tol
    if not moving.any():
        return 0.0
    last = int(np.max(np.nonzero(moving.any(axis=0))[0]))
    if last == ensemble.n_steps - 1:
        return None
    return (last + 1) * ensemble.dt


def decay_constants(domain, cost, bounds):
    """(alpha, t_0) with T(R) <= R/alpha + t_0 from the explicit exit bound."""
    alpha = bounds[0] / domain.geodesic_constant
    t0 = horizon_bound(domain, cost, bounds, 0.0)
    return alpha, t0


def psi_function(domain, cost, bounds):
    """Vectorized confinement radius psi(R) = K_max T(R) + R."""
    def psi(r):
        return trajectory_bound(horizon_bound(domain, cost, bounds, r), bounds[1], r)
    return psi


def theorem_bound(m0, psi_fn, alpha, t0, t, p):
    """Tail decay bound 2^p * sum over atoms outside the alpha(t-t0)-ball of
    w psi(d(0, x))^p; defined for t >= t0."""
    if t < t0 - 1e-12:
        raise ValueError(f"bound is defined for t >= t_0 = {t0:.6g}, got {t}")
    radius = alpha * (t - t0)
    d = m0.origin_distances()
    outside = d > radius
    if not outside.any():
        return 0.0
    return float(2.0 ** p * np.sum(m0.weights[outside] * psi_fn(d[outside]) ** p))


def _project_to_nodes(measure):
    """Histogram projection: snap atoms to nearest nodes and merge."""
    domain = measure.domain
    pts = domain.points_of_nodes(domain.nearest_nodes(measure.points))
    return ParticleMeasure(domain, pts, measure.weights.copy(), validate=False).merged()


def convergence_curve(ensemble, times, p, m0=None, domain=None, cost=None,
                      bounds=None, m_inf=None):
    """W_p(m_t, m_inf) at the requested times, with the tail bound alongside
    whenever the game constants are supplied. Oversized supports on LP
    backends are auto-projected to grid cells and flagged."""
    if m_inf is None:
        m_inf = limit_measure(ensemble)
    times = np.asarray(times, dtype=float)
    flags = []
    values = np.empty(len(times))
    for i, t in enumerate(times):
        marginal = ensemble.time_marginal(t, merge=True)
        try:
            values[i] = wasserstein(marginal, m_inf, p)
        except MeasureError:
            values[i] = wasserstein(_project_to_nodes(marginal),
                                    _project_to_nodes(m_inf), p)
            if not flags:
                flags.append("marginals projected to grid cells for the "
                             "transport LP (support cap)")
    bound_vals = np.full(len(times), np.nan)
    if m0 is not None and domain is not None and cost is not None and bounds is not None:
        alpha, t0 = decay_constants(domain, cost, bounds)
        psi = psi_function(domain, cost, bounds)
        for i, t in enumerate(times):
            if t >= t0 - 1e-12:
                bound_vals[i] = theorem_bound(m0, psi, alpha, t0, t, p)
    return ConvergenceCurve(times, values, bound_vals, p, flags)


def curve_bound_excess(curve, slack):
    """Worst violation of W_p^p <= bound + slack over samples with a bound."""
    have = np.isfinite(curve.bounds)
    if not have.any():
        return -np.inf
    return float(np.max(curve.values[have] ** curve.p - curve.bounds[have] - slack))


def fit_decay_rate(curve, window, mode="power", tail_dimension=1):
    """Least-squares decay fit of the curve on a time window.

    power: slope of log W_p^p against log t (the decay exponent).
    exponential: slope of log W_p^p - (p + d - 1) log t against t, with the
    polynomial prefactor divided out using the declared p and dimension;
    returns the positive rate.
    """
    t_lo, t_hi = window
    mask = (curve.times >= t_lo - 1e-12) & (curve.times <= t_hi + 1e-12)
    t = curve.times[mask]
    w = curve.values[mask]
    if len(t) < 3:
        raise ShrinkWindowError(f"window {window} holds {len(t)} samples; need >= 3")
    if np.any(w <= 0):
        raise ShrinkWindowError(
            f"window {window} contains zero curve values; shrink the window")
    y = curve.p * np.log(w)
    if mode == "power":
        x = np.log(t)
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        return RateFit("power", float(slope), resid, (t_lo, t_hi), len(t))
    if mode == "exponential":
        y = y - (curve.p + tail_dimension - 1) * np.log(t)
        slope, intercept = np.polyfit(t, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
        return RateFit("exponential", float(-slope), resid, (t_lo, t_hi), len(t))
    raise ValueError(f"unknown fit mode {mode!r}")


def p_moment_excess(ensemble, m0, domain, cost, bounds, times, p):
    """Worst violation of p_moment(m_t) <= sum w psi(d(0, x_i))^p."""
    psi = psi_function(domain, cost, bounds)
    ceiling = float(np.sum(m0.weights * psi(m0.origin_distances()) ** p))
    worst = -np.inf
    for t in times:
        m = ensemble.time_marginal(t)
        worst = max(worst, m.p_moment(p) - ceiling)
    return worst


@dataclass
class StabilityMember:
    perturbation: float          # W_1(m_0_member, m_0_base)
    converged: bool
    exploitability: float
    limit_distance: float        # W_1 to the nearest recorded base limit
    cross_exploitability: float  # gaps measured against the base run's value field


@dataclass
class StabilityReport:
    base_limits: list
    members: list = field(default_factory=list)
    schedule_monotone: bool = True
    closed_graph_probe: dict | None = None

    def as_dict(self):
        return {
            "members": [{
                "perturbation": m.perturbation,
                "converged": m.converged,
                "exploitability": m.exploitability,
                "limit_distance": m.limit_distance,
                "cross_exploitability": m.cross_exploitability,
            } for m in self.members],
            "schedule_monotone": self.schedule_monotone,
            "closed_graph_probe": self.closed_graph_probe,
        }


def cross_exploitability(ensemble, cost, base_phi, cap):
    """Weighted gap of an ensemble's realized costs against another run's value."""
    from .equilibrium import realized_costs

    costs, _ = realized_costs(ensemble, cost, cap=cap)
    base = base_phi.at_points(0, ensemble.samples[:, 0])
    return float(np.sum(ensemble.weights * (costs - base)))


def stability_sweep(base_m0, perturbed_m0s, kernel, domain, cost, config=None,
                    base_limits=None):
    """Solve the game for a family of perturbed initial measures and report
    limit-set distances, cross-exploitability, and a closed-graph probe for
    the member closest to the base."""
    from .equilibrium import solve_equilibrium, EquilibriumConfig

    config = config or EquilibriumConfig()
    base_report = solve_equilibrium(base_m0, kernel, domain, cost, config)
    if base_limits is None:
        base_limits = [base_report.m_infinity] if base_report.m_infinity is not None else []
    cap = 10.0 * base_report.t_bound

    report = StabilityReport(base_limits=base_limits)
    perturbations = []
    closest = None
    for m0n in perturbed_m0s:
        w1 = wasserstein(m0n, base_m0, 1)
        perturbations.append(w1)
        member_report = solve_equilibrium(m0n, kernel, domain, cost, config)
        if member_report.m_infinity is not None and base_limits:
            dlim = min(wasserstein(member_report.m_infinity, b, 1) for b in base_limits)
        else:
            dlim = np.nan
        cross = cross_exploitability(member_report.final_ensemble, cost,
                                     base_report.final_phi, cap)
        member = StabilityMember(w1, member_report.converged,
                                 member_report.exploitability, dlim, cross)
        report.members.append(member)
        if closest is None or w1 < closest[0]:
            closest = (w1, member, member_report)
    report.schedule_monotone = bool(
        all(a >= b - 1e-12 for a, b in zip(perturbations[:-1], perturbations[1:])))
    if closest is not None:
        from .ocp import default_dpp_tol
        tol_probe = config.exploitability_tol + default_dpp_tol(domain, base_report.dt)
        report.closed_graph_probe = {
            "perturbation": closest[0],
            "cross_exploitability": closest[1].cross_exploitability,
            "tolerance": tol_probe,
            "passed": bool(closest[1].cross_exploitability <= tol_probe),
        }
    return report, base_report
