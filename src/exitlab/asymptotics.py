"""Long-time behavior of equilibria: limit measures, convergence curves,
tail-driven decay bounds and rates.

The limit is extracted at the horizon end behind a settling guard; the decay
bound instantiates the tail estimate with alpha = K_min / D and
t_0 = G_0 + D d(0, y_0) / K_min, the explicit linear majorant of the exit
bound T(R), where the geodesic constant D is 1 on every backend (H4).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .measures import MeasureError, ParticleMeasure, SupportCapError, wasserstein
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


def limit_measure(ensemble):
    """e_inf#Q realized at the horizon end behind a settling guard: no sample
    changes over the last two steps (the last one when there is only one)."""
    last = ensemble.settled_slice
    if last > max(ensemble.n_steps - 2, 0):
        raise MeasureError(
            f"horizon too short for the limit: samples still change at slice {last} "
            f"of {ensemble.n_steps}")
    return ensemble.time_marginal(ensemble.horizon, merge=True)


def settling_time(ensemble):
    """Smallest grid time from which every trajectory is constant, or None
    when some sample still changes at the last slice."""
    last = ensemble.settled_slice
    if last > 0 and last == ensemble.n_steps:
        return None
    return last * ensemble.dt


def decay_constants(cost, bounds):
    """(alpha, t_0) with T(R) <= R/alpha + t_0 from the explicit exit bound (alpha = K_min)."""
    return bounds[0], horizon_bound(cost, bounds, 0.0)


def theorem_bound(m0, psi_fn, alpha, t0, t, p):
    """Tail decay bound 2^p * sum over atoms outside the alpha(t-t0)-ball of
    w psi(d(0, x))^p; defined for t >= t0. psi_fn maps radii to psi, as
    partial(trajectory_bound, cost, bounds) does."""
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


def transport_distance(mu, nu, p):
    """(W_p(mu, nu), projected): a support over the transport LP's cap is
    first projected to grid cells, and projected says so. Any other failure,
    such as a failed LP, is raised."""
    try:
        return wasserstein(mu, nu, p), False
    except SupportCapError:
        return wasserstein(_project_to_nodes(mu), _project_to_nodes(nu), p), True


def convergence_curve(ensemble, times, p, m0, cost, bounds, m_inf):
    """W_p(m_t, m_inf) at the requested times, with m0's tail bound under the
    game constants alongside (nan below t_0). Oversized supports on LP
    backends are auto-projected to grid cells and flagged."""
    times = np.asarray(times, dtype=float)
    flags = []
    values = np.empty(len(times))
    for i, t in enumerate(times):
        values[i], projected = transport_distance(ensemble.time_marginal(t, merge=True),
                                                  m_inf, p)
        if projected and not flags:
            flags.append("marginals projected to grid cells for the "
                         "transport LP (support cap)")
    bound_vals = np.full(len(times), np.nan)
    alpha, t0 = decay_constants(cost, bounds)
    psi = partial(trajectory_bound, cost, bounds)
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


def fit_decay_rate(curve, window, mode, tail_dimension):
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
    if np.min(t) <= 0:  # the fit takes log t
        raise ShrinkWindowError(f"window {window} holds the time {np.min(t):.6g} <= 0")
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


def p_moment_excess(ensemble, m0, cost, bounds, times, p):
    """Worst violation of p_moment(m_t) <= sum w psi(d(0, x_i))^p."""
    psi = trajectory_bound(cost, bounds, m0.origin_distances())
    ceiling = float(np.sum(m0.weights * psi ** p))
    worst = -np.inf
    for t in times:
        m = ensemble.time_marginal(t)
        worst = max(worst, m.p_moment(p) - ceiling)
    return worst
