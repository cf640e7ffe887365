"""Nonlocal congestion speed field: kappa applied to a chi/eta-weighted density.

The speed cap for an agent at x under population mu is
    K(mu, x) = kappa( sum_i w_i * chi(x, y_i) * eta(y_i) ),
with kappa nonincreasing and positive, chi an interaction kernel, and eta a
weight / cut-off. All three are restricted to closed-form families so that
the speed bounds and Lipschitz constants are certified, not sampled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

E_MINUS_HALF = float(np.exp(-0.5))
# rows of the node interaction matrix built per distance evaluation: the
# (n, n[, dim]) temporaries of a one-shot build dwarf the matrix itself
NODE_MATRIX_ROW_BLOCK = 128


class HypothesisViolation(ValueError):
    """A configured kernel breaks one of the structural speed hypotheses."""


class MeasurePreconditionError(ValueError):
    pass


class Kappa:
    """Nonincreasing positive speed profile kappa(s)."""

    # every family, with the parameters it reads without a default
    required = {"constant": ("value",), "affine_clamped": ("intercept", "slope", "floor"),
                "exponential": ("scale", "rate")}

    def __init__(self, family, **params):
        self.family = family
        self.params = params
        if family == "constant":
            self.value = float(params["value"])
            if self.value <= 0:
                raise HypothesisViolation("constant kappa must be positive")
        elif family == "affine_clamped":
            self.intercept = float(params["intercept"])
            self.slope = float(params["slope"])
            self.floor = float(params["floor"])
            if self.slope < 0:
                raise HypothesisViolation("affine kappa must be nonincreasing")
        elif family == "exponential":
            self.scale = float(params["scale"])
            self.rate = float(params["rate"])
            if self.scale <= 0 or self.rate < 0:
                raise HypothesisViolation("exponential kappa needs scale > 0, rate >= 0")
        else:
            raise ValueError(f"unknown kappa family {family!r}")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "constant":
            return np.full_like(s, self.value)
        if self.family == "affine_clamped":
            return np.maximum(self.floor, self.intercept - self.slope * s)
        return self.scale * np.exp(-self.rate * s)

    def lipschitz(self):
        if self.family == "constant":
            return 0.0
        if self.family == "affine_clamped":
            return self.slope
        return self.scale * self.rate

    def range_on(self, m):
        """(min, max) of kappa over [0, m]; monotone families hit the endpoints."""
        lo = float(self(np.array(m)))
        hi = float(self(np.array(0.0)))
        return min(lo, hi), max(lo, hi)


class Chi:
    """Interaction kernel chi(x, y) as a function of distance."""

    required = {"constant": (), "ball": ("radius",), "gaussian": ("width",)}

    def __init__(self, family, **params):
        self.family = family
        self.params = params
        self.amplitude = float(params.get("amplitude", params.get("value", 1.0)))
        if self.amplitude < 0:
            raise HypothesisViolation("chi must be nonnegative")
        if family == "ball":
            self.radius = float(params["radius"])
        elif family == "gaussian":
            self.width = float(params["width"])
            if self.width <= 0:
                raise HypothesisViolation("gaussian chi needs positive width")
        elif family != "constant":
            raise ValueError(f"unknown chi family {family!r}")

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        if self.family == "constant":
            return np.full_like(d, self.amplitude)
        if self.family == "ball":
            return self.amplitude * (d <= self.radius + 1e-12)
        return self.amplitude * np.exp(-0.5 * (d / self.width) ** 2)

    @property
    def sup(self):
        return self.amplitude

    def lipschitz(self, dx):
        """Certified Lipschitz bound in the first argument, or a grid surrogate.

        Returns (bound, certified). The indicator kernel is not Lipschitz in
        the continuum; its surrogate is the one-cell jump rate amplitude/dx.
        """
        if self.family == "constant":
            return 0.0, True
        if self.family == "gaussian":
            return self.amplitude * E_MINUS_HALF / self.width, True
        return self.amplitude / dx, False


class Eta:
    """Weight / cut-off on the population, possibly vanishing at the target."""

    required = {"constant": (), "taper": ("distance",)}

    def __init__(self, family, **params):
        self.family = family
        self.params = params
        if family == "constant":
            self.value = float(params.get("value", 1.0))
            if self.value < 0:
                raise HypothesisViolation("eta must be nonnegative")
        elif family == "taper":
            self.distance = float(params["distance"])
            if self.distance <= 0:
                raise HypothesisViolation("taper eta needs positive distance")
        else:
            raise ValueError(f"unknown eta family {family!r}")

    def at_target_distance(self, d):
        d = np.asarray(d, dtype=float)
        if self.family == "constant":
            return np.full_like(d, self.value)
        return np.minimum(1.0, d / self.distance)

    @property
    def sup(self):
        return self.value if self.family == "constant" else 1.0


@dataclass
class LipschitzEstimate:
    value: float
    certified: bool
    warning: str | None = None


class CongestionKernel:
    """Speed field K on a domain with derived bounds and Lipschitz table."""

    def __init__(self, domain, kappa, chi, eta):
        self.domain = domain
        self.kappa = kappa
        self.chi = chi
        self.eta = eta
        self.density_sup = chi.sup * eta.sup
        self.k_min, self.k_max = self.derive_bounds()
        self._node_matrix = None

    def derive_bounds(self):
        """(k_min, k_max) of the speed over all measures and positions."""
        m = self.density_sup
        k_min, k_max = self.kappa.range_on(m)
        if k_min <= 0:
            raise HypothesisViolation(
                f"kappa reaches {k_min:.3g} <= 0 on [0, {m:.3g}]; speeds must stay positive")
        return k_min, k_max

    def _eta_at_points(self, points):
        if self.eta.family == "constant":
            return np.full(len(points), self.eta.value)
        return self.eta.at_target_distance(self.domain.point_target_distance(points))

    def averaged_density(self, mu, points):
        """chi/eta-weighted population mass seen from each query point."""
        if abs(mu.weights.sum() - 1.0) > 1e-9:
            raise MeasurePreconditionError("measure must be normalized")
        d = self.domain.point_distance_matrix(points, mu.points)
        contrib = self.chi(d) * self._eta_at_points(mu.points)[None, :]
        return contrib @ mu.weights

    def node_speeds(self, mu):
        """Speed at every domain node (direct atom summation)."""
        s = self.averaged_density(mu, self.domain.node_points())
        return np.clip(self.kappa(s), self.k_min, self.k_max)

    def node_interaction_matrix(self):
        """Precomputed chi(x_i, x_c) * eta(x_c) over node pairs, for binned evals."""
        if self._node_matrix is None:
            nodes = self.domain.node_points()
            eta = self._eta_at_points(nodes)
            out = np.empty((len(nodes), len(nodes)))
            for lo in range(0, len(nodes), NODE_MATRIX_ROW_BLOCK):
                d = self.domain.point_distance_matrix(nodes[lo:lo + NODE_MATRIX_ROW_BLOCK], nodes)
                out[lo:lo + len(d)] = self.chi(d) * eta[None, :]
            self._node_matrix = out
        return self._node_matrix

    def binning_error_bound(self):
        """Speed error bound of the one-cell histogram approximation."""
        lchi, _ = self.chi.lipschitz(self.domain.dx)
        return self.kappa.lipschitz() * lchi * self.eta.sup * (self.domain.dx / 2)

    def estimate_lipschitz(self):
        """Certified spatial Lipschitz bound L_R for the speed field (H9)."""
        lchi, certified = self.chi.lipschitz(self.domain.dx)
        value = self.kappa.lipschitz() * lchi * self.eta.sup
        warning = None
        if not certified and value > 0:
            warning = ("indicator chi is not Lipschitz in the continuum; "
                       "returning the grid-scale surrogate amplitude/dx")
        return LipschitzEstimate(value, certified, warning)

    def check_smallness(self, cost):
        """(H10): L_g * K_max < 1, required for exit-cost monotonicity."""
        return cost.lipschitz_constant * self.k_max < 1.0

    def hypothesis_report(self, cost=None):
        from .domain import HypothesisReport

        report = HypothesisReport()
        report.add("H8", self.k_min > 0,
                   f"speed bounds [{self.k_min:.6g}, {self.k_max:.6g}] with k_min > 0")
        est = self.estimate_lipschitz()
        detail = f"L_R = {est.value:.6g}" + ("" if est.certified else f" ({est.warning})")
        report.add("H9", True, detail)
        if cost is not None:
            ok = self.check_smallness(cost)
            report.add("H10", ok,
                       f"L_g * K_max = {cost.lipschitz_constant * self.k_max:.6g} "
                       + ("< 1" if ok else ">= 1"))
        return report
