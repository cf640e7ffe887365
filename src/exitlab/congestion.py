"""Nonlocal congestion speed field: kappa applied to a chi/eta-weighted density.

The speed cap for an agent at x under population mu is
    K(mu, x) = kappa( sum_i w_i * chi(x, y_i) * eta(y_i) ),
with kappa nonincreasing and positive, chi an interaction kernel, and eta a
weight / cut-off. All three are restricted to closed-form families so that
the speed bounds and Lipschitz constants are certified, not sampled.
"""
from __future__ import annotations

import numpy as np

E_MINUS_HALF = float(np.exp(-0.5))


class HypothesisViolation(ValueError):
    """A configured kernel breaks a structural speed hypothesis; key names the
    part at fault (kappa, chi or eta), or is None when the parts together do."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class MeasurePreconditionError(ValueError):
    pass


def _unread(part, family, params):
    """The error for the parameters left after a constructor popped those its family reads.

    Worded as the scenario walker words an unread key.
    """
    return ValueError(f"{part}.{next(iter(params))} is not read with family {family!r}")


class Kappa:
    """Nonincreasing positive speed profile kappa(s)."""

    # the parameters each family reads without a default, and those it reads with one
    required = {"constant": ("value",), "affine_clamped": ("intercept", "slope", "floor"),
                "exponential": ("scale", "rate")}
    defaulted = {}

    def __init__(self, family, **params):
        self.family = family
        if family == "constant":
            self.value = float(params.pop("value"))
            if self.value <= 0:
                raise HypothesisViolation("constant kappa must be positive", "kappa")
        elif family == "affine_clamped":
            self.intercept = float(params.pop("intercept"))
            self.slope = float(params.pop("slope"))
            self.floor = float(params.pop("floor"))
            if self.slope < 0:
                raise HypothesisViolation("affine kappa must be nonincreasing", "kappa")
        elif family == "exponential":
            self.scale = float(params.pop("scale"))
            self.rate = float(params.pop("rate"))
            if self.scale <= 0 or self.rate < 0:
                raise HypothesisViolation("exponential kappa needs scale > 0, rate >= 0", "kappa")
        else:
            raise ValueError(f"unknown kappa family {family!r}")
        if params:
            raise _unread("kappa", family, params)

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
    # the constant kernel's amplitude is its value
    defaulted = {"constant": ("value",), "ball": ("amplitude",), "gaussian": ("amplitude",)}

    def __init__(self, family, **params):
        self.family = family
        self.amplitude = float(params.pop("value" if family == "constant" else "amplitude", 1.0))
        if self.amplitude < 0:
            raise HypothesisViolation("chi must be nonnegative", "chi")
        if family == "ball":
            self.radius = float(params.pop("radius"))
            if self.radius < 0:
                raise HypothesisViolation("ball chi needs a nonnegative radius", "chi")
        elif family == "gaussian":
            self.width = float(params.pop("width"))
            if self.width <= 0:
                raise HypothesisViolation("gaussian chi needs positive width", "chi")
        elif family != "constant":
            raise ValueError(f"unknown chi family {family!r}")
        if params:
            raise _unread("chi", family, params)

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
    defaulted = {"constant": ("value",)}

    def __init__(self, family, **params):
        self.family = family
        if family == "constant":
            self.value = float(params.pop("value", 1.0))
            if self.value < 0:
                raise HypothesisViolation("eta must be nonnegative", "eta")
        elif family == "taper":
            self.distance = float(params.pop("distance"))
            if self.distance <= 0:
                raise HypothesisViolation("taper eta needs positive distance", "eta")
        else:
            raise ValueError(f"unknown eta family {family!r}")
        if params:
            raise _unread("eta", family, params)

    def at_target_distance(self, d):
        d = np.asarray(d, dtype=float)
        if self.family == "constant":
            return np.full_like(d, self.value)
        return np.minimum(1.0, d / self.distance)

    @property
    def sup(self):
        return self.value if self.family == "constant" else 1.0


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
            self._node_matrix = self.domain.node_kernel_matrix(
                self.chi, self._eta_at_points(self.domain.node_points()))
        return self._node_matrix

    def binning_error_bound(self):
        """Speed error bound of the one-cell histogram approximation."""
        lchi, _ = self.chi.lipschitz(self.domain.dx)
        return self.kappa.lipschitz() * lchi * self.eta.sup * (self.domain.dx / 2)

    def estimate_lipschitz(self):
        """(L_R, certified): the spatial Lipschitz bound of the speed field (H9);
        the indicator chi's is the uncertified grid surrogate amplitude/dx."""
        lchi, certified = self.chi.lipschitz(self.domain.dx)
        return self.kappa.lipschitz() * lchi * self.eta.sup, certified

    def check_smallness(self, cost):
        """(H10): L_g * K_max < 1, required for exit-cost monotonicity."""
        return cost.lipschitz_constant * self.k_max < 1.0

    def hypothesis_report(self, cost):
        """One {"name", "passed", "detail"} check for each of (H8)-(H10), then (H5)-(H7)."""
        l_r, certified = self.estimate_lipschitz()
        note = "" if certified or l_r == 0 else (
            " (indicator chi is not Lipschitz in the continuum; "
            "the grid-scale surrogate amplitude/dx)")
        small = self.check_smallness(cost)
        return [
            {"name": "H8", "passed": self.k_min > 0,
             "detail": f"speed bounds [{self.k_min:.6g}, {self.k_max:.6g}] with k_min > 0"},
            {"name": "H9", "passed": True, "detail": f"L_R = {l_r:.6g}{note}"},
            {"name": "H10", "passed": small,
             "detail": f"L_g * K_max = {cost.lipschitz_constant * self.k_max:.6g} "
                       + ("< 1" if small else ">= 1")},
            {"name": "H5-H7", "passed": True,
             "detail": "enforced at speed-field construction (bound clamp and smallness)"},
        ]
