"""Scenario schema, strict validation, builders, and the built-in registry.

A scenario is a JSON document with a versioned "schema" field; unknown keys
are rejected so that persisted runs stay reproducible. The registry ships
the oracle setups used by the acceptance suite: the two worked interval
games, the congested corridor, and the two tail-decay experiments.
"""
from __future__ import annotations

import copy
import json
import math
import numbers

import numpy as np

from .congestion import CongestionKernel, Kappa, Chi, Eta
from .domain import DomainError, ExitCost, GraphDomain, Grid2dDomain, IntervalDomain
from .equilibrium import EquilibriumConfig
from .measures import MeasureError, ParticleMeasure

SCHEMA_VERSION = 1
KERNEL_PARTS = {"kappa": Kappa, "chi": Chi, "eta": Eta}
# the parameters a kernel family reads with a default, besides its required ones
KERNEL_DEFAULTED = {"chi": {family: ("amplitude", "value") for family in Chi.required},
                    "eta": {"constant": ("value",)}}


class ScenarioError(ValueError):
    pass


def _require(block, allowed, context):
    """Reject a block that is not an object, or that holds keys outside `allowed`."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{context} must be an object, got {block!r}")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {context}")


def _require_number(value, path, integer=False, positive=False):
    """Reject non-numbers, booleans, non-finite and non-positive values at a dotted path."""
    kind = "an integer" if integer else "a finite number"
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not math.isfinite(value)):
        raise ScenarioError(f"{path} must be {kind}, got {value!r}")
    if positive and value <= 0:
        raise ScenarioError(f"{path} must be positive, got {value!r}")


def _require_numbers(value, count, path):
    """Reject anything but a list of `count` finite numbers (of any length if count is None)."""
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        what = "numbers" if count is None else f"{count} numbers"
        raise ScenarioError(f"{path} must be a list of {what}, got {value!r}")
    for k, v in enumerate(value):
        _require_number(v, f"{path}[{k}]")


def _require_node(value, kind, path):
    """Reject anything but a node reference of a domain kind: [x, y] on grid2d, else a number."""
    if kind == "grid2d":
        _require_numbers(value, 2, path)
    else:
        _require_number(value, path)


def _require_choice(value, choices, path):
    if isinstance(value, bool) or value not in choices:
        raise ScenarioError(f"{path} must be one of {list(choices)}, got {value!r}")


def validate_config(cfg):
    """Strict structural validation; returns a resolved copy with defaults."""
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require(cfg, {"schema", "name", "seed", "domain", "exit_cost", "kernel",
                   "initial_measure", "equilibrium", "asymptotics"}, "scenario")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"schema must be {SCHEMA_VERSION}, got {cfg.get('schema')}")
    out = copy.deepcopy(cfg)
    out.setdefault("name", "unnamed")
    out.setdefault("seed", 0)
    _require_number(out["seed"], "seed", integer=True)

    dom = out.get("domain")
    if not isinstance(dom, dict) or "kind" not in dom:
        raise ScenarioError("domain block with a 'kind' is required")
    if dom["kind"] == "interval":
        _require(dom, {"kind", "lo", "hi", "dx", "targets", "origin"}, "domain")
    elif dom["kind"] == "grid2d":
        _require(dom, {"kind", "lo", "hi", "dx", "targets", "origin", "connectivity"}, "domain")
    elif dom["kind"] == "graph":
        _require(dom, {"kind", "n_nodes", "edges", "targets", "origin"}, "domain")
    else:
        raise ScenarioError(f"unknown domain kind {dom['kind']!r}")
    if dom["kind"] == "interval":
        _require_number(dom.get("lo"), "domain.lo")
        _require_number(dom.get("hi"), "domain.hi")
    elif dom["kind"] == "grid2d":
        _require_numbers(dom.get("lo"), 2, "domain.lo")
        _require_numbers(dom.get("hi"), 2, "domain.hi")
    else:
        _require_number(dom.get("n_nodes"), "domain.n_nodes", integer=True, positive=True)
        edges = dom.get("edges")
        if not isinstance(edges, list):
            raise ScenarioError(f"domain.edges must be a list of [u, v, length] triples, got {edges!r}")
        for k, edge in enumerate(edges):
            _require_numbers(edge, 3, f"domain.edges[{k}]")
    targets = dom.get("targets")
    if isinstance(targets, dict) and dom["kind"] == "interval":
        _require(targets, {"intervals"}, "domain.targets")
        intervals = targets.get("intervals", [])
        if not isinstance(intervals, list):
            raise ScenarioError(f"domain.targets.intervals must be a list of [a, b] pairs, "
                                f"got {intervals!r}")
        for k, pair in enumerate(intervals):
            _require_numbers(pair, 2, f"domain.targets.intervals[{k}]")
    elif isinstance(targets, list):
        for k, target in enumerate(targets):
            _require_node(target, dom["kind"], f"domain.targets[{k}]")
    else:
        also = " or an intervals object" if dom["kind"] == "interval" else ""
        raise ScenarioError(f"domain.targets must be a list{also}, got {targets!r}")
    if dom.get("origin") is not None:
        _require_node(dom["origin"], dom["kind"], "domain.origin")
    if dom["kind"] != "graph":
        _require_number(dom.get("dx"), "domain.dx", positive=True)

    cost = out.setdefault("exit_cost", {"kind": "zero"})
    _require(cost, {"kind", "value", "entries", "lipschitz"}, "exit_cost")
    if cost.get("kind") not in ("zero", "constant", "table"):
        raise ScenarioError(f"unknown exit_cost kind {cost.get('kind')!r}")
    if cost["kind"] == "constant":
        _require_number(cost.get("value"), "exit_cost.value")
    if cost["kind"] == "table":
        entries = cost.get("entries")
        if not isinstance(entries, list) or not all(
                isinstance(e, (list, tuple)) and len(e) == 2 for e in entries):
            raise ScenarioError(f"exit_cost.entries must be a list of [target, cost] pairs, "
                                f"got {entries!r}")
        for k, (node, value) in enumerate(entries):
            _require_node(node, dom["kind"], f"exit_cost.entries[{k}][0]")
            _require_number(value, f"exit_cost.entries[{k}][1]")
    if cost.get("lipschitz") is not None:
        if cost["kind"] != "table":  # the other kinds derive their constant
            raise ScenarioError(f"exit_cost.lipschitz is read only with kind 'table', "
                                f"got kind {cost['kind']!r}")
        _require_number(cost["lipschitz"], "exit_cost.lipschitz")
        if cost["lipschitz"] < 0:
            raise ScenarioError(f"exit_cost.lipschitz must not be negative, "
                                f"got {cost['lipschitz']!r}")

    ker = out.get("kernel")
    if not isinstance(ker, dict):
        raise ScenarioError("kernel block is required")
    _require(ker, {"kappa", "chi", "eta"}, "kernel")
    for part, cls in KERNEL_PARTS.items():
        if not isinstance(ker.get(part), dict) or "family" not in ker[part]:
            raise ScenarioError(f"kernel.{part} must be an object with a 'family', "
                                f"got {ker.get(part)!r}")
        family = ker[part]["family"]
        _require_choice(family, tuple(cls.required), f"kernel.{part}.family")
        for param in cls.required[family]:
            if param not in ker[part]:
                raise ScenarioError(
                    f"kernel.{part}.{param} is required for family {family!r}")
        _require(ker[part], {"family", *cls.required[family],
                             *KERNEL_DEFAULTED.get(part, {}).get(family, ())},
                 f"kernel.{part} (family {family!r})")
        for param, value in ker[part].items():
            if param != "family":
                _require_number(value, f"kernel.{part}.{param}")

    m0 = out.get("initial_measure")
    if not isinstance(m0, dict) or "kind" not in m0:
        raise ScenarioError("initial_measure block with a 'kind' is required")
    allowed = {
        "dirac": {"kind", "location"},
        "uniform": {"kind", "support", "count"},
        "power_tail": {"kind", "shoulder", "exponent", "count"},
        "exp_tail": {"kind", "shoulder", "rate", "count"},
        "atoms": {"kind", "points", "weights"},
    }
    if m0["kind"] not in allowed:
        raise ScenarioError(f"unknown initial_measure kind {m0['kind']!r}")
    _require(m0, allowed[m0["kind"]], "initial_measure")
    if m0["kind"] == "dirac":
        _require_node(m0.get("location"), dom["kind"], "initial_measure.location")
    if m0["kind"] == "uniform":
        _require_numbers(m0.get("support"), 2, "initial_measure.support")
    if m0["kind"] == "atoms":
        points = m0.get("points")
        if not isinstance(points, list):
            raise ScenarioError(f"initial_measure.points must be a list, got {points!r}")
        for k, point in enumerate(points):
            _require_node(point, dom["kind"], f"initial_measure.points[{k}]")
        _require_numbers(m0.get("weights"), None, "initial_measure.weights")
    for key in ("shoulder", "exponent", "rate", "count"):
        if key in allowed[m0["kind"]]:
            _require_number(m0.get(key), f"initial_measure.{key}",
                            integer=key == "count", positive=key == "count")

    eq = out.setdefault("equilibrium", {})
    _require(eq, {"max_iterations", "damping", "tolerance", "marginal_binning"}, "equilibrium")
    eq.setdefault("max_iterations", 60)
    eq.setdefault("damping", {"rule": "fictitious_play"})
    _require(eq["damping"], {"rule", "value"}, "equilibrium.damping")
    eq.setdefault("tolerance", 0.02)
    eq.setdefault("marginal_binning", "auto")
    _require_number(eq["max_iterations"], "equilibrium.max_iterations", integer=True, positive=True)
    _require_number(eq["tolerance"], "equilibrium.tolerance", positive=True)
    _require_choice(eq["damping"].get("rule"), ("fictitious_play", "constant"),
                    "equilibrium.damping.rule")
    if eq["damping"]["rule"] == "constant":
        value = eq["damping"].get("value", 0.5)
        _require_number(value, "equilibrium.damping.value", positive=True)
        if value > 1:
            raise ScenarioError(f"equilibrium.damping.value must lie in (0, 1], got {value!r}")
    _require_choice(eq["marginal_binning"], ("auto", "on", "off"), "equilibrium.marginal_binning")

    asym = out.setdefault("asymptotics", {})
    _require(asym, {"p", "report_times", "rate_fit"}, "asymptotics")
    asym.setdefault("p", 1)
    _require_choice(asym["p"], (1, 2), "asymptotics.p")
    asym.setdefault("report_times", {"kind": "linear", "start": 0.0, "stop": None, "step": None})
    rt = asym["report_times"]
    if isinstance(rt, dict):
        _require(rt, {"kind", "start", "stop", "step", "count"}, "asymptotics.report_times")
        _require_choice(rt.get("kind", "linear"), ("linear", "log"), "asymptotics.report_times.kind")
        for key in ("start", "stop", "step", "count"):
            if rt.get(key) is not None:
                _require_number(rt[key], f"asymptotics.report_times.{key}",
                                integer=key == "count", positive=key in ("step", "count"))
        start = 0.0 if rt.get("start") is None else rt["start"]
        stop = rt.get("stop")
        if start < 0:
            raise ScenarioError(f"asymptotics.report_times.start must not be negative, got {start!r}")
        if stop is not None and (stop < start or (rt.get("kind") == "log" and stop <= 0)):
            raise ScenarioError(f"asymptotics.report_times.stop must be at least start "
                                f"({start!r}) and positive on a log grid, got {stop!r}")
    elif isinstance(rt, list):
        _require_numbers(rt, None, "asymptotics.report_times")
        if any(t < 0 for t in rt):
            raise ScenarioError(f"asymptotics.report_times must not hold negative times, got {rt!r}")
    else:
        raise ScenarioError(f"asymptotics.report_times must be an object or a list, got {rt!r}")
    fit = asym.setdefault("rate_fit", None)
    if fit is not None:
        _require(fit, {"mode", "window", "tail_dimension"}, "asymptotics.rate_fit")
        _require_choice(fit.get("mode"), ("power", "exponential"), "asymptotics.rate_fit.mode")
        _require_numbers(fit.get("window"), 2, "asymptotics.rate_fit.window")
        if fit["window"][0] >= fit["window"][1]:
            raise ScenarioError(f"asymptotics.rate_fit.window must be increasing, "
                                f"got {fit['window']!r}")
        _require_number(fit.get("tail_dimension", 1), "asymptotics.rate_fit.tail_dimension",
                        integer=True, positive=True)
    return out


def _interval_targets(lo, hi, dx, spec):
    """Resolve a target list or an interval predicate into node coordinates."""
    if isinstance(spec, dict):
        coords = np.arange(int(round((hi - lo) / dx)) + 1) * dx + lo
        keep = np.zeros(len(coords), dtype=bool)
        for a, b in spec.get("intervals", ()):
            keep |= (coords >= a - 1e-12) & (coords <= b + 1e-12)
        return coords[keep].tolist()
    return spec


def build_domain(cfg):
    dom = cfg["domain"]
    try:
        if dom["kind"] == "interval":
            targets = _interval_targets(dom["lo"], dom["hi"], dom["dx"], dom["targets"])
            return IntervalDomain(dom["lo"], dom["hi"], dom["dx"], targets,
                                  dom.get("origin"))
        if dom["kind"] == "grid2d":
            return Grid2dDomain(dom["lo"], dom["hi"], dom["dx"], dom["targets"],
                                dom.get("origin"), dom.get("connectivity", 8))
        return GraphDomain(dom["n_nodes"], dom["edges"], dom["targets"],
                           dom.get("origin", 0))
    except DomainError as err:
        path = "domain" if err.key is None else f"domain.{err.key}"
        raise ScenarioError(f"{path}: {err}") from None


def build_cost(domain, cfg):
    cost = cfg["exit_cost"]
    try:
        if cost["kind"] == "zero":
            return ExitCost.zero(domain)
        if cost["kind"] == "constant":
            return ExitCost.constant(domain, cost["value"])
        values = {domain.node_at(key): float(value) for key, value in cost["entries"]}
        return ExitCost(domain, values, cost.get("lipschitz"))
    except DomainError as err:
        path = "exit_cost.value" if cost["kind"] == "constant" else "exit_cost.entries"
        raise ScenarioError(f"{path}: {err}") from None


def build_kernel(domain, cfg):
    ker = cfg["kernel"]
    kappa = Kappa(ker["kappa"]["family"], **{k: v for k, v in ker["kappa"].items() if k != "family"})
    chi = Chi(ker["chi"]["family"], **{k: v for k, v in ker["chi"].items() if k != "family"})
    eta = Eta(ker["eta"]["family"], **{k: v for k, v in ker["eta"].items() if k != "family"})
    return CongestionKernel(domain, kappa, chi, eta)


def _tail_atoms(domain, kind, shoulder, param, n):
    """Quantile atoms of a plateau + tail density on a truncated interval.

    Returns (measure, truncated_fraction): the density is 1 on [lo, shoulder]
    and decays as (x/shoulder)^-beta (power) or exp(-rate (x - shoulder))
    beyond; truncated_fraction is the tail mass lost to the domain cut.
    """
    lo, hi = domain.lo, domain.hi
    if not (lo < shoulder < hi):
        raise ScenarioError("tail shoulder must lie inside the domain")
    plateau = shoulder - lo
    if kind == "power_tail":
        beta = float(param)
        if beta <= 1:
            raise ScenarioError("power tail needs exponent > 1")
        def tail_mass(x):
            return shoulder / (beta - 1) * (1.0 - (x / shoulder) ** (1.0 - beta))
        def tail_inv(q):
            return shoulder * (1.0 - q * (beta - 1) / shoulder) ** (1.0 / (1.0 - beta))
        full_tail = shoulder / (beta - 1)
    else:
        rate = float(param)
        if rate <= 0:
            raise ScenarioError("exp tail needs positive rate")
        def tail_mass(x):
            return (1.0 - np.exp(-rate * (x - shoulder))) / rate
        def tail_inv(q):
            return shoulder - np.log(1.0 - rate * q) / rate
        full_tail = 1.0 / rate
    total = plateau + tail_mass(hi)
    truncated = (full_tail - tail_mass(hi)) / (plateau + full_tail)
    q = (np.arange(n) + 0.5) / n * total
    pts = np.where(q <= plateau, lo + q, 0.0)
    tail_q = np.maximum(q - plateau, 1e-300)
    pts = np.where(q > plateau, tail_inv(tail_q), pts)
    pts = np.clip(pts, lo, hi)
    m0 = ParticleMeasure(domain, pts, np.full(n, 1.0 / n))
    return m0, float(truncated)


def _as_point(domain, loc):
    if domain.kind == "graph":
        return domain.points_of_nodes([domain.node_at(loc)])[0]
    return loc


def build_initial_measure(domain, cfg):
    """(measure, flags) from the initial-measure block.

    Every family quantizes deterministically (inverse-CDF atoms); seeded
    sampling only enters through the generic sample_from_density op.
    """
    block = cfg["initial_measure"]
    flags = []
    kind = block["kind"]
    try:
        if kind == "dirac":
            return ParticleMeasure.dirac(domain, _as_point(domain, block["location"])), flags
        if kind == "atoms":
            pts = [_as_point(domain, p) for p in block["points"]]
            return ParticleMeasure(domain, pts, block["weights"]), flags
        if kind == "uniform" and domain.kind == "interval":
            n = int(block["count"])
            a, b = block["support"]
            q = (np.arange(n) + 0.5) / n
            pts = a + (b - a) * q
            return ParticleMeasure(domain, pts, np.full(n, 1.0 / n)), flags
    except MeasureError as err:
        raise ScenarioError(f"initial_measure.weights: {err}") from None
    except ValueError as err:  # a point outside the domain, or not a number
        path = {"dirac": "location", "atoms": "points"}.get(kind, "support")
        raise ScenarioError(f"initial_measure.{path}: {err}") from None
    if domain.kind != "interval":
        raise ScenarioError(f"initial_measure kind {kind!r} needs the interval backend")
    n = int(block["count"])
    param = block["exponent"] if kind == "power_tail" else block["rate"]
    m0, truncated = _tail_atoms(domain, kind, float(block["shoulder"]), param, n)
    flags.append(f"truncated tail mass fraction {truncated:.6g} "
                 f"(absorbing far boundary at {domain.hi})")
    return m0, flags


def build_equilibrium_config(cfg):
    eq = cfg["equilibrium"]
    damping = eq["damping"]
    return EquilibriumConfig(
        max_iterations=int(eq["max_iterations"]),
        damping=damping["rule"],
        damping_value=float(damping.get("value", 0.5)),
        exploitability_tol=float(eq["tolerance"]),
        marginal_binning=eq["marginal_binning"],
    )


def report_times(cfg, horizon):
    rt = cfg["asymptotics"]["report_times"]
    if isinstance(rt, list):
        return np.array([t for t in rt if t <= horizon + 1e-9], dtype=float)
    kind = rt.get("kind", "linear")
    start = 0.0 if rt.get("start") is None else float(rt["start"])
    stop = rt.get("stop")
    stop = horizon if stop is None else min(float(stop), horizon)
    if kind == "log":
        count = int(rt.get("count", 20))
        lo = max(start, 1e-6)
        if lo > stop:  # the grid starts beyond the solved horizon
            return np.empty(0)
        return np.geomspace(lo, stop, count)
    step = rt.get("step")
    if step is None:
        step = max((stop - start) / 24.0, 1e-9)
    return np.arange(start, stop + 1e-9, float(step))


def scenario_registry():
    """Built-in oracle scenarios keyed by name."""
    reg = {}
    reg["remark_5_3"] = {
        "schema": 1,
        "name": "remark_5_3",
        "seed": 0,
        "domain": {"kind": "interval", "lo": 0.0, "hi": 1.0, "dx": 0.005,
                   "targets": [0.0, 1.0], "origin": 0.0},
        "exit_cost": {"kind": "zero"},
        "kernel": {"kappa": {"family": "constant", "value": 1.0},
                   "chi": {"family": "constant", "value": 0.0},
                   "eta": {"family": "constant", "value": 1.0}},
        "initial_measure": {"kind": "dirac", "location": 0.5},
        "equilibrium": {"max_iterations": 40, "tolerance": 0.01,
                        "damping": {"rule": "fictitious_play"},
                        "marginal_binning": "auto"},
        "asymptotics": {"p": 1,
                        "report_times": {"kind": "linear", "start": 0.0,
                                         "stop": None, "step": 0.05},
                        "rate_fit": None},
    }
    reg["remark_5_13"] = copy.deepcopy(reg["remark_5_3"])
    reg["remark_5_13"]["name"] = "remark_5_13"
    reg["remark_5_13"]["initial_measure"] = {"kind": "dirac", "location": 0.3}

    # chi width/amplitude and the eta cut-off near the exit keep the induced
    # field off the kappa clamp, where the first-order scheme loses accuracy;
    # the tolerance covers the measured per-atom scheme spread at this dx.
    reg["congested_corridor"] = {
        "schema": 1,
        "name": "congested_corridor",
        "seed": 0,
        "domain": {"kind": "interval", "lo": 0.0, "hi": 1.0, "dx": 0.008,
                   "targets": [1.0], "origin": 0.0},
        "exit_cost": {"kind": "zero"},
        "kernel": {"kappa": {"family": "affine_clamped", "intercept": 1.0,
                             "slope": 1.0, "floor": 0.2},
                   "chi": {"family": "gaussian", "width": 0.05, "amplitude": 0.6},
                   "eta": {"family": "taper", "distance": 0.1}},
        "initial_measure": {"kind": "uniform", "support": [0.0, 0.2], "count": 200},
        "equilibrium": {"max_iterations": 80, "tolerance": 0.15,
                        "damping": {"rule": "constant", "value": 0.4},
                        "marginal_binning": "auto"},
        "asymptotics": {"p": 1,
                        "report_times": {"kind": "linear", "start": 0.0,
                                         "stop": None, "step": 0.25},
                        "rate_fit": None},
    }

    reg["power_tail_cor56a"] = {
        "schema": 1,
        "name": "power_tail_cor56a",
        "seed": 0,
        "domain": {"kind": "interval", "lo": 0.0, "hi": 30.0, "dx": 0.05,
                   "targets": [0.0], "origin": 0.0},
        "exit_cost": {"kind": "zero"},
        "kernel": {"kappa": {"family": "constant", "value": 1.0},
                   "chi": {"family": "constant", "value": 0.0},
                   "eta": {"family": "constant", "value": 1.0}},
        "initial_measure": {"kind": "power_tail", "shoulder": 1.0,
                            "exponent": 4.0, "count": 4000},
        "equilibrium": {"max_iterations": 5, "tolerance": 0.05,
                        "damping": {"rule": "fictitious_play"},
                        "marginal_binning": "auto"},
        "asymptotics": {"p": 1,
                        "report_times": {"kind": "log", "start": 0.25,
                                         "stop": 14.0, "count": 33},
                        "rate_fit": {"mode": "power", "window": [1.0, 5.0],
                                     "tail_dimension": 1}},
    }

    reg["exp_tail_cor56b"] = copy.deepcopy(reg["power_tail_cor56a"])
    reg["exp_tail_cor56b"]["name"] = "exp_tail_cor56b"
    reg["exp_tail_cor56b"]["initial_measure"] = {
        "kind": "exp_tail", "shoulder": 0.5, "rate": 2.0, "count": 4000}
    reg["exp_tail_cor56b"]["asymptotics"]["report_times"] = {
        "kind": "log", "start": 0.25, "stop": 6.0, "count": 33}
    reg["exp_tail_cor56b"]["asymptotics"]["rate_fit"] = {
        "mode": "exponential", "window": [1.5, 3.5], "tail_dimension": 1}
    return reg


def load_scenario(source):
    """Resolve a registry name or a JSON file path into a validated config."""
    reg = scenario_registry()
    if isinstance(source, dict):
        return validate_config(source)
    if source in reg:
        return validate_config(reg[source])
    try:
        with open(source) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(
            f"{source!r} is neither a registry scenario ({', '.join(sorted(reg))}) "
            "nor a readable file")
    return validate_config(cfg)
