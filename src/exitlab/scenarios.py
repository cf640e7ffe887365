"""Scenario schema, strict validation, builders, and the built-in registry.

A scenario is a JSON document with a versioned "schema" field, checked
against one table per domain kind (a node reference is a coordinate on the
interval, an [x, y] pair on the grid and a node id on the graph). A block
maps each key it reads to (check, default); a tagged block also reads the
keys of the variant that its `kind`, `family`, `rule` or `mode` names. One
walker builds the resolved copy and rejects every key that is not read, so
persisted runs stay reproducible; each message starts with a dotted path.
The registry ships the oracle setups used by the acceptance suite: the two
worked interval games, the congested corridor, and the two tail-decay
experiments.
"""
from __future__ import annotations

import copy
import json
import math
import numbers

import numpy as np

from .congestion import CongestionKernel, Kappa, Chi, Eta
from .domain import (INDEX_MAX, DomainError, ExitCost, GraphDomain, Grid2dDomain,
                     IntervalDomain, _node_count)
from .equilibrium import EquilibriumConfig
from .measures import MeasureError, ParticleMeasure

SCHEMA_VERSION = 1
# the default of a key that must be given, and of one that may be left out and stays out
REQUIRED, ABSENT = object(), object()


class ScenarioError(ValueError):
    pass


def _number(integer=False, above=None, least=None, most=None):
    """Check of a finite number, or an integer, within the given bounds."""
    kind, type_ = (("an integer", numbers.Integral) if integer
                   else ("a finite number", numbers.Real))
    bounds = " and ".join(f"{op} {bound}" for op, bound in ((">", above), (">=", least),
                                                            ("<=", most)) if bound is not None)

    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, type_):
            raise ScenarioError(f"{path} must be {kind}, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float; its repr may be too long to print
            raise ScenarioError(f"{path} must be {kind} within the float range, "
                                f"got an integer of {int(value).bit_length()} bits") from None
        if not finite:
            raise ScenarioError(f"{path} must be {kind}, got {value!r}")
        if ((above is not None and value <= above) or (least is not None and value < least)
                or (most is not None and value > most)):
            raise ScenarioError(f"{path} must be {bounds}, got {value!r}")
        return value
    return check


def _choice(*choices):
    def check(value, path):
        if isinstance(value, bool) or value not in choices:
            raise ScenarioError(f"{path} must be one of {list(choices)}, got {value!r}")
        return value
    return check


def _string(value, path):
    if not isinstance(value, str):
        raise ScenarioError(f"{path} must be a string, got {value!r}")
    return value


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _list(item):
    """Check of a list of any length, each entry passing `item`."""
    def check(value, path):
        if not isinstance(value, list):
            raise ScenarioError(f"{path} must be a list, got {value!r}")
        return [item(v, f"{path}[{k}]") for k, v in enumerate(value)]
    return check


def _entries(*items):
    """Check of a list with one entry per check in `items`."""
    def check(value, path):
        if not isinstance(value, list) or len(value) != len(items):
            raise ScenarioError(f"{path} must be a list of {len(items)} entries, got {value!r}")
        return [item(v, f"{path}[{k}]") for k, (item, v) in enumerate(zip(items, value))]
    return check


def _object_or_list(obj, lst):
    return lambda value, path: (obj if isinstance(value, dict) else lst)(value, path)


def _join(path, key):
    return f"{path}.{key}" if path else key


def _block(keys, tag=None, variants=None, implied=None):
    """Check of an object whose keys map to (check, default) in `keys`.

    A tagged block also reads the keys of the variant that its `tag` names,
    or that `implied` names when the tag is left out (it then stays out).
    Returns the resolved copy: every key checked, every default filled in.
    """
    tag_check = _choice(*variants) if tag else None
    reads = ({None: keys} if tag is None else
             {name: {tag: (tag_check, REQUIRED if implied is None else ABSENT), **keys, **extra}
              for name, extra in variants.items()})

    def check(value, path):
        if not isinstance(value, dict):
            raise ScenarioError(f"{path} must be an object, got {value!r}")
        variant = tag_check(value.get(tag, implied), f"{path}.{tag}") if tag else None
        table = reads[variant]
        for key in value:
            if key not in table:
                read_with = f" with {tag} {variant!r}" if tag else ""
                raise ScenarioError(f"{_join(path, key)} is not read{read_with}")
        out = {}
        for key, (check_key, default) in table.items():
            raw = value.get(key, default)
            if raw is not ABSENT:  # a missing required key fails its check as None
                out[key] = check_key(None if raw is REQUIRED else raw, _join(path, key))
        return out
    return check


# a count, like a node count, stays within the range of the int32 node ids
NUMBER, POSITIVE, COUNT = _number(), _number(above=0), _number(integer=True, above=0,
                                                                 most=INDEX_MAX)
PAIR = _entries(NUMBER, NUMBER)
# the most report times a log count or a linear step may ask for; the
# registry's largest grid has 33
REPORT_TIMES_MAX = 10_000

DOMAIN = _block({}, "kind", {
    "interval": {"lo": (NUMBER, REQUIRED), "hi": (NUMBER, REQUIRED), "dx": (POSITIVE, REQUIRED),
                 "targets": (_object_or_list(_block({"intervals": (_list(PAIR), ABSENT)}),
                                             _list(NUMBER)), REQUIRED),
                 "origin": (_optional(NUMBER), ABSENT)},
    "grid2d": {"lo": (PAIR, REQUIRED), "hi": (PAIR, REQUIRED), "dx": (POSITIVE, REQUIRED),
               "targets": (_list(PAIR), REQUIRED), "origin": (_optional(PAIR), ABSENT),
               "connectivity": (_choice(4, 8), ABSENT)},
    "graph": {"n_nodes": (COUNT, REQUIRED),
              "edges": (_list(_entries(NUMBER, NUMBER, NUMBER)), REQUIRED),
              "targets": (_list(NUMBER), REQUIRED), "origin": (_optional(NUMBER), ABSENT)},
})


def _kernel_part(cls):
    """Check of a kernel part: the parameters its family reads, as congestion.py lists them."""
    return _block({}, "family", {
        family: {**{param: (NUMBER, REQUIRED) for param in required},
                 **{param: (NUMBER, ABSENT) for param in cls.defaulted.get(family, ())}}
        for family, required in cls.required.items()})


KERNEL = _block({"kappa": (_kernel_part(Kappa), REQUIRED), "chi": (_kernel_part(Chi), REQUIRED),
                 "eta": (_kernel_part(Eta), REQUIRED)})

EQUILIBRIUM = _block({
    "max_iterations": (COUNT, 60),
    "damping": (_block({}, "rule", {"fictitious_play": {}, "constant": {
        "value": (_number(above=0, most=1), ABSENT)}}), {"rule": "fictitious_play"}),
    "tolerance": (POSITIVE, 0.02),
    # binning is the size rule; "auto" is its only name
    "marginal_binning": (_choice("auto"), ABSENT),
})

TIME = _number(least=0)
ASYMPTOTICS = _block({
    "p": (_choice(1, 2), 1),
    "report_times": (_object_or_list(
        _block({"start": (_optional(TIME), ABSENT), "stop": (_optional(NUMBER), ABSENT)}, "kind",
               {"linear": {"step": (_optional(POSITIVE), ABSENT)},
                "log": {"count": (_optional(_number(integer=True, above=0,
                                                    most=REPORT_TIMES_MAX)), ABSENT)}},
               implied="linear"),
        _list(TIME)), {"kind": "linear", "start": 0.0, "stop": None, "step": None}),
    "rate_fit": (_optional(_block({"window": (PAIR, REQUIRED)}, "mode", {
        "power": {}, "exponential": {"tail_dimension": (COUNT, ABSENT)}})), None),
})


def _scenario_table(kind):
    """The check of a whole scenario on a domain of `kind`."""
    node = PAIR if kind == "grid2d" else NUMBER
    measures = {"dirac": {"location": (node, REQUIRED)},
                "atoms": {"points": (_list(node), REQUIRED), "weights": (_list(NUMBER), REQUIRED)}}
    if kind == "interval":  # the quantile families place their atoms on a line
        count = {"count": (COUNT, REQUIRED)}
        measures.update(
            uniform={"support": (PAIR, REQUIRED), **count},
            power_tail={"shoulder": (NUMBER, REQUIRED), "exponent": (_number(above=1), REQUIRED),
                        **count},
            exp_tail={"shoulder": (NUMBER, REQUIRED), "rate": (POSITIVE, REQUIRED), **count})
    return _block({
        "schema": (_choice(SCHEMA_VERSION), REQUIRED),
        "name": (_string, "unnamed"),
        "seed": (_number(integer=True), 0),
        "domain": (DOMAIN, REQUIRED),
        "exit_cost": (_block({}, "kind", {
            "zero": {}, "constant": {"value": (NUMBER, REQUIRED)},
            "table": {"entries": (_list(_entries(node, NUMBER)), REQUIRED)}}), {"kind": "zero"}),
        "kernel": (KERNEL, REQUIRED),
        "initial_measure": (_block({}, "kind", measures), REQUIRED),
        "equilibrium": (EQUILIBRIUM, {}),
        "asymptotics": (ASYMPTOTICS, {}),
    })


SCENARIO_TABLES = {kind: _scenario_table(kind) for kind in ("interval", "grid2d", "graph")}


def validate_config(cfg):
    """Strict validation; returns a resolved copy with defaults, sharing nothing with cfg."""
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = cfg["domain"].get("kind") if isinstance(cfg.get("domain"), dict) else None
    # any table rejects an unknown kind at domain.kind
    out = SCENARIO_TABLES.get(kind if isinstance(kind, str) else None,
                              SCENARIO_TABLES["interval"])(cfg, "")
    fit = out["asymptotics"]["rate_fit"]
    if fit is not None and fit["window"][0] >= fit["window"][1]:
        raise ScenarioError(f"asymptotics.rate_fit.window must be increasing, "
                            f"got {fit['window']!r}")
    rt = out["asymptotics"]["report_times"]
    if isinstance(rt, dict):
        start, stop = rt.get("start") or 0.0, rt.get("stop")
        if stop is not None and (stop < start or (rt.get("kind") == "log" and stop <= 0)):
            raise ScenarioError(f"asymptotics.report_times.stop must be at least start "
                                f"({start!r}) and positive on a log grid, got {stop!r}")
    return out


def _interval_targets(lo, hi, dx, spec):
    """Resolve a target list or an interval predicate into node coordinates."""
    if isinstance(spec, dict):
        # the node count is checked before the grid is allocated; hi <= lo is
        # left to IntervalDomain, which names domain.hi
        coords = np.arange(_node_count(hi - lo, dx) if hi > lo else 0) * dx + lo
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
        # a null origin reads as an absent one, node 0, as on the other backends
        origin = dom.get("origin")
        return GraphDomain(dom["n_nodes"], dom["edges"], dom["targets"],
                           0 if origin is None else origin)
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
        values, entry_of = {}, {}
        for k, (key, value) in enumerate(cost["entries"]):
            node = domain.node_at(key)
            if node in entry_of:  # a later entry would silently replace the earlier cost
                raise ScenarioError(f"exit_cost.entries[{k}][0]: {key!r} is node {node}, "
                                    f"already priced by exit_cost.entries[{entry_of[node]}]")
            values[node], entry_of[node] = float(value), k
        return ExitCost(domain, values)
    except DomainError as err:
        path = "exit_cost.value" if cost["kind"] == "constant" else "exit_cost.entries"
        raise ScenarioError(f"{path}: {err}") from None


def build_kernel(domain, cfg):
    ker = cfg["kernel"]
    return CongestionKernel(domain, Kappa(**ker["kappa"]), Chi(**ker["chi"]), Eta(**ker["eta"]))


def _tail_atoms(domain, kind, shoulder, param, n):
    """Quantile atoms of a plateau + tail density on a truncated interval.

    Returns (measure, truncated_fraction): the density is 1 on [lo, shoulder]
    and decays as (x/shoulder)^-beta (power) or exp(-rate (x - shoulder))
    beyond; truncated_fraction is the tail mass lost to the domain cut.
    """
    lo, hi = domain.lo, domain.hi
    if not (lo < shoulder < hi):
        raise ScenarioError(f"initial_measure.shoulder must lie inside the domain "
                            f"({lo}, {hi}), got {shoulder!r}")
    plateau = shoulder - lo
    if kind == "power_tail":
        beta = float(param)
        def tail_mass(x):
            return shoulder / (beta - 1) * (1.0 - (x / shoulder) ** (1.0 - beta))
        def tail_inv(q):
            return shoulder * (1.0 - q * (beta - 1) / shoulder) ** (1.0 / (1.0 - beta))
        full_tail = shoulder / (beta - 1)
    else:
        rate = float(param)
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

    Every family is deterministic (given atoms or inverse-CDF quantiles): no
    builder reads the scenario's seed.
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
        if kind == "uniform":
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
        count = int(rt.get("count") or 20)
        lo = max(start, 1e-6)
        if lo > stop:  # the grid starts beyond the solved horizon
            return np.empty(0)
        return np.geomspace(lo, stop, count)
    step = rt.get("step")
    if step is None:
        step = max((stop - start) / 24.0, 1e-9)
    # the point count is checked before the grid is allocated
    if (stop + 1e-9 - start) / step > REPORT_TIMES_MAX:
        raise ScenarioError(f"asymptotics.report_times.step must give at most "
                            f"{REPORT_TIMES_MAX} report times in [{start:.6g}, {stop:.6g}], "
                            f"got {step!r}")
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
                        "damping": {"rule": "fictitious_play"}},
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
                        "damping": {"rule": "constant", "value": 0.4}},
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
                        "damping": {"rule": "fictitious_play"}},
        "asymptotics": {"p": 1,
                        "report_times": {"kind": "log", "start": 0.25,
                                         "stop": 14.0, "count": 33},
                        "rate_fit": {"mode": "power", "window": [1.0, 5.0]}},
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
    except (OSError, ValueError) as err:  # ValueError: not JSON, or not text
        raise ScenarioError(f"{source!r} is not a readable JSON scenario: {err}") from None
    return validate_config(cfg)
