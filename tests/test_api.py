"""The public names, and every name the benchmark tracer patches, resolve."""
import ast
import glob
import os

import numpy as np
import pytest

import exitlab
from exitlab import cli, runner
from exitlab.domain import ExitCost, IntervalDomain
from exitlab.measures import TrajectoryEnsemble
from exitlab.ocp import check_dpp, solve_value, synthesize_batch
from test_ocp import constant_speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_every_public_name_resolves():
    assert len(exitlab.__all__) == len(set(exitlab.__all__))
    for name in exitlab.__all__:
        assert getattr(exitlab, name) is not None, name


def referenced_names(path):
    """Names a module reads (as a name or an attribute), outside the definitions so named."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return found


def qualified_reads(path):
    """(owner, attribute) of every <Name>.<attribute> a module reads, with
    cls.<attribute> read as (class, attribute) inside that class."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()

    def walk(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = cls if node.value.id == "cls" else node.value.id
            found.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            walk(child, cls)

    walk(tree, None)
    return found


def package_and_demo_paths():
    paths = [p for p in glob.glob(os.path.join(ROOT, "src", "exitlab", "*.py"))
             if os.path.basename(p) != "__init__.py"]
    return paths + glob.glob(os.path.join(ROOT, "demos", "*.py"))


def names_used_by_the_package_and_the_demos():
    return set().union(*map(referenced_names, package_and_demo_paths()))


def test_every_public_name_has_a_caller():
    """A public name that neither the package nor a demo uses has no caller."""
    assert sorted(set(exitlab.__all__) - names_used_by_the_package_and_the_demos()) == []


def test_every_definition_in_the_package_has_a_caller(tracer):
    """A function, class or method that neither the package nor a demo uses
    outside its own definition has no caller, unless the benchmark tracer
    patches it. Dunder methods are called by the language. A classmethod is
    used only where <Class>.<name> is read, or cls.<name> inside its class:
    a bare name may be another class's method of the same name."""
    used = names_used_by_the_package_and_the_demos()
    used |= {attr for _, owners in patch_targets(tracer) for _, attr in owners}
    qualified = set().union(*map(qualified_reads, package_and_demo_paths()))
    orphans = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "exitlab", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        classmethods = {id(fn): (cls.name, fn.name) for cls in ast.walk(tree)
                        if isinstance(cls, ast.ClassDef) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef)
                        and "classmethod" in {getattr(d, "id", None) for d in fn.decorator_list}}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and (classmethods[id(node)] not in qualified if id(node) in classmethods
                         else node.name not in used)):
                orphans.append(f"{os.path.basename(path)}:{node.lineno} {node.name}")
    assert orphans == []


# defaults that no call passes, kept for the reason given
IDLE_DEFAULTS_KEPT = {
    # raise_on_stall=False is the only way to read the rows of a stalled
    # synthesis, which tests compare against reference implementations
    ("synthesize_batch", "raise_on_stall"),
}


def defaulted_parameters(path):
    """(name it is called by, parameter, position or None) of every parameter
    with a default. A constructor is called by its class's name; a method's
    positions do not count self or cls; None marks a keyword-only parameter."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if cls is not None and "staticmethod" not in {
                        getattr(d, "id", None) for d in child.decorator_list}:
                    positional = positional[1:]
                called = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend((called, positional[k], k) for k in range(first, len(positional)))
                found.extend((called, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                walk(child, None)
            else:
                walk(child, cls)

    walk(tree, None)
    return found


def calls_by_name():
    """Every call in the package, the demos and the benchmark, by the name it calls."""
    paths = [path for where in (os.path.join(ROOT, "src", "exitlab"), os.path.join(ROOT, "demos"),
                                PERFBENCH) for path in glob.glob(os.path.join(where, "*.py"))]
    calls = {}
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(
                    node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, param, position):
    """Whether a call may pass param: by keyword or **kwargs, or by position or *args."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_passed_by_some_caller():
    """A default that no call in the package, a demo or the benchmark ever
    overrides is a setting with one value in use, which should be a constant.
    Calls are resolved by name, as for the definitions above."""
    calls = calls_by_name()
    idle = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "exitlab", "*.py"))):
        for called, param, position in defaulted_parameters(path):
            if (called, param) not in IDLE_DEFAULTS_KEPT and not any(
                    passes(call, param, position) for call in calls.get(called, [])):
                idle.append(f"{os.path.basename(path)}: {called}({param}=...)")
    assert idle == []


# parameters that carry their own domain (kernel.domain, cost.domain, ...)
DOMAIN_CARRIERS = {"kernel", "cost", "m0", "mu", "nu", "measure", "ensemble", "phi", "speed"}
# functions that take a domain beside such a parameter, and why
DOMAIN_BESIDE_A_CARRIER_KEPT = {
    "__init__": "a constructor stores the domain that its object then carries",
    "solve_value": "the benchmark calls solve_value(domain, cost, speed) and its tracer "
                   "reads speed at position 2",
    "validate_hypotheses": "the benchmark calls validate_hypotheses(domain, cost)",
    "_on_domain": "it reads a measure's atoms on another domain object",
}


def test_no_function_takes_a_domain_beside_an_object_that_carries_it():
    """A domain parameter beside a kernel, cost, measure, ensemble or field
    can disagree with the domain that object carries. The scenario builders
    (scenarios.build_*) make the objects from a domain and a config."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "exitlab", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in DOMAIN_BESIDE_A_CARRIER_KEPT or (
                    os.path.basename(path) == "scenarios.py" and node.name.startswith("build_")):
                continue
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "domain" in params and params & DOMAIN_CARRIERS:
                found.append(f"{os.path.basename(path)}:{node.lineno} {node.name}")
    assert found == []


def test_the_removed_start_slots_raise_type_error():
    """Every path starts at slice 0 and is descended under phi.speed: a call
    that still passes a start slot or a speed field fails."""
    dom = IntervalDomain(0.0, 1.0, 0.1, targets=[1.0])
    field = constant_speed(dom, 1.0, dom.dx, 1.2)
    phi = solve_value(dom, ExitCost.zero(dom), field)
    with pytest.raises(TypeError):
        synthesize_batch(phi, [0.5], 0.0)  # t0
    with pytest.raises(TypeError):
        synthesize_batch(phi, field, [0.5])  # the speed field phi.speed already is
    samples, exits, nodes = synthesize_batch(phi, [0.5])
    starts = np.zeros(1, dtype=int)
    with pytest.raises(TypeError):
        TrajectoryEnsemble(dom, dom.dx, samples, [1.0], starts, exits)
    with pytest.raises(TypeError):
        check_dpp(phi, samples, starts, exits)


def test_the_removed_seed_override_is_rejected(tmp_path, capsys):
    for command in (["run", "remark_5_3"], ["sweep", "remark_5_3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--out", str(tmp_path), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    for call in (lambda: runner.run("remark_5_3", str(tmp_path), seed=1),
                 lambda: runner.sweep("remark_5_3", {}, str(tmp_path), seed=1),
                 lambda: runner.apply_overrides({}, seed=1)):
        with pytest.raises(TypeError):
            call()
    assert not os.listdir(tmp_path)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    return tracer


def patch_targets(tracer):
    """(span, [(owner path, attr), ...]) in the order Tracer.install walks them."""
    targets = list(tracer.LAYER_FUNCTIONS)
    for meth in tracer.DOMAIN_METHODS:
        targets.append((f"domain.{meth}",
                        [(f"exitlab.domain:{cls}", meth) for cls in tracer.DOMAIN_CLASSES]))
    return targets


def test_every_traced_name_is_where_the_tracer_looks(tracer):
    for span, owners in patch_targets(tracer):
        for path, attr in owners:
            owner = tracer._resolve(path)
            # install() reads vars(owner)[attr]: an inherited or removed name fails there
            assert attr in vars(owner), f"{span}: {path} has no {attr}"


def test_the_traced_loop_measures_through_exploitability(tracer):
    """Each iteration's gap pass is one equilibrium.exploitability span, and
    its field induction and value solve are its children."""
    from exitlab.scenarios import load_scenario

    spans = tracer.Tracer()
    spans.install()
    try:
        runner.execute(load_scenario("congested_corridor") | {"equilibrium": {
            "max_iterations": 3, "damping": {"rule": "constant", "value": 0.4}}})
    finally:
        spans.uninstall()
    passes = [i for i, rec in enumerate(spans.spans) if rec[0] == "equilibrium.exploitability"]
    assert len(passes) == 3
    for i in passes:
        children = [rec[0] for rec in spans.spans if rec[3] == i]
        assert children.count("equilibrium.field_from_marginals") == 1
        assert children.count("ocp.solve_value") == 1


def test_owners_of_one_layer_function_share_it(tracer):
    for span, owners in tracer.LAYER_FUNCTIONS:
        found = {id(vars(tracer._resolve(path))[attr]) for path, attr in owners}
        assert len(found) == 1, span


def test_every_equilibrium_config_field_is_set_by_the_scenario_builder(monkeypatch):
    """A field that build_equilibrium_config does not set has no caller: it is an idle knob."""
    from dataclasses import fields

    from exitlab import scenarios

    seen = {}
    monkeypatch.setattr(scenarios, "EquilibriumConfig", lambda **kwargs: seen.update(kwargs))
    cfg = scenarios.validate_config(scenarios.load_scenario("remark_5_3"))
    scenarios.build_equilibrium_config(cfg)
    assert set(seen) == {f.name for f in fields(exitlab.EquilibriumConfig)}


def test_solve_value_takes_speed_third():
    """perfbench/tracer.py counts backward steps from solve_value's third positional argument."""
    import inspect

    from exitlab.ocp import solve_value

    assert list(inspect.signature(solve_value).parameters)[:3] == ["domain", "cost", "speed"]
