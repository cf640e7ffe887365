"""The public names, and every name the benchmark tracer patches, resolve."""
import os

import pytest

import exitlab

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_public_name_resolves():
    assert len(exitlab.__all__) == len(set(exitlab.__all__))
    for name in exitlab.__all__:
        assert getattr(exitlab, name) is not None, name


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
