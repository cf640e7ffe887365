"""The batched DPP check against the per-path loop it replaced.

check_dpp reads each row from slice 0 to its exit index (to its last
slice when it never exits) with one interpolation per slice over the
rows read there. The reference below is a kept copy of the loop that read one
path at a time, one point per slice; every comparison is bit for bit.
"""
import numpy as np
import pytest

from exitlab.domain import ExitCost, GraphDomain, Grid2dDomain, IntervalDomain
from exitlab.ocp import SpeedField, check_dpp, solve_value, synthesize_batch

K_MIN, K_MAX = 0.4, 1.0


def check_dpp_reference(phi, samples, exit_index):
    """check_dpp before batching, on one path."""
    j_end = exit_index if exit_index >= 0 else samples.shape[0] - 1
    base = float(phi.at_points(0, samples[0:1])[0])
    worst_ineq = 0.0
    worst_eq = 0.0
    for j in range(j_end + 1):
        val = float(phi.at_points(j, samples[j:j + 1])[0]) + j * phi.dt - base
        worst_ineq = max(worst_ineq, -val)
        worst_eq = max(worst_eq, abs(val))
    return worst_ineq, worst_eq


def interval():
    return IntervalDomain(0.0, 1.0, 0.02, targets=[0.0, 1.0], origin=0.0)


def grid2d():
    return Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1, targets=[[0.5, 0.2]],
                        origin=[0.0, 0.2], connectivity=8)


def graph():
    return GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                       targets=[2, 4], origin=0)


def rows(domain, rng, n_slices=90):
    """phi under a random field, and rows with varied exit indices.

    Synthesized rows start at twelve random nodes; a time-reversed path
    walks away from the target and never exits; a constant path never
    exits; a path that starts on the target exits at slice 0.
    """
    dt = domain.dx / K_MAX
    speed = SpeedField(domain, dt, rng.uniform(K_MIN, K_MAX, (n_slices, domain.n_nodes)),
                       (K_MIN, K_MAX))
    phi = solve_value(domain, ExitCost.zero(domain), speed)
    nodes = domain.node_points()
    away = np.setdiff1d(np.arange(domain.n_nodes), domain.targets)
    samples, exits, _ = synthesize_batch(phi, nodes[rng.choice(away, 12)],
                                         raise_on_stall=False)
    reversed_path = samples[0][::-1]
    constant = np.repeat(nodes[away[:1]], n_slices, axis=0)
    on_target = np.repeat(nodes[domain.targets[:1]], n_slices, axis=0)
    samples = np.concatenate([samples, np.stack([reversed_path, constant, on_target])])
    return phi, samples, np.concatenate([exits, [-1, -1, 0]])


def wrong_direction_rows():
    """The remark game with the path that moves against the descent."""
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0], origin=0.0)
    field = SpeedField.constant(dom, 1.0, dom.dx, 0.7)
    phi = solve_value(dom, ExitCost.zero(dom), field)
    n = field.n_steps
    wrong = np.minimum(0.3 + np.arange(n + 1) * field.dt, 1.0)
    exit_idx = int(np.searchsorted(wrong, 1.0 - 1e-12))
    samples, exits, _ = synthesize_batch(phi, np.array([0.3, 0.5, 0.8]))
    return phi, np.concatenate([wrong[None], samples]), np.concatenate([[exit_idx], exits])


def assert_matches_reference(phi, samples, exits):
    res = check_dpp(phi, samples, exits)
    ref = np.array([check_dpp_reference(phi, samples[k], int(exits[k]))
                    for k in range(len(samples))])
    assert np.array_equal(res["max_inequality_violation"].view(np.int64),
                          ref[:, 0].view(np.int64))
    assert np.array_equal(res["max_equality_residual"].view(np.int64),
                          ref[:, 1].view(np.int64))
    return res


@pytest.mark.parametrize("make", [interval, grid2d, graph])
@pytest.mark.parametrize("seed", range(3))
def test_batched_check_equals_the_per_path_loop(make, seed):
    phi, samples, exits = rows(make(), np.random.default_rng(seed))
    assert len(set(exits.tolist())) >= 4 and np.any(exits < 0) and np.any(exits == 0)
    res = assert_matches_reference(phi, samples, exits)
    # waiting never beats the value (the null step), and a path that starts
    # on the target reads one slice
    assert res["max_inequality_violation"][-2] <= 1e-9
    assert res["max_equality_residual"][-1] == 0.0


def test_wrong_direction_path_equals_the_per_path_loop():
    res = assert_matches_reference(*wrong_direction_rows())
    assert res["max_equality_residual"][0] == pytest.approx(0.4, abs=0.03)


def test_slices_are_read_once_over_the_rows_in_their_window(monkeypatch):
    phi, samples, exits = rows(interval(), np.random.default_rng(0))
    read = []
    at_points = phi.at_points
    monkeypatch.setattr(phi, "at_points",
                        lambda j, pts: read.append((j, len(pts))) or at_points(j, pts))
    check_dpp(phi, samples, exits)
    end = np.where(exits >= 0, exits, samples.shape[1] - 1)
    assert read == [(j, int(np.count_nonzero(j <= end))) for j in range(int(end.max()) + 1)]
