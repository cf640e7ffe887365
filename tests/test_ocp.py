"""Exit-time optimal control: value sweeps, synthesis, bounds, DPP checks."""
import numpy as np
import pytest

from exitlab.domain import BIG, ExitCost, IntervalDomain
from exitlab.equilibrium import admissibility_excess, realized_costs
from exitlab.measures import TrajectoryEnsemble
from exitlab.ocp import (_select_candidates, OcpError, SpeedField, SynthesisStall, ValueField,
                         check_dpp, default_dpp_tol, horizon_bound, solve_value,
                         synthesize_batch, trajectory_bound)


def constant_speed(domain, k, dt, horizon):
    """The time-constant speed field k (bounds (k, k)) on the grid of step dt up to horizon."""
    n_steps = int(np.ceil(horizon / dt - 1e-9))
    return SpeedField(domain, dt, np.full((n_steps + 1, domain.n_nodes), float(k)), (k, k))


def remark_setup(dx=0.005, k=1.0, horizon=0.7):
    dom = IntervalDomain(0.0, 1.0, dx, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    field = constant_speed(dom, k, dx / k, horizon)
    return dom, cost, field


def path(dom, dt, samples, exit_index=-1):
    """One timed path from slice 0 as a one-row ensemble."""
    return TrajectoryEnsemble(dom, dt, np.asarray(samples, dtype=float)[None], np.ones(1),
                              exit_indices=np.array([exit_index]))


def synthesize_one(phi, x0, raise_on_stall=True):
    """The synthesized path from (0, x0) as a one-row ensemble."""
    samples, exit_idx, exit_node = synthesize_batch(
        phi, phi.domain.as_points(x0), raise_on_stall=raise_on_stall)
    return TrajectoryEnsemble(phi.domain, phi.dt, samples, np.ones(1),
                              exit_indices=exit_idx, exit_nodes=exit_node)


def realized(ens, cost):
    """Exit time plus exit cost of a one-row ensemble (inf when it never exits)."""
    return float(realized_costs(ens, cost)[0])


def dpp_residuals(phi, ens):
    res = check_dpp(phi, ens.samples, ens.exit_indices)
    return {k: float(v[0]) for k, v in res.items()}


def value_regularity(phi):
    """Time quotient over every adjacent slice pair, spatial ratio over all node pairs."""
    quotient_min = float(np.min(np.diff(phi.values, axis=0) / phi.dt))
    nodes = phi.domain.node_points()
    dist = phi.domain.point_distance_matrix(nodes, nodes)
    off = ~np.eye(len(nodes), dtype=bool)
    spatial = max(float(np.max(np.abs(row[:, None] - row[None, :])[off] / dist[off]))
                  for row in phi.values)
    return quotient_min, spatial


def minimal_time_oracle(dom, cost, k):
    """Distance over constant speed, minimized over exits with their costs."""
    tc = dom.coords[dom.targets]
    gc = np.array([cost.at_node(t) for t in dom.targets])
    return np.min(np.abs(dom.coords[:, None] - tc[None, :]) / k + gc[None, :], axis=1)


def test_value_matches_remark_profile():
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    expected = np.minimum(dom.coords, 1 - dom.coords)
    for j in (0, phi.n_steps // 2, phi.n_steps):
        assert np.max(np.abs(phi.values[j] - expected)) <= dom.dx + 1e-9
    assert phi.at(0.0, 0.5) == pytest.approx(0.5, abs=dom.dx)


def test_value_pinned_to_exit_cost_on_target():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    cost = ExitCost(dom, {dom.node_at(0.0): 0.1, dom.node_at(1.0): 0.3})
    field = constant_speed(dom, 1.0, 0.01, 1.5)
    phi = solve_value(dom, cost, field)
    assert np.allclose(phi.values[:, dom.node_at(0.0)], 0.1)
    assert np.allclose(phi.values[:, dom.node_at(1.0)], 0.3)


def test_value_constant_speed_two_against_oracle():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0], origin=0.0)
    cost = ExitCost.zero(dom)
    field = constant_speed(dom, 2.0, dom.dx / 2.0, 0.7)
    phi = solve_value(dom, cost, field)
    oracle = minimal_time_oracle(dom, cost, 2.0)
    assert np.max(np.abs(phi.values[0] - oracle)) <= dom.dx + 1e-9


def test_exit_time_examples():
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    # with a zero exit cost the realized cost is the exit time
    assert realized(synthesize_one(phi, 0.5), cost) == pytest.approx(0.5, abs=2 * dom.dx)
    assert realized(synthesize_one(phi, 0.0), cost) == 0.0
    const = path(dom, field.dt, np.full(field.n_steps + 1, 0.5))
    assert realized(const, cost) == np.inf


def test_exit_cost_examples():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    cost = ExitCost(dom, {dom.node_at(0.0): 0.1, dom.node_at(1.0): 0.3})
    ens = path(dom, 0.01, np.linspace(0.8, 1.0, 21), exit_index=20)
    assert ens.exit_nodes[0] == dom.node_at(1.0)
    assert realized(ens, cost) == pytest.approx(0.2 + 0.3)
    lost = path(dom, 0.01, np.full(21, 0.5))
    assert realized(lost, cost) == np.inf
    assert realized(ens, ExitCost.zero(dom)) == pytest.approx(0.2)


def test_admissibility_excess_examples():
    dom, cost, field = remark_setup(dx=0.01)
    n = field.n_steps
    const = path(dom, field.dt, np.full(n + 1, 0.5))
    assert admissibility_excess(const, field, slack=0.0) <= 1e-12
    t = np.arange(n + 1) * field.dt
    gamma_r = path(dom, field.dt, np.minimum(0.5 + t, 1.0))
    assert admissibility_excess(gamma_r, field, slack=1e-9) <= 1e-12
    # a 2 dx step in one dt with k = 1 and dt = dx violates by about dx
    bad = np.full(n + 1, 0.5)
    bad[1:] = 0.5 + 2 * dom.dx
    excess = admissibility_excess(path(dom, field.dt, bad), field, slack=0.0)
    assert excess == pytest.approx(dom.dx, abs=1e-9)


def test_synthesize_left_exit_and_target_start():
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    ens = synthesize_one(phi, 0.3)
    assert ens.exit_nodes[0] == dom.node_at(0.0)
    assert realized(ens, cost) == pytest.approx(0.3, abs=2 * dom.dx)
    at_target = synthesize_one(phi, 1.0)
    assert at_target.exit_indices[0] == 0
    assert realized(at_target, cost) == 0.0
    assert np.all(at_target.samples == 1.0)


def test_synthesize_tie_break_is_deterministic():
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    runs = [synthesize_one(phi, 0.5) for _ in range(3)]
    sides = {int(ens.exit_nodes[0]) for ens in runs}
    assert len(sides) == 1
    assert realized(runs[0], cost) == pytest.approx(0.5, abs=2 * dom.dx)


def test_horizon_bound_examples():
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    assert horizon_bound(cost, (1.0, 1.0), 0.5) == pytest.approx(0.5)
    assert horizon_bound(cost, (1.0, 1.0), 0.0) == pytest.approx(0.0)
    far = IntervalDomain(0.0, 2.0, 0.01, targets=[1.0], origin=0.0)
    cost_far = ExitCost(far, {far.node_at(1.0): 0.2})
    assert horizon_bound(cost_far, (0.5, 1.0), 2.0) == pytest.approx(0.2 + 2.0 + 4.0)


def test_trajectory_bound_examples():
    dom = IntervalDomain(0.0, 1.0, 0.005, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    assert trajectory_bound(cost, (1.0, 1.0), 0.5) == pytest.approx(1.0)  # T(R) = 0.5
    assert trajectory_bound(cost, (1.0, 2.0), 0.0) == 0.0
    far = IntervalDomain(0.0, 2.0, 0.01, targets=[1.0], origin=0.0)
    cost_far = ExitCost(far, {far.node_at(1.0): 0.2})
    assert trajectory_bound(cost_far, (0.5, 2.0), 2.0) == pytest.approx(14.4)  # T(R) = 6.2


def test_check_dpp_on_optimal_and_adversarial_paths():
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    tol = default_dpp_tol(dom, field.dt)
    res = dpp_residuals(phi, synthesize_one(phi, 0.3))
    assert res["max_equality_residual"] <= tol
    assert res["max_inequality_violation"] <= 1e-9

    n = field.n_steps
    res = dpp_residuals(phi, path(dom, field.dt, np.full(n + 1, 0.5)))
    assert res["max_inequality_violation"] <= 1e-9

    # moving against the descent doubles the cost rate: the residual grows as
    # 2h until the value midpoint (h = 0.2), then stays at 0.4 up to the exit
    wrong = np.minimum(0.3 + np.arange(n + 1) * field.dt, 1.0)
    exit_idx = int(np.searchsorted(wrong, 1.0 - 1e-12))
    res = dpp_residuals(phi, path(dom, field.dt, wrong, exit_index=exit_idx))
    assert res["max_equality_residual"] == pytest.approx(2 * 0.2, abs=tol)


def test_value_regularity():
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    quotient_min, spatial = value_regularity(phi)
    assert abs(quotient_min) <= 1e-9  # autonomous: time-independent
    assert spatial <= 1.0 + 1e-6


def random_smooth_field(dom, rng, k_lo, k_hi, dt, horizon):
    n_steps = int(np.ceil(horizon / dt))
    t = np.arange(n_steps + 1)[:, None] * dt
    x = dom.coords[None, :]
    a, b, c, d, f1, f2 = rng.uniform(-1, 1, 6)
    raw = a * np.sin(2 * np.pi * (f1 * x + b)) + c * np.sin(2 * np.pi * (0.5 * f2 * t + d))
    vals = k_lo + (k_hi - k_lo) / (1.0 + np.exp(-2 * raw))
    return SpeedField(dom, dt, vals, (k_lo, k_hi))


@pytest.mark.parametrize("seed", range(10))
def test_speed_monotonicity_of_value(seed):
    """Raising the speed field pointwise never raises the value (1d exact)."""
    rng = np.random.default_rng(seed)
    dom = IntervalDomain(0.0, 1.0, 0.02, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    k_lo, k_hi = 0.4, 1.0
    dt = dom.dx / k_hi
    horizon = horizon_bound(cost, (k_lo, k_hi), 1.0) + 3 * dt
    slow = random_smooth_field(dom, rng, k_lo, 0.8, dt, horizon)
    bump = rng.uniform(0.0, k_hi - 0.8, slow.values.shape)
    fast = SpeedField(dom, dt, np.minimum(slow.values + bump, k_hi), (k_lo, k_hi))
    phi_slow = solve_value(dom, cost, slow)
    phi_fast = solve_value(dom, cost, fast)
    assert np.all(phi_slow.values >= phi_fast.values - 1e-9)


def test_restriction_optimality():
    """Time consistency: the problem restarted at t1 is the tail of the original.

    The field shifted by t1 slices, solved and synthesized from t = 0 at the
    path's slice-t1 state, gives the original value rows from t1 on and the
    original path's tail, bit for bit.
    """
    dom = IntervalDomain(0.0, 1.0, 0.02, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    k_lo, k_hi = 0.4, 1.0
    dt = dom.dx / k_hi
    horizon = horizon_bound(cost, (k_lo, k_hi), 1.0) + 3 * dt
    for seed in range(6):
        field = random_smooth_field(dom, np.random.default_rng(seed), k_lo, k_hi, dt, horizon)
        phi = solve_value(dom, cost, field)
        ens = synthesize_one(phi, 0.52)
        t1 = max(int(ens.exit_indices[0]) // 2, 1)
        shifted = SpeedField(dom, dt, field.values[t1:], (k_lo, k_hi))
        phi_tail = solve_value(dom, cost, shifted)
        assert np.array_equal(phi_tail.values.view(np.int64), phi.values[t1:].view(np.int64))
        tail = synthesize_one(phi_tail, ens.samples[0, t1])
        assert np.array_equal(tail.samples[0].view(np.int64), ens.samples[0, t1:].view(np.int64))
        assert tail.exit_indices[0] == ens.exit_indices[0] - t1


@pytest.mark.parametrize("seed", range(8))
def test_exit_cost_monotonicity_along_lipschitz_paths(seed):
    """t1 + g(gamma(t1)) < t2 + g(gamma(t2)) whenever L_g * speed < 1."""
    rng = np.random.default_rng(seed)
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 0.5, 1.0])
    l_g = 0.5
    k_max = 1.0
    values = {t: float(rng.uniform(0, 0.2)) for t in dom.targets}
    # clamp the table to the declared Lipschitz constant
    tc = dom.coords[dom.targets]
    for a in range(len(tc)):
        for b in range(len(tc)):
            gap = l_g * abs(tc[a] - tc[b])
            values[dom.targets[b]] = min(values[dom.targets[b]],
                                         values[dom.targets[a]] + gap)
    cost = ExitCost(dom, values)
    assert cost.lipschitz_constant <= l_g
    # a path through two target nodes at speed <= k_max
    dt = 0.01
    a_node, b_node = rng.choice(dom.targets, 2, replace=False)
    xa, xb = dom.coords[a_node], dom.coords[b_node]
    n = int(np.ceil(abs(xb - xa) / (k_max * dt))) + rng.integers(0, 20)
    t1 = rng.integers(0, 10) * dt
    t2 = t1 + n * dt
    assert t1 + cost.at_node(a_node) < t2 + cost.at_node(b_node) + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_value_regularity_on_nonautonomous_fields(seed):
    """Finite spatial ratio and time quotient above the -1 floor."""
    rng = np.random.default_rng(seed)
    dom = IntervalDomain(0.0, 1.0, 0.02, targets=[0.0, 1.0], origin=0.0)
    cost = ExitCost.zero(dom)
    k_lo, k_hi = 0.4, 1.0
    dt = dom.dx / k_hi
    horizon = horizon_bound(cost, (k_lo, k_hi), 1.0) + 3 * dt
    field = random_smooth_field(dom, rng, k_lo, k_hi, dt, horizon)
    phi = solve_value(dom, cost, field)
    quotient_min, spatial = value_regularity(phi)
    assert quotient_min > -1.0
    assert np.isfinite(spatial)


def test_smallness_refusal():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0])
    # costs 0 and 1.2 at targets a unit apart: the tightest L_g is 1.2
    bad_cost = ExitCost(dom, {dom.node_at(0.0): 0.0, dom.node_at(1.0): 1.2})
    assert bad_cost.lipschitz_constant == 1.2
    field = constant_speed(dom, 1.0, 0.01, 1.5)
    with pytest.raises(OcpError, match="smallness"):
        solve_value(dom, bad_cost, field)


def test_synthesis_needs_the_speed_field_phi_was_solved_on():
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    with pytest.raises(OcpError, match="phi.speed is None"):
        synthesize_batch(ValueField(dom, phi.dt, phi.values), [0.5])


def test_synthesis_stall_reports_position():
    dom = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0])
    cost = ExitCost.zero(dom)
    field = constant_speed(dom, 1.0, 0.01, 0.1)  # horizon far too short
    phi = solve_value(dom, cost, field)
    with pytest.raises(SynthesisStall, match="stall position"):
        synthesize_one(phi, 0.9)
    ens = synthesize_one(phi, 0.9, raise_on_stall=False)
    assert ens.exit_indices[0] == -1 and realized(ens, cost) == np.inf


def test_synthesized_batch_matches_single():
    """A batch of 4 equals 4 batches of 1, bit for bit."""
    dom, cost, field = remark_setup()
    phi = solve_value(dom, cost, field)
    starts = np.array([0.1, 0.33, 0.5, 0.77])
    samples, exit_idx, exit_node = synthesize_batch(phi, starts)
    for k, x0 in enumerate(starts):
        one, exit_one, node_one = synthesize_batch(phi, starts[k:k + 1])
        assert np.array_equal(samples[k].view(np.int64), one[0].view(np.int64))
        assert exit_idx[k] == exit_one[0] and exit_node[k] == node_one[0]


def sequential_select(vals, disp):
    """The slot-by-slot selection loop _select_candidates replaced, kept as its reference."""
    m, s_count = vals.shape
    best_val = vals[:, 0].copy()
    best_disp = disp[:, 0].copy()
    best_slot = np.zeros(m, dtype=int)
    for s in range(1, s_count):
        better = (vals[:, s] < best_val) | ((vals[:, s] == best_val) & (disp[:, s] < best_disp))
        best_val = np.where(better, vals[:, s], best_val)
        best_disp = np.where(better, disp[:, s], best_disp)
        best_slot = np.where(better, s, best_slot)
    return best_slot, best_val


@pytest.mark.parametrize("seed", range(4))
def test_select_candidates_matches_sequential_loop(seed):
    rng = np.random.default_rng(seed)
    m, s_count = 400, 11
    # few distinct values and displacements force ties in both keys; invalid
    # slots carry BIG and an infinite displacement, as reach_candidates marks them
    vals = rng.choice([0.0, -0.0, 0.25, 0.5], size=(m, s_count))
    free = rng.random((m, s_count)) < 0.2
    vals[free] = rng.uniform(0.0, 1.0, int(free.sum()))
    disp = rng.choice([0.0, -0.0, 0.01, 0.02], size=(m, s_count))
    invalid = rng.random((m, s_count)) < 0.3
    invalid[:8] = True  # rows with no valid slot at all
    vals[invalid] = BIG
    disp[invalid] = np.inf
    # slot-major, as plans return them; _select_candidates overwrites disp
    slot, best = _select_candidates(vals.T, disp.T.copy())
    ref_slot, ref_best = sequential_select(vals, disp)
    assert np.array_equal(slot, ref_slot)
    # the chosen slot's own value, -0.0 bits included; best is the slot minimum
    assert np.array_equal(vals[np.arange(m), slot].view(np.int64), ref_best.view(np.int64))
    assert np.array_equal(best, ref_best)


def synthesize_sequential(phi, speed, start_points):
    """Interval greedy descent by its definition: reach_candidates, sequential_select
    and the nearest-target snap, one step of every active path at a time.

    Also counts the moves onto lo or hi taken where that side's sphere
    endpoint lies past it (by more than 1e-12), which reach_candidates
    marks invalid.
    """
    dom, dt = phi.domain, phi.dt
    tc = dom.coords[dom.targets]

    def snap(x):
        d = np.abs(x[:, None] - tc[None, :])
        j = d.argmin(axis=1)
        hit = d[np.arange(len(x)), j] <= dom.dx / 2 + 1e-12
        return np.where(hit, tc[j], x), np.where(hit, dom.targets[j], -1)

    pos, exit_node = snap(np.asarray(start_points, dtype=float))
    exit_idx = np.where(exit_node >= 0, 0, -1)
    samples = np.empty((len(pos), phi.n_steps + 1))
    samples[:, 0] = pos
    clipped = 0
    for j in range(phi.n_steps):
        act = np.flatnonzero(exit_idx < 0)
        cur = pos[act]
        r = speed.at_points(j, cur) * dt
        cand, disp, valid = dom.reach_candidates(cur, r)
        slot, _ = sequential_select(np.where(valid, dom.interp(phi.values[j + 1], cand), BIG),
                                    disp)
        new = cand[np.arange(len(act)), slot]
        clipped += np.sum((slot > 0) & (((cur - r < dom.lo - 1e-12) & (new == dom.lo))
                                        | ((cur + r > dom.hi + 1e-12) & (new == dom.hi))))
        pos[act], tgt = snap(new)
        exit_idx[act[tgt >= 0]] = j + 1
        exit_node[act] = tgt
        samples[:, j + 1] = pos
    return samples, exit_idx, exit_node, clipped


@pytest.mark.parametrize("target", [0.0, 0.5, 1.0])
def test_interval_endpoints_past_the_bounds_match_the_sequential_loop(target):
    """Sphere endpoints past lo - 1e-12 and hi + 1e-12 give the definition's points and minima.

    The plan does not mask such an endpoint: it clips to lo or hi, where a
    node slot holds the same coordinate, value and displacement.
    """
    dom = IntervalDomain(0.0, 1.0, 0.05, targets=[target])
    rng = np.random.default_rng(3)
    dt = 2.5 * dom.dx  # budgets up to 2.5 cells at speed 1
    values = rng.uniform(0.2, 1.0, (60, dom.n_nodes))
    speed = SpeedField(dom, dt, values, (0.2, 1.0))
    phi = solve_value(dom, ExitCost.zero(dom), speed)
    rows = values[:4] * dt
    rows[:, [0, 1, -2, -1]] = np.max(values) * dt
    for row, ball_min in zip(rows, dom.reach_stencil(np.max(values) * dt)(rows)):
        cand, disp, valid = dom.reach_candidates(dom.node_points(), row)
        assert not valid[0, 1] and not valid[-1, 2]  # past lo - 1e-12 and hi + 1e-12
        for node_values in (phi.values[1], phi.values[30], rng.choice([0.0, 0.5, 1.0], dom.n_nodes)):
            _, best = sequential_select(np.where(valid, dom.interp(node_values, cand), BIG), disp)
            assert np.array_equal(ball_min(node_values).view(np.int64), best.view(np.int64))
    # starts at both ends, within 1e-13 of them, a cell's fifth inside and across the interval
    starts = np.concatenate([[0.0, 1.0, 1e-13, 1 - 1e-13, 0.01, 0.99], rng.uniform(0.0, 1.0, 20)])
    got = synthesize_batch(phi, starts)
    *want, clipped = synthesize_sequential(phi, speed, starts)
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    assert np.all(got[1] >= 0)
    # some moves onto lo or hi are taken where that endpoint lies past it
    assert clipped > 0


def sequential_case(case):
    """(phi, speed, starts) of one synthesize_sequential comparison case."""
    rng = np.random.default_rng(11)
    if case == "flat_signed_zeros":
        # value rows of 0.0 and -0.0 around the target: every move in that band
        # ties on value, and the displacement and then the slot order decide
        dom = IntervalDomain(0.0, 1.0, 0.05, targets=[1.0])
        dt = dom.dx
        values = np.tile(1.0 - dom.coords, (40, 1))
        band = dom.coords >= 0.6
        values[:, band] = np.where(rng.random((40, int(band.sum()))) < 0.5, -0.0, 0.0)
        speed = SpeedField(dom, dt, rng.uniform(0.5, 1.0, values.shape), (0.5, 1.0))
        phi = ValueField(dom, dt, values, speed=speed)
        starts = np.concatenate([dom.coords[::3], rng.uniform(0.0, 1.0, 12)])
        return phi, speed, starts
    if case == "budget_of_dx":
        # speed 1 at dt = dx: every budget is dx exactly, so sphere endpoints
        # from a node land on the neighbouring nodes
        dom = IntervalDomain(0.0, 1.0, 0.04, targets=[0.0, 1.0])
        speed = constant_speed(dom, 1.0, dom.dx, 2.0)
        assert np.all(speed.values * speed.dt == dom.dx)
        starts = np.concatenate([dom.coords[1:-1:2], rng.uniform(0.0, 1.0, 12)])
        return solve_value(dom, ExitCost.zero(dom), speed), speed, starts
    # targets at both ends and an interior target interval, exit costs from a table
    # (dx = 1/16 keeps the coordinates and their differences exact)
    dom = IntervalDomain(0.0, 1.0, 0.0625, targets=[0.0, 0.375, 0.4375, 0.5, 1.0])
    cost = ExitCost(dom, dict(zip(dom.targets.tolist(), [0.3, 0.03, 0.0, 0.04, 0.2])))
    dt = 1.5 * dom.dx
    speed = SpeedField(dom, dt, rng.uniform(0.4, 1.0, (50, dom.n_nodes)), (0.4, 1.0))
    # midway between two interior targets both are exactly dx/2 away: the first is hit
    starts = np.concatenate([[0.40625, 0.46875, 0.2, 0.8], rng.uniform(0.0, 1.0, 20)])
    return solve_value(dom, cost, speed), speed, starts


@pytest.mark.parametrize("case", ["target_interval_table_cost", "flat_signed_zeros",
                                  "budget_of_dx"])
def test_synthesis_matches_the_sequential_loop(case):
    phi, speed, starts = sequential_case(case)
    samples, exit_idx, exit_node = synthesize_batch(phi, starts, raise_on_stall=False)
    want, want_idx, want_node, _ = synthesize_sequential(phi, speed, starts)
    assert samples.flags.c_contiguous
    assert np.array_equal(samples.view(np.int64), want.view(np.int64))
    assert np.array_equal(exit_idx, want_idx) and np.array_equal(exit_node, want_node)
    if case == "target_interval_table_cost":
        assert exit_node[0] == phi.domain.node_at(0.375) and exit_idx[0] == 0
        assert exit_node[1] == phi.domain.node_at(0.4375)
        assert len(set(exit_node[exit_idx > 0].tolist())) >= 3
    if case == "flat_signed_zeros":
        # paths descend into the band and stay there, short of the target
        assert np.any(samples[:, -1] != samples[:, 0]) and np.any(exit_idx < 0)
    else:
        assert np.all(exit_idx >= 0) and np.any(exit_idx > 0)
