"""Value-solve reuse and the settled tail against the code they replaced.

solve_value(..., reuse=phi) copies the value rows over the trailing run of
speed rows that are bit-equal to phi's, and within a solve a row is a copy
of the row above once its frozen run has reached the float fixed point;
TrajectoryEnsemble.settled_slice is the last slice at which any sample
changes bits, and admissibility_excess and the field induction stop there. Each reference below is a kept copy of
the code before these changes (or a brute-force scan), and every comparison
is bit for bit.
"""
import numpy as np
import pytest

from exitlab import equilibrium as eq
from exitlab.congestion import CongestionKernel, Chi, Eta, Kappa
from exitlab.domain import STENCIL_ROWS, ExitCost, GraphDomain, Grid2dDomain, IntervalDomain
from exitlab.measures import ParticleMeasure, TrajectoryEnsemble
from exitlab.ocp import SpeedField, ValueField, solve_value, synthesize_batch

K_MIN, K_MAX = 0.2, 1.0


def interval():
    return IntervalDomain(0.0, 1.0, 0.05, targets=[1.0], origin=0.0)


def grid4():
    return Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1, targets=[[0.5, 0.2]],
                        origin=[0.0, 0.2], connectivity=4)


def grid8():
    return Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1, targets=[[0.5, 0.2]],
                        origin=[0.0, 0.2], connectivity=8)


def graph():
    return GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                       targets=[2, 4], origin=0)


BACKENDS = [interval, grid4, grid8, graph]


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


# ---- references: the code before reuse and the settled tail ---------------

def solve_value_reference(domain, cost, speed):
    """solve_value before reuse: stationary terminal slice, then every slice."""
    dt = speed.dt
    n_steps = speed.n_steps
    targets = domain.targets
    g_t = cost.node_table()[targets]
    stencil = domain.reach_stencil(float(np.max(speed.values)) * dt)
    k_bound = speed.at_nodes(n_steps)
    (ball_min,) = stencil((k_bound * dt)[None])
    tdist = domain.target_node_distances()
    phi = tdist / speed.k_min + cost.max_cost  # the geodesic constant D is 1
    phi[targets] = g_t
    max_sweeps = int(3 * np.max(tdist) / (speed.k_min * dt)) + 200
    for _ in range(max_sweeps):
        new = dt + ball_min(phi)
        new[targets] = g_t
        new = np.minimum(new, phi)
        delta = np.max(phi - new)
        phi = new
        if delta <= 1e-10:
            break
    values = np.empty((n_steps + 1, domain.n_nodes))
    values[n_steps] = phi
    for j in range(n_steps - 1, -1, -1):
        if not np.array_equal(speed.at_nodes(j), k_bound):
            k_bound = speed.at_nodes(j)
            (ball_min,) = stencil((k_bound * dt)[None])
        values[j] = dt + ball_min(values[j + 1])
        values[j][targets] = g_t
    return values


def settled_reference(samples):
    """Brute force: the last slice whose samples differ in bits from the slice before."""
    bits = samples.reshape(samples.shape[0], samples.shape[1], -1).view(np.int64)
    last = 0
    for j in range(1, samples.shape[1]):
        if not np.array_equal(bits[:, j], bits[:, j - 1]):
            last = j
    return last


def admissibility_reference(ensemble, speed, slack):
    """admissibility_excess before the settled tail: every step."""
    worst = -np.inf
    for j in range(ensemble.n_steps):
        cur = ensemble.samples[:, j]
        step = ensemble.domain.point_distance(cur, ensemble.samples[:, j + 1])
        moving = step > 0
        budget = speed.at_points(j, cur[moving]) * ensemble.dt + slack
        worst = max(worst, float(np.max(step[moving] - budget, initial=-np.inf)))
    return worst


def histogram_reference(nodes, weights, n_nodes):
    """_slice_histograms before the settled tail: one np.bincount over every slice."""
    n_slices = nodes.shape[1]
    bins = (nodes + np.arange(n_slices) * n_nodes).ravel()
    hist = np.bincount(bins, weights=np.repeat(weights, n_slices), minlength=n_slices * n_nodes)
    return hist.reshape(n_slices, n_nodes)


# ---- value-solve reuse ----------------------------------------------------

def speed_values(domain, rng, n_slices=30, tail=8):
    """Random speeds whose last `tail` rows repeat, as a settled field's do."""
    values = rng.uniform(K_MIN, K_MAX, (n_slices, domain.n_nodes))
    values[-tail:] = values[-tail]
    return values


def field(domain, values, dt=None, k_min=K_MIN):
    dt = domain.dx / K_MAX if dt is None else dt
    return SpeedField(domain, dt, values, (k_min, K_MAX))


def count_ball_mins(domain, monkeypatch, binds=None):
    """Count the reach-ball minima domain's stencils evaluate from now on.

    binds, when given, receives the number of rows of every bind.
    """
    calls = []
    make = domain.reach_stencil

    def reach_stencil(r_max):
        bind = make(r_max)

        def counted_bind(rows):
            if binds is not None:
                binds.append(len(rows))
            for ball_min in bind(rows):
                def counted(node_values, ball_min=ball_min):
                    calls.append(1)
                    return ball_min(node_values)
                yield counted
        return counted_bind

    monkeypatch.setattr(domain, "reach_stencil", reach_stencil)
    return calls


def changed_speeds(domain, rng, values, rows):
    out = values.copy()
    out[rows] = rng.uniform(K_MIN, K_MAX, (len(out[rows]), domain.n_nodes))
    return out


@pytest.mark.parametrize("make", BACKENDS)
def test_fresh_solve_equals_the_reference(make):
    dom = make()
    cost = ExitCost.zero(dom)
    values = speed_values(dom, np.random.default_rng(1))
    values[5:9] = values[4]  # frozen rows mid-field: the rebind is skipped there
    speed = field(dom, values)
    phi = solve_value(dom, cost, speed)
    assert_bits_equal(phi.values, solve_value_reference(dom, cost, speed))
    assert phi.speed is speed and phi.cost is cost


@pytest.mark.parametrize("make", BACKENDS)
def test_reused_solve_equals_a_fresh_solve(make, monkeypatch):
    dom = make()
    cost = ExitCost.zero(dom)
    rng = np.random.default_rng(2)
    old_values = speed_values(dom, rng)
    old = solve_value(dom, cost, field(dom, old_values))
    calls = count_ball_mins(dom, monkeypatch)
    cases = {
        "full suffix": (old_values.copy(), 0),
        "partial": (changed_speeds(dom, rng, old_values, slice(0, 12)), 12),
        # the longest trailing run stops at the last differing row
        "gap in the run": (changed_speeds(dom, rng, old_values, [0, 1, 20]), 21),
    }
    for name, (values, first_reused) in cases.items():
        speed = field(dom, values)
        fresh = solve_value_reference(dom, cost, speed)
        if first_reused > 0:
            # the row just below the run differs: a suffix one row too long is seen
            assert not np.array_equal(fresh[first_reused - 1], old.values[first_reused - 1])
        del calls[:]
        phi = solve_value(dom, cost, speed, reuse=old)
        assert_bits_equal(phi.values, fresh)
        # the stationary terminal solve is skipped and the run is not recomputed
        assert len(calls) == first_reused, name
        assert phi.speed is speed


@pytest.mark.parametrize("make", BACKENDS)
def test_terminal_mismatch_solves_everything(make, monkeypatch):
    dom = make()
    cost = ExitCost.zero(dom)
    rng = np.random.default_rng(3)
    old_values = speed_values(dom, rng)
    old = solve_value(dom, cost, field(dom, old_values))
    values = changed_speeds(dom, rng, old_values, [-1])  # every other row matches
    speed = field(dom, values)
    calls = count_ball_mins(dom, monkeypatch)
    solve_value(dom, cost, speed)
    fresh_calls = len(calls)
    del calls[:]
    phi = solve_value(dom, cost, speed, reuse=old)
    assert len(calls) == fresh_calls > speed.n_steps
    assert_bits_equal(phi.values, solve_value_reference(dom, cost, speed))


@pytest.mark.parametrize("make", BACKENDS)
def test_no_reuse_across_dt_k_min_cost_or_shape(make, monkeypatch):
    dom = make()
    cost = ExitCost.zero(dom)
    values = speed_values(dom, np.random.default_rng(4))
    base = field(dom, values)
    old = solve_value(dom, cost, base)
    other_cost = ExitCost.constant(dom, 0.1)
    longer = np.concatenate([values[:3], values])  # same tail, shifted rows
    cases = [
        (field(dom, values, dt=base.dt * 0.75), cost),
        (field(dom, values, k_min=K_MIN / 2), cost),
        (base, other_cost),
        (field(dom, longer), cost),
    ]
    calls = count_ball_mins(dom, monkeypatch)
    for speed, c in cases:
        fresh = solve_value_reference(dom, c, speed)
        # each case moves bits somewhere, so a wrongly reused row is seen
        assert fresh.shape != old.values.shape or not np.array_equal(fresh, old.values)
        del calls[:]
        phi = solve_value(dom, c, speed, reuse=old)
        assert_bits_equal(phi.values, fresh)
        assert len(calls) > speed.n_steps  # the stationary solve ran
    # nor from a field that does not record its speeds, or from another domain
    twin = make()
    for reuse in (ValueField(dom, base.dt, old.values), solve_value(twin, cost, field(twin, values))):
        del calls[:]
        assert_bits_equal(solve_value(dom, cost, base, reuse=reuse).values, old.values)
        assert len(calls) > base.n_steps


@pytest.mark.parametrize("make", BACKENDS)
def test_changed_rows_are_placed_a_block_at_a_time(make, monkeypatch):
    dom = make()
    cost = ExitCost.zero(dom)
    speed = field(dom, speed_values(dom, np.random.default_rng(15), n_slices=150))
    fresh = solve_value_reference(dom, cost, speed)
    binds = []
    count_ball_mins(dom, monkeypatch, binds)
    assert_bits_equal(solve_value(dom, cost, speed).values, fresh)
    # the stationary row alone, then the first recursion row and every row
    # whose speed differs from the row above, STENCIL_ROWS at a time
    bits = speed.values.view(np.int64)
    rows = 1 + int(np.count_nonzero(np.any(bits[:-2] != bits[1:-1], axis=1)))
    assert rows == 143
    full, rest = divmod(rows, STENCIL_ROWS)
    assert binds == [1] + [STENCIL_ROWS] * full + [rest] * (rest > 0)


# ---- fixed-point rows -----------------------------------------------------

def computed_rows(speed, values, start):
    """Rows below `start` that are not copies under the fixed-point rule.

    Row j is a copy when speed rows j and j + 1 and value rows j + 1 and
    j + 2 are bit-equal, with row j + 1 a recursion row (j + 2 <= n_steps).
    """
    bits = speed.values.view(np.int64)
    words = values.view(np.int64)
    return [j for j in range(start)
            if not (j + 2 <= speed.n_steps and np.array_equal(bits[j], bits[j + 1])
                    and np.array_equal(words[j + 1], words[j + 2]))]


def sweeps_and_reference(dom, cost, speed, calls):
    """The reference values and the ball minima of its stationary solve."""
    del calls[:]
    fresh = solve_value_reference(dom, cost, speed)
    return fresh, len(calls) - speed.n_steps


@pytest.mark.parametrize("make", BACKENDS)
def test_fixed_point_rows_are_copied_bit_for_bit(make, monkeypatch):
    dom = make()
    cost = ExitCost.zero(dom)
    values = np.random.default_rng(11).uniform(K_MIN, K_MAX, (120, dom.n_nodes))
    values[20:] = values[20]  # a long settled tail: its rows reach the float fixed point
    speed = field(dom, values)
    calls = count_ball_mins(dom, monkeypatch)
    fresh, sweeps = sweeps_and_reference(dom, cost, speed, calls)
    # the stationary row is no fixed point of the recursion: it is never copied
    assert not np.array_equal(fresh[-2], fresh[-1])
    del calls[:]
    phi = solve_value(dom, cost, speed)
    assert_bits_equal(phi.values, fresh)
    rows = computed_rows(speed, fresh, speed.n_steps)
    assert len(calls) == sweeps + len(rows)
    assert len(rows) < speed.n_steps - 5  # the tail did reach the fixed point
    assert 19 in rows  # and below the tail every row is solved again


@pytest.mark.parametrize("make", BACKENDS)
def test_speed_change_below_a_fixed_point_run(make, monkeypatch):
    """Two settled runs, each reaching its fixed point: no row is copied across the change."""
    dom = make()
    cost = ExitCost.zero(dom)
    values = np.random.default_rng(12).uniform(K_MIN, K_MAX, (250, dom.n_nodes))
    values[10:120] = K_MAX
    values[120:] = values[120]
    speed = field(dom, values)
    calls = count_ball_mins(dom, monkeypatch)
    fresh, sweeps = sweeps_and_reference(dom, cost, speed, calls)
    assert np.array_equal(fresh[120], fresh[121])  # the upper run is at its fixed point
    assert not np.array_equal(fresh[119], fresh[120])
    del calls[:]
    assert_bits_equal(solve_value(dom, cost, speed).values, fresh)
    rows = computed_rows(speed, fresh, speed.n_steps)
    assert len(calls) == sweeps + len(rows)
    # the lower run is solved from its change down to its own fixed point
    assert 119 in rows and any(j not in rows for j in range(10, 119))


@pytest.mark.parametrize("make", BACKENDS)
def test_reused_solve_copies_below_its_fixed_point_run(make, monkeypatch):
    """The rule holds across the reuse boundary: reused rows are recursion rows."""
    dom = make()
    cost = ExitCost.zero(dom)
    rng = np.random.default_rng(14)
    old_values = rng.uniform(K_MIN, K_MAX, (200, dom.n_nodes))
    old_values[20:] = old_values[20]
    old = solve_value(dom, cost, field(dom, old_values))
    assert np.array_equal(old.values[20], old.values[21])
    values = old_values.copy()
    values[10:20] = values[20]  # rows 10-19 join the tail; reuse starts at row 20
    values[:10] = rng.uniform(K_MIN, K_MAX, (10, dom.n_nodes))
    speed = field(dom, values)
    calls = count_ball_mins(dom, monkeypatch)
    fresh, _ = sweeps_and_reference(dom, cost, speed, calls)
    del calls[:]
    phi = solve_value(dom, cost, speed, reuse=old)
    assert_bits_equal(phi.values, fresh)
    assert len(calls) == 10  # rows 19 down to 10 are copies, rows 9 to 0 are solved


def congested_kernel(domain):
    return CongestionKernel(domain, Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                            Chi("gaussian", width=0.3, amplitude=0.6),
                            Eta("taper", distance=0.2))


def test_equilibrium_loop_reuses_the_previous_solve(monkeypatch):
    dom = IntervalDomain(0.0, 1.0, 0.02, targets=[0.0], origin=0.0)
    cost = ExitCost.zero(dom)
    kernel = congested_kernel(dom)
    m0 = ParticleMeasure(dom, np.linspace(0.3, 0.6, 16), np.full(16, 1 / 16))
    config = eq.EquilibriumConfig(max_iterations=6, damping="constant", damping_value=0.4,
                                  exploitability_tol=1e-6)
    calls = count_ball_mins(dom, monkeypatch)
    solves = []
    plain = eq.solve_value

    def spy(domain, cost, speed, **kwargs):
        before = len(calls)
        phi = plain(domain, cost, speed, **kwargs)
        solves.append((kwargs.get("reuse"), phi, len(calls) - before))
        return phi

    monkeypatch.setattr(eq, "solve_value", spy)
    report = eq.solve_equilibrium(m0, kernel, cost, config)
    assert report.iterations == 6 and len(solves) == 7
    for (reuse, _, _), (_, previous, _) in zip(solves[1:], solves):
        assert reuse is previous
    # from the second induced field on, the settled tail's rows are copied
    # and the stationary terminal solve is skipped
    final_field = report.final_phi.speed
    n_steps = final_field.n_steps
    assert all(0 < count < n_steps for _, _, count in solves[2:])
    phi = report.final_phi
    assert phi is solves[-1][1]
    assert_bits_equal(phi.values, solve_value_reference(dom, cost, final_field))


# ---- the settled tail -----------------------------------------------------

def synthesized_ensemble(domain, rng, n_slices=80):
    """Best responses under a random field: constant after exit, as in the loop."""
    dt = domain.dx / K_MAX
    speed = field(domain, speed_values(domain, rng, n_slices))
    phi = solve_value(domain, ExitCost.zero(domain), speed)
    if domain.kind == "interval":
        pts = rng.uniform(domain.lo, domain.hi, 12)
    elif domain.kind == "grid2d":
        pts = domain.coords[rng.integers(0, domain.n_nodes, 12)]
    else:
        pts = domain.node_points()[[0, 1, 3, 0, 1]]
    samples, exits, nodes = synthesize_batch(phi, pts)
    w = rng.uniform(0.1, 1.0, len(exits))
    return TrajectoryEnsemble(domain, dt, samples, w / w.sum(), exit_indices=exits,
                              exit_nodes=nodes), speed


def ensembles(domain, rng):
    """A synthesized ensemble and variants the exit-index hint does not cover."""
    ens, speed = synthesized_ensemble(domain, rng)
    n = ens.n_traj
    late = ens.samples.copy()  # row 0 jumps to node 0 after every recorded exit
    late[0, np.max(ens.exit_indices) + 3:] = domain.node_points()[0]
    # every row stays at node 0, whose last coordinate is 0.0; row 0 turns
    # it into -0.0 two slices before the end: a change of bits, not a move
    zero = np.repeat(domain.node_points()[:1], n, axis=0)[:, None].repeat(ens.n_steps + 1, axis=1)
    zero.reshape(n, ens.n_steps + 1, -1)[0, -2:, -1] = -0.0
    out = {
        "synthesized": ens,
        "moves after exit": TrajectoryEnsemble(domain, ens.dt, late, ens.weights,
                                               exit_indices=ens.exit_indices),
        "not exiting": TrajectoryEnsemble(domain, ens.dt, ens.samples, ens.weights,
                                          exit_indices=np.full(n, -1)),
        "sign of zero": TrajectoryEnsemble(domain, ens.dt, zero, ens.weights,
                                           exit_indices=ens.exit_indices),
        "constant": TrajectoryEnsemble(domain, ens.dt,
                                       ens.samples[:, :1].repeat(ens.n_steps + 1, axis=1),
                                       ens.weights, exit_indices=np.zeros(n, dtype=int)),
        # the row with the latest exit index stopped moving earlier
        "late exit record": TrajectoryEnsemble(domain, ens.dt, ens.samples, ens.weights,
                                               exit_indices=np.where(np.arange(n) == 0,
                                                                     ens.n_steps,
                                                                     ens.exit_indices)),
    }
    return out, speed


@pytest.mark.parametrize("make", BACKENDS)
def test_settled_slice_equals_a_per_slice_scan(make):
    dom = make()
    found, _ = ensembles(dom, np.random.default_rng(5))
    for name, ens in found.items():
        assert ens.settled_slice == settled_reference(ens.samples), name
    syn = found["synthesized"]
    assert 0 < syn.settled_slice < syn.n_steps
    assert syn.settled_slice == np.max(syn.exit_indices)
    assert found["moves after exit"].settled_slice > syn.settled_slice
    assert found["sign of zero"].settled_slice == syn.n_steps - 1
    assert found["constant"].settled_slice == 0


@pytest.mark.parametrize("make", BACKENDS)
def test_admissibility_stops_at_the_settled_slice(make):
    dom = make()
    rng = np.random.default_rng(6)
    found, speed = ensembles(dom, rng)
    slow = field(dom, np.full_like(speed.values, K_MIN))
    for name, ens in found.items():
        for sp, slack in ((speed, 1.5 * dom.dx), (slow, 0.0), (slow, -0.02)):
            assert_bits_equal(eq.admissibility_excess(ens, sp, slack),
                              admissibility_reference(ens, sp, slack))
    # the last moving step decides the excess here, so stopping early is seen
    ens = found["moves after exit"]
    early = TrajectoryEnsemble(dom, ens.dt, ens.samples[:, :ens.settled_slice], ens.weights,
                               exit_indices=np.full(ens.n_traj, -1))
    assert admissibility_reference(early, slow, 0.0) < admissibility_reference(ens, slow, 0.0)


@pytest.mark.parametrize("make", BACKENDS)
def test_histograms_and_field_stop_at_the_settled_slice(make):
    dom = make()
    found, _ = ensembles(dom, np.random.default_rng(7))
    kernel = congested_kernel(dom)
    for name, ens in found.items():
        nodes = ens.node_indices
        want = histogram_reference(nodes, ens.weights, dom.n_nodes)
        assert_bits_equal(eq._slice_histograms(nodes, ens.weights, dom.n_nodes,
                                               ens.settled_slice), want)
        # the same rows, with every slice read as if none had settled
        unsettled = TrajectoryEnsemble(dom, ens.dt, ens.samples, ens.weights,
                                       exit_indices=ens.exit_indices, exit_nodes=ens.exit_nodes,
                                       validate=False)
        unsettled.settled_slice = ens.n_steps
        for binned in (True, False):
            got = eq.field_from_marginals(kernel, ens, binned).values
            full = eq.field_from_marginals(kernel, unsettled, binned).values
            assert_bits_equal(got, full)
    # the settled slice's own row differs from the one before it
    ens = found["moves after exit"]
    j = ens.settled_slice
    assert not np.array_equal(ens.node_indices[:, j], ens.node_indices[:, j - 1])


def test_settled_slice_is_computed_once_per_ensemble(monkeypatch):
    ens, _ = synthesized_ensemble(interval(), np.random.default_rng(8))
    first = ens.settled_slice
    monkeypatch.setattr(ens, "samples", ens.samples[:, :1].repeat(ens.n_steps + 1, axis=1))
    assert ens.settled_slice == first
    merged = ens.mix(ens, 0.5, 1e-9)
    assert "settled_slice" in vars(merged)  # mix carries the slice: no scan follows
    assert merged.settled_slice == settled_reference(merged.samples)


def rebuilt(ens):
    """A fresh ensemble of ens's rows, whose settled slice is scanned, not carried."""
    return TrajectoryEnsemble(ens.domain, ens.dt, ens.samples.copy(), ens.weights,
                              exit_indices=ens.exit_indices, exit_nodes=ens.exit_nodes)


def assert_carried(merged):
    assert "settled_slice" in vars(merged)
    assert merged.settled_slice == rebuilt(merged).settled_slice
    assert merged.settled_slice == settled_reference(merged.samples)


@pytest.mark.parametrize("make", BACKENDS)
def test_mix_carries_the_settled_slice(make):
    dom = make()

    def variants():
        return ensembles(dom, np.random.default_rng(9))[0]

    # pruning drops the row that moves after its exit, which set the larger
    # slice: the carried slice walks back past it
    found = variants()
    late, syn = found["moves after exit"], found["synthesized"]
    bound = max(late.settled_slice, syn.settled_slice)
    w = late.weights.copy()
    w[0] = 1e-12
    late.weights = w / w.sum()
    merged = late.mix(syn, 0.5, 1e-9)
    assert merged.settled_slice == syn.settled_slice < bound
    assert_carried(merged)
    # every variant, the hand-built ones whose rows move after their recorded
    # exit or never exit among them, mixed with itself and with the others
    for name in variants():
        found = variants()
        ens = found.pop(name)
        assert_carried(ens.mix(ens, 0.5, 1e-9))
        for other in found.values():
            assert_carried(ens.mix(other, 0.3, 1e-9))
