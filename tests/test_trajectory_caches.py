"""The per-trajectory caches and the synthesis plan against the code they replaced.

TrajectoryEnsemble computes node_indices and row_keys and carries them through mix; the binned
field reads the node indices in one np.bincount per block of slices;
synthesize_batch evaluates candidate moves through the backend's reach_plan,
slot-major, and moves only the paths still active. Each reference below is
a kept copy of the code before these changes, and every comparison is bit
for bit. merged and pruned below define mix: concatenate, then merge, then
prune.
"""
import numpy as np
import pytest

from exitlab import measures
from exitlab.congestion import CongestionKernel, Eta, Kappa, Chi
from exitlab.domain import BIG, GraphDomain, Grid2dDomain, IntervalDomain
from exitlab.equilibrium import _slice_histograms, field_from_marginals
from exitlab.measures import TrajectoryEnsemble
from exitlab.ocp import (SpeedField, SynthesisStall, ValueField, _select_candidates,
                         synthesize_batch)


def interval():
    return IntervalDomain(0.0, 1.0, 0.05, targets=[1.0], origin=0.0)


def grid():
    return Grid2dDomain([0.0, 0.0], [0.5, 0.4], 0.1, targets=[[0.5, 0.2]],
                        origin=[0.0, 0.2], connectivity=8)


def graph():
    return GraphDomain(5, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.7), (3, 4, 0.4)],
                       targets=[2, 4], origin=0)


BACKENDS = [interval, grid, graph]


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.tobytes()


# ---- references: the code before the caches ------------------------------

def first_seen_groups_reference(keys):
    """Void-view grouping of equal rows in first-seen order."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def merged_reference(samples, weights, exits):
    """TrajectoryEnsemble.merged before row keys: (representative rows, weights)."""
    n = len(samples)
    keys = np.column_stack([exits, samples.reshape(n, -1).view(np.int64)])
    idx, label = first_seen_groups_reference(keys)
    return idx, np.bincount(label, weights=weights, minlength=len(idx))


def mix_reference(a, b, lam, prune):
    """concatenate, merged, pruned: (rows of the concatenation, weights)."""
    samples = np.concatenate([a.samples, b.samples])
    weights = np.concatenate([(1 - lam) * a.weights, lam * b.weights])
    exits = np.concatenate([a.exit_indices, b.exit_indices])
    idx, w = merged_reference(samples, weights, exits)
    keep = w >= prune
    w = w[keep]
    return idx[keep], w / w.sum()


def histogram_reference(domain, positions, weights):
    """The binned histogram before the node-index cache: np.add.at per slice."""
    hist = np.zeros((positions.shape[1], domain.n_nodes))
    for j in range(positions.shape[1]):
        np.add.at(hist[j], domain.nearest_nodes(positions[:, j]), weights)
    return hist


def select_rows_reference(vals, disp):
    """_select_candidates before slot-major plans: argmin over (m, S) rows."""
    tie = vals == np.min(vals, axis=1)[:, None]
    tie &= disp == np.min(np.where(tie, disp, np.inf), axis=1)[:, None]
    best_slot = np.argmax(tie, axis=1)
    return best_slot, vals[np.arange(len(vals)), best_slot]


def synthesize_reference(phi, speed, start_points):
    """synthesize_batch before the plan: reach_candidates and a masked interp per step."""
    domain = phi.domain
    dt, n_steps = phi.dt, phi.n_steps
    pts = domain.as_points(start_points)
    m = len(pts)
    samples = np.empty((m, n_steps + 1) + pts.shape[1:])
    exit_idx = np.full(m, -1, dtype=int)
    exit_node = np.full(m, -1, dtype=int)
    pos, tgt = domain.snap_to_target(pts)
    hit = tgt >= 0
    exit_idx[hit] = 0
    exit_node[hit] = tgt[hit]
    samples[:, 0] = pos
    for j in range(n_steps):
        active = np.flatnonzero(exit_idx < 0)
        if len(active) == 0:
            samples[:, j + 1:] = samples[:, j][:, None]
            break
        cur = pos[active]
        r = speed.at_points(j, cur) * dt
        cand, disp, valid = domain.reach_candidates(cur, r)
        vals = np.full(valid.shape, BIG)
        vals[valid] = domain.interp(phi.values[j + 1], cand[valid])
        slot, _ = select_rows_reference(vals, disp)
        new = cand[np.arange(len(active)), slot]
        snapped, tgt = domain.snap_to_target(new)
        pos[active] = snapped
        hit = tgt >= 0
        exit_idx[active[hit]] = j + 1
        exit_node[active[hit]] = tgt[hit]
        samples[:, j + 1] = pos
    return samples, exit_idx, exit_node


def synthesize_loop_reference(phi, speed, start_points, raise_on_stall=True):
    """synthesize_batch before the compact active set: every row written every
    step, (m, S) candidate arrays, masked writes for the exited rows."""
    domain = phi.domain
    dt, n_steps = phi.dt, phi.n_steps
    pts = domain.as_points(start_points)
    m = len(pts)
    samples = np.empty((m, n_steps + 1) + pts.shape[1:])
    exit_idx = np.full(m, -1, dtype=int)
    exit_node = np.full(m, -1, dtype=int)
    pos, tgt = domain.snap_to_target(pts)
    hit = tgt >= 0
    exit_idx[hit] = 0
    exit_node[hit] = tgt[hit]
    samples[:, 0] = pos
    place = domain.reach_plan(float(np.max(speed.values)) * dt)
    for j in range(n_steps):
        active = np.flatnonzero(exit_idx < 0)
        if len(active) == 0:
            samples[:, j + 1:] = samples[:, j][:, None]
            break
        cur = pos[active]
        r = speed.at_points(j, cur) * dt
        cand, vals, disp = (np.swapaxes(a, 0, 1) for a in place(cur, r)(phi.values[j + 1]))
        slot, best_val = select_rows_reference(vals, disp)
        if np.any(best_val >= BIG / 2):
            k = active[int(np.flatnonzero(best_val >= BIG / 2)[0])]
            raise SynthesisStall(f"no admissible move from {pos[k]} at step {j}")
        new = cand[np.arange(len(active)), slot]
        snapped, tgt = domain.snap_to_target(new)
        pos[active] = snapped
        hit = tgt >= 0
        exit_idx[active[hit]] = j + 1
        exit_node[active[hit]] = tgt[hit]
        samples[:, j + 1] = pos
    if raise_on_stall:
        stuck = np.flatnonzero(exit_idx < 0)
        if len(stuck) > 0:
            k = int(stuck[0])
            raise SynthesisStall(
                f"synthesis stall: trajectory from {pts[k]} never reached "
                f"the target within the horizon (stall position {pos[k]})")
    return samples, exit_idx, exit_node


# ---- mix by its definition: concatenate, then merge, then prune -----------

# the per-row fields an ensemble is built from; it computes the two caches itself
GIVEN = ("samples", "exit_indices", "exit_nodes")


def concatenated(a, b, lam):
    """The union (1 - lam) * a + lam * b with every row kept."""
    fields = {name: np.concatenate([getattr(a, name), getattr(b, name)]) for name in GIVEN}
    weights = np.concatenate([(1 - lam) * a.weights, lam * b.weights])
    return TrajectoryEnsemble(a.domain, a.dt, weights=weights, validate=False, **fields)


def rows_of(ens, rows, weights):
    """The given rows of ens, in arrays of their own, with these weights."""
    fields = {name: getattr(ens, name)[rows] for name in GIVEN}
    return TrajectoryEnsemble(ens.domain, ens.dt, weights=weights, validate=False, **fields)


def copied(ens):
    """ens in arrays of its own: mix changes its receiver in place."""
    return rows_of(ens, np.arange(ens.n_traj), ens.weights.copy())


def merged(ens):
    """Merge rows with equal exit index and sample bits.

    Groups keep first-seen order and add their weights in row order.
    """
    rows, w = measures._merged_rows((ens,), ens.weights)
    return rows_of(ens, rows, w)


def pruned(ens, threshold=1e-9):
    """Drop rows weighing less than threshold and renormalize."""
    keep = np.flatnonzero(ens.weights >= threshold)
    w = ens.weights[keep]
    return rows_of(ens, keep, w / w.sum())


def mix_by_definition(a, b, lam, prune):
    return pruned(merged(concatenated(a, b, lam)), prune)


# ---- ensembles with repeated rows -----------------------------------------

def node_paths(domain, rng, n_paths, n_steps):
    """Paths over node points and edge points, with a -0.0 twin of the first."""
    if domain.kind == "interval":
        pool = np.concatenate([domain.coords, rng.uniform(domain.lo, domain.hi, 8)])
        paths = rng.choice(pool, (n_paths, n_steps + 1))
        paths[1] = paths[0]
        paths[0, 0], paths[1, 0] = 0.0, -0.0
    elif domain.kind == "grid2d":
        pool = np.concatenate([domain.coords, rng.uniform(domain.lo, domain.hi, (8, 2))])
        paths = pool[rng.integers(0, len(pool), (n_paths, n_steps + 1))]
        paths[1] = paths[0]
        paths[0, 0, 1], paths[1, 0, 1] = 0.0, -0.0
    else:
        edges = zip(*np.nonzero(np.triu(domain._edge_table)))  # (u, v), u < v, ascending
        pool = [[float(i), float(i), 0.0] for i in range(domain.n_nodes)]
        for u, v in edges:
            length = domain._edge_table[u, v]
            pool += [[u, v, length / 2], [u, v, rng.uniform(0.0, length)]]
        pool = np.array(pool)
        paths = pool[rng.integers(0, len(pool), (n_paths, n_steps + 1))]
        paths[1] = paths[0]
        paths[0, 0, 2], paths[1, 0, 2] = 0.0, -0.0
        paths[0, 0, :2] = paths[1, 0, :2] = 0.0
    return paths


def repeated_ensemble(domain, rng, n=60, n_paths=4, n_steps=5):
    """Rows drawn from a few paths and exits: many bit-equal repeats."""
    paths = node_paths(domain, rng, n_paths, n_steps)
    pick = rng.integers(0, n_paths, n)
    exits = rng.choice([-1, n_steps], n)
    w = rng.uniform(0.1, 1.0, n)
    return TrajectoryEnsemble(domain, 0.1, paths[pick], w / w.sum(), exit_indices=exits,
                              exit_nodes=np.arange(n), validate=False)


def assert_rows_of(out, parts, rows, weights):
    """out holds the given rows of the concatenated parts, with these weights."""
    def cat(name):
        return np.concatenate([getattr(p, name) for p in parts])
    for name in measures.ROW_FIELDS:
        assert _bits(getattr(out, name)) == _bits(cat(name)[rows]), name
    assert _bits(out.weights) == _bits(weights)


@pytest.mark.parametrize("make", BACKENDS)
def test_merged_matches_void_view_grouping(make):
    dom = make()
    ens = repeated_ensemble(dom, np.random.default_rng(3))
    idx, w = merged_reference(ens.samples, ens.weights, ens.exit_indices)
    out = merged(ens)
    assert_rows_of(out, [ens], idx, w)
    # 4 paths (one a -0.0 twin of another) x 2 exits, all drawn
    assert out.n_traj == 8


@pytest.mark.parametrize("make", BACKENDS)
def test_mix_matches_concatenate_merge_prune(make):
    dom = make()
    rng = np.random.default_rng(8)
    a = merged(repeated_ensemble(dom, rng))
    b = repeated_ensemble(dom, rng, n=30)
    for lam, prune in ((0.25, 1e-9), (0.5, 0.02), (0.9, 0.05)):
        rows, w = mix_reference(a, b, lam, prune)
        out = copied(a).mix(b, lam, prune)  # a is read below
        assert_rows_of(out, [a, b], rows, w)
        assert_rows_of(out, [mix_by_definition(a, b, lam, prune)], slice(None), w)
        assert 0 < out.n_traj < a.n_traj + b.n_traj
        a = out


def test_key_collision_takes_the_exact_fallback(monkeypatch):
    calls = []
    exact = measures._first_seen_groups

    def spy(keys):
        calls.append(keys.shape)
        return exact(keys)

    monkeypatch.setattr(measures, "trajectory_keys", lambda e, x: np.zeros(len(e), np.uint64))
    monkeypatch.setattr(measures, "_first_seen_groups", spy)
    rng = np.random.default_rng(2)
    a = repeated_ensemble(interval(), rng)
    b = repeated_ensemble(interval(), rng, n=30)
    assert not np.any(a.row_keys)  # every row collides
    idx, w = merged_reference(a.samples, a.weights, a.exit_indices)
    assert_rows_of(merged(a), [a], idx, w)
    assert len(calls) == 1
    rows, w = mix_reference(a, b, 0.3, 0.01)
    assert_rows_of(copied(a).mix(b, 0.3, 0.01), [a, b], rows, w)
    assert len(calls) == 2


def interior_pruned(rows, n):
    """Whether a mix keeping these rows drops a receiver row (one of the first n)
    that has a surviving receiver row after it."""
    mine = rows[rows < n]
    return len(mine) > 0 and mine[-1] != len(mine) - 1


@pytest.mark.parametrize("make", BACKENDS)
def test_mix_chain_matches_concatenate_merge_prune(make):
    """55 in-place mixes at constant damping 0.4 against the reference chain.

    The first candidate enters with weight 1 and later ones with 0.4, so
    block 1 falls below the prune threshold before block 0, and blocks keep
    leaving from the middle after that. Some candidates repeat a recent one
    and merge; one mix is a self-mix; a copy of the receiver taken early is
    mixed into after the receiver moved on, and is mixed into the receiver
    late, when its rows have been pruned there.
    """
    from test_value_reuse import settled_reference

    dom = make()
    rng = np.random.default_rng(21)
    paths = node_paths(dom, rng, 400, 5)  # rows repeat only where a candidate does

    def candidate():
        n = 5
        w = rng.uniform(0.2, 1.0, n)
        return TrajectoryEnsemble(dom, 0.1, paths[rng.integers(0, len(paths), n)], w / w.sum(),
                                  exit_indices=rng.choice([-1, 2, 5], n),
                                  exit_nodes=rng.integers(0, dom.n_nodes, n), validate=False)

    lam, prune = 0.4, 1e-9
    drawn = [candidate()]
    mixture, want = copied(drawn[0]), copied(drawn[0])
    early = early_want = None
    interior, in_place = 0, 0
    for k in range(55):
        if k == 20:
            other = mixture
        elif k == 50:
            other = early
        elif k % 3 == 2:
            other = drawn[-1 - rng.integers(0, min(3, len(drawn)))]
        else:
            other = candidate()
            drawn.append(other)
        ref_other = want if other is mixture else other
        rows, w = mix_reference(want, ref_other, lam, prune)
        interior += interior_pruned(rows, want.n_traj)
        store = mixture._store
        assert mixture.mix(other, lam, prune) is mixture
        in_place += mixture._store is store
        assert_rows_of(mixture, [want, ref_other], rows, w)
        want = mix_by_definition(want, ref_other, lam, prune)
        assert_rows_of(mixture, [want], slice(None), want.weights)
        assert mixture.settled_slice == settled_reference(mixture.samples)
        if k == 5:
            early, early_want = copied(mixture), want
        if k == 25:  # the receiver has moved on since the copy
            other = candidate()
            early_want = mix_by_definition(early_want, other, lam, prune)
            assert_rows_of(early.mix(other, lam, prune), [early_want], slice(None),
                           early_want.weights)
            assert early.settled_slice == settled_reference(early.samples)
    assert interior >= 10 and in_place >= 45


def test_mix_into_spare_capacity_allocates_less_than_one_copy():
    import tracemalloc

    dom = interval()
    rng = np.random.default_rng(22)
    n = 4 * measures.ROW_BLOCK + 77
    w = rng.uniform(0.5, 1.0, n)
    w[n // 3:n // 2] = 1e-12  # an interior run of rows that the second mix prunes
    receiver = TrajectoryEnsemble(dom, 0.1, rng.uniform(0.0, 1.0, (n, 60)), w / w.sum(),
                                  exit_indices=np.full(n, -1), validate=False)
    first = repeated_ensemble(dom, rng, n=40, n_steps=59)
    mixture = receiver.mix(first, 0.4, prune=0.0)  # the first mix sets up spare capacity
    second = rows_of(mixture, np.arange(0, 80, 2), np.full(40, 1 / 40))  # merges
    rows, w = mix_reference(mixture, second, 0.4, 1e-9)
    before = copied(mixture)
    buffer = mixture.samples
    tracemalloc.start()
    try:
        mixture.mix(second, 0.4, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffer.nbytes
    assert np.shares_memory(mixture.samples, buffer)  # moved within its buffers
    assert interior_pruned(rows, before.n_traj)
    assert_rows_of(mixture, [before, second], rows, w)


def test_row_keys_depend_on_exit_and_sign_of_zero():
    samples = np.zeros((4, 3))
    samples[1, 2] = -0.0
    keys = measures.trajectory_keys(np.array([2, 2, 1, -1]), samples)
    assert keys.dtype == np.uint64
    assert len(set(keys.tolist())) == 4
    again = measures.trajectory_keys(np.array([2]), samples[:1].copy())
    assert again[0] == keys[0]


# ---- node indices ---------------------------------------------------------

@pytest.mark.parametrize("make", BACKENDS)
def test_carried_node_indices_equal_nearest_nodes(make):
    dom = make()
    rng = np.random.default_rng(4)
    a = repeated_ensemble(dom, rng)
    assert a.node_indices.dtype == np.int32
    b = repeated_ensemble(dom, rng, n=25)
    for ens in (a, merged(a), pruned(a, 0.02), copied(a).mix(b, 0.4, 1e-9),
                merged(copied(a).mix(b, 0.4, 0.02))):
        assert np.array_equal(ens.node_indices, dom.nearest_nodes(ens.samples))
        assert ens.node_indices.dtype == np.int32


# ---- binned field ---------------------------------------------------------

def congested_kernel(domain):
    return CongestionKernel(domain, Kappa("affine_clamped", intercept=1.0, slope=1.0, floor=0.2),
                            Chi("gaussian", width=0.3, amplitude=0.6),
                            Eta("taper", distance=0.2))


@pytest.mark.parametrize("make", BACKENDS)
def test_bincount_histogram_and_field_equal_per_slice_add_at(make):
    dom = make()
    rng = np.random.default_rng(9)
    # more slices than one bincount block, so the last block is a short one
    paths = node_paths(dom, rng, 40, 150)
    w = rng.uniform(0.0, 1.0, 40) ** 4
    w /= w.sum()
    nodes = dom.nearest_nodes(paths).astype(np.int32)
    hist = _slice_histograms(nodes, w, dom.n_nodes, paths.shape[1] - 1)
    want = histogram_reference(dom, paths, w)
    assert np.array_equal(hist.view(np.int64), want.view(np.int64))
    kernel = congested_kernel(dom)
    ens = TrajectoryEnsemble(dom, 0.1, paths, w)
    got = field_from_marginals(kernel, ens, True).values
    density = want @ kernel.node_interaction_matrix().T
    ref = np.clip(kernel.kappa(density), kernel.k_min, kernel.k_max)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # the field bins the ensemble's cached node indices: the nearest nodes
    assert np.array_equal(ens.node_indices, nodes)


def test_binned_field_of_a_mixture_copies_no_node_slab():
    """A mixture keeps its node indices slice-major, so the binned field bins
    each slice's contiguous row where it lies: the field allocates less than
    one (n_rows, settled_slice + 1) int32 slab of them."""
    import tracemalloc

    dom = interval()
    rng = np.random.default_rng(31)
    n_steps = 150

    def exiting(n):
        """Paths that wander over the interval until their exit slice and stay there."""
        samples = rng.uniform(dom.lo, dom.hi, (n, n_steps + 1))
        exits = rng.integers(60, 120, n)
        samples[np.arange(n_steps + 1) > exits[:, None]] = dom.hi
        samples[np.arange(n), exits] = dom.hi
        return TrajectoryEnsemble(dom, 0.1, samples, np.full(n, 1 / n), exit_indices=exits,
                                  validate=False)

    mixture = exiting(1100).mix(exiting(1100), 0.4, 1e-9)
    assert mixture.n_traj == 2200 and mixture.settled_slice >= 100
    assert mixture.node_indices.T[0].flags.c_contiguous  # slice 0 of every row
    kernel = congested_kernel(dom)
    want = field_from_marginals(kernel, mixture, True).values  # builds the node matrix once
    slab = mixture.n_traj * (mixture.settled_slice + 1) * 4
    tracemalloc.start()
    try:
        got = field_from_marginals(kernel, mixture, True).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < slab
    assert _bits(got) == _bits(want)
    hist = histogram_reference(dom, mixture.samples, mixture.weights)
    ref = np.clip(kernel.kappa(hist @ kernel.node_interaction_matrix().T), kernel.k_min,
                  kernel.k_max)
    assert _bits(got) == _bits(ref)


# ---- synthesis plan -------------------------------------------------------

def tied_value(domain, n_slices, rng, levels):
    """Value slices with few distinct levels: many value and displacement ties."""
    dist = domain.target_node_distances()
    values = np.round(dist / np.max(dist) * levels) / levels
    values = values[None, :] + rng.choice([0.0, 0.0, 0.25], (n_slices, domain.n_nodes))
    values[:, domain.targets] = 0.0
    return values


def random_speed(domain, dt, n_slices, rng, k_min=0.2, k_max=1.0):
    values = rng.uniform(k_min, k_max, (n_slices, domain.n_nodes))
    values[:, ::3] = k_max  # full budgets k_max * dt
    values[:, 1::5] = k_min  # and the smallest, k_min * dt
    return SpeedField(domain, dt, values, (k_min, k_max))


def start_points(domain, rng):
    if domain.kind == "interval":
        return np.concatenate([[domain.lo, domain.hi, domain.lo + domain.dx / 3],
                               rng.uniform(domain.lo, domain.hi, 40), domain.coords[::4]])
    if domain.kind == "grid2d":
        corners = [[domain.lo[0], domain.lo[1]], [domain.lo[0], domain.hi[1]],
                   [domain.hi[0], domain.lo[1]], [domain.hi[0], domain.hi[1]]]
        edges = [[domain.lo[0], 0.17], [0.23, domain.hi[1]], [0.31, domain.lo[1]]]
        return np.concatenate([corners, edges, rng.uniform(domain.lo, domain.hi, (40, 2)),
                               domain.coords[::3]])
    return np.array([[0.0, 0.0, 0.0], [3.0, 3.0, 0.0], [0.0, 1.0, 0.5], [1.0, 3.0, 0.35],
                     [0.0, 1.0, 1.0], [1.0, 3.0, 0.0]])


@pytest.mark.parametrize("levels", [3, 1000])
@pytest.mark.parametrize("make", BACKENDS)
def test_synthesis_plan_matches_per_step_candidates(make, levels):
    dom = make()
    rng = np.random.default_rng(levels)
    dt = dom.dx  # unit CFL at k_max = 1
    n_slices = 40
    speed = random_speed(dom, dt, n_slices, rng)
    phi = ValueField(dom, dt, tied_value(dom, n_slices, rng, levels), speed=speed)
    pts = start_points(dom, rng)
    got = synthesize_batch(phi, pts, raise_on_stall=False)
    want = synthesize_reference(phi, speed, pts)
    # C order on every backend: np.save would write a transposed buffer's
    # bytes in Fortran order
    assert got[0].flags.c_contiguous and got[0].shape == want[0].shape
    assert _bits(got[0]) == _bits(want[0])
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    assert np.any(got[1] > 0)


def synthesized_or_stall(synthesize, args, raise_on_stall):
    try:
        return synthesize(*args, raise_on_stall=raise_on_stall)
    except SynthesisStall as err:
        return str(err)


@pytest.mark.parametrize("n_slices", [40, 4])
@pytest.mark.parametrize("make", BACKENDS)
def test_synthesis_equals_the_full_width_loop(make, n_slices):
    """The compact active set and slot-major selection change no bit, and
    stall where the full-width loop stalls, with its message."""
    dom = make()
    rng = np.random.default_rng(n_slices)
    dt = dom.dx
    speed = random_speed(dom, dt, n_slices, rng)
    pts = start_points(dom, rng)
    fields = {levels: tied_value(dom, n_slices, rng, levels) for levels in (3, 1000)}
    fields["inadmissible"] = np.full((n_slices, dom.n_nodes), BIG)  # no move is admissible
    stalls = []
    for values in fields.values():
        phi = ValueField(dom, dt, values, speed=speed)
        for raise_on_stall in (True, False):
            got = synthesized_or_stall(synthesize_batch, (phi, pts), raise_on_stall)
            want = synthesized_or_stall(synthesize_loop_reference, (phi, speed, pts),
                                        raise_on_stall)
            if isinstance(want, str):
                stalls.append(want)
                assert got == want
                continue
            assert _bits(got[0]) == _bits(want[0])
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    # every backend stalls on the inadmissible field; the short horizon also
    # leaves paths short of the target
    assert any(m.startswith("no admissible move") for m in stalls)
    assert n_slices > 4 or any(m.startswith("synthesis stall") for m in stalls)


@pytest.mark.parametrize("make", [interval, grid])
def test_reach_plan_selects_the_reach_candidates_move(make):
    dom = make()
    rng = np.random.default_rng(12)
    r_max = 1.7 * dom.dx
    place = dom.reach_plan(r_max)
    pts = start_points(dom, rng)
    node_values = np.round(rng.uniform(0.0, 1.0, dom.n_nodes) * 4) / 4
    # budgets from near zero to r_max, and r_max overshot in its last bit
    for r in (rng.uniform(0.0, r_max, len(pts)), np.full(len(pts), r_max),
              np.full(len(pts), np.nextafter(r_max, np.inf)), np.full(len(pts), 0.2 * dom.dx)):
        cand, vals, disp = place(pts, r)(node_values)  # slot-major
        assert np.array_equal(np.isinf(disp), vals == BIG)
        slot, best = _select_candidates(vals, disp)  # overwrites disp off the minima
        ref_cand, ref_disp, valid = dom.reach_candidates(pts, r)
        ref_vals = np.full(valid.shape, BIG)
        ref_vals[valid] = dom.interp(node_values, ref_cand[valid])
        ref_slot, ref_best = select_rows_reference(ref_vals, ref_disp)
        rows = np.arange(len(pts))
        assert _bits(cand[slot, rows]) == _bits(ref_cand[rows, ref_slot])
        assert _bits(vals[slot, rows]) == _bits(ref_best)
        assert np.array_equal(best, ref_best)
        assert _bits(disp[slot, rows]) == _bits(ref_disp[rows, ref_slot])


@pytest.mark.parametrize("make", BACKENDS)
def test_a_selection_consumes_the_placement_displacements(make):
    """Every evaluate of a placement returns the one displacement array that
    _select_candidates overwrites: after a selection a second evaluate still
    gives the right moves and values but the consumed displacements, and a
    new placement gives them back."""
    dom = make()
    rng = np.random.default_rng(13)
    r_max = 1.7 * dom.dx
    place = dom.reach_plan(r_max)
    pts = start_points(dom, rng)
    r = rng.uniform(0.0, r_max, len(pts))
    first, second = (np.round(rng.uniform(0.0, 1.0, dom.n_nodes) * 4) / 4 for _ in range(2))
    evaluate = place(pts, r)
    want = [a.copy() for a in evaluate(second)]  # the plan may reuse its arrays
    cand, vals, disp = evaluate(first)
    _select_candidates(vals, disp)
    assert np.count_nonzero(np.isinf(disp)) > np.count_nonzero(np.isinf(want[2]))
    cand, vals, consumed = evaluate(second)
    assert _bits(cand) == _bits(want[0]) and _bits(vals) == _bits(want[1])
    assert np.shares_memory(consumed, disp) and _bits(consumed) == _bits(disp)
    cand, vals, disp = place(pts, r)(second)
    assert _bits(cand) == _bits(want[0]) and _bits(vals) == _bits(want[1])
    assert _bits(disp) == _bits(want[2])


def test_interval_plan_has_room_for_a_budget_one_ulp_over_r_max():
    dom = IntervalDomain(0.0, 1.0, 0.05, targets=[1.0])
    # the largest r_max that still gives reach_candidates two node slots;
    # one ulp more gives four
    r_max = dom.dx * (1 - 1e-9)
    for _ in range(64):
        if np.floor(r_max / dom.dx + 1e-9) < 1:
            break
        r_max = np.nextafter(r_max, 0.0)
    assert np.floor(np.nextafter(r_max, np.inf) / dom.dx + 1e-9) == 1
    r = np.full(dom.n_nodes - 2, np.nextafter(r_max, np.inf))
    pts = dom.coords[1:-1]
    node_values = 1.0 - dom.coords  # downhill to the right: the right neighbour node wins
    cand, vals, disp = dom.reach_plan(r_max)(pts, r)(node_values)
    slot, _ = _select_candidates(vals, disp)
    ref_cand, ref_disp, valid = dom.reach_candidates(pts, r)
    ref_slot, _ = select_rows_reference(np.where(valid, dom.interp(node_values, ref_cand), BIG),
                                        ref_disp)
    rows = np.arange(len(pts))
    assert _bits(cand[slot, rows]) == _bits(ref_cand[rows, ref_slot])
    # the right neighbour sits in the third node slot, and wins, for some points
    right = valid[:, 5] & (ref_slot == 5)
    assert ref_cand.shape[1] == 7 and np.any(right)
    assert np.array_equal(cand[slot[right], rows[right]], dom.coords[2:][right])
