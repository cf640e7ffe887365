"""The column-wise artifact writer writes the bytes of the per-cell reference writer.

The reference functions below are the row-by-row writer the run artifacts
were first produced with: every cell formatted on its own by `_fmt`, every
row joined and written on its own. The writer formats each distinct 64-bit
pattern of a column once, so repeated values, signed zeros and NaN payloads
are checked against the per-cell formatting too. tests/golden_sha256.json
pins only the interval scenarios, so the grid2d and graph artifacts are
checked here.
"""
import filecmp
import os

import numpy as np
import pytest

from exitlab import equilibrium as eq
from exitlab import runner
from exitlab.scenarios import load_scenario
from test_backends import graph_scenario, grid2d_scenario


def _fmt(x):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return f"{x:.12g}"


def write_csv_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _point_row(domain, p):
    if domain.kind == "interval":
        return [float(p)]
    return [float(c) for c in np.atleast_1d(p)]


def persist_csvs_reference(bundle, run_dir):
    """The CSV files of runner.persist, built and written row by row."""
    os.makedirs(run_dir, exist_ok=True)
    domain = bundle["domain"]
    report = bundle["equilibrium"]
    ens = report.final_ensemble
    coord_cols = list(domain.coord_names)

    write_csv_reference(
        os.path.join(run_dir, "exploitability_history.csv"),
        ["iteration", "exploitability", "max_gap", "min_gap", "mixture_support"],
        [[h["iteration"], float(h["exploitability"]), float(h["max_gap"]),
          float(h["min_gap"]), h["mixture_support"]] for h in report.history])

    costs = eq.realized_costs(ens, bundle["cost"])
    rows = [[k, float(ens.weights[k])] + _point_row(domain, ens.samples[k, 0])
            + [float(ens.exit_indices[k] * ens.dt)
               if ens.exit_indices[k] >= 0 else float("nan"),
               float(costs[k]) if np.isfinite(costs[k]) else float("nan")]
            for k in range(ens.n_traj)]
    write_csv_reference(os.path.join(run_dir, "trajectory_summary.csv"),
                        ["particle_id", "weight"] + [f"start_{c}" for c in coord_cols]
                        + ["exit_time", "realized_cost"], rows)

    rows = []
    for t in bundle["report_grid"]:
        m = ens.time_marginal(t, merge=True)
        for i in range(m.n_atoms):
            rows.append([float(t)] + _point_row(domain, m.points[i]) + [float(m.weights[i])])
    write_csv_reference(os.path.join(run_dir, "marginals.csv"),
                        ["t"] + coord_cols + ["weight"], rows)

    m0 = bundle["m0"]
    write_csv_reference(os.path.join(run_dir, "initial_measure.csv"), coord_cols + ["weight"],
                        [_point_row(domain, m0.points[i]) + [float(m0.weights[i])]
                         for i in range(m0.n_atoms)])

    phi = report.final_phi
    node_pts = domain.node_points()
    rows = []
    seen = set()
    for t in bundle["report_grid"]:
        j = phi.time_index(t)
        if j in seen:
            continue
        seen.add(j)
        for i in range(domain.n_nodes):
            rows.append([float(j * phi.dt)] + _point_row(domain, node_pts[i])
                        + [float(phi.values[j, i])])
    write_csv_reference(os.path.join(run_dir, "value_function.csv"),
                        ["t"] + coord_cols + ["phi"], rows)

    curve = bundle["curve"]
    if curve is not None:
        write_csv_reference(os.path.join(run_dir, "convergence_curve.csv"), ["t", "w_p", "bound"],
                            [[float(t), float(v), float(b) if np.isfinite(b) else float("nan")]
                             for t, v, b in zip(curve.times, curve.values, curve.bounds)])


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 123456789012345678.0,
               0.1, float("nan"), float("inf"), float("-inf")]
EDGE_INTS = [0, np.int64(-3), 7, np.int64(2**53), -1, np.int64(0), 12, np.int64(9), 1, 2]


def _both_writers(tmp_path, header, rows, columns):
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    write_csv_reference(ref, header, rows)
    runner._write_table(new, header, columns)
    return ref.read_bytes(), new.read_bytes()


def test_edge_values_write_reference_bytes(tmp_path):
    rows = [[x, i, -x] for x, i in zip(EDGE_FLOATS, EDGE_INTS)]
    ref, new = _both_writers(tmp_path, ["a", "n", "b"], rows,
                             [np.array(EDGE_FLOATS), np.array(EDGE_INTS),
                              -np.array(EDGE_FLOATS)])
    assert new == ref
    assert new.splitlines()[1:3] == [b"-0,0,0", b"0,-3,-0"]
    assert new.splitlines()[-3:] == [b",9,", b",1,", b",2,"]


def test_header_only_table_writes_reference_bytes(tmp_path):
    ref, new = _both_writers(tmp_path, ["t", "x", "n"], [],
                             [np.empty(0), np.empty(0), np.empty(0, dtype=int)])
    assert new == ref == b"t,x,n\n"


def test_random_bit_patterns_across_row_blocks(tmp_path):
    """Every float64 bit pattern class, over 32,773 rows."""
    rng = np.random.default_rng(0)
    n = 32_773
    bits = rng.integers(0, 2**63, n, dtype=np.int64).view(np.float64)
    bits[::7] = -bits[::7]
    ids = np.arange(n)
    rows = [[int(i), float(x)] for i, x in zip(ids, bits)]
    ref, new = _both_writers(tmp_path, ["id", "v"], rows, [ids, bits])
    assert new == ref


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


REPEATED_BLOCKS = {
    "heavy repetition": np.random.default_rng(1).choice(
        [0.25, -0.0, 0.0, 1e-300, 0.1 + 0.2, 7.0], 24_576),
    "signed zeros": np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0]),
    "signed zeros, minus first": np.array([-0.0, 0.0, 0.0, -0.0]),
    "nan payloads and infinities": np.array([_nan(0x7FF8000000000000), 1.5,
                                             _nan(0x7FF8000000000001), np.inf, -np.inf,
                                             _nan(0xFFF8000000000000), np.inf, 1.5,
                                             _nan(0x7FF8000000000001), -np.inf]),
    "repeated ints": np.array([3, 3, -1, 3, 2**53, -1, 0, 2**53, 3]),
    "one float": np.array([-0.0]),
    "one int": np.array([-7]),
    "empty float": np.empty(0),
    "empty int": np.empty(0, dtype=int),
}


@pytest.mark.parametrize("name", list(REPEATED_BLOCKS))
def test_cells_grouped_by_bit_pattern_equal_per_cell_text(name):
    """_cells groups a column by 64-bit pattern, not by value: -0.0 is not 0.0."""
    col = REPEATED_BLOCKS[name]
    assert runner._cells(col) == [_fmt(v) if isinstance(v, float) else str(v)
                                  for v in col.tolist()]


def test_repeated_blocks_write_reference_bytes(tmp_path):
    heavy = REPEATED_BLOCKS["heavy repetition"]
    n = len(heavy)
    ints = np.random.default_rng(2).integers(-3, 3, n)
    zeros = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
    rows = [[float(a), int(b), float(c)] for a, b, c in zip(heavy, ints, zeros)]
    ref, new = _both_writers(tmp_path, ["a", "n", "z"], rows, [heavy, ints, zeros])
    assert new == ref
    assert new.splitlines()[1].endswith(b",-0")


@pytest.mark.parametrize("make_cfg", [lambda: load_scenario("remark_5_3"),
                                      grid2d_scenario, graph_scenario],
                         ids=["interval", "grid2d", "graph"])
def test_persisted_csvs_match_reference_writer(tmp_path, make_cfg):
    bundle = runner.execute(make_cfg())
    assert bundle["status"] == 0
    runner.persist(bundle, str(tmp_path / "new"))
    persist_csvs_reference(bundle, str(tmp_path / "ref"))
    names = sorted(os.listdir(tmp_path / "ref"))
    assert len(names) == 6
    for name in names:
        assert filecmp.cmp(tmp_path / "ref" / name, tmp_path / "new" / name,
                           shallow=False), name


@pytest.mark.parametrize("make_cfg", [lambda: load_scenario("remark_5_3"),
                                      grid2d_scenario, graph_scenario],
                         ids=["interval", "grid2d", "graph"])
def test_trajectories_npy_holds_the_final_mixture_bit_for_bit(tmp_path, make_cfg):
    """trajectories.npy is the final mixture's samples, row k particle_id k of
    trajectory_summary.csv; a truncated file fails verify by name."""
    bundle = runner.execute(make_cfg())
    run_dir = tmp_path / "run"
    runner.persist(bundle, str(run_dir))
    ens = bundle["equilibrium"].final_ensemble
    path = run_dir / "trajectories.npy"
    paths = np.load(path, allow_pickle=False)
    assert paths.dtype == np.float64
    assert paths.shape == ens.samples.shape
    assert paths.ndim == (2 if bundle["domain"].kind == "interval" else 3)
    assert np.array_equal(paths.view(np.int64), ens.samples.view(np.int64))
    with open(run_dir / "trajectory_summary.csv") as fh:
        assert sum(1 for _ in fh) == len(paths) + 1
    path.write_bytes(path.read_bytes()[:-8])
    check = runner.verify(str(run_dir))
    assert not check.passed
    assert "trajectories.npy" in check.error
