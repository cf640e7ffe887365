"""Walkthrough: the exit-time optimal control layer on a 1d corridor.

Builds a time-varying speed field on [0, 1] with exits at both ends, solves
the value function by backward semi-Lagrangian sweeps, synthesizes optimal
trajectories, and verifies the dynamic-programming residuals along them.
"""
import numpy as np

from exitlab import (ExitCost, IntervalDomain, SpeedField, TrajectoryEnsemble,
                     check_dpp, horizon_bound, solve_value)
from exitlab.equilibrium import realized_costs
from exitlab.ocp import default_dpp_tol, synthesize_batch

domain = IntervalDomain(0.0, 1.0, 0.01, targets=[0.0, 1.0], origin=0.0)
cost = ExitCost(domain, {domain.node_at(0.0): 0.05, domain.node_at(1.0): 0.0})

# a speed field with a slow patch drifting to the right over time
k_lo, k_hi = 0.4, 1.0
dt = domain.dx / k_hi
horizon = horizon_bound(cost, (k_lo, k_hi), 1.0) + 3 * dt
n_steps = int(np.ceil(horizon / dt))
t = np.arange(n_steps + 1)[:, None] * dt
x = domain.coords[None, :]
values = k_hi - (k_hi - k_lo) * np.exp(-((x - 0.3 - 0.2 * t) / 0.15) ** 2)
field = SpeedField(domain, dt, values, (k_lo, k_hi))

phi = solve_value(domain, cost, field)
print(f"value at (t=0, x=0.5): {phi.at(0.0, 0.5):.4f}")
print(f"value at (t=0, x=0.2): {phi.at(0.0, 0.2):.4f}   (slow patch sits nearby)")

tol = default_dpp_tol(domain, dt)
starts = np.array([0.15, 0.5, 0.85])
samples, exit_idx, exit_node = synthesize_batch(phi, starts)
paths = TrajectoryEnsemble(domain, dt, samples, np.full(len(starts), 1 / len(starts)),
                           exit_indices=exit_idx, exit_nodes=exit_node)
realized = realized_costs(paths, cost)
residual = check_dpp(phi, samples, exit_idx)["max_equality_residual"]
for k, x0 in enumerate(starts):
    print(f"start {x0:.2f}: exit at {domain.coords[exit_node[k]]:.0f} "
          f"after {exit_idx[k] * dt:.3f}s, realized cost {realized[k]:.4f} "
          f"(phi {phi.at(0.0, x0):.4f}, dpp residual {residual[k]:.4f}, "
          f"tol {tol:.3f})")
