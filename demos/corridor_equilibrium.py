"""Walkthrough: computing a congestion equilibrium on the corridor scenario.

A crowd starts in [0, 0.2] and funnels toward the single exit at 1. Speeds
drop where the smoothed population density is high, so each damped
best-response iteration reshapes the speed field until the population is
consistent with everyone acting optimally.
"""
import os
import tempfile

from exitlab import runner

with tempfile.TemporaryDirectory(prefix="exitlab_demo_") as root:
    result = runner.run("congested_corridor", os.path.join(root, "corridor"))

eq = result.ledger["equilibrium"]
cert = result.ledger["certification"]
print(f"converged in {eq['iterations']} iterations "
      f"(exploitability {eq['exploitability']:.4g}, max atom gap {eq['max_gap']:.4g})")
print(f"certified: weak={cert['weak']} strong={cert['strong']} at tol {cert['tol']}")
print(f"population settles at t* = {result.ledger['settling_time']}")
print("ledger checks:")
for check in result.ledger["checks"]:
    print(f"  {'PASS' if check['passed'] else 'FAIL'} {check['name']}: {check['detail']}")
print("\n`exitlab run congested_corridor` keeps the run directory: per-iteration")
print("residuals in exploitability_history.csv, the marginal flow and the value")
print("field in marginals.csv / value_function.csv.")
