"""Walkthrough: long-time decay of the population toward its limit measure.

Two initial distributions with unbounded support (truncated at radius 30):
a power tail with exponent 4 and an exponential tail with rate 2, both
heading to the single exit at the origin. The transport distance to the
limit decays polynomially (power tail) or exponentially (exp tail), and the
fitted rates land where the tail calculus predicts: exponent -(beta - p - d)
and rate gamma_0 * K_min.
"""
import os
import tempfile

import numpy as np

from exitlab import runner

with tempfile.TemporaryDirectory(prefix="exitlab_demo_") as root:
    for name, expectation in (("power_tail_cor56a", "log-log slope near -2"),
                              ("exp_tail_cor56b", "decay rate at least 1.7")):
        result = runner.run(name, os.path.join(root, name))
        fit = result.ledger["rate_fit"]
        print(f"{name}: fitted {fit['mode']} value {fit['value']:.4g} "
              f"(residual {fit['residual']:.3g}, window {fit['window']}) - {expectation}")
        curve_file = os.path.join(result.path, "convergence_curve.csv")
        rows = np.genfromtxt(curve_file, delimiter=",", names=True)
        shown = rows[:: max(1, len(rows) // 6)]
        print("  t, W_1(m_t, m_inf):")
        for row in shown:
            print(f"    {row['t']:8.3f}  {row['w_p']:.6f}")
