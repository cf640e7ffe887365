"""Walkthrough: how equilibria and their limits depend on the starting spot.

A single agent on [0, 1] with exits at both ends walks to whichever exit is
nearer, so the limit measure jumps from delta_0 to delta_1 as the start
crosses 1/2: the limit map is upper semicontinuous but not continuous. The
game at 1/2 has both Diracs as limits, and the solver picks delta_1.

`runner.sweep` over initial_measure.* also runs the unswept template as the
reference and writes stability_report.json: per member, W1(m0, m0_ref),
W1(m_inf, m_inf_ref) and the cross-exploitability against the reference's
value, plus a closed-graph probe at the member nearest the reference. A
family approaching 1/2 from the left limits to delta_0: 1 away from the
solver's pick, but inside the midpoint game's limit set {delta_0, delta_1}.
"""
import json
import os
import tempfile

from exitlab import runner
from exitlab.scenarios import load_scenario

template = load_scenario("remark_5_13")
template["initial_measure"]["location"] = 0.5


def stability(root, name, locations):
    out = os.path.join(root, name)
    sweep = runner.sweep(template, {"initial_measure.location": locations}, out)
    with open(os.path.join(out, "stability_report.json")) as fh:
        return sweep, json.load(fh)


with tempfile.TemporaryDirectory(prefix="exitlab_demo_") as root:
    sweep, table = stability(root, "case_table", [0.1, 0.3, 0.45, 0.55, 0.7, 0.9])
    family, probe_table = stability(root, "family", [0.5 - 1.0 / n for n in (4, 8, 16)])

print("limit measure per starting point (reference: start 1/2):")
for member, row in zip(sweep["members"], table["members"]):
    a = member["params"]["initial_measure.location"]
    print(f"  start {a}: limit atoms {member['m_infinity']}, "
          f"W1 to the reference limit {row['limit_distance']}")

print("\nfamily a_n = 1/2 - 1/n:")
for member, row in zip(family["members"], probe_table["members"]):
    print(f"  perturbation {row['perturbation']:.4f}: limit atoms {member['m_infinity']}, "
          f"cross-exploitability {row['cross_exploitability']:.3g}")
print(f"closed-graph probe: {probe_table['closed_graph_probe']}")
