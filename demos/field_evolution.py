"""Evaluate the signal field driven by agent positions.

A Gaussian initial concentration spreads under the heat flow while a single
agent at the origin secretes more signal.  We compare the closed-form kernel
quadrature with the analytic solution (where one exists) and with the
finite-difference backend, which variable coefficients take.
"""

import numpy as np

from chemosim import FieldProbe, AgentPath, build_scenario
from chemosim.field import BACKEND_FD

config = {
    "dimension": 1,
    "horizon": 1.0,
    "coefficients": "heat",
    "phi": "gaussian",
    "g": "zero",
    "force": "zero",
    "X0": [[0.0]],
    "V0": [[0.0]],
}

scenario = build_scenario(config)
path = AgentPath.constant(scenario.X0, scenario.V0, np.linspace(0.0, 1.0, 5))
probe = FieldProbe(scenario, path)

print("Gaussian datum under the unit-diffusion flow")
print(f"{'t':>6} {'x':>6} {'numeric':>12} {'analytic':>12}")
for t in (0.1, 0.5, 1.0):
    for x in (0.0, 1.0):
        sig = 1.0 + 4.0 * t
        exact = sig**-0.5 * np.exp(-x * x / sig)
        num = probe.value(np.array([x]), t)
        print(f"{t:6.2f} {x:6.2f} {num:12.8f} {exact:12.8f}")

print("\ngradient and hessian at (1.0, 0.25)")
print("  grad:", probe.gradient(np.array([1.0]), 0.25))
print("  hess:", probe.hessian(np.array([1.0]), 0.25)[0])

# now add an agent that secretes signal at its position (a negative source
# adds concentration under the depletion sign convention)
config_src = dict(config, g="agent-secretion")
scenario_src = build_scenario(config_src)
probe_src = FieldProbe(scenario_src, path)
print("\nwith a secreting agent at the origin, f rises near x = 0:")
for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
    print(f"  f({x:+.1f}, 1.0) = {probe_src.value(np.array([x]), 1.0):9.6f}")

# cross-check the two backends on a shared probe set
fd_probe = FieldProbe(scenario, path, backend=BACKEND_FD)
xs = np.linspace(-1.5, 1.5, 7)
worst = max(abs(probe.value(np.array([x]), 0.5) - fd_probe.value(np.array([x]), 0.5))
            for x in xs)
print(f"\nclosed-form vs finite-difference, worst gap on the probe set: {worst:.2e}")
