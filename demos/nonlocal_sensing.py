"""Finite sensing radius: agents read the ball-averaged gradient.

A cell senses the chemical around its whole body, not at its center.  The
non-local mode averages the field gradient over a ball of radius delta, which
by the divergence theorem is (N / delta) times the mean of f nu over the
sphere of radius delta: in 1D the centred difference
(f(x + delta) - f(x - delta)) / (2 delta).  As delta shrinks, trajectories
converge to the pointwise-sensing ones at second order.
"""

import numpy as np

from chemosim import AgentPath, FieldProbe, build_scenario, solve_global

base = {
    "dimension": 1,
    "horizon": 0.5,
    "coefficients": "heat",
    "phi": "gaussian",
    "g": "agent-secretion",
    "force": {"name": "damped-chemotaxis", "chi": 0.05, "kappa_v": 1.0},
    "X0": [[0.2]],
    "V0": [[0.3]],
}

scenario = build_scenario(base)
path = AgentPath.constant(scenario.X0, scenario.V0, np.linspace(0.0, 1.0, 5))
probe = FieldProbe(scenario, path)

x = np.array([0.7])
grad = probe.gradient(x, 0.5)[0]
print("ball-averaged gradient at x = 0.7, t = 0.5")
print(f"  pointwise gradient: {grad:.8f}")
for delta in (0.2, 0.1, 0.05):
    avg = probe.ball_average_gradient(x, 0.5, delta)[0]
    print(f"  delta = {delta:4.2f}: average = {avg:.8f}  error = {abs(avg - grad):.2e}")

print("\ntrajectories: non-local vs pointwise sensing over [0, 0.4]")
p_point = solve_global(scenario, 0.4, tol=1e-10)
for delta in (0.2, 0.1, 0.05):
    scn_d = build_scenario(dict(base, delta=delta))
    p_non = solve_global(scn_d, 0.4, tol=1e-10, mode="nonlocal")
    gap = max(np.abs(p_non.X - p_point.X).max(), np.abs(p_non.V - p_point.V).max())
    print(f"  delta = {delta:4.2f}: sup-norm gap = {gap:.3e}")
print("the gap shrinks at roughly delta^2 — pointwise sensing is the small-body limit.")
