"""Segment-by-segment continuation to a global solution.

Each segment restarts the local solve from the previous endpoint with a fresh
certificate.  Picard iteration on the first segment starts from the
first-order Taylor path of the initial state ("start=taylor"), and on every
later one from an extrapolation of the segment before it
("start=extrapolated"), so both need fewer sweeps than a start from the
frozen initial state.
For a purely damped force the exact solution is known, so the stitched
trajectory can be checked end to end, together with the a-priori excursion
bound B.
"""

import numpy as np

from chemosim import build_scenario, gronwall_bound_B, solve_global

config = {
    "dimension": 1,
    "horizon": 2.0,
    "coefficients": "heat",
    "phi": "gaussian",
    "g": "zero",
    "force": {"name": "damped-chemotaxis", "chi": 0.0, "kappa_v": 1.0},
    "X0": [[0.0]],
    "V0": [[0.5]],
}
scenario = build_scenario(config)

segments = []
path = solve_global(scenario, 2.0, tol=1e-10, segments_out=segments)

print(f"continued over {len(segments)} segments:")
for seg in segments:
    print(f"  [{seg.t_start:.3f}, {seg.t_end:.3f}]  t_bar={seg.certificate.t_bar:.3f}  "
          f"S={seg.certificate.s_value:.3f}  sweeps={seg.iterations}  start={seg.start}")

exact_v = 0.5 * np.exp(-path.times)
exact_x = 0.5 * (1.0 - np.exp(-path.times))
print(f"\nmax |V - exact| = {np.abs(path.V[:, 0, 0] - exact_v).max():.2e}")
print(f"max |X - exact| = {np.abs(path.X[:, 0, 0] - exact_x).max():.2e}")

deviation = np.sqrt(
    np.linalg.norm((path.X - scenario.X0).reshape(len(path.times), -1), axis=1) ** 2
    + np.linalg.norm((path.V - scenario.V0).reshape(len(path.times), -1), axis=1) ** 2
).max()
bound = gronwall_bound_B(scenario, 2.0)
print(f"\nobserved sup |Y - Y0| = {deviation:.4f}")
print(f"a-priori bound B      = {bound:.4g}  (conservative by construction)")
