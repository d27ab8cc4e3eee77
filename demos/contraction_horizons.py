"""Certified solve horizons and the contraction they guarantee.

The update map is a contraction once the horizon is short enough; the
certificate computes how short, from the declared regularity constants alone,
before any iteration runs.  We then iterate and watch the actual convergence
beat the certified modulus.
"""

import numpy as np

from chemosim import (
    build_scenario,
    contraction_S,
    horizon_certificate,
    solve_local,
)

config = {
    "dimension": 1,
    "horizon": 1.0,
    "coefficients": "heat",
    "phi": "gaussian",
    "g": "agent-secretion",
    "force": {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
    "X0": [[0.2]],
    "V0": [[0.3]],
}
scenario = build_scenario(config)

cert = horizon_certificate(scenario)
print("horizon certificate")
print(f"  range horizon T1       = {cert.t_range:.6f}")
print(f"  contraction horizon T2 = {cert.t_contract:.6f}")
print(f"  working horizon t_bar  = {cert.t_bar:.6f}")
print(f"  certified modulus S    = {cert.s_value:.4f}")
print(f"  gamma_bar              = {cert.gamma_bar:.4f}")

print("\nthe same scenario in higher dimension (exact envelope constants):")
print(f"  {'dim':<4} {'T1':>10} {'T2':>10} {'t_bar':>10} {'S':>7}")
for dim in (2, 3):
    lifted = dict(config, dimension=dim,
                  X0=config["X0"] + [[0.1], [0.05]][:dim - 1],
                  V0=config["V0"] + [[0.0], [0.1]][:dim - 1])
    c = horizon_certificate(build_scenario(lifted))
    print(f"  {f'{dim}D':<4} {c.t_range:10.3e} {c.t_contract:10.3e} {c.t_bar:10.3e} {c.s_value:7.4f}")

print("\nS grows with the horizon:")
for t in np.geomspace(cert.t_bar / 100.0, cert.t_contract, 6):
    print(f"  S({t:.2e}) = {contraction_S(scenario, cert.radius, t):.4f}")

path, history = solve_local(scenario, cert, tol=1e-10)
print(f"\nPicard iteration on [0, {cert.t_bar:.4f}] from the first-order Taylor path:")
for k, diff in enumerate(history):
    ratio = f"  ratio {history[k] / history[k - 1]:.2e}" if k else ""
    print(f"  sweep {k + 1}: |change| = {diff:.3e}{ratio}")
print(f"observed ratios sit far below the certified S = {cert.s_value:.3f}:")
print("the certificate is sufficient, not sharp.")
