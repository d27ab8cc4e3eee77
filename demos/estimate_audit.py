"""Audit every quantitative estimate the solver's certificates rely on.

Each checker measures the quantity by quadrature or sampling and compares it
against the claimed bound; a falsification control (shrinking the claimed
constant) confirms the checkers can fail.
"""

import numpy as np

from chemosim import AgentPath, FieldProbe, build_scenario
from chemosim.kernel import gamma_estimate_Cgamma
from chemosim.verify import (
    check_gamma_estimates,
    check_kernel_mass,
    check_prop1,
    gamma_samples,
    gronwall_oracle,
    mass_samples,
    space_time_samples,
)

scenario = build_scenario({
    "dimension": 1, "horizon": 1.0, "coefficients": "heat",
    "phi": "abs-sqrt", "g": "zero", "force": "zero",
    "X0": [[0.0]], "V0": [[0.0]],
})


def show(rep):
    status = "pass" if rep.passed else "FAIL"
    print(f"  [{status}] {rep.claim:<32} worst ratio {rep.worst_ratio:.6f} "
          f"({rep.sample_count} samples)")


print("kernel mass (must equal e^{c (t - tau)}, here 1):")
show(check_kernel_mass(scenario.kernel, mass_samples(1, 20, 1.0, seed=0)))

print("\nkernel decay envelopes, orders 0-2:")
params = scenario.estimate_params
for order, rep in sorted(check_gamma_estimates(
        scenario.kernel, params, gamma_samples(1, 1000, seed=0)).items()):
    show(rep)

print("\nthe same with the order-1 constant halved (control):")
c1 = gamma_estimate_Cgamma(scenario.kernel, params, 1)
show(check_gamma_estimates(scenario.kernel, params,
                           gamma_samples(1, 1000, seed=0), c_gamma=c1 / 2)[1])

print("\nfield derivative bounds on rough data (|x|^(1/2) datum):")
path = AgentPath.constant(scenario.X0, scenario.V0, np.linspace(0, 1, 5))
probe = FieldProbe(scenario, path)
samples = space_time_samples(1, 500, box=3.0, t_range=(0.01, 1.0), seed=2)
for rep in check_prop1(scenario, probe, samples):
    show(rep)

print("\nintegral-inequality oracle (double-kernel case, constant kernels w = 0, v = 1):")
grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
show(gronwall_oracle(1.0, 0.0, 1.0, grid))
