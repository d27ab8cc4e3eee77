"""chemosim: coupled agent/chemoattractant simulation with certified horizons.

Agents follow second-order dynamics forced by the gradient (or ball-averaged
gradient) of a signal field, which in turn solves a forced parabolic problem
driven by the agent configuration.  The solver applies Picard iteration of
the integral update map on certified contraction horizons and continues
segment by segment to a global solution; a verification layer re-checks every
quantitative estimate the certificates rely on.
"""

from .field import (
    BACKEND_FD,
    BACKEND_KERNEL,
    FdField,
    FieldProbe,
    QuadratureSpec,
    solve_field_fd,
)
from .kernel import (
    EstimateParams,
    Kernel,
    default_estimate_params,
    derivative_bound_constants,
    ell,
    gamma_estimate_Cgamma,
    gaussian_I0,
    gaussian_I1,
    lambda0_bound,
    make_kernel,
    sphere_area,
)
from .paths import AgentPath
from .picard import (
    MODE_NONLOCAL,
    MODE_POINTWISE,
    HorizonCertificate,
    PicardError,
    SegmentRecord,
    apply_psi,
    apriori_grad_bound,
    contraction_S,
    gronwall_bound_B,
    horizon_T1,
    horizon_certificate,
    solve_global,
    solve_local,
)
from .presets import (
    GaussianSource,
    coefficient_preset,
    force_preset,
    g_preset,
    inline_coefficients,
    phi_preset,
    preset_catalog,
)
from .scenario import (
    ForceLaw,
    GrowthSpec,
    OperatorCoefficients,
    Scenario,
    ScenarioError,
    build_scenario,
    make_scenario,
)
from .verify import (
    EstimateReport,
    check_gamma_estimates,
    check_holder,
    check_kernel_mass,
    check_prop1,
    gronwall_oracle,
    residual_check,
)

__version__ = "0.1.0"
