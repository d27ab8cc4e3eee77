"""Problem-instance types: operator coefficients, data, force laws, scenarios.

A Scenario bundles everything a solver run needs — the parabolic operator,
the initial signal phi, the source g, the force law, agent initial state and
the declared growth/regularity constants.  Scenarios are immutable after
construction and all stored callables are pure, so instances are safe to
share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .kernel import Kernel, EstimateParams, default_estimate_params, lambda0_bound, make_kernel

Array = np.ndarray
CoeffMatrixFn = Callable[[Array, float], Array]
CoeffVectorFn = Callable[[Array, float], Array]
CoeffScalarFn = Callable[[Array, float], float]


class ScenarioError(ValueError):
    """Raised when a scenario description violates a structural requirement."""


@dataclass(eq=False)
class OperatorCoefficients:
    """Coefficients of the parabolic operator sum a_ij d2_ij + sum b_i d_i + c - d_t.

    ``a`` maps (x, t) to a symmetric positive definite (N, N) matrix, ``b`` to
    an (N,) drift and ``c`` to a scalar rate.  ``holder_constants`` declares
    the per-coefficient Hoelder constants in x (exponent alpha) and t
    (exponent alpha/2); ``mu0``/``mu1`` record the sampled eigenvalue range.
    """

    dimension: int
    a: CoeffMatrixFn
    b: CoeffVectorFn
    c: CoeffScalarFn
    is_constant: bool
    holder_exponent: float
    holder_constants: dict = field(default_factory=dict)
    mu0: float | None = None
    mu1: float | None = None

    @property
    def lambda0(self) -> float:
        if self.mu0 is None or self.mu1 is None:
            raise ScenarioError("eigenvalue range not probed yet")
        return lambda0_bound(self.mu0, self.mu1)


@dataclass(eq=False)
class GrowthSpec:
    """Declared data-regularity constants.

    ``C`` is the Gaussian-weight exponent, ``H`` the Hoelder constant of phi,
    ``HR`` maps a configuration radius to the Hoelder constant of g, ``M`` the
    linear-growth constant of the data (0 when unused) and ``T`` the time
    horizon.
    """

    C: float
    H: float
    HR: Callable[[float], float]
    M: float
    T: float


@dataclass(eq=False)
class ForceLaw:
    """Per-agent force with declared Lipschitz structure.

    ``eval(t, X, V, w, i)`` returns the (N,) force on agent i given the full
    configuration and that agent's sensed gradient w.  ``lipschitz_w`` bounds
    sensitivity in w, ``lipschitz_xv(radius)`` in (X, V) over a compact of the
    given radius, ``lipschitz_global`` (when not None) in all arguments
    jointly, which is what the global continuation requires.
    """

    eval: Callable[[float, Array, Array, Array, int], Array]
    lipschitz_w: float
    lipschitz_xv: Callable[[float], float]
    lipschitz_global: float | None = None


@dataclass(eq=False)
class Scenario:
    """Validated, immutable description of one coupled agent/signal problem."""

    coeffs: OperatorCoefficients
    phi: Callable[[Array], Array]
    g: Callable[[Array, Array], Array]
    force: ForceLaw
    n: int
    X0: Array
    V0: Array
    growth: GrowthSpec
    R: float = 1.0
    nonlocal_delta: float | None = None
    name: str = "scenario"

    @property
    def dimension(self) -> int:
        return self.coeffs.dimension

    @property
    def alpha(self) -> float:
        return self.coeffs.holder_exponent

    @property
    def lipschitz_w(self) -> float:
        return self.force.lipschitz_w

    def lipschitz_xv(self, radius: float) -> float:
        return self.force.lipschitz_xv(radius)

    @property
    def satisfies_global_hypotheses(self) -> bool:
        """True when the force is globally Lipschitz and the data carry a
        declared linear-growth constant, the preconditions for continuation."""
        return self.force.lipschitz_global is not None

    @cached_property
    def kernel(self) -> Kernel:
        return make_kernel(self.coeffs)

    @cached_property
    def estimate_params(self) -> EstimateParams:
        if not self.coeffs.is_constant:
            raise ScenarioError(
                "estimate constants require constant coefficients; "
                "variable-coefficient runs need an explicitly supplied horizon"
            )
        return default_estimate_params(self.kernel, self.growth, self.alpha)


def _probe_grid(dimension: int, horizon: float, half_width: float = 2.0,
                n_space: int = 5, n_time: int = 3) -> tuple[Array, Array]:
    axes = [np.linspace(-half_width, half_width, n_space)] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    times = np.linspace(0.0, horizon, n_time)
    return pts, times


def probe_parabolicity(coeffs: OperatorCoefficients, horizon: float) -> tuple[float, float]:
    """Sample a(x, t) on a default grid; check symmetry and return the
    eigenvalue range (mu0, mu1).  Raises on asymmetry or loss of positivity."""
    pts, times = _probe_grid(coeffs.dimension, horizon)
    if coeffs.is_constant:
        pts, times = pts[:1], times[:1]
    mu0, mu1 = np.inf, -np.inf
    for t in times:
        for x in pts:
            a = np.asarray(coeffs.a(x, float(t)), dtype=float)
            if a.shape != (coeffs.dimension, coeffs.dimension):
                raise ScenarioError(f"a(x,t) must have shape ({coeffs.dimension}, {coeffs.dimension})")
            if not np.allclose(a, a.T, rtol=1e-10, atol=1e-12):
                raise ScenarioError(f"a(x,t) not symmetric at x={x}, t={t}")
            eigs = np.linalg.eigvalsh(a)
            if eigs.min() <= 0:
                raise ScenarioError(f"nonpositive diffusion eigenvalue {eigs.min():g} at x={x}, t={t}")
            mu0 = min(mu0, float(eigs.min()))
            mu1 = max(mu1, float(eigs.max()))
    return mu0, mu1


def make_scenario(coeffs: OperatorCoefficients,
                  phi: Callable[[Array], Array],
                  g: Callable[[Array, Array], Array],
                  force: ForceLaw,
                  X0, V0,
                  growth: GrowthSpec,
                  R: float = 1.0,
                  nonlocal_delta: float | None = None,
                  name: str = "scenario") -> Scenario:
    """Validate parts and assemble a Scenario.

    Runs the sampled coefficient checks (symmetry, eigenvalue range), records
    mu0/mu1 on a copy of ``coeffs`` (the caller's object is left as is), and
    enforces the growth side condition C < lambda0 / (4 T).
    """
    if coeffs.dimension not in (1, 2, 3):
        raise ScenarioError("dimension must be 1, 2 or 3")
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    V0 = np.atleast_2d(np.asarray(V0, dtype=float))
    n = X0.shape[1]
    if n < 1:
        raise ScenarioError("need at least one agent")
    if X0.shape != (coeffs.dimension, n) or V0.shape != X0.shape:
        raise ScenarioError(
            f"initial state must have shape ({coeffs.dimension}, n); got {X0.shape} and {V0.shape}"
        )
    if not (0.0 < coeffs.holder_exponent < 1.0):
        raise ScenarioError("holder exponent must lie in (0, 1)")
    if growth.T <= 0:
        raise ScenarioError("horizon must be positive")
    if nonlocal_delta is not None and nonlocal_delta <= 0:
        raise ScenarioError("nonlocal sensing radius must be strictly positive")
    if R <= 0:
        raise ScenarioError("compact radius R must be positive")

    mu0, mu1 = probe_parabolicity(coeffs, growth.T)
    coeffs = replace(coeffs, mu0=mu0, mu1=mu1)

    lam0 = lambda0_bound(mu0, mu1)
    if growth.C < 0:
        raise ScenarioError("growth constant C must be nonnegative")
    if growth.C >= lam0 / (4.0 * growth.T):
        raise ScenarioError(
            f"growth constant C={growth.C:g} violates the parabolicity side "
            f"condition C < lambda0/(4T) = {lam0 / (4.0 * growth.T):g}"
        )
    radii = np.linspace(0.0, 10.0, 21)
    hr_vals = [growth.HR(float(r)) for r in radii]
    if any(b < a - 1e-12 for a, b in zip(hr_vals, hr_vals[1:])):
        raise ScenarioError("HR must be nondecreasing in the radius")

    return Scenario(coeffs=coeffs, phi=phi, g=g, force=force, n=n,
                    X0=X0.copy(), V0=V0.copy(), growth=growth, R=R,
                    nonlocal_delta=nonlocal_delta, name=name)


def build_scenario(config: dict) -> Scenario:
    """Build a Scenario from a parsed config mapping.

    The config names presets (or inline constant coefficients) and carries
    the initial state arrays; see `presets.preset_catalog` for the available
    names.  Construction is deterministic: equal configs give identical
    scenarios.
    """
    from . import presets

    return presets.scenario_from_config(config)
