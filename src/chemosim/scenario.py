"""Problem-instance types: operator coefficients, data, force laws, scenarios.

A Scenario bundles everything a solver run needs — the parabolic operator,
the initial signal phi, the source g, the force law, agent initial state and
the declared growth/regularity constants.  Scenarios are immutable after
construction and all stored callables are pure, so instances are safe to
share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    an (N,) drift and ``c`` to a scalar rate; ``mu0``/``mu1`` bound the
    eigenvalues of a.  Variable coefficients must declare them, and
    `make_scenario` checks the declaration on a sample grid; constant
    coefficients may leave them None, and `make_scenario` records their
    exact spectrum.
    """

    dimension: int
    a: CoeffMatrixFn
    b: CoeffVectorFn
    c: CoeffScalarFn
    is_constant: bool
    holder_exponent: float
    mu0: float | None = None
    mu1: float | None = None

    @property
    def lambda0(self) -> float:
        if self.mu0 is None or self.mu1 is None:
            raise ScenarioError("eigenvalue range not probed yet")
        return lambda0_bound(self.mu0, self.mu1)

    @cached_property
    def kernel(self) -> Kernel:
        """The closed-form kernel of constant coefficients, built on first
        use and kept with them, so every scenario that shares them (a
        `dataclasses.replace` copy too) shares it."""
        return make_kernel(self)


@dataclass(eq=False)
class GrowthSpec:
    """Declared data-regularity constants.

    ``C`` is the Gaussian-weight exponent, ``H`` the Hoelder constant of phi,
    ``HR`` maps a configuration radius to the Hoelder constant of g, ``M`` the
    linear-growth constant of the data (0 when unused) and ``T`` the time
    horizon.  ``H2``, when declared, bounds the second derivatives of phi:
    sup over x of |d2_ij phi(x)| for every i, j.  With constant coefficients
    the certificate then bounds the hessian of phi's part of the field by it
    (`picard.contraction_S`); None declares nothing.
    """

    C: float
    H: float
    HR: Callable[[float], float]
    M: float
    T: float
    H2: float | None = None


@dataclass(eq=False)
class ForceLaw:
    """Force on every agent, with declared Lipschitz structure.

    ``eval(t, X, V, W)`` returns the forces F, of the same shape as X.  X,
    V and the sensed gradients W have shape (..., N, n): column j is agent
    j, and leading axes stack configurations (one per time node, say).  t
    is a scalar or has shape ``X.shape[:-2]``.  Column j of F may depend on
    W only through column j, the agent's own sensed gradient w_j; that is
    the structure F_j(t, X, V, w_j) of the model.  ``lipschitz_w`` bounds
    the sensitivity of F_j in w_j, ``lipschitz_xv(radius)`` in (X, V) over
    a compact of the given radius, and ``lipschitz_global`` (when not None)
    in all arguments jointly, which is what the global continuation
    requires.

    ``damping`` declares the force's linear drag kappa >= 0: F(t, X, V, W)
    + kappa V does not depend on V.  The Picard sweep integrates that part
    implicitly (`picard._sweep`); 0, the default, declares no drag and is
    right for every force, since the sweep then reads F as it is.
    """

    eval: Callable[[float | Array, Array, Array, Array], Array]
    lipschitz_w: float
    lipschitz_xv: Callable[[float], float]
    lipschitz_global: float | None = None
    damping: float = 0.0


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
        """True when the force is globally Lipschitz, the precondition for
        continuation; only the force is read, as ``GrowthSpec.M`` is always declared and checked."""
        return self.force.lipschitz_global is not None

    @property
    def kernel(self) -> Kernel:
        return self.coeffs.kernel

    @cached_property
    def estimate_params(self) -> EstimateParams:
        if not self.coeffs.is_constant:
            raise ScenarioError(
                "estimate constants require constant coefficients; "
                "variable-coefficient runs need an explicitly supplied horizon"
            )
        return default_estimate_params(self.kernel, self.growth, self.alpha)


def _probe_grid(dimension: int, horizon: float) -> tuple[Array, Array]:
    """5 points per axis on [-2, 2]^N and 3 times on [0, horizon]."""
    axes = [np.linspace(-2.0, 2.0, 5)] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts, np.linspace(0.0, horizon, 3)


def probe_parabolicity(coeffs: OperatorCoefficients, horizon: float) -> tuple[float, float]:
    """Sample a(x, t) on a default grid, at one point for constant
    coefficients; check symmetry and return the sampled eigenvalue range
    (mu0, mu1), the exact spectrum for constant coefficients.  Raises on
    asymmetry or loss of positivity."""
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
                  nonlocal_delta: float | None = None) -> Scenario:
    """Validate parts and assemble a Scenario.

    Every number a certificate reads is checked by name: the initial state
    must be finite, and H, M, the force's Lipschitz constants (in (X, V)
    at the radius R) and its damping finite and nonnegative.  Variable coefficients must
    declare their eigenvalue range (mu0, mu1), which the sampled coefficient
    checks (symmetry, eigenvalue range) must not leave; a declared range is
    kept.  Constant coefficients that declare none get their exact spectrum,
    from one sample, on a copy of ``coeffs`` (the caller's object is left as
    is).  Enforces the growth side condition C < lambda0 / (4 T).
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
    for label, state in (("X0", X0), ("V0", V0)):
        if not all(map(math.isfinite, state.flat)):
            raise ScenarioError(f"initial state {label} must be finite, got {state.tolist()!r}")
    if not (0.0 < coeffs.holder_exponent < 1.0):
        raise ScenarioError("holder exponent must lie in (0, 1)")
    for label, value in (("horizon", growth.T), ("compact radius R", R),
                         ("nonlocal sensing radius delta", nonlocal_delta)):
        if value is not None and not 0.0 < value < math.inf:  # NaN too
            raise ScenarioError(f"{label} must be positive and finite, got {value!r}")
    if not growth.C >= 0:  # NaN too
        raise ScenarioError(f"growth constant C must be nonnegative, got {growth.C!r}")
    for label, value in (("growth constant H", growth.H), ("growth constant M", growth.M),
                         ("declared hessian bound H2", growth.H2),
                         ("force Lipschitz constant lipschitz_w", force.lipschitz_w),
                         ("force Lipschitz constant lipschitz_xv(R)", force.lipschitz_xv(R)),
                         ("force Lipschitz constant lipschitz_global", force.lipschitz_global),
                         ("force damping", force.damping)):
        if value is not None and not 0.0 <= value < math.inf:  # NaN too
            raise ScenarioError(f"{label} must be finite and nonnegative, got {value!r}")
    if getattr(getattr(phi, "gaussian_source", None), "at_agents", False):
        raise ScenarioError("an initial datum has no agents to centre its Gaussians at")

    declared = coeffs.mu0 is not None and coeffs.mu1 is not None
    if not declared and not coeffs.is_constant:
        raise ScenarioError(f"variable coefficients must declare their eigenvalue range: "
                            f"mu0 and mu1, got mu0={coeffs.mu0!r}, mu1={coeffs.mu1!r}")
    if declared and not 0.0 < coeffs.mu0 <= coeffs.mu1 < math.inf:  # NaN too
        raise ScenarioError(f"declared eigenvalue range needs 0 < mu0 <= mu1 < inf, "
                            f"got mu0={coeffs.mu0!r}, mu1={coeffs.mu1!r}")
    mu0, mu1 = probe_parabolicity(coeffs, growth.T)
    if declared:  # slack for rounding
        if mu0 < coeffs.mu0 * (1.0 - 1e-12) or mu1 > coeffs.mu1 * (1.0 + 1e-12):
            raise ScenarioError(f"sampled diffusion eigenvalues [{mu0:g}, {mu1:g}] leave "
                                f"the declared range [{coeffs.mu0:g}, {coeffs.mu1:g}]")
    else:
        coeffs = replace(coeffs, mu0=mu0, mu1=mu1)

    lam0 = coeffs.lambda0
    if growth.C >= lam0 / (4.0 * growth.T):
        raise ScenarioError(
            f"growth constant C={growth.C:g} violates the parabolicity side "
            f"condition C < lambda0/(4T) = {lam0 / (4.0 * growth.T):g}"
        )
    hr_vals = [growth.HR(0.5 * k) for k in range(21)]  # radii 0, 0.5, ..., 10
    if any(b < a - 1e-12 for a, b in zip(hr_vals, hr_vals[1:])):
        raise ScenarioError("HR must be nondecreasing in the radius")

    return Scenario(coeffs=coeffs, phi=phi, g=g, force=force, n=n,
                    X0=X0.copy(), V0=V0.copy(), growth=growth, R=R,
                    nonlocal_delta=nonlocal_delta)


def build_scenario(config: dict) -> Scenario:
    """Build a Scenario from a parsed config mapping.

    The config names presets (or inline constant coefficients) and carries
    the initial state arrays; see `presets.preset_catalog` for the available
    names.  Construction is deterministic: equal configs give identical
    scenarios.
    """
    from . import presets

    return presets.scenario_from_config(config)
