"""Preset coefficients, data and force laws with analytically declared constants.

Every preset states its regularity constants (Hoelder constant, Gaussian
weight, linear-growth bound, Lipschitz constants) explicitly; the
verification module re-checks them by sampling.  All data callables are
vectorized over stacked points of shape (..., N); a source g(x, X) also takes
stacked configurations X of shape (..., N, n) whose leading axes broadcast
against those of x, so the field evaluator can pass one configuration per
point.  A force law takes stacked states X, V and sensed gradients W of
shape (..., N, n) and returns the force on every agent in the same shape.

A datum that is a sum of Gaussians declares it in a ``gaussian_source``
attribute (a `GaussianSource`), as a zero datum declares ``is_zero``; the
field evaluator then integrates it against the kernel in closed form.  The
sources ``agent-secretion`` and ``constant`` declare it; an initial datum
may, with its centre at the origin.  An initial datum whose second
derivatives are bounded declares the bound in a ``hessian_bound`` attribute
(`GrowthSpec.H2`): sup over x of |d2_ij phi(x)| for every i, j.
"""

from __future__ import annotations

import inspect
import math
from typing import NamedTuple

import numpy as np

from .scenario import (
    ForceLaw,
    GrowthSpec,
    OperatorCoefficients,
    Scenario,
    ScenarioError,
    make_scenario,
)

_ANISOTROPIC_DIAG = (0.5, 2.0, 1.25)


class GaussianSource(NamedTuple):
    """Declared structure of a datum weight * sum_c exp(-rate |x - c|^2).

    The centres c are the agent columns of X of a source g(x, X) when
    ``at_agents`` is true, and otherwise the origin alone, so rate 0 declares
    the constant ``weight``.  An initial datum phi(x) has no agents.
    """

    weight: float
    rate: float
    at_agents: bool


def coefficient_preset(name: str, dimension: int, alpha: float = 0.5) -> OperatorCoefficients:
    if name == "heat":
        return inline_coefficients(np.eye(dimension), alpha=alpha)
    if name == "anisotropic-constant":
        return inline_coefficients(np.diag(_ANISOTROPIC_DIAG[:dimension]), alpha=alpha)
    if name == "variable-sine":
        eye = np.eye(dimension)
        zero_b = np.zeros(dimension)

        def a_fn(x, t):
            x = np.asarray(x, dtype=float)
            return (1.0 + 0.5 * np.sin(x[..., 0]))[..., None, None] * eye

        return OperatorCoefficients(
            dimension=dimension,
            a=a_fn,
            b=lambda x, t: zero_b,
            c=lambda x, t: 0.0,
            is_constant=False,
            holder_exponent=alpha,
            mu0=0.5, mu1=1.5,  # the range of 1 + sin(x_0) / 2
        )
    raise ScenarioError(f"unknown coefficient preset {name!r}")


def inline_coefficients(a, b=None, c: float = 0.0, alpha: float = 0.5) -> OperatorCoefficients:
    """Constant coefficients from explicit arrays, which must be finite."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    dimension = a.shape[0]
    b = np.zeros(dimension) if b is None else np.asarray(b, dtype=float)
    c = float(c)
    for label, value in (("a", a), ("b", b)):
        if not all(map(math.isfinite, value.flat)):
            raise ScenarioError(f"coefficient {label} must be finite, got {value.tolist()!r}")
    if not math.isfinite(c):
        raise ScenarioError(f"coefficient c must be finite, got {c!r}")
    return OperatorCoefficients(
        dimension=dimension,
        a=lambda x, t: a,
        b=lambda x, t: b,
        c=lambda x, t: c,
        is_constant=True,
        holder_exponent=alpha,
    )


def phi_preset(name: str):
    """Initial datum callable plus its declared (H, C, M) constants; a datum
    with bounded second derivatives also declares their bound H2 in its
    ``hessian_bound`` attribute (only ``gaussian``: H2 = 2)."""
    if name == "zero":
        def zero_phi(x):
            return np.zeros(np.asarray(x).shape[:-1])
        zero_phi.is_zero = True  # lets evaluators skip the initial-datum quadrature
        return zero_phi, 0.0, 0.0, 0.0
    if name == "gaussian":
        def gaussian(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-np.sum(x * x, axis=-1))
        # |grad| <= sqrt(2) e^{-1/2} < 1 and |phi| <= 1, so H = 1 at alpha = 1/2
        # d2_ii phi = (4 x_i^2 - 2) e^{-|x|^2}, at most 2 in size (at x = 0),
        # and |d2_ij phi| = 4 |x_i x_j| e^{-|x|^2} <= 2/e for i != j
        gaussian.hessian_bound = 2.0
        return gaussian, 1.0, 0.0, 1.0
    if name == "abs-sqrt":
        def abs_sqrt(x):
            x = np.asarray(x, dtype=float)
            return np.sqrt(np.linalg.norm(x, axis=-1))
        # | |x|^(1/2) - |y|^(1/2) | <= |x - y|^(1/2)
        return abs_sqrt, 1.0, 0.0, 1.0
    raise ScenarioError(f"unknown phi preset {name!r}")


def g_preset(name: str, n_agents: int, value: float = 1.0):
    """Source callable g(x, X) plus declared (HR, C, M).  Positive g depletes
    the signal; the agent-secretion preset is therefore negative."""
    if name == "zero":
        def zero_g(x, X):
            return np.zeros(np.asarray(x).shape[:-1])
        zero_g.is_zero = True  # lets evaluators skip the source quadrature
        return zero_g, (lambda r: 0.0), 0.0, 0.0
    if name == "constant":
        def const(x, X):
            return np.full(np.asarray(x).shape[:-1], value)
        const.gaussian_source = GaussianSource(float(value), 0.0, False)
        return const, (lambda r: 0.0), 0.0, abs(value)
    if name == "agent-secretion":
        def secretion(x, X):
            x = np.asarray(x, dtype=float)
            X = np.asarray(X, dtype=float)
            # X has shape (..., N, n); one pass per agent and axis keeps the
            # long stacked-point axes innermost
            total = 0.0
            for a in range(X.shape[-1]):
                sq = 0.0
                for d in range(X.shape[-2]):
                    diff = x[..., d] - X[..., d, a]
                    sq = sq + diff * diff
                total = total + np.exp(-sq)
            return -total
        secretion.gaussian_source = GaussianSource(-1.0, 1.0, True)
        return secretion, (lambda r: float(n_agents)), 0.0, float(n_agents)
    raise ScenarioError(f"unknown g preset {name!r}")


def force_preset(name: str, chi: float = 1.0, kappa_v: float = 1.0) -> ForceLaw:
    """Force law on stacked states (see `ForceLaw`): each preset reads column
    j of W only for column j of the force, and declares its drag
    ``damping``, kappa_v for damped-chemotaxis and 0 for the others."""
    if name == "zero":
        def zero_force(t, X, V, W):
            return np.zeros(np.shape(X))
        return ForceLaw(eval=zero_force, lipschitz_w=0.0,
                        lipschitz_xv=lambda r: 0.0, lipschitz_global=0.0)
    if name == "pure-chemotaxis":
        def pure(t, X, V, W):
            return chi * W
        return ForceLaw(eval=pure, lipschitz_w=chi,
                        lipschitz_xv=lambda r: 0.0, lipschitz_global=chi)
    if name == "damped-chemotaxis":
        def damped(t, X, V, W):
            return -kappa_v * V + chi * W
        return ForceLaw(eval=damped, lipschitz_w=chi,
                        lipschitz_xv=lambda r: kappa_v,
                        lipschitz_global=max(chi, kappa_v), damping=kappa_v)
    if name == "saturating-chemotaxis":
        def saturating(t, X, V, W):
            # |w_j| per column; vecdot rounds it as np.linalg.norm(w_j) does
            norms = np.sqrt(np.vecdot(W, W, axis=-2))[..., None, :]
            return chi * W / (1.0 + norms)
        # Jacobian norm of w -> w/(1+|w|) is (1+2|w|)/(1+|w|)^2 <= 1
        return ForceLaw(eval=saturating, lipschitz_w=chi,
                        lipschitz_xv=lambda r: 0.0, lipschitz_global=chi)
    raise ScenarioError(f"unknown force preset {name!r}")


def preset_catalog() -> dict[str, tuple[str, ...]]:
    """Names of the built-in presets, by kind."""
    return {
        "coefficients": ("heat", "anisotropic-constant", "variable-sine"),
        "phi": ("zero", "gaussian", "abs-sqrt"),
        "g": ("zero", "constant", "agent-secretion"),
        "force": ("zero", "pure-chemotaxis", "damped-chemotaxis", "saturating-chemotaxis"),
    }


def _number(key: str, value) -> float:
    """The number ``value`` of the config key ``key`` as a float; any other
    value, a bool or a string of digits too, raises ScenarioError naming
    the key."""
    # a float is tested first, alone, as most values are; bool is an int
    if isinstance(value, float) or (isinstance(value, (int, np.integer, np.floating))
                                    and not isinstance(value, bool)):
        return float(value)
    raise ScenarioError(f"config key {key!r} must be numeric, got {value!r}")


def _integer(key: str, value) -> int:
    """``_number`` of an integral value, as an int; 1.7 raises
    ScenarioError naming the key, where ``int()`` would truncate it."""
    number = _number(key, value)
    if not number.is_integer():
        raise ScenarioError(f"config key {key!r} must be an integer, got {value!r}")
    return int(number)


def _holds_bool(value) -> bool:
    """Whether ``value`` is a bool or a nested list or tuple holding one."""
    if isinstance(value, (list, tuple)):
        for item in value:  # a loop, not any(), which costs a call per level
            if _holds_bool(item):
                return True
        return False
    return isinstance(value, (bool, np.bool_))


def _array(key: str, value) -> np.ndarray:
    """The array of numbers ``value`` of the config key ``key`` as floats.
    One ``np.asarray`` reads it, and its dtype must be integer or float: bool,
    string, mixed and ragged entries raise ScenarioError naming the key.  A
    bool among numbers, which ``np.asarray`` reads as 0 or 1, raises too."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ScenarioError(f"config key {key!r} must be numeric, got {value!r}")
    return arr if arr.dtype == float else arr.astype(float)


def _from_spec(spec, preset, *args):
    """The preset a config names: a bare name, or a mapping of its name and
    keyword parameters, each converted to float.  Any other spec, a
    parameter that is not numeric, or one the preset does not take raises
    ScenarioError naming it; an error raised inside the preset propagates."""
    kind = preset.__name__.removesuffix("_preset")
    if isinstance(spec, str):
        return preset(spec, *args)
    if not isinstance(spec, dict):
        raise ScenarioError(f"config key {kind!r} must be a preset name or a mapping, "
                            f"got {spec!r}")
    params = {key: _number(f"{kind}.{key}", value)
              for key, value in spec.items() if key != "name"}
    try:
        return preset(spec.get("name"), *args, **params)
    except TypeError:
        # an unknown keyword fails the call before the preset runs; the
        # keyword parameters follow the name and the positional arguments
        accepted = list(inspect.signature(preset).parameters)[1 + len(args):]
        unknown = [key for key in params if key not in accepted]
        if not unknown:
            raise
        raise ScenarioError(f"unknown parameter {unknown[0]!r} for {kind} preset "
                            f"{spec.get('name')!r}; it takes {', '.join(accepted)}") from None


def scenario_from_config(config: dict) -> Scenario:
    """Assemble and validate a Scenario from a parsed config mapping; a
    value of the wrong type, such as a string for a number, raises
    ScenarioError naming its key."""
    try:
        dimension = _integer("dimension", config["dimension"])
        horizon = _number("horizon", config["horizon"])
        X0 = _array("X0", config["X0"])
        V0 = _array("V0", config["V0"])
    except KeyError as exc:
        raise ScenarioError(f"config missing required key {exc.args[0]!r}") from None
    alpha = _number("alpha", config.get("alpha", 0.5))

    coeff_spec = config.get("coefficients", "heat")
    if isinstance(coeff_spec, str):
        coeffs = coefficient_preset(coeff_spec, dimension, alpha)
    elif not (isinstance(coeff_spec, dict) and "a" in coeff_spec):
        raise ScenarioError(f"config key 'coefficients' must be a preset name or a mapping "
                            f"with an 'a', got {coeff_spec!r}")
    else:
        b = coeff_spec.get("b")
        coeffs = inline_coefficients(_array("coefficients.a", coeff_spec["a"]),
                                     None if b is None else _array("coefficients.b", b),
                                     _number("coefficients.c", coeff_spec.get("c", 0.0)), alpha)
    if coeffs.dimension != dimension:
        raise ScenarioError("coefficient dimension does not match config dimension")

    X0 = np.atleast_2d(X0)
    n_agents = X0.shape[1]
    phi, h_phi, c_phi, m_phi = phi_preset(config.get("phi", "zero"))
    g, hr, c_g, m_g = _from_spec(config.get("g", "zero"), g_preset, n_agents)
    force = _from_spec(config.get("force", "zero"), force_preset)

    overrides = config.get("growth", {})
    if not isinstance(overrides, dict):
        raise ScenarioError(f"config key 'growth' must be a mapping, got {overrides!r}")
    growth = GrowthSpec(
        C=_number("growth.C", overrides.get("C", max(c_phi, c_g))),
        H=_number("growth.H", overrides.get("H", h_phi)),
        HR=hr,
        M=_number("growth.M", overrides.get("M", max(m_phi, m_g))),
        T=horizon,
        H2=getattr(phi, "hessian_bound", None),
    )
    return make_scenario(
        coeffs, phi, g, force, X0, V0, growth,
        R=_number("R", config.get("R", 1.0)),
        nonlocal_delta=(_number("delta", config["delta"]) if config.get("delta") is not None
                        else None),
    )
