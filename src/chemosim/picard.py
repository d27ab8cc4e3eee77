"""Fixed-point solution of the coupled agent/signal system.

The agents obey X' = V and V' = F(t, X, V, w), where w_j is the field
gradient at agent j (or its ball average in the non-local mode).  The
force's declared drag kappa (`ForceLaw.damping`) splits it as F = G - kappa
V, with G = F + kappa V free of V.  The update map sends a candidate
trajectory (X, V) to

    V_j(t) = e^{-kappa (t - t0)} V0_j
             + integral_t0^t e^{-kappa (t - tau)} G_j(tau, X, V, w_j(tau))
    X_j(t) = X0_j + integral_t0^t V_j,   with the *new* V

with the field always evaluated along the *input* path.  The drag is taken
implicitly and the kinematic row reads the velocity just computed: the
Nystroem and exponential-integrator treatment of second-order motion
(Hairer, Noersett and Wanner, Solving ODEs I, sec. II.14; Hochbruck and
Ostermann, Acta Numerica 19:209, 2010).  ``_sweep`` discretizes V by the
implicit trapezoid rule and X by the trapezoid rule, so its fixed points
are those of the first-order map X = X0 + trap(V), V = V0 + trap(F); only
the iterates differ.  When the declared drag is all of F's dependence on V,
the image reads the input's X alone, and on S1 a sweep contracts by about
1e-4 (1D) and 5e-5 (2D) where the first-order map's did by about 1e-2.  On
a short enough horizon the map is a contraction and Picard iteration
converges to the unique solution; a certificate records the horizon and the
certified contraction modulus.  Global solutions are produced by restarting
from the endpoint state until the requested horizon is covered.

Picard iteration on a continued segment starts from a cubic extrapolation of
the segment before it, which is usually within tol of the fixed point after
one sweep.  A segment with no segment before it (the first segment of a
global solve, and every local solve) starts from its first-order Taylor
path, V(t) = V0 + F0 (t - t0) with F0 the force at the initial state and its
sensed gradient.  A start that would leave the certificate's tube falls
back to the path frozen at the segment's initial state.  The certificate
covers every start, since the map sends the tube into itself.

One segment engine implements this: ``_sweep`` applies the update map once
on a segment grid, with one batched field evaluation for every (node,
agent) pair, one force-law call, one implicit trapezoid recurrence for V
and one trapezoid pass for X per sweep, and ``_iterate_segment`` runs
Picard iteration on it.  Each path is checked
against the tube once before it is swept; a node whose distance from the
anchor is not finite counts as outside, so a NaN path fails at its first
such node.  Only a segment's start path validates its grid; the iterates
and the join onto the solution reuse it (`AgentPath.concat` checks the
junction).  ``apply_psi`` is a single sweep, ``solve_local`` one iterated
segment on [0, t_bar] and ``solve_global`` one iterated segment per
certificate.

One certificate core serves every entry point that reads the certificate
constants (``horizon_T1``, ``contraction_S``, ``horizon_certificate``):
``_certificate_bounds`` resolves and checks the radius, the estimate params
and the sensing radius once and derives T1 and the tuple of S's inputs, and
``_s_value`` evaluates S from that tuple alone.  The contraction horizon T2
is bisected on S from that tuple, the cap and t0 (``_contraction_horizon``),
once per certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import (DEFAULT_QUAD, FieldProbe, FieldTable, QuadratureSpec, sensed_gradients,
                    sensing_table)
from .kernel import EstimateParams, ell, sphere_area
from .paths import AgentPath
from .quadrature import gauss_legendre, trapezoid_cumulative
from .scenario import Scenario

__all__ = [
    "AgentPath",
    "HorizonCertificate",
    "SegmentRecord",
    "PicardError",
    "apply_psi",
    "horizon_T1",
    "contraction_S",
    "horizon_certificate",
    "solve_local",
    "solve_global",
    "gronwall_bound_B",
    "apriori_grad_bound",
]

MODE_POINTWISE = "pointwise"
MODE_NONLOCAL = "nonlocal"

# a certified horizon makes S at most 1 - _S_MARGIN
_S_MARGIN = 0.1
# fewest time nodes of a segment grid, however short the segment
_MIN_NODES = 17
# how a segment's Picard iteration started (SegmentRecord.start)
START_CONSTANT = "constant"
START_TAYLOR = "taylor"
START_EXTRAPOLATED = "extrapolated"
# row i: the nodes j != i, in index order, whose factors make the cubic
# Lagrange basis i of _start_path
_OTHER_NODES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_OTHER_NODES.setflags(write=False)


class PicardError(RuntimeError):
    """Raised when iteration leaves its certified tube or fails to converge."""


@dataclass(frozen=True)
class HorizonCertificate:
    """Certified solve horizon.

    ``t_range`` keeps the update map inside the tube of radius ``radius``
    (the scenario's R unless issued for another), which Picard iteration
    checks every path against; ``t_contract`` makes its modulus S drop below
    one (with margin), and ``t_bar`` is the
    working horizon (safety factor times the smaller of the two).  ``s_value``
    is S at ``t_bar``, with the exponential factor e^{2 kappa (|X0|^2 + R^2 +
    delta^2)} the proof uses; ``gamma_bar`` must stay positive for the decay
    estimates to hold.
    """

    t_range: float            # T1
    t_contract: float         # T2
    t_bar: float
    s_value: float
    gamma_bar: float
    radius: float
    mode: str = MODE_POINTWISE
    delta: float | None = None
    constants: dict | None = None

    def __post_init__(self):
        for name in ("t_range", "t_contract", "t_bar"):
            _positive_finite(f"certificate {name}", getattr(self, name))
        if not (self.s_value < 1.0):
            raise ValueError("certificate requires S(t_bar) < 1")
        if not (self.gamma_bar > 0.0):
            raise ValueError("certificate requires gamma_bar > 0")
        if self.t_bar > self.t_range * (1.0 + 1e-12):
            raise ValueError("t_bar may not exceed the range horizon")


@dataclass(frozen=True)
class SegmentRecord:
    t_start: float
    t_end: float
    certificate: HorizonCertificate
    iterations: int
    final_diff: float
    start: str = START_CONSTANT   # or START_TAYLOR, START_EXTRAPOLATED


def _state_norms(scenario: Scenario) -> tuple[float, float]:
    """(|X0|, |V0|) in the stacked configuration vector: ``np.linalg.norm``'s
    own sum (one dot product in memory order), without its dispatch."""
    x = np.asarray(scenario.X0, dtype=float).ravel(order="K")
    v = np.asarray(scenario.V0, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x)), math.sqrt(v.dot(v))


def _positive_finite(name: str, value: float | None) -> float:
    """``value`` when it is positive and finite; otherwise (None and NaN
    included) a ValueError naming ``name``."""
    if value is None or not 0.0 < value < math.inf:  # NaN too
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _gamma_bar(lambda0_star: float, c: float, t_bar: float) -> float:
    return lambda0_star / 4.0 - 2.0 * c * t_bar


def _certificate_bounds(scenario: Scenario, radius: float | None,
                        params: EstimateParams | None,
                        delta: float | None) -> tuple[float, EstimateParams, float, tuple]:
    """(R, params, T1, the inputs of S) for the radius R (default: the
    scenario's) and the estimate params (default: the scenario's), with the
    sensing radius delta, or None for pointwise sensing.  R and a given delta
    must be positive and finite (ValueError naming the argument).

    Every input of S that does not depend on t_bar is derived here, once, and
    ``_s_value`` reads nothing else, so equal tuples give equal S at every
    t_bar."""
    r = _positive_finite("radius", radius if radius is not None else scenario.R)
    params = params if params is not None else scenario.estimate_params
    d = _positive_finite("sensing radius delta", delta) if delta is not None else 0.0
    n, n_dim, alpha, growth = scenario.n, scenario.dimension, scenario.alpha, scenario.growth
    x0_norm, v0_norm = _state_norms(scenario)
    l_f = scenario.lipschitz_w
    l_f_r = scenario.lipschitz_xv(r)
    h_x = growth.HR(x0_norm + r)
    h_r = growth.HR(x0_norm + r + d)
    spread = x0_norm**2 + r**2 + d * d
    expfac = math.exp(2.0 * params.kappa * spread)

    first = r / (n * (r + v0_norm))
    if l_f > 0 and params.big_k > 0:
        denom = (2.0 * n * math.sqrt(n_dim) * l_f * params.big_k * expfac / (alpha + 1.0)) \
            * (1.0 + 2.0 * h_x / (alpha + 3.0))
        second = (r / denom) ** (2.0 / (alpha + 1.0))
    else:
        second = math.inf
    t1 = min(first, second, growth.T)

    # whole left prefixes of terms 2 and 3, so every product keeps its order
    pre2 = l_f * n_dim**2 * params.big_k * expfac
    pre3 = l_f * params.c_gamma * h_r * math.exp(2.0 * growth.C * spread)
    # the declared bound of phi's part of term 2 (constant coefficients only)
    pre2_phi = None
    if growth.H2 is not None and scenario.coeffs.is_constant:
        pre2_phi = l_f * n_dim**2 * growth.H2 * math.exp(max(scenario.kernel.c, 0.0) * growth.T)
    s_inputs = (l_f_r, pre2, pre3, growth.H, h_x, alpha, growth.C, params.lambda0_star, n_dim,
                pre2_phi)
    return r, params, t1, s_inputs


def _s_value(s_inputs: tuple, t_bar: float, t0: float = 0.0) -> float:
    """S at t_bar on the window [t0, t0 + t_bar] from the inputs
    ``_certificate_bounds`` derives: the one place that evaluates S's three
    terms (see ``contraction_S``)."""
    l_f_r, pre2, pre3, h, h_x, alpha, c, lambda0_star, n_dim, pre2_phi = s_inputs
    gamma_bar = _gamma_bar(lambda0_star, c, t_bar)
    if gamma_bar <= 0:
        raise ValueError("t_bar too large: gamma_bar = lambda0*/4 - 2*C*t_bar must be positive")
    term1 = 2.0 * l_f_r * t_bar
    envelope = pre2 * t_bar ** (alpha / 2.0) * (2.0 / alpha)
    # g's part peaks at the window's end: (t0 + t_bar)^(alpha/2) in place of
    # t_bar^(alpha/2), a factor that is 1.0 exactly at t0 = 0
    h_x_window = (t0 + t_bar) ** (alpha / 2.0) / t_bar ** (alpha / 2.0) * h_x
    if pre2_phi is None:
        term2 = envelope * (h + h_x_window * t_bar)
    else:  # phi's part: the smaller of the envelope's and the declared H2's
        term2 = min(envelope * h, pre2_phi * t_bar) + envelope * h_x_window * t_bar
    term3 = pre3 * (math.pi / gamma_bar) ** (n_dim / 2.0) * t_bar**1.5
    return term1 + term2 + term3


def horizon_T1(scenario: Scenario, radius: float | None = None,
               params: EstimateParams | None = None,
               delta: float | None = None) -> float:
    """Horizon keeping the update map's range inside the radius-R tube,
    capped at the scenario horizon."""
    return _certificate_bounds(scenario, radius, params, delta)[2]


def contraction_S(scenario: Scenario, radius: float | None = None,
                  t_bar: float | None = None,
                  params: EstimateParams | None = None,
                  delta: float | None = None, t0: float = 0.0) -> float:
    """Certified contraction modulus S at horizon t_bar, on the segment
    [t0, t0 + t_bar], the sum of three terms:

    1. force (X, V): 2 L_F(R) t_bar, the force's direct sensitivity;
    2. hessian/position: the gradient's sensitivity to the probe position,
       through the hessian bound K and e^{2 kappa (|X0|^2 + R^2 + delta^2)},
       or, for phi's part, through a declared H2 (below);
    3. source/path: the gradient's sensitivity to the path through the
       source, through C_gamma and (pi / gamma_bar)^{N/2}.

    t_bar must be positive and finite, gamma_bar = lambda0*/4 - 2 C t_bar
    positive, and the segment start t0 at least 0 and finite.

    The claim.  For paths x = (X, V) and y = (X', V') in the tube, the
    update map (module docstring) moves by |Psi x - Psi y| <= S |x - y| in
    the tube's norm, sup over t of max(|X(t)|, |V(t)|), each stacked over the
    agents (``_tube_exit`` measures it).  Write dX = X - X', and so on.
    - The V row.  With no drag declared, the drive G = F moves by |dG| <=
      L_F(R) |(dX, dV)| + L_F |dw| <= 2 L_F(R) |x - y| + L_F |dw|.  With a
      declared drag, G = F + kappa V is free of V, so dG = F(X, V, w) -
      F(X', V, w') moves by at most L_F(R) |dX| + L_F |dw|.  The new V is
      dV_new(t) = integral_t0^t e^{-kappa (t - tau)} dG(tau), and
      e^{-kappa (t - tau)} <= 1, so |dV_new(t)| <= integral over the window
      of |dG| <= S |x - y|: term 1 charges the first part and terms 2 and 3
      the integral of L_F |dw| (below).  The discrete recurrence keeps the
      bound, since the absolute weights of G in V_i sum to at most t_i - t0
      (``_damped_trapezoid``).
    - The X row.  dX_new(t) = integral_t0^t dV_new, so |dX_new(t)| <= t_bar
      sup |dV_new| <= sup |dV_new| for t_bar <= 1.  Every certificate has
      t_bar <= T1 <= R / (n (R + |V0|)) <= 1.
    So both rows are bounded by S |x - y|.  A first-order map, X0 + the
    integral of the *input* V, moves X by t_bar |dV| whatever the force
    does, which S charges only through term 1, so not at all for a force
    with L_F(R) = 0.

    Term 2.  Two input paths X, Y move w_j(s) = grad f(X_j(s), s) by at
    most sup|D^2 f(., s)| |X_j(s) - Y_j(s)| through the probe position,
    with |D^2 f| <= N^2 max_ij |d2_ij f|, and the force turns that into an
    L_F share of the velocity's integral.  So term 2 is L_F N^2 times the
    integral over the segment's window of the entrywise hessian bound of f
    on the tube, |x| <= |X0| + R (+ delta).  A ball average of grad f moves
    by at most sup|D^2 f| |x - y| too, so non-local sensing takes the same
    term.  The field is linear in its data, f = f_phi + f_g, and
    ``verify.check_prop1``'s hessian bound splits the same way:

        |d2_ij f(x, s)| <= K e^{kappa |x|^2} (H s^(alpha/2 - 1) + (2/alpha) s^(alpha/2) H_X)

    with e^{kappa |x|^2} <= e^{2 kappa (|X0|^2 + R^2 + delta^2)} on the tube.
    Integrated over [0, t], phi's part gives (2/alpha) t^(alpha/2) H and
    g's part (2/alpha) (2/(alpha+2)) t^(alpha/2 + 1) H_X, which the
    (2/alpha) t^(alpha/2) H_X t that S charges bounds.  Hence term 2 =
    L_F N^2 K e^{2 kappa (...)} (2/alpha) t^(alpha/2) (H + H_X t).

    A declared H2 (``GrowthSpec.H2``) bounds phi's part with no singularity
    at s = 0.  For constant coefficients f_phi(x, s) = e^{c s} integral
    p_s(y) phi(x + b s - y) dy, with p_s the N(0, 2 s a) density, a
    probability density: the drift b shifts the argument and c scales by
    e^{c s}.  Differentiating under the integral, |d2_ij f_phi(., s)| <=
    e^{c s} integral p_s |d2_ij phi| <= e^{max(c, 0) T} H2 for every s in
    [0, T], and its integral over a window of length t is at most
    e^{max(c, 0) T} H2 t.  Both bounds are proofs, so phi's part of term 2
    is L_F N^2 min(K e^{2 kappa (...)} (2/alpha) t^(alpha/2) H,
    e^{max(c, 0) T} H2 t); g's part is unchanged.  Undeclared H2, and
    variable coefficients, keep the envelope alone, bit for bit.

    Windows.  A continued segment covers [t0, t0 + t_bar].  phi's envelope
    part s^(alpha/2 - 1) decreases, so [0, t_bar] is its largest window of
    that length, and S charges phi's part over [0, t_bar]; the declared
    part is constant in the window.  g's part s^(alpha/2) grows, so over
    [t0, t0 + t_bar] it is at most (t0 + t_bar)^(alpha/2) times the
    window's length: S charges g's part as
    L_F N^2 K e^{2 kappa (...)} (2/alpha) (t0 + t_bar)^(alpha/2) H_X t_bar,
    which is the term above at t0 = 0.
    """
    _positive_finite("t_bar", t_bar)
    _segment_start(t0)
    return _s_value(_certificate_bounds(scenario, radius, params, delta)[3], t_bar, t0)


def _segment_start(t0: float) -> None:
    """Check the segment start t0, which must be at least 0 and finite."""
    if not 0.0 <= t0 < math.inf:  # NaN too
        raise ValueError(f"segment start t0 must be non-negative and finite, got {t0!r}")


def _contraction_horizon(s_inputs: tuple, cap: float, t0: float) -> float:
    """T2 of a segment starting at t0: the cap when S(cap) <= 1 - _S_MARGIN,
    else the largest t in (0, cap) that bisection to adjacent floats finds
    with S(t) <= 1 - _S_MARGIN."""
    target = 1.0 - _S_MARGIN
    if _s_value(s_inputs, cap, t0) <= target:
        return cap
    lo, hi = 0.0, cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: nothing can change
        if _s_value(s_inputs, mid, t0) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def horizon_certificate(scenario: Scenario, radius: float | None = None,
                        mode: str = MODE_POINTWISE,
                        delta: float | None = None,
                        params: EstimateParams | None = None,
                        safety: float = 0.9, t0: float = 0.0) -> HorizonCertificate:
    """Compute the certified horizon of a segment starting at t0: T2 by
    bisection on S = 1 - _S_MARGIN (intersected with the gamma_bar > 0
    constraint), t_bar = safety * min(T1, T2), with safety in (0, 1].  The
    radius, the params, the sensing radius (``_resolve_delta``) and t0 are
    resolved and checked as for ``horizon_T1`` and ``contraction_S``."""
    if not 0.0 < safety <= 1.0:  # NaN too
        raise ValueError(f"safety must lie in (0, 1], got {safety!r}")
    _segment_start(t0)
    delta = _resolve_delta(scenario, mode, delta)
    r, params, t1, s_inputs = _certificate_bounds(scenario, radius, params, delta)
    growth = scenario.growth

    cap = growth.T
    if growth.C > 0:
        cap = min(cap, 0.999 * params.lambda0_star / (8.0 * growth.C))
    if cap <= 0:
        raise ValueError("degenerate constants: no admissible contraction horizon")

    t2 = _contraction_horizon(s_inputs, cap, t0)
    if t2 <= 0:
        raise ValueError("degenerate constants: no positive horizon satisfies the contraction condition")

    t_bar = safety * min(t1, t2)
    if t_bar <= 0:
        raise ValueError("degenerate constants: certified horizon collapsed to zero")
    constants = {
        "K": params.big_k,
        "kappa": params.kappa,
        "C_gamma": params.c_gamma,
        "lambda0": params.lambda0,
        "lambda0_star": params.lambda0_star,
        "nu0": params.nu0,
        "alpha": params.alpha,
        # None when S does not use it: undeclared, or variable coefficients
        "H2": growth.H2 if s_inputs[-1] is not None else None,
    }
    return HorizonCertificate(
        t_range=t1, t_contract=t2, t_bar=t_bar, s_value=_s_value(s_inputs, t_bar, t0),
        gamma_bar=_gamma_bar(params.lambda0_star, growth.C, t_bar), radius=r, mode=mode,
        delta=delta, constants=constants,
    )


# -- the update map -------------------------------------------------------------


def _resolve_delta(scenario: Scenario, mode: str, delta: float | None) -> float | None:
    """Sensing radius for a mode: None for pointwise sensing, which takes none
    (a given radius raises), and the given radius (or the scenario's) for
    non-local sensing, which must be positive and finite."""
    if mode == MODE_POINTWISE:
        if delta is not None:
            raise ValueError(f"pointwise sensing takes no sensing radius delta, got {delta!r}")
        return None
    if mode != MODE_NONLOCAL:
        raise ValueError(f"unknown mode {mode!r}")
    delta = delta if delta is not None else scenario.nonlocal_delta
    if delta is None:
        raise ValueError("non-local mode needs a sensing radius delta")
    return _positive_finite("sensing radius delta", delta)


def _tube_exit(path: AgentPath, X0: np.ndarray, V0: np.ndarray,
               radius: float) -> tuple[int, float, float] | None:
    """(node, |X - X0|, |V - V0|) at the first node of ``path`` outside the
    radius-R tube around (X0, V0), or None when every node is inside.  A node
    whose distance is not finite (NaN included) is outside."""
    slack = radius * (1.0 + 1e-6) + 1e-12
    dx = (path.X - X0).reshape(len(path.times), -1)
    dv = (path.V - V0).reshape(len(path.times), -1)
    dx, dv = np.sqrt((dx * dx).sum(axis=1)), np.sqrt((dv * dv).sum(axis=1))
    if dx.max() <= slack and dv.max() <= slack:  # a NaN maximum fails
        return None
    k = int(((dx <= slack) & (dv <= slack)).argmin())  # NaN compares false
    return k, float(dx[k]), float(dv[k])


def _check_tube(path: AgentPath, X0: np.ndarray, V0: np.ndarray, radius: float) -> None:
    exit_ = _tube_exit(path, X0, V0, radius)
    if exit_ is not None:
        k, dx, dv = exit_
        finite = "" if math.isfinite(dx) and math.isfinite(dv) else ", which is not finite"
        raise PicardError(
            f"path exits the radius-{radius:g} tube at node {k} (t = {path.times[k]:g}): "
            f"|X - X0| = {dx:g}, |V - V0| = {dv:g}{finite}"
        )


def _start_path(previous: AgentPath | None, times: np.ndarray, X0: np.ndarray,
                V0: np.ndarray, radius: float,
                force0: np.ndarray | None = None) -> tuple[AgentPath, str]:
    """Picard start on ``times`` and its kind (START_EXTRAPOLATED,
    START_TAYLOR or START_CONSTANT).

    After a ``previous`` segment, V is the cubic Lagrange interpolant of its
    V through its first node, its last node (t0, so V(t0) = V0 exactly) and
    the two nodes nearest its thirds.  Without one, given the force
    ``force0`` (N, n) at the initial state, V is the first-order Taylor path
    V0 + force0 (t - t0).  Either way X = X0 + the cumulative trapezoid of V,
    the form of the update map's X.  When neither is given, or the path
    leaves the radius-R tube around (X0, V0), the start is the path frozen at
    (X0, V0).  The certificate covers any start inside the tube, since the
    map sends the tube into itself.
    """
    if previous is not None:
        last = len(previous.times) - 1
        nodes = [0, round(last / 3), round(2 * last / 3), last]
        t_k, v_k = previous.times[nodes], previous.V[nodes]
        # factor (t - t_j) / (t_i - t_j) of basis i, shaped (time, i, j != i);
        # each basis multiplies its factors, and V sums its terms, in index
        # order
        t_j = t_k[_OTHER_NODES]
        factor = (times[:, None, None] - t_j) / (t_k[:, None] - t_j)
        basis = factor[:, :, 0] * factor[:, :, 1] * factor[:, :, 2]
        terms = basis[:, :, None, None] * v_k
        V = 0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
        kind = START_EXTRAPOLATED
    elif force0 is not None:
        V = V0 + force0 * (times - times[0])[:, None, None]
        kind = START_TAYLOR
    else:
        kind = None
    if kind is not None:
        guess = AgentPath(times, X0 + trapezoid_cumulative(V, times), V)
        if _tube_exit(guess, X0, V0, radius) is None:
            return guess, kind
    return AgentPath.constant(X0, V0, times), START_CONSTANT


def _initial_force(scenario: Scenario, times: np.ndarray, delta: float | None,
                   quad: QuadratureSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """The force F(t0, X0, V0, w0) on every agent, shape (N, n), at the
    scenario's state and the first node t0 of ``times``, for a segment with
    no segment before it (t0 = 0), and w0, shape (1, N, n).  w0 is the
    gradient sensed at X0 on the path frozen at (X0, V0) over the segment's
    first two nodes; at t0 = 0 the field is phi's and reads no path, so w0
    takes no kernel pass and is what every sweep of the segment senses at
    its node 0.  When the force is declared insensitive to the field, w0 is
    zero."""
    X0, V0 = scenario.X0, scenario.V0
    if scenario.lipschitz_w == 0.0:
        W0 = np.zeros((1,) + X0.shape)
    else:
        probe = FieldProbe(scenario, AgentPath.constant(X0, V0, times[:2]),
                           quad=quad or DEFAULT_QUAD)
        W0 = sensed_gradients(probe, X0[None], times[:1], delta)
    return scenario.force.eval(times[:1], X0[None], V0[None], W0)[0], W0


def _damped_trapezoid(drive: np.ndarray, times: np.ndarray, kappa: float,
                      V0: np.ndarray) -> np.ndarray:
    """V on ``times`` from V(t0) = V0 under V' = drive - kappa V, by the
    implicit trapezoid rule: with h_i = t_{i+1} - t_i,

        V_{i+1} = ((1 - kappa h_i/2) V_i + (h_i/2) (G_i + G_{i+1})) / (1 + kappa h_i/2)

    for the drive G of shape (len(times), N, n), written V_{i+1} = a_i V_i +
    b_i.  Every |a_i| <= 1 and every weight (h_i/2)/(1 + kappa h_i/2) <= h_i/2,
    so the absolute weights of G in V_i sum to at most t_i - t0, as the
    exact filter's integral of e^{-kappa (t - tau)} does.  At kappa = 0 this
    is V0 plus the cumulative trapezoid of G.

    The recurrence is composed by doubling (a Hillis-Steele scan): after the
    pass of shift s, a_i and b_i are the composition of the maps
    i - 2s + 1 .. i, so log2(len(times)) passes replace the per-node loop.
    Only products of the a_i are formed, never a quotient by one, since
    a_i = 0 exactly at kappa h_i = 2."""
    half = 0.5 * (times[1:] - times[:-1])
    damp = kappa * half
    a = ((1.0 - damp) / (1.0 + damp))[:, None, None]
    V = np.empty(drive.shape)
    V[0] = V0
    b = V[1:]
    np.multiply((half / (1.0 + damp))[:, None, None], drive[1:] + drive[:-1], out=b)
    b[0] += a[0] * V0
    shift = 1
    while shift < len(b):
        b[shift:] += a[shift:] * b[:-shift]
        a[shift:] = a[shift:] * a[:-shift]
        shift *= 2
    return V


def _sweep(scenario: Scenario, prefix: AgentPath | None, seg: AgentPath,
           delta: float | None, quad: QuadratureSpec | None,
           table: FieldTable | None = None, w0: np.ndarray | None = None) -> AgentPath:
    """One application of the update map on the grid of ``seg``, anchored at
    the segment's start state, the scenario's (X0, V0).

    ``seg`` must stay inside the tube around the anchor that the caller
    checks (``_start_path``, ``_iterate_segment``, ``apply_psi``); the
    field probe reads the whole input path ``prefix + seg``, so the source
    laid down by earlier segments keeps acting.  The sensed gradients are
    one `sensed_gradients` call, which evaluates the segment's time table
    ``table`` (`sensing_table` on the grid of ``prefix + seg``) when one is
    given and builds its own otherwise.  Given the gradient ``w0`` (1, N, n)
    sensed at node 0, which on a first segment is X0 at t = 0 in every
    sweep, the call senses only the later nodes, and ``table`` covers those.

    The force law is called once on the input path, and its declared drag
    kappa (`ForceLaw.damping`) is added back: G = F + kappa V, which does
    not depend on V.  The new V is the implicit trapezoid solution of
    V' = G - kappa V from V0 (``_damped_trapezoid``), and the new X is X0
    plus the cumulative trapezoid of that new V.
    """
    path = prefix.concat(seg) if prefix is not None else seg
    probe = FieldProbe(scenario, path, quad=quad or DEFAULT_QUAD)
    if scenario.lipschitz_w == 0.0:  # declared insensitive to the field
        W = np.zeros(seg.X.shape)
    elif w0 is None:
        W = sensed_gradients(probe, seg.X, seg.times, delta, table)
    else:
        W = np.concatenate((w0, sensed_gradients(probe, seg.X[1:], seg.times[1:], delta, table)))
    kappa = scenario.force.damping
    drive = scenario.force.eval(seg.times, seg.X, seg.V, W) + kappa * seg.V
    V = _damped_trapezoid(drive, seg.times, kappa, scenario.V0)
    return seg._on_grid(scenario.X0 + trapezoid_cumulative(V, seg.times), V)


def _segment_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """Uniform grid on [t0, t1] of step at most dt, with at least _MIN_NODES
    nodes."""
    return np.linspace(t0, t1, max(_MIN_NODES, int(math.ceil((t1 - t0) / dt)) + 1))


def _iterate_segment(scenario: Scenario, prefix: AgentPath | None, t1: float, radius: float,
                     delta: float | None, tol: float, dt: float, max_iters: int,
                     quad: QuadratureSpec | None,
                     previous: AgentPath | None = None) -> tuple[AgentPath, list[float], str]:
    """Picard iteration on [t0, t1] (t0 the end of ``prefix``, 0 without
    one) from the scenario's state (X0, V0) at t0, on ``_segment_grid``, from
    the start ``_start_path`` builds out of the ``previous`` converged
    segment, or, when there is none (the first segment: t0 = 0 and no
    ``prefix``), out of the force at (X0, V0) (``_initial_force``).

    The field time table of the segment (`sensing_table`) is built once,
    for the grid of ``prefix + seg`` and the segment's nodes, unless the
    force is declared insensitive to the field, and every sweep (``_sweep``)
    evaluates it on its own input path, so a sweep computes only what the
    iterate changes.  On a first segment that excludes node 0: it is X0 at
    t = 0 in every sweep, and each sweep reads the gradient sensed there for
    the initial force.  The table is dropped with the segment.

    Every path is checked once, before it is swept, against the tube the
    certificate proves, of radius ``radius`` (`HorizonCertificate.radius`):
    the start by ``_start_path``, each later iterate here.  Stops when
    successive iterates differ by less than tol in the sup norm; returns the
    converged segment, the per-iteration differences and the kind of start.
    """
    _positive_finite("dt", dt)
    _positive_finite("tol", tol)
    if not (isinstance(max_iters, (int, np.integer)) and not isinstance(max_iters, bool)
            and max_iters >= 1):
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    X0, V0 = scenario.X0, scenario.V0
    times = _segment_grid(prefix.horizon if prefix is not None else 0.0, t1, dt)
    force0 = W0 = table = None
    if previous is None:
        force0, W0 = _initial_force(scenario, times, delta, quad)
    if scenario.lipschitz_w != 0.0:
        grid = times if prefix is None else np.concatenate([prefix.times, times[1:]])
        sensed = times if W0 is None else times[1:]
        table = sensing_table(scenario, grid, sensed, delta, quad)
    current, start = _start_path(previous, times, X0, V0, radius, force0)
    history: list[float] = []
    for sweep in range(max_iters):
        if sweep:
            _check_tube(current, X0, V0, radius)
        nxt = _sweep(scenario, prefix, current, delta, quad, table, W0)
        history.append(nxt.sup_distance(current))
        current = nxt
        if history[-1] < tol:
            return current, history, start
    ratio = history[-1] / history[-2] if len(history) >= 2 and history[-2] > 0 else float("nan")
    raise PicardError(
        f"segment [{times[0]:g}, {times[-1]:g}] did not converge in {max_iters} iterations "
        f"(last difference {history[-1]:.3e}, last contraction ratio {ratio:.3f})"
    )


def apply_psi(path: AgentPath, scenario: Scenario,
              mode: str = MODE_POINTWISE,
              delta: float | None = None,
              quad: QuadratureSpec | None = None) -> AgentPath:
    """One application of the update map to a candidate path on [0, t_bar]:
    the new V from the drive F + kappa V on the input path, with the drag
    kappa integrated implicitly, then the new X from the new V (``_sweep``).

    The input path must stay inside the radius-R tube around the initial
    state (no certificate names another R); field evaluations use the input
    path throughout.  The image reads the input's V only through a drag the
    force does not declare; two inputs in the tube have images at most S
    times as far apart (``contraction_S``).
    """
    delta = _resolve_delta(scenario, mode, delta)
    _check_tube(path, scenario.X0, scenario.V0, scenario.R)
    return _sweep(scenario, None, path, delta, quad)


def solve_local(scenario: Scenario, horizon: HorizonCertificate,
                tol: float = 1e-8, max_iters: int = 50, dt: float = 1e-2,
                quad: QuadratureSpec | None = None) -> tuple[AgentPath, list[float]]:
    """Picard iteration on [0, t_bar] from the first-order Taylor path of
    the initial state (``_start_path``; the path frozen at the initial state
    when the Taylor path leaves the tube), with the sensing mode and radius
    the certificate was issued for, and the tube it proves (``radius``).
    Each sweep is ``_sweep``'s: V with the declared drag integrated
    implicitly, then X from that V.  On S1 that takes 3 sweeps to tol 1e-8
    where the first-order map took 5.

    Stops when successive iterates differ by less than tol in the sup norm;
    returns the converged path and the per-iteration differences.
    """
    delta = _resolve_delta(scenario, horizon.mode, horizon.delta)
    path, history, _ = _iterate_segment(scenario, None, horizon.t_bar, horizon.radius, delta,
                                        tol, dt, max_iters, quad)
    return path, history


def solve_global(scenario: Scenario, horizon: float,
                 tol: float = 1e-8, mode: str = MODE_POINTWISE,
                 dt: float = 1e-2, max_iters: int = 50, safety: float = 0.9,
                 quad: QuadratureSpec | None = None,
                 segments_out: list | None = None) -> AgentPath:
    """Continue local solves until the requested horizon is covered.

    Each segment restarts from the previous endpoint state with a freshly
    derived certificate; the field keeps reading the full path from time 0.
    A segment's scenario, ``scenario`` or a copy holding the endpoint state,
    is read by its certificate and by its Picard iteration, whose tube is
    the certificate's (of radius R).
    A segment's certificate reads its start t0, since S charges the
    source's part over [t0, t0 + t_bar], so T2 is bisected once per segment
    (``horizon_certificate``).
    Picard iteration on the first segment starts from the Taylor path, as in
    ``solve_local``, and on a later one from the cubic extrapolation of the
    segment before it (``_start_path``); either falls back to the constant
    path when it leaves the tube.  The stopping rule, the certificates and
    the grids are those of ``solve_local``.
    Appends a SegmentRecord per segment, with its kind of start, to
    ``segments_out`` when given.
    """
    if not scenario.satisfies_global_hypotheses:
        raise PicardError("global continuation requires a globally Lipschitz force law")
    if not 0.0 < horizon <= scenario.growth.T * (1.0 + 1e-12):  # NaN too
        raise ValueError("requested horizon must lie in (0, T]")
    delta = _resolve_delta(scenario, mode, None)
    params = scenario.estimate_params
    min_segment = 1e-5 * horizon

    full: AgentPath | None = None
    seg: AgentPath | None = None
    seg_scn = scenario
    t0 = 0.0
    while horizon - t0 > 1e-12 * max(1.0, horizon):
        cert = horizon_certificate(seg_scn, mode=mode, delta=delta, params=params,
                                   safety=safety, t0=t0)
        if cert.t_bar < min_segment:
            raise PicardError(
                f"segment horizon underflow at t = {t0:g}: certified step {cert.t_bar:g} "
                f"is below the minimum {min_segment:g} (constants blow-up)"
            )
        seg_end = min(t0 + cert.t_bar, horizon)
        seg, history, start = _iterate_segment(seg_scn, full, seg_end, cert.radius, delta, tol,
                                               dt, max_iters, quad, previous=seg)
        if segments_out is not None:
            segments_out.append(SegmentRecord(t_start=t0, t_end=seg_end, certificate=cert,
                                              iterations=len(history),
                                              final_diff=history[-1], start=start))
        full = full.concat(seg) if full is not None else seg
        t0 = seg_end
        seg_scn = replace(scenario, X0=seg.X[-1].copy(), V0=seg.V[-1].copy())
    assert full is not None
    return full


# -- growth bounds ---------------------------------------------------------------


def _lemma_constants(scenario: Scenario, params: EstimateParams | None = None) -> tuple[float, float, float]:
    """(K1, K2, Ktilde2) from the linear-growth gradient estimate."""
    params = params if params is not None else scenario.estimate_params
    n_dim = scenario.dimension
    lam_star = params.lambda0_star
    m = scenario.growth.M
    k1 = params.c_gamma * m * 2.0**n_dim * math.pi ** (n_dim / 2.0) / lam_star ** (n_dim / 2.0)
    ktilde2 = (2.0 / math.sqrt(lam_star)) * (sphere_area(n_dim) * math.pi / sphere_area(n_dim + 1))
    k2 = ktilde2 * (1.0 + scenario.growth.T)
    return k1, k2, ktilde2


def _c0_constant(scenario: Scenario, horizon: float) -> float:
    """max over 129 times in [0, horizon] of the norm of the force on all
    agents at the frozen initial state with zero sensed gradient; a
    non-finite force raises ValueError naming its time.  The maximum is
    exact for every preset force law, since none depends on t; a force
    that does is only sampled."""
    times = np.linspace(0.0, horizon, 129)
    shape = times.shape + scenario.X0.shape
    forces = scenario.force.eval(times, np.broadcast_to(scenario.X0, shape),
                                 np.broadcast_to(scenario.V0, shape), np.zeros(shape))
    flat = forces.reshape(len(times), -1)
    bad = np.nonzero(~np.isfinite(flat).all(axis=1))[0]
    if len(bad):
        raise ValueError(f"force at the initial state is not finite at t = {times[bad[0]]:g}")
    return float(np.sqrt(np.vecdot(flat, flat)).max())


def gronwall_bound_B(scenario: Scenario, horizon: float,
                     delta: float | None = None,
                     params: EstimateParams | None = None) -> float:
    """A-priori bound B on sup_t |Y(t) - Y0| for globally Lipschitz forces and
    linear-growth data; 0 when the additive constant vanishes, and inf when
    the bound overflows a float, which is still a valid bound.  A horizon
    outside [0, T] raises ValueError, since K2 is built from T, and so does
    a sensing radius delta that is given and not positive and finite."""
    if scenario.force.lipschitz_global is None:
        raise PicardError("the a-priori bound needs a globally Lipschitz force law")
    if not 0.0 <= horizon <= scenario.growth.T * (1.0 + 1e-12):  # NaN too
        raise ValueError(f"horizon {horizon} must lie in [0, T] = [0, {scenario.growth.T}]")
    d = _positive_finite("sensing radius delta", delta) if delta is not None else 0.0
    l_f = scenario.force.lipschitz_global
    n = scenario.n
    t = horizon
    k1, k2, _ = _lemma_constants(scenario, params)
    c0 = _c0_constant(scenario, t)
    x0_norm, v0_norm = _state_norms(scenario)
    alpha_g = (v0_norm * t + n * t * c0
               + n * l_f * k1 * (1.0 + d + x0_norm) * 2.0 * math.sqrt(t)
               + n * l_f * k1 * (1.0 + d + 2.0 * x0_norm) * (4.0 / 3.0) * t**1.5
               + n * l_f * k1 * k2 * t)
    exponent = ((1.0 + n * l_f * math.sqrt(2.0)) * t
                + 2.0 * math.sqrt(t) * n * l_f * k1
                + (2.0 / 3.0) * n * l_f * k1 * t**1.5)
    if alpha_g == 0.0:
        return 0.0
    try:
        return alpha_g * math.exp(exponent)
    except OverflowError:  # an infinite bound is still a bound
        return math.inf


def apriori_grad_bound(scenario: Scenario, x, t: float, path: AgentPath,
                       params: EstimateParams | None = None) -> float:
    """Pointwise bound on |grad f(x, t)| under the linear-growth hypothesis:

        K1 ( (1 + |x|)/sqrt(t) + K2 + integral_0^t (1 + |x| + |X(tau)|)/sqrt(t - tau) dtau )

    with the time integral evaluated through the tau = t - s^2 substitution
    by a 32-node Gauss-Legendre rule in s.  t must be positive and finite
    (ValueError naming it otherwise).
    """
    _positive_finite("t", t)
    k1, k2, _ = _lemma_constants(scenario, params)
    x_norm = float(np.linalg.norm(np.asarray(x, dtype=float)))
    s_nodes, s_wts = gauss_legendre(0.0, math.sqrt(t), 32)
    taus = np.maximum(t - s_nodes * s_nodes, 0.0)
    integral = 0.0
    for ws, x_tau in zip(s_wts, path.positions_at(taus)):
        integral += ws * 2.0 * (1.0 + x_norm + float(np.linalg.norm(x_tau)))
    return k1 * ((1.0 + x_norm) / math.sqrt(t) + k2 + integral)
