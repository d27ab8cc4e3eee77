"""Fixed-point solution of the coupled agent/signal system.

The update map sends a candidate trajectory (X, V) to

    X_j(t) = X0_j + integral_0^t V_j
    V_j(t) = V0_j + integral_0^t F_j(tau, X, V, w_j(tau))

where w_j is the field gradient at agent j (or its ball average in the
non-local mode), with the field always evaluated along the *input* path.
On a short enough horizon the map is a contraction and Picard iteration
converges to the unique solution; a certificate records the horizon and the
certified contraction modulus.  Global solutions are produced by restarting
from the endpoint state until the requested horizon is covered.

One segment engine implements this: ``_sweep`` applies the update map once
on a segment grid and ``_iterate_segment`` runs Picard iteration on it.
``apply_psi`` is a single sweep, ``solve_local`` one iterated segment on
[0, t_bar] and ``solve_global`` one iterated segment per certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import BACKEND_KERNEL, FieldProbe, QuadratureSpec
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
    "sensed_gradients",
    "stacked_forces",
    "gronwall_bound_B",
    "apriori_grad_bound",
]

MODE_POINTWISE = "pointwise"
MODE_NONLOCAL = "nonlocal"


class PicardError(RuntimeError):
    """Raised when iteration leaves its certified tube or fails to converge."""


@dataclass(frozen=True)
class HorizonCertificate:
    """Certified solve horizon.

    ``t_range`` keeps the update map inside the radius-R tube, ``t_contract``
    makes its modulus S drop below one (with margin), and ``t_bar`` is the
    working horizon (safety factor times the smaller of the two).  ``s_value``
    is S at ``t_bar`` with the conservative exponential factor and
    ``s_value_nominal`` the variant without the doubled exponent;
    ``gamma_bar`` must stay positive for the decay estimates to hold.
    """

    t_range: float            # T1
    t_contract: float         # T2
    t_bar: float
    s_value: float
    gamma_bar: float
    radius: float
    mode: str = MODE_POINTWISE
    delta: float | None = None
    s_value_nominal: float | None = None
    t_range_nominal: float | None = None
    constants: dict | None = None

    def __post_init__(self):
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


def _state_norms(scenario: Scenario) -> tuple[float, float]:
    return float(np.linalg.norm(scenario.X0)), float(np.linalg.norm(scenario.V0))


def _exp_factor(kappa: float, x0_norm: float, radius: float, delta: float | None,
                conservative: bool) -> float:
    scale = 2.0 if conservative else 1.0
    extra = delta * delta if delta is not None else 0.0
    return math.exp(scale * kappa * (x0_norm**2 + radius**2 + extra))


def horizon_T1(scenario: Scenario, radius: float | None = None,
               params: EstimateParams | None = None,
               delta: float | None = None,
               conservative: bool = True) -> float:
    """Horizon keeping the update map's range inside the radius-R tube,
    capped at the scenario horizon."""
    r = radius if radius is not None else scenario.R
    params = params if params is not None else scenario.estimate_params
    n = scenario.n
    dim = scenario.dimension
    alpha = scenario.alpha
    x0_norm, v0_norm = _state_norms(scenario)
    first = r / (n * (r + v0_norm))
    l_f = scenario.lipschitz_w
    h_x = scenario.growth.HR(x0_norm + r)
    if l_f > 0 and params.big_k > 0:
        expfac = _exp_factor(params.kappa, x0_norm, r, delta, conservative)
        denom = (2.0 * n * math.sqrt(dim) * l_f * params.big_k * expfac / (alpha + 1.0)) \
            * (1.0 + 2.0 * h_x / (alpha + 3.0))
        second = (r / denom) ** (2.0 / (alpha + 1.0))
    else:
        second = math.inf
    return min(first, second, scenario.growth.T)


def contraction_S(scenario: Scenario, radius: float | None = None,
                  t_bar: float | None = None,
                  params: EstimateParams | None = None,
                  delta: float | None = None,
                  conservative: bool = True) -> float:
    """Certified contraction modulus S at horizon t_bar.

    Three terms: direct (X, V) sensitivity of the force, gradient sensitivity
    to the probe position through the hessian bound, and gradient sensitivity
    to the path through the source.  Requires gamma_bar = lambda0*/4 -
    2 C t_bar > 0.
    """
    r = radius if radius is not None else scenario.R
    if t_bar is None or t_bar <= 0:
        raise ValueError("t_bar must be positive")
    params = params if params is not None else scenario.estimate_params
    n_dim = scenario.dimension
    alpha = scenario.alpha
    growth = scenario.growth
    x0_norm, _ = _state_norms(scenario)
    gamma_bar = params.lambda0_star / 4.0 - 2.0 * growth.C * t_bar
    if gamma_bar <= 0:
        raise ValueError("t_bar too large: gamma_bar = lambda0*/4 - 2*C*t_bar must be positive")
    l_f = scenario.lipschitz_w
    l_f_r = scenario.lipschitz_xv(r)
    h_x = growth.HR(x0_norm + r)
    h_r = growth.HR(x0_norm + r + (delta or 0.0))
    expfac = _exp_factor(params.kappa, x0_norm, r, delta, conservative)
    extra = delta * delta if delta is not None else 0.0

    term1 = 2.0 * l_f_r * t_bar
    term2 = (l_f * n_dim**2 * params.big_k * expfac * t_bar ** (alpha / 2.0)
             * (2.0 / alpha) * (growth.H + h_x * t_bar))
    term3 = (l_f * params.c_gamma * h_r
             * math.exp(2.0 * growth.C * (x0_norm**2 + r**2 + extra))
             * (math.pi / gamma_bar) ** (n_dim / 2.0) * t_bar**1.5)
    return term1 + term2 + term3


def horizon_certificate(scenario: Scenario, radius: float | None = None,
                        mode: str = MODE_POINTWISE,
                        delta: float | None = None,
                        params: EstimateParams | None = None,
                        margin: float = 0.1,
                        safety: float = 0.9) -> HorizonCertificate:
    """Compute the certified horizon: T2 by bisection on S = 1 - margin
    (intersected with the gamma_bar > 0 constraint), t_bar = safety *
    min(T1, T2)."""
    r = radius if radius is not None else scenario.R
    delta = _resolve_delta(scenario, mode, delta)
    params = params if params is not None else scenario.estimate_params
    growth = scenario.growth

    t1 = horizon_T1(scenario, r, params, delta=delta, conservative=True)
    t1_nominal = horizon_T1(scenario, r, params, delta=delta, conservative=False)

    cap = growth.T
    if growth.C > 0:
        cap = min(cap, 0.999 * params.lambda0_star / (8.0 * growth.C))
    if cap <= 0:
        raise ValueError("degenerate constants: no admissible contraction horizon")

    target = 1.0 - margin
    s_fn = lambda t: contraction_S(scenario, r, t, params, delta=delta, conservative=True)
    if s_fn(cap) <= target:
        t2 = cap
    else:
        lo, hi = 0.0, cap
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid <= 0.0:
                break
            if s_fn(mid) <= target:
                lo = mid
            else:
                hi = mid
        t2 = lo
    if t2 <= 0:
        raise ValueError("degenerate constants: no positive horizon satisfies the contraction condition")

    t_bar = safety * min(t1, t2)
    if t_bar <= 0:
        raise ValueError("degenerate constants: certified horizon collapsed to zero")
    s_value = s_fn(t_bar)
    s_nominal = contraction_S(scenario, r, t_bar, params, delta=delta, conservative=False)
    gamma_bar = params.lambda0_star / 4.0 - 2.0 * growth.C * t_bar
    constants = {
        "K": params.big_k,
        "kappa": params.kappa,
        "C_gamma": params.c_gamma,
        "lambda0": params.lambda0,
        "lambda0_star": params.lambda0_star,
        "nu0": params.nu0,
        "alpha": params.alpha,
    }
    return HorizonCertificate(
        t_range=t1, t_contract=t2, t_bar=t_bar, s_value=s_value,
        gamma_bar=gamma_bar, radius=r, mode=mode, delta=delta,
        s_value_nominal=s_nominal, t_range_nominal=t1_nominal,
        constants=constants,
    )


# -- the update map -------------------------------------------------------------


def _resolve_delta(scenario: Scenario, mode: str, delta: float | None) -> float | None:
    """Sensing radius for a mode: None for pointwise sensing, the given radius
    (or the scenario's) for non-local sensing."""
    if mode == MODE_POINTWISE:
        return None
    if mode != MODE_NONLOCAL:
        raise ValueError(f"unknown mode {mode!r}")
    delta = delta if delta is not None else scenario.nonlocal_delta
    if delta is None:
        raise ValueError("non-local mode needs a sensing radius delta")
    return delta


def sensed_gradients(probe: FieldProbe, X: np.ndarray, t: float,
                     delta: float | None) -> np.ndarray:
    """w_j for all agents at one time, shape (N, n) like the configuration X:
    the field gradient at X_j, or its average over the radius-delta ball."""
    pts = X.T  # (n, N)
    if delta is None:
        return probe.gradient_many(pts, t).T
    return np.stack([probe.ball_average_gradient(x, t, delta) for x in pts], axis=1)


def stacked_forces(scenario: Scenario, t: float, X: np.ndarray, V: np.ndarray,
                   W: np.ndarray) -> np.ndarray:
    """F_j(t, X, V, w_j) for all agents, shape (N, n); column j of W is w_j."""
    t = float(t)
    return np.stack([scenario.force.eval(t, X, V, W[:, j], j) for j in range(X.shape[1])],
                    axis=1)


def _check_tube(path: AgentPath, X0: np.ndarray, V0: np.ndarray, radius: float) -> None:
    slack = radius * (1.0 + 1e-6) + 1e-12
    dx = np.linalg.norm((path.X - X0).reshape(len(path.times), -1), axis=1)
    dv = np.linalg.norm((path.V - V0).reshape(len(path.times), -1), axis=1)
    bad = np.nonzero((dx > slack) | (dv > slack))[0]
    if len(bad):
        k = int(bad[0])
        raise PicardError(
            f"path exits the radius-{radius:g} tube at node {k} (t = {path.times[k]:g}): "
            f"|X - X0| = {dx[k]:g}, |V - V0| = {dv[k]:g}"
        )


def _sweep(scenario: Scenario, prefix: AgentPath | None, seg: AgentPath,
           X0: np.ndarray, V0: np.ndarray, delta: float | None,
           backend: str, quad: QuadratureSpec | None) -> AgentPath:
    """One application of the update map on the grid of ``seg``, anchored at
    the segment start state (X0, V0).

    ``seg`` must stay inside the radius-R tube around the anchor; the field
    probe reads the whole input path ``prefix + seg``, so the source laid
    down by earlier segments keeps acting.
    """
    _check_tube(seg, X0, V0, scenario.R)
    path = prefix.concat(seg) if prefix is not None else seg
    probe = FieldProbe(scenario, path, backend=backend, quad=quad or QuadratureSpec())
    times = seg.times
    forces = np.empty(seg.X.shape)
    v_in = np.empty(seg.V.shape)
    w_blind = scenario.lipschitz_w == 0.0  # declared insensitive to the field
    zero_w = np.zeros(X0.shape)
    for k, t in enumerate(times):
        xk = path.positions_at(t)
        vk = path.velocities_at(t)
        v_in[k] = vk
        w = zero_w if w_blind else sensed_gradients(probe, xk, float(t), delta)
        forces[k] = stacked_forces(scenario, t, xk, vk, w)
    return AgentPath(times, X0 + trapezoid_cumulative(v_in, times),
                     V0 + trapezoid_cumulative(forces, times))


def _iterate_segment(scenario: Scenario, prefix: AgentPath | None, times: np.ndarray,
                     X0: np.ndarray, V0: np.ndarray, delta: float | None,
                     tol: float, max_iters: int, backend: str,
                     quad: QuadratureSpec | None) -> tuple[AgentPath, list[float]]:
    """Picard iteration on one segment, from the path frozen at (X0, V0).

    Stops when successive iterates differ by less than tol in the sup norm;
    returns the converged segment and the per-iteration differences.
    """
    current = AgentPath.constant(X0, V0, times)
    history: list[float] = []
    for _ in range(max_iters):
        nxt = _sweep(scenario, prefix, current, X0, V0, delta, backend, quad)
        history.append(nxt.sup_distance(current))
        current = nxt
        if history[-1] < tol:
            return current, history
    ratio = history[-1] / history[-2] if len(history) >= 2 and history[-2] > 0 else float("nan")
    raise PicardError(
        f"segment [{times[0]:g}, {times[-1]:g}] did not converge in {max_iters} iterations "
        f"(last difference {history[-1]:.3e}, last contraction ratio {ratio:.3f})"
    )


def apply_psi(path: AgentPath, scenario: Scenario,
              backend: str = BACKEND_KERNEL,
              mode: str = MODE_POINTWISE,
              delta: float | None = None,
              quad: QuadratureSpec | None = None) -> AgentPath:
    """One application of the update map to a candidate path on [0, t_bar].

    The input path must stay inside the radius-R tube around the initial
    state; field evaluations use the input path throughout.
    """
    delta = _resolve_delta(scenario, mode, delta)
    return _sweep(scenario, None, path, scenario.X0, scenario.V0, delta, backend, quad)


def _segment_grid(t0: float, t1: float, dt: float, min_nodes: int) -> np.ndarray:
    n = max(min_nodes, int(math.ceil((t1 - t0) / dt)) + 1)
    return np.linspace(t0, t1, n)


def solve_local(scenario: Scenario, horizon: HorizonCertificate,
                tol: float = 1e-8, max_iters: int = 50,
                mode: str = MODE_POINTWISE,
                backend: str = BACKEND_KERNEL,
                dt: float = 1e-2, min_nodes: int = 17,
                quad: QuadratureSpec | None = None) -> tuple[AgentPath, list[float]]:
    """Picard iteration from the constant initial path on [0, t_bar].

    Stops when successive iterates differ by less than tol in the sup norm;
    returns the converged path and the per-iteration differences.  The
    certificate must have been issued for the same sensing mode.
    """
    if horizon.mode != mode:
        raise ValueError(f"certificate was issued for {horizon.mode!r} sensing, not {mode!r}")
    delta = _resolve_delta(scenario, mode, horizon.delta)
    times = _segment_grid(0.0, horizon.t_bar, dt, min_nodes)
    return _iterate_segment(scenario, None, times, scenario.X0, scenario.V0, delta,
                            tol, max_iters, backend, quad)


def solve_global(scenario: Scenario, horizon: float,
                 tol: float = 1e-8, mode: str = MODE_POINTWISE,
                 backend: str = BACKEND_KERNEL,
                 dt: float = 1e-2, min_nodes: int = 17,
                 max_iters: int = 50,
                 safety: float = 0.9, margin: float = 0.1,
                 quad: QuadratureSpec | None = None,
                 segments_out: list | None = None) -> AgentPath:
    """Continue local solves until the requested horizon is covered.

    Each segment restarts from the previous endpoint state with a freshly
    derived certificate; the field keeps reading the full path from time 0.
    Appends a SegmentRecord per segment to ``segments_out`` when given.
    """
    if not scenario.satisfies_global_hypotheses:
        raise PicardError("global continuation requires a globally Lipschitz force law")
    if horizon <= 0 or horizon > scenario.growth.T * (1.0 + 1e-12):
        raise ValueError("requested horizon must lie in (0, T]")
    delta = _resolve_delta(scenario, mode, None)
    params = scenario.estimate_params
    min_segment = 1e-5 * horizon

    full: AgentPath | None = None
    t0 = 0.0
    state_X, state_V = scenario.X0, scenario.V0
    while horizon - t0 > 1e-12 * max(1.0, horizon):
        seg_scn = replace(scenario, X0=state_X, V0=state_V)
        cert = horizon_certificate(seg_scn, seg_scn.R, mode=mode, delta=delta,
                                   params=params, margin=margin, safety=safety)
        if cert.t_bar < min_segment:
            raise PicardError(
                f"segment horizon underflow at t = {t0:g}: certified step {cert.t_bar:g} "
                f"is below the minimum {min_segment:g} (constants blow-up)"
            )
        seg_end = min(t0 + cert.t_bar, horizon)
        seg, history = _iterate_segment(scenario, full, _segment_grid(t0, seg_end, dt, min_nodes),
                                        state_X, state_V, delta, tol, max_iters, backend, quad)
        if segments_out is not None:
            segments_out.append(SegmentRecord(t_start=t0, t_end=seg_end, certificate=cert,
                                              iterations=len(history), final_diff=history[-1]))
        full = full.concat(seg) if full is not None else seg
        t0 = seg_end
        state_X = seg.X[-1].copy()
        state_V = seg.V[-1].copy()
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


def _c0_constant(scenario: Scenario, horizon: float, samples: int = 129) -> float:
    """max over [0, horizon] of the stacked force at the frozen initial state
    with zero sensed gradient."""
    zero_w = np.zeros_like(scenario.X0)
    worst = 0.0
    for t in np.linspace(0.0, horizon, samples):
        f = stacked_forces(scenario, t, scenario.X0, scenario.V0, zero_w)
        worst = max(worst, float(np.linalg.norm(f)))
    return worst


def gronwall_bound_B(scenario: Scenario, horizon: float,
                     delta: float | None = None,
                     params: EstimateParams | None = None) -> float:
    """A-priori bound B on sup_t |Y(t) - Y0| for globally Lipschitz forces and
    linear-growth data; 0 when the additive constant vanishes."""
    if scenario.force.lipschitz_global is None:
        raise PicardError("the a-priori bound needs a globally Lipschitz force law")
    l_f = scenario.force.lipschitz_global
    n = scenario.n
    t = horizon
    k1, k2, _ = _lemma_constants(scenario, params)
    c0 = _c0_constant(scenario, t)
    x0_norm, v0_norm = _state_norms(scenario)
    d = delta if delta is not None else 0.0
    alpha_g = (v0_norm * t + n * t * c0
               + n * l_f * k1 * (1.0 + d + x0_norm) * 2.0 * math.sqrt(t)
               + n * l_f * k1 * (1.0 + d + 2.0 * x0_norm) * (4.0 / 3.0) * t**1.5
               + n * l_f * k1 * k2 * t)
    exponent = ((1.0 + n * l_f * math.sqrt(2.0)) * t
                + 2.0 * math.sqrt(t) * n * l_f * k1
                + (2.0 / 3.0) * n * l_f * k1 * t**1.5)
    return alpha_g * math.exp(exponent)


def apriori_grad_bound(scenario: Scenario, x, t: float, path: AgentPath,
                       params: EstimateParams | None = None,
                       time_nodes: int = 32) -> float:
    """Pointwise bound on |grad f(x, t)| under the linear-growth hypothesis:

        K1 ( (1 + |x|)/sqrt(t) + K2 + integral_0^t (1 + |x| + |X(tau)|)/sqrt(t - tau) dtau )

    with the time integral evaluated through the tau = t - s^2 substitution.
    """
    if t <= 0:
        raise ValueError("the gradient bound needs t > 0")
    k1, k2, _ = _lemma_constants(scenario, params)
    x_norm = float(np.linalg.norm(np.asarray(x, dtype=float)))
    s_nodes, s_wts = gauss_legendre(0.0, math.sqrt(t), time_nodes)
    integral = 0.0
    for s, ws in zip(s_nodes, s_wts):
        tau = max(t - s * s, 0.0)
        integral += ws * 2.0 * (1.0 + x_norm + float(np.linalg.norm(path.positions_at(tau))))
    return k1 * ((1.0 + x_norm) / math.sqrt(t) + k2 + integral)
