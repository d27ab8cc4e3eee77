"""Numerical verification of the quantitative estimates.

Each checker measures a quantity by quadrature or sampling, compares it
against its claimed bound and returns an EstimateReport.  Ratios are
observed/bound, so a report passes exactly when its worst ratio stays below
1 + tolerance; checkers that measure a deviation (kernel mass, residuals)
report 1 + deviation against the same rule.  Sample sets come from
low-discrepancy sequences with a recorded seed, so reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import FieldProbe
from .kernel import EstimateParams, Kernel
from .paths import AgentPath
from .picard import MODE_POINTWISE, _resolve_delta, sensed_gradients, stacked_forces
from .quadrature import halton_points, tensor_grid, trapezoid_cumulative
from .scenario import Scenario

__all__ = [
    "EstimateReport",
    "check_kernel_mass",
    "check_gamma_estimates",
    "check_prop1",
    "check_holder",
    "gronwall_oracle",
    "residual_check",
    "mass_samples",
    "gamma_samples",
    "space_time_samples",
]


@dataclass
class EstimateReport:
    """Outcome of one bound verification.

    ``worst_ratio`` is the largest observed/bound ratio over the sample set
    (or 1 + largest deviation for identity-style checks); the report passes
    iff worst_ratio <= 1 + tolerance.
    """

    claim: str
    constants: dict = dc_field(default_factory=dict)
    sample_count: int = 0
    worst_ratio: float = 0.0
    worst_sample: tuple | None = None
    tolerance: float = 0.0
    passed: bool = False

    def finalize(self) -> "EstimateReport":
        self.passed = bool(self.worst_ratio <= 1.0 + self.tolerance)
        return self

    def to_dict(self) -> dict:
        def jsonable(v):
            if isinstance(v, (tuple, list)):
                return [jsonable(u) for u in v]
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v

        return {
            "claim": self.claim,
            "constants": {k: jsonable(v) for k, v in self.constants.items()},
            "sample_count": self.sample_count,
            "worst_ratio": self.worst_ratio,
            "worst_sample": jsonable(self.worst_sample),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


# -- sample-set generators -------------------------------------------------------


def mass_samples(dim: int, count: int = 20, t_max: float = 1.0, seed: int = 0):
    """(x, t, tau) triples with 0 <= tau < t <= t_max."""
    raw = halton_points(count, [(-2.0, 2.0)] * dim + [(0.1, t_max), (0.0, 0.9)], seed=seed)
    out = []
    for row in raw:
        x = row[:dim]
        t = float(row[dim])
        tau = float(row[dim + 1]) * t * 0.9
        out.append((x, t, tau))
    return out


def gamma_samples(dim: int, count: int = 1000, z_max: float = 12.0,
                  t_max: float = 1.0, seed: int = 0):
    """(offset, s) pairs: offset = x - xi spanned through z = |offset|/sqrt(s)."""
    raw = halton_points(count, [(0.0, z_max), (0.01, t_max)] + [(0.0, 1.0)] * (dim - 1), seed=seed)
    out = []
    for row in raw:
        z, s = float(row[0]), float(row[1])
        if dim == 1:
            eta = np.array([1.0])
        elif dim == 2:
            th = 2.0 * math.pi * row[2]
            eta = np.array([math.cos(th), math.sin(th)])
        else:
            th = 2.0 * math.pi * row[2]
            mu = 2.0 * row[3] - 1.0 if len(row) > 3 else 0.0
            r = math.sqrt(max(1.0 - mu * mu, 0.0))
            eta = np.array([r * math.cos(th), r * math.sin(th), mu])
        out.append((z * math.sqrt(s) * eta, s))
    return out


def space_time_samples(dim: int, count: int, box: float = 3.0,
                       t_range: tuple[float, float] = (0.01, 1.0), seed: int = 0):
    """(x, t) pairs in [-box, box]^dim x t_range."""
    raw = halton_points(count, [(-box, box)] * dim + [t_range], seed=seed)
    return [(row[:dim], float(row[dim])) for row in raw]


# -- kernel checks ----------------------------------------------------------------


def check_kernel_mass(kernel: Kernel, samples, tolerance: float = 1e-6,
                      u_max: float = 12.0, nodes: int | None = None) -> EstimateReport:
    """Quadrature of the kernel over its second spatial argument; the total
    mass must be 1.  Rejects kernels with a nonzero reaction rate, which
    rescale mass by exp(c (t - tau))."""
    if kernel.c != 0.0:
        raise ValueError("mass check requires a zero reaction rate")
    nodes = nodes if nodes is not None else {1: 128, 2: 64, 3: 32}[kernel.dim]
    u_pts, u_wts = tensor_grid(-u_max, u_max, nodes, kernel.dim)
    report = EstimateReport(claim="kernel-mass", tolerance=tolerance,
                            sample_count=len(samples))
    worst_dev = -1.0
    for x, t, tau in samples:
        s = t - tau
        center = np.asarray(x, dtype=float) + kernel.b * s
        xi = center[None, :] + math.sqrt(s) * u_pts
        vals = kernel.eval(np.asarray(x, dtype=float)[None, :], t, xi, tau)
        mass = s ** (kernel.dim / 2.0) * float(u_wts @ vals)
        dev = abs(mass - 1.0)
        if dev > worst_dev:
            worst_dev = dev
            report.worst_sample = (np.asarray(x), t, tau)
    report.worst_ratio = 1.0 + worst_dev
    return report.finalize()


def check_gamma_estimates(kernel: Kernel, params: EstimateParams, samples,
                          tolerance: float = 1e-2,
                          c_gamma: float | None = None) -> dict[int, EstimateReport]:
    """Check the decay envelopes |D^k G| <= C (t-tau)^(-(N+k)/2)
    exp(-lambda0* r^2 / (4 (t-tau))) for k = 0, 1, 2 on the sample set."""
    if params.lambda0_star >= params.lambda0:
        raise ValueError("lambda0_star must be below lambda0")
    c_g = c_gamma if c_gamma is not None else params.c_gamma
    if c_g is None:
        raise ValueError("no envelope prefactor available")
    lam_star = params.lambda0_star
    dim = kernel.dim
    reports = {}
    x0 = np.zeros(dim)
    for order in (0, 1, 2):
        rep = EstimateReport(claim=f"kernel-decay-order{order}",
                             constants={"C_gamma": c_g, "lambda0_star": lam_star},
                             tolerance=tolerance, sample_count=len(samples))
        worst = -1.0
        for offset, s in samples:
            xi = (x0 - np.asarray(offset, dtype=float))[None, :]
            r2 = float(np.dot(offset, offset))
            envelope = c_g * s ** (-(dim + order) / 2.0) * math.exp(-lam_star * r2 / (4.0 * s))
            if order == 0:
                measured = float(kernel.eval(x0[None, :], s, xi, 0.0)[0])
            elif order == 1:
                measured = float(np.abs(kernel.grad_x(x0[None, :], s, xi, 0.0)[0]).max())
            else:
                measured = float(np.abs(kernel.hess_x(x0[None, :], s, xi, 0.0)[0]).max())
            ratio = measured / envelope if envelope > 0 else math.inf
            if ratio > worst:
                worst = ratio
                rep.worst_sample = (np.asarray(offset), s)
        rep.worst_ratio = worst
        reports[order] = rep.finalize()
    return reports


# -- field derivative bounds --------------------------------------------------------


def check_prop1(scenario: Scenario, probe: FieldProbe, samples,
                tolerance: float = 1e-2, k_scale: float = 1.0) -> tuple[EstimateReport, EstimateReport]:
    """Compare measured field derivatives against the certified bounds

        |d_i f| <= K e^(kappa |x|^2) (H t^(-(1-alpha)/2) + 2/(alpha+1) t^((alpha+1)/2) H_X)
        |d2_ij f| <= K e^(kappa |x|^2) (H t^(-(1-alpha/2)) + 2/alpha t^(alpha/2) H_X)

    ``k_scale`` shrinks K for falsification controls.  Returns the gradient
    and hessian reports.
    """
    params = scenario.estimate_params
    if params.big_k is None or params.kappa is None:
        raise ValueError("scenario is missing derivative-bound constants")
    big_k = params.big_k * k_scale
    kappa = params.kappa
    alpha = scenario.alpha
    h = scenario.growth.H
    h_x = scenario.growth.HR(probe.path.sup_position_norm())

    rep_g = EstimateReport(claim="field-gradient-bound",
                           constants={"K": big_k, "kappa": kappa, "H": h, "H_X": h_x},
                           tolerance=tolerance, sample_count=len(samples))
    rep_h = EstimateReport(claim="field-hessian-bound",
                           constants={"K": big_k, "kappa": kappa, "H": h, "H_X": h_x},
                           tolerance=tolerance, sample_count=len(samples))
    worst_g = worst_h = -1.0
    tiny = 1e-14
    for x, t in samples:
        x = np.asarray(x, dtype=float)
        weight = big_k * math.exp(kappa * float(x @ x))
        bound_g = weight * (h * t ** (-(1.0 - alpha) / 2.0)
                            + 2.0 / (alpha + 1.0) * t ** ((alpha + 1.0) / 2.0) * h_x)
        bound_h = weight * (h * t ** (-(1.0 - alpha / 2.0))
                            + 2.0 / alpha * t ** (alpha / 2.0) * h_x)
        meas_g = float(np.abs(probe.gradient(x, t)).max())
        meas_h = float(np.abs(probe.hessian(x, t)).max())
        ratio_g = meas_g / bound_g if bound_g > 0 else (0.0 if meas_g < tiny else math.inf)
        ratio_h = meas_h / bound_h if bound_h > 0 else (0.0 if meas_h < tiny else math.inf)
        if ratio_g > worst_g:
            worst_g, rep_g.worst_sample = ratio_g, (x, t)
        if ratio_h > worst_h:
            worst_h, rep_h.worst_sample = ratio_h, (x, t)
    rep_g.worst_ratio = worst_g
    rep_h.worst_ratio = worst_h
    return rep_g.finalize(), rep_h.finalize()


# -- data regularity -----------------------------------------------------------------


def check_holder(fn, alpha: float, c_weight: float, claimed_h: float, pairs,
                 tolerance: float = 1e-9) -> EstimateReport:
    """Weighted Hoelder check on sampled argument pairs.

    Pairs of points check |fn(x) - fn(y)| against
    claimed_h * exp(c_weight * max(|x|^2, |y|^2)) * |x-y|^alpha; pairs of
    (x, X) tuples additionally carry the configuration term |X - Xhat|.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    rep = EstimateReport(claim="holder-envelope",
                         constants={"H": claimed_h, "alpha": alpha, "C": c_weight},
                         tolerance=tolerance, sample_count=len(pairs))
    worst = 0.0
    tiny = 1e-15
    for a, b in pairs:
        two_arg = isinstance(a, (tuple, list))
        if two_arg:
            x, xx = np.asarray(a[0], dtype=float), np.asarray(a[1], dtype=float)
            y, yy = np.asarray(b[0], dtype=float), np.asarray(b[1], dtype=float)
            num = abs(float(fn(x[None, :], xx)[0]) - float(fn(y[None, :], yy)[0]))
            spread = float(np.linalg.norm(x - y)) ** alpha + float(np.linalg.norm(xx - yy))
        else:
            x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            num = abs(float(fn(x[None, :])[0]) - float(fn(y[None, :])[0]))
            spread = float(np.linalg.norm(x - y)) ** alpha
        weight = math.exp(c_weight * max(float(x @ x), float(y @ y)))
        denom = claimed_h * weight * spread
        if denom <= tiny:
            ratio = 0.0 if num <= tiny else math.inf
        else:
            ratio = num / denom
        if ratio > worst:
            worst = ratio
            rep.worst_sample = (a, b)
    rep.worst_ratio = worst
    return rep.finalize()


# -- integral-inequality oracle --------------------------------------------------------


def gronwall_oracle(alpha_g: float, w, v, grid, tolerance: float = 1e-3,
                    max_iters: int = 400) -> EstimateReport:
    """Build the extremal function of the two-kernel integral inequality

        h(t) <= alpha_g + int_0^t w h + int_0^t int_0^tau v(s, tau) h(s) ds dtau

    by discrete fixed-point iteration and check it against the exponential
    bound alpha_g * exp(int_0^t (w(tau) + int_0^tau v(s, tau) ds) dtau)."""
    grid = np.asarray(grid, dtype=float)
    m = len(grid)
    if m < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be increasing with at least two nodes")
    w_vals = np.array([float(w(t)) for t in grid])
    if np.any(w_vals < 0):
        raise ValueError("w must be nonnegative")
    v_mat = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1):
            v_mat[j, k] = float(v(grid[k], grid[j]))
    if np.any(v_mat < 0):
        raise ValueError("v must be nonnegative")

    # trapezoid weights of node k on [0, grid[j]]
    wmat = np.zeros((m, m))
    d = np.diff(grid)
    for j in range(1, m):
        wmat[j, 0] = d[0] / 2.0
        wmat[j, 1:j] = (d[:j - 1] + d[1:j]) / 2.0
        wmat[j, j] = d[j - 1] / 2.0

    h = np.full(m, alpha_g, dtype=float)
    cap = 1e12 * max(1.0, alpha_g)
    for _ in range(max_iters):
        single = trapezoid_cumulative(w_vals * h, grid)
        inner = (v_mat * wmat) @ h
        double = trapezoid_cumulative(inner, grid)
        h_new = alpha_g + single + double
        if not np.all(np.isfinite(h_new)) or h_new.max() > cap:
            raise RuntimeError("discrete fixed-point diverged; inputs not integrable on this grid")
        step = float(np.abs(h_new - h).max())
        h = h_new
        if step <= 1e-13 * max(1.0, alpha_g, float(h.max())):
            break
    else:
        raise RuntimeError("discrete fixed-point did not stabilize")

    v_inner = (v_mat * wmat).sum(axis=1)
    bound = alpha_g * np.exp(trapezoid_cumulative(w_vals + v_inner, grid))
    rep = EstimateReport(claim="integral-inequality-bound",
                         constants={"alpha_g": alpha_g},
                         tolerance=tolerance, sample_count=m)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(bound > 0, h / bound, np.where(h <= 1e-15, 0.0, np.inf))
    k = int(np.argmax(ratios))
    rep.worst_ratio = float(ratios[k])
    rep.worst_sample = (grid[k],)
    return rep.finalize()


# -- converged-path residuals ------------------------------------------------------------


def residual_check(path: AgentPath, scenario: Scenario, probe: FieldProbe,
                   mode: str = MODE_POINTWISE, delta: float | None = None,
                   tolerance: float = 1e-3) -> EstimateReport:
    """Centered-difference residuals of the coupled system along a path:
    max |dX/dt - V| and |dV/dt - F(t, X, V, w)| over interior nodes."""
    if len(path.times) < 3:
        raise ValueError("path too coarse for centered differences (need >= 3 nodes)")
    delta = _resolve_delta(scenario, mode, delta)
    times = path.times
    worst = -1.0
    rep = EstimateReport(claim="ode-residual", tolerance=tolerance,
                         sample_count=len(times) - 2)
    for k in range(1, len(times) - 1):
        dt2 = times[k + 1] - times[k - 1]
        xdot = (path.X[k + 1] - path.X[k - 1]) / dt2
        vdot = (path.V[k + 1] - path.V[k - 1]) / dt2
        res_x = float(np.linalg.norm(xdot - path.V[k]))
        w = sensed_gradients(probe, path.X[k], float(times[k]), delta)
        f = stacked_forces(scenario, times[k], path.X[k], path.V[k], w)
        res_v = float(np.linalg.norm(vdot - f))
        res = max(res_x, res_v)
        if res > worst:
            worst = res
            rep.worst_sample = (float(times[k]),)
    rep.worst_ratio = 1.0 + worst
    return rep.finalize()
