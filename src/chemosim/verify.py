"""Numerical verification of the quantitative estimates.

Each checker measures a quantity by quadrature or sampling, compares it
against its claimed bound and returns an EstimateReport.  Ratios are
observed/bound, so a report passes exactly when its worst ratio stays below
1 + tolerance; checkers that measure a deviation (kernel mass, residuals)
report 1 + deviation against the same rule.  Sample sets come from
low-discrepancy sequences with a recorded seed, so reports are reproducible;
the builders of one ``chemosim verify`` run read one Halton table per seed
(`quadrature.halton_run`) and build the sets they build on their own.

A sample set is a tuple of arrays, one row per sample: points (P, N), times
(P,) and agent configurations (P, N, n), in the order each builder lists.
Every checker computes one ratio per sample, and one reduction keeps the
first largest and its sample.  A NaN ratio counts as +inf, so a failed
measurement fails the report and names its sample.  An empty set reports
worst ratio -1 (0 for kernel mass, Hoelder and the phi hessian) and no worst
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import FieldProbe, _fd_hessian_of, sensed_gradients
from .kernel import EstimateParams, Kernel
from .paths import AgentPath
from .picard import MODE_POINTWISE, _resolve_delta
from .quadrature import halton_points, tensor_grid, trapezoid_cumulative
from .scenario import Scenario

__all__ = [
    "EstimateReport",
    "check_kernel_mass",
    "check_gamma_estimates",
    "check_prop1",
    "check_holder",
    "check_phi_hessian",
    "gronwall_oracle",
    "residual_check",
    "mass_samples",
    "gamma_samples",
    "space_time_samples",
    "holder_pairs",
    "holder_pairs_two_arg",
]

# reach of the scaled offset |x - xi| / sqrt(t - tau) in the kernel checks
_Z_MAX = 12.0

# (sample, node) pairs per kernel call of the mass check: all 1D samples
# share one call, while 2D and 3D take one or two samples a call (one call
# for 50 samples added 15 and 150 MB of peak memory there and ran slower)
_MASS_PASS_ENTRIES = 2**13


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


def _reduce(rep: EstimateReport, ratios, sample, floor: float = -1.0,
            deviation: bool = False) -> EstimateReport:
    """Finalize ``rep`` with the largest ratio (NaN counts as +inf, 1 is
    added for a deviation) and ``sample(k)`` of the first k reaching it;
    ratios that never exceed ``floor`` leave ``floor`` and no sample."""
    ratios = np.asarray(ratios, dtype=float)
    ratios = np.where(np.isnan(ratios), np.inf, ratios)
    worst = floor
    if ratios.size:
        k = int(np.argmax(ratios))
        if ratios[k] > floor:
            worst = float(ratios[k])
            rep.worst_sample = sample(k)
    rep.worst_ratio = 1.0 + worst if deviation else worst
    return rep.finalize()


# -- sample-set generators -------------------------------------------------------
# An inverted time range (t_min > t_max) raises ValueError.


def mass_samples(dim: int, count: int = 20, t_max: float = 1.0, seed: int = 0,
                 t_min: float = 0.1):
    """x (P, N), t (P,) and tau (P,) with t_min <= t <= t_max and 0 <= tau < t."""
    raw = halton_points(count, [(-2.0, 2.0)] * dim + [(t_min, t_max), (0.0, 0.9)], seed=seed)
    t = raw[:, dim]
    return raw[:, :dim], t, raw[:, dim + 1] * t * 0.9


def gamma_samples(dim: int, count: int = 1000, t_max: float = 1.0, seed: int = 0,
                  t_min: float = 0.01):
    """offset (P, N) and s (P,) with t_min <= s <= t_max: offset = x - xi
    spanned through z = |offset|/sqrt(s) in [0, _Z_MAX] and a direction."""
    raw = halton_points(count, [(0.0, _Z_MAX), (t_min, t_max)] + [(0.0, 1.0)] * (dim - 1),
                        seed=seed)
    z, s = raw[:, 0], raw[:, 1]
    if dim == 1:
        eta = np.ones((count, 1))
    else:
        th = 2.0 * math.pi * raw[:, 2]
        if dim == 2:
            eta = np.stack([np.cos(th), np.sin(th)], axis=1)
        else:
            mu = 2.0 * raw[:, 3] - 1.0
            r = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
            eta = np.stack([r * np.cos(th), r * np.sin(th), mu], axis=1)
    return (z * np.sqrt(s))[:, None] * eta, s


def space_time_samples(dim: int, count: int, box: float = 3.0,
                       t_range: tuple[float, float] = (0.01, 1.0), seed: int = 0):
    """x (P, N) in [-box, box]^N and t (P,) in t_range."""
    raw = halton_points(count, [(-box, box)] * dim + [t_range], seed=seed)
    return raw[:, :dim], raw[:, dim]


def holder_pairs(dim: int, count: int, seed: int, radius: float = 2.0):
    """Point pairs x, y (P, N) in [-radius, radius]^N."""
    pts = halton_points(2 * count, [(-radius, radius)] * dim, seed=seed)
    return pts[0::2], pts[1::2]


def holder_pairs_two_arg(dim: int, n: int, count: int, seed: int, radius: float = 2.0):
    """Pairs of (point, configuration): x, y (P, N) in [-radius, radius]^N and
    configurations X, Y (P, N, n) scaled into the ball of that radius."""
    raw = halton_points(count, [(-radius, radius)] * (2 * dim + 2 * dim * n), seed=seed)
    conf = raw[:, 2 * dim:].reshape(count, 2, dim * n)
    nrm = np.sqrt(np.vecdot(conf, conf))
    conf *= (radius / np.maximum(nrm, radius))[:, :, None]  # exactly 1 inside the ball
    conf = conf.reshape(count, 2, dim, n)
    return raw[:, :dim], conf[:, 0], raw[:, dim:2 * dim], conf[:, 1]


# -- kernel checks ----------------------------------------------------------------


def check_kernel_mass(kernel: Kernel, samples, tolerance: float = 1e-6,
                      nodes: int | None = None) -> EstimateReport:
    """Quadrature of the kernel over its second spatial argument against its
    exact mass exp(c s), s = t - tau: the deviation of a sample is
    |s^(N/2) exp(-c s) mass - 1|, with the scaled quadrature's jacobian
    s^(N/2).  At c = 0 the factor exp(-c s) is exactly 1."""
    nodes = nodes if nodes is not None else {1: 128, 2: 64, 3: 32}[kernel.dim]
    u_pts, u_wts = tensor_grid(-_Z_MAX, _Z_MAX, nodes, kernel.dim)
    x, t, tau = samples
    s = t - tau
    mass = np.empty(len(t))
    step = max(1, _MASS_PASS_ENTRIES // len(u_pts))
    for lo in range(0, len(t), step):
        k = slice(lo, lo + step)
        # one kernel call for the pass, (sample, node)
        xi = (x[k] + kernel.b * s[k, None])[:, None, :] + np.sqrt(s[k])[:, None, None] * u_pts
        vals = kernel.eval(x[k, None, :], t[k, None], xi, tau[k, None])
        mass[k] = np.vecdot(vals, u_wts)
    devs = np.abs(s ** (kernel.dim / 2.0) * np.exp(-kernel.c * s) * mass - 1.0)
    report = EstimateReport(claim="kernel-mass", tolerance=tolerance, sample_count=len(t))
    return _reduce(report, devs, lambda k: (x[k], float(t[k]), float(tau[k])), deviation=True)


def check_gamma_estimates(kernel: Kernel, params: EstimateParams, samples,
                          tolerance: float = 1e-2,
                          c_gamma: float | None = None) -> dict[int, EstimateReport]:
    """Check the decay envelopes |D^k G| <= C (t-tau)^(-(N+k)/2)
    exp(-lambda0* r^2 / (4 (t-tau))) for k = 0, 1, 2 on the sample set; one
    kernel evaluation (`Kernel.derivatives`) measures all three orders."""
    if params.lambda0_star >= params.lambda0:
        raise ValueError("lambda0_star must be below lambda0")
    c_g = c_gamma if c_gamma is not None else params.c_gamma
    if c_g is None:
        raise ValueError("no envelope prefactor available")
    lam_star = params.lambda0_star
    dim = kernel.dim
    offsets, times = samples
    x0 = np.zeros(dim)
    # the decay factor of each sample, shared by its three envelopes
    decay = np.exp(-lam_star * np.vecdot(offsets, offsets) / (4.0 * times))
    # one kernel core for all samples and orders
    kernels = kernel.derivatives((0, 1, 2), x0, times, x0 - offsets, 0.0)
    reports = {}
    for order, values in enumerate(kernels):
        rep = EstimateReport(claim=f"kernel-decay-order{order}",
                             constants={"C_gamma": c_g, "lambda0_star": lam_star},
                             tolerance=tolerance, sample_count=len(times))
        # |entries| maxed per sample
        measured = np.abs(values).reshape(len(times), dim**order).max(axis=1)
        envelope = c_g * times ** (-(dim + order) / 2.0) * decay
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(envelope > 0, measured / envelope, np.inf)
        reports[order] = _reduce(rep, ratios, lambda k: (offsets[k], float(times[k])))
    return reports


# -- field derivative bounds --------------------------------------------------------


def check_prop1(scenario: Scenario, probe: FieldProbe, samples,
                tolerance: float = 1e-2, k_scale: float = 1.0) -> tuple[EstimateReport, EstimateReport]:
    """Compare measured field derivatives against the certified bounds

        |d_i f| <= K e^(kappa |x|^2) (H t^(-(1-alpha)/2) + 2/(alpha+1) t^((alpha+1)/2) H_X)
        |d2_ij f| <= K e^(kappa |x|^2) (H t^(-(1-alpha/2)) + 2/alpha t^(alpha/2) H_X)

    ``k_scale`` shrinks K for falsification controls.  Returns the gradient
    and hessian reports.  The bounds blow up at t = 0, so every sample needs
    t > 0 (ValueError otherwise).
    """
    pts, times = samples
    bad = np.flatnonzero(~(times > 0))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"prop1 sample {k} has t = {float(times[k])}; "
                         "the derivative bounds need t > 0")
    params = scenario.estimate_params
    big_k = params.big_k * k_scale
    kappa = params.kappa
    alpha = scenario.alpha
    h = scenario.growth.H
    h_x = scenario.growth.HR(probe.path.sup_position_norm())

    weight = big_k * np.exp(kappa * np.vecdot(pts, pts))
    bounds_g = weight * (h * times ** (-(1.0 - alpha) / 2.0)
                         + 2.0 / (alpha + 1.0) * times ** ((alpha + 1.0) / 2.0) * h_x)
    bounds_h = weight * (h * times ** (-(1.0 - alpha / 2.0))
                         + 2.0 / alpha * times ** (alpha / 2.0) * h_x)
    reports = []
    grads, hessians = probe.derivatives_many(pts, times, (1, 2))
    for claim, values, bounds in (("field-gradient-bound", grads, bounds_g),
                                  ("field-hessian-bound", hessians, bounds_h)):
        measured = np.abs(values).max(axis=tuple(range(1, values.ndim)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(bounds > 0, measured / bounds,
                              np.where(measured < 1e-14, 0.0, np.inf))
        rep = EstimateReport(claim=claim, constants={"K": big_k, "kappa": kappa, "H": h, "H_X": h_x},
                             tolerance=tolerance, sample_count=len(times))
        reports.append(_reduce(rep, ratios, lambda k: (pts[k], float(times[k]))))
    return tuple(reports)


# -- data regularity -----------------------------------------------------------------


def check_holder(fn, alpha: float, c_weight: float, claimed_h: float, pairs,
                 tolerance: float = 1e-9) -> EstimateReport:
    """Weighted Hoelder check on sampled argument pairs.

    Point pairs ``(x, y)`` check |fn(x) - fn(y)| against
    claimed_h * exp(c_weight * max(|x|^2, |y|^2)) * |x-y|^alpha; pairs
    ``(x, X, y, Y)`` with configurations X, Y (P, N, n) additionally carry the
    configuration term |X - Y|.  fn is called once per side with all pairs
    stacked.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    two_arg = len(pairs) == 4
    x, y = pairs[::2] if two_arg else pairs
    rep = EstimateReport(claim="holder-envelope",
                         constants={"H": claimed_h, "alpha": alpha, "C": c_weight},
                         tolerance=tolerance, sample_count=len(x))
    if len(x) == 0:
        return rep.finalize()
    if two_arg:
        xx, yy = pairs[1::2]
        fx, fy = fn(x, xx), fn(y, yy)
        dconf = (xx - yy).reshape(len(x), -1)
        conf = np.sqrt(np.vecdot(dconf, dconf))
    else:
        fx, fy = fn(x), fn(y)
        conf = 0.0
    # vecdot rounds as one-pair dot products and norms do
    num = np.abs(fx - fy)
    dist = np.sqrt(np.vecdot(x - y, x - y))
    sq = np.maximum(np.vecdot(x, x), np.vecdot(y, y))
    denom = claimed_h * np.exp(c_weight * sq) * (dist**alpha + conf)
    tiny = 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom <= tiny, np.where(num <= tiny, 0.0, np.inf), num / denom)

    def sample(k):
        return ((x[k], xx[k]), (y[k], yy[k])) if two_arg else (x[k], y[k])

    return _reduce(rep, ratios, sample, floor=0.0)


def check_phi_hessian(phi, claimed_h2: float, points, tolerance: float = 1e-6) -> EstimateReport:
    """A declared second-derivative bound of the initial datum
    (``GrowthSpec.H2``) against central-difference hessians of phi at the
    points (P, N): the ratio of a point is max_ij |d2_ij phi| / claimed_h2.
    One call of phi per difference offset serves every point (three in
    1D); the differences' own error, about 1e-7, sits well inside the
    tolerance."""
    rep = EstimateReport(claim="phi-hessian-bound", constants={"H2": claimed_h2},
                         tolerance=tolerance, sample_count=len(points))
    measured = np.abs(_fd_hessian_of(phi, points)).max(axis=(1, 2), initial=0.0)
    ratios = (measured / claimed_h2 if claimed_h2 > 0
              else np.where(measured <= tolerance, 0.0, np.inf))
    return _reduce(rep, ratios, lambda k: (points[k],), floor=0.0)


# -- integral-inequality oracle --------------------------------------------------------


def _double_integral(v, grid: np.ndarray, integrate):
    """(apply, rate) for the kernel v on the grid: ``apply(h)`` is the
    trapezoid rule for int_0^t int_0^tau v(s, tau) h(s) ds dtau at every
    node t, and ``rate`` is int_0^t v(s, t) ds; both are None when v is the
    number 0.  ``integrate`` is the cumulative trapezoid rule T on the grid.

    A number c is the constant kernel: the double integral is c T(T(h)) and
    the rate c T(1), with no matrix.  A callable is called once per node t
    with the array s of the nodes up to and including t, and fills one row
    of a grid-by-grid matrix."""
    if not callable(v):
        c = float(v)
        if not c >= 0.0:  # NaN too
            raise ValueError("v must be nonnegative and not NaN")
        if c == 0.0:
            return None, None
        return (lambda h: c * integrate(integrate(h)), c * integrate(np.ones_like(grid)))

    # row j holds v(grid[k], grid[j]) times the trapezoid weight of node k
    # on [0, grid[j]]: d[0]/2, then (d[k-1] + d[k])/2, then d[j-1]/2 (all
    # zero on row 0)
    m = len(grid)
    v_mat = np.zeros((m, m))
    for j in range(m):
        v_mat[j, :j + 1] = v(grid[:j + 1], grid[j])
    if not (v_mat >= 0).all():
        raise ValueError("v must be nonnegative and not NaN")
    d = np.diff(grid)
    diag = v_mat.diagonal()[1:] * (d / 2.0)
    v_mat[:, 0] *= d[0] / 2.0
    v_mat[:, 1:-1] *= (d[:-1] + d[1:]) / 2.0
    np.fill_diagonal(v_mat[1:, 1:], diag)
    v_mat[0] = 0.0
    return (lambda h: integrate(v_mat @ h)), v_mat.sum(axis=1)


def gronwall_oracle(alpha_g: float, w, v, grid, tolerance: float = 1e-3) -> EstimateReport:
    """Build the extremal function of the two-kernel integral inequality

        h(t) <= alpha_g + int_0^t w h + int_0^t int_0^tau v(s, tau) h(s) ds dtau

    by discrete fixed-point iteration and check it against the exponential
    bound alpha_g * exp(int_0^t (w(tau) + int_0^tau v(s, tau) ds) dtau).

    Each kernel is a number (a constant kernel) or a callable, which is
    always evaluated on arrays of grid nodes: ``w(grid)`` once, and
    ``v(s, t)`` once per grid node t with the array s of the grid nodes up
    to and including t, so v is never evaluated where s > t.  A callable may
    return a scalar, which counts for every node it was called with.  A
    constant v takes two cumulative trapezoid sums and no grid-by-grid
    matrix.  A grid that is not finite and increasing, an alpha_g that is
    not finite and nonnegative, and a negative or NaN kernel value raise
    ValueError."""
    grid = np.asarray(grid, dtype=float)
    m = len(grid)
    steps = grid[1:] - grid[:-1]
    # increasing steps (NaN fails them) between finite ends: a finite grid
    if m < 2 or not (np.all(steps > 0) and np.isfinite(grid[[0, -1]]).all()):
        raise ValueError("grid must be finite and increasing with at least two nodes")
    halves = 0.5 * steps  # formed once for every integral on the grid

    def integrate(y):
        return trapezoid_cumulative(y, grid, halves)

    if not 0.0 <= alpha_g < math.inf:  # NaN too
        raise ValueError(f"alpha_g must be finite and nonnegative, got {alpha_g}")
    w_vals = np.broadcast_to(np.asarray(w(grid) if callable(w) else w, dtype=float), grid.shape)
    if not (w_vals >= 0).all():
        raise ValueError("w must be nonnegative and not NaN")
    double, v_rate = _double_integral(v, grid, integrate)

    h = np.full(m, alpha_g, dtype=float)
    cap = 1e12 * max(1.0, alpha_g)
    for _ in range(400):
        h_new = alpha_g + integrate(w_vals * h)
        if double is not None:
            h_new += double(h)
        # no entry is below 0 (all inputs are nonnegative), so the maximum
        # is NaN or inf when any entry is not finite
        top = float(h_new.max())
        if not top <= cap:
            raise RuntimeError("discrete fixed-point diverged; inputs not integrable on this grid")
        step = float(np.abs(h_new - h).max())
        h = h_new
        if step <= 1e-13 * max(1.0, alpha_g, top):
            break
    else:
        raise RuntimeError("discrete fixed-point did not stabilize")

    rate = w_vals if v_rate is None else w_vals + v_rate
    bound = alpha_g * np.exp(integrate(rate))
    rep = EstimateReport(claim="integral-inequality-bound",
                         constants={"alpha_g": alpha_g},
                         tolerance=tolerance, sample_count=m)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(bound > 0, h / bound, np.where(h <= 1e-15, 0.0, np.inf))
    return _reduce(rep, ratios, lambda k: (grid[k],))


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
    inner = len(times) - 2
    W = sensed_gradients(probe, path.X[1:-1], times[1:-1], delta)
    forces = scenario.force.eval(times[1:-1], path.X[1:-1], path.V[1:-1], W)
    dt2 = (times[2:] - times[:-2])[:, None, None]
    res_x = ((path.X[2:] - path.X[:-2]) / dt2 - path.V[1:-1]).reshape(inner, -1)
    res_v = ((path.V[2:] - path.V[:-2]) / dt2 - forces).reshape(inner, -1)
    res = np.maximum(np.sqrt(np.vecdot(res_x, res_x)), np.sqrt(np.vecdot(res_v, res_v)))
    rep = EstimateReport(claim="ode-residual", tolerance=tolerance, sample_count=inner)
    return _reduce(rep, res, lambda k: (float(times[k + 1]),), deviation=True)
