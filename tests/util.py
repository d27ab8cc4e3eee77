"""Shared scenario builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from chemosim.field import (
    FieldProbe,
    QuadratureSpec,
    _gaussian_factors,
    _gaussian_integrals,
    _phi_at_zero,
)
from chemosim.paths import AgentPath
from chemosim.picard import (
    MODE_NONLOCAL,
    MODE_POINTWISE,
    PicardError,
    _check_tube,
    _segment_grid,
    _sweep,
    horizon_certificate,
)
from chemosim.presets import (
    coefficient_preset,
    force_preset,
    g_preset,
    phi_preset,
)
from chemosim.quadrature import (
    gauss_legendre,
    halton_points,
    sphere_rule,
    tensor_grid,
    trapezoid_cumulative,
)
from chemosim.scenario import ForceLaw, GrowthSpec, make_scenario
from chemosim.verify import EstimateReport


def build(coeff="heat", phi="zero", g="zero", force="zero", dim=1, T=1.0,
          X0=None, V0=None, R=1.0, delta=None, alpha=0.5,
          g_kwargs=None, force_kwargs=None, M_override=None, C_override=None):
    """Assemble a validated scenario from preset names (or ready-made parts);
    phi's ``hessian_bound``, when it declares one, is the growth's H2, as in
    a config."""
    coeffs = coefficient_preset(coeff, dim, alpha) if isinstance(coeff, str) else coeff
    if isinstance(phi, str):
        phi_fn, h_phi, c_phi, m_phi = phi_preset(phi)
    else:
        phi_fn, h_phi, c_phi, m_phi = phi
    X0 = np.zeros((dim, 1)) if X0 is None else np.atleast_2d(np.asarray(X0, dtype=float))
    n = X0.shape[1]
    V0 = np.zeros((dim, n)) if V0 is None else np.atleast_2d(np.asarray(V0, dtype=float))
    if isinstance(g, str):
        g_fn, hr, c_g, m_g = g_preset(g, n, **(g_kwargs or {}))
    else:
        g_fn, hr, c_g, m_g = g
    if isinstance(force, str):
        force_law = force_preset(force, **(force_kwargs or {}))
    else:
        force_law = force
    growth = GrowthSpec(C=C_override if C_override is not None else max(c_phi, c_g),
                        H=h_phi, HR=hr,
                        M=M_override if M_override is not None else max(m_phi, m_g),
                        T=T, H2=getattr(phi_fn, "hessian_bound", None))
    return make_scenario(coeffs, phi_fn, g_fn, force_law, X0, V0, growth,
                         R=R, nonlocal_delta=delta)


def constant_force_law(fbar) -> ForceLaw:
    fbar = np.asarray(fbar, dtype=float)
    return ForceLaw(eval=lambda t, X, V, W: np.zeros(np.shape(X)) + fbar[:, None], lipschitz_w=0.0,
                    lipschitz_xv=lambda r: 0.0, lipschitz_global=0.0)


def oscillating_force_law(amplitude, omega) -> ForceLaw:
    """F = amplitude sin(omega t) on every agent and axis, whatever the state."""
    def force(t, X, V, W):
        wave = amplitude * np.sin(omega * np.asarray(t, dtype=float))
        return np.zeros(np.shape(X)) + wave[..., None, None]
    return ForceLaw(eval=force, lipschitz_w=0.0, lipschitz_xv=lambda r: 0.0,
                    lipschitz_global=0.0)


# -- independent oracles -------------------------------------------------------


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization of a scalar unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def direction_set(dim):
    """Unit directions: the axes, after 256 equally spaced angles (2D) or a
    32 x 64 Gauss-Legendre x trapezoid grid (3D).  The kernel once took C_gamma
    as its maximum over these directions."""
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(256) / 256
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        dirs, _ = loop_sphere_rule_3d(32, 64)
    return np.vstack([dirs, np.eye(dim)])


def dense_directions(dim, count):
    """About ``count`` unit directions spread over the sphere: equally spaced
    angles on a half circle in 2D (every envelope ratio is even in the
    direction), a Fibonacci lattice in 3D."""
    if dim == 2:
        theta = np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    z = 1.0 - (2.0 * np.arange(count) + 1.0) / count
    azimuth = np.pi * (1.0 + math.sqrt(5.0)) * np.arange(count)
    ring = np.sqrt(1.0 - z * z)
    return np.stack([ring * np.cos(azimuth), ring * np.sin(azimuth), z], axis=-1)


def sampled_envelope_peaks(kernel, params, dirs, t_max=1.0, chunk=20_000):
    """Envelope prefactors of orders 0, 1 and 2, each maximized over the unit
    directions ``dirs`` (M, N), exactly in the radius along each direction:
    the sampled form ``kernel._envelope_peaks`` had before its closed form.
    Along x - xi = z sqrt(s) eta, with w = a^-1 eta and beta = (<w, eta> -
    lambda0_star)/4 > 0, order 1 peaks at z^2 = 1/(2 beta), and order 2's
    |A u - B| exp(-beta u), u = z^2, A = w_i w_j / 4, B = (a^-1)_ij / 2, at
    u = 0 or u* = 1/beta + B/A."""
    pref = (4.0 * math.pi) ** (-kernel.dim / 2.0) / math.sqrt(kernel.det_a)
    c_factor = math.exp(max(kernel.c, 0.0) * t_max)
    big_b = kernel.a_inv / 2.0
    peak1 = peak2 = 0.0
    for start in range(0, len(dirs), chunk):
        part = dirs[start:start + chunk]
        w_dirs = part @ kernel.a_inv
        beta = (np.einsum("ij,ij->i", w_dirs, part) - params.lambda0_star) / 4.0
        if beta.min() <= 0:
            raise ValueError("lambda0_star too large for this diffusion matrix")
        peak1 = max(peak1, float((np.abs(w_dirs).max(axis=1) / 2.0 * np.sqrt(0.5 / beta)).max())
                    * math.exp(-0.5))
        big_a = w_dirs[:, :, None] * w_dirs[:, None, :] / 4.0
        beta_b = beta[:, None, None]
        nonzero = big_a != 0.0
        u_star = 1.0 / beta_b + big_b / np.where(nonzero, big_a, 1.0)
        u_star = np.where(nonzero & (u_star > 0.0), u_star, np.inf)
        stationary = np.abs(big_a) / beta_b * np.exp(-beta_b * u_star)
        peak2 = max(peak2, float(np.maximum(np.abs(big_b), stationary).max()))
    return pref * c_factor * np.array([1.0, peak1, peak2])


def golden_cgamma(kernel, params, order, t_max=1.0, dirs=None):
    """``kernel.gamma_estimate_Cgamma`` by search: for each direction, sample
    the envelope ratio on a 2048-point z-grid, then refine its largest sample
    by golden section.  ``dirs`` defaults to `direction_set`."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if params.lambda0_star >= params.lambda0:
        raise ValueError("lambda0_star must be below lambda0")
    if np.any(kernel.b != 0.0):
        raise ValueError("envelope maximization requires zero drift")
    lam_star = params.lambda0_star
    pref = (4.0 * math.pi) ** (-kernel.dim / 2.0) / math.sqrt(kernel.det_a)
    c_factor = math.exp(max(kernel.c, 0.0) * t_max)

    if dirs is None:
        dirs = direction_set(kernel.dim)
    w_dirs = dirs @ kernel.a_inv                       # (M, N)
    q_dirs = np.einsum("ij,ij->i", w_dirs, dirs)       # <a^-1 eta, eta>
    beta = (q_dirs - lam_star) / 4.0
    if beta.min() <= 0:
        raise ValueError("lambda0_star too large for this diffusion matrix")

    def ratio(z: np.ndarray, m: int) -> np.ndarray:
        # envelope ratio for direction index m at similarity values z
        decay = np.exp(-beta[m] * z**2)
        if order == 0:
            shape = np.ones_like(z)
        elif order == 1:
            shape = z * np.abs(w_dirs[m]).max() / 2.0
        else:
            w = w_dirs[m]
            comp = np.abs(np.multiply.outer(z**2, np.outer(w, w) / 4.0)
                          - kernel.a_inv / 2.0)
            shape = comp.reshape(len(z), -1).max(axis=1)
        return pref * shape * decay

    z_max = math.sqrt(30.0 / beta.min())
    z_grid = np.linspace(0.0, z_max, 2048)
    best = 0.0
    for m in range(len(dirs)):
        vals = ratio(z_grid, m)
        i = int(np.argmax(vals))
        lo = z_grid[max(i - 1, 0)]
        hi = z_grid[min(i + 1, len(z_grid) - 1)]
        if hi > lo:
            _, v = _golden_max(lambda z: float(ratio(np.array([z]), m)[0]), lo, hi)
        else:
            v = float(vals[i])
        best = max(best, v)
    return best * c_factor


def loop_sphere_rule_3d(n_polar, n_azimuth):
    """A Gauss-Legendre x trapezoid rule on the unit sphere in R^3, built one
    (polar, azimuth) node at a time; at (8, 16) it is ``quadrature.sphere_rule(3)``."""
    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    theta = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    wtheta = 2.0 * np.pi / n_azimuth
    pts = []
    wts = []
    for m, wm in zip(mu, wmu):
        s = np.sqrt(1.0 - m * m)
        for th in theta:
            pts.append([s * np.cos(th), s * np.sin(th), m])
            wts.append(wm * wtheta)
    return np.asarray(pts), np.asarray(wts)


def ball_average_rule(dim: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights so that sum(w * h(x + offsets)) averages h over a
    ball: the volume rule that non-local sensing applied to gradients before
    it took the divergence form, kept as its oracle.

    Weights sum to 1; the rule is the product of a 12-node radial
    Gauss-Legendre rule (with the r^{dim-1} volume factor) and the default
    sphere rule, normalized by the ball volume.
    """
    r, wr = gauss_legendre(0.0, radius, 12)
    s_pts, s_wts = sphere_rule(dim)
    offsets = (r[:, None, None] * s_pts[None, :, :]).reshape(-1, dim)
    wts = ((wr * r**(dim - 1))[:, None] * s_wts[None, :]).ravel()
    return offsets, wts / wts.sum()  # the sum is the ball volume up to quadrature error


def volume_ball_average(gradient_many, pts, t, delta):
    """Ball averages of grad f at stacked centres ``pts`` (P, N) at time
    ``t`` by `ball_average_rule`, from ``gradient_many(points, t)``: the
    gradient at stacked points, shape (points, N)."""
    offsets, wts = ball_average_rule(pts.shape[1], delta)
    grads = gradient_many((pts[:, None, :] + offsets).reshape(-1, pts.shape[1]), t)
    return wts @ grads.reshape(len(pts), len(wts), -1)


def loop_horizon_T1(scenario, radius=None, params=None, delta=None):
    """``picard.horizon_T1`` as it was when each call derived its own inputs,
    with the conservative exponential factor e^{2 kappa (...)}."""
    r = radius if radius is not None else scenario.R
    params = params if params is not None else scenario.estimate_params
    n = scenario.n
    dim = scenario.dimension
    alpha = scenario.alpha
    x0_norm, v0_norm = float(np.linalg.norm(scenario.X0)), float(np.linalg.norm(scenario.V0))
    first = r / (n * (r + v0_norm))
    l_f = scenario.lipschitz_w
    h_x = scenario.growth.HR(x0_norm + r)
    if l_f > 0 and params.big_k > 0:
        extra = delta * delta if delta is not None else 0.0
        expfac = math.exp(2.0 * params.kappa * (x0_norm**2 + r**2 + extra))
        denom = (2.0 * n * math.sqrt(dim) * l_f * params.big_k * expfac / (alpha + 1.0)) \
            * (1.0 + 2.0 * h_x / (alpha + 3.0))
        second = (r / denom) ** (2.0 / (alpha + 1.0))
    else:
        second = math.inf
    return min(first, second, scenario.growth.T)


def loop_contraction_S(scenario, radius=None, t_bar=None, params=None, delta=None):
    """``picard.contraction_S`` as it was when each call derived its own
    inputs, with the conservative exponential factor."""
    r = radius if radius is not None else scenario.R
    if t_bar is None or t_bar <= 0:
        raise ValueError("t_bar must be positive")
    params = params if params is not None else scenario.estimate_params
    n_dim = scenario.dimension
    alpha = scenario.alpha
    growth = scenario.growth
    x0_norm = float(np.linalg.norm(scenario.X0))
    gamma_bar = params.lambda0_star / 4.0 - 2.0 * growth.C * t_bar
    if gamma_bar <= 0:
        raise ValueError("t_bar too large: gamma_bar = lambda0*/4 - 2*C*t_bar must be positive")
    l_f = scenario.lipschitz_w
    l_f_r = scenario.lipschitz_xv(r)
    h_x = growth.HR(x0_norm + r)
    h_r = growth.HR(x0_norm + r + (delta or 0.0))
    extra = delta * delta if delta is not None else 0.0
    expfac = math.exp(2.0 * params.kappa * (x0_norm**2 + r**2 + extra))

    term1 = 2.0 * l_f_r * t_bar
    # L_F N^2 times the entrywise hessian bound of f integrated over [0,
    # t_bar]: phi's part by the envelope K e^{kappa |x|^2} H s^(alpha/2 - 1)
    # or, for a declared H2 and constant coefficients, by e^{max(c, 0) T} H2;
    # g's part by the envelope
    envelope = l_f * n_dim**2 * params.big_k * expfac * t_bar ** (alpha / 2.0) * (2.0 / alpha)
    if growth.H2 is None or not scenario.coeffs.is_constant:
        term2 = envelope * (growth.H + h_x * t_bar)
    else:
        declared = l_f * n_dim**2 * growth.H2 * math.exp(max(scenario.kernel.c, 0.0) * growth.T)
        term2 = min(envelope * growth.H, declared * t_bar) + envelope * h_x * t_bar
    term3 = (l_f * params.c_gamma * h_r
             * math.exp(2.0 * growth.C * (x0_norm**2 + r**2 + extra))
             * (math.pi / gamma_bar) ** (n_dim / 2.0) * t_bar**1.5)
    return term1 + term2 + term3


def loop_certificate_fields(scenario, radius=None, delta=None, safety=0.9):
    """(t_range, t_contract, t_bar, s_value, gamma_bar) by the certificate's
    80-step bisection over ``loop_horizon_T1`` and ``loop_contraction_S``."""
    r = radius if radius is not None else scenario.R
    params = scenario.estimate_params
    growth = scenario.growth
    t1 = loop_horizon_T1(scenario, r, params, delta)
    cap = growth.T
    if growth.C > 0:
        cap = min(cap, 0.999 * params.lambda0_star / (8.0 * growth.C))
    s_fn = lambda t: loop_contraction_S(scenario, r, t, params, delta)
    if s_fn(cap) <= 0.9:
        t2 = cap
    else:
        lo, hi = 0.0, cap
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if s_fn(mid) <= 0.9:
                lo = mid
            else:
                hi = mid
        t2 = lo
    t_bar = safety * min(t1, t2)
    gamma_bar = params.lambda0_star / 4.0 - 2.0 * growth.C * t_bar
    return t1, t2, t_bar, s_fn(t_bar), gamma_bar


def heat_gaussian_field(x, t, dim):
    """Closed-form evolution of exp(-|x|^2) under the constant unit-diffusion flow."""
    x = np.asarray(x, dtype=float)
    sig = 1.0 + 4.0 * t
    return sig ** (-dim / 2.0) * math.exp(-float(x @ x) / sig)


def heat_gaussian_grad(x, t, dim):
    x = np.asarray(x, dtype=float)
    sig = 1.0 + 4.0 * t
    return -2.0 * x / sig * heat_gaussian_field(x, t, dim)


def heat_gaussian_hess(x, t, dim):
    x = np.asarray(x, dtype=float)
    sig = 1.0 + 4.0 * t
    f = heat_gaussian_field(x, t, dim)
    return (4.0 * np.outer(x, x) / sig**2 - 2.0 * np.eye(dim) / sig) * f


def gaussian_evolution(a, pts, t):
    """Value, gradient and hessian at stacked points (P, N) of the exact
    evolution of exp(-|x|^2) under f_t = sum a_ij d_ij f for a constant
    diffusion matrix a: det(I + 4ta)^(-1/2) exp(-x^T (I + 4ta)^-1 x)."""
    a = np.asarray(a, dtype=float)
    m = np.eye(len(a)) + 4.0 * t * a
    m_inv = np.linalg.inv(m)
    w = pts @ m_inv
    f = np.exp(-np.sum(w * pts, axis=-1)) / math.sqrt(np.linalg.det(m))
    grad = -2.0 * w * f[:, None]
    hess = (4.0 * w[:, :, None] * w[:, None, :] - 2.0 * m_inv) * f[:, None, None]
    return f, grad, hess


def rk4_second_order(force, x0, v0, t_end, dt):
    """High-order integrator for x'' = force(t, x, v) with (N, n) states."""
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    n_steps = int(round(t_end / dt))
    times = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    for k in range(n_steps):
        t = k * dt

        def deriv(xx, vv, tt):
            return vv, force(tt, xx, vv)

        k1x, k1v = deriv(x, v, t)
        k2x, k2v = deriv(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v, t + 0.5 * dt)
        k3x, k3v = deriv(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v, t + 0.5 * dt)
        k4x, k4v = deriv(x + dt * k3x, v + dt * k3v, t + dt)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        times.append((k + 1) * dt)
        xs.append(x.copy())
        vs.append(v.copy())
    return np.asarray(times), np.asarray(xs), np.asarray(vs)


def loop_gradient(scenario, path, x, t):
    """Closed-form grad f(x, t) for t > 0 with the default quadrature, one
    s-node of the Duhamel integral at a time: the plain loop that the batched
    field evaluator must reproduce for a source without Gaussian structure."""
    quad = QuadratureSpec()
    kern = scenario.kernel
    dim = kern.dim
    u_max = quad.resolved_u_max(dim)
    u_pts, u_wts = tensor_grid(-u_max, u_max, quad.resolved_space_nodes(dim), dim)
    chol = np.linalg.cholesky(kern.a)  # xi = x + b (t - tau) + sqrt(t - tau) L u
    u_pts, u_wts = u_pts @ chol.T, u_wts * np.prod(np.diag(chol))
    x = np.asarray(x, dtype=float)[None, None, :]
    xi = x + kern.b * t + math.sqrt(t) * u_pts[None]
    k = kern.grad_x(x, t, xi, 0.0)
    initial = t ** (dim / 2.0) * np.einsum("m,pmi,pm->pi", u_wts, k, scenario.phi(xi))[0]
    source = np.zeros(dim)
    s_nodes, s_wts = gauss_legendre(0.0, math.sqrt(t), quad.time_nodes)
    for s, ws in zip(s_nodes, s_wts):
        tau = max(t - s * s, 0.0)
        xi = x + kern.b * (s * s) + s * u_pts[None]
        gv = scenario.g(xi, path.positions_at(tau))
        k = kern.grad_x(x, t, xi, tau)
        source += 2.0 * s ** (dim + 1) * ws * np.einsum("m,pmi,pm->pi", u_wts, k, gv)[0]
    return initial - source


def gaussian_integral_per_item(kernel, order, d, sigma, rate):
    """x-derivative of the given order of the integral over xi of
    G(x, t, xi, tau) exp(-rate |xi - X|^2), for stacked d = x - X + b sigma
    (..., N) and sigma = t - tau broadcasting against d's leading axes: the
    closed form per item, with the axes trailing and matmul rotations, as
    the reference for the field evaluator's axis-last passes.

    With M = I + 4 rate sigma a the integral is
    det(M)^(-1/2) exp(-rate d^T M^-1 d + c sigma); the gradient is
    -2 rate M^-1 d times that, the hessian
    (4 rate^2 (M^-1 d)(M^-1 d)^T - 2 rate M^-1) times that."""
    lam, q = kernel.eig
    m = 1.0 + 4.0 * rate * sigma[..., None] * lam  # eigenvalues of M
    e = d @ q
    val = np.exp(-rate * np.sum(e * e / m, axis=-1) + kernel.c * sigma) / np.sqrt(np.prod(m, axis=-1))
    if order == 0:
        return val
    w = (e / m) @ q.T  # M^-1 d
    if order == 1:
        return (-2.0 * rate) * w * val[..., None]
    m_inv = (q / m[..., None, :]) @ q.T
    m_inv = 0.5 * (m_inv + np.swapaxes(m_inv, -1, -2))
    outer = w[..., :, None] * w[..., None, :]
    return (4.0 * rate * rate * outer - 2.0 * rate * m_inv) * val[..., None, None]


def loop_closed_form(scenario, path, x, t, order, time_nodes=32):
    """Derivative of the given order of f(x, t), t > 0, for a scenario whose
    phi and g are zero or declare Gaussian structure: one point, and one
    s-node of the source integral at a time, each through
    `gaussian_integral_per_item`."""
    kern = scenario.kernel
    x = np.asarray(x, dtype=float)
    out = np.zeros((kern.dim,) * order)
    for datum, source in ((scenario.phi, False), (scenario.g, True)):
        if getattr(datum, "is_zero", False):
            continue
        gauss = datum.gaussian_source
        if source:
            s_base, s_wts = gauss_legendre(0.0, 1.0, time_nodes)
            nodes = [(2.0 * s * (ws * math.sqrt(t)), max(t - s * s, 0.0))
                     for s, ws in zip(s_base * math.sqrt(t), s_wts)]
        else:
            nodes = [(1.0, 0.0)]
        acc = np.zeros((kern.dim,) * order)
        for weight, tau in nodes:
            sigma = t - tau
            if gauss.at_agents:
                centres = path.positions_at(tau).T
            else:
                centres = np.zeros((1, kern.dim))
            d = x - centres + kern.b * sigma
            k = gaussian_integral_per_item(kern, order, d, np.full(len(d), sigma), gauss.rate)
            acc = acc + weight * (gauss.weight * k.sum(axis=0))
        out = out - acc if source else out + acc
    return out


def per_item_kernel_integral(probe, datum, source, pts, t, orders, chunk=2**13):
    """The kernel integral of phi (``source`` false) or g of
    ``FieldTable._integral`` in its per-item layout: item k is the
    (s-node j, point i) pair k = j * P + i, and each item computes its own
    tau, weight and X(tau).  Passes of at most ``chunk`` entries run in item
    order, and each item is added to its point one s-node at a time.  A
    closed-form item's arithmetic is that of the field evaluator; a
    spatial-rule item evaluates the kernel itself, on its own nodes
    xi = x + b sigma + sqrt(sigma) L u, at its own x, t and tau."""
    kern = probe.scenario.kernel
    dim = kern.dim
    quad = probe.quad
    u_max = quad.resolved_u_max(dim)
    u_pts, u_wts = tensor_grid(-u_max, u_max, quad.resolved_space_nodes(dim), dim)
    chol = np.linalg.cholesky(kern.a)  # xi = x + b sigma + sqrt(sigma) L u
    u_pts, u_wts = u_pts @ chol.T, u_wts * np.prod(np.diag(chol))
    s_base, s_wts = gauss_legendre(0.0, 1.0, quad.time_nodes)
    contractions = ("m,pm,pm->p", "m,pmi,pm->pi", "m,pmij,pm->pij")
    n_pts = len(pts)
    shapes = [(n_pts,) + (dim,) * order for order in orders]
    if getattr(datum, "is_zero", False):
        return [np.zeros(shape) for shape in shapes]
    gauss = getattr(datum, "gaussian_source", None)
    per_item = (probe.scenario.n if gauss is not None else len(u_pts)) * dim**max(orders)
    step = max(1, chunk // per_item)
    n_items = (len(s_base) if source else 1) * n_pts
    accs = [np.zeros(shape) for shape in shapes]
    pts_t = pts.T
    for lo in range(0, n_items, step):
        j, i = np.divmod(np.arange(lo, min(lo + step, n_items)), n_pts)
        t_i = t[i]
        if source:
            sqrt_t = np.sqrt(t_i)
            s = s_base[j] * sqrt_t
            weight = 2.0 * s * (s_wts[j] * sqrt_t)
            tau = np.maximum(t_i - s * s, 0.0)
            X = probe.path.positions_at(tau)
        else:
            weight, tau, X = np.ones(len(i)), np.zeros(len(i)), None
        sigma = t_i - tau
        if gauss is None:
            x = pts[i]
            xi = (x + kern.b * sigma[:, None])[:, None, :] + np.sqrt(sigma)[:, None, None] * u_pts
            vals = datum(xi, X[:, None]) if source else datum(xi)
            weight = weight * sigma ** (dim / 2.0)
            terms = [weight.reshape((-1,) + (1,) * order) * np.einsum(
                contractions[order], u_wts,
                (kern.eval, kern.grad_x, kern.hess_x)[order](
                    x[:, None, :], t_i[:, None], xi, tau[:, None]), vals)
                for order in orders]
        else:
            centres = np.moveaxis(X, 0, -1) if gauss.at_agents else np.zeros((dim, 1, 1))
            d = pts_t[:, i][:, None, :] - centres + kern.b[:, None, None] * sigma
            factors = _gaussian_factors(kern, sigma, gauss.rate)
            terms = [np.moveaxis(weight * (gauss.weight * k), -1, 0)
                     for k in _gaussian_integrals(kern, d, *factors, gauss.rate, orders)]
        hi = lo + len(i)
        bounds = [lo, *range((lo // n_pts + 1) * n_pts, hi, n_pts), hi]
        for a, b in zip(bounds, bounds[1:]):
            for acc, term in zip(accs, terms):
                acc[a % n_pts:a % n_pts + b - a] += term[a - lo:b - lo]
    return accs


def per_item_derivatives(probe, pts, t, orders):
    """``FieldProbe.derivatives_many`` on the closed-form backend with the
    kernel integrals of `per_item_kernel_integral`; points at t = 0 take the
    probe's initial-datum branch."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(pts),))
    dim = probe.scenario.dimension
    outs = [np.empty((len(pts),) + (dim,) * order) for order in orders]
    at_zero, live = t == 0.0, t != 0.0
    for out, vals in zip(outs, _phi_at_zero(probe.scenario.phi, pts[at_zero], orders)):
        out[at_zero] = vals
    initial = per_item_kernel_integral(probe, probe.scenario.phi, False, pts[live], t[live], orders)
    source = per_item_kernel_integral(probe, probe.scenario.g, True, pts[live], t[live], orders)
    for out, a, b in zip(outs, initial, source):
        out[live] = a - b
    return outs


def loop_kernel_mass_deviations(kernel, samples, nodes=None):
    """|mass e^{-c s} - 1| per sample of `verify.check_kernel_mass`, one
    kernel call per sample."""
    nodes = nodes if nodes is not None else {1: 128, 2: 64, 3: 32}[kernel.dim]
    u_pts, u_wts = tensor_grid(-12.0, 12.0, nodes, kernel.dim)
    x, t, tau = samples
    devs = []
    for xk, tk, tau_k in zip(x, t.tolist(), tau.tolist()):
        s = tk - tau_k
        xi = (xk + kernel.b * s)[None, :] + math.sqrt(s) * u_pts
        vals = kernel.eval(xk[None, :], tk, xi, tau_k)
        devs.append(abs(s ** (kernel.dim / 2.0) * math.exp(-kernel.c * s) * float(u_wts @ vals)
                        - 1.0))
    return np.asarray(devs)


def loop_fd_step(scenario, axes, h, f, t, dt, X):
    """One explicit step of the finite-difference solve from the grid values
    ``f`` at time ``t`` on the box of ``axes`` with spacing ``h``, with the
    agents at ``X`` (N, n), one cell at a time, from the stencil
    `field.solve_field_fd` documents: an interior cell becomes
    f + dt (c f + sum_i [a_ii D_ii f + b_i D_i f + sum_{j > i} 2 a_ij D_ij f] - g),
    summed in that order with the coefficients at the cell, and a boundary
    cell becomes phi.  phi and g are each one call on the grid's points,
    since the data's own rounding is not the stencil's."""
    coeffs = scenario.coeffs
    dim = len(axes)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    phi, g = scenario.phi(pts), scenario.g(pts, X)
    out = np.empty(f.shape)
    for cell in np.ndindex(f.shape):
        if any(k in (0, n - 1) for k, n in zip(cell, f.shape)):
            out[cell] = phi[cell]
            continue

        def at(*steps):
            # f at the cell moved by (axis, offset) steps
            moved = list(cell)
            for axis, offset in steps:
                moved[axis] += offset
            return float(f[tuple(moved)])

        a = np.asarray(coeffs.a(pts[cell], t), dtype=float)
        b = np.asarray(coeffs.b(pts[cell], t), dtype=float)
        here = float(f[cell])
        rhs = float(coeffs.c(pts[cell], t)) * here
        for i in range(dim):
            d_ii = (at((i, 1)) - 2.0 * here + at((i, -1))) / (h * h)
            d_i = (at((i, 1)) - at((i, -1))) / (2.0 * h)
            rhs = rhs + float(a[i, i]) * d_ii
            rhs = rhs + float(b[i]) * d_i
            for j in range(i + 1, dim):
                d_ij = (at((i, 1), (j, 1)) + at((i, -1), (j, -1))
                        - at((i, 1), (j, -1)) - at((i, -1), (j, 1))) / (4.0 * h * h)
                rhs = rhs + 2.0 * float(a[i, j]) * d_ij
        out[cell] = here + dt * (rhs - float(g[cell]))
    return out


def loop_fd_hessian(fdf, pts, t):
    """``field.FdField.hessian_many`` as its own loop over the axes: column
    j is the central difference, step h, of two ``gradient_many`` calls at
    pts +- h e_j, and the result is symmetrized."""
    pts = np.atleast_2d(pts)
    dim = len(fdf.axes)
    out = np.empty((len(pts), dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = fdf.h
        out[:, :, j] = (fdf.gradient_many(pts + e, t)
                        - fdf.gradient_many(pts - e, t)) / (2.0 * fdf.h)
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def masked_interp(path, values, t):
    """``AgentPath.positions_at`` / ``velocities_at`` of ``values`` (nodes, N,
    n) at times ``t`` in its former layout: an elementwise range mask, both
    times and node indices clamped, and the (N * n, K) gather moved to
    (*t.shape, N, n) with ``np.moveaxis``."""
    times = path.times
    t = np.asarray(t, dtype=float)
    eps = 1e-9 * max(1.0, abs(path.horizon))
    outside = ~((t >= times[0] - eps) & (t <= times[-1] + eps))  # NaN too
    if np.any(outside):
        bad = float(t[outside][0]) if t.ndim else float(t)
        raise ValueError(f"time {bad} outside path range [{times[0]}, {times[-1]}]")
    flat = np.minimum(np.maximum(t.ravel(), times[0]), times[-1])
    idx = np.minimum(np.maximum(np.searchsorted(times, flat, side="right") - 1, 0), len(times) - 2)
    lam = (flat - times[idx]) / (times[idx + 1] - times[idx])
    cols = values.reshape(len(times), -1).T
    out = (1.0 - lam) * np.take(cols, idx, axis=1) + lam * np.take(cols, idx + 1, axis=1)
    return np.moveaxis(out.reshape(values.shape[1:] + t.shape), (0, 1), (-2, -1))


def per_node_sweep(path, scenario, delta=None):
    """The update map applied one time node at a time, with one field call
    per node (pointwise) or per agent and node (ball average) and one
    force-law call per node."""
    probe = FieldProbe(scenario, path)
    times = path.times
    forces = np.empty(path.X.shape)
    v_in = np.empty(path.V.shape)
    for k, t in enumerate(times):
        xk = path.positions_at(float(t))
        vk = path.velocities_at(float(t))
        v_in[k] = vk
        if delta is None:
            w = probe.gradient_many(xk.T, float(t)).T
        else:
            w = np.stack([probe.ball_average_gradient(x, float(t), delta) for x in xk.T], axis=1)
        forces[k] = scenario.force.eval(float(t), xk, vk, w)
    return AgentPath(times, scenario.X0 + trapezoid_cumulative(v_in, times),
                     scenario.V0 + trapezoid_cumulative(forces, times))


def loop_cubic_extrapolation(previous, times):
    """V of ``picard._start_path``'s extrapolated start, one Lagrange basis
    at a time: the cubic through the previous segment's V at its first node,
    its last node and the two nodes nearest its thirds, each basis a running
    product of its factors and V a running sum of its terms."""
    last = len(previous.times) - 1
    nodes = [0, round(last / 3), round(2 * last / 3), last]
    t_k, v_k = previous.times[nodes], previous.V[nodes]
    V = np.zeros((len(times),) + previous.V.shape[1:])
    for i in range(4):
        basis = np.ones(len(times))
        for j in range(4):
            if j != i:
                basis = basis * ((times - t_k[j]) / (t_k[i] - t_k[j]))
        V += basis[:, None, None] * v_k[i]
    return V


def constant_start_global(scenario, horizon, tol=1e-8, mode=MODE_POINTWISE, dt=1e-2,
                          max_iters=50, safety=0.9, quad=None):
    """``picard.solve_global`` with every segment's Picard iteration started
    from the path frozen at its initial state, by its own loop over
    ``picard._sweep`` that checks each path against the tube before sweeping
    it (``_sweep`` leaves that to its caller): the continuation that the
    Taylor and extrapolated starts must reproduce to within the iteration
    tolerance.  Returns the path and the iterations per segment."""
    delta = scenario.nonlocal_delta if mode == MODE_NONLOCAL else None
    full = None
    sweeps = []
    t0 = 0.0
    X0, V0 = scenario.X0, scenario.V0
    while horizon - t0 > 1e-12 * max(1.0, horizon):
        seg_scn = replace(scenario, X0=X0, V0=V0)
        cert = horizon_certificate(seg_scn, mode=mode, delta=delta,
                                   params=scenario.estimate_params, safety=safety, t0=t0)
        t1 = min(t0 + cert.t_bar, horizon)
        seg = AgentPath.constant(X0, V0, _segment_grid(t0, t1, dt))
        for sweep in range(1, max_iters + 1):
            _check_tube(seg, X0, V0, scenario.R)
            nxt = _sweep(seg_scn, full, seg, delta, quad)
            diff = nxt.sup_distance(seg)
            seg = nxt
            if diff < tol:
                break
        else:
            raise PicardError(f"segment [{t0:g}, {t1:g}] did not converge from the constant start")
        sweeps.append(sweep)
        full = full.concat(seg) if full is not None else seg
        t0, X0, V0 = t1, seg.X[-1].copy(), seg.V[-1].copy()
    return full, sweeps


def loop_c0_constant(scenario, horizon):
    """``picard._c0_constant`` as a loop over the 129 times, one
    ``np.linalg.norm`` per force."""
    times = np.linspace(0.0, horizon, 129)
    shape = times.shape + scenario.X0.shape
    forces = scenario.force.eval(times, np.broadcast_to(scenario.X0, shape),
                                 np.broadcast_to(scenario.V0, shape), np.zeros(shape))
    worst = 0.0
    for f in forces:
        worst = max(worst, float(np.linalg.norm(f)))
    return worst


def loop_gronwall_oracle(alpha_g, w, v, grid, tolerance=1e-3, max_iters=400):
    """``verify.gronwall_oracle`` with one scalar call of w per node and of v
    per (s, t) pair with s <= t: the plain double loop that the row-wise
    kernel fill must reproduce."""
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


def loop_prop1(scenario, probe, samples, tolerance=1e-2, k_scale=1.0):
    """``verify.check_prop1`` with one ``gradient`` and one ``hessian`` probe
    call per sample: the loop that the batched check must reproduce."""
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


def loop_gamma_estimates(kernel, params, samples, tolerance=1e-2, c_gamma=None):
    """``verify.check_gamma_estimates`` with one scalar kernel call per
    sample and order: the loop that the batched check must reproduce."""
    if params.lambda0_star >= params.lambda0:
        raise ValueError("lambda0_star must be below lambda0")
    c_g = c_gamma if c_gamma is not None else params.c_gamma
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


def loop_holder(fn, alpha, c_weight, claimed_h, pairs, tolerance=1e-9):
    """``verify.check_holder`` with two one-point calls of fn per pair: the
    loop that the stacked check must reproduce."""
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


# -- per-row sample builders: the tuple lists the array builders must equal --------


def loop_mass_samples(dim, count=20, t_max=1.0, seed=0, t_min=0.1):
    """``verify.mass_samples`` as a list of (x, t, tau) triples."""
    raw = halton_points(count, [(-2.0, 2.0)] * dim + [(t_min, t_max), (0.0, 0.9)], seed=seed)
    out = []
    for row in raw:
        t = float(row[dim])
        out.append((row[:dim], t, float(row[dim + 1]) * t * 0.9))
    return out


def loop_gamma_samples(dim, count=1000, t_max=1.0, seed=0, t_min=0.01, z_max=12.0):
    """``verify.gamma_samples`` as a list of (offset, s) pairs, one scalar
    direction per row."""
    raw = halton_points(count, [(0.0, z_max), (t_min, t_max)] + [(0.0, 1.0)] * (dim - 1),
                        seed=seed)
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
            mu = 2.0 * row[3] - 1.0
            r = math.sqrt(max(1.0 - mu * mu, 0.0))
            eta = np.array([r * math.cos(th), r * math.sin(th), mu])
        out.append((z * math.sqrt(s) * eta, s))
    return out


def loop_space_time_samples(dim, count, box=3.0, t_range=(0.01, 1.0), seed=0):
    """``verify.space_time_samples`` as a list of (x, t) pairs."""
    raw = halton_points(count, [(-box, box)] * dim + [t_range], seed=seed)
    return [(row[:dim], float(row[dim])) for row in raw]


def loop_holder_pairs(dim, count, seed, radius=2.0):
    """``verify.holder_pairs`` as a list of (x, y) pairs."""
    pts = halton_points(2 * count, [(-radius, radius)] * dim, seed=seed)
    return [(pts[2 * i], pts[2 * i + 1]) for i in range(count)]


def loop_holder_pairs_two_arg(dim, n, count, seed, radius=2.0):
    """``verify.holder_pairs_two_arg`` as a list of ((x, X), (y, Y)) pairs,
    each configuration scaled into the ball by its own norm."""
    raw = halton_points(count, [(-radius, radius)] * (2 * dim + 2 * dim * n), seed=seed)
    pairs = []
    for row in raw:
        xx = row[2 * dim:2 * dim + dim * n].reshape(dim, n)
        yy = row[2 * dim + dim * n:].reshape(dim, n)
        for m in (xx, yy):
            nrm = np.linalg.norm(m)
            if nrm > radius:
                m *= radius / nrm
        pairs.append(((row[:dim], xx), (row[dim:2 * dim], yy)))
    return pairs


def sample_rows(samples):
    """A tuple of per-sample arrays as the list of per-sample tuples; the
    four arrays of two-argument Hoelder pairs become ((x, X), (y, Y))."""
    if len(samples) == 4:
        return [((x, xx), (y, yy)) for x, xx, y, yy in zip(*samples)]
    return list(zip(*samples))
