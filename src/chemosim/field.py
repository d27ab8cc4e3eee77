"""Signal-field evaluation from a given agent path.

For constant coefficients the field, its gradient and its hessian are
computed by quadrature against the closed-form kernel:

    f(x, t) = integral G(x,t,xi,0) phi(xi) dxi
              - integral_0^t integral G(x,t,xi,tau) g(xi, X(tau)) dxi dtau

The spatial integrals use the substitution xi = x + sqrt(t - tau) u truncated
at |u_i| <= u_max, and the time integral the substitution tau = t - s^2,
which removes the integrable endpoint singularity of the gradient/hessian
integrands.  Variable coefficients route to an explicit finite-difference
solve on a truncated box.

Evaluation at t = 0 returns the initial datum (and its difference-quotient
derivatives) by continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .paths import AgentPath
from .quadrature import ball_average_rule, gauss_legendre, tensor_grid
from .scenario import Scenario

__all__ = [
    "QuadratureSpec",
    "FieldProbe",
    "FdField",
    "solve_field_fd",
    "eval_f",
    "grad_f",
    "hessian_f",
    "ball_avg_grad",
]

_DEFAULT_SPACE_NODES = {1: 96, 2: 48, 3: 24}
_DEFAULT_FD_H = {1: 0.02, 2: 0.08, 3: 0.25}

BACKEND_KERNEL = "closed-form-kernel"
BACKEND_FD = "finite-difference"


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization choices for field evaluation.

    ``u_max`` truncates the substituted spatial variable (must be >= 6 so the
    Gaussian tail is negligible), ``space_nodes``/``time_nodes`` size the
    Gauss-Legendre rules, and the ``fd_*`` fields control the
    finite-difference fallback grid.  ``fd_dt`` of None picks 90% of the
    explicit stability limit h^2 / (2 N mu1).
    """

    u_max: float = 8.0
    space_nodes: int | None = None
    time_nodes: int = 32
    fd_half_width: float = 6.0
    fd_h: float | None = None
    fd_dt: float | None = None
    fd_store_max: int = 400
    fd_tail_tol: float = 1e-6
    interpolation_order: int = 1
    ball_radial_nodes: int = 12
    ball_polar_nodes: int = 8
    ball_azimuth_nodes: int = 16

    def __post_init__(self):
        if self.u_max < 6.0:
            raise ValueError("u_max below 6 leaves a non-negligible Gaussian tail")
        if self.interpolation_order != 1:
            raise ValueError("only linear interpolation is implemented")

    def resolved_space_nodes(self, dim: int) -> int:
        return self.space_nodes if self.space_nodes is not None else _DEFAULT_SPACE_NODES[dim]

    def resolved_fd_h(self, dim: int) -> float:
        return self.fd_h if self.fd_h is not None else _DEFAULT_FD_H[dim]


def _is_zero(fn) -> bool:
    return bool(getattr(fn, "is_zero", False))


def _fd_gradient_of(fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return out


def _fd_hessian_of(fn, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        out[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            out[i, j] = out[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * step**2)
    return out


@lru_cache(maxsize=32)
def _cached_ball_rule(dim: int, delta: float, n_radial: int, n_polar: int, n_azimuth: int):
    return ball_average_rule(dim, delta, n_radial, n_polar, n_azimuth)


@dataclass(eq=False)
class FieldProbe:
    """Evaluator of f, grad f, hess f and ball-averaged grad f along a path.

    Immutable after construction; evaluations are pure and may be called
    concurrently.  The closed-form backend requires constant coefficients.
    """

    scenario: Scenario
    path: AgentPath
    backend: str = BACKEND_KERNEL
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.backend not in (BACKEND_KERNEL, BACKEND_FD):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == BACKEND_KERNEL and not self.scenario.coeffs.is_constant:
            raise ValueError("closed-form backend requires constant coefficients; "
                             "use the finite-difference backend")
        dim = self.scenario.dimension
        m = self.quad.resolved_space_nodes(dim)
        self._u_pts, self._u_wts = tensor_grid(-self.quad.u_max, self.quad.u_max, m, dim)
        self._s_base, self._s_wts = gauss_legendre(0.0, 1.0, self.quad.time_nodes)
        self._fd_grid: FdField | None = None

    # -- time-range handling -------------------------------------------------

    def _check_time(self, t: float) -> float:
        horizon = self.path.horizon
        if t < -1e-12 or t > horizon * (1.0 + 1e-9) + 1e-12:
            raise ValueError(f"probe time {t} outside (0, {horizon}]")
        return min(max(t, 0.0), horizon)

    # -- closed-form backend -------------------------------------------------

    def _initial_batch(self, pts: np.ndarray, t: float, order: int) -> np.ndarray:
        kern = self.scenario.kernel
        dim = kern.dim
        if _is_zero(self.scenario.phi):
            shape = {0: (len(pts),), 1: (len(pts), dim), 2: (len(pts), dim, dim)}[order]
            return np.zeros(shape)
        xi = pts[:, None, :] + math.sqrt(t) * self._u_pts[None, :, :]
        phi_vals = self.scenario.phi(xi)
        jac = t ** (dim / 2.0)
        x = pts[:, None, :]
        if order == 0:
            k = kern.eval(x, t, xi, 0.0)
            return jac * np.einsum("m,pm,pm->p", self._u_wts, k, phi_vals)
        if order == 1:
            k = kern.grad_x(x, t, xi, 0.0)
            return jac * np.einsum("m,pmi,pm->pi", self._u_wts, k, phi_vals)
        k = kern.hess_x(x, t, xi, 0.0)
        return jac * np.einsum("m,pmij,pm->pij", self._u_wts, k, phi_vals)

    def _source_batch(self, pts: np.ndarray, t: float, order: int) -> np.ndarray:
        kern = self.scenario.kernel
        dim = kern.dim
        p = len(pts)
        shape = {0: (p,), 1: (p, dim), 2: (p, dim, dim)}[order]
        acc = np.zeros(shape)
        if _is_zero(self.scenario.g) or t == 0.0:
            return acc
        sqrt_t = math.sqrt(t)
        s_nodes = self._s_base * sqrt_t
        s_weights = self._s_wts * sqrt_t
        x = pts[:, None, :]
        for s, ws in zip(s_nodes, s_weights):
            tau = t - s * s
            tau = max(tau, 0.0)
            xi = pts[:, None, :] + s * self._u_pts[None, :, :]
            gv = self.scenario.g(xi, self.path.positions_at(tau))
            # jacobian of xi-substitution is s^dim; d tau = 2 s ds
            factor = 2.0 * s ** (dim + 1) * ws
            if order == 0:
                k = kern.eval(x, t, xi, tau)
                acc += factor * np.einsum("m,pm,pm->p", self._u_wts, k, gv)
            elif order == 1:
                k = kern.grad_x(x, t, xi, tau)
                acc += factor * np.einsum("m,pmi,pm->pi", self._u_wts, k, gv)
            else:
                k = kern.hess_x(x, t, xi, tau)
                acc += factor * np.einsum("m,pmij,pm->pij", self._u_wts, k, gv)
        return acc

    def _closed_batch(self, pts: np.ndarray, t: float, order: int) -> np.ndarray:
        # chunk so the largest intermediate stays comfortably in memory
        dim = self.scenario.dimension
        per_point = len(self._u_pts) * dim ** order
        block = max(1, int(4e6 / max(per_point, 1)))
        out = []
        for lo in range(0, len(pts), block):
            chunk = pts[lo:lo + block]
            val = self._initial_batch(chunk, t, order) - self._source_batch(chunk, t, order)
            out.append(val)
        return np.concatenate(out, axis=0)

    # -- data-at-zero fallback ------------------------------------------------

    def _batch_at_zero(self, pts: np.ndarray, order: int) -> np.ndarray:
        phi = self.scenario.phi
        if order == 0:
            return phi(pts)
        scalar = lambda y: float(phi(np.asarray(y)[None, :])[0])
        if order == 1:
            return np.stack([_fd_gradient_of(scalar, x) for x in pts])
        return np.stack([_fd_hessian_of(scalar, x) for x in pts])

    # -- finite-difference backend --------------------------------------------

    def _fd(self) -> "FdField":
        if self._fd_grid is None:
            self._fd_grid = solve_field_fd(self.scenario, self.path, self.quad)
        return self._fd_grid

    # -- public surface --------------------------------------------------------

    def _batch(self, pts: np.ndarray, t: float, order: int) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t = self._check_time(t)
        if t == 0.0:
            return self._batch_at_zero(pts, order)
        if self.backend == BACKEND_KERNEL:
            return self._closed_batch(pts, t, order)
        fdf = self._fd()
        if order == 0:
            return fdf.value_many(pts, t)
        if order == 1:
            return fdf.gradient_many(pts, t)
        return np.stack([fdf.hessian(x, t) for x in pts])

    def value(self, x, t: float) -> float:
        return float(self._batch(np.asarray(x, dtype=float)[None, :], t, 0)[0])

    def gradient(self, x, t: float) -> np.ndarray:
        return self._batch(np.asarray(x, dtype=float)[None, :], t, 1)[0]

    def hessian(self, x, t: float) -> np.ndarray:
        return self._batch(np.asarray(x, dtype=float)[None, :], t, 2)[0]

    def value_many(self, pts, t: float) -> np.ndarray:
        return self._batch(pts, t, 0)

    def gradient_many(self, pts, t: float) -> np.ndarray:
        return self._batch(pts, t, 1)

    def ball_average_gradient(self, x, t: float, delta: float) -> np.ndarray:
        """Average of grad f over the ball of radius delta centered at x."""
        if delta <= 0:
            raise ValueError("sensing radius delta must be positive")
        offsets, wts = _cached_ball_rule(
            self.scenario.dimension, float(delta),
            self.quad.ball_radial_nodes, self.quad.ball_polar_nodes,
            self.quad.ball_azimuth_nodes,
        )
        pts = np.asarray(x, dtype=float)[None, :] + offsets
        grads = self.gradient_many(pts, t)
        return wts @ grads


# -- module-level operation aliases ---------------------------------------------

def eval_f(probe: FieldProbe, x, t: float) -> float:
    """Field value f(x, t) for the probe's scenario and path."""
    return probe.value(x, t)


def grad_f(probe: FieldProbe, x, t: float) -> np.ndarray:
    """Spatial gradient of the field."""
    return probe.gradient(x, t)


def hessian_f(probe: FieldProbe, x, t: float) -> np.ndarray:
    """Second spatial derivatives (symmetric by construction)."""
    return probe.hessian(x, t)


def ball_avg_grad(probe: FieldProbe, x, t: float, delta: float) -> np.ndarray:
    """Ball-averaged gradient, the sensed quantity in the non-local model."""
    return probe.ball_average_gradient(x, t, delta)


# -- finite-difference solve ----------------------------------------------------


def _shift(arr: np.ndarray, axis: int, k: int) -> np.ndarray:
    # arr[i + k] along axis; wrapped entries only touch boundary cells, which
    # are overwritten by the Dirichlet values afterwards
    return np.roll(arr, -k, axis=axis)


@dataclass(eq=False)
class FdField:
    """Grid solution of the forced problem with linear space-time samplers."""

    axes: tuple[np.ndarray, ...]
    times: np.ndarray
    values: np.ndarray  # (len(times), *grid)
    h: float

    def __post_init__(self):
        pts = (self.times,) + self.axes
        self._val_interp = RegularGridInterpolator(pts, self.values, method="linear",
                                                   bounds_error=False, fill_value=None)
        dim = len(self.axes)
        self._grad_interp = []
        for i in range(dim):
            di = np.gradient(self.values, self.axes[i], axis=1 + i, edge_order=2)
            self._grad_interp.append(
                RegularGridInterpolator(pts, di, method="linear",
                                        bounds_error=False, fill_value=None)
            )

    def _query(self, pts: np.ndarray, t: float) -> np.ndarray:
        t = min(max(t, self.times[0]), self.times[-1])
        q = np.empty((len(pts), 1 + len(self.axes)))
        q[:, 0] = t
        q[:, 1:] = pts
        return q

    def value_many(self, pts, t: float) -> np.ndarray:
        return self._val_interp(self._query(np.atleast_2d(pts), t))

    def value(self, x, t: float) -> float:
        return float(self.value_many(np.asarray(x)[None, :], t)[0])

    def gradient_many(self, pts, t: float) -> np.ndarray:
        q = self._query(np.atleast_2d(pts), t)
        return np.stack([gi(q) for gi in self._grad_interp], axis=-1)

    def gradient(self, x, t: float) -> np.ndarray:
        return self.gradient_many(np.asarray(x)[None, :], t)[0]

    def hessian(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dim = len(self.axes)
        out = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = self.h
            gp = self.gradient(x + e, t)
            gm = self.gradient(x - e, t)
            out[:, j] = (gp - gm) / (2.0 * self.h)
        return 0.5 * (out + out.T)


def solve_field_fd(scenario: Scenario, path: AgentPath, quad: QuadratureSpec | None = None) -> FdField:
    """Explicit finite-difference solve of the forced problem on a box.

    Second-order central differences in space, forward Euler in time with
    step at most h^2 / (2 N mu1), Dirichlet boundary values frozen at the
    initial datum (valid when the data decay at the box edge; rejected
    otherwise).  Returns the stored grid with interpolating samplers.
    """
    quad = quad or QuadratureSpec()
    coeffs = scenario.coeffs
    dim = coeffs.dimension
    h = quad.resolved_fd_h(dim)
    w = quad.fd_half_width
    n_cells = int(round(2.0 * w / h))
    ax = np.linspace(-w, w, n_cells + 1)
    axes = tuple(ax.copy() for _ in range(dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)  # (*grid, dim)

    f = np.asarray(scenario.phi(pts), dtype=float)
    sup_phi = float(np.abs(f).max())
    boundary = np.zeros(f.shape, dtype=bool)
    for i in range(dim):
        sl = [slice(None)] * dim
        sl[i] = 0
        boundary[tuple(sl)] = True
        sl[i] = -1
        boundary[tuple(sl)] = True
    max_phi_boundary = float(np.abs(f[boundary]).max()) if boundary.any() else 0.0
    if max_phi_boundary > quad.fd_tail_tol * max(1.0, sup_phi):
        raise ValueError(
            f"box too small: |phi| = {max_phi_boundary:g} on the boundary exceeds the tail tolerance"
        )
    phi_boundary = f[boundary].copy()

    # coefficient grids; detect time independence so they are evaluated once
    def coeff_grids(t: float):
        a = np.asarray(coeffs.a(pts, t), dtype=float)
        b = np.asarray(coeffs.b(pts, t), dtype=float)
        c = np.asarray(coeffs.c(pts, t), dtype=float)
        return a, b, c

    horizon = path.horizon
    a0, b0, c0 = coeff_grids(0.0)
    a1, b1, c1 = coeff_grids(horizon / 2.0)
    static = (np.array_equal(a0, a1) and np.array_equal(b0, b1) and np.array_equal(c0, c1))

    def sup_mu1(a) -> float:
        if a.shape == (dim, dim):
            return float(np.linalg.eigvalsh(a).max())
        return float(np.linalg.eigvalsh(a.reshape(-1, dim, dim)).max())

    mu1_box = max(sup_mu1(a0), sup_mu1(a1))
    dt_stable = h * h / (2.0 * dim * mu1_box)
    dt = quad.fd_dt if quad.fd_dt is not None else 0.9 * dt_stable
    if dt > dt_stable * (1.0 + 1e-9):
        raise ValueError(f"time step {dt:g} violates the stability restriction {dt_stable:g}")
    n_steps = max(1, int(math.ceil(horizon / dt)))
    dt = horizon / n_steps
    stride = max(1, int(math.ceil((n_steps + 1) / quad.fd_store_max)))

    g_zero = _is_zero(scenario.g)

    def a_entry(a, i, j):
        return a[i, j] if a.shape == (dim, dim) else a[..., i, j]

    def b_entry(b, i):
        return b[i] if b.shape == (dim,) else b[..., i]

    stored_t = [0.0]
    stored_f = [f.copy()]
    t = 0.0
    a, b, c = a0, b0, c0
    for k in range(n_steps):
        if not static:
            a, b, c = coeff_grids(t)
        rhs = c * f
        for i in range(dim):
            dii = (_shift(f, i, 1) - 2.0 * f + _shift(f, i, -1)) / (h * h)
            rhs = rhs + a_entry(a, i, i) * dii
            di = (_shift(f, i, 1) - _shift(f, i, -1)) / (2.0 * h)
            bi = b_entry(b, i)
            if np.any(bi != 0.0):
                rhs = rhs + bi * di
            for j in range(i + 1, dim):
                aij = a_entry(a, i, j)
                if np.any(aij != 0.0):
                    dij = (_shift(_shift(f, i, 1), j, 1) + _shift(_shift(f, i, -1), j, -1)
                           - _shift(_shift(f, i, 1), j, -1) - _shift(_shift(f, i, -1), j, 1)) / (4.0 * h * h)
                    rhs = rhs + 2.0 * aij * dij
        if not g_zero:
            rhs = rhs - scenario.g(pts, path.positions_at(min(t, horizon)))
        f = f + dt * rhs
        f[boundary] = phi_boundary
        t = (k + 1) * dt
        if (k + 1) % stride == 0 or k == n_steps - 1:
            stored_t.append(t)
            stored_f.append(f.copy())

    return FdField(axes=axes, times=np.asarray(stored_t), values=np.stack(stored_f), h=h)
