"""Signal-field evaluation from a given agent path.

For constant coefficients the field, its gradient and its hessian are

    f(x, t) = integral G(x,t,xi,0) phi(xi) dxi
              - integral_0^t integral G(x,t,xi,tau) g(xi, X(tau)) dxi dtau

with the closed-form kernel G.  The time integral uses the substitution
tau = t - s^2 on 32 Gauss nodes in s, which removes the integrable endpoint
singularity of the gradient/hessian integrands.

Both terms are the same kernel integral at different tau, summed by one
integrator over items (x, t, tau, weight): the points of the initial-datum
term (tau = 0, weight 1) and the (s-node, point) pairs of the source term
(tau = t - s^2, weight 2 s ds).  An item integrates over xi in closed form
when its datum declares Gaussian structure (``gaussian_source``, see
`presets.GaussianSource`); the ``agent-secretion`` and ``constant`` sources
declare it.  phi may, but no phi preset does yet: the benchmark self-test
expects pointwise-1d to evaluate the kernel, which only the phi quadrature
still does.  Any other datum takes the spatial rule, a quadrature in u on
the box |u_i| <= u_max, with nodes

    xi = x + b sigma + sqrt(sigma) L u,    sigma = t - tau, a = L L^T.

For constant coefficients the fundamental solution is a Gaussian in
(x - xi + b sigma) / sqrt(sigma) (A. Friedman, Partial Differential
Equations of Parabolic Type, 1964, ch. 1), and on these nodes that argument
is -L u whatever x is: G dxi = e^{c (sigma - 1)} G(0, 1, b + L u, 0) det L
du, and each x-derivative brings a factor sigma^(-1/2).  So a call forms
the rule's kernel weights once, the node weight times D^k G(0, 1, b + L u,
0) for each order k, from one kernel call on the m nodes
(`FieldTable._rule_weights`), and a spatial-rule item is its datum on its
nodes contracted with those weights, times e^{c (sigma - 1)} sigma^(-k/2).
Variable coefficients take an explicit finite-difference solve on a
truncated box (`backend_for`).

Batch evaluations take one time per point, and the items of a batch run in
a few vectorized passes, so one call serves a whole Picard sweep.  The
points stay in the caller's order.  Their distinct probe times (t > 0) are
found once, by ``np.unique``, whose inverse gives each point its column
among them, and tau, the weight, sigma = t - tau, the agent positions X(tau)
and every other factor of an item that depends on its cell alone (by the
spatial rule sqrt(sigma), b sigma and the factor of each order; in closed
form the eigenvalues of M, sqrt(det M) and c sigma) are computed once per
(s-node, distinct time) cell, for every point at that time (the
initial-datum term is the one row tau = 0, weight 1).  The cells form one
table per term, from which each pass takes its points' columns with one
``take``, and X(tau) is one lookup of the cells' times on the path's grid
and one gather per term (`paths._lookup`, `paths._gather`).  A pass is an
(s-node, point) block, computed from two sizes as the evaluation steps
through the points: every s-row of a range of points or, when one point's
rows exceed the pass size, a range of the rows of one point.  Each point
adds its rows to its running sum one at a time in s-node order, in one
``np.add.accumulate`` per pass, so a point's value is the same whatever else
the batch holds and wherever it stands in it.  A call asks for any of the
orders 0, 1, 2 (``derivatives_many``), and each pass serves all of them.  A
spatial-rule pass builds xi and the datum on it once, on (item, node,
component) arrays, and contracts the datum with each order's weights by
``einsum``, which sums every item alone in node order (a BLAS product may
block, and so round, an item by its position in the pass).  A closed-form
pass runs axis-last, on (component, centre, item) arrays, so its reductions
and products run along the long item axis: it rotates into the eigenbasis
of a once and shares M^-1 d and the scalar factor between the orders.
Either way an item's value does not depend on the pass it falls in, and the
weights of each order equal its one-order kernel call, so every order
equals its one-order call bit for bit.  The spatial rule and the s-rule are
built once per (dimension, u_max, node counts, L) and shared read-only
(`_cached_field_rules`); the kernel weights are formed per time table.

A call is a time table and an evaluation (`FieldTable`).  The table holds
what depends on the probe times and the path's time grid alone: the
checked times (the range check reads their min and max, which a NaN
fails), the mask of the points at t = 0, each live point's time column, the
kernel weights of the requested orders and, for each term, its cell table
(the factors of each s-node at each distinct time, once), its one lookup of
X(tau) on the grid and its two pass sizes.  So a table grows with the
distinct times and holds one column index per point, not one entry per
pass.  The evaluation takes the table, the points and the path's positions
X, and runs only the gather of X(tau), each pass's take of its cells, the
datum, the Gaussian terms and the s-node-order accumulation.  Every call
builds its table and evaluates it.  A Picard sweep senses every (node,
agent) pair in one call (`sensed_gradients`), whose table lives here too
(`sensing_table`): a segment builds one for its grid and node times, and
each sweep evaluates it on its own iterate, so a sweep computes only what
the iterate changes.  At the size of a sweep (tens of points) the table is
about a quarter of a call.  An item's elementwise operations and a point's
accumulation order are the same whether the table is new or reused, so a
reused table gives every value bit for bit.

Evaluation at t = 0 returns the initial datum (and its difference-quotient
derivatives) by continuity.  The ball average of grad f is (N / delta) times
the mean of f nu over the sphere of radius delta (divergence theorem), so
non-local sensing takes field values only: `FieldProbe.ball_average_gradient`
evaluates an order-0 table at every centre's sphere points, each at its
centre's time, and averages.  That table holds no radius.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .paths import AgentPath, _gather, _lookup
from .quadrature import _read_only, gauss_legendre, sphere_rule, tensor_grid
from .scenario import Scenario

__all__ = [
    "QuadratureSpec",
    "FieldProbe",
    "FieldTable",
    "sensed_gradients",
    "sensing_table",
    "backend_for",
    "FdField",
    "solve_field_fd",
]

_DEFAULT_U_MAX = {1: 10.0, 2: 8.0, 3: 8.0}
_DEFAULT_SPACE_NODES = {1: 96, 2: 48, 3: 24}
_DEFAULT_FD_H = {1: 0.02, 2: 0.08, 3: 0.25}

BACKEND_KERNEL = "closed-form-kernel"
BACKEND_FD = "finite-difference"

# finite-difference grid: at most this many stored time frames, and the
# largest |phi| on the box boundary relative to max(1, sup |phi|)
_FD_STORE_MAX = 400
_FD_TAIL_TOL = 1e-6


def backend_for(scenario: Scenario) -> str:
    """The field backend the coefficients admit: the closed-form kernel for
    constant coefficients, the finite-difference solve otherwise."""
    return BACKEND_KERNEL if scenario.coeffs.is_constant else BACKEND_FD


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization choices for field evaluation.

    ``u_max`` truncates the substituted spatial variable u of
    xi = x + b sigma + sqrt(sigma) L u (sigma = t - tau, a = L L^T), in which
    the kernel is exp(-|u|^2 / 4) up to a factor that does not depend on u,
    so it decays alike in every direction, with drift too.  The rule drops
    a share of about erfc(u_max / 2) of the kernel's mass per axis: 2e-5 at
    the smallest accepted value 6, 2e-8 at 8 and 2e-12 at 10.  None picks 10 in 1D, where
    the 96-node rule still resolves the integrand on the wider box, and 8 in
    2D and 3D, where the node spacing limits the accuracy first.
    ``space_nodes``/``time_nodes`` size the Gauss-Legendre rules, and the
    ``fd_*`` fields control the finite-difference grid.  ``fd_dt`` of None
    picks 90% of the explicit stability limit h^2 / (2 N mu1) at t = 0.
    """

    u_max: float | None = None
    space_nodes: int | None = None
    time_nodes: int = 32
    fd_half_width: float = 6.0
    fd_h: float | None = None
    fd_dt: float | None = None

    def __post_init__(self):
        # each check is written as "not (valid)", so NaN fails it
        if self.u_max is not None and not (_is_real(self.u_max) and 6.0 <= self.u_max < math.inf):
            raise ValueError(f"u_max must be finite and at least 6 (below 6 the rule drops "
                             f"more than 2e-5 of the kernel's mass), got {self.u_max!r}")
        for name, optional in (("space_nodes", True), ("time_nodes", False)):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (optional and value is None or integer and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name, optional in (("fd_half_width", False), ("fd_h", True), ("fd_dt", True)):
            value = getattr(self, name)
            if not (optional and value is None or _is_real(value) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def resolved_u_max(self, dim: int) -> float:
        return self.u_max if self.u_max is not None else _DEFAULT_U_MAX[dim]

    def resolved_space_nodes(self, dim: int) -> int:
        return self.space_nodes if self.space_nodes is not None else _DEFAULT_SPACE_NODES[dim]

    def resolved_fd_h(self, dim: int) -> float:
        return self.fd_h if self.fd_h is not None else _DEFAULT_FD_H[dim]


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# the default discretization, shared read-only (QuadratureSpec is frozen)
DEFAULT_QUAD = QuadratureSpec()


def _is_zero(fn) -> bool:
    return bool(getattr(fn, "is_zero", False))


def _fd_gradient_of(fn, pts: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of fn at stacked points ``pts`` (P, N): fn's value
    with a trailing derivative axis, shape (P, ..., N); one call of fn per
    offset serves every point."""
    return np.stack([(fn(pts + e) - fn(pts - e)) / (2.0 * step)
                     for e in step * np.eye(pts.shape[1])], axis=-1)


def _fd_hessian_of(fn, pts: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central-difference hessians of fn at stacked points ``pts`` (P, N),
    shape (P, N, N); one call of fn per offset serves every point."""
    n = pts.shape[1]
    out = np.empty((len(pts), n, n))
    f0 = fn(pts)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        out[:, i, i] = (fn(pts + ei) - 2.0 * f0 + fn(pts - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            out[:, i, j] = out[:, j, i] = (
                fn(pts + ei + ej) - fn(pts + ei - ej) - fn(pts - ei + ej) + fn(pts - ei - ej)
            ) / (4.0 * step**2)
    return out


# Size of one vectorized pass, counted in array entries per item (spatial
# nodes x components of xi, or agents x derivative components for a datum
# integrated in closed form); an item is an (s-node, point) cell of the
# source integral or a point of the initial-datum integral.  Small passes
# keep their arrays in cache and the peak memory of a solve near its level
# before batching (passes of 2^15 entries added 1.4 MB to a 2D solve;
# closed-form source terms in one pass added 1.6 MB to a 1D solve); on a 1D
# Picard sweep, 2^13 to 2^15 entries ran fastest, and smaller passes pay
# Python overhead.
_CHUNK_ELEMENTS = 2**13


# Contraction of the data on the nodes (q items, m nodes) with the kernel
# weights of order 0, 1 or 2, whose node axis is last and contiguous
_CONTRACTIONS = ("m,qm->q", "im,qm->qi", "ijm,qm->qij")


def _sum_in_order(terms):
    """Left-to-right sum of arrays, without the 0 that ``sum`` starts from
    (0 + -0.0 is 0.0)."""
    return reduce(operator.add, terms)


@lru_cache(maxsize=32)
def _cached_field_rules(dim: int, u_max: float, space_nodes: int, time_nodes: int,
                        chol: bytes) -> tuple[np.ndarray, ...]:
    """Read-only spatial rule (nodes L u, weights times det L) on the
    truncated box |u_i| <= u_max, and Gauss nodes and weights in s on [0, 1],
    for the Cholesky factor L whose C-order float64 bytes are ``chol``."""
    factor = np.frombuffer(chol).reshape(dim, dim)
    u_pts, u_wts = tensor_grid(-u_max, u_max, space_nodes, dim)
    s_base, s_wts = gauss_legendre(0.0, 1.0, time_nodes)
    return _read_only(u_pts @ factor.T, u_wts * np.prod(np.diag(factor)), s_base, s_wts)


@lru_cache(maxsize=32)
def _cached_sphere_rule(dim: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only offsets delta nu_k and vector weights (N / delta) w_k /
    sum(w) nu_k, both (K, N), of `quadrature.sphere_rule`."""
    nu, w = sphere_rule(dim)
    return _read_only(delta * nu, (dim / delta) * (w / w.sum())[:, None] * nu)


def _check_times(t, n_points: int, horizon: float) -> np.ndarray:
    """Probe times ``t`` clamped to [0, horizon], one per point.  The range
    check reads their min and max, which a NaN makes NaN, so it fails."""
    t = np.asarray(t, dtype=float)
    if t.ndim > 1 or (t.ndim == 1 and len(t) != n_points):
        raise ValueError(f"need one probe time or one per point, got shape {t.shape}")
    if t.ndim == 0:
        t = np.full(max(n_points, 1), t)  # a lone time is checked, points or not
    elif not n_points:
        return t
    lo, hi = t.min(), t.max()
    top = horizon * (1.0 + 1e-9) + 1e-12
    if not (lo >= -1e-12 and hi <= top):
        bad = t[~((t >= -1e-12) & (t <= top))][0]
        raise ValueError(f"probe time {float(bad)} outside [0, {horizon}]")
    if lo < 0.0 or hi > horizon:
        t = np.minimum(np.maximum(t, 0.0), horizon)
    return t[:n_points]


def _sphere_times(t, n_centres: int, k: int):
    """The probe times of the order-0 call behind a ball average at
    ``n_centres`` centres: each centre's time (``t`` is one time for all or
    one per centre) repeated over the k nodes of its sphere, in (centre,
    node) order.  A lone time stays one time."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return t
    if t.shape != (n_centres,):
        raise ValueError(f"need one probe time or one per point, got shape {t.shape}")
    return np.repeat(t, k)


def _phi_at_zero(phi, pts: np.ndarray, orders: tuple) -> list[np.ndarray]:
    """The field at t = 0 by continuity: phi and its difference-quotient
    derivatives at points (P, N), one new float array per order (a phi may
    return a view of the points)."""
    derivs = (lambda p: np.array(phi(p), dtype=float), lambda p: _fd_gradient_of(phi, p),
              lambda p: _fd_hessian_of(phi, p))
    return [derivs[order](pts) for order in orders]


def _gaussian_factors(kern, sigma: np.ndarray, rate: float) -> tuple:
    """The factors of `_gaussian_integrals` that depend on sigma = t - tau
    alone: the eigenvalues 1 + 4 rate sigma lambda_a of M (one array per
    axis a), sqrt(det M) and c sigma, each shaped like ``sigma``."""
    scale = 4.0 * rate * sigma
    m = [1.0 + scale * lam for lam in kern.eig[0]]
    return m, np.sqrt(reduce(operator.mul, m)), kern.c * sigma


def _gaussian_integrals(kern, d: np.ndarray, m, root_det: np.ndarray, c_sigma: np.ndarray,
                        rate: float, orders: tuple) -> list[np.ndarray]:
    """x-derivatives of the given orders of the integral over xi of
    G(x, t, xi, tau) sum_c exp(-rate |xi - c|^2), for the kernel ``kern``
    and d = x - c + b sigma stacked (N, centre, *items) with sigma = t - tau,
    given the factors m, sqrt(det M) and c sigma of `_gaussian_factors`,
    shaped like the items.  One array per order, shaped (N,) * order +
    items.

    With M = I + 4 rate sigma a the integral of one centre is
    det(M)^(-1/2) exp(-rate d^T M^-1 d + c sigma); the gradient is
    -2 rate M^-1 d times that, the hessian
    (4 rate^2 (M^-1 d)(M^-1 d)^T - 2 rate M^-1) times that.  M is
    diagonal in the eigenbasis Q of a, so the pass rotates d into it
    once, e = Q^T d, and shares M^-1 d and the scalar factor between the
    orders.  The rotations are sums of per-axis products rather than
    BLAS calls, whose fused multiply-adds could round an item by its
    position in the pass."""
    q = kern.eig[1]
    axes = range(kern.dim)
    e = [_sum_in_order(q[b, a] * d[b] for b in axes) for a in axes]
    quad = _sum_in_order(e[a] * e[a] / m[a] for a in axes)
    val = np.exp(-rate * quad + c_sigma) / root_det  # (centre, *items)
    if max(orders) > 0:
        e_m = [e[a] / m[a] for a in axes]
        w = [_sum_in_order(q[b, a] * e_m[a] for a in axes) for b in axes]  # M^-1 d
    out = []
    for order in orders:
        if order == 0:
            out.append(val.sum(axis=0))
        elif order == 1:
            grad = np.empty((kern.dim,) + d.shape[2:])
            for a in axes:
                ((-2.0 * rate) * w[a] * val).sum(axis=0, out=grad[a])
            out.append(grad)
        else:
            hess = np.empty((kern.dim, kern.dim) + d.shape[2:])
            for a in axes:
                for b in axes[a:]:
                    m_inv = _sum_in_order(q[a, c] / m[c] * q[b, c] for c in axes)
                    entry = (4.0 * rate * rate * (w[a] * w[b]) - 2.0 * rate * m_inv) * val
                    hess[a, b] = hess[b, a] = entry.sum(axis=0)
            out.append(hess)
    return out


class FieldTable:
    """The time table of one field call: every part of the call that
    depends on its probe times and on the time grid of the path alone, built
    once (module docstring): the points at t = 0, each live point's column
    among the distinct live times, and for each term the cells of those
    times, one lookup of X(tau) and its pass sizes.  `evaluate` runs the
    rest at any points, on any path on that grid.

    ``t`` is one probe time for all ``n_points`` points or one time per
    point, in any order, ``grid`` the path's time grid and ``orders`` the
    derivative orders of the call.  ``backend`` defaults to `backend_for`
    the scenario.  Immutable after construction, and it lives as long as its
    caller holds it: nothing caches it."""

    def __init__(self, scenario: Scenario, grid: np.ndarray, t, n_points: int,
                 orders: tuple = (1,), quad: QuadratureSpec = DEFAULT_QUAD,
                 backend: str | None = None):
        self.scenario, self.grid, self.quad = scenario, grid, quad
        self.backend = backend_for(scenario) if backend is None else backend
        self.n_points, self.orders = n_points, tuple(orders)
        self.times = _read_only(np.array(t, dtype=float))[0]
        t = _check_times(self.times, n_points, float(grid[-1]))
        # the points at t = 0, which take the initial datum, and their count
        self._zero = t == 0.0
        self._n_zero = int(np.count_nonzero(self._zero))
        if self._n_zero == n_points:  # an empty table too
            return
        self._live_times = t[~self._zero] if self._n_zero else t
        if self.backend != BACKEND_KERNEL:
            return
        # the distinct live times, and each live point's column among them
        live_times, self._cols = np.unique(self._live_times, return_inverse=True)
        # xi = x + b sigma + sqrt(sigma) L u with a = L L^T, so the kernel is
        # exp(-|u|^2 / 4) up to a factor in sigma (module docstring)
        dim = scenario.dimension
        chol = np.ascontiguousarray(scenario.kernel.chol, dtype=float)
        self._u_pts, self._u_wts, self._s_base, self._s_wts = _cached_field_rules(
            dim, float(quad.resolved_u_max(dim)), int(quad.resolved_space_nodes(dim)),
            int(quad.time_nodes), chol.tobytes())
        phi, g = scenario.phi, scenario.g
        # the kernel weights once per table, when a datum takes the spatial rule
        by_rule = any(not _is_zero(datum) and getattr(datum, "gaussian_source", None) is None
                      for datum in (phi, g))
        self._weights = self._rule_weights() if by_rule else None
        self._terms = (self._term(phi, False, live_times), self._term(g, True, live_times))

    # -- the time table ----------------------------------------------------------

    def _rule_weights(self) -> list[np.ndarray]:
        """The spatial rule's kernel weights: for each order k, the node
        weight (det L included) times D^k G(0, 1, b + L u, 0), the k-th
        x-derivative of the kernel at sigma = 1 on node u, shaped (N,) * k +
        (m,) with the node axis contiguous.  One kernel call on the m nodes
        serves every order; each order equals its one-order call."""
        kern = self.scenario.kernel
        derivs = kern.derivatives(self.orders, np.zeros(kern.dim), 1.0, kern.b + self._u_pts, 0.0)
        return [np.multiply(d.transpose(tuple(range(1, k + 1)) + (0,)), self._u_wts, order="C")
                for k, d in zip(self.orders, derivs)]

    def _term(self, datum, source: bool, live_times: np.ndarray):
        """The kernel integral of phi (``source`` false) or of g over (0, t)
        at the distinct live times ``live_times``: None for a zero datum,
        else (datum, source, its Gaussian structure, cells, lookup, points
        per pass, rows per pass).  ``cells`` is the one `_cells` table of
        those times and ``lookup`` the one `_lookup` of X(tau) on them (None
        when the datum reads no agents).  A pass takes a range of the rows
        of a range of the live points, in their order (`_integral`)."""
        if _is_zero(datum):
            return None
        dim, n_agents = self.scenario.dimension, self.scenario.n
        gauss = getattr(datum, "gaussian_source", None)
        reads_agents = source and (gauss is None or gauss.at_agents)
        # a pass holds, for each of its items, at most one closed-form term per
        # agent of the largest requested order, or xi on the spatial nodes.
        # It takes every s-row of a range of points, or, when one point's rows
        # do not fit, a range of the rows of one point.
        per_item = n_agents * dim**max(self.orders) if gauss is not None else len(self._u_pts) * dim
        n_rows = len(self._s_base) if source else 1
        rows_per_pass = min(n_rows, max(1, _CHUNK_ELEMENTS // per_item))
        pts_per_pass = max(1, _CHUNK_ELEMENTS // (per_item * n_rows))
        cells, tau = self._cells(live_times, source, gauss)
        lookup = _lookup(self.grid, tau) if reads_agents else None
        return datum, source, gauss, cells, lookup, pts_per_pass, rows_per_pass

    def _cells(self, t_u: np.ndarray, source: bool, gauss) -> tuple[np.ndarray, np.ndarray]:
        """The (s-node, time) cells shared by every point at one of the
        distinct live probe times ``t_u`` (U,), in increasing order: one
        table (field, row, U) of their factors, held once per term, from
        which each pass takes its points' columns (the ``np.unique``
        inverse) when it is evaluated, and tau (row, U), where an item reads
        X(tau).

        The fields are the factors of an item that depend on its cell alone,
        computed once per cell by the elementwise operations an item would
        apply to the same values, so every item keeps its bits.  By the
        spatial rule: sqrt(sigma), b sigma (N rows) and the factor
        weight e^{c (sigma - 1)} sigma^(-k/2) of each order k = 0, 1, 2 (3
        rows); in closed form: the weight, b sigma (N rows) and
        `_gaussian_factors` (N + 2 rows).  The initial-datum integral is the
        one row tau = 0, weight 1."""
        kern = self.scenario.kernel
        if source:
            sqrt_t = np.sqrt(t_u)
            s = self._s_base[:, None] * sqrt_t
            weight = 2.0 * s * (self._s_wts[:, None] * sqrt_t)  # d tau = 2 s ds
            tau = np.maximum(t_u - s * s, 0.0)
            sigma = t_u - tau
        else:
            sigma = t_u[None]  # t - 0 is t, exactly
            weight, tau = np.ones(sigma.shape), np.zeros(sigma.shape)
        drift = [b * sigma for b in kern.b]
        if gauss is None:
            root_sigma = np.sqrt(sigma)
            scale = weight * np.exp(kern.c * (sigma - 1.0))  # the weights hold e^c
            fields = [root_sigma, *drift, scale, scale / root_sigma, scale / sigma]
        else:
            m, root_det, c_sigma = _gaussian_factors(kern, sigma, gauss.rate)
            fields = [weight, *drift, *m, root_det, c_sigma]
        return np.array(fields), tau

    # -- the evaluation ----------------------------------------------------------

    def evaluate(self, pts: np.ndarray, X: np.ndarray, fd_batch=None) -> list[np.ndarray]:
        """The call at points ``pts`` (P, N), on a path on the table's grid
        whose positions are ``X`` (nodes, N, n): one array per order, shaped
        (P,) + (N,) * order.  What runs here is the datum, the Gaussian
        terms and the s-node-order accumulation; the closed-form backend
        reads X through the source cells' lookup, and on the
        finite-difference backend ``fd_batch`` (points, times, orders)
        evaluates the points at t > 0.  Points at t = 0 take the initial
        datum and read no path."""
        if self._n_zero == self.n_points:
            return _phi_at_zero(self.scenario.phi, pts, self.orders)
        if not self._n_zero:
            return self._at_live(pts, X, fd_batch)
        zero, live = self._zero, ~self._zero
        outs = [np.empty((len(pts),) + (self.scenario.dimension,) * k) for k in self.orders]
        for out, vals in zip(outs, self._at_live(pts[live], X, fd_batch)):
            out[live] = vals
        for out, vals in zip(outs, _phi_at_zero(self.scenario.phi, pts[zero], self.orders)):
            out[zero] = vals
        return outs

    def _at_live(self, x: np.ndarray, X: np.ndarray, fd_batch) -> list[np.ndarray]:
        """The call at the live points ``x``, those at t > 0."""
        if self.backend != BACKEND_KERNEL:
            return fd_batch(x, self._live_times, self.orders)
        return [a - b for a, b in zip(self._integral(self._terms[0], x, X),
                                      self._integral(self._terms[1], x, X))]

    def _integral(self, term, x: np.ndarray, X: np.ndarray) -> list[np.ndarray]:
        """x-derivatives of the orders of the kernel integral of one datum
        at the live points ``x`` (P, N), for its `_term` ``term``: one array
        per order, shaped (P,) + (N,) * order.  Each point sums its items in
        s-node order, across passes too."""
        accs = [np.zeros((len(x),) + (self.scenario.dimension,) * k) for k in self.orders]
        if term is None:
            return accs
        datum, source, gauss, cells, lookup, pts_per_pass, rows_per_pass = term
        # X(tau) of every agent on the cells, (N * n, row, time)
        X_cells = None if lookup is None else _gather(X, lookup).reshape((-1,) + cells.shape[1:])
        for p0 in range(0, len(x), pts_per_pass):
            idx = slice(p0, p0 + pts_per_pass)
            x_pass, cols = x[idx], self._cols[idx]
            for r0 in range(0, cells.shape[1], rows_per_pass):
                rows = slice(r0, r0 + rows_per_pass)
                cell = cells[:, rows].take(cols, axis=2)
                X_items = None if X_cells is None else X_cells[:, rows].take(cols, axis=2)
                if gauss is None:
                    blocks = self._rule_blocks(datum, source, x_pass, cell, X_items)
                else:
                    blocks = self._closed_blocks(gauss, x_pass, cell, X_items)
                for acc, block in zip(accs, blocks):
                    # the rows (block axis 0) go onto the point's running sum
                    # one at a time, in s-node order: a sum would go pairwise
                    # for a single point.  a + b is b + a exactly.
                    block[0] += acc[idx]
                    acc[idx] = np.add.accumulate(block, axis=0)[-1]
        return accs

    def _rule_blocks(self, datum, source: bool, x: np.ndarray, cell: np.ndarray,
                     X: np.ndarray | None) -> list[np.ndarray]:
        """Weighted spatial-rule terms of one pass, for its cell factors
        ``cell`` (field, row, P) at the points ``x`` (P, N), with X(tau) of
        every agent ``X`` (N * n, row, P) for a source: one array per order,
        shaped (row, P) + (N,) * order.  The items (row, point) are
        flattened; xi = x + b sigma + sqrt(sigma) L u and the datum on it are
        built once, for every order."""
        dim = self.scenario.dimension
        n_rows = cell.shape[1]
        centre = (x.T[:, None, :] + cell[1:1 + dim]).reshape(dim, -1).T  # x + b sigma
        xi = centre[:, None, :] + cell[0].reshape(-1, 1, 1) * self._u_pts
        if source:
            vals = datum(xi, X.reshape((dim, -1, len(centre))).transpose(2, 0, 1)[:, None])
        else:
            vals = datum(xi)
        return [(cell[1 + dim + k].reshape((-1,) + (1,) * k)
                 * np.einsum(_CONTRACTIONS[k], w, vals)).reshape((n_rows, len(x)) + (dim,) * k)
                for k, w in zip(self.orders, self._weights)]

    def _closed_blocks(self, gauss, x: np.ndarray, cell: np.ndarray,
                       X: np.ndarray | None) -> list[np.ndarray]:
        """Weighted closed-form terms of one pass, for its cell factors
        ``cell`` (field, row, P) at the points ``x`` (P, N), with the centres
        X(tau) ``X`` (N * n, row, P) when they are at the agents: one array
        per order, shaped (row, P) + (N,) * order."""
        kern = self.scenario.kernel
        dim = kern.dim
        # the cell fields, then the items as (N, centre, row, P)
        weight, drift, m = cell[0], cell[1:1 + dim], cell[1 + dim:1 + 2 * dim]
        root_det, c_sigma = cell[1 + 2 * dim], cell[2 + 2 * dim]
        centres = X.reshape((dim, -1) + weight.shape) if gauss.at_agents \
            else np.zeros((dim, 1, 1, 1))
        d = x.T[:, None, None, :] - centres + drift[:, None]
        integrals = _gaussian_integrals(kern, d, m, root_det, c_sigma, gauss.rate, self.orders)
        return [(weight * (gauss.weight * k)).transpose((k.ndim - 2, k.ndim - 1)
                                                          + tuple(range(k.ndim - 2)))
                for k in integrals]


@dataclass(eq=False)
class FieldProbe:
    """Evaluator of f, grad f, hess f and ball-averaged grad f along a path.

    Immutable after construction; evaluations are pure and may be called
    concurrently.  ``backend`` defaults to `backend_for` the scenario; an
    explicit ``BACKEND_FD`` cross-checks the closed form.  Every evaluation
    builds a `FieldTable` of its probe times and evaluates it; a caller that
    senses at the same probe times on several paths on one grid, as Picard
    sweeps do, builds the table once and hands it to ``gradient_many`` or
    ``ball_average_gradient``.
    """

    scenario: Scenario
    path: AgentPath
    backend: str | None = None
    quad: QuadratureSpec = DEFAULT_QUAD

    def __post_init__(self):
        if self.backend is None:
            self.backend = backend_for(self.scenario)
        if self.backend not in (BACKEND_KERNEL, BACKEND_FD):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == BACKEND_KERNEL and not self.scenario.coeffs.is_constant:
            raise ValueError("closed-form backend requires constant coefficients")
        self._fd_grid: FdField | None = None

    # -- time tables ----------------------------------------------------------------

    def _table(self, t, n_points: int, orders: tuple,
               table: FieldTable | None = None) -> FieldTable:
        """The time table of a call at probe times ``t``: a new one, or the
        given ``table``, which must have been built for this probe's
        scenario, quadrature, backend and time grid and for this call's
        orders and probe times (ValueError otherwise)."""
        if table is None:
            return FieldTable(self.scenario, self.path.times, t, n_points, orders,
                              self.quad, self.backend)
        if not (table.scenario is self.scenario and table.quad == self.quad
                and table.backend == self.backend and table.orders == orders):
            raise ValueError("the field table was built for another scenario, quadrature, "
                             "backend or kind of call")
        if not (table.grid is self.path.times or np.array_equal(table.grid, self.path.times)):
            raise ValueError("the field table was built for another time grid")
        if not (table.n_points == n_points
                and np.array_equal(np.asarray(t, dtype=float), table.times)):
            raise ValueError("the field table was built for other probe times")
        return table

    def _evaluate(self, table: FieldTable, pts: np.ndarray) -> list[np.ndarray]:
        return table.evaluate(pts, self.path.X, self._fd_batch)

    # -- finite-difference backend --------------------------------------------

    def _fd_batch(self, pts: np.ndarray, t: np.ndarray, orders: tuple) -> list[np.ndarray]:
        if self._fd_grid is None:  # solved on first use
            self._fd_grid = solve_field_fd(self.scenario, self.path, self.quad)
        fdf = self._fd_grid
        return [(fdf.value_many, fdf.gradient_many, fdf.hessian_many)[order](pts, t)
                for order in orders]

    # -- public surface --------------------------------------------------------

    def _points(self, x) -> np.ndarray:
        """``x`` as stacked points (P, N), from one point (N,) or stacked
        points; any other shape raises ValueError."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        dim = self.scenario.dimension
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise ValueError(f"points must have shape ({dim},) or (P, {dim}) in {dim}D, "
                             f"got shape {np.shape(x)}")
        return pts

    def _batch(self, pts, t, orders: tuple, table: FieldTable | None = None) -> list[np.ndarray]:
        pts = self._points(pts)
        return self._evaluate(self._table(t, len(pts), orders, table), pts)

    def derivatives_many(self, pts, t, orders) -> tuple[np.ndarray, ...]:
        """f (order 0), grad f (1) and hess f (2) at stacked points ``pts``
        (P, N): one array per entry of ``orders``, shaped (P,) + (N,) * order.
        ``t`` is one time for all points or an array of shape (P,) with one
        time per point; points at t = 0 take the initial datum.  All orders
        come from one field pass, and each equals its one-order call."""
        orders = tuple(orders)
        if not orders or any(order not in (0, 1, 2) for order in orders):
            raise ValueError(f"derivative orders must be 0, 1 or 2, got {orders}")
        return tuple(self._batch(pts, t, orders))

    def value(self, x, t: float) -> float:
        return float(self._batch(np.asarray(x, dtype=float)[None, :], t, (0,))[0][0])

    def gradient(self, x, t: float) -> np.ndarray:
        return self._batch(np.asarray(x, dtype=float)[None, :], t, (1,))[0][0]

    def hessian(self, x, t: float) -> np.ndarray:
        return self._batch(np.asarray(x, dtype=float)[None, :], t, (2,))[0][0]

    def value_many(self, pts, t) -> np.ndarray:
        """f at stacked points ``pts`` (P, N), shape (P,); ``t`` as in
        ``derivatives_many``."""
        return self._batch(pts, t, (0,))[0]

    def gradient_many(self, pts, t, table: FieldTable | None = None) -> np.ndarray:
        """grad f at stacked points ``pts`` (P, N), shape (P, N); ``t`` as in
        ``derivatives_many``.  ``table`` is this call's `FieldTable`, built
        once for several paths on this probe's grid; by default the call
        builds its own."""
        return self._batch(pts, t, (1,), table)[0]

    def hessian_many(self, pts, t) -> np.ndarray:
        """hess f at stacked points ``pts`` (P, N), shape (P, N, N); ``t`` as
        in ``derivatives_many``."""
        return self._batch(pts, t, (2,))[0]

    def ball_average_gradient(self, x, t, delta: float,
                              table: FieldTable | None = None) -> np.ndarray:
        """Average of grad f over the radius-delta ball around one point
        (N,) or stacked points (P, N), shaped like ``x``; ``t`` as in
        ``derivatives_many`` and ``table`` as in ``gradient_many``.

        The average is (N / delta) times the mean of f nu over the sphere
        of radius delta (divergence theorem): one order-0 call at the k
        sphere nodes of every centre (2, 16 or 128), in (centre, node)
        order with each centre's time (`_sphere_times`), then the weighted
        sum over each centre's nodes in node order.  So a ``table`` is an
        order-0 table of those times, and it serves any radius.  In 1D the
        average is (f(x + delta) - f(x - delta)) / (2 delta)."""
        if not 0.0 < delta < math.inf:  # NaN too
            raise ValueError(f"sensing radius delta must be positive and finite, got {delta!r}")
        pts = self._points(x)
        offsets, wts = _cached_sphere_rule(self.scenario.dimension, float(delta))
        k = len(offsets)
        table = self._table(_sphere_times(t, len(pts), k), len(pts) * k, (0,), table)
        vals = self._evaluate(table, (pts[:, None, :] + offsets).reshape(-1, pts.shape[1]))[0]
        # the sum runs over a (node, centre) view in node order, as for one centre
        terms = np.multiply(vals.reshape(len(pts), k).T[:, :, None], wts[:, None, :], order="C")
        avg = terms.sum(axis=0)
        return avg[0] if np.ndim(x) == 1 else avg


def sensed_gradients(probe: FieldProbe, X: np.ndarray, times,
                     delta: float | None, table: FieldTable | None = None) -> np.ndarray:
    """w_j for every agent at every node, shape (K, N, n) like the stacked
    configurations X (K, N, n) at ``times`` (K,): the field gradient at X_j,
    or its average over the radius-delta ball, from one probe call, which
    reads the `sensing_table` ``table`` when one is given."""
    pts = np.swapaxes(X, 1, 2)  # (K, n, N): one point per (node, agent)
    flat = pts.reshape(-1, pts.shape[2])
    node_times = np.repeat(np.asarray(times, dtype=float), pts.shape[1])
    grads = (probe.gradient_many(flat, node_times, table=table) if delta is None
             else probe.ball_average_gradient(flat, node_times, delta, table=table))
    return np.swapaxes(grads.reshape(pts.shape), 1, 2)


def sensing_table(scenario: Scenario, grid: np.ndarray, times: np.ndarray,
                  delta: float | None, quad: QuadratureSpec | None) -> FieldTable:
    """The time table of `sensed_gradients` for every agent of the scenario
    at every node of ``times``, on paths on the time grid ``grid``: of the
    gradients, or of the field values on every agent's sphere for a ball
    average, in (node, agent, sphere node) order (`_sphere_times`)."""
    k = 1 if delta is None else len(_cached_sphere_rule(scenario.dimension, float(delta))[0])
    node_times = np.repeat(np.asarray(times, dtype=float), scenario.n * k)
    return FieldTable(scenario, grid, node_times, len(node_times),
                      (1,) if delta is None else (0,), quad or DEFAULT_QUAD)


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
        # imported here, not at module level: scipy.interpolate adds about
        # 50 MB of resident memory to every run, and only this backend uses it
        from scipy.interpolate import RegularGridInterpolator

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

    def _query(self, pts: np.ndarray, t) -> np.ndarray:
        # t is one time for all points or one per point
        t = np.minimum(np.maximum(t, self.times[0]), self.times[-1])
        q = np.empty((len(pts), 1 + len(self.axes)))
        q[:, 0] = t
        q[:, 1:] = pts
        return q

    def value_many(self, pts, t) -> np.ndarray:
        return self._val_interp(self._query(np.atleast_2d(pts), t))

    def value(self, x, t: float) -> float:
        return float(self.value_many(np.asarray(x)[None, :], t)[0])

    def gradient_many(self, pts, t) -> np.ndarray:
        q = self._query(np.atleast_2d(pts), t)
        return np.stack([gi(q) for gi in self._grad_interp], axis=-1)

    def hessian_many(self, pts, t) -> np.ndarray:
        """Symmetrized central differences (step h) of the interpolated
        gradient at stacked points (P, N), shape (P, N, N); two
        ``gradient_many`` calls per axis serve every point."""
        out = _fd_gradient_of(lambda p: self.gradient_many(p, t), np.atleast_2d(pts), self.h)
        return 0.5 * (out + np.swapaxes(out, 1, 2))


def solve_field_fd(scenario: Scenario, path: AgentPath, quad: QuadratureSpec | None = None) -> FdField:
    """Explicit finite-difference solve of the forced problem on a box.

    Second-order central differences in space, forward Euler in time with
    step at most h^2 / (2 N mu1), Dirichlet boundary values frozen at the
    initial datum (valid when the data decay at the box edge; rejected
    otherwise).  Variable coefficients are evaluated at every step, and the
    step is re-checked on each new grid of a.  Returns the stored grid with
    interpolating samplers.

    A step from t sets each interior cell to f + dt (c f + sum_i [a_ii D_ii f
    + b_i D_i f + sum_{j > i} 2 a_ij D_ij f] - g(x, X(t))), summed in that
    order, leaving out a drift or mixed term whose coefficient is zero on the
    grid, and each boundary cell to phi; with f[i +- 1] the neighbours along
    axis i, D_ii f = (f[i+1] - 2 f + f[i-1]) / h^2, D_i f = (f[i+1] - f[i-1])
    / (2 h) and D_ij f = (f[i+1, j+1] + f[i-1, j-1] - f[i+1, j-1] - f[i-1, j+1]) / (4 h^2).
    """
    quad = quad or DEFAULT_QUAD
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
    # the cells on a face of the box: an end node of some axis
    boundary = np.any([(m == ax[0]) | (m == ax[-1]) for m in mesh], axis=0)
    phi_boundary = f[boundary]
    max_phi_boundary = float(np.abs(phi_boundary).max())
    if max_phi_boundary > _FD_TAIL_TOL * max(1.0, sup_phi):
        raise ValueError(
            f"box too small: |phi| = {max_phi_boundary:g} on the boundary exceeds the tail tolerance"
        )

    def coeff_grids(t: float):
        a = np.asarray(coeffs.a(pts, t), dtype=float)
        b = np.asarray(coeffs.b(pts, t), dtype=float)
        c = np.asarray(coeffs.c(pts, t), dtype=float)
        for name, val, tail in (("a", a, (dim, dim)), ("b", b, (dim,))):
            if val.shape not in (tail, pts.shape[:-1] + tail):
                raise ValueError(f"coefficient {name} at t = {t:g} has shape {val.shape}; "
                                 f"expected {tail} or {pts.shape[:-1] + tail}")
        return a, b, c

    def stable_step(a) -> float:
        return h * h / (2.0 * dim * float(np.linalg.eigvalsh(a.reshape(-1, dim, dim)).max()))

    def check_step(a, t: float) -> None:
        limit = stable_step(a)
        if dt > limit * (1.0 + 1e-9):
            raise ValueError(f"time step {dt:g} violates the stability restriction "
                             f"{limit:g} at t = {t:g}")

    horizon = path.horizon
    a, b, c = coeff_grids(0.0)
    dt = quad.fd_dt if quad.fd_dt is not None else 0.9 * stable_step(a)
    n_steps = max(1, int(math.ceil(horizon / dt)))
    dt = horizon / n_steps
    check_step(a, 0.0)
    stride = max(1, int(math.ceil((n_steps + 1) / _FD_STORE_MAX)))

    stored_t, stored_f = [0.0], [f.copy()]
    t = 0.0
    for k in range(n_steps):
        if k > 0 and not coeffs.is_constant:
            a_prev = a
            a, b, c = coeff_grids(t)
            if not np.array_equal(a, a_prev):
                check_step(a, t)
        rhs = c * f
        # a and b are one matrix and vector or one per cell: a[..., i, j]
        # and b[..., i] read either
        for i in range(dim):
            up, down = _shift(f, i, 1), _shift(f, i, -1)  # f[i + 1], f[i - 1]
            rhs = rhs + a[..., i, i] * ((up - 2.0 * f + down) / (h * h))
            bi = b[..., i]
            if np.any(bi != 0.0):
                rhs = rhs + bi * ((up - down) / (2.0 * h))
            for j in range(i + 1, dim):
                aij = a[..., i, j]
                if np.any(aij != 0.0):
                    dij = (_shift(up, j, 1) + _shift(down, j, -1)
                           - _shift(up, j, -1) - _shift(down, j, 1)) / (4.0 * h * h)
                    rhs = rhs + 2.0 * aij * dij
        if not _is_zero(scenario.g):
            rhs = rhs - scenario.g(pts, path.positions_at(min(t, horizon)))
        f = f + dt * rhs
        f[boundary] = phi_boundary
        t = (k + 1) * dt
        if (k + 1) % stride == 0 or k == n_steps - 1:
            stored_t.append(t)
            stored_f.append(f.copy())

    return FdField(axes=axes, times=np.asarray(stored_t), values=np.stack(stored_f), h=h)
