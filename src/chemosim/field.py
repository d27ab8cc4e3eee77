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
(tau = t - s^2, weight 2 s ds).  An item integrates over xi by a quadrature
in u, with xi = x + sqrt(t - tau) L u (a = L L^T) truncated at
|u_i| <= u_max, unless its datum declares Gaussian structure
(``gaussian_source``, see `presets.GaussianSource`), which G integrates in
closed form.  The ``agent-secretion`` and ``constant`` sources declare it.
phi may, but no phi preset does yet: the benchmark self-test expects
pointwise-1d to evaluate the kernel, which only the phi quadrature still
does.  Variable coefficients take an explicit finite-difference solve on a
truncated box (`backend_for`).

Batch evaluations take one time per point, and the items of a batch run in
a few vectorized passes, so one call serves a whole Picard sweep.  The
layout is time-major: the points are sorted into runs of equal probe time,
and tau, the weight, sigma = t - tau, the agent positions X(tau) and every
other factor of an item that depends on its cell alone (for a closed-form
item the eigenvalues of M, sqrt(det M) and c sigma) are computed once per
(s-node, distinct time) cell, for every point at that time (the
initial-datum term is the one row tau = 0, weight 1).  The cells form one
table, which a pass gathers to its points with one ``take``.  A pass
is an (s-node, point) block: every s-row of a range of points or, when one
point's rows exceed the pass size, a range of the rows of one point.  Each
point adds its rows to its running sum one at a time in s-node order, in
one ``np.add.accumulate`` per pass, so a point's value is the same whatever
else the batch holds.  A call asks for any of the orders 0, 1, 2
(``derivatives_many``), and each pass serves all of them.  A spatial-rule
pass builds xi and the datum on it once and calls the kernel derivative
once per order, on (item, node, component) arrays.  A closed-form pass runs
axis-last, on (component, centre, item) arrays, so its reductions and
products run along the long item axis: it rotates into the eigenbasis of a
once and shares M^-1 d and the scalar factor between the orders.  Either
way an item's value does not depend on the pass it falls in, so every
order equals its one-order call bit for bit.  The spatial rule and the
s-rule are built once per (dimension, u_max, node counts, L) and shared
read-only (`_cached_field_rules`).

A call's fixed cost, paid before its passes, is one scan of the probe
times: the test that they are in order, which a NaN fails (the range check
then reads only the first and last sorted time), and the runs, whose first
is the points at t = 0 when there are any.  On the pointwise-1d benchmark
(2 agents, 17 nodes) a sweep's gradient pass takes about 0.28 ms at its 34
points and 0.17 ms at one point on a 2-core x86 box: most of a pass is
this per-call work, not work per point.

Evaluation at t = 0 returns the initial datum (and its difference-quotient
derivatives) by continuity.  The ball average of grad f is (N / delta) times
the mean of f nu over the sphere of radius delta (divergence theorem), so
non-local sensing takes field values only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .paths import AgentPath
from .quadrature import _read_only, gauss_legendre, sphere_rule, tensor_grid
from .scenario import Scenario

__all__ = [
    "QuadratureSpec",
    "FieldProbe",
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
    xi = x + sqrt(t - tau) L u (a = L L^T), in which the kernel decays like
    exp(-|u|^2 / 4) in every direction.  The rule drops a share of about
    erfc(u_max / 2) of the kernel's mass per axis: 2e-5 at the smallest
    accepted value 6, 2e-8 at 8 and 2e-12 at 10.  None picks 10 in 1D, where
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
    """Central-difference gradients of fn at stacked points ``pts`` (P, N),
    shape (P, N); one call of fn per offset serves every point."""
    out = np.empty(pts.shape)
    for i in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[i] = step
        out[:, i] = (fn(pts + e) - fn(pts - e)) / (2.0 * step)
    return out


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


# Size of one vectorized pass, counted in kernel-derivative entries (items x
# spatial nodes x derivative components, or items x agents x derivative
# components for a datum integrated in closed form); an item is an (s-node,
# point) cell of the source integral or a point of the initial-datum
# integral.  The same cap bounds a group's table of agent positions X(tau).
# Small passes keep their arrays in cache and the peak memory of a solve near
# its level before batching (passes of 2^15 entries added 1.4 MB to a 2D
# solve; closed-form source terms in one pass added 1.6 MB to a 1D solve); on
# a 1D Picard sweep, 2^13 to 2^15 entries ran fastest, and smaller passes pay
# Python overhead.
_CHUNK_ELEMENTS = 2**13


# Contraction of a kernel derivative of order 0, 1 or 2 (p items, m nodes)
# with the quadrature weights and the data on the nodes.
_CONTRACTIONS = ("m,pm,pm->p", "m,pmi,pm->pi", "m,pmij,pm->pij")


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
    sum(w) nu_k, both (K, N), of `quadrature.sphere_rule` at its defaults."""
    nu, w = sphere_rule(dim)
    return _read_only(delta * nu, (dim / delta) * (w / w.sum())[:, None] * nu)


def _time_runs(t: np.ndarray, order: np.ndarray | None) -> tuple:
    """The points of probe times ``t`` (P,) in time order, given the stable
    permutation ``order`` that sorts them (None when ``t`` is already in
    order, as a sweep's node-major points are): that permutation, the run of
    equal times each sorted point belongs to (P,), the bounds of the runs in
    sorted order (runs + 1,) and the time of each run (runs,)."""
    t_sorted = t if order is None else t[order]
    new = np.empty(len(t) + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(t_sorted[1:], t_sorted[:-1], out=new[1:-1])
    bounds = new.nonzero()[0]
    return order, np.cumsum(new[:-1]) - 1, bounds, t_sorted[bounds[:-1]]


def _sorted_points(order: np.ndarray | None, start: int, stop: int):
    """Index of the points at sorted positions [start, stop)."""
    return slice(start, stop) if order is None else order[start:stop]


@dataclass(eq=False)
class FieldProbe:
    """Evaluator of f, grad f, hess f and ball-averaged grad f along a path.

    Immutable after construction; evaluations are pure and may be called
    concurrently.  ``backend`` defaults to `backend_for` the scenario; an
    explicit ``BACKEND_FD`` cross-checks the closed form.
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
        if self.backend == BACKEND_KERNEL:
            # xi = x + sqrt(t - tau) L u with a = L L^T, so the kernel decays
            # like exp(-|u|^2 / 4) in every direction of the truncated box
            dim = self.scenario.dimension
            chol = np.ascontiguousarray(self.scenario.kernel.chol, dtype=float)
            self._u_pts, self._u_wts, self._s_base, self._s_wts = _cached_field_rules(
                dim, float(self.quad.resolved_u_max(dim)), int(self.quad.resolved_space_nodes(dim)),
                int(self.quad.time_nodes), chol.tobytes())

    # -- time-range handling -------------------------------------------------

    def _check_times(self, t, n_points: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Probe times clamped to [0, horizon], one per point, and the stable
        permutation that sorts them (None when they are in order).  The one
        scan of the times is the order test, which a NaN fails; the sort puts
        NaN last, so the range check reads the first and last sorted time."""
        horizon = self.path.horizon
        t = np.asarray(t, dtype=float)
        if t.ndim > 1 or (t.ndim == 1 and len(t) != n_points):
            raise ValueError(f"need one probe time or one per point, got shape {t.shape}")
        if t.ndim == 0:
            t = np.full(max(n_points, 1), t)  # a lone time is checked, points or not
        elif not n_points:
            return t, None
        order = None if (t[:-1] <= t[1:]).all() else np.argsort(t, kind="stable")
        lo, hi = (t[0], t[-1]) if order is None else (t[order[0]], t[order[-1]])
        top = horizon * (1.0 + 1e-9) + 1e-12
        if not (lo >= -1e-12 and hi <= top):
            bad = t[~((t >= -1e-12) & (t <= top))][0]
            raise ValueError(f"probe time {float(bad)} outside [0, {horizon}]")
        if lo < 0.0 or hi > horizon:  # clamping keeps the order
            t = np.minimum(np.maximum(t, 0.0), horizon)
        return t[:n_points], order

    # -- closed-form backend -------------------------------------------------

    def _kernel_integral(self, datum, source: bool, pts: np.ndarray, runs: tuple,
                         orders: tuple) -> list[np.ndarray]:
        """x-derivatives of the given orders of the kernel integral of phi
        (``source`` false) or of g over (0, t), at stacked points (P, N)
        whose probe times ``runs`` groups (`_time_runs`): a sum over the
        items the module docstring describes, each in closed form when the
        datum declares Gaussian structure and by the spatial rule otherwise.
        One array per order, shaped (P,) + (N,) * order; every order comes
        from the same passes.  Each point sums its items in s-node order,
        across passes too."""
        kern = self.scenario.kernel
        dim, n_agents = kern.dim, self.scenario.n
        order, run, bounds, run_times = runs
        shapes = [(len(pts),) + (dim,) * k for k in orders]
        if _is_zero(datum):
            return [np.zeros(shape) for shape in shapes]
        gauss = getattr(datum, "gaussian_source", None)
        # a pass holds, for each of its items, at most one closed-form term per
        # agent or one kernel-derivative entry per spatial node, of the largest
        # requested order: the orders' kernel derivatives come one at a time.
        # It takes every s-row of a range of points, or, when one point's rows
        # do not fit, a range of the rows of one point.
        per_item = (n_agents if gauss is not None else len(self._u_pts)) * dim**max(orders)
        n_rows = len(self._s_base) if source else 1
        rows_per_pass = min(n_rows, max(1, _CHUNK_ELEMENTS // per_item))
        pts_per_pass = max(1, _CHUNK_ELEMENTS // (per_item * n_rows))
        # a group of runs holds X(tau) of every agent for each of its cells
        runs_per_group = max(1, _CHUNK_ELEMENTS // (n_rows * dim * n_agents))
        accs = [np.zeros(shape) for shape in shapes]
        for g0 in range(0, len(run_times), runs_per_group):
            g1 = min(g0 + runs_per_group, len(run_times))
            cells = self._cells(run_times[g0:g1], source, gauss)
            for p0 in range(bounds[g0], bounds[g1], pts_per_pass):
                p1 = min(p0 + pts_per_pass, bounds[g1])
                idx = slice(p0, p1) if order is None else order[p0:p1]
                cols = run[p0:p1] - g0
                for r0 in range(0, n_rows, rows_per_pass):
                    blocks = self._pass_blocks(datum, source, gauss, pts[idx], cells,
                                               slice(r0, r0 + rows_per_pass), cols, orders)
                    for acc, block in zip(accs, blocks):
                        # the rows (block axis 0) go onto the point's running
                        # sum one at a time, in s-node order: a sum would go
                        # pairwise for a single point.  a + b is b + a exactly.
                        block[0] += acc[idx]
                        acc[idx] = np.add.accumulate(block, axis=0)[-1]
        return accs

    def _cells(self, t_u: np.ndarray, source: bool, gauss) -> np.ndarray:
        """The (s-node, time) cells shared by every point at one of the
        distinct probe times ``t_u`` (U,), as one table (field, row, U) that
        a pass gathers at its points' columns with one ``take``.

        The fields are the factors of an item that depend on its cell alone,
        computed once per cell by the elementwise operations an item would
        apply to the same values, so every item keeps its bits.  By the
        spatial rule: weight * sigma^(N/2), sqrt(sigma), t and tau; in closed
        form: the weight, b sigma (N rows) and `_gaussian_factors` (N + 2
        rows).  The agent positions X(tau) follow, N * n rows, where an item
        reads them.  The initial-datum integral is the one row tau = 0,
        weight 1."""
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
        if gauss is None:
            fields = [weight * sigma ** (kern.dim / 2.0),  # jacobian; det L is in _u_wts
                      np.sqrt(sigma), np.broadcast_to(t_u, sigma.shape), tau]
        else:
            m, root_det, c_sigma = self._gaussian_factors(sigma, gauss.rate)
            fields = [weight, *(b * sigma for b in kern.b), *m, root_det, c_sigma]
        if source and (gauss is None or gauss.at_agents):
            # positions_at returns a (row, U, N, n) view of an (N, n, row, U) array
            X = self.path.positions_at(tau).transpose(2, 3, 0, 1)
            fields.extend(X.reshape((-1,) + sigma.shape))
        return np.array(fields)

    def _pass_blocks(self, datum, source: bool, gauss, x: np.ndarray, cells: np.ndarray,
                     rows: slice, cols: np.ndarray, orders: tuple) -> list[np.ndarray]:
        """Weighted terms of one pass, for the ``rows`` of the cells at
        columns ``cols`` and the points ``x`` (P, N) at those columns: one
        array per order, shaped (row, P) + (N,) * order."""
        kern = self.scenario.kernel
        dim = kern.dim
        cell = cells[:, rows].take(cols, axis=2)  # (field, row, P)
        n_rows = cell.shape[1]
        if gauss is None:
            # items (row, point) flattened; xi and the datum on it once, the
            # kernel derivative once per order
            weight, root_sigma, t_i, tau = cell[:4].reshape(4, -1)
            x_i = x if n_rows == 1 else np.tile(x, (n_rows, 1))
            xi = x_i[:, None, :] + root_sigma[:, None, None] * self._u_pts
            if source:
                X = cell[4:].reshape((dim, -1, len(t_i))).transpose(2, 0, 1)
                vals = datum(xi, X[:, None])
            else:
                vals = datum(xi)
            return [(weight.reshape((-1,) + (1,) * order) * np.einsum(
                _CONTRACTIONS[order], self._u_wts,
                kern.derivative(order, x_i[:, None, :], t_i[:, None], xi, tau[:, None]), vals)
                ).reshape((n_rows, len(x)) + (dim,) * order) for order in orders]
        # the cell fields (`_cells`), then the items as (N, centre, row, P)
        weight, drift, m = cell[0], cell[1:1 + dim], cell[1 + dim:1 + 2 * dim]
        root_det, c_sigma = cell[1 + 2 * dim], cell[2 + 2 * dim]
        centres = cell[3 + 2 * dim:].reshape((dim, -1) + weight.shape) if gauss.at_agents \
            else np.zeros((dim, 1, 1, 1))
        d = x.T[:, None, None, :] - centres + drift[:, None]
        integrals = self._gaussian_integrals(d, m, root_det, c_sigma, gauss.rate, orders)
        return [(weight * (gauss.weight * k)).transpose((k.ndim - 2, k.ndim - 1)
                                                          + tuple(range(k.ndim - 2)))
                for k in integrals]

    def _gaussian_factors(self, sigma: np.ndarray, rate: float) -> tuple:
        """The factors of `_gaussian_integrals` that depend on sigma = t - tau
        alone: the eigenvalues 1 + 4 rate sigma lambda_a of M (one array per
        axis a), sqrt(det M) and c sigma, each shaped like ``sigma``."""
        kern = self.scenario.kernel
        scale = 4.0 * rate * sigma
        m = [1.0 + scale * lam for lam in kern.eig[0]]
        return m, np.sqrt(reduce(operator.mul, m)), kern.c * sigma

    def _gaussian_integrals(self, d: np.ndarray, m, root_det: np.ndarray, c_sigma: np.ndarray,
                            rate: float, orders: tuple) -> list[np.ndarray]:
        """x-derivatives of the given orders of the integral over xi of
        G(x, t, xi, tau) sum_c exp(-rate |xi - c|^2), for d = x - c + b sigma
        stacked (N, centre, *items) with sigma = t - tau, given the factors
        m, sqrt(det M) and c sigma of `_gaussian_factors`, shaped like the
        items.  One array per order, shaped (N,) * order + items.

        With M = I + 4 rate sigma a the integral of one centre is
        det(M)^(-1/2) exp(-rate d^T M^-1 d + c sigma); the gradient is
        -2 rate M^-1 d times that, the hessian
        (4 rate^2 (M^-1 d)(M^-1 d)^T - 2 rate M^-1) times that.  M is
        diagonal in the eigenbasis Q of a, so the pass rotates d into it
        once, e = Q^T d, and shares M^-1 d and the scalar factor between the
        orders.  The rotations are sums of per-axis products rather than
        BLAS calls, whose fused multiply-adds could round an item by its
        position in the pass."""
        kern = self.scenario.kernel
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

    def _closed_batch(self, pts: np.ndarray, runs: tuple, orders: tuple) -> list[np.ndarray]:
        initial = self._kernel_integral(self.scenario.phi, False, pts, runs, orders)
        source = self._kernel_integral(self.scenario.g, True, pts, runs, orders)
        return [a - b for a, b in zip(initial, source)]

    # -- data-at-zero fallback ------------------------------------------------

    def _batch_at_zero(self, pts: np.ndarray, orders: tuple) -> list[np.ndarray]:
        phi = self.scenario.phi
        derivs = (phi, lambda p: _fd_gradient_of(phi, p), lambda p: _fd_hessian_of(phi, p))
        return [derivs[order](pts) for order in orders]

    # -- finite-difference backend --------------------------------------------

    def _fd_batch(self, pts: np.ndarray, t: np.ndarray, orders: tuple) -> list[np.ndarray]:
        if self._fd_grid is None:  # solved on first use
            self._fd_grid = solve_field_fd(self.scenario, self.path, self.quad)
        fdf = self._fd_grid
        return [(fdf.value_many, fdf.gradient_many, fdf.hessian_many)[order](pts, t)
                for order in orders]

    # -- public surface --------------------------------------------------------

    def _batch(self, pts, t, orders: tuple) -> list[np.ndarray]:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t, order = self._check_times(t, len(pts))
        shapes = [(len(pts),) + (self.scenario.dimension,) * k for k in orders]
        if len(pts) == 0:
            return [np.empty(shape) for shape in shapes]
        runs = _time_runs(t, order)
        _, run, bounds, run_times = runs
        # the points at t = 0 are the first run, if there are any
        zero = int(bounds[1]) if run_times[0] == 0.0 else 0
        if zero:
            runs = (order, run - 1, bounds[1:], run_times[1:])
        if self.backend == BACKEND_KERNEL:
            outs = self._closed_batch(pts, runs, orders)  # 0 at t = 0
        else:
            outs = [np.empty(shape) for shape in shapes]
            if zero < len(pts):
                live = _sorted_points(order, zero, len(pts))
                for out, vals in zip(outs, self._fd_batch(pts[live], t[live], orders)):
                    out[live] = vals
        if zero:
            at_zero = _sorted_points(order, 0, zero)
            for out, vals in zip(outs, self._batch_at_zero(pts[at_zero], orders)):
                out[at_zero] = vals
        return outs

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

    def gradient_many(self, pts, t) -> np.ndarray:
        """grad f at stacked points ``pts`` (P, N), shape (P, N); ``t`` as in
        ``derivatives_many``."""
        return self._batch(pts, t, (1,))[0]

    def hessian_many(self, pts, t) -> np.ndarray:
        """hess f at stacked points ``pts`` (P, N), shape (P, N, N); ``t`` as
        in ``derivatives_many``."""
        return self._batch(pts, t, (2,))[0]

    def ball_average_gradient(self, x, t, delta: float) -> np.ndarray:
        """Average of grad f over the radius-delta ball around one point
        (N,) or stacked points (P, N), shaped like ``x``; ``t`` as in
        ``derivatives_many``.  One ``value_many`` pass on the sphere rule
        (2, 16 or 128 nodes) serves every point; in 1D the average is
        (f(x + delta) - f(x - delta)) / (2 delta)."""
        if not 0.0 < delta < math.inf:  # NaN too
            raise ValueError(f"sensing radius delta must be positive and finite, got {delta!r}")
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        t, _ = self._check_times(t, len(pts))
        offsets, wts = _cached_sphere_rule(self.scenario.dimension, float(delta))
        # (node, centre) order: the sum runs in node order for any number of centres
        vals = self.value_many((offsets[:, None, :] + pts).reshape(-1, pts.shape[1]),
                               np.tile(t, len(offsets))).reshape(len(offsets), len(pts))
        avg = (vals[:, :, None] * wts[:, None, :]).sum(axis=0)
        return avg[0] if np.ndim(x) == 1 else avg


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
        """Symmetrized central differences of the interpolated gradient at
        stacked points (P, N), shape (P, N, N); two ``gradient_many`` calls
        per axis serve every point."""
        pts = np.atleast_2d(pts)
        dim = len(self.axes)
        out = np.empty((len(pts), dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = self.h
            out[:, :, j] = (self.gradient_many(pts + e, t)
                            - self.gradient_many(pts - e, t)) / (2.0 * self.h)
        return 0.5 * (out + np.swapaxes(out, 1, 2))


def solve_field_fd(scenario: Scenario, path: AgentPath, quad: QuadratureSpec | None = None) -> FdField:
    """Explicit finite-difference solve of the forced problem on a box.

    Second-order central differences in space, forward Euler in time with
    step at most h^2 / (2 N mu1), Dirichlet boundary values frozen at the
    initial datum (valid when the data decay at the box edge; rejected
    otherwise).  Variable coefficients are evaluated at every step, and the
    step is re-checked on each new grid of a.  Returns the stored grid with
    interpolating samplers.
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
    boundary = np.zeros(f.shape, dtype=bool)
    for i in range(dim):
        sl = [slice(None)] * dim
        sl[i] = 0
        boundary[tuple(sl)] = True
        sl[i] = -1
        boundary[tuple(sl)] = True
    max_phi_boundary = float(np.abs(f[boundary]).max()) if boundary.any() else 0.0
    if max_phi_boundary > _FD_TAIL_TOL * max(1.0, sup_phi):
        raise ValueError(
            f"box too small: |phi| = {max_phi_boundary:g} on the boundary exceeds the tail tolerance"
        )
    phi_boundary = f[boundary].copy()

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

    g_zero = _is_zero(scenario.g)

    def a_entry(a, i, j):
        return a[i, j] if a.shape == (dim, dim) else a[..., i, j]

    def b_entry(b, i):
        return b[i] if b.shape == (dim,) else b[..., i]

    stored_t = [0.0]
    stored_f = [f.copy()]
    t = 0.0
    for k in range(n_steps):
        if k > 0 and not coeffs.is_constant:
            a_prev = a
            a, b, c = coeff_grids(t)
            if not np.array_equal(a, a_prev):
                check_step(a, t)
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
