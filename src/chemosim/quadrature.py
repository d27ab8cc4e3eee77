"""Deterministic quadrature rules shared by the field and verification code.

Everything here is pure and seed-free except `halton_points`, which takes an
explicit seed so sample sets are reproducible.  Its sampler is Owen's
randomized Halton sequence (A. B. Owen, "A randomized Halton algorithm in
R", arXiv:1706.02808, 2017), written with numpy alone; scipy's
``qmc.Halton`` draws the same points and serves the tests as their oracle.
Inside `halton_run` (one ``chemosim verify`` run) the draws of one seed
share one table, so the run draws each seed's permutations once.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

import numpy as np


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _legendre_base(n: int) -> tuple[np.ndarray, np.ndarray]:
    # shared by every caller, hence read-only
    return _read_only(*np.polynomial.legendre.leggauss(n))


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b], as read-only arrays."""
    x, w = _legendre_base(n)
    return _read_only(0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w)


def tensor_grid(a: float, b: float, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre grid on [a, b]^dim.

    Returns (points, weights) with points of shape (n**dim, dim) and weights
    of shape (n**dim,).
    """
    x, w = gauss_legendre(a, b, n)
    if dim == 1:
        return x[:, None], w
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.ones(len(pts))
    for wg in wgrids:
        wts *= wg.ravel()
    return pts, wts


# nodes of `sphere_rule`: 16 angles in 2D, 8 polar x 16 azimuthal in 3D
_N_POLAR = 8
_N_AZIMUTH = 16


def sphere_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the unit sphere S^{dim-1}, weights summing to its area.

    dim=1 uses the two endpoints, dim=2 `_N_AZIMUTH` equally spaced angles
    (trapezoid rule, spectrally accurate for periodic integrands), dim=3 a
    `_N_POLAR`-node Gauss-Legendre x `_N_AZIMUTH`-node trapezoid product in
    (cos(polar), azimuth).
    """
    if dim == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    theta = 2.0 * np.pi * np.arange(_N_AZIMUTH) / _N_AZIMUTH
    wtheta = 2.0 * np.pi / _N_AZIMUTH
    if dim == 2:
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return pts, np.full(_N_AZIMUTH, wtheta)
    if dim == 3:
        mu, wmu = np.polynomial.legendre.leggauss(_N_POLAR)
        s = np.sqrt(1.0 - mu * mu)[:, None]
        z = np.broadcast_to(mu[:, None], (_N_POLAR, _N_AZIMUTH))
        # polar-major order: row i * _N_AZIMUTH + j is (mu_i, theta_j)
        pts = np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=-1)
        return pts.reshape(-1, 3), np.repeat(wmu * wtheta, _N_AZIMUTH)
    raise ValueError(f"sphere_rule supports dim in {{1,2,3}}, got {dim}")


def trapezoid_cumulative(y: np.ndarray, t: np.ndarray,
                         halves: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid integral of y over t along the first axis.

    ``halves``, the half steps 0.5 * (t[1:] - t[:-1]), may be passed by a
    caller that integrates many functions on one grid; the result is the
    same, since they are what this function forms from t otherwise."""
    y = np.asarray(y, dtype=float)
    if halves is None:
        t = np.asarray(t, dtype=float)
        halves = 0.5 * (t[1:] - t[:-1])
    out = np.empty(y.shape)
    out[0] = 0.0
    np.cumsum(halves.reshape((len(halves),) + (1,) * (y.ndim - 1)) * (y[1:] + y[:-1]),
              axis=0, out=out[1:])
    return out


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


# The unit-cube tables of the `halton_run` in progress, one per seed; None
# outside a run, where every `halton_points` call builds its own table
_HALTON_TABLES: ContextVar[dict | None] = ContextVar("halton_tables", default=None)


class _HaltonTable:
    """Scrambled-Halton unit-cube columns of one seed, grown on demand.

    Axis k's digit permutations come from the seed's generator after those
    of axes 0..k-1, so they do not depend on how many points or axes a draw
    asks for, and point i's value depends only on them and on i.  A draw of
    n points on d axes is therefore the first n rows of the first d
    columns, whatever was drawn from the table before."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._bases: list[int] = []
        self._perms: list[np.ndarray] = []    # per axis: (digits, base)
        self._columns: list[np.ndarray] = []  # per axis: points 0, 1, ... drawn so far

    def draw(self, n: int, dim: int) -> np.ndarray:
        """The first n points of the first dim axes, shape (n, dim)."""
        if len(self._bases) < dim:
            for base in _first_primes(dim)[len(self._bases):]:
                digits = math.ceil(54 / math.log2(base)) - 1
                # one shuffle per row, in row order, all from the one generator
                self._perms.append(self._rng.permuted(np.tile(np.arange(base), (digits, 1)),
                                                      axis=1))
                self._bases.append(base)
                self._columns.append(np.empty(0))
        u = np.empty((n, dim))
        for axis in range(dim):
            col = self._columns[axis]
            if len(col) < n:
                col = np.concatenate(
                    [col, _scrambled_radical_inverse(self._perms[axis], self._bases[axis],
                                                     len(col), n)])
                self._columns[axis] = col
            u[:, axis] = col[:n]
        return u


def _scrambled_radical_inverse(perms: np.ndarray, base: int, start: int,
                               stop: int) -> np.ndarray:
    """Owen-scrambled van der Corput values of the indices start..stop-1 in
    ``base``, digit j of an index going through permutation ``perms[j]``."""
    rest = np.arange(start, stop)
    live, top = 0, stop - 1  # how many digits the largest index has
    while top > 0:
        live, top = live + 1, top // base
    value = np.zeros(stop - start)
    scale = 1.0 / base
    for perm in perms[:live]:
        value += perm[rest % base] * scale
        scale /= base
        rest = rest // base
    # every later digit is 0, but its permuted value still counts, and the
    # sum runs digit by digit as the definition's does; so an index's value
    # does not depend on how many digits the largest index of its draw has
    for first in perms[live:, 0].tolist():
        value += first * scale
        scale /= base
    return value


@contextmanager
def halton_run():
    """Within the block, every `halton_points` call of one seed reads one
    table: the seed's digit permutations are drawn once, and each axis is
    computed once up to the largest point count asked of it.  Every call
    returns what it returns outside the block, bit for bit."""
    token = _HALTON_TABLES.set({})
    try:
        yield
    finally:
        _HALTON_TABLES.reset(token)


def halton_points(n: int, bounds: list[tuple[float, float]], seed: int = 0) -> np.ndarray:
    """n scrambled-Halton points in the box given by per-axis (lo, hi) bounds;
    an inverted bound (lo > hi) raises ValueError.

    Axis k is the van der Corput sequence in the k-th prime base p,
    randomized by Owen's digit permutations (A. B. Owen, "A randomized
    Halton algorithm in R", arXiv:1706.02808, 2017): digit j of the index
    goes through its own random permutation of range(p), for every j with
    p**-(j+1) > 2**-54.  The permutations come, base by base and digit by
    digit, from ``numpy.random.default_rng(seed)``, and each point sums its
    digits in order, so the points equal those of scipy's
    ``qmc.Halton(d, scramble=True, seed=seed).random(n)`` bit for bit.

    The points are the first n rows and len(bounds) columns of the seed's
    unit-cube table (`_HaltonTable`), scaled into the box.  Inside
    `halton_run` the calls of one seed share that table; outside, each call
    builds its own, so nothing is kept between calls.
    """
    for lo, hi in bounds:
        if not lo <= hi:
            raise ValueError(f"sample range ({lo}, {hi}) is inverted")
    tables = _HALTON_TABLES.get()
    if tables is None:
        table = _HaltonTable(seed)
    else:
        table = tables.get(seed)
        if table is None:
            table = tables[seed] = _HaltonTable(seed)
    u = table.draw(n, len(bounds))
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + u * (hi - lo)
