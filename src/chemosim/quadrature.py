"""Deterministic quadrature rules shared by the field and verification code.

Everything here is pure and seed-free except `halton_points`, which takes an
explicit seed so sample sets are reproducible.  Its sampler is Owen's
randomized Halton sequence (A. B. Owen, "A randomized Halton algorithm in
R", arXiv:1706.02808, 2017), written with numpy alone; scipy's
``qmc.Halton`` draws the same points and serves the tests as their oracle.
"""

from __future__ import annotations

import math
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


def sphere_rule(dim: int, n_polar: int = 8, n_azimuth: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the unit sphere S^{dim-1}, weights summing to its area.

    dim=1 uses the two endpoints, dim=2 equally spaced angles (trapezoid rule,
    spectrally accurate for periodic integrands), dim=3 a Gauss-Legendre x
    trapezoid product in (cos(polar), azimuth).
    """
    if dim == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        wts = np.full(n_azimuth, 2.0 * np.pi / n_azimuth)
        return pts, wts
    if dim == 3:
        mu, wmu = np.polynomial.legendre.leggauss(n_polar)
        theta = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        wtheta = 2.0 * np.pi / n_azimuth
        s = np.sqrt(1.0 - mu * mu)[:, None]
        z = np.broadcast_to(mu[:, None], (n_polar, n_azimuth))
        # polar-major order: row i * n_azimuth + j is (mu_i, theta_j)
        pts = np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=-1)
        return pts.reshape(-1, 3), np.repeat(wmu * wtheta, n_azimuth)
    raise ValueError(f"sphere_rule supports dim in {{1,2,3}}, got {dim}")


def trapezoid_cumulative(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of y over t along the first axis."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    dt = (t[1:] - t[:-1]).reshape((len(t) - 1,) + (1,) * (y.ndim - 1))
    out = np.empty(y.shape)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (y[1:] + y[:-1]), axis=0, out=out[1:])
    return out


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


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
    """
    for lo, hi in bounds:
        if not lo <= hi:
            raise ValueError(f"sample range ({lo}, {hi}) is inverted")
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    u = np.empty((n, len(bounds)))
    for axis, base in enumerate(_first_primes(len(bounds))):
        digits = math.ceil(54 / math.log2(base)) - 1
        # one shuffle per row, in row order, all from the one generator
        perms = rng.permuted(np.tile(np.arange(base), (digits, 1)), axis=1)
        live, top = 0, n - 1  # how many digits the largest index has
        while top > 0:
            live, top = live + 1, top // base
        value = np.zeros(n)
        scale = 1.0 / base
        rest = index
        for perm in perms[:live]:
            value += perm[rest % base] * scale
            scale /= base
            rest = rest // base
        # every later digit is 0, but its permuted value still counts, and
        # the sum runs digit by digit as the definition's does
        for first in perms[live:, 0].tolist():
            value += first * scale
            scale /= base
        u[:, axis] = value
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + u * (hi - lo)
