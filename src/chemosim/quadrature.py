"""Deterministic quadrature rules shared by the field and verification code.

Everything here is pure and seed-free except `halton_points`, which takes an
explicit seed so sample sets are reproducible.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


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
        pts = []
        wts = []
        for m, wm in zip(mu, wmu):
            s = np.sqrt(1.0 - m * m)
            for th in theta:
                pts.append([s * np.cos(th), s * np.sin(th), m])
                wts.append(wm * wtheta)
        return np.asarray(pts), np.asarray(wts)
    raise ValueError(f"sphere_rule supports dim in {{1,2,3}}, got {dim}")


def ball_average_rule(dim: int, radius: float, n_radial: int = 12,
                      n_polar: int = 8, n_azimuth: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights so that sum(w * h(x + offsets)) averages h over a ball.

    Weights sum to 1; the rule is the product of radial Gauss-Legendre (with
    the r^{dim-1} volume factor) and a sphere rule, normalized by the ball
    volume.
    """
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    r, wr = gauss_legendre(0.0, radius, n_radial)
    s_pts, s_wts = sphere_rule(dim, n_polar, n_azimuth)
    offsets = r[:, None, None] * s_pts[None, :, :]
    wts = (wr * r**(dim - 1))[:, None] * s_wts[None, :]
    offsets = offsets.reshape(-1, dim)
    wts = wts.ravel()
    volume = wts.sum()  # equals ball volume up to quadrature error
    return offsets, wts / volume


def trapezoid_cumulative(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of y over t along the first axis."""
    y = np.asarray(y, dtype=float)
    dt = np.diff(t)
    shape = (len(dt),) + (1,) * (y.ndim - 1)
    increments = 0.5 * dt.reshape(shape) * (y[1:] + y[:-1])
    out = np.zeros_like(y)
    np.cumsum(increments, axis=0, out=out[1:])
    return out


def halton_points(n: int, bounds: list[tuple[float, float]], seed: int = 0) -> np.ndarray:
    """n low-discrepancy points in the box given by per-axis (lo, hi) bounds."""
    dim = len(bounds)
    sampler = qmc.Halton(d=dim, scramble=True, seed=seed)
    u = sampler.random(n)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + u * (hi - lo)
