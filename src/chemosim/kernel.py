"""Closed-form heat kernels for constant-coefficient parabolic operators.

For an operator with constant diffusion matrix ``a``, drift ``b`` and
reaction rate ``c``, the kernel evaluated here is

    G(x, t, xi, tau) = (4 pi s)^(-N/2) det(a)^(-1/2)
                       * exp(-<a^-1 d, d> / (4 s) + c s)

with ``s = t - tau`` and ``d = x - xi + b s``.  The drift sign convention is
pinned by a finite-difference evolution test in the suite.  The module also
provides the scalar helpers and decay/derivative-bound constants used by the
horizon certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import GrowthSpec, OperatorCoefficients

__all__ = [
    "ell",
    "sphere_area",
    "gaussian_I0",
    "gaussian_I1",
    "lambda0_bound",
    "Kernel",
    "make_kernel",
    "EstimateParams",
    "gamma_estimate_Cgamma",
    "derivative_bound_constants",
    "default_estimate_params",
]


def ell(theta: float, nu: float) -> float:
    """Peak value of y**theta * exp(-nu*y) over y >= 0, i.e. exp(-theta)*(theta/nu)**theta."""
    if theta <= 0 or nu <= 0:
        raise ValueError("ell requires theta > 0 and nu > 0")
    return math.exp(-theta) * (theta / nu) ** theta


def sphere_area(dim: int) -> float:
    """Surface area of the unit (dim-1)-sphere in R^dim: 2 pi^(dim/2) / Gamma(dim/2)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def gaussian_I0(gamma: float, dim: int) -> float:
    """Integral of exp(-gamma*|y|^2) over R^dim: (pi/gamma)^(dim/2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (math.pi / gamma) ** (dim / 2.0)


def gaussian_I1(gamma: float, dim: int) -> float:
    """Integral of exp(-gamma*|y|^2)*|y| over R^dim.

    Closed form (1/gamma)^((dim+1)/2) * (omega_dim/2) * (2 pi^((dim+1)/2) / omega_{dim+1})
    with omega_k the unit-sphere area in R^k.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    w_n = sphere_area(dim)
    w_n1 = sphere_area(dim + 1)
    return (1.0 / gamma) ** ((dim + 1) / 2.0) * (w_n / 2.0) * (2.0 * math.pi ** ((dim + 1) / 2.0) / w_n1)


def lambda0_bound(mu0: float, mu1: float) -> float:
    """Admissible exponential decay rate mu0/mu1^2 for a diffusion matrix with
    eigenvalues in [mu0, mu1].  Any smaller positive value is also admissible."""
    if mu0 <= 0 or mu1 <= 0 or mu0 > mu1:
        raise ValueError("need 0 < mu0 <= mu1")
    return mu0 / mu1**2


@dataclass(frozen=True)
class Kernel:
    """Evaluable constant-coefficient kernel with exact spatial derivatives.

    Immutable; all evaluations are pure and broadcast over leading axes of
    ``x`` and ``xi``.  Defined for 0 <= tau < t.
    """

    dim: int
    a: np.ndarray         # (N, N) diffusion matrix
    b: np.ndarray         # (N,) drift
    c: float              # reaction rate
    a_inv: np.ndarray
    det_a: float
    mu0: float            # smallest eigenvalue of a
    mu1: float            # largest eigenvalue of a

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower-triangular Cholesky factor L of a = L L^T."""
        return np.linalg.cholesky(self.a)

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthonormal eigenvectors of a, as ``np.linalg.eigh``."""
        return np.linalg.eigh(self.a)

    def _core(self, x, t, xi, tau):
        s = np.subtract(t, tau, dtype=float)  # the ufuncs convert their inputs
        if (s <= 0).any():
            raise ValueError("kernel requires tau < t")
        s_b = s[..., None] if s.ndim else s
        d = np.subtract(x, xi, dtype=float) + self.b * s_b
        # in 1D the product with a^-1 is one multiplication per entry, the
        # value the BLAS call returns, at a fraction of its call cost; the
        # two differ only at d = -0.0, which d never is: it carries + b s,
        # which is nonzero or, for zero drift, +0.0
        w = d * self.a_inv[0] if self.dim == 1 else d @ self.a_inv
        quad = np.einsum("...i,...i->...", w, d)
        pref = (4.0 * math.pi * s) ** (-self.dim / 2.0) / math.sqrt(self.det_a)
        val = pref * np.exp(quad / (-4.0 * s) + self.c * s)  # -q / (4 s), exactly
        return val, w, s_b

    def eval(self, x, t, xi, tau):
        """Kernel value; broadcasts over stacked x / xi points."""
        val, _, _ = self._core(x, t, xi, tau)
        return val

    def grad_x(self, x, t, xi, tau):
        """Gradient in x, shape (..., N)."""
        val, w, s_b = self._core(x, t, xi, tau)
        return val[..., None] * w / (-2.0 * s_b)  # -v w / (2 s), exactly

    def hess_x(self, x, t, xi, tau):
        """Second x-derivatives, shape (..., N, N); exactly symmetric."""
        val, w, s_b = self._core(x, t, xi, tau)
        s_col = np.asarray(s_b)[..., None]
        outer = w[..., :, None] * w[..., None, :]
        return val[..., None, None] * (outer / (4.0 * s_col**2) - self.a_inv / (2.0 * s_col))

    def derivative(self, order: int, x, t, xi, tau):
        """x-derivative of the given order (0, 1 or 2): ``eval``, ``grad_x``
        or ``hess_x``, with ``order`` trailing axes of length N."""
        return (self.eval, self.grad_x, self.hess_x)[order](x, t, xi, tau)


def make_kernel(coeffs: "OperatorCoefficients") -> Kernel:
    """Build the closed-form kernel for a constant-coefficient operator."""
    if not coeffs.is_constant:
        raise ValueError("closed-form kernel requires constant coefficients")
    zero = np.zeros(coeffs.dimension)
    a = np.asarray(coeffs.a(zero, 0.0), dtype=float)
    b = np.asarray(coeffs.b(zero, 0.0), dtype=float)
    c = float(coeffs.c(zero, 0.0))
    if a.shape != (coeffs.dimension, coeffs.dimension):
        raise ValueError("diffusion matrix has wrong shape")
    if not np.allclose(a, a.T, rtol=1e-12, atol=1e-12):
        raise ValueError("diffusion matrix must be symmetric")
    eigs = np.linalg.eigvalsh(a)
    if eigs.min() <= 0:
        raise ValueError("diffusion matrix must be positive definite")
    a_inv = np.linalg.inv(a)
    a_inv = 0.5 * (a_inv + a_inv.T)  # exactly symmetric, so hessians are too
    return Kernel(
        dim=coeffs.dimension,
        a=a,
        b=b,
        c=c,
        a_inv=a_inv,
        det_a=float(np.linalg.det(a)),
        mu0=float(eigs.min()),
        mu1=float(eigs.max()),
    )


@dataclass
class EstimateParams:
    """Decay and derivative-bound constants attached to a kernel.

    ``lambda0`` is the admissible decay rate, ``lambda0_star`` the (strictly
    smaller) rate used in the kernel envelopes, ``nu0 = (lambda0 -
    lambda0_star)/4``, ``c_gamma`` the envelope prefactor valid for derivative
    orders 0-2, and ``big_k``/``kappa`` the field derivative-bound constants.
    """

    dimension: int
    alpha: float
    lambda0: float
    lambda0_star: float
    nu0: float
    c_gamma: float | None = None
    big_k: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        if not (0.0 < self.lambda0_star < self.lambda0):
            raise ValueError("need 0 < lambda0_star < lambda0")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        expected_nu0 = (self.lambda0 - self.lambda0_star) / 4.0
        if abs(self.nu0 - expected_nu0) > 1e-12 * max(1.0, self.lambda0):
            raise ValueError("nu0 must equal (lambda0 - lambda0_star)/4")


def _direction_set(dim: int) -> np.ndarray:
    """Unit directions used when maximizing envelope ratios over orientations."""
    if dim == 1:
        return np.array([[1.0]])
    from .quadrature import sphere_rule

    if dim == 2:
        dirs, _ = sphere_rule(2, n_azimuth=256)
    else:
        dirs, _ = sphere_rule(3, n_polar=32, n_azimuth=64)
    axes = np.eye(dim)
    return np.vstack([dirs, axes])


def _envelope_peaks(kernel: Kernel, params: EstimateParams, dirs: np.ndarray,
                    t_max: float) -> np.ndarray:
    """Envelope prefactors of derivative orders 0, 1 and 2, each maximized
    over the unit directions ``dirs`` (M, N) in closed form; see
    ``gamma_estimate_Cgamma``."""
    if params.lambda0_star >= params.lambda0:
        raise ValueError("lambda0_star must be below lambda0")
    if np.any(kernel.b != 0.0):
        raise ValueError("envelope maximization requires zero drift")
    w_dirs = dirs @ kernel.a_inv                       # (M, N)
    q_dirs = np.einsum("ij,ij->i", w_dirs, dirs)       # <a^-1 eta, eta>
    beta = (q_dirs - params.lambda0_star) / 4.0
    if beta.min() <= 0:
        raise ValueError("lambda0_star too large for this diffusion matrix")
    pref = (4.0 * math.pi) ** (-kernel.dim / 2.0) / math.sqrt(kernel.det_a)
    c_factor = math.exp(max(kernel.c, 0.0) * t_max)

    # order 1: (|w|_inf / 2) z exp(-beta z^2) peaks at z^2 = 1 / (2 beta)
    peak1 = np.abs(w_dirs).max(axis=1) / 2.0 * np.sqrt(0.5 / beta) * math.exp(-0.5)

    # order 2: |A u - B| exp(-beta u) in u = z^2 per component (M, N, N);
    # its value at u = 0 is |B|, and its stationary point u* = 1/beta + B/A
    # gives |A|/beta exp(-beta u*) when it lies in u > 0
    big_a = w_dirs[:, :, None] * w_dirs[:, None, :] / 4.0
    big_b = kernel.a_inv / 2.0
    beta_b = beta[:, None, None]
    nonzero = big_a != 0.0
    u_star = 1.0 / beta_b + big_b / np.where(nonzero, big_a, 1.0)
    # masked before the exp, where u* < 0 would overflow it: u = inf gives 0
    u_star = np.where(nonzero & (u_star > 0.0), u_star, np.inf)
    stationary = np.abs(big_a) / beta_b * np.exp(-beta_b * u_star)
    peak2 = np.maximum(np.abs(big_b), stationary).max(axis=(1, 2))

    return pref * c_factor * np.array([1.0, peak1.max(), peak2.max()])


def gamma_estimate_Cgamma(kernel: Kernel, params: EstimateParams, order: int,
                          t_max: float = 1.0) -> float:
    """Smallest prefactor C such that the order-k derivative envelope

        |D^k G| <= C * s^(-(N+k)/2) * exp(-lambda0_star |x-xi|^2 / (4 s))

    holds along a fixed set of unit directions eta.  Requires a drift-free
    kernel, whose shape in the similarity variable z = |x-xi|/sqrt(s) is
    s-independent; a positive reaction rate contributes the exact factor
    exp(c * t_max).

    With x - xi = z sqrt(s) eta, w = a^-1 eta and beta = (<w, eta> -
    lambda0_star)/4 > 0, the ratio of |D^k G| to the envelope is
    (4 pi)^(-N/2) det(a)^(-1/2) times

        order 0:  exp(-beta z^2), largest at z = 0;
        order 1:  (|w|_inf / 2) z exp(-beta z^2), largest at z^2 = 1/(2 beta),
                  where it is (|w|_inf / 2) (2 beta)^(-1/2) e^(-1/2);
        order 2:  max over (i, j) of |A u - B| exp(-beta u), u = z^2,
                  A = w_i w_j / 4, B = (a^-1)_ij / 2.

    In the order-2 case the derivative (A - beta (A u - B)) exp(-beta u)
    vanishes only at u* = 1/beta + B/A, where |A u* - B| = |A|/beta, and
    |A u - B| exp(-beta u) tends to 0 as u grows, so the maximum over u >= 0
    is max(|B|, |A|/beta exp(-beta u*)), the second term counting only when
    A != 0 and u* > 0.  Every maximum is exact; C is the largest over the
    directions.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    peaks = _envelope_peaks(kernel, params, _direction_set(kernel.dim), t_max)
    return float(peaks[order])


def derivative_bound_constants(params: EstimateParams, growth: "GrowthSpec") -> tuple[float, float]:
    """Constants (K, kappa) of the field derivative bounds.

    K = pi^(N/2) C_gamma ell(alpha/2, nu0) / (lambda0/2 - 2 C T)^(N/2)
    kappa = C^2 T / (lambda0/4 - C T) + 2 C
    """
    if params.c_gamma is None:
        raise ValueError("params.c_gamma must be computed first")
    n, lam0, nu0 = params.dimension, params.lambda0, params.nu0
    c, horizon = growth.C, growth.T
    den_half = lam0 / 2.0 - 2.0 * c * horizon
    den_quarter = lam0 / 4.0 - c * horizon
    if den_half <= 0 or den_quarter <= 0:
        raise ValueError("growth constant too large: lambda0/4 - C*T must be positive")
    if c > 0 and nu0 >= den_quarter:
        raise ValueError("nu0 must stay below lambda0/4 - C*T, i.e. lambda0_star above 4*T*C")
    big_k = math.pi ** (n / 2.0) * params.c_gamma * ell(params.alpha / 2.0, nu0) / den_half ** (n / 2.0)
    kappa = c**2 * horizon / den_quarter + 2.0 * c
    return big_k, kappa


def default_estimate_params(kernel: Kernel, growth: "GrowthSpec", alpha: float,
                            lambda0: float | None = None,
                            lambda0_star: float | None = None) -> EstimateParams:
    """Assemble EstimateParams for a kernel: lambda0 defaults to mu0/mu1^2,
    lambda0_star to 0.9*lambda0; C_gamma is the worst envelope prefactor over
    derivative orders 0-2, and (K, kappa) are filled in."""
    lam0 = lambda0 if lambda0 is not None else lambda0_bound(kernel.mu0, kernel.mu1)
    if lam0 > lambda0_bound(kernel.mu0, kernel.mu1) * (1.0 + 1e-12):
        raise ValueError("lambda0 exceeds mu0/mu1^2")
    if lambda0_star is not None:
        lam_star = lambda0_star
    else:
        lam_star = 0.9 * lam0
        floor = 4.0 * growth.T * growth.C
        if floor >= lam0:
            raise ValueError("growth constant too large: 4*T*C must stay below lambda0")
        if lam_star <= floor:
            # keep the decay split admissible when C is near its pole
            lam_star = 0.5 * (floor + lam0)
    params = EstimateParams(
        dimension=kernel.dim,
        alpha=alpha,
        lambda0=lam0,
        lambda0_star=lam_star,
        nu0=(lam0 - lam_star) / 4.0,
    )
    params.c_gamma = float(
        _envelope_peaks(kernel, params, _direction_set(kernel.dim), growth.T).max())
    params.big_k, params.kappa = derivative_bound_constants(params, growth)
    return params
