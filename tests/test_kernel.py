"""Kernel helpers: scalar integrals, envelope constants, closed-form kernels."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from chemosim import quadrature
from chemosim.kernel import (
    EstimateParams,
    default_estimate_params,
    derivative_bound_constants,
    ell,
    gamma_estimate_Cgamma,
    gaussian_I0,
    gaussian_I1,
    lambda0_bound,
    make_kernel,
    sphere_area,
)
from chemosim.presets import coefficient_preset, inline_coefficients
from chemosim.quadrature import gauss_legendre, tensor_grid
from chemosim.scenario import GrowthSpec, OperatorCoefficients

from util import (
    build,
    dense_directions,
    direction_set,
    golden_cgamma,
    golden_section_max,
    loop_sphere_rule_3d,
    sampled_envelope_peaks,
)


# -- ell -------------------------------------------------------------------------


def test_ell_trivial_values():
    assert ell(1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert ell(2.0, 1.0) == pytest.approx(4.0 * math.exp(-2.0), abs=1e-15)


def test_ell_matches_golden_section_oracle():
    theta, nu = 0.25, 0.5
    _, peak = golden_section_max(lambda y: y**theta * math.exp(-nu * y), 0.0, 50.0)
    assert ell(theta, nu) == pytest.approx(peak, abs=1e-10)


def test_ell_dominates_random_samples():
    rng = np.random.default_rng(7)
    y = rng.uniform(0.0, 60.0, 10_000)
    for theta, nu in [(0.25, 0.025), (0.5, 1.0), (2.0, 0.3)]:
        vals = y**theta * np.exp(-nu * y)
        assert vals.max() <= ell(theta, nu) * (1.0 + 1e-12)


def test_ell_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        ell(0.0, 1.0)
    with pytest.raises(ValueError):
        ell(1.0, -0.5)


# -- sphere area and Gaussian integrals ----------------------------------------------


def test_sphere_area_known_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    with pytest.raises(ValueError):
        sphere_area(0)


def test_sphere_rule_3d_matches_loop_oracle():
    pts, wts = quadrature.sphere_rule(3)
    loop_pts, loop_wts = loop_sphere_rule_3d(8, 16)
    np.testing.assert_array_equal(pts, loop_pts)
    np.testing.assert_array_equal(wts, loop_wts)


def test_gaussian_I0_trivial():
    assert gaussian_I0(math.pi, 2) == pytest.approx(1.0)
    assert gaussian_I0(1.0, 1) == pytest.approx(math.sqrt(math.pi))


def test_gaussian_I0_matches_trapezoid_oracle():
    # tensor trapezoid quadrature on [-8, 8]^3 for gamma = 2
    x = np.linspace(-8.0, 8.0, 321)
    one_d = np.trapezoid(np.exp(-2.0 * x * x), x)
    assert gaussian_I0(2.0, 3) == pytest.approx(one_d**3, rel=1e-8)


def test_gaussian_I1_closed_forms():
    assert gaussian_I1(1.0, 1) == pytest.approx(1.0, rel=1e-12)
    assert gaussian_I1(1.0, 2) == pytest.approx(math.pi**1.5 / 2.0, rel=1e-12)
    for gamma in (0.5, 2.0, 4.0):
        # 1-D quadrature oracle on the smooth half-range: 2 * int_0^L y exp(-gamma y^2)
        y, w = gauss_legendre(0.0, 12.0 / math.sqrt(gamma), 400)
        oracle = 2.0 * float(w @ (y * np.exp(-gamma * y * y)))
        assert gaussian_I1(gamma, 1) == pytest.approx(oracle, rel=1e-9)
        assert gaussian_I1(gamma, 1) == pytest.approx(1.0 / gamma, rel=1e-12)


def test_gaussian_integrals_match_quadrature_over_gamma_range():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        for gamma in rng.uniform(0.1, 10.0, 4):
            half = 10.0 / math.sqrt(gamma)
            y, w = gauss_legendre(-half, half, 200)
            base = float(w @ np.exp(-gamma * y * y))
            assert gaussian_I0(gamma, dim) == pytest.approx(base**dim, rel=1e-6)
            # radial oracle for I1
            r, wr = gauss_legendre(0.0, half, 400)
            radial = float(wr @ (r**dim * np.exp(-gamma * r * r))) * sphere_area(dim)
            assert gaussian_I1(gamma, dim) == pytest.approx(radial, rel=1e-6)


def test_gaussian_integrals_reject_nonpositive_gamma():
    with pytest.raises(ValueError):
        gaussian_I0(0.0, 1)
    with pytest.raises(ValueError):
        gaussian_I1(-1.0, 2)


# -- lambda0 -------------------------------------------------------------------------


def test_lambda0_bound_values():
    assert lambda0_bound(1.0, 1.0) == pytest.approx(1.0)
    assert lambda0_bound(0.5, 2.0) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        lambda0_bound(2.0, 0.5)
    with pytest.raises(ValueError):
        lambda0_bound(0.0, 1.0)


def test_lambda0_bound_below_inverse_quadratic_form_on_random_spd():
    # for any SPD matrix, min over unit eta of <eta, A^-1 eta> = 1/mu1 >= mu0/mu1^2
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        m = rng.normal(size=(dim, dim))
        a = m @ m.T + 0.1 * np.eye(dim)
        eigs = np.linalg.eigvalsh(a)
        mu0, mu1 = float(eigs.min()), float(eigs.max())
        a_inv = np.linalg.inv(a)
        etas = rng.normal(size=(64, dim))
        etas /= np.linalg.norm(etas, axis=1, keepdims=True)
        quad_min = float(np.einsum("ki,ij,kj->k", etas, a_inv, etas).min())
        assert lambda0_bound(mu0, mu1) <= quad_min * (1.0 + 1e-9)


def test_lambda0_bound_diagonal_example():
    a = np.diag([0.5, 2.0])
    a_inv = np.linalg.inv(a)
    etas = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0] / np.sqrt(2.0)])
    quad = np.einsum("ki,ij,kj->k", etas, a_inv, etas)
    assert lambda0_bound(0.5, 2.0) == pytest.approx(0.125)
    assert quad.min() >= 0.125  # valid though not tight (min is 0.5)


# -- closed-form kernel ----------------------------------------------------------------


def test_heat_kernel_peak_value():
    kern = make_kernel(coefficient_preset("heat", 1))
    val = kern.eval(np.array([[0.0]]), 1.0, np.array([[0.0]]), 0.0)[0]
    assert val == pytest.approx((4.0 * math.pi) ** -0.5, rel=1e-14)


def test_kernel_mass_is_one_by_quadrature():
    kern = make_kernel(coefficient_preset("heat", 1))
    u, w = tensor_grid(-12.0, 12.0, 200, 1)
    x = np.array([0.4])
    t, tau = 0.8, 0.1
    s = t - tau
    xi = x[None, :] + math.sqrt(s) * u
    mass = s**0.5 * float(w @ kern.eval(x[None, :], t, xi, tau))
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_heat_kernel_symmetric_in_endpoints():
    kern = make_kernel(coefficient_preset("heat", 2))
    x = np.array([[0.3, -0.4]])
    xi = np.array([[-1.0, 0.2]])
    a = kern.eval(x, 0.9, xi, 0.2)[0]
    b = kern.eval(xi, 0.9, x, 0.2)[0]
    assert a == pytest.approx(b, rel=1e-14)


def test_kernel_semigroup_property_with_drift():
    kern = make_kernel(inline_coefficients([[1.0]], b=[1.5]))
    z, wz = gauss_legendre(-14.0, 14.0, 500)
    x, xi = np.array([0.3]), np.array([-0.2])
    t, mid, tau = 0.9, 0.5, 0.1
    g1 = kern.eval(x[None, :], t, z[:, None], mid)
    g2 = kern.eval(z[:, None], mid, xi[None, :], tau)
    composed = float(wz @ (g1 * g2))
    direct = float(kern.eval(x[None, :], t, xi[None, :], tau)[0])
    assert composed == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("label,b,c", [
    ("drift b", [math.nan], 0.0),
    ("drift b", [0.2, math.inf], 0.0),
    ("reaction rate c", [0.0], math.nan),
    ("reaction rate c", [0.0, 0.0], -math.inf),
])
def test_make_kernel_rejects_non_finite_drift_or_reaction_by_name(label, b, c):
    # coefficients built in Python skip the config's finiteness checks; a NaN c
    # used to fail later as "degenerate constants", a NaN b as "requires zero drift"
    dim = len(b)
    coeffs = OperatorCoefficients(dimension=dim, a=lambda x, t: np.eye(dim),
                                  b=lambda x, t: np.array(b), c=lambda x, t: c,
                                  is_constant=True, holder_exponent=0.5)
    with pytest.raises(ValueError, match=f"^{label} must be finite"):
        make_kernel(coeffs)


def test_kernel_reaction_rate_scales_mass_exactly():
    k0 = make_kernel(inline_coefficients([[1.0]]))
    kc = make_kernel(inline_coefficients([[1.0]], c=0.3))
    x, xi = np.array([[0.1]]), np.array([[0.0]])
    ratio = kc.eval(x, 0.7, xi, 0.2)[0] / k0.eval(x, 0.7, xi, 0.2)[0]
    assert ratio == pytest.approx(math.exp(0.3 * 0.5), rel=1e-14)


def test_kernel_gradient_and_hessian_match_finite_differences():
    kern = make_kernel(inline_coefficients([[1.0, 0.2], [0.2, 0.8]], b=[0.3, -0.1], c=0.1))
    x = np.array([0.4, -0.3])
    xi = np.array([-0.1, 0.5])
    t, tau = 0.7, 0.1
    grad = kern.grad_x(x[None, :], t, xi[None, :], tau)[0]
    hess = kern.hess_x(x[None, :], t, xi[None, :], tau)[0]
    step = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        fp = kern.eval((x + e)[None, :], t, xi[None, :], tau)[0]
        fm = kern.eval((x - e)[None, :], t, xi[None, :], tau)[0]
        assert grad[i] == pytest.approx((fp - fm) / (2 * step), rel=1e-7)
        gp = kern.grad_x((x + e)[None, :], t, xi[None, :], tau)[0]
        gm = kern.grad_x((x - e)[None, :], t, xi[None, :], tau)[0]
        np.testing.assert_allclose(hess[:, i], (gp - gm) / (2 * step), rtol=1e-6)
    np.testing.assert_array_equal(hess, hess.T)


_DRIFT_REACTION = {
    1: ([[0.7]], [0.4], 0.2),
    2: ([[1.0, 0.2], [0.2, 0.8]], [0.3, -0.1], 0.1),
    3: ([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.3]], [0.3, -0.1, 0.2], -0.3),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_derivatives_equal_the_per_order_calls_bit_for_bit(dim):
    kern = make_kernel(inline_coefficients(*_DRIFT_REACTION[dim]))
    rng = np.random.default_rng(dim)
    x = rng.uniform(-1.0, 1.0, (7, 1, dim))
    xi = rng.uniform(-1.0, 1.0, (7, 5, dim))
    t = rng.uniform(0.2, 1.0, (7, 1))
    tau = t * rng.uniform(0.0, 0.9, (7, 5))
    per_order = (kern.eval, kern.grad_x, kern.hess_x)
    for orders in [(0, 1, 2), (1, 2), (2, 0), (1,), (0,), (2,)]:
        got = kern.derivatives(orders, x, t, xi, tau)
        assert len(got) == len(orders)
        for order, values in zip(orders, got):
            want = per_order[order](x, t, xi, tau)
            assert values.shape == (7, 5) + (dim,) * order
            assert values.tobytes() == want.tobytes(), (orders, order)


def test_derivatives_take_one_kernel_core(monkeypatch):
    kern = make_kernel(inline_coefficients(*_DRIFT_REACTION[2]))
    calls = []
    core = type(kern)._core

    def counted(self, *args):
        calls.append(1)
        return core(self, *args)

    monkeypatch.setattr(type(kern), "_core", counted)
    kern.derivatives((0, 1, 2), np.zeros(2), 0.5, np.ones((4, 2)), 0.0)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="orders must be 0, 1 or 2"):
        kern.derivatives((1, 3), np.zeros(2), 0.5, np.ones((4, 2)), 0.0)


@pytest.mark.parametrize("times", [(math.nan, 0.0), (0.5, math.nan),
                                   (np.array([0.5, math.nan, 0.7]), 0.0),
                                   (0.9, np.array([0.1, math.nan])),
                                   (0.5, 0.5), (0.5, np.array([0.1, 0.6]))])
def test_kernel_rejects_a_nan_or_non_increasing_time_pair(times):
    kern = make_kernel(coefficient_preset("heat", 1, 0.5))
    t, tau = times
    calls = [lambda: kern.eval([0.1], t, [0.0], tau),
             lambda: kern.grad_x([0.1], t, [0.0], tau),
             lambda: kern.hess_x([0.1], t, [0.0], tau),
             lambda: kern.derivatives((0, 1, 2), [0.1], t, [0.0], tau),
             lambda: kern.derivatives((1,), [0.1], t, [0.0], tau)]
    for call in calls:
        with pytest.raises(ValueError, match="kernel requires tau < t"):
            call()


def test_drifted_kernel_matches_fd_evolution_oracle():
    """Pins the drift sign: evolve a point-like bump with the FD solver and
    compare against the closed form."""
    from chemosim.field import QuadratureSpec, solve_field_fd
    from chemosim.paths import AgentPath

    coeffs = inline_coefficients([[1.0]], b=[1.5])
    kern = make_kernel(coeffs)
    t_bump = 0.05

    def bump(x):
        x = np.asarray(x, dtype=float)
        return kern.eval(x, t_bump, np.zeros_like(x), 0.0)

    scn = build(coeff=coeffs, phi=(bump, 0.0, 0.0, 0.0), T=0.45)
    quad = QuadratureSpec(fd_h=0.02, fd_half_width=6.0)
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, 0.45, 5))
    fdf = solve_field_fd(scn, path, quad)
    xs = fdf.axes[0]
    exact = kern.eval(xs[:, None], t_bump + 0.45, np.zeros((len(xs), 1)), 0.0)
    l2 = np.sqrt(np.sum((fdf.values[-1] - exact) ** 2) / np.sum(exact**2))
    assert l2 < 1e-3
    # the opposite drift convention would displace the profile by ~1.35
    shifted = kern.eval(xs[:, None] + 2 * 1.5 * 0.45, t_bump + 0.45, np.zeros((len(xs), 1)), 0.0)
    l2_wrong = np.sqrt(np.sum((fdf.values[-1] - shifted) ** 2) / np.sum(shifted**2))
    assert l2_wrong > 0.5


def test_make_kernel_rejects_bad_coefficients():
    var = coefficient_preset("variable-sine", 1)
    with pytest.raises(ValueError):
        make_kernel(var)
    with pytest.raises(ValueError):
        make_kernel(inline_coefficients([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


# -- envelope constants -------------------------------------------------------------


@pytest.fixture(scope="module")
def heat_params():
    scn = build(phi="gaussian")
    return scn.kernel, scn.estimate_params


def test_gamma_estimate_order0_heat(heat_params):
    kern, params = heat_params
    c0 = gamma_estimate_Cgamma(kern, params, 0)
    assert c0 == pytest.approx((4.0 * math.pi) ** -0.5, rel=1e-6)


def test_gamma_estimate_order1_matches_scalar_maximization(heat_params):
    kern, params = heat_params
    lam_star = params.lambda0_star
    z_star = math.sqrt(2.0 / (1.0 - lam_star))
    analytic = (4.0 * math.pi) ** -0.5 * (z_star / 2.0) * math.exp(-(1.0 - lam_star) * z_star**2 / 4.0)
    c1 = gamma_estimate_Cgamma(kern, params, 1)
    assert c1 == pytest.approx(analytic, rel=1e-2)
    # independent numeric maximization over the similarity variable
    _, peak = golden_section_max(
        lambda z: (4.0 * math.pi) ** -0.5 * (z / 2.0) * math.exp(-(1.0 - lam_star) * z**2 / 4.0),
        0.0, 20.0)
    assert c1 == pytest.approx(peak, rel=1e-2)


def test_gamma_estimate_order2_regression(heat_params):
    kern, params = heat_params
    c2 = gamma_estimate_Cgamma(kern, params, 2)
    # frozen from the scalar maximization oracle
    assert c2 == pytest.approx(0.98715616469331, rel=1e-6)


def test_gamma_estimate_rejects_bad_inputs(heat_params):
    kern, params = heat_params
    with pytest.raises(ValueError):
        gamma_estimate_Cgamma(kern, params, 3)
    drift = make_kernel(inline_coefficients([[1.0]], b=[1.0]))
    with pytest.raises(ValueError):
        gamma_estimate_Cgamma(drift, params, 0)


def test_estimate_params_invariants():
    with pytest.raises(ValueError):
        EstimateParams(dimension=1, alpha=0.5, lambda0=1.0, lambda0_star=1.2, nu0=0.0)
    with pytest.raises(ValueError):
        EstimateParams(dimension=1, alpha=0.5, lambda0=1.0, lambda0_star=0.9, nu0=0.3)
    p = EstimateParams(dimension=1, alpha=0.5, lambda0=1.0, lambda0_star=0.9, nu0=0.025)
    assert p.nu0 == pytest.approx((p.lambda0 - p.lambda0_star) / 4.0)


def test_derivative_bound_constants_compose(heat_params):
    kern, params = heat_params
    growth = GrowthSpec(C=0.0, H=1.0, HR=lambda r: 0.0, M=0.0, T=1.0)
    big_k, kappa = derivative_bound_constants(params, growth)
    assert kappa == 0.0
    expected = math.pi**0.5 * params.c_gamma * ell(0.25, 0.025) / 0.5**0.5
    assert big_k == pytest.approx(expected, rel=1e-12)


def test_kappa_increases_toward_growth_pole(heat_params):
    kern, _ = heat_params
    kappas = []
    for c in (0.1, 0.2, 0.24):
        growth = GrowthSpec(C=c, H=1.0, HR=lambda r: 0.0, M=0.0, T=1.0)
        params_c = default_estimate_params(kern, growth, alpha=0.5)
        # the decay split stays admissible even near the pole
        assert params_c.lambda0_star > 4.0 * c
        _, kappa = derivative_bound_constants(params_c, growth)
        kappas.append(kappa)
    assert kappas[0] < kappas[1] < kappas[2]
    bad = GrowthSpec(C=0.3, H=1.0, HR=lambda r: 0.0, M=0.0, T=1.0)
    with pytest.raises(ValueError):
        default_estimate_params(kern, bad, alpha=0.5)
    # mismatched params (nu0 too large for this C) are rejected
    params_zero_c = default_estimate_params(
        kern, GrowthSpec(C=0.0, H=1.0, HR=lambda r: 0.0, M=0.0, T=1.0), alpha=0.5)
    with pytest.raises(ValueError, match="nu0"):
        derivative_bound_constants(
            params_zero_c, GrowthSpec(C=0.24, H=1.0, HR=lambda r: 0.0, M=0.0, T=1.0))


def test_default_estimate_params_defaults(heat_params):
    kern, params = heat_params
    assert params.lambda0 == pytest.approx(1.0)
    assert params.lambda0_star == pytest.approx(0.9)
    assert params.nu0 == pytest.approx(0.025)
    assert params.c_gamma >= gamma_estimate_Cgamma(kern, params, 0)


def test_default_estimate_params_rejects_large_lambda0():
    scn = build(phi="gaussian")
    growth = scn.growth
    with pytest.raises(ValueError):
        default_estimate_params(scn.kernel, growth, alpha=0.5, lambda0=1.5)


ENVELOPE_COEFFS = {
    "heat-1": lambda: coefficient_preset("heat", 1),
    "heat-2": lambda: coefficient_preset("heat", 2),
    "anisotropic-constant-2": lambda: coefficient_preset("anisotropic-constant", 2),
    "full-2-reaction": lambda: inline_coefficients([[1.0, 0.3], [0.3, 0.6]], c=0.3),
}
FULL_3D = [[1.0, 0.3, -0.2], [0.3, 0.7, 0.1], [-0.2, 0.1, 0.5]]


def _split_params(kern, ratio):
    lam0 = lambda0_bound(kern.mu0, kern.mu1)
    lam_star = ratio * lam0
    return EstimateParams(dimension=kern.dim, alpha=0.5, lambda0=lam0,
                          lambda0_star=lam_star, nu0=(lam0 - lam_star) / 4.0)


def _extremal_directions(kern, params, order):
    """Unit directions along which the envelope ratio of an order reaches its
    supremum over every offset: the axes for order 0 (it peaks at the
    origin), Q^-1 a^-1 e_i for order 1, and for order 2 the generalized
    eigenvectors of the extreme eigenvalues of each rank-two form
    (p_i p_j^T + p_j p_i^T) / 2 against Q, with p_i = a^-1 e_i and
    Q = a^-1 - lambda0_star I."""
    q = kern.a_inv - params.lambda0_star * np.eye(kern.dim)
    if order == 0:
        dirs = np.eye(kern.dim)
    elif order == 1:
        dirs = np.linalg.solve(q, kern.a_inv).T
    else:
        dirs = []
        for i, j in itertools.combinations_with_replacement(range(kern.dim), 2):
            p_i, p_j = kern.a_inv[i], kern.a_inv[j]
            form = (np.outer(p_i, p_j) + np.outer(p_j, p_i)) / 2.0
            _, vecs = scipy.linalg.eigh(form, q)
            dirs += [vecs[:, 0], vecs[:, -1]]
        dirs = np.array(dirs)
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def _check_against_golden_search(kern, params, old_dirs):
    # the closed form bounds the search over the directions C_gamma was once
    # sampled on, and equals the search along its own extremal directions
    for order in (0, 1, 2):
        exact = gamma_estimate_Cgamma(kern, params, order, t_max=0.7)
        sampled = golden_cgamma(kern, params, order, t_max=0.7, dirs=old_dirs)
        assert exact >= sampled * (1.0 - 4.0 * np.finfo(float).eps)
        extremal = golden_cgamma(kern, params, order, t_max=0.7,
                                 dirs=_extremal_directions(kern, params, order))
        assert exact == pytest.approx(extremal, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ratio", [0.1, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("case", sorted(ENVELOPE_COEFFS))
def test_gamma_estimate_matches_golden_search_oracle(case, ratio):
    kern = make_kernel(ENVELOPE_COEFFS[case]())
    params = _split_params(kern, ratio)
    if np.any(kern.a != np.diag(np.diagonal(kern.a))):
        _check_against_golden_search(kern, params, direction_set(kern.dim))
        return
    # a diagonal a peaks along the axes, which the direction set holds
    for order in (0, 1, 2):
        exact = gamma_estimate_Cgamma(kern, params, order, t_max=0.7)
        searched = golden_cgamma(kern, params, order, t_max=0.7)
        assert exact == pytest.approx(searched, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9])
def test_envelope_peaks_match_golden_search_oracle_3d(ratio):
    kern = make_kernel(inline_coefficients(FULL_3D, c=0.3))
    params = _split_params(kern, ratio)
    _check_against_golden_search(kern, params, direction_set(3)[::32])  # 65 directions


def _rotated_diffusions(dim, count, seed):
    # symmetric positive definite, eigenvalues in [e^-1.5, e^1.5], random axes
    rng = np.random.default_rng(seed)
    for _ in range(count):
        axes, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a = (axes * np.exp(rng.uniform(-1.5, 1.5, dim))) @ axes.T
        yield 0.5 * (a + a.T)


@pytest.mark.parametrize("dim, count, slack", [(2, 100_000, 1e-8), (3, 60_000, 1e-4)])
def test_closed_form_envelope_bounds_a_dense_direction_sample(dim, count, slack):
    # the supremum over every direction is never below a dense sample of them
    # (4 ulps of rounding aside) and above it by no more than the sample's gap
    dirs = dense_directions(dim, count)
    for a in _rotated_diffusions(dim, 20, seed=dim):
        kern = make_kernel(inline_coefficients(a, c=0.3))
        for ratio in (0.9, 0.2):
            params = _split_params(kern, ratio)
            exact = np.array([gamma_estimate_Cgamma(kern, params, order, t_max=0.7)
                              for order in (0, 1, 2)])
            sampled = sampled_envelope_peaks(kern, params, dirs, t_max=0.7)
            assert (exact >= sampled * (1.0 - 4.0 * np.finfo(float).eps)).all()
            assert (exact <= sampled * (1.0 + slack)).all()


def test_lambda0_star_beyond_every_direction_raises():
    # a's largest eigenvalue 4 lies along an axis halfway between two of the
    # 256 directions, so the smallest <a^-1 eta, eta> over them is above
    # 1/4, its minimum over every direction; a lambda0_star between the two
    # leaves a^-1 - lambda0_star I indefinite, and no envelope holds
    turn = np.pi / 256
    axes = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    a = (axes * np.array([4.0, 1.0])) @ axes.T
    kern = make_kernel(inline_coefficients(0.5 * (a + a.T)))
    dirs = direction_set(2)
    sampled_min = np.einsum("ij,ij->i", dirs @ kern.a_inv, dirs).min()
    lam_star = 0.5 * (sampled_min + 1.0 / kern.mu1)
    assert 1.0 / kern.mu1 < lam_star < sampled_min
    params = EstimateParams(dimension=2, alpha=0.5, lambda0=2.0 * lam_star,
                            lambda0_star=lam_star, nu0=lam_star / 4.0)
    for order in (0, 1, 2):
        with pytest.raises(ValueError, match="lambda0_star too large"):
            gamma_estimate_Cgamma(kern, params, order)


def test_gamma_estimate_full_3d_raises_no_warning():
    # components with r* < 0 would overflow exp unless masked first
    kern = make_kernel(inline_coefficients(FULL_3D, c=0.3))
    growth = GrowthSpec(C=0.0, H=1.0, HR=lambda r: 0.0, M=0.0, T=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ratio in (0.1, 0.5, 0.9):
            params = default_estimate_params(
                kern, growth, alpha=0.5,
                lambda0_star=ratio * lambda0_bound(kern.mu0, kern.mu1))
            assert math.isfinite(params.c_gamma) and params.c_gamma > 0.0
