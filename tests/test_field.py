"""Field evaluation: closed-form quadrature, FD fallback, ball averages."""

import dataclasses
import math

import numpy as np
import pytest

from chemosim import field
from chemosim.field import (
    BACKEND_FD,
    BACKEND_KERNEL,
    FieldProbe,
    FieldTable,
    QuadratureSpec,
    _cached_sphere_rule,
    solve_field_fd,
)
from chemosim.paths import AgentPath
from chemosim.presets import GaussianSource, inline_coefficients, phi_preset
from chemosim.quadrature import gauss_legendre, sphere_rule
from chemosim.scenario import OperatorCoefficients

from util import (
    ball_average_rule,
    build,
    gaussian_evolution,
    heat_gaussian_field,
    heat_gaussian_grad,
    heat_gaussian_hess,
    loop_closed_form,
    loop_fd_hessian,
    loop_fd_step,
    loop_gradient,
    per_item_derivatives,
    volume_ball_average,
)


def constant_path(scn, t_end=1.0, nodes=5):
    return AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, t_end, nodes))


@pytest.fixture(scope="module")
def gauss1():
    scn = build(phi="gaussian")
    return scn, FieldProbe(scn, constant_path(scn))


@pytest.fixture(scope="module")
def secretion1():
    scn = build(phi="gaussian", g="agent-secretion", X0=[[0.2]])
    return scn, FieldProbe(scn, constant_path(scn))


# -- closed-form values ------------------------------------------------------------


def test_eval_f_gaussian_oracle(gauss1):
    _, probe = gauss1
    assert probe.value(np.array([0.0]), 1.0) == pytest.approx(5.0**-0.5, rel=1e-6)


def test_eval_f_constant_source():
    scn = build(phi="zero", g="constant", g_kwargs={"value": 2.0}, T=0.5)
    probe = FieldProbe(scn, constant_path(scn, 0.5))
    for x in (-1.0, 0.0, 2.0):
        assert probe.value(np.array([x]), 0.5) == pytest.approx(-1.0, abs=1e-6)


def test_linear_data_preserved_by_the_flow():
    linear = (lambda x: np.asarray(x)[..., 0], 1.0, 0.0, 1.0)
    scn = build(phi=linear)
    probe = FieldProbe(scn, constant_path(scn))
    for x, t in [(-0.7, 0.3), (0.4, 1.0)]:
        assert probe.value(np.array([x]), t) == pytest.approx(x, abs=1e-5)
        assert probe.gradient(np.array([x]), t)[0] == pytest.approx(1.0, abs=1e-5)
        assert abs(probe.hessian(np.array([x]), t)[0, 0]) < 1e-4


def test_values_at_time_zero_are_new_arrays():
    # this phi returns a view of its points; a call whose points are all at
    # t = 0 still hands back its own array, as a mixed call does
    linear = (lambda x: np.asarray(x)[..., 0], 1.0, 0.0, 1.0)
    scn = build(phi=linear)
    probe = FieldProbe(scn, constant_path(scn))
    pts = np.array([[-0.7], [0.4]])
    for t in (0.0, np.array([0.0, 0.5])):
        vals = probe.value_many(pts, t)
        assert vals.dtype == np.float64 and not np.shares_memory(vals, pts)
        assert vals[0] == -0.7


def test_grad_f_gaussian_oracle(gauss1):
    _, probe = gauss1
    expected = -(2.0 ** -0.5) * math.exp(-0.5)
    assert probe.gradient(np.array([1.0]), 0.25)[0] == pytest.approx(expected, rel=1e-6)


def test_hessian_f_gaussian_oracle(gauss1):
    _, probe = gauss1
    assert probe.hessian(np.array([0.0]), 0.25)[0, 0] == pytest.approx(-(2.0 ** -0.5), rel=1e-6)


def test_field_matches_closed_form_everywhere(gauss1):
    _, probe = gauss1
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.uniform(-2, 2, 1)
        t = rng.uniform(0.05, 1.0)
        assert probe.value(x, t) == pytest.approx(heat_gaussian_field(x, t, 1), rel=1e-6)
        np.testing.assert_allclose(probe.gradient(x, t), heat_gaussian_grad(x, t, 1),
                                   rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(probe.hessian(x, t), heat_gaussian_hess(x, t, 1),
                                   rtol=1e-4, atol=1e-7)


def test_gradient_matches_finite_differences_of_value(secretion1):
    _, probe = secretion1
    step = 1e-4
    for x, t in [(np.array([0.3]), 0.4), (np.array([-1.1]), 0.9)]:
        fd = (probe.value(x + step, t) - probe.value(x - step, t)) / (2 * step)
        assert abs(probe.gradient(x, t)[0] - fd) < 1e-5


def test_hessian_is_exactly_symmetric():
    scn = build(coeff="anisotropic-constant", phi="gaussian", g="agent-secretion", dim=2,
                X0=[[0.1], [0.0]])
    probe = FieldProbe(scn, constant_path(scn))
    h = probe.hessian(np.array([0.4, -0.2]), 0.5)
    np.testing.assert_array_equal(h, h.T)


def test_value_at_zero_is_initial_datum(gauss1):
    _, probe = gauss1
    x = np.array([0.7])
    assert probe.value(x, 0.0) == pytest.approx(math.exp(-0.49))
    assert probe.gradient(x, 0.0)[0] == pytest.approx(-2 * 0.7 * math.exp(-0.49), rel=1e-6)


def test_source_superposition():
    # field(g1 + g2, phi) = field(g1, phi) + field(g2, 0)
    from chemosim.presets import g_preset

    g1, hr1, _, m1 = g_preset("constant", 1, value=1.0)
    g2, hr2, _, m2 = g_preset("agent-secretion", 1)

    def g_sum(x, X):
        return g1(x, X) + g2(x, X)

    scn_sum = build(phi="gaussian", g=(g_sum, lambda r: 1.0 + hr2(r), 0.0, m1 + m2))
    scn_1 = build(phi="gaussian", g="constant", g_kwargs={"value": 1.0})
    scn_2 = build(phi="zero", g="agent-secretion")
    p_sum = FieldProbe(scn_sum, constant_path(scn_sum))
    p_1 = FieldProbe(scn_1, constant_path(scn_1))
    p_2 = FieldProbe(scn_2, constant_path(scn_2))
    for x, t in [(np.array([0.0]), 0.5), (np.array([0.8]), 1.0)]:
        assert p_sum.value(x, t) == pytest.approx(p_1.value(x, t) + p_2.value(x, t), abs=1e-8)


def test_time_domain_errors(gauss1):
    _, probe = gauss1
    with pytest.raises(ValueError):
        probe.value(np.array([0.0]), -0.2)
    with pytest.raises(ValueError):
        probe.value(np.array([0.0]), 1.5)


def test_backend_requires_constant_coefficients():
    scn = build(coeff="variable-sine", phi="gaussian")
    with pytest.raises(ValueError, match="constant coefficients"):
        FieldProbe(scn, constant_path(scn), backend=BACKEND_KERNEL)
    assert FieldProbe(scn, constant_path(scn)).backend == BACKEND_FD


def test_quadrature_spec_validation():
    with pytest.raises(ValueError, match="u_max"):
        QuadratureSpec(u_max=4.0)
    bad = {
        "u_max": (math.nan, math.inf, -math.inf, "8"),
        "space_nodes": (0, -3, 12.0, math.nan, True),
        "time_nodes": (0, -1, 32.5, math.nan, None),
        "fd_half_width": (0.0, -6.0, math.nan, math.inf, None),
        "fd_h": (0.0, -0.02, math.nan, math.inf),
        "fd_dt": (0.0, -1e-3, math.nan, math.inf),
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                QuadratureSpec(**{name: value})
    QuadratureSpec(u_max=6, space_nodes=np.int64(12), time_nodes=4, fd_h=0.1, fd_dt=None)
    # the options are gone
    for gone in ("interpolation_order", "fd_store_max", "fd_tail_tol", "ball_radial_nodes",
                 "ball_polar_nodes", "ball_azimuth_nodes"):
        with pytest.raises(TypeError):
            QuadratureSpec(**{gone: 1})


# -- ball averages ------------------------------------------------------------------


def test_ball_average_of_linear_field_equals_gradient():
    linear = (lambda x: np.asarray(x)[..., 0], 1.0, 0.0, 1.0)
    scn = build(phi=linear)
    probe = FieldProbe(scn, constant_path(scn))
    avg = probe.ball_average_gradient(np.array([0.3]), 0.5, 0.2)
    grad = probe.gradient(np.array([0.3]), 0.5)
    assert avg[0] == pytest.approx(grad[0], abs=1e-9)


def test_ball_average_cubic_synthetic_field():
    # average of the derivative 3 xi^2 over [x - d, x + d] at x = 0 is d^2
    offsets, wts = ball_average_rule(1, 0.1)
    avg = float((wts * 3.0 * offsets[:, 0] ** 2).sum())
    assert avg == pytest.approx(0.01, rel=1e-12)


def test_ball_average_richardson_order(gauss1):
    _, probe = gauss1
    x = np.array([0.7])
    grad = probe.gradient(x, 0.5)
    errs = []
    for d in (0.2, 0.1, 0.05):
        errs.append(abs(probe.ball_average_gradient(x, 0.5, d)[0] - grad[0]))
    orders = [math.log(errs[i] / errs[i + 1], 2.0) for i in range(2)]
    assert min(orders) >= 1.8
    with pytest.raises(ValueError):
        probe.ball_average_gradient(x, 0.5, -0.1)


def test_ball_average_2d():
    scn = build(phi="gaussian", dim=2)
    probe = FieldProbe(scn, constant_path(scn))
    x = np.array([0.5, -0.3])
    g = probe.gradient(x, 0.5)
    avg = probe.ball_average_gradient(x, 0.5, 0.05)
    np.testing.assert_allclose(avg, g, atol=2e-3)


BALL_CENTRES = np.array([[0.3, -0.2, 0.1], [-0.7, 0.5, 0.4]])


@pytest.mark.parametrize("coeff", ["heat", "anisotropic-constant"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_average_divergence_form_matches_the_exact_field(coeff, dim):
    # the volume rule on the exact gradient of the evolving exp(-|x|^2) is
    # the reference; with phi declared the sphere rule reads exact values
    pts = BALL_CENTRES[:, :dim]
    declared = build(coeff=coeff, phi=declared_gaussian_phi(), dim=dim)
    plain = build(coeff=coeff, phi="gaussian", dim=dim)
    a = declared.kernel.a
    closed = FieldProbe(declared, constant_path(declared))
    quadrature = FieldProbe(plain, constant_path(plain))
    for delta in (0.1, 0.5):
        for t in (0.0, 0.05, 0.5, 1.0):
            exact = volume_ball_average(lambda p, tt: gaussian_evolution(a, p, tt)[1], pts, t, delta)
            np.testing.assert_allclose(closed.ball_average_gradient(pts, t, delta), exact,
                                       rtol=0.0, atol=1e-14, err_msg=f"delta {delta}, t {t}")
            if dim == 3:
                continue  # the 24-node rule's value error, read through N / delta
            # undeclared phi: the only error is the spatial rule's value error
            # on the sphere, read through N / delta ...
            new = np.abs(quadrature.ball_average_gradient(pts, t, delta) - exact)
            sphere = (pts[:, None, :] + delta * sphere_rule(dim)[0]).reshape(-1, dim)
            value_err = np.abs(quadrature.value_many(sphere, t)
                               - gaussian_evolution(a, sphere, t)[0]).reshape(len(pts), -1)
            assert np.all(new <= dim / delta * value_err.max(axis=1)[:, None] + 1e-14)
            # ... and the form is no less accurate than the volume rule on
            # quadrature gradients, except for anisotropic a at t = 1, where
            # that value error is 5 to 8 times the old error (3.3e-7 against
            # 4.1e-8 at delta 0.1); declaring phi removes it
            if (coeff, dim, t) != ("anisotropic-constant", 2, 1.0):
                old = np.abs(volume_ball_average(quadrature.gradient_many, pts, t, delta) - exact)
                assert np.all(new <= old + 1e-10), (delta, t, new.max(), old.max())


@pytest.mark.parametrize("coeff", ["heat", "variable-sine"])
@pytest.mark.parametrize("dim", [1, 2])
def test_ball_average_divergence_form_on_the_fd_backend(coeff, dim):
    # FD values are linear in space between grid nodes: the sphere rule on
    # them against the volume rule on FD gradients, within criterion 04's 5e-3
    scn = build(coeff=coeff, phi="gaussian", dim=dim, T=0.1)
    probe = FieldProbe(scn, constant_path(scn, 0.1), backend=BACKEND_FD)
    pts = BALL_CENTRES[:, :dim]
    for delta in (0.1, 0.5):
        for t in (0.05, 0.1):
            want = volume_ball_average(probe.gradient_many, pts, t, delta)
            np.testing.assert_allclose(probe.ball_average_gradient(pts, t, delta), want,
                                       rtol=0.0, atol=5e-3, err_msg=f"delta {delta}, t {t}")


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_average_batch_equals_per_point_calls(dim):
    scn = build(phi="gaussian", g="agent-secretion", dim=dim,
                X0=np.array([[0.2, -0.3], [0.1, 0.05], [0.0, 0.1]])[:dim], T=0.2)
    probe = FieldProbe(scn, moving_path(scn))
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1.0, 1.0, (5, dim))
    times = rng.uniform(0.01, 0.2, 5)
    times[[1, 3]] = 0.0  # initial-datum points mixed in
    batch = probe.ball_average_gradient(pts, times, 0.1)
    single = np.stack([probe.ball_average_gradient(x, t, 0.1) for x, t in zip(pts, times)])
    assert batch.shape == (5, dim)
    np.testing.assert_array_equal(batch, single)


def node_major_ball_average(probe, pts, t, delta):
    """The ball average with its sphere points tiled node-major, (node,
    centre): the layout the centre-major pass must equal byte for byte."""
    offsets, wts = _cached_sphere_rule(probe.scenario.dimension, delta)
    t = np.broadcast_to(t, (len(pts),))
    vals = probe.value_many((offsets[:, None, :] + pts).reshape(-1, pts.shape[1]),
                            np.tile(t, len(offsets))).reshape(len(offsets), len(pts))
    return (vals[:, :, None] * wts[:, None, :]).sum(axis=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_average_sorted_times_sort_nothing(dim, monkeypatch):
    scn = build(phi="gaussian", g="agent-secretion", dim=dim,
                X0=np.array([[0.2, -0.3], [0.1, 0.05], [0.0, 0.1]])[:dim], T=0.2)
    probe = FieldProbe(scn, moving_path(scn))
    rng = np.random.default_rng(37)
    pts = rng.uniform(-1.0, 1.0, (4, dim))
    times = np.array([0.0, 0.05, 0.05, 0.2])  # in order, t = 0 and a tie included
    checks = []
    check_times = field._check_times

    def recorded(t, n_points, horizon):
        checks.append(n_points)
        return check_times(t, n_points, horizon)

    def checked_once(*args):
        checks.clear()
        out = probe.ball_average_gradient(*args)
        assert checks == [len(pts) * k]  # one check of every sphere point's time
        return out

    monkeypatch.setattr(field, "_check_times", recorded)
    k = len(field._cached_sphere_rule(dim, 0.1)[0])
    want = node_major_ball_average(probe, pts, times, 0.1)
    assert checked_once(pts, times, 0.1).tobytes() == want.tobytes()
    # out of order, every centre's sphere points still take its time
    shuffled = [2, 0, 3, 1]
    assert checked_once(pts[shuffled], times[shuffled], 0.1).tobytes() == \
        want[shuffled].tobytes()
    assert checked_once(pts, 0.05, 0.1).tobytes() == \
        node_major_ball_average(probe, pts, 0.05, 0.1).tobytes()


# -- finite-difference backend ---------------------------------------------------------


def test_fd_matches_closed_form_heat_gaussian():
    scn = build(phi="gaussian", T=0.5)
    fdf = solve_field_fd(scn, constant_path(scn, 0.5))
    xs = np.linspace(-1.5, 1.5, 21)
    worst = 0.0
    for x in xs:
        exact = heat_gaussian_field(np.array([x]), 0.5, 1)
        worst = max(worst, abs(fdf.value(np.array([x]), 0.5) - exact) / exact)
    assert worst < 1e-3


def test_fd_constant_source_uniform_interior():
    scn = build(phi="zero", g="constant", g_kwargs={"value": 2.0}, T=0.5)
    fdf = solve_field_fd(scn, constant_path(scn, 0.5))
    for x in (-2.0, 0.0, 1.5):
        for t in (0.25, 0.5):
            assert fdf.value(np.array([x]), t) == pytest.approx(-2.0 * t, abs=5e-3)


def test_fd_variable_sine_maximum_principle():
    scn = build(coeff="variable-sine", phi="gaussian", T=0.5)
    fdf = solve_field_fd(scn, constant_path(scn, 0.5))
    assert fdf.values.min() >= -1e-9
    assert fdf.values.max() <= 1.0 + 1e-9


def test_fd_time_dependent_coefficients_match_exact_solution():
    # a(t) = (1 + 0.5 sin^2(2 pi t / T)) I spreads the Gaussian datum like the
    # heat flow at time A = integral_0^T a = 1.25 T, so f(0, T) = (1 + 4A)^(-1/2)
    T = 0.5

    def a_fn(x, t):
        return (1.0 + 0.5 * math.sin(2.0 * math.pi * t / T) ** 2) * np.eye(1)

    coeffs = OperatorCoefficients(dimension=1, a=a_fn, b=lambda x, t: np.zeros(1),
                                  c=lambda x, t: 0.0, is_constant=False, holder_exponent=0.5,
                                  mu0=1.0, mu1=1.5)
    scn = build(coeff=coeffs, phi="gaussian", T=T)
    path = constant_path(scn, T)
    # the default step is stable for a(0) = 1 but not for the peak a = 1.5
    with pytest.raises(ValueError, match="stability"):
        solve_field_fd(scn, path)
    h = QuadratureSpec().resolved_fd_h(1)
    fdf = solve_field_fd(scn, path, QuadratureSpec(fd_dt=0.9 * h * h / (2.0 * 1.5)))
    exact = (1.0 + 4.0 * 1.25 * T) ** -0.5
    assert fdf.value(np.array([0.0]), T) == pytest.approx(exact, rel=5e-3)


def test_variable_sine_fd_field_follows_the_space_dependent_coefficient():
    # a(x) = 1 + 0.5 sin(x_0) must vary over the FD grid, not collapse to its
    # value 1 + 0.5 sin(-6) at the first grid point
    scn = build(coeff="variable-sine", phi="gaussian", T=0.5)
    frozen = build(coeff=inline_coefficients([[1.0 + 0.5 * math.sin(-6.0)]]), phi="gaussian", T=0.5)
    x = np.array([0.5])
    var = FieldProbe(scn, constant_path(scn, 0.5)).value(x, 0.2)
    const = FieldProbe(frozen, constant_path(frozen, 0.5), backend=BACKEND_FD).value(x, 0.2)
    assert abs(var - const) > 1e-3


def test_variable_sine_fd_field_in_two_dimensions():
    scn = build(coeff="variable-sine", phi="gaussian", dim=2, T=0.1)
    val = FieldProbe(scn, constant_path(scn, 0.1)).value(np.array([0.5, 0.2]), 0.1)
    assert np.isfinite(val)


@pytest.mark.parametrize("which", ["a", "b"])
def test_fd_rejects_misshapen_coefficient(which):
    # right at a single point, but one row of per-point values instead of a
    # matrix (or vector) per point on a grid
    def bad(x, t):
        x = np.asarray(x)
        return np.ones((1,) + x.shape[:-1]) if x.ndim > 1 else good_shape[which]

    good_shape = {"a": np.eye(1), "b": np.zeros(1)}
    good = {"a": lambda x, t: good_shape["a"], "b": lambda x, t: good_shape["b"]}
    good[which] = bad
    coeffs = OperatorCoefficients(dimension=1, a=good["a"], b=good["b"], c=lambda x, t: 0.0,
                                  is_constant=False, holder_exponent=0.5, mu0=1.0, mu1=1.0)
    scn = build(coeff=coeffs, phi="gaussian", T=0.5)
    with pytest.raises(ValueError, match=rf"coefficient {which} .*shape \(1, 601\)"):
        solve_field_fd(scn, constant_path(scn, 0.5))


def test_fd_stability_guard():
    scn = build(phi="gaussian", T=0.5)
    quad = QuadratureSpec(fd_h=0.1, fd_dt=0.1)  # far above h^2/2
    with pytest.raises(ValueError, match="stability"):
        solve_field_fd(scn, constant_path(scn, 0.5), quad)


def test_fd_box_too_small_guard():
    scn = build(phi="abs-sqrt", T=0.5)  # |x|^(1/2) is large on the boundary
    with pytest.raises(ValueError, match="box too small"):
        solve_field_fd(scn, constant_path(scn, 0.5))


def test_fd_steps_equal_the_per_cell_stencil_oracle():
    # a rotated a, a drift and a reaction on a 17 x 17 box, every step
    # stored: each stored frame is one step of the documented stencil from
    # the frame before it, bit for bit
    coeffs = inline_coefficients([[1.0, 0.3], [0.3, 0.6]], [0.2, -0.1], -0.1)
    scn = build(coeff=coeffs, phi="gaussian", g="agent-secretion", dim=2, T=0.2,
                X0=[[0.2, -0.3], [0.1, 0.05]])
    path = moving_path(scn)
    fdf = solve_field_fd(scn, path, QuadratureSpec(fd_h=0.5, fd_half_width=4.0))
    assert fdf.values.shape[1:] == (17, 17) and len(fdf.times) >= 4
    dt = fdf.times[1]
    assert np.array_equal(fdf.times, np.arange(len(fdf.times)) * dt)
    for k, t in enumerate(fdf.times[:-1]):
        step = loop_fd_step(scn, fdf.axes, fdf.h, fdf.values[k], t, dt, path.positions_at(t))
        assert step.tobytes() == fdf.values[k + 1].tobytes()


@pytest.mark.parametrize("coeff,dim", [("heat", 1), ("heat", 2), ("anisotropic-constant", 2)])
def test_backend_cross_validation(coeff, dim):
    scn = build(coeff=coeff, phi="gaussian", dim=dim, T=0.5)
    path = constant_path(scn, 0.5)
    closed = FieldProbe(scn, path)
    fd = FieldProbe(scn, path, backend=BACKEND_FD)
    axes = [np.linspace(-1.5, 1.5, 7)] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    for t in (0.25, 0.5):
        fc = closed.value_many(pts, t)
        ff = fd.value_many(pts, t)
        assert np.abs(fc - ff).max() / np.abs(fc).max() < 5e-3
        gc = closed.gradient_many(pts, t)
        gf = fd.gradient_many(pts, t)
        assert np.abs(gc - gf).max() / np.abs(gc).max() < 5e-3


# -- batched evaluation -------------------------------------------------------------------


def moving_path(scn, t_end=0.2, nodes=9):
    times = np.linspace(0.0, t_end, nodes)
    X = scn.X0 + 0.3 * np.sin(7.0 * times)[:, None, None]
    return AgentPath(times, X, np.zeros_like(X))


@pytest.mark.parametrize("backend", ["closed-form-kernel", BACKEND_FD])
def test_gradient_many_per_point_times_match_scalar_calls(backend):
    scn = build(phi="gaussian", g="agent-secretion", X0=[[0.2, -0.3]], T=0.2)
    probe = FieldProbe(scn, moving_path(scn), backend=backend)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (9, 1))
    times = np.array([0.0, 0.05, 0.2, 0.0, 0.013, 0.05, 0.11, 0.0, 0.17])
    batched = probe.gradient_many(pts, times)
    single = np.stack([probe.gradient(x, t) for x, t in zip(pts, times)])
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-14)
    values = np.array([probe.value(x, t) for x, t in zip(pts, times)])
    np.testing.assert_allclose(probe.value_many(pts, times), values, rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError):
        probe.gradient_many(pts, times[:3])
    for bad in (np.where(times > 0.1, 0.3, times), np.where(times > 0.1, np.nan, times)):
        with pytest.raises(ValueError):
            probe.gradient_many(pts, bad)


@pytest.mark.parametrize("backend", ["closed-form-kernel", BACKEND_FD])
def test_hessian_many_per_point_times_match_scalar_calls(backend):
    scn = build(phi="gaussian", g="agent-secretion", X0=[[0.2, -0.3]], T=0.2)
    probe = FieldProbe(scn, moving_path(scn), backend=backend)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 1.0, (7, 1))
    times = np.array([0.05, 0.0, 0.2, 0.013, 0.05, 0.11, 0.17])
    batched = probe.hessian_many(pts, times)
    assert batched.shape == (7, 1, 1)
    single = np.stack([probe.hessian(x, t) for x, t in zip(pts, times)])
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-14)
    assert probe.hessian_many(np.empty((0, 1)), np.empty(0)).shape == (0, 1, 1)


def test_fd_hessian_many_matches_per_point_differences():
    scn = build(phi="gaussian", g="agent-secretion", dim=2,
                X0=[[0.2, -0.3], [0.1, 0.4]], T=0.2)
    fdf = solve_field_fd(scn, moving_path(scn), QuadratureSpec(fd_h=0.25, fd_half_width=4.0))
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.0, 1.0, (6, 2))
    times = np.array([0.0, 0.03, 0.2, 0.11, 0.07, 0.0])
    batched = fdf.hessian_many(pts, times)
    for x, t, got in zip(pts, times, batched):
        cols = [(fdf.gradient_many(x + e, t) - fdf.gradient_many(x - e, t))[0] / (2.0 * fdf.h)
                for e in fdf.h * np.eye(2)]
        want = np.stack(cols, axis=1)
        np.testing.assert_array_equal(got, 0.5 * (want + want.T))


@pytest.mark.parametrize("coeff, dim", [
    ("variable-sine", 1),
    (inline_coefficients([[1.0, 0.3], [0.3, 0.6]], [0.2, -0.1], -0.1), 2),
], ids=["variable-sine-1d", "rotated-drift-reaction-2d"])
def test_fd_hessian_many_equals_the_per_axis_loop(coeff, dim):
    scn = build(coeff=coeff, phi="gaussian", g="agent-secretion", dim=dim, T=0.2,
                X0=[[0.2, -0.3], [0.1, 0.05]][:dim])
    fdf = solve_field_fd(scn, moving_path(scn), QuadratureSpec(fd_h=0.2, fd_half_width=4.0))
    rng = np.random.default_rng(14)
    pts = rng.uniform(-1.0, 1.0, (8, dim))
    for t in (0.13, rng.uniform(0.0, 0.2, 8)):
        assert fdf.hessian_many(pts, t).tobytes() == loop_fd_hessian(fdf, pts, t).tobytes()


def test_derivatives_at_time_zero_are_those_of_the_initial_datum():
    scn = build(phi="gaussian", dim=2, X0=[[0.2], [0.1]])
    probe = FieldProbe(scn, constant_path(scn))
    pts = np.random.default_rng(13).uniform(-1.0, 1.0, (6, 2))
    grads = probe.gradient_many(pts, 0.0)
    hessians = probe.hessian_many(pts, 0.0)
    bump = np.exp(-np.sum(pts * pts, axis=1))
    np.testing.assert_allclose(grads, -2.0 * pts * bump[:, None], rtol=0.0, atol=1e-8)
    exact_h = (4.0 * pts[:, :, None] * pts[:, None, :] - 2.0 * np.eye(2)) * bump[:, None, None]
    np.testing.assert_allclose(hessians, exact_h, rtol=0.0, atol=1e-6)
    for x, g, h in zip(pts, grads, hessians):  # stacking never mixes points
        np.testing.assert_array_equal(probe.gradient(x, 0.0), g)
        np.testing.assert_array_equal(probe.hessian(x, 0.0), h)


def without_structure(scn):
    """The scenario with a copy of its source that declares no Gaussian
    structure, so the field evaluator integrates it by quadrature."""
    g = scn.g
    return dataclasses.replace(scn, g=lambda x, X: g(x, X))


def test_gradient_many_matches_s_node_loop_oracle():
    scn = without_structure(build(phi="gaussian", g="agent-secretion", X0=[[0.2, -0.3]], T=0.2))
    path = moving_path(scn)
    probe = FieldProbe(scn, path)
    pts = np.array([[-0.6], [0.1], [0.9]])
    times = np.array([0.2, 0.031, 0.2])
    oracle = np.stack([loop_gradient(scn, path, x, t) for x, t in zip(pts, times)])
    np.testing.assert_allclose(probe.gradient_many(pts, times), oracle, rtol=0.0, atol=1e-14)


def test_gradient_many_2d_larger_than_one_chunk_matches_point_loop():
    scn = build(phi="gaussian", g="agent-secretion", dim=2,
                X0=[[0.2, -0.3], [0.1, 0.4]], T=0.2)
    probe = FieldProbe(scn, moving_path(scn))
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 1.0, (12, 2))
    times = rng.uniform(0.01, 0.2, 12)
    per_point = 48 ** 2 * 2  # spatial nodes x gradient components
    assert len(pts) * per_point > field._CHUNK_ELEMENTS  # several passes
    single = np.stack([probe.gradient(x, t) for x, t in zip(pts, times)])
    np.testing.assert_allclose(probe.gradient_many(pts, times), single, rtol=0.0, atol=1e-14)


def test_shared_quadrature_rules_are_read_only():
    offsets, wts = field._cached_sphere_rule(1, 0.1)
    nodes, weights = gauss_legendre(0.0, 1.0, 32)
    rules = field._cached_field_rules(2, 8.0, 48, 32, np.eye(2).tobytes())
    for arr in (offsets, wts, nodes, weights, *rules):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    again, _ = gauss_legendre(0.0, 1.0, 32)
    np.testing.assert_array_equal(nodes, again)


# -- closed-form Gaussian sources and the anisotropic rule ---------------------------------


DRIFT_REACTION_2D = inline_coefficients([[1.3, 0.4], [0.4, 0.7]], [0.5, -0.8], -0.6)
DRIFT_REACTION_1D = inline_coefficients([[0.8]], [-0.7], 0.9)


@pytest.mark.parametrize("coeff,dim,g,nodes", [
    ("heat", 1, "agent-secretion", 640),
    ("anisotropic-constant", 2, "agent-secretion", 160),
    (DRIFT_REACTION_2D, 2, "agent-secretion", 160),
    (DRIFT_REACTION_1D, 1, "constant", 640),
], ids=["heat-1d", "anisotropic-2d", "drift-reaction-2d", "constant-drift-reaction-1d"])
def test_closed_form_source_matches_refined_quadrature(coeff, dim, g, nodes):
    X0 = [[0.2, -0.3], [0.1, 0.4]][:dim]
    scn = build(coeff=coeff, g=g, dim=dim, X0=X0, T=0.2,
                g_kwargs={"value": 1.7} if g == "constant" else None)
    assert scn.g.gaussian_source is not None
    path = moving_path(scn)
    closed = FieldProbe(scn, path)
    # the same 32 time nodes; a wide, fine spatial rule on the structure-less copy
    refined = FieldProbe(without_structure(scn), path,
                         quad=QuadratureSpec(u_max=16.0, space_nodes=nodes))
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.0, 1.0, (5, dim))
    times = rng.uniform(0.01, 0.2, 5)
    for order in ("value_many", "gradient_many", "hessian_many"):
        got = getattr(closed, order)(pts, times)
        want = getattr(refined, order)(pts, times)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11, err_msg=order)
    hessians = closed.hessian_many(pts, times)
    np.testing.assert_array_equal(hessians, np.swapaxes(hessians, 1, 2))


def test_constant_source_with_reaction_is_exact():
    c, value, t = 0.9, 1.7, 0.2
    scn = build(coeff=DRIFT_REACTION_1D, g="constant", g_kwargs={"value": value}, T=t)
    probe = FieldProbe(scn, constant_path(scn, t))
    pts = np.array([[-1.3], [0.0], [2.1]])
    # f_t = a f'' + b f' + c f - value with f(0) = 0
    want = -value * (math.exp(c * t) - 1.0) / c
    np.testing.assert_allclose(probe.value_many(pts, t), want, rtol=1e-14)
    np.testing.assert_array_equal(probe.gradient_many(pts, t), 0.0)
    np.testing.assert_array_equal(probe.hessian_many(pts, t), 0.0)


def declared_gaussian_phi(calls=None):
    """The gaussian phi preset, declaring its structure exp(-|x|^2); ``calls``
    collects the shapes it is called on."""
    phi, h_phi, c_phi, m_phi = phi_preset("gaussian")

    def declared(x):
        if calls is not None:
            calls.append(np.shape(x))
        return phi(x)

    declared.gaussian_source = GaussianSource(1.0, 1.0, False)
    return declared, h_phi, c_phi, m_phi


@pytest.mark.parametrize("dim", [1, 2])
def test_declared_phi_matches_the_heat_gaussian_oracle(dim):
    calls = []
    scn = build(phi=declared_gaussian_phi(calls), dim=dim)
    probe = FieldProbe(scn, constant_path(scn))
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1.5, 1.5, (6, dim))
    times = rng.uniform(0.01, 1.0, 6)
    oracles = (heat_gaussian_field, heat_gaussian_grad, heat_gaussian_hess)
    for order, name in enumerate(("value_many", "gradient_many", "hessian_many")):
        got = getattr(probe, name)(pts, times)
        want = np.stack([oracles[order](x, t, dim) for x, t in zip(pts, times)])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15, err_msg=name)
    assert calls == []  # the closed form never samples phi


@pytest.mark.parametrize("coeff,dim,nodes", [
    (DRIFT_REACTION_1D, 1, 640),
    (DRIFT_REACTION_2D, 2, 160),
], ids=["drift-reaction-1d", "drift-reaction-2d"])
def test_declared_phi_matches_refined_quadrature(coeff, dim, nodes):
    declared = build(coeff=coeff, phi=declared_gaussian_phi(), dim=dim)
    plain = build(coeff=coeff, phi="gaussian", dim=dim)
    closed = FieldProbe(declared, constant_path(declared))
    refined = FieldProbe(plain, constant_path(plain),
                         quad=QuadratureSpec(u_max=16.0, space_nodes=nodes))
    rng = np.random.default_rng(24)
    pts = rng.uniform(-1.0, 1.0, (5, dim))
    times = rng.uniform(0.01, 1.0, 5)
    for order in ("value_many", "gradient_many", "hessian_many"):
        got = getattr(closed, order)(pts, times)
        want = getattr(refined, order)(pts, times)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=order)


@pytest.mark.parametrize("coeff,dim,bounds", [
    (DRIFT_REACTION_1D, 1, (9e-13, 3.5e-11, 1.4e-9)),
    (DRIFT_REACTION_2D, 2, (1.5e-8, 4e-7, 1.2e-5)),
], ids=["drift-reaction-1d", "drift-reaction-2d"])
def test_drift_centred_rule_is_no_less_accurate(coeff, dim, bounds):
    # the spatial rule's nodes follow the drift, xi = x + b sigma + sqrt(sigma)
    # L u, and the rule must be at least as accurate as the nodes
    # xi = x + sqrt(sigma) L u were; the bounds sit just below the errors
    # those nodes made here (1D 9.2e-13, 3.6e-11, 1.4e-9; 2D 1.55e-8, 4.2e-7,
    # 1.24e-5), against phi's closed form
    declared = build(coeff=coeff, phi=declared_gaussian_phi(), dim=dim, T=0.2)
    plain = build(coeff=coeff, phi="gaussian", dim=dim, T=0.2)
    closed = FieldProbe(declared, constant_path(declared, 0.2))
    rule = FieldProbe(plain, constant_path(plain, 0.2))
    rng = np.random.default_rng(41)
    pts = rng.uniform(-1.0, 1.0, (50, dim))
    times = rng.uniform(0.01, 0.2, 50)
    want = closed.derivatives_many(pts, times, (0, 1, 2))
    got = rule.derivatives_many(pts, times, (0, 1, 2))
    for order, bound in enumerate(bounds):
        assert np.abs(got[order] - want[order]).max() <= bound, f"order {order}"


@pytest.mark.parametrize("dim", [1, 2])
def test_one_field_call_evaluates_the_kernel_once_on_the_rule_nodes(monkeypatch, dim):
    from chemosim.kernel import Kernel

    shapes = []
    core = Kernel._core

    def counted(self, x, t, xi, tau):
        shapes.append(np.shape(xi))
        return core(self, x, t, xi, tau)

    monkeypatch.setattr(Kernel, "_core", counted)
    # phi and g both by the spatial rule, g's integral over many passes
    scn = without_structure(build(coeff=DRIFT_REACTION_2D if dim == 2 else DRIFT_REACTION_1D,
                                  phi="gaussian", g="agent-secretion", dim=dim,
                                  X0=[[0.2, -0.3], [0.1, 0.4]][:dim], T=0.2))
    probe = FieldProbe(scn, moving_path(scn))
    nodes = QuadratureSpec().resolved_space_nodes(dim) ** dim
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.0, 1.0, (40, dim))
    times = rng.uniform(0.01, 0.2, 40)
    times[::5] = 0.0
    for orders in ((0, 1, 2), (1,), (2, 0)):
        shapes.clear()
        probe.derivatives_many(pts, times, orders)
        assert shapes == [(nodes, dim)], orders
    # points at t = 0 alone take the initial datum, and no kernel
    shapes.clear()
    probe.gradient_many(pts[:3], 0.0)
    assert shapes == []


@pytest.mark.parametrize("dim", [2, 3])
def test_anisotropic_gaussian_evolution_oracle(dim):
    # the default rule against the exact evolution of exp(-|x|^2) under
    # a = diag(0.5, 2, 1.25): the rule must follow a = L L^T, since a box in
    # u itself cuts the kernel at exp(-8) along the mu1 = 2 axis
    scn = build(coeff="anisotropic-constant", phi="gaussian", dim=dim)
    probe = FieldProbe(scn, constant_path(scn))
    pts = np.random.default_rng(22).uniform(-1.5, 1.5, (12, dim))
    for t in (0.01, 0.1):
        want = gaussian_evolution(scn.kernel.a, pts, t)
        got = (probe.value_many(pts, t), probe.gradient_many(pts, t), probe.hessian_many(pts, t))
        for order, tol in enumerate((1e-6, 1e-5, 1e-3)):
            np.testing.assert_allclose(got[order], want[order], rtol=0.0, atol=tol,
                                       err_msg=f"order {order}, t = {t}")


# -- one field pass for every derivative order ----------------------------------------------


@pytest.mark.parametrize("coeff,dim", [
    ("heat", 1), ("heat", 2), ("heat", 3),
    ("anisotropic-constant", 2), ("anisotropic-constant", 3),
    (DRIFT_REACTION_2D, 2),
], ids=["heat-1d", "heat-2d", "heat-3d", "anisotropic-2d", "anisotropic-3d", "drift-reaction-2d"])
@pytest.mark.parametrize("g", ["agent-secretion", "constant"])
def test_closed_form_pass_matches_per_item_oracle(coeff, dim, g):
    rng = np.random.default_rng(31)
    X0 = rng.uniform(-0.5, 0.5, (dim, 8))  # eight agents
    scn = build(coeff=coeff, phi=declared_gaussian_phi(), g=g, dim=dim, X0=X0, T=0.2,
                g_kwargs={"value": 1.7} if g == "constant" else None)
    path = moving_path(scn)
    probe = FieldProbe(scn, path)
    pts = rng.uniform(-1.0, 1.0, (72, dim))
    times = rng.uniform(0.01, 0.2, 72)
    entries = len(pts) * 32 * scn.n * dim * dim
    assert entries > 2 * field._CHUNK_ELEMENTS  # several passes
    got = probe.derivatives_many(pts, times, (0, 1, 2))
    for order in (0, 1, 2):
        want = np.stack([loop_closed_form(scn, path, x, t, order) for x, t in zip(pts, times)])
        scale = np.abs(want).max()
        assert np.abs(got[order] - want).max() <= 1e-15 * scale, f"order {order}"


@pytest.mark.parametrize("phi", ["declared", "gaussian"])
@pytest.mark.parametrize("g", ["agent-secretion", "constant", "undeclared"])
def test_time_major_pass_equals_the_per_item_layout(phi, g):
    # repeated and distinct probe times, out of order, and points at t = 0;
    # a non-diagonal a with drift and reaction.  The undeclared source takes
    # the spatial rule; on a 12^2-node rule a pass holds 28 of a point's 32
    # s-rows, so its sum continues across passes.  Closed-form data equal
    # the per-item layout bit for bit; spatial-rule data, whose kernel
    # weights the evaluator forms once per call and the oracle per item,
    # agree to rounding
    scn = build(coeff=DRIFT_REACTION_2D, phi=declared_gaussian_phi() if phi == "declared" else phi,
                g="agent-secretion" if g == "undeclared" else g, dim=2,
                X0=[[0.2, -0.3, 0.5], [0.1, 0.4, -0.2]], T=0.2,
                g_kwargs={"value": 1.7} if g == "constant" else None)
    quad = QuadratureSpec()
    if g == "undeclared":
        scn, quad = without_structure(scn), QuadratureSpec(space_nodes=12)
    probe = FieldProbe(scn, moving_path(scn), quad=quad)
    rng = np.random.default_rng(33)
    n_pts = 12 if g == "undeclared" else 120  # 120: more distinct times than one group holds
    pts = rng.uniform(-1.0, 1.0, (n_pts, 2))
    times = rng.uniform(0.01, 0.2, n_pts)
    times[::4] = 0.05
    times[1::6] = 0.0
    times[2::7] = 0.2
    got = probe.derivatives_many(pts, times, (0, 1, 2))
    want = per_item_derivatives(probe, pts, times, (0, 1, 2))
    for order in (0, 1, 2):
        if phi == "declared" and g != "undeclared":
            np.testing.assert_array_equal(got[order], want[order], err_msg=f"order {order}")
        else:
            scale = np.abs(want[order]).max()
            assert np.abs(got[order] - want[order]).max() <= 1e-12 * scale, f"order {order}"
    # a point alone, whose value sums a single column of s-rows, equals its batch row
    for i in range(4):
        alone = probe.derivatives_many(pts[i:i + 1], times[i:i + 1], (0, 1, 2))
        for order in (0, 1, 2):
            np.testing.assert_array_equal(alone[order][0], got[order][i], err_msg=f"point {i}")


@pytest.mark.parametrize("backend", [BACKEND_KERNEL, BACKEND_FD])
@pytest.mark.parametrize("phi", ["declared", "gaussian"])
def test_multi_order_call_equals_one_order_calls(backend, phi):
    # 2D drift and reaction with a non-diagonal a; an undeclared phi takes
    # the spatial rule, so both branches of the closed-form backend run
    X0 = [[0.2, -0.3, 0.5], [0.1, 0.4, -0.2]]
    scn = build(coeff=DRIFT_REACTION_2D, phi=declared_gaussian_phi() if phi == "declared" else phi,
                g="agent-secretion", dim=2, X0=X0, T=0.2)
    probe = FieldProbe(scn, moving_path(scn), backend=backend)
    rng = np.random.default_rng(32)
    pts = rng.uniform(-1.0, 1.0, (40, 2))
    times = rng.uniform(0.01, 0.2, 40)
    times[::7] = 0.0
    together = probe.derivatives_many(pts, times, (0, 1, 2))
    alone = (probe.value_many(pts, times), probe.gradient_many(pts, times),
             probe.hessian_many(pts, times))
    for order in (0, 1, 2):
        np.testing.assert_array_equal(together[order], alone[order], err_msg=f"order {order}")
    # any order subset, in any order, returns the same arrays
    hess, grad = probe.derivatives_many(pts, times, (2, 1))
    np.testing.assert_array_equal(hess, alone[2])
    np.testing.assert_array_equal(grad, alone[1])


def test_derivatives_many_rejects_unknown_orders():
    scn = build(phi="gaussian")
    probe = FieldProbe(scn, constant_path(scn))
    for orders in ((), (3,), (0, -1)):
        with pytest.raises(ValueError, match="orders"):
            probe.derivatives_many(np.zeros((2, 1)), 0.5, orders)


def test_probe_time_outside_the_path_names_the_closed_range():
    scn = build(phi="gaussian")
    probe = FieldProbe(scn, constant_path(scn))
    with pytest.raises(ValueError, match=r"probe time 1\.5 outside \[0, 1\.0\]"):
        probe.gradient_many(np.zeros((2, 1)), 1.5)
    assert probe.gradient_many(np.zeros((2, 1)), 0.0).shape == (2, 1)  # t = 0 is inside
    # times in order, with the bad one inside, last or first
    for bad, shown in (([0.1, math.nan, 0.2], "nan"), ([0.1, 0.2, math.inf], "inf"),
                       ([-0.5, 0.1, 0.2], "-0.5"), ([0.1, 0.2, math.nan], "nan")):
        with pytest.raises(ValueError, match=rf"probe time {shown} outside"):
            probe.gradient_many(np.zeros((3, 1)), np.array(bad))
    # times just outside the range are clamped onto it, in or out of order
    pts = np.array([[0.3], [0.1], [-0.2]])
    for near, at in (([-1e-13, 0.5, 1.0 + 1e-10], [0.0, 0.5, 1.0]),
                     ([1.0 + 1e-10, -1e-13, 0.5], [1.0, 0.0, 0.5])):
        np.testing.assert_array_equal(probe.gradient_many(pts, np.array(near)),
                                      probe.gradient_many(pts, np.array(at)))


@pytest.mark.parametrize("backend", [BACKEND_KERNEL, BACKEND_FD])
@pytest.mark.parametrize("dim", [1, 2])
def test_every_evaluator_rejects_points_of_another_dimension(dim, backend):
    scn = build(phi="gaussian", g="agent-secretion", dim=dim, X0=[[0.2]] * dim, V0=[[0.0]] * dim)
    probe = FieldProbe(scn, constant_path(scn), backend=backend)
    many = (
        lambda pts: probe.value_many(pts, 0.5),
        lambda pts: probe.gradient_many(pts, 0.5),
        lambda pts: probe.hessian_many(pts, 0.5),
        lambda pts: probe.derivatives_many(pts, 0.5, (0, 1)),
        lambda pts: probe.ball_average_gradient(pts, 0.5, 0.1),
    )
    # a wider point, a 1-D array of three points, and a stack of stacks
    for bad in (np.zeros((3, dim + 1)), np.zeros(3), np.zeros((2, 3, dim))):
        for call in many:
            with pytest.raises(ValueError, match=rf"points must have shape \({dim},\) or \(P, {dim}\)"):
                call(bad)
    for call in (probe.value, probe.gradient, probe.hessian):
        with pytest.raises(ValueError, match="points must have shape"):
            call(np.zeros(dim + 1), 0.5)
    if backend == BACKEND_KERNEL:  # the shapes that fit still evaluate
        pts = np.full((3, dim), 0.1)
        assert probe.value_many(pts, 0.5).shape == (3,)
        assert probe.gradient_many(pts, 0.5).shape == (3, dim)
        assert probe.hessian_many(pts, 0.5).shape == (3, dim, dim)
        assert probe.ball_average_gradient(pts, 0.5, 0.1).shape == (3, dim)
        assert probe.ball_average_gradient(pts[0], 0.5, 0.1).shape == (dim,)


# -- time tables ------------------------------------------------------------------------


def test_a_table_evaluates_any_path_on_its_grid_and_rejects_another_call():
    scn = build(phi="gaussian", g="agent-secretion", X0=[[0.2, -0.3]], T=0.2)
    path = moving_path(scn)
    probe = FieldProbe(scn, path)
    pts = np.array([[-0.4], [0.1], [0.3], [0.7]])
    times = np.array([0.0, 0.05, 0.05, 0.2])
    table = FieldTable(scn, path.times, times, len(pts))
    assert probe.gradient_many(pts, times, table=table).tobytes() == \
        probe.gradient_many(pts, times).tobytes()
    # another path on an equal grid (not the same array) takes the table
    moved = FieldProbe(scn, AgentPath(path.times.copy(), 0.5 * path.X, path.V))
    assert moved.gradient_many(pts, times, table=table).tobytes() == \
        moved.gradient_many(pts, times).tobytes()
    # a ball average's table is the order-0 table of its sphere points' times
    k = len(field._cached_sphere_rule(1, 0.1)[0])
    ball = FieldTable(scn, path.times, field._sphere_times(times, len(pts), k), len(pts) * k, (0,))
    assert moved.ball_average_gradient(pts, times, 0.1, table=ball).tobytes() == \
        moved.ball_average_gradient(pts, times, 0.1).tobytes()
    # which holds no radius, so it serves another one
    assert moved.ball_average_gradient(pts, times, 0.2, table=ball).tobytes() == \
        moved.ball_average_gradient(pts, times, 0.2).tobytes()
    # another grid: other nodes, or the same nodes on a shorter span
    for grid in (np.linspace(0.0, 0.2, 11), path.times[:-1]):
        other = FieldProbe(scn, AgentPath(grid, np.zeros((len(grid), 1, 2)),
                                          np.zeros((len(grid), 1, 2))))
        with pytest.raises(ValueError, match="another time grid"):
            other.gradient_many(pts, np.minimum(times, grid[-1]), table=table)
    # other probe times, or another number of points
    for t, p in ((times[::-1], pts), (0.5 * times, pts), (times[:3], pts[:3]), (0.05, pts)):
        with pytest.raises(ValueError, match="other probe times"):
            probe.gradient_many(p, t, table=table)
    # another kind of call, quadrature or scenario
    with pytest.raises(ValueError, match="kind of call"):
        probe.ball_average_gradient(pts, times, 0.1, table=table)
    with pytest.raises(ValueError, match="kind of call"):
        probe.gradient_many(pts, times, table=FieldTable(scn, path.times, times, len(pts), (1, 2)))
    with pytest.raises(ValueError, match="kind of call"):
        FieldProbe(scn, path, quad=QuadratureSpec(time_nodes=16)).gradient_many(pts, times,
                                                                             table=table)
    with pytest.raises(ValueError, match="kind of call"):
        FieldProbe(dataclasses.replace(scn), path).gradient_many(pts, times, table=table)
