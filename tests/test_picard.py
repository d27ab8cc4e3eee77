"""Fixed-point machinery: update map, certificates, local/global solves, bounds."""

import math

import numpy as np
import pytest

from chemosim.field import FieldProbe
from chemosim.paths import AgentPath
from chemosim.picard import (
    MODE_NONLOCAL,
    PicardError,
    apply_psi,
    apriori_grad_bound,
    contraction_S,
    gronwall_bound_B,
    horizon_T1,
    horizon_certificate,
    solve_global,
    solve_local,
)
from chemosim.scenario import ForceLaw
from chemosim.verify import residual_check

from util import build, constant_force_law, rk4_second_order


def damped(chi=0.3, kappa_v=1.0, T=1.0, delta=None, g="agent-secretion",
           X0=((0.2,),), V0=((0.3,),)):
    return build(phi="gaussian", g=g, force="damped-chemotaxis",
                 force_kwargs={"chi": chi, "kappa_v": kappa_v},
                 X0=np.asarray(X0), V0=np.asarray(V0), T=T, delta=delta,
                 M_override=1.0, name="damped")


# -- agent path ---------------------------------------------------------------------


def test_agent_path_validation():
    with pytest.raises(ValueError):
        AgentPath(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1, 1)), np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        AgentPath(np.array([0.0, 1.0]), np.zeros((3, 1, 1)), np.zeros((3, 1, 1)))


def test_agent_path_interpolation_and_norms():
    times = np.array([0.0, 1.0, 2.0])
    X = np.array([0.0, 2.0, 2.0]).reshape(3, 1, 1)
    V = np.array([1.0, 1.0, -1.0]).reshape(3, 1, 1)
    p = AgentPath(times, X, V)
    assert p.positions_at(0.5)[0, 0] == pytest.approx(1.0)
    assert p.velocities_at(1.5)[0, 0] == pytest.approx(0.0)
    assert p.sup_position_norm() == pytest.approx(2.0)
    dx, dv = p.sup_deviation(np.zeros((1, 1)), np.zeros((1, 1)))
    assert dx == pytest.approx(2.0) and dv == pytest.approx(1.0)


# -- update map ----------------------------------------------------------------------


def test_apply_psi_zero_force_gives_free_flight():
    scn = build(V0=[[0.4]])
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, 0.5, 21))
    out = apply_psi(path, scn)
    np.testing.assert_allclose(out.X[:, 0, 0], 0.4 * path.times, atol=1e-14)
    np.testing.assert_allclose(out.V[:, 0, 0], 0.4, atol=1e-14)


def test_apply_psi_vanishing_data_matches_zero_force():
    # pure chemotaxis with phi = 0, g = 0 senses a zero gradient everywhere
    scn = build(phi="zero", g="zero", force="pure-chemotaxis",
                force_kwargs={"chi": 1.0}, V0=[[0.4]])
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, 0.5, 21))
    out = apply_psi(path, scn)
    np.testing.assert_allclose(out.X[:, 0, 0], 0.4 * path.times, atol=1e-12)
    np.testing.assert_allclose(out.V[:, 0, 0], 0.4, atol=1e-12)


def test_apply_psi_constant_force_kinematics():
    scn = build(force=constant_force_law([0.7]))
    times = np.linspace(0.0, 0.9, 31)
    p0 = AgentPath.constant(scn.X0, scn.V0, times)
    p1 = apply_psi(p0, scn)
    np.testing.assert_allclose(p1.V[:, 0, 0], 0.7 * times, atol=1e-14)
    p2 = apply_psi(p1, scn)
    np.testing.assert_allclose(p2.X[:, 0, 0], 0.35 * times**2, atol=1e-12)


def test_apply_psi_rejects_path_outside_tube():
    scn = build(R=0.5)
    times = np.linspace(0.0, 0.5, 6)
    X = np.zeros((6, 1, 1))
    X[3, 0, 0] = 2.0  # leaves the 0.5-tube at node 3
    path = AgentPath(times, X, np.zeros_like(X))
    with pytest.raises(PicardError, match="node 3"):
        apply_psi(path, scn)


# -- horizons --------------------------------------------------------------------------


def test_horizon_T1_first_branch_cases():
    scn = build(T=2.0)  # zero force, V0 = 0, n = 1
    assert horizon_T1(scn, 1.0) == pytest.approx(1.0)
    v0 = np.full((1, 4), 0.5)  # four agents, |V0| = 1
    scn4 = build(T=2.0, X0=np.zeros((1, 4)), V0=v0)
    assert horizon_T1(scn4, 1.0) == pytest.approx(1.0 / 8.0)


def test_horizon_T1_capped_at_scenario_horizon():
    scn = build(T=0.3)
    assert horizon_T1(scn, 1.0) == pytest.approx(0.3)


def test_horizon_T1_shrinks_with_radius():
    # zero force: only the first branch is active, so halving R is exact
    scn = build(T=2.0, V0=[[1.0]])
    assert horizon_T1(scn, 1.0) == pytest.approx(1.0 / (1.0 * (1.0 + 1.0)))
    assert horizon_T1(scn, 0.5) == pytest.approx(0.5 / (1.0 * (0.5 + 1.0)))
    # with an active force the second branch moves too
    scn_f = damped(T=2.0, V0=[[1.0]])
    assert horizon_T1(scn_f, 0.5) != horizon_T1(scn_f, 1.0)


def test_contraction_S_limits():
    scn = damped()
    # the slowest term scales like t^(alpha/2), so push t very small
    vals = [contraction_S(scn, 1.0, t) for t in (1e-4, 1e-8, 1e-12, 1e-16)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3
    scn0 = build()  # zero force: every term carries a Lipschitz factor
    assert contraction_S(scn0, 1.0, 0.5) == 0.0


def test_contraction_S_monotone_in_horizon():
    scn = damped()
    grid = np.linspace(1e-4, 0.02, 20)
    vals = [contraction_S(scn, 1.0, t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_certificate_zero_force_uses_range_horizon():
    scn = build(T=2.0)
    cert = horizon_certificate(scn)
    assert cert.t_contract == pytest.approx(2.0)  # S == 0, capped at T
    assert cert.t_bar == pytest.approx(0.9 * min(horizon_T1(scn, 1.0), 2.0))
    assert cert.s_value == 0.0


def test_certificate_s_value_recomputes():
    scn = damped()
    cert = horizon_certificate(scn)
    assert cert.s_value < 1.0
    again = contraction_S(scn, cert.radius, cert.t_bar, delta=cert.delta)
    assert again == pytest.approx(cert.s_value, rel=1e-12)


def test_certificate_nominal_variant_matches_when_kappa_zero():
    scn = damped()
    cert = horizon_certificate(scn)
    # with zero Gaussian weight the conservative and nominal factors coincide
    assert cert.s_value_nominal == pytest.approx(cert.s_value, rel=1e-12)
    assert cert.t_range_nominal == pytest.approx(cert.t_range, rel=1e-12)


def test_certificate_nonlocal_requires_delta():
    scn = damped()
    with pytest.raises(ValueError, match="delta"):
        horizon_certificate(scn, mode=MODE_NONLOCAL)


def test_certificate_invariants_enforced():
    from chemosim.picard import HorizonCertificate

    with pytest.raises(ValueError, match="S"):
        HorizonCertificate(t_range=1.0, t_contract=1.0, t_bar=0.5,
                           s_value=1.2, gamma_bar=0.1, radius=1.0)
    with pytest.raises(ValueError, match="gamma_bar"):
        HorizonCertificate(t_range=1.0, t_contract=1.0, t_bar=0.5,
                           s_value=0.5, gamma_bar=-0.1, radius=1.0)
    with pytest.raises(ValueError, match="range"):
        HorizonCertificate(t_range=0.4, t_contract=1.0, t_bar=0.5,
                           s_value=0.5, gamma_bar=0.1, radius=1.0)


# -- local solve --------------------------------------------------------------------------


def test_solve_local_zero_force_two_iterations():
    scn = build(V0=[[0.4]], T=2.0)
    cert = horizon_certificate(scn)
    path, history = solve_local(scn, cert, tol=1e-10)
    assert len(history) == 2  # first sweep lands on the fixed point, second confirms
    np.testing.assert_allclose(path.X[:, 0, 0], 0.4 * path.times, atol=1e-12)


def test_solve_local_pure_damping_matches_exponential():
    scn = damped(chi=0.0, g="zero", V0=[[0.5]], X0=[[0.0]], T=1.0)
    cert = horizon_certificate(scn)
    path, _ = solve_local(scn, cert, tol=1e-10, dt=1e-2)
    exact = 0.5 * np.exp(-path.times)
    assert np.abs(path.V[:, 0, 0] - exact).max() < 1e-4  # trapezoid O(dt^2) + tol


def test_solve_local_contraction_ratios_below_certificate():
    scn = damped()
    cert = horizon_certificate(scn)
    path, history = solve_local(scn, cert, tol=1e-8)
    assert len(history) <= 30
    ratios = [history[i + 1] / history[i] for i in range(len(history) - 1) if history[i] > 1e-14]
    assert all(r <= cert.s_value + 0.05 for r in ratios)


def test_solve_local_iterate_differences_nonincreasing():
    for scn in (damped(), damped(chi=0.0, g="zero"), build(V0=[[0.3]], T=2.0)):
        cert = horizon_certificate(scn)
        _, history = solve_local(scn, cert, tol=1e-9)
        for a, b in zip(history[1:], history[2:]):
            assert b <= a * (1.0 + 1e-9)


def test_solve_local_fixed_point_property():
    scn = damped()
    cert = horizon_certificate(scn)
    tol = 1e-9
    path, _ = solve_local(scn, cert, tol=tol)
    again = apply_psi(path, scn)
    assert again.sup_distance(path) < 2 * tol


@pytest.mark.parametrize("call, match", [
    (lambda scn, cert, path: apply_psi(path, scn, mode="non-local"), "unknown mode"),
    (lambda scn, cert, path: residual_check(path, scn, FieldProbe(scn, path), mode="Pointwise"),
     "unknown mode"),
    (lambda scn, cert, path: solve_local(scn, cert, mode=MODE_NONLOCAL), "certificate"),
], ids=["apply_psi-unknown-mode", "residual_check-unknown-mode", "solve_local-certificate-mode"])
def test_mode_mistakes_raise_value_error(call, match):
    scn = damped(delta=0.1)
    cert = horizon_certificate(scn)  # pointwise
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, cert.t_bar, 5))
    with pytest.raises(ValueError, match=match):
        call(scn, cert, path)


def test_solve_local_max_iters_error():
    scn = damped()
    cert = horizon_certificate(scn)
    with pytest.raises(PicardError, match="iterations"):
        solve_local(scn, cert, tol=1e-16, max_iters=2)


# -- global solve ----------------------------------------------------------------------------


def test_solve_global_zero_force_is_free_flight():
    scn = build(V0=[[0.4]], T=1.0)
    segments = []
    path = solve_global(scn, 1.0, tol=1e-10, segments_out=segments)
    np.testing.assert_allclose(path.X[:, 0, 0], 0.4 * path.times, atol=1e-10)
    assert len(segments) >= 2  # continuation actually stitched segments
    assert path.horizon == pytest.approx(1.0)


def test_solve_global_matches_rk4_oracle():
    scn = damped(chi=0.0, g="zero", V0=[[0.5]], X0=[[0.0]], T=2.0)
    path = solve_global(scn, 2.0, tol=1e-10, dt=1e-2)

    def force(t, x, v):
        return -v

    t_o, x_o, v_o = rk4_second_order(force, scn.X0, scn.V0, 2.0, 1e-4)
    x_interp = np.interp(path.times, t_o, x_o[:, 0, 0])
    v_interp = np.interp(path.times, t_o, v_o[:, 0, 0])
    assert np.abs(path.X[:, 0, 0] - x_interp).max() < 1e-3
    assert np.abs(path.V[:, 0, 0] - v_interp).max() < 1e-3


def test_solve_global_bounded_by_gronwall_constant():
    presets = [
        damped(chi=0.0, g="zero", V0=[[0.5]], T=2.0),
        damped(chi=0.05, kappa_v=1.0, T=0.5),
        build(phi="gaussian", g="agent-secretion", force="saturating-chemotaxis",
              force_kwargs={"chi": 0.05}, T=0.5, M_override=1.0, X0=[[0.1]], V0=[[0.2]]),
    ]
    for scn in presets:
        path = solve_global(scn, scn.growth.T, tol=1e-8)
        dev = np.sqrt(
            np.linalg.norm((path.X - scn.X0).reshape(len(path.times), -1), axis=1) ** 2
            + np.linalg.norm((path.V - scn.V0).reshape(len(path.times), -1), axis=1) ** 2
        ).max()
        bound = gronwall_bound_B(scn, scn.growth.T)
        assert dev <= bound


def test_solve_global_requires_global_lipschitz_force():
    local_only = ForceLaw(eval=lambda t, X, V, w, i: np.zeros(1), lipschitz_w=0.0,
                          lipschitz_xv=lambda r: 0.0, lipschitz_global=None)
    scn = build(force=local_only)
    with pytest.raises(PicardError, match="globally Lipschitz"):
        solve_global(scn, 1.0)


def test_solve_global_stitching_invariance():
    scn = damped(chi=0.0, g="zero", V0=[[0.5]], X0=[[0.0]], T=2.0)
    tol = 1e-6
    p_coarse = solve_global(scn, 2.0, tol=tol, dt=1e-3, safety=0.9)
    p_fine = solve_global(scn, 2.0, tol=tol, dt=1e-3, safety=0.45)
    probe_times = np.linspace(0.0, 2.0, 201)
    gap = 0.0
    for t in probe_times:
        gap = max(gap, abs(p_coarse.positions_at(t)[0, 0] - p_fine.positions_at(t)[0, 0]))
        gap = max(gap, abs(p_coarse.velocities_at(t)[0, 0] - p_fine.velocities_at(t)[0, 0]))
    assert gap < 5 * tol


def test_nonlocal_solution_converges_to_pointwise():
    horizon = 0.4
    base = damped(chi=0.05, T=0.5)
    p_point = solve_global(base, horizon, tol=1e-10)
    gaps = []
    for d in (0.2, 0.1, 0.05):
        scn = damped(chi=0.05, T=0.5, delta=d)
        p_non = solve_global(scn, horizon, tol=1e-10, mode=MODE_NONLOCAL)
        assert np.allclose(p_non.times, p_point.times)
        gaps.append(max(np.abs(p_non.X - p_point.X).max(), np.abs(p_non.V - p_point.V).max()))
    assert gaps[0] > gaps[1] > gaps[2]
    orders = [math.log(gaps[i] / gaps[i + 1], 2.0) for i in range(2)]
    assert min(orders) >= 1.8


def test_residuals_of_converged_paths():
    presets = [
        ("zero", build(V0=[[0.4]], T=2.0)),
        ("damped", damped()),
        ("pure", build(phi="gaussian", g="agent-secretion", force="pure-chemotaxis",
                       force_kwargs={"chi": 0.3}, X0=[[0.2]], V0=[[0.3]],
                       M_override=1.0)),
        ("saturating", build(phi="gaussian", g="agent-secretion",
                             force="saturating-chemotaxis", force_kwargs={"chi": 0.3},
                             X0=[[0.2]], V0=[[0.3]], M_override=1.0)),
    ]
    for name, scn in presets:
        cert = horizon_certificate(scn)
        path, _ = solve_local(scn, cert, tol=1e-8, dt=1e-2)
        probe = FieldProbe(scn, path)
        rep = residual_check(path, scn, probe)
        assert rep.passed, f"{name}: residual {rep.worst_ratio - 1.0:.2e}"


# -- growth bounds ------------------------------------------------------------------------------


def test_gronwall_bound_zero_data_gives_zero():
    scn = build(V0=np.zeros((1, 1)), T=1.0)  # zero force, V0 = 0
    assert gronwall_bound_B(scn, 1.0) == 0.0
    path = solve_global(scn, 1.0, tol=1e-10)
    assert np.abs(path.X).max() == 0.0 and np.abs(path.V).max() == 0.0


def test_gronwall_bound_force_offset_only():
    # constant force: only the additive force term survives, B = (|V0| T + n T C0) e^T
    scn = build(force=constant_force_law([0.7]), V0=[[0.2]], T=1.0)
    b = gronwall_bound_B(scn, 1.0)
    assert b == pytest.approx((0.2 + 0.7) * math.exp(1.0), rel=1e-12)


def test_apriori_grad_bound_zero_linear_growth():
    scn = build(phi="gaussian", M_override=0.0)
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, 1.0, 5))
    assert apriori_grad_bound(scn, np.array([0.5]), 0.5, path) == 0.0


def test_apriori_grad_bound_constant_path_integral():
    scn = build(phi="gaussian", M_override=1.0, X0=[[0.3]])
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, 1.0, 5))
    x = np.array([0.8])
    t = 0.64
    bound = apriori_grad_bound(scn, x, t, path)
    params = scn.estimate_params
    n_dim = 1
    k1 = params.c_gamma * 1.0 * 2.0 * math.pi**0.5 / params.lambda0_star**0.5
    ktilde2 = 2.0 / math.sqrt(params.lambda0_star) * (2.0 * math.pi / (2.0 * math.pi))
    k2 = ktilde2 * 2.0
    x0n = 0.3
    integral = (1.0 + 0.8 + x0n) * 2.0 * math.sqrt(t)
    expected = k1 * ((1.0 + 0.8) / math.sqrt(t) + k2 + integral)
    assert bound == pytest.approx(expected, rel=1e-8)
    with pytest.raises(ValueError):
        apriori_grad_bound(scn, x, 0.0, path)


def test_apriori_grad_bound_dominates_measured_gradient():
    # data scaled to satisfy the linear-growth hypothesis with M = 1
    scn = build(phi="gaussian", g="agent-secretion", M_override=1.0, X0=[[0.2]])
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, 1.0, 9))
    probe = FieldProbe(scn, path)
    rng = np.random.default_rng(23)
    for _ in range(60):
        x = rng.uniform(-2.0, 2.0, 1)
        t = rng.uniform(0.02, 1.0)
        measured = float(np.abs(probe.gradient(x, t)).max())
        assert measured <= apriori_grad_bound(scn, x, t, path)
