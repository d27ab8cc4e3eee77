"""Fixed-point machinery: update map, certificates, local/global solves, bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from chemosim import picard
from chemosim.field import FieldProbe, QuadratureSpec
from chemosim.paths import AgentPath
from chemosim.picard import (
    MODE_NONLOCAL,
    MODE_POINTWISE,
    START_CONSTANT,
    START_EXTRAPOLATED,
    START_TAYLOR,
    HorizonCertificate,
    PicardError,
    _c0_constant,
    _start_path,
    _tube_exit,
    apply_psi,
    apriori_grad_bound,
    contraction_S,
    gronwall_bound_B,
    horizon_T1,
    horizon_certificate,
    solve_global,
    solve_local,
)
from chemosim.scenario import ForceLaw, build_scenario
from chemosim.verify import residual_check

from util import (
    build,
    constant_force_law,
    constant_start_global,
    loop_c0_constant,
    loop_cubic_extrapolation,
    loop_certificate_fields,
    loop_contraction_S,
    loop_horizon_T1,
    masked_interp,
    oscillating_force_law,
    per_node_sweep,
    rk4_second_order,
)


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


@pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf],
                                   [-math.inf, 0.0, 1.0]], ids=["nan", "inf-end", "inf-start"])
def test_agent_path_rejects_non_finite_times(times):
    with pytest.raises(ValueError, match="finite"):
        AgentPath(np.array(times), np.zeros((3, 1, 1)), np.zeros((3, 1, 1)))


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


def test_positions_at_array_matches_scalar_calls():
    rng = np.random.default_rng(2)
    times = np.cumsum(rng.uniform(0.01, 0.1, 12))
    X = rng.normal(size=(12, 2, 3))
    V = rng.normal(size=(12, 2, 3))
    p = AgentPath(times, X, V)
    query = np.concatenate([times, rng.uniform(times[0], times[-1], 20), [times[-1] + 1e-12]])
    np.testing.assert_array_equal(p.positions_at(query),
                                  np.stack([p.positions_at(float(t)) for t in query]))
    np.testing.assert_array_equal(p.velocities_at(query),
                                  np.stack([p.velocities_at(float(t)) for t in query]))
    for bad in (np.array([times[1], times[-1] + 1.0]), math.nan, math.inf,
                np.array([[times[1], times[2]], [times[3], math.nan]])):
        with pytest.raises(ValueError, match="outside"):
            p.positions_at(bad)


@pytest.mark.parametrize("seed", range(6))
def test_interpolation_equals_the_masked_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    nodes, dim, agents = int(rng.integers(2, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    t0 = float(rng.choice([0.0, rng.uniform(-3.0, 3.0)]))
    times = t0 + np.cumsum(rng.uniform(1e-3, 0.5, nodes)) - rng.uniform(1e-3, 0.5)
    p = AgentPath(times, rng.normal(size=(nodes, dim, agents)), rng.normal(size=(nodes, dim, agents)))
    eps = 1e-9 * max(1.0, abs(p.horizon))
    inside = rng.uniform(times[0], times[-1], 37)
    queries = [
        times,                                                   # node times
        np.array([times[0] - 0.5 * eps, times[-1] + 0.5 * eps,   # clamped ends
                  times[0] - eps, times[-1] + eps]),
        float(inside[0]), float(times[0] - 0.25 * eps), float(times[-1]),  # scalars
        inside,                                                  # 1-D
        np.concatenate([inside[:15], times[:5]]).reshape(4, 5),  # 2-D
        np.empty(0),
    ]
    for t in queries:
        for values, method in ((p.X, p.positions_at), (p.V, p.velocities_at)):
            got, want = method(t), masked_interp(p, values, t)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (t, method.__name__)
    # -0.0 at a +0.0 end is clamped to +0.0, which decides the sign of a zero
    zero_start = AgentPath(np.array([0.0, 0.5, 1.0]), np.full((3, 1, 1), -0.0), np.ones((3, 1, 1)))
    for t in (-0.0, np.array([-0.0, 0.25])):
        assert zero_start.positions_at(t).tobytes() == \
            masked_interp(zero_start, zero_start.X, t).tobytes()
    for bad in (times[-1] + 2.0 * eps, np.array([times[1], times[0] - 2.0 * eps]), math.nan):
        with pytest.raises(ValueError, match="outside") as got:
            p.positions_at(bad)
        with pytest.raises(ValueError, match="outside") as want:
            masked_interp(p, p.X, bad)
        assert str(got.value) == str(want.value)


# -- update map ----------------------------------------------------------------------


@pytest.mark.parametrize("delta", [None, 0.1])
def test_apply_psi_matches_per_node_reference_sweep(delta):
    scn = build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
                force_kwargs={"chi": 0.3}, X0=[[0.2, -0.3]], V0=[[0.3, 0.0]],
                M_override=1.0, delta=delta)
    times = np.linspace(0.0, 0.01, 11)
    X = scn.X0 + 0.2 * times[:, None, None] * np.array([[1.0, -2.0]])
    path = AgentPath(times, X, np.broadcast_to(scn.V0, X.shape))
    mode = MODE_NONLOCAL if delta is not None else MODE_POINTWISE
    out = apply_psi(path, scn, mode=mode)
    ref = per_node_sweep(path, scn, delta=delta)
    np.testing.assert_allclose(out.X, ref.X, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(out.V, ref.V, rtol=0.0, atol=1e-14)


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


def _s1(dim):
    """S1 (2 agents, damped chemotaxis on secreted signal) in 1D-3D."""
    X0 = [[0.2, -0.3], [0.1, 0.05], [0.0, 0.1]][:dim]
    V0 = [[0.3, 0.0], [0.0, 0.1], [0.1, 0.0]][:dim]
    return build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
                 force_kwargs={"chi": 0.3, "kappa_v": 1.0}, dim=dim, X0=X0, V0=V0)


# (scenario, sensing mode, sensing radius): kappa = 0, kappa > 0 with C = 0.2, a
# non-local radius, and S1 in two and three dimensions
ORACLE_CASES = {
    "damped-1d": lambda: (damped(), MODE_POINTWISE, None),
    "gaussian-weight-C0.2": lambda: (
        build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
              force_kwargs={"chi": 0.2, "kappa_v": 1.0}, X0=[[0.2]], V0=[[0.3]],
              M_override=1.0, C_override=0.2),
        MODE_POINTWISE, None),
    "nonlocal-0.1": lambda: (damped(delta=0.1), MODE_NONLOCAL, 0.1),
    "S1-2d": lambda: (_s1(2), MODE_POINTWISE, None),
    "S1-3d": lambda: (_s1(3), MODE_POINTWISE, None),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_certificate_bounds_equal_the_per_call_oracle(case):
    scn, _, delta = ORACLE_CASES[case]()
    params = scn.estimate_params
    for r in (scn.R, 0.5):
        assert horizon_T1(scn, r, delta=delta) == loop_horizon_T1(scn, r, params, delta)
        for t in np.geomspace(1e-10, scn.growth.T, 41):
            t = float(t)
            try:
                expected = loop_contraction_S(scn, r, t, params, delta)
            except ValueError:  # past the gamma_bar pole
                with pytest.raises(ValueError, match="gamma_bar"):
                    contraction_S(scn, r, t, delta=delta)
                continue
            assert contraction_S(scn, r, t, delta=delta) == expected


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_certificate_equals_bisection_over_the_oracle(case):
    scn, mode, delta = ORACLE_CASES[case]()
    cert = horizon_certificate(scn, mode=mode)
    t1, t2, t_bar, s_value, gamma_bar = loop_certificate_fields(scn, delta=delta)
    assert (cert.t_range, cert.t_contract, cert.t_bar, cert.s_value, cert.gamma_bar) \
        == (t1, t2, t_bar, s_value, gamma_bar)
    assert (cert.radius, cert.mode, cert.delta) == (scn.R, mode, delta)
    assert cert.constants["kappa"] == scn.estimate_params.kappa


def test_certificate_bounds_have_no_conservative_option():
    scn = damped()
    with pytest.raises(TypeError):
        horizon_T1(scn, 1.0, conservative=False)
    with pytest.raises(TypeError):
        contraction_S(scn, 1.0, 1e-3, conservative=False)


def test_certificate_nonlocal_requires_delta():
    scn = damped()
    with pytest.raises(ValueError, match="delta"):
        horizon_certificate(scn, mode=MODE_NONLOCAL)


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1], ids=["nan", "inf", "zero", "negative"])
def test_sensing_radius_must_be_positive_and_finite(delta):
    scn = damped()
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0.0, 0.01, 5))
    calls = [
        lambda: apply_psi(path, scn, mode=MODE_NONLOCAL, delta=delta),
        lambda: horizon_certificate(scn, mode=MODE_NONLOCAL, delta=delta),
        lambda: FieldProbe(scn, path).ball_average_gradient(np.array([0.2]), 0.005, delta),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sensing radius delta must be positive and finite"):
            call()


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError, match="S"):
        HorizonCertificate(t_range=1.0, t_contract=1.0, t_bar=0.5,
                           s_value=1.2, gamma_bar=0.1, radius=1.0)
    with pytest.raises(ValueError, match="gamma_bar"):
        HorizonCertificate(t_range=1.0, t_contract=1.0, t_bar=0.5,
                           s_value=0.5, gamma_bar=-0.1, radius=1.0)
    with pytest.raises(ValueError, match="range"):
        HorizonCertificate(t_range=0.4, t_contract=1.0, t_bar=0.5,
                           s_value=0.5, gamma_bar=0.1, radius=1.0)
    for name in ("t_bar", "t_range", "t_contract"):
        for bad in (math.nan, math.inf, 0.0, -0.5):
            horizons = {"t_range": 1.0, "t_contract": 1.0, "t_bar": 0.5, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                HorizonCertificate(**horizons, s_value=0.5, gamma_bar=0.1, radius=1.0)


@pytest.mark.parametrize("safety", [1.05, math.nan, -0.5, 0.0, math.inf],
                         ids=["above-one", "nan", "negative", "zero", "inf"])
def test_safety_outside_the_unit_interval_is_rejected(safety):
    scn = damped()
    with pytest.raises(ValueError, match="safety must lie in"):
        horizon_certificate(scn, safety=safety)
    with pytest.raises(ValueError, match="safety must lie in"):
        solve_global(scn, 0.01, safety=safety)


def test_safety_one_keeps_s_within_the_margin():
    cert = horizon_certificate(damped(), safety=1.0)
    assert cert.t_bar == min(cert.t_range, cert.t_contract)
    assert cert.s_value <= 0.9


# -- local solve --------------------------------------------------------------------------


def test_solve_local_zero_force_one_iteration():
    scn = build(V0=[[0.4]], T=2.0)
    cert = horizon_certificate(scn)
    path, history = solve_local(scn, cert, tol=1e-10)
    assert len(history) == 1  # the Taylor start is the fixed point; one sweep confirms it
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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solver", ["solve_local", "solve_global"])
def test_solvers_reject_bad_dt(solver, bad):
    scn = damped()
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        if solver == "solve_local":
            solve_local(scn, horizon_certificate(scn), dt=bad)
        else:
            solve_global(scn, 0.01, dt=bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solver", ["solve_local", "solve_global"])
def test_solvers_reject_bad_tol(solver, bad):
    scn = damped()
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        if solver == "solve_local":
            solve_local(scn, horizon_certificate(scn), tol=bad)
        else:
            solve_global(scn, 0.01, tol=bad)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True], ids=["zero", "negative", "float", "bool"])
@pytest.mark.parametrize("solver", ["solve_local", "solve_global"])
def test_solvers_reject_bad_max_iters(solver, bad):
    scn = damped()
    with pytest.raises(ValueError, match="max_iters must be a positive integer"):
        if solver == "solve_local":
            solve_local(scn, horizon_certificate(scn), max_iters=bad)
        else:
            solve_global(scn, 0.01, max_iters=bad)


def test_solvers_accept_a_numpy_integer_max_iters():
    scn = damped()
    path, history = solve_local(scn, horizon_certificate(scn), max_iters=np.int64(50))
    assert 1 <= len(history) <= 50


def test_non_finite_force_fails_at_its_first_node():
    # a force law that returns NaN: the Taylor start is NaN from its first
    # node and falls back to the constant path, whose first sweep is NaN;
    # the sweep after it must refuse that path, not run on to max_iters
    calls = []

    def nan_force(t, X, V, W):
        calls.append(1)
        return np.full(np.shape(X), math.nan)

    scn = build(force=ForceLaw(eval=nan_force, lipschitz_w=0.0, lipschitz_xv=lambda r: 0.0,
                               lipschitz_global=1.0), V0=[[0.3]])
    with pytest.raises(PicardError, match=r"tube at node 1 \(t = .*\): .*not finite"):
        solve_global(scn, 0.5)
    assert len(calls) <= 2


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
    local_only = ForceLaw(eval=lambda t, X, V, W: np.zeros(np.shape(X)), lipschitz_w=0.0,
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


def _s1_seeded(dim, seed, delta=None, growth=None):
    """S1 with the agents' initial state drawn as the benchmark workloads
    draw it: X0 uniform in [-0.5, 0.5], V0 uniform in [-0.3, 0.3]; ``growth``
    overrides declared growth constants."""
    rng = np.random.default_rng(seed)
    cfg = {"dimension": dim, "horizon": 1.0, "coefficients": "heat", "phi": "gaussian",
           "g": "agent-secretion",
           "force": {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
           "X0": rng.uniform(-0.5, 0.5, size=(dim, 2)).tolist(),
           "V0": rng.uniform(-0.3, 0.3, size=(dim, 2)).tolist()}
    if delta is not None:
        cfg.update(mode=MODE_NONLOCAL, delta=delta)
    if growth is not None:
        cfg["growth"] = growth
    return build_scenario(cfg)


def test_solve_global_extrapolated_starts_take_one_sweep():
    scn = _s1_seeded(1, seed=1)
    segments = []
    path = solve_global(scn, 0.02, tol=1e-8, dt=1e-2, segments_out=segments)
    assert len(segments) == 11 and len(path.times) == 177
    assert [s.iterations for s in segments] == [2] + [1] * 10
    assert [s.start for s in segments] == [START_TAYLOR] + [START_EXTRAPOLATED] * 10
    assert all(s.final_diff < 1e-8 for s in segments)


@pytest.mark.parametrize("growth, segment_count, t2_count", [(None, 11, 1), ({"C": 0.05}, 46, 46)],
                         ids=["C0", "C0.05"])
def test_solve_global_certificates_equal_fresh_ones(growth, segment_count, t2_count):
    # with C = 0 no input of S moves with the state, so every segment reuses
    # the first T2; with C > 0 every segment has its own and bisects again
    scn = _s1_seeded(1, seed=1, growth=growth)
    segments = []
    path = solve_global(scn, 0.02, segments_out=segments)
    assert len(segments) == segment_count
    assert len({s.certificate.t_contract for s in segments}) == t2_count
    for s in segments:
        k = int(np.searchsorted(path.times, s.t_start))
        assert path.times[k] == s.t_start
        fresh = horizon_certificate(replace(scn, X0=path.X[k], V0=path.V[k]),
                                    params=scn.estimate_params)
        assert s.certificate == fresh
        for name in ("t_range", "t_contract", "t_bar", "s_value", "gamma_bar"):
            assert getattr(s.certificate, name).hex() == getattr(fresh, name).hex()


def test_solve_global_bisects_once_when_the_inputs_of_s_repeat(monkeypatch):
    counts = {"s_of": 0, "bisections": 0}
    bounds, bisect = picard._certificate_bounds, picard._contraction_horizon

    def counted_bounds(*args):
        t1, s_inputs, s_of = bounds(*args)

        def counted_s_of(t_bar):
            counts["s_of"] += 1
            return s_of(t_bar)
        return t1, s_inputs, counted_s_of

    def counted_bisect(*args):
        counts["bisections"] += 1
        return bisect(*args)

    monkeypatch.setattr(picard, "_certificate_bounds", counted_bounds)
    monkeypatch.setattr(picard, "_contraction_horizon", counted_bisect)
    scn = _s1_seeded(1, seed=1)
    segments = []
    solve_global(scn, 0.02, segments_out=segments)
    assert len(segments) == 11 and counts["bisections"] == 1
    in_solve, counts["s_of"] = counts["s_of"], 0
    # on its own a certificate always bisects: S(cap), the bisection steps
    # and S(t_bar), where the solve's later segments evaluate S(t_bar) only
    horizon_certificate(scn)
    assert counts["bisections"] == 2 and counts["s_of"] > 50
    assert in_solve == counts["s_of"] + 10
    horizon_certificate(scn)
    assert counts["bisections"] == 3
    assert picard._CONTRACTION_HORIZONS.get() is None


def test_solve_global_reruns_bit_for_bit():
    scn = _s1_seeded(1, seed=1)
    runs = []
    for _ in range(2):
        segments = []
        runs.append((solve_global(scn, 0.02, segments_out=segments), segments))
    (first, first_segments), (second, second_segments) = runs
    for name in ("times", "X", "V"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
    assert first_segments == second_segments


def test_iterate_leaving_the_tube_names_its_node():
    # with t_bar too long for the tube, the Taylor start (X0 + V0 t) leaves
    # it, so iteration starts from the constant path; its first iterate is
    # X0 + V0 t again, which must be refused before it is swept
    scn = build(V0=[[0.5]], T=3.0)
    cert = HorizonCertificate(t_range=3.0, t_contract=3.0, t_bar=3.0,
                              s_value=0.5, gamma_bar=0.1, radius=1.0)
    with pytest.raises(PicardError, match=r"tube at node 201 \(t = 2.01\)"):
        solve_local(scn, cert)


@pytest.mark.parametrize("dim, delta, horizon, quad", [
    (1, None, 0.02, None), (1, 0.1, 0.005, None), (2, None, 5e-5, None),
    # a coarse rule keeps the 2D ball averages cheap; both solves use it
    (2, 0.1, 5e-5, QuadratureSpec(space_nodes=12, time_nodes=4)),
], ids=["pointwise-1d", "nonlocal-1d", "pointwise-2d", "nonlocal-2d"])
def test_solve_global_matches_the_constant_start_oracle(dim, delta, horizon, quad):
    scn = _s1_seeded(dim, seed=1, delta=delta)
    mode = MODE_POINTWISE if delta is None else MODE_NONLOCAL
    segments = []
    path = solve_global(scn, horizon, tol=1e-8, mode=mode, quad=quad, segments_out=segments)
    oracle, sweeps = constant_start_global(scn, horizon, tol=1e-8, mode=mode, quad=quad)
    np.testing.assert_array_equal(path.times, oracle.times)
    assert np.abs(path.X - oracle.X).max() <= 1e-10
    assert np.abs(path.V - oracle.V).max() <= 1e-10
    assert len(sweeps) == len(segments) >= 2
    assert sum(s.iterations for s in segments) < sum(sweeps)


def test_start_path_extrapolates_a_cubic_exactly():
    rng = np.random.default_rng(5)
    coef = rng.normal(size=(4, 2, 3))  # V(t) = sum_k coef[k] t^k per axis and agent
    v_of = lambda t: sum(c * t[:, None, None] ** k for k, c in enumerate(coef))
    prev_times = np.linspace(0.1, 0.3, 21)
    previous = AgentPath(prev_times, np.zeros((21, 2, 3)), v_of(prev_times))
    X0, V0 = rng.normal(size=(2, 3)), previous.V[-1].copy()
    times = np.linspace(0.3, 0.45, 17)
    start, kind = _start_path(previous, times, X0, V0, radius=1e3)
    assert kind == START_EXTRAPOLATED
    np.testing.assert_array_equal(start.V[0], V0)
    np.testing.assert_array_equal(start.X[0], X0)
    np.testing.assert_allclose(start.V, v_of(times), rtol=0.0, atol=1e-12)
    assert _start_path(None, times, X0, V0, radius=1e3)[1] == START_CONSTANT


def test_start_path_extrapolation_equals_the_basis_loop():
    rng = np.random.default_rng(6)
    for nodes, agents in ((17, 2), (23, 3), (40, 1)):
        prev_times = np.sort(0.2 + rng.uniform(0.0, 0.05, nodes))
        V = rng.normal(size=(nodes, 2, agents))
        previous = AgentPath(prev_times, np.zeros_like(V), V)
        times = np.linspace(prev_times[-1], prev_times[-1] + 0.04, 17)
        start, kind = _start_path(previous, times, np.zeros((2, agents)), V[-1], radius=1e6)
        assert kind == START_EXTRAPOLATED
        np.testing.assert_array_equal(start.V, loop_cubic_extrapolation(previous, times))


def test_start_outside_the_tube_falls_back_to_the_constant_start():
    # a fast oscillating force: the cubic through the first segment's V
    # overshoots the tube on the second segment, though the solve itself
    # stays inside it
    scn = build(force=oscillating_force_law(2.0, 30.0), T=2.0)
    segments = []
    path = solve_global(scn, 2.0, tol=1e-10, segments_out=segments)
    assert [s.start for s in segments] == [START_TAYLOR, START_CONSTANT, START_EXTRAPOLATED]
    first = path.times <= segments[0].t_end
    previous = AgentPath(path.times[first], path.X[first], path.V[first])
    second = path.times[(path.times >= segments[1].t_start) & (path.times <= segments[1].t_end)]
    X1, V1 = previous.X[-1], previous.V[-1]
    start, kind = _start_path(previous, second, X1, V1, scn.R)
    assert kind == START_CONSTANT
    np.testing.assert_array_equal(start.X, AgentPath.constant(X1, V1, second).X)
    np.testing.assert_array_equal(start.V, AgentPath.constant(X1, V1, second).V)
    oracle, _ = constant_start_global(scn, 2.0, tol=1e-10)
    assert np.abs(path.X - oracle.X).max() <= 1e-10
    assert np.abs(path.V - oracle.V).max() <= 1e-10


def test_taylor_start_under_a_constant_force_takes_one_sweep():
    # V(t) = V0 + F (t - t0) is then the exact solution, and the trapezoid
    # rule integrates it and its X exactly
    fbar = np.array([0.7, -0.4])
    scn = build(force=constant_force_law(fbar), dim=2, X0=[[0.1, -0.2], [0.3, 0.0]],
                V0=[[0.2, 0.1], [-0.1, 0.3]], T=1.0)
    segments = []
    path = solve_global(scn, 1.0, tol=1e-10, segments_out=segments)
    assert len(segments) >= 2 and segments[0].start == START_TAYLOR
    assert [s.iterations for s in segments] == [1] * len(segments)
    force0 = np.broadcast_to(fbar[:, None], scn.X0.shape)
    times = np.linspace(0.0, 0.05, 17)
    start, kind = _start_path(None, times, scn.X0, scn.V0, scn.R, force0=force0)
    assert kind == START_TAYLOR
    np.testing.assert_array_equal(start.V[0], scn.V0)
    np.testing.assert_array_equal(start.X[0], scn.X0)
    exact_v = scn.V0 + force0 * times[:, None, None]
    np.testing.assert_allclose(path.V, scn.V0 + force0 * path.times[:, None, None],
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(start.V, exact_v, rtol=0.0, atol=1e-15)


def test_tube_exit_names_the_first_node_outside():
    times = np.linspace(0.0, 1.0, 5)
    X = np.zeros((5, 1, 2))
    X[2, 0, 1] = 0.5
    X[3, 0, 0] = 3.0
    path = AgentPath(times, X, np.zeros_like(X))
    assert _tube_exit(path, np.zeros((1, 2)), np.zeros((1, 2)), 1.0) == (3, 3.0, 0.0)
    assert _tube_exit(path, np.zeros((1, 2)), np.zeros((1, 2)), 5.0) is None
    # a node that is not finite is outside, whatever the radius
    X[1, 0, 1] = math.nan
    V = np.zeros_like(X)
    V[4, 0, 0] = math.inf
    k, dx, dv = _tube_exit(AgentPath(times, X, V), np.zeros((1, 2)), np.zeros((1, 2)), 5.0)
    assert k == 1 and math.isnan(dx) and dv == 0.0
    X[1, 0, 1] = 0.0
    assert _tube_exit(AgentPath(times, X, V), np.zeros((1, 2)), np.zeros((1, 2)), 5.0) \
        == (4, 0.0, math.inf)


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


@pytest.mark.parametrize("mode, delta, horizon", [
    (MODE_POINTWISE, None, 0.02),
    (MODE_NONLOCAL, 0.1, 0.005),
], ids=["pointwise", "nonlocal"])
def test_solve_global_matches_refined_field_quadrature(mode, delta, horizon):
    # the S1 reference scenario: the default rules against a wider, finer
    # spatial rule and twice the s-nodes, on the same certified segment grids
    scn = damped(X0=[[0.2, -0.3]], V0=[[0.3, 0.0]], delta=delta)
    default = solve_global(scn, horizon, tol=1e-10, mode=mode)
    refined = solve_global(scn, horizon, tol=1e-10, mode=mode,
                           quad=QuadratureSpec(u_max=16.0, space_nodes=192, time_nodes=64))
    np.testing.assert_array_equal(default.times, refined.times)
    assert np.abs(default.X - refined.X).max() <= 1e-11
    assert np.abs(default.V - refined.V).max() <= 1e-11


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


@pytest.mark.parametrize("horizon", [-1.0, math.nan, 1.5])
def test_gronwall_bound_rejects_a_horizon_outside_0_T(horizon):
    scn = build(force=constant_force_law([0.7]), V0=[[0.2]], T=1.0)
    with pytest.raises(ValueError, match=f"horizon {horizon}"):
        gronwall_bound_B(scn, horizon)


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


@pytest.mark.parametrize("scn", [
    build(force=constant_force_law([0.7]), V0=[[0.2]]),
    damped(X0=[[0.2, -0.3]], V0=[[0.3, 0.0]]),
    _s1(3),
    build(force=oscillating_force_law(1.3, 7.0), dim=2, X0=[[0.1, 0.2, 0.3], [0.0, -0.1, 0.4]]),
], ids=["constant", "damped-1d", "S1-3d", "oscillating-2d"])
def test_c0_constant_equals_the_loop_oracle(scn):
    for horizon in (1e-3, 0.37, 1.0):
        assert _c0_constant(scn, horizon) == loop_c0_constant(scn, horizon)


def test_c0_constant_rejects_a_non_finite_force():
    def force(t, X, V, W):
        out = np.zeros(np.shape(X))
        out[np.asarray(t) >= 0.5] = math.nan
        return out
    scn = build(force=ForceLaw(eval=force, lipschitz_w=0.0, lipschitz_xv=lambda r: 0.0,
                               lipschitz_global=0.0))
    with pytest.raises(ValueError, match="not finite at t = 0.5"):
        gronwall_bound_B(scn, 1.0)
