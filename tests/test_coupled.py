"""Wider configurations: multiple agents, two dimensions, positive Gaussian
weight, the finite-difference backend inside the iteration, and variable
coefficients with a hand-built certificate."""

import dataclasses
import math

import numpy as np
import pytest

from chemosim.field import BACKEND_FD, FieldProbe, QuadratureSpec
from chemosim.kernel import default_estimate_params
from chemosim.paths import AgentPath
from chemosim.picard import (
    MODE_NONLOCAL,
    HorizonCertificate,
    horizon_certificate,
    solve_global,
    solve_local,
)
from chemosim.verify import residual_check

from util import build


def test_two_agents_secretion_local_solve_and_residual():
    scn = build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
                force_kwargs={"chi": 0.2, "kappa_v": 1.0},
                X0=[[-0.4, 0.4]], V0=[[0.1, -0.1]], M_override=2.0)
    assert scn.n == 2
    cert = horizon_certificate(scn)
    path, history = solve_local(scn, cert, tol=1e-9)
    assert history[-1] < 1e-9
    probe = FieldProbe(scn, path)
    rep = residual_check(path, scn, probe, tolerance=1e-3)
    assert rep.passed
    # agents secrete symmetrically, so the mirror symmetry of the initial
    # state is preserved by the dynamics
    np.testing.assert_allclose(path.X[:, 0, 0], -path.X[:, 0, 1], atol=1e-9)


def test_two_dimensional_chemotaxis_solve():
    scn = build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
                force_kwargs={"chi": 0.2, "kappa_v": 1.0}, dim=2,
                X0=[[0.3], [0.0]], V0=[[0.0], [0.2]], M_override=1.0)
    cert = horizon_certificate(scn)
    path, history = solve_local(scn, cert, tol=1e-8)
    assert history[-1] < 1e-8
    probe = FieldProbe(scn, path)
    rep = residual_check(path, scn, probe, tolerance=1e-3)
    assert rep.passed


def test_positive_gaussian_weight_certificate_and_solve():
    # declaring a larger envelope (C = 0.2) is valid for bounded data and
    # exercises the kappa > 0 branches of the certificate
    scn = build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
                force_kwargs={"chi": 0.2, "kappa_v": 1.0},
                X0=[[0.2]], V0=[[0.3]], M_override=1.0, C_override=0.2)
    params = scn.estimate_params
    assert params.kappa > 0.0
    cert = horizon_certificate(scn)
    assert cert.gamma_bar > 0.0
    assert cert.t_bar < params.lambda0_star / (8.0 * 0.2)
    path, history = solve_local(scn, cert, tol=1e-8)
    assert history[-1] < 1e-8


def test_growth_constant_near_pole_keeps_decay_split_admissible():
    scn = build(phi="gaussian", C_override=0.24)  # 4*T*C = 0.96 close to lambda0 = 1
    params = scn.estimate_params
    assert 4.0 * scn.growth.T * 0.24 < params.lambda0_star < params.lambda0
    assert params.big_k > 0.0


def test_fd_backend_inside_picard_matches_closed_form():
    scn = build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
                force_kwargs={"chi": 0.2, "kappa_v": 1.0},
                X0=[[0.2]], V0=[[0.3]], M_override=1.0)
    cert = horizon_certificate(scn)
    quad = QuadratureSpec(fd_h=0.02)
    # coefficients not declared constant take the FD backend
    scn_fd = dataclasses.replace(scn, coeffs=dataclasses.replace(scn.coeffs, is_constant=False))
    p_fd, _ = solve_local(scn_fd, cert, tol=1e-8, quad=quad)
    p_cf, _ = solve_local(scn, cert, tol=1e-8)
    gap = p_fd.sup_distance(p_cf)
    assert gap < 1e-3


def test_variable_coefficients_with_manual_certificate():
    # variable-sine coefficients have no closed-form kernel; with a
    # hand-built certificate the solve takes the FD backend on its own and
    # still yields a converged solution
    scn = build(coeff="variable-sine", phi="gaussian", g="agent-secretion",
                force="damped-chemotaxis", force_kwargs={"chi": 0.1, "kappa_v": 1.0},
                X0=[[0.2]], V0=[[0.3]], M_override=1.0)
    cert = HorizonCertificate(t_range=0.1, t_contract=0.1, t_bar=0.05,
                              s_value=0.5, gamma_bar=0.1, radius=1.0)
    path, history = solve_local(scn, cert, tol=1e-7)
    assert history[-1] < 1e-7
    probe = FieldProbe(scn, path)
    rep = residual_check(path, scn, probe, tolerance=1e-3)
    assert rep.passed


def test_nonlocal_residual_check():
    scn = build(phi="gaussian", g="agent-secretion", force="damped-chemotaxis",
                force_kwargs={"chi": 0.05, "kappa_v": 1.0},
                X0=[[0.2]], V0=[[0.3]], T=0.5, delta=0.1, M_override=1.0)
    cert = horizon_certificate(scn, mode=MODE_NONLOCAL)
    path, _ = solve_local(scn, cert, tol=1e-8)
    probe = FieldProbe(scn, path)
    rep = residual_check(path, scn, probe, mode=MODE_NONLOCAL, tolerance=1e-3)
    assert rep.passed
    # checking the nonlocal path against pointwise sensing must look worse
    rep_pt = residual_check(path, scn, probe, tolerance=1e-3)
    assert rep_pt.worst_ratio >= rep.worst_ratio


def test_solve_global_rejects_horizon_beyond_scenario():
    scn = build(V0=[[0.4]], T=1.0)
    with pytest.raises(ValueError, match="horizon"):
        solve_global(scn, 2.0)


def test_solve_global_rejects_nan_horizon():
    scn = build(V0=[[0.4]], T=1.0)
    with pytest.raises(ValueError, match="horizon"):
        solve_global(scn, float("nan"))


def test_three_dimensional_kernel_mass():
    from chemosim.verify import check_kernel_mass, mass_samples

    scn = build(dim=3)
    rep = check_kernel_mass(scn.kernel, mass_samples(3, 5, 1.0, seed=0), nodes=48)
    assert rep.passed


def test_fd_backend_hessian_close_to_analytic():
    scn = build(phi="gaussian", T=0.5)
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 0.5, 5))
    probe = FieldProbe(scn, path, backend=BACKEND_FD)
    x = np.array([0.5])
    sig = 1.0 + 4.0 * 0.5
    exact = (4.0 * 0.25 / sig**2 - 2.0 / sig) * sig**-0.5 * math.exp(-0.25 / sig)
    assert probe.hessian(x, 0.5)[0, 0] == pytest.approx(exact, rel=2e-2)
