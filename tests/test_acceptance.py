"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from chemosim.field import BACKEND_FD, FieldProbe
from chemosim.kernel import (
    gamma_estimate_Cgamma,
    gaussian_I0,
    gaussian_I1,
    lambda0_bound,
)
from chemosim.paths import AgentPath
from chemosim.picard import (
    MODE_NONLOCAL,
    gronwall_bound_B,
    horizon_certificate,
    solve_global,
    solve_local,
)
from chemosim.quadrature import gauss_legendre
from chemosim.verify import (
    check_gamma_estimates,
    check_kernel_mass,
    check_prop1,
    gamma_samples,
    gronwall_oracle,
    mass_samples,
    residual_check,
    space_time_samples,
)

from util import (
    build,
    heat_gaussian_field,
    heat_gaussian_grad,
    heat_gaussian_hess,
    rk4_second_order,
)


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {description} {detail}")
    assert ok, f"criterion {num}: {description} {detail}"


def damped(chi=0.3, kappa_v=1.0, T=1.0, delta=None, g="agent-secretion"):
    return build(phi="gaussian", g=g, force="damped-chemotaxis",
                 force_kwargs={"chi": chi, "kappa_v": kappa_v},
                 X0=[[0.2]], V0=[[0.3]], T=T, delta=delta, M_override=1.0)


def test_criterion_01_kernel_mass():
    t0 = time.perf_counter()
    worst = 0.0
    for coeff, dim in (("heat", 1), ("heat", 2), ("anisotropic-constant", 2)):
        scn = build(coeff=coeff, dim=dim)
        rep = check_kernel_mass(scn.kernel, mass_samples(dim, 20, 1.0, seed=0))
        worst = max(worst, rep.worst_ratio - 1.0)
    elapsed = time.perf_counter() - t0
    report(1, "kernel mass within 1e-6 over 20 samples per preset",
           worst < 1e-6 and elapsed < 10.0,
           f"(worst dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_kernel_decay_envelopes():
    ok = True
    details = []
    for coeff, dim in (("heat", 1), ("anisotropic-constant", 2)):
        scn = build(coeff=coeff, dim=dim, phi="gaussian")
        params = scn.estimate_params
        assert params.lambda0_star == pytest.approx(0.9 * params.lambda0)
        samples = gamma_samples(dim, 1000, seed=0)
        for order in (0, 1, 2):
            own_c = gamma_estimate_Cgamma(scn.kernel, params, order)
            rep = check_gamma_estimates(scn.kernel, params, samples, c_gamma=own_c)[order]
            ok = ok and rep.passed
            halved = check_gamma_estimates(scn.kernel, params, samples,
                                           c_gamma=own_c / 2.0)[order]
            ok = ok and not halved.passed
            details.append(f"{coeff}/k{order}:{rep.worst_ratio:.3f}")
    report(2, "decay envelopes pass with oracle constants and fail halved",
           ok, "(" + " ".join(details) + ")")


def test_criterion_03_field_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (1, 2):
        scn = build(phi="gaussian", dim=dim)
        path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 1, 5))
        probe = FieldProbe(scn, path)
        pts, times = space_time_samples(dim, 120, box=2.0, t_range=(0.05, 1.0), seed=3)
        for x, t in zip(pts, times.tolist()):
            f_ex = heat_gaussian_field(x, t, dim)
            g_ex = heat_gaussian_grad(x, t, dim)
            h_ex = heat_gaussian_hess(x, t, dim)
            worst = max(worst, abs(probe.value(x, t) - f_ex) / abs(f_ex))
            worst = max(worst, np.abs(probe.gradient(x, t) - g_ex).max()
                        / max(np.abs(g_ex).max(), 1e-2))
            worst = max(worst, np.abs(probe.hessian(x, t) - h_ex).max()
                        / max(np.abs(h_ex).max(), 1e-2))
    elapsed = time.perf_counter() - t0
    report(3, "field/gradient/hessian match the analytic evolution within 1e-4",
           worst < 1e-4 and elapsed < 60.0, f"(worst rel {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_backend_agreement():
    worst = 0.0
    for coeff, dim in (("heat", 1), ("heat", 2), ("anisotropic-constant", 2)):
        scn = build(coeff=coeff, phi="gaussian", dim=dim, T=0.5)
        path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 0.5, 5))
        closed = FieldProbe(scn, path)
        fd = FieldProbe(scn, path, backend=BACKEND_FD)
        axes = [np.linspace(-1.5, 1.5, 7)] * dim
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        for t in (0.25, 0.5):
            fc = closed.value_many(pts, t)
            ff = fd.value_many(pts, t)
            worst = max(worst, np.abs(fc - ff).max() / np.abs(fc).max())
    report(4, "finite-difference and closed-form fields agree within 5e-3",
           worst < 5e-3, f"(worst rel {worst:.2e})")


def test_criterion_05_derivative_bound_certificates():
    ok = True
    details = []
    for name, scn in (("abs-sqrt", build(phi="abs-sqrt")),
                      ("secretion", build(phi="zero", g="agent-secretion"))):
        path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 1, 9))
        probe = FieldProbe(scn, path)
        samples = space_time_samples(1, 1000, box=3.0, t_range=(0.01, 1.0), seed=2)
        rep_g, rep_h = check_prop1(scn, probe, samples)
        ok = ok and rep_g.passed and rep_h.passed
        ok = ok and rep_g.worst_ratio <= 1.01 and rep_h.worst_ratio <= 1.01
        details.append(f"{name}: g{rep_g.worst_ratio:.3f} h{rep_h.worst_ratio:.3f}")
    report(5, "derivative bounds certified at 1000 samples (ratio <= 1.01)",
           ok, "(" + "; ".join(details) + ")")


def test_criterion_06_contraction():
    scn = damped()
    cert = horizon_certificate(scn)
    path, history = solve_local(scn, cert, tol=1e-8, max_iters=30)
    ratios = [history[i + 1] / history[i] for i in range(len(history) - 1)
              if history[i] > 1e-14]
    ok = len(history) <= 30 and all(r <= cert.s_value + 0.05 for r in ratios)
    report(6, "Picard ratios below certified modulus, convergence within 30 iterations",
           ok, f"(iters {len(history)}, S {cert.s_value:.3f}, "
               f"max ratio {max(ratios) if ratios else 0:.4f})")


def test_criterion_07_fixed_point_residuals():
    presets = [
        ("zero-force", build(V0=[[0.4]], T=2.0)),
        ("damped-chemotaxis", damped()),
        ("pure-chemotaxis", build(phi="gaussian", g="agent-secretion",
                                  force="pure-chemotaxis", force_kwargs={"chi": 0.3},
                                  X0=[[0.2]], V0=[[0.3]], M_override=1.0)),
        ("saturating-chemotaxis", build(phi="gaussian", g="agent-secretion",
                                        force="saturating-chemotaxis",
                                        force_kwargs={"chi": 0.3},
                                        X0=[[0.2]], V0=[[0.3]], M_override=1.0)),
    ]
    worst = 0.0
    for name, scn in presets:
        cert = horizon_certificate(scn)
        path, _ = solve_local(scn, cert, tol=1e-8, dt=1e-2)
        probe = FieldProbe(scn, path)
        rep = residual_check(path, scn, probe, tolerance=1e-3)
        worst = max(worst, rep.worst_ratio - 1.0)
        assert rep.passed, name
    report(7, "converged-path residuals below 1e-3 on all presets",
           worst < 1e-3, f"(worst {worst:.2e})")


def test_criterion_08_global_continuation():
    scn = damped(chi=0.0, g="zero", T=2.0)
    path = solve_global(scn, 2.0, tol=1e-10, dt=1e-2)
    t_o, x_o, v_o = rk4_second_order(lambda t, x, v: -v, scn.X0, scn.V0, 2.0, 1e-4)
    gap = max(np.abs(path.X[:, 0, 0] - np.interp(path.times, t_o, x_o[:, 0, 0])).max(),
              np.abs(path.V[:, 0, 0] - np.interp(path.times, t_o, v_o[:, 0, 0])).max())
    ok = gap < 1e-3

    bounded = True
    h6_h7_presets = (
        scn,                                      # damped, no coupling
        build(V0=[[0.3]], T=1.0, M_override=1.0),  # zero force
        damped(chi=0.05, T=0.5),                  # damped chemotaxis
        build(phi="gaussian", g="agent-secretion", force="pure-chemotaxis",
              force_kwargs={"chi": 0.05}, X0=[[0.1]], V0=[[0.2]], T=0.5,
              M_override=1.0),
        build(phi="gaussian", g="agent-secretion", force="saturating-chemotaxis",
              force_kwargs={"chi": 0.05}, X0=[[0.1]], V0=[[0.2]], T=0.5,
              M_override=1.0),
    )
    for scn_b in h6_h7_presets:
        assert scn_b.satisfies_global_hypotheses
        p = solve_global(scn_b, scn_b.growth.T, tol=1e-8)
        dev = np.sqrt(
            np.linalg.norm((p.X - scn_b.X0).reshape(len(p.times), -1), axis=1) ** 2
            + np.linalg.norm((p.V - scn_b.V0).reshape(len(p.times), -1), axis=1) ** 2
        ).max()
        bounded = bounded and dev <= gronwall_bound_B(scn_b, scn_b.growth.T)
    report(8, "stitched solution matches the high-order oracle and stays under B",
           ok and bounded, f"(oracle gap {gap:.2e}, {len(h6_h7_presets)} presets)")


def test_criterion_09_nonlocal_consistency():
    scn = build(phi="gaussian")
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 1, 5))
    probe = FieldProbe(scn, path)
    x = np.array([0.7])
    grad = probe.gradient(x, 0.5)
    errs = [abs(probe.ball_average_gradient(x, 0.5, d)[0] - grad[0])
            for d in (0.2, 0.1, 0.05)]
    orders = [math.log(errs[i] / errs[i + 1], 2.0) for i in range(2)]
    ok = min(orders) >= 1.8

    base = damped(chi=0.05, T=0.5)
    p_point = solve_global(base, 0.4, tol=1e-10)
    gaps = []
    for d in (0.2, 0.1, 0.05):
        scn_d = damped(chi=0.05, T=0.5, delta=d)
        p_non = solve_global(scn_d, 0.4, tol=1e-10, mode=MODE_NONLOCAL)
        gaps.append(max(np.abs(p_non.X - p_point.X).max(),
                        np.abs(p_non.V - p_point.V).max()))
    monotone = gaps[0] > gaps[1] > gaps[2]
    report(9, "ball-average converges at order >= 1.8 and mode gap shrinks monotonically",
           ok and monotone,
           f"(orders {orders[0]:.2f},{orders[1]:.2f}; gaps {gaps[0]:.1e}>{gaps[1]:.1e}>{gaps[2]:.1e})")


def test_criterion_10_integral_inequality():
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    r1 = gronwall_oracle(2.0, lambda t: 0.0, lambda s, t: 0.0, grid, tolerance=1e-3)
    r2 = gronwall_oracle(1.0, lambda t: 1.0, lambda s, t: 0.0, grid, tolerance=1e-3)
    r3 = gronwall_oracle(1.0, lambda t: 0.0, lambda s, t: 1.0, grid, tolerance=1e-3)
    ok = r1.passed and r2.passed and r3.passed
    report(10, "integral-inequality oracle passes its three canonical cases",
           ok, f"(ratios {r1.worst_ratio:.4f}, {r2.worst_ratio:.4f}, {r3.worst_ratio:.4f})")


def test_criterion_11_closed_form_integrals():
    rng = np.random.default_rng(19)
    worst = 0.0
    for dim in (1, 2, 3):
        for gamma in np.concatenate([[0.1, 10.0], rng.uniform(0.1, 10.0, 3)]):
            half = 10.0 / math.sqrt(gamma)
            y, w = gauss_legendre(-half, half, 200)
            base = float(w @ np.exp(-gamma * y * y))
            worst = max(worst, abs(gaussian_I0(gamma, dim) - base**dim) / base**dim)
            r, wr = gauss_legendre(0.0, half, 400)
            from chemosim.kernel import sphere_area
            radial = float(wr @ (r**dim * np.exp(-gamma * r * r))) * sphere_area(dim)
            worst = max(worst, abs(gaussian_I1(gamma, dim) - radial) / radial)
    spd_ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        m = rng.normal(size=(dim, dim))
        a = m @ m.T + 0.05 * np.eye(dim)
        eigs = np.linalg.eigvalsh(a)
        a_inv = np.linalg.inv(a)
        etas = rng.normal(size=(32, dim))
        etas /= np.linalg.norm(etas, axis=1, keepdims=True)
        quad_min = float(np.einsum("ki,ij,kj->k", etas, a_inv, etas).min())
        spd_ok = spd_ok and lambda0_bound(float(eigs.min()), float(eigs.max())) \
            <= quad_min * (1.0 + 1e-9)
    report(11, "closed-form Gaussian integrals and the decay-rate bound verified",
           worst < 1e-6 and spd_ok, f"(worst rel {worst:.2e}, 100 SPD matrices)")


def test_criterion_12_determinism(tmp_path):
    import json

    cfg = {
        "dimension": 1, "horizon": 1.0, "coefficients": "heat",
        "phi": "gaussian", "g": "zero",
        "force": {"name": "damped-chemotaxis", "chi": 0.0, "kappa_v": 1.0},
        "X0": [[0.0]], "V0": [[0.5]],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "chemosim.cli", "simulate", "--config", str(p),
             "--output-dir", str(out), "--field-snapshot", "0.5", "--field-snapshot", "1"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    same_traj = (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()
    same_snap = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in ("field_t0.5.csv", "field_t1.csv"))
    report(12, "repeated simulate runs are byte-identical", same_traj and same_snap)
