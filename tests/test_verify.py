"""Checkers: each passes on its positive preset and fails its falsification control."""

import math

import numpy as np
import pytest

from chemosim.field import FieldProbe
from chemosim.kernel import gamma_estimate_Cgamma, make_kernel
from chemosim.paths import AgentPath
from chemosim.presets import g_preset, inline_coefficients, phi_preset
from chemosim.verify import (
    check_gamma_estimates,
    check_holder,
    check_kernel_mass,
    check_prop1,
    gamma_samples,
    gronwall_oracle,
    mass_samples,
    residual_check,
    space_time_samples,
)

from chemosim.cli import _holder_pairs, _holder_pairs_two_arg

from util import build, loop_gamma_estimates, loop_gronwall_oracle, loop_holder, loop_prop1


# -- kernel mass -------------------------------------------------------------------


def test_mass_heat_passes():
    scn = build()
    rep = check_kernel_mass(scn.kernel, mass_samples(1, 20, 1.0, seed=0))
    assert rep.passed
    assert rep.worst_ratio - 1.0 < 1e-8


def test_mass_anisotropic_passes():
    scn = build(coeff="anisotropic-constant", dim=2)
    rep = check_kernel_mass(scn.kernel, mass_samples(2, 20, 1.0, seed=0))
    assert rep.passed
    assert rep.worst_ratio - 1.0 < 1e-6


def test_mass_rejects_reaction_rate():
    kern = make_kernel(inline_coefficients([[1.0]], c=0.3))
    with pytest.raises(ValueError, match="reaction"):
        check_kernel_mass(kern, mass_samples(1, 5, 1.0, seed=0))


def test_sample_generators_reject_inverted_time_ranges():
    with pytest.raises(ValueError, match="inverted"):
        mass_samples(1, 5, t_max=0.005)
    with pytest.raises(ValueError, match="inverted"):
        gamma_samples(1, 5, t_max=0.005)
    with pytest.raises(ValueError, match="inverted"):
        space_time_samples(1, 5, t_range=(0.01, 0.005))
    assert all(0.0005 <= t <= 0.005 for _, t, _ in mass_samples(1, 5, 0.005, t_min=0.0005))
    assert all(0.0005 <= s <= 0.005 for _, s in gamma_samples(1, 5, t_max=0.005, t_min=0.0005))


# -- kernel decay envelopes ----------------------------------------------------------


@pytest.fixture(scope="module")
def heat_setup():
    scn = build(phi="gaussian")
    return scn.kernel, scn.estimate_params


def test_gamma_estimates_pass_with_shared_constant(heat_setup):
    kern, params = heat_setup
    reports = check_gamma_estimates(kern, params, gamma_samples(1, 1000, seed=0))
    assert all(reports[k].passed for k in (0, 1, 2))


def test_gamma_estimates_tight_per_order(heat_setup):
    kern, params = heat_setup
    samples = gamma_samples(1, 1000, seed=0)
    for order in (0, 1, 2):
        own_c = gamma_estimate_Cgamma(kern, params, order)
        rep = check_gamma_estimates(kern, params, samples, c_gamma=own_c)[order]
        assert rep.passed
        assert 0.99 <= rep.worst_ratio <= 1.0 + rep.tolerance
    # the order-0 envelope peaks at coincident points
    rep0 = check_gamma_estimates(kern, params, samples,
                                 c_gamma=gamma_estimate_Cgamma(kern, params, 0))[0]
    offset, s = rep0.worst_sample
    assert float(np.linalg.norm(offset)) / math.sqrt(s) < 0.1


def test_gamma_estimates_halved_constant_fails_near_maximizer(heat_setup):
    kern, params = heat_setup
    samples = gamma_samples(1, 1000, seed=0)
    own_c = gamma_estimate_Cgamma(kern, params, 1)
    rep = check_gamma_estimates(kern, params, samples, c_gamma=own_c / 2.0)[1]
    assert not rep.passed
    offset, s = rep.worst_sample
    z_worst = float(np.linalg.norm(offset)) / math.sqrt(s)
    z_star = math.sqrt(2.0 / (1.0 - params.lambda0_star))
    assert abs(z_worst - z_star) < 0.5


def test_gamma_estimates_reject_bad_decay_rate(heat_setup):
    kern, params = heat_setup
    from chemosim.kernel import EstimateParams

    bad = EstimateParams(dimension=1, alpha=0.5, lambda0=0.9, lambda0_star=0.89,
                         nu0=(0.9 - 0.89) / 4.0, c_gamma=1.0)
    bad.lambda0_star = 0.95  # force the inconsistency after construction
    with pytest.raises(ValueError):
        check_gamma_estimates(kern, bad, gamma_samples(1, 10, seed=0))


@pytest.mark.parametrize("coeff,dim", [("heat", 1), ("anisotropic-constant", 2),
                                       ("anisotropic-constant", 3)])
def test_gamma_estimates_match_per_sample_loop_oracle(coeff, dim):
    scn = build(coeff=coeff, phi="gaussian", dim=dim)
    kern, params = scn.kernel, scn.estimate_params
    for samples in (gamma_samples(dim, 300, seed=1), gamma_samples(dim, 200, seed=977), []):
        got = check_gamma_estimates(kern, params, samples)
        want = loop_gamma_estimates(kern, params, samples)
        for order in (0, 1, 2):
            g, w = got[order].to_dict(), want[order].to_dict()
            # array and scalar kernel calls may round the last bit apart
            assert g.pop("worst_ratio") == pytest.approx(w.pop("worst_ratio"), rel=1e-14, abs=0.0)
            assert g == w


# -- derivative bounds ----------------------------------------------------------------


def test_prop1_trivial_zero_data():
    scn = build(phi="zero", g="zero")
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 1, 5))
    probe = FieldProbe(scn, path)
    rep_g, rep_h = check_prop1(scn, probe, space_time_samples(1, 50, seed=1))
    assert rep_g.passed and rep_h.passed
    assert rep_g.worst_ratio == 0.0


def test_prop1_abs_sqrt_passes():
    scn = build(phi="abs-sqrt")
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 1, 5))
    probe = FieldProbe(scn, path)
    rep_g, rep_h = check_prop1(scn, probe, space_time_samples(1, 300, seed=2))
    assert rep_g.passed and rep_h.passed


def moving_probe(scn, t_end=1.0, nodes=9):
    times = np.linspace(0.0, t_end, nodes)
    X = scn.X0 + 0.3 * np.sin(7.0 * times)[:, None, None]
    return FieldProbe(scn, AgentPath(times, X, np.zeros_like(X)))


@pytest.mark.parametrize("k_scale", [1.0, 0.02])
@pytest.mark.parametrize("data", [
    {"phi": "zero", "g": "zero"},  # every ratio ties at 0: the first sample is the worst
    {"phi": "abs-sqrt"},
    {"phi": "gaussian", "g": "agent-secretion", "X0": [[0.2, -0.3]]},
])
def test_prop1_matches_per_sample_loop_oracle(data, k_scale):
    scn = build(**data)
    probe = moving_probe(scn)
    samples = space_time_samples(1, 60, seed=4)
    for got, want in zip(check_prop1(scn, probe, samples, k_scale=k_scale),
                         loop_prop1(scn, probe, samples, k_scale=k_scale)):
        assert got.to_dict() == want.to_dict()
    for got, want in zip(check_prop1(scn, probe, []), loop_prop1(scn, probe, [])):
        assert got.to_dict() == want.to_dict()


def test_prop1_rejects_a_sample_at_time_zero(monkeypatch):
    scn = build(phi="gaussian")
    probe = moving_probe(scn)

    def no_probe_calls(*args, **kwargs):
        raise AssertionError("the probe was called before the samples were checked")

    monkeypatch.setattr(FieldProbe, "_batch", no_probe_calls)
    with pytest.raises(ValueError, match=r"sample 1 has t = 0\.0"):
        check_prop1(scn, probe, [(np.array([0.1]), 0.5), (np.array([0.3]), 0.0)])
    with pytest.raises(ValueError, match=r"sample 0 has t = 0\.0"):
        check_prop1(scn, probe, [(np.array([0.3]), 0.0)])


def test_prop1_falsification_control():
    scn = build(phi="abs-sqrt")
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 1, 5))
    probe = FieldProbe(scn, path)
    rep_g, rep_h = check_prop1(scn, probe, space_time_samples(1, 100, seed=2), k_scale=0.02)
    assert not rep_g.passed
    assert not rep_h.passed


# -- Hoelder envelopes -------------------------------------------------------------------


def test_holder_abs_sqrt_passes():
    phi, h, c, _ = phi_preset("abs-sqrt")
    rng = np.random.default_rng(4)
    pairs = [(rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)) for _ in range(2000)]
    rep = check_holder(phi, 0.5, c, h, pairs)
    assert rep.passed


def test_holder_constant_function_with_zero_constant():
    const = lambda x: np.full(np.asarray(x).shape[:-1], 2.5)
    rng = np.random.default_rng(5)
    pairs = [(rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)) for _ in range(100)]
    rep = check_holder(const, 0.5, 0.0, 0.0, pairs)
    assert rep.passed
    assert rep.worst_ratio == 0.0


def test_holder_agent_secretion_two_argument():
    n = 2
    g, hr, c, _ = g_preset("agent-secretion", n)
    rng = np.random.default_rng(6)
    radius = 2.0
    pairs = []
    for _ in range(10_000):
        x, y = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        xx = rng.uniform(-0.9, 0.9, (1, n))
        yy = rng.uniform(-0.9, 0.9, (1, n))
        pairs.append(((x, xx), (y, yy)))
    rep = check_holder(g, 0.5, c, hr(radius), pairs)
    assert rep.passed


def test_holder_falsification_control():
    phi, h, c, _ = phi_preset("abs-sqrt")
    rng = np.random.default_rng(7)
    pairs = [(rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)) for _ in range(500)]
    rep = check_holder(phi, 0.5, c, h / 10.0, pairs)
    assert not rep.passed


@pytest.mark.parametrize("seed", [1, 977])
@pytest.mark.parametrize("dim", [1, 2])
def test_holder_matches_per_pair_loop_oracle(seed, dim):
    scn = build(phi="gaussian", g="agent-secretion", dim=dim, X0=np.zeros((dim, 2)))
    growth, radius = scn.growth, 2.0
    cases = [
        (scn.phi, scn.alpha, growth.C, growth.H, _holder_pairs(scn, 300, seed)),
        (scn.g, scn.alpha, growth.C, growth.HR(radius),
         _holder_pairs_two_arg(scn, 300, seed, radius)),
        # a power other than 1/2 and a nonzero weight, where numpy's array
        # routines round apart from the scalar ones
        (phi_preset("abs-sqrt")[0], 0.37, 0.05, 0.3, _holder_pairs(scn, 300, seed)),
        (scn.g, 0.61, 0.02, 0.5, _holder_pairs_two_arg(scn, 300, seed, radius)),
        (scn.phi, scn.alpha, growth.C, growth.H, []),
        # every ratio 0: no worst pair; every pair twice: the first copy wins
        (lambda x: np.full(x.shape[:-1], 2.5), scn.alpha, 0.0, 1.0, _holder_pairs(scn, 50, seed)),
        (scn.phi, scn.alpha, growth.C, growth.H, 2 * _holder_pairs(scn, 50, seed)),
    ]
    for fn, alpha, c, h, pairs in cases:
        got = check_holder(fn, alpha, c, h, pairs)
        want = loop_holder(fn, alpha, c, h, pairs)
        assert got.to_dict() == want.to_dict()
        if want.worst_sample is None:
            assert got.worst_sample is None
        else:
            assert all(a is b for a, b in zip(got.worst_sample, want.worst_sample))


# -- integral inequality --------------------------------------------------------------------


GRID = np.arange(0.0, 1.0 + 1e-12, 1e-3)


def test_gronwall_zero_kernels_equality():
    rep = gronwall_oracle(2.0, lambda t: 0.0, lambda s, t: 0.0, GRID)
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_gronwall_constant_single_kernel_classical():
    rep = gronwall_oracle(1.0, lambda t: 1.0, lambda s, t: 0.0, GRID)
    assert rep.passed
    # equality case: the extremal is alpha * e^t, matching the bound within margin
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-6)


def test_gronwall_double_integral_kernel():
    rep = gronwall_oracle(1.0, lambda t: 0.0, lambda s, t: 1.0, GRID)
    assert rep.passed
    # extremal alpha*cosh(t) stays below alpha*e^(t^2/2) away from zero
    assert rep.worst_ratio <= 1.0 + 1e-3


def test_gronwall_discrete_extremal_matches_cosh():
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    # reconstruct the extremal by hand to freeze its value at the endpoint
    rep = gronwall_oracle(1.0, lambda t: 0.0, lambda s, t: 1.0, grid)
    # bound at t=1 is e^0.5; the extremal is cosh(1): their ratio is the
    # worst deviation margin we must stay under
    assert math.cosh(1.0) / math.exp(0.5) < 1.0
    assert rep.worst_ratio < 1.0 + 1e-3


def test_gronwall_rejects_negative_inputs():
    with pytest.raises(ValueError):
        gronwall_oracle(1.0, lambda t: -1.0, lambda s, t: 0.0, GRID)


GRONWALL_CASES = {
    # the three `chemosim verify --suite gronwall` cases
    "zero-kernels": (lambda t: 0.0, lambda s, t: 0.0),
    "constant-single": (lambda t: 1.0, lambda s, t: 0.0),
    "double-integral": (lambda t: 0.0, lambda s, t: 1.0),
    # array-aware kernels that vary along both arguments
    "varying": (lambda t: 1.0 + t, lambda s, t: np.exp(s - t)),
}


@pytest.mark.parametrize("case", sorted(GRONWALL_CASES))
def test_gronwall_matches_double_loop_oracle(case):
    w, v = GRONWALL_CASES[case]
    rep = gronwall_oracle(1.0, w, v, GRID)
    ref = loop_gronwall_oracle(1.0, w, v, GRID)
    assert rep.worst_ratio == ref.worst_ratio
    assert rep.worst_sample == ref.worst_sample
    assert rep.passed == ref.passed


def test_gronwall_never_evaluates_v_above_the_diagonal():
    calls = []

    def v(s, t):
        calls.append((np.array(s), t))
        return np.exp(s - t)

    gronwall_oracle(1.0, lambda t: 0.0, v, GRID)
    assert len(calls) == len(GRID)
    assert all(np.all(s <= t) for s, t in calls)


def test_gronwall_rejects_one_negative_v_entry():
    def v(s, t):
        return np.where((s == GRID[3]) & (t == GRID[7]), -1e-3, 1.0)

    with pytest.raises(ValueError, match="v must be nonnegative"):
        gronwall_oracle(1.0, lambda t: 0.0, v, GRID)


# -- residuals ----------------------------------------------------------------------------


def test_residual_exact_free_flight():
    scn = build(V0=[[0.4]])
    times = np.linspace(0.0, 0.5, 51)
    X = (0.4 * times)[:, None, None]
    V = np.full((51, 1, 1), 0.4)
    path = AgentPath(times, X, V)
    probe = FieldProbe(scn, path)
    rep = residual_check(path, scn, probe, tolerance=1e-10)
    assert rep.passed


def test_residual_perturbed_path_detected():
    scn = build(V0=[[0.4]])
    times = np.linspace(0.0, 0.5, 51)
    X = (0.4 * times)[:, None, None]
    V = np.full((51, 1, 1), 0.5)  # velocity off by 0.1
    path = AgentPath(times, X, V)
    probe = FieldProbe(scn, path)
    rep = residual_check(path, scn, probe, tolerance=1e-3)
    assert not rep.passed
    assert rep.worst_ratio - 1.0 >= 0.09


def test_residual_needs_three_nodes():
    scn = build()
    path = AgentPath.constant(scn.X0, scn.V0, np.array([0.0, 1.0]))
    probe = FieldProbe(scn, path)
    with pytest.raises(ValueError, match="coarse"):
        residual_check(path, scn, probe)


# -- reproducibility ------------------------------------------------------------------------


def test_reports_deterministic_given_seed():
    scn = build(coeff="anisotropic-constant", dim=2)
    r1 = check_kernel_mass(scn.kernel, mass_samples(2, 20, 1.0, seed=42))
    r2 = check_kernel_mass(scn.kernel, mass_samples(2, 20, 1.0, seed=42))
    assert r1.worst_ratio == r2.worst_ratio
    assert np.array_equal(r1.worst_sample[0], r2.worst_sample[0])
