"""Checkers: each passes on its positive preset and fails its falsification control."""

import math
import tracemalloc
import warnings

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
    check_phi_hessian,
    check_prop1,
    gamma_samples,
    gronwall_oracle,
    holder_pairs,
    holder_pairs_two_arg,
    mass_samples,
    residual_check,
    space_time_samples,
)
from chemosim.kernel import Kernel

from util import (
    build,
    loop_gamma_estimates,
    loop_gamma_samples,
    loop_gronwall_oracle,
    loop_holder,
    loop_holder_pairs,
    loop_holder_pairs_two_arg,
    loop_kernel_mass_deviations,
    loop_mass_samples,
    loop_prop1,
    loop_space_time_samples,
    sample_rows,
)


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


@pytest.mark.parametrize("coeff,dim,count", [
    ("heat", 1, 50), ("anisotropic-constant", 1, 50),
    ("anisotropic-constant", 2, 7), ("anisotropic-constant", 3, 3),
])
def test_mass_deviations_match_the_per_sample_loop(monkeypatch, coeff, dim, count):
    import chemosim.verify as ver

    scn = build(coeff=coeff, dim=dim)
    samples = mass_samples(dim, count, 1.0, seed=977)
    seen = []
    reduce_ = ver._reduce

    def keep_ratios(rep, ratios, *args, **kwargs):
        seen.append(np.asarray(ratios))
        return reduce_(rep, ratios, *args, **kwargs)

    monkeypatch.setattr(ver, "_reduce", keep_ratios)
    rep = check_kernel_mass(scn.kernel, samples)
    want = loop_kernel_mass_deviations(scn.kernel, samples)
    assert np.abs(seen[0] - want).max() <= 1e-15
    assert abs(rep.worst_ratio - (1.0 + want.max())) <= 1e-15


@pytest.mark.parametrize("c", [0.3, -0.1])
@pytest.mark.parametrize("dim", [1, 2])
def test_mass_with_a_reaction_rate_is_exp_cs(monkeypatch, dim, c):
    a = np.eye(dim) if dim == 1 else np.array([[1.0, 0.2], [0.2, 0.5]])
    kern = make_kernel(inline_coefficients(a.tolist(), b=[0.1] * dim, c=c))
    samples = mass_samples(dim, 20, 1.0, seed=0)
    rep = check_kernel_mass(kern, samples)
    assert rep.passed and rep.worst_ratio - 1.0 < 1e-8
    devs = loop_kernel_mass_deviations(kern, samples)
    assert abs(rep.worst_ratio - (1.0 + devs.max())) <= 1e-15
    # a kernel that loses its reaction factor e^{c (t - tau)} fails the check
    eval_ = Kernel.eval
    monkeypatch.setattr(Kernel, "eval", lambda self, x, t, xi, tau:
                        eval_(self, x, t, xi, tau) * np.exp(-self.c * (t - tau)))
    assert not check_kernel_mass(kern, samples).passed


def test_sample_generators_reject_inverted_time_ranges():
    with pytest.raises(ValueError, match="inverted"):
        mass_samples(1, 5, t_max=0.005)
    with pytest.raises(ValueError, match="inverted"):
        gamma_samples(1, 5, t_max=0.005)
    with pytest.raises(ValueError, match="inverted"):
        space_time_samples(1, 5, t_range=(0.01, 0.005))
    _, t, _ = mass_samples(1, 5, 0.005, t_min=0.0005)
    assert np.all((0.0005 <= t) & (t <= 0.005))
    _, s = gamma_samples(1, 5, t_max=0.005, t_min=0.0005)
    assert np.all((0.0005 <= s) & (s <= 0.005))


def _leaves(sample):
    """The arrays and numbers of a worst sample, nested tuples flattened."""
    for part in sample:
        if isinstance(part, tuple):
            yield from _leaves(part)
        else:
            yield part


def _same_sample(got, want):
    got, want = list(_leaves(got)), list(_leaves(want))
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def _same_report(got, want):
    """Equal report dicts, but for worst ratios that may differ in the last
    bits: the batched checks' numpy exp and power may round apart from the
    loops' scalar libm calls."""
    got, want = got.to_dict(), want.to_dict()
    assert got.pop("worst_ratio") == pytest.approx(want.pop("worst_ratio"), rel=1e-14, abs=0.0)
    assert got == want


@pytest.mark.parametrize("seed", [0, 1, 977])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sample_arrays_equal_per_row_builders(dim, seed):
    """Each array builder holds exactly the samples of its per-row oracle,
    in order; the empty set keeps its shape."""
    cases = [
        (mass_samples(dim, 50, 1.0, seed, t_min=0.1), loop_mass_samples(dim, 50, 1.0, seed)),
        (gamma_samples(dim, 500, seed=seed), loop_gamma_samples(dim, 500, seed=seed)),
        (space_time_samples(dim, 300, seed=seed), loop_space_time_samples(dim, 300, seed=seed)),
        (holder_pairs(dim, 300, seed), loop_holder_pairs(dim, 300, seed)),
    ]
    cases += [(holder_pairs_two_arg(dim, n, 300, seed), loop_holder_pairs_two_arg(dim, n, 300, seed))
              for n in (2, 8, 32)]
    for arrays, rows in cases:
        got = sample_rows(arrays)
        assert len(got) == len(rows)
        assert all(_same_sample(g, w) for g, w in zip(got, rows))
    x, X, y, Y = holder_pairs_two_arg(dim, 3, 0, seed)
    assert x.shape == y.shape == (0, dim) and X.shape == Y.shape == (0, dim, 3)
    assert gamma_samples(dim, 0)[0].shape == (0, dim)


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
    for samples in (gamma_samples(dim, 300, seed=1), gamma_samples(dim, 200, seed=977),
                    gamma_samples(dim, 0)):
        got = check_gamma_estimates(kern, params, samples)
        want = loop_gamma_estimates(kern, params, sample_rows(samples))
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
                         loop_prop1(scn, probe, sample_rows(samples), k_scale=k_scale)):
        _same_report(got, want)
    for got, want in zip(check_prop1(scn, probe, space_time_samples(1, 0)), loop_prop1(scn, probe, [])):
        assert got.to_dict() == want.to_dict()


def test_prop1_rejects_a_sample_at_time_zero(monkeypatch):
    scn = build(phi="gaussian")
    probe = moving_probe(scn)

    def no_probe_calls(*args, **kwargs):
        raise AssertionError("the probe was called before the samples were checked")

    monkeypatch.setattr(FieldProbe, "_batch", no_probe_calls)
    with pytest.raises(ValueError, match=r"sample 1 has t = 0\.0"):
        check_prop1(scn, probe, (np.array([[0.1], [0.3]]), np.array([0.5, 0.0])))
    with pytest.raises(ValueError, match=r"sample 0 has t = 0\.0"):
        check_prop1(scn, probe, (np.array([[0.3]]), np.array([0.0])))


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
    pts = rng.uniform(-3, 3, (2000, 2, 1))  # draws in the order x0, y0, x1, y1, ...
    rep = check_holder(phi, 0.5, c, h, (pts[:, 0], pts[:, 1]))
    assert rep.passed


def test_holder_constant_function_with_zero_constant():
    const = lambda x: np.full(np.asarray(x).shape[:-1], 2.5)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, (100, 2, 1))
    rep = check_holder(const, 0.5, 0.0, 0.0, (pts[:, 0], pts[:, 1]))
    assert rep.passed
    assert rep.worst_ratio == 0.0


def test_holder_agent_secretion_two_argument():
    n = 2
    g, hr, c, _ = g_preset("agent-secretion", n)
    rng = np.random.default_rng(6)
    radius = 2.0
    rows = []
    for _ in range(10_000):
        x, y = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        xx = rng.uniform(-0.9, 0.9, (1, n))
        yy = rng.uniform(-0.9, 0.9, (1, n))
        rows.append((x, xx, y, yy))
    pairs = tuple(np.array(side) for side in zip(*rows))
    rep = check_holder(g, 0.5, c, hr(radius), pairs)
    assert rep.passed


def test_holder_falsification_control():
    phi, h, c, _ = phi_preset("abs-sqrt")
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, (500, 2, 1))
    rep = check_holder(phi, 0.5, c, h / 10.0, (pts[:, 0], pts[:, 1]))
    assert not rep.passed


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_phi_hessian_passes_at_the_declared_bound_and_fails_below_it(dim):
    phi, *_ = phi_preset("gaussian")
    x, y = holder_pairs(dim, 300, seed=1)
    points = np.concatenate([x, y, np.zeros((1, dim))])  # the maximum, 2, is at 0
    rep = check_phi_hessian(phi, phi.hessian_bound, points)
    assert rep.passed and rep.claim == "phi-hessian-bound"
    assert 1.0 - 1e-6 <= rep.worst_ratio <= 1.0 + 1e-6
    np.testing.assert_array_equal(rep.worst_sample[0], np.zeros(dim))
    assert rep.constants == {"H2": 2.0} and rep.sample_count == 601
    assert not check_phi_hessian(phi, phi.hessian_bound / 2.0, points).passed


def test_phi_hessian_counts_the_calls_and_handles_edge_cases():
    phi, *_ = phi_preset("gaussian")
    calls = []

    def counted(x):
        calls.append(len(x))
        return phi(x)

    x, y = holder_pairs(1, 300, seed=1)
    check_phi_hessian(counted, 2.0, np.concatenate([x, y]))
    assert calls == [600] * 3  # f(x), f(x + h), f(x - h) for every point at once
    empty = check_phi_hessian(phi, 2.0, np.zeros((0, 2)))
    assert empty.passed and empty.worst_ratio == 0.0 and empty.worst_sample is None
    const = lambda x: np.full(np.asarray(x).shape[:-1], 2.5)
    assert check_phi_hessian(const, 0.0, x).passed
    assert not check_phi_hessian(phi, 0.0, x).passed


@pytest.mark.parametrize("seed", [1, 977])
@pytest.mark.parametrize("dim", [1, 2])
def test_holder_matches_per_pair_loop_oracle(seed, dim):
    scn = build(phi="gaussian", g="agent-secretion", dim=dim, X0=np.zeros((dim, 2)))
    growth, radius, n = scn.growth, 2.0, scn.n
    one, two = holder_pairs(dim, 300, seed), holder_pairs_two_arg(dim, n, 300, seed, radius)
    one_rows, two_rows = loop_holder_pairs(dim, 300, seed), loop_holder_pairs_two_arg(dim, n, 300, seed)
    few, few_rows = holder_pairs(dim, 50, seed), loop_holder_pairs(dim, 50, seed)
    cases = [
        (scn.phi, scn.alpha, growth.C, growth.H, one, one_rows),
        (scn.g, scn.alpha, growth.C, growth.HR(radius), two, two_rows),
        # a power other than 1/2 and a nonzero weight
        (phi_preset("abs-sqrt")[0], 0.37, 0.05, 0.3, one, one_rows),
        (scn.g, 0.61, 0.02, 0.5, two, two_rows),
        (scn.phi, scn.alpha, growth.C, growth.H, holder_pairs(dim, 0, seed), []),
        # every ratio 0: no worst pair; every pair twice: the first copy wins
        (lambda x: np.full(x.shape[:-1], 2.5), scn.alpha, 0.0, 1.0, few, few_rows),
        (scn.phi, scn.alpha, growth.C, growth.H,
         tuple(np.concatenate([a, a]) for a in few), 2 * few_rows),
    ]
    for fn, alpha, c, h, pairs, rows in cases:
        got = check_holder(fn, alpha, c, h, pairs)
        want = loop_holder(fn, alpha, c, h, rows)
        _same_report(got, want)
        if want.worst_sample is None:
            assert got.worst_sample is None
        else:
            assert _same_sample(got.worst_sample, want.worst_sample)


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
    for w in (-1.0, math.nan):
        with pytest.raises(ValueError, match="w must be nonnegative and not NaN"):
            gronwall_oracle(1.0, w, 0.0, GRID)


GRONWALL_CASES = {
    # the three `chemosim verify --suite gronwall` cases, as (alpha_g, w, v)
    "zero-kernels": (1.0, lambda t: 0.0, lambda s, t: 0.0),
    "constant-single": (1.0, lambda t: 1.0, lambda s, t: 0.0),
    "double-integral": (1.0, lambda t: 0.0, lambda s, t: 1.0),
    # array-aware kernels that vary along both arguments
    "varying": (1.0, lambda t: 1.0 + t, lambda s, t: np.exp(s - t)),
}
# constant double kernels written as callables, which take the grid path
GRONWALL_CASES.update({
    f"constant-c{c:g}-alpha{alpha_g:g}-w{w:g}": (alpha_g, lambda t, w=w: w, lambda s, t, c=c: c)
    for c in (0.5, 2.0, 4.0) for alpha_g in (0.5, 3.0) for w in (0.0, 1.0)
})
# the same constant kernels as numbers, which take the cumulative-sum path
NUMBER_CASES = {f"c{c:g}-alpha{alpha_g:g}-w{w:g}": (alpha_g, w, c)
                for c in (0.0, 0.5, 2.0, 4.0) for alpha_g in (0.5, 3.0) for w in (0.0, 1.0)}
SUITE_CASES = ("zero-kernels", "constant-single", "double-integral")
# the suite's cases as `chemosim verify` passes them: numbers
SUITE_NUMBERS = {"zero-kernels": (1.0, 0.0, 0.0), "constant-single": (1.0, 1.0, 0.0),
                 "double-integral": (1.0, 0.0, 1.0)}


@pytest.mark.parametrize("case", sorted(GRONWALL_CASES))
def test_gronwall_matches_double_loop_oracle(case):
    alpha_g, w, v = GRONWALL_CASES[case]
    rep = gronwall_oracle(alpha_g, w, v, GRID)
    ref = loop_gronwall_oracle(alpha_g, w, v, GRID)
    assert rep.worst_ratio == ref.worst_ratio
    assert rep.worst_sample == ref.worst_sample
    assert rep.passed == ref.passed


@pytest.mark.parametrize("case", sorted(NUMBER_CASES))
def test_gronwall_numbers_match_the_double_loop_oracle(case):
    alpha_g, w, c = NUMBER_CASES[case]
    rep = gronwall_oracle(alpha_g, w, c, GRID)
    ref = loop_gronwall_oracle(alpha_g, lambda t: w, lambda s, t: c, GRID)
    assert rep.worst_ratio == ref.worst_ratio
    assert rep.worst_sample == ref.worst_sample
    assert rep.passed == ref.passed


def test_gronwall_evaluates_a_callable_v_on_every_row():
    calls = []

    def v(s, t):
        calls.append((np.array(s), t))
        return 2.0  # a scalar counts for every node of the row

    rep = gronwall_oracle(1.0, 0.0, v, GRID)
    assert [len(s) for s, _ in calls] == list(range(1, len(GRID) + 1))
    assert rep.to_dict() == gronwall_oracle(1.0, 0.0, lambda s, t: np.full(len(s), 2.0),
                                            GRID).to_dict()


def test_gronwall_math_exp_kernel_fails_loudly():
    # math.exp takes no array of nodes: a kernel written with it raises
    # instead of passing for a constant
    with warnings.catch_warnings():
        # older numpy converts a one-node array with a DeprecationWarning
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(TypeError):
            gronwall_oracle(1.0, 0.0, lambda s, t: math.exp(s - t), GRID)
        with pytest.raises(TypeError):
            gronwall_oracle(1.0, lambda t: math.exp(-t), 0.0, GRID)


@pytest.mark.parametrize("case", SUITE_CASES)
def test_gronwall_suite_cases_build_no_matrix(case):
    # a 1001 x 1001 float matrix alone would take 8 MB
    alpha_g, w, v = SUITE_NUMBERS[case]
    tracemalloc.start()
    try:
        rep = gronwall_oracle(alpha_g, w, v, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the numbers stand for the callables of the same constant kernels
    ref = gronwall_oracle(*GRONWALL_CASES[case], GRID)
    assert rep.worst_ratio == pytest.approx(ref.worst_ratio, abs=1e-12)


def test_gronwall_never_evaluates_v_above_the_diagonal():
    calls = []

    def v(s, t):
        calls.append((np.array(s), t))
        return np.exp(s - t)

    gronwall_oracle(1.0, lambda t: 0.0, v, GRID)
    assert len(calls) == len(GRID)
    assert all(np.all(s <= t) for s, t in calls)


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, 0.5, math.inf]],
                         ids=["nan", "inf"])
def test_gronwall_rejects_a_non_finite_grid(grid):
    with pytest.raises(ValueError, match="grid must be finite"):
        gronwall_oracle(1.0, lambda t: 0.0, lambda s, t: 1.0, grid)


@pytest.mark.parametrize("alpha_g", [-1.0, math.nan])
def test_gronwall_rejects_a_negative_or_nan_alpha_g(alpha_g):
    with pytest.raises(ValueError, match="alpha_g"):
        gronwall_oracle(alpha_g, lambda t: 0.0, lambda s, t: 1.0, GRID)


def test_gronwall_rejects_a_nan_w_entry():
    with pytest.raises(ValueError, match="w must be nonnegative and not NaN"):
        gronwall_oracle(1.0, lambda t: np.where(t == GRID[5], math.nan, 1.0),
                        lambda s, t: 0.0, GRID)


@pytest.mark.parametrize("v", [
    lambda s, t: -1.0,
    lambda s, t: math.nan,
    lambda s, t: np.where((s == GRID[3]) & (t == GRID[7]), math.nan, 1.0),
    -1.0,
    math.nan,
], ids=["negative-scalar", "nan-scalar", "nan-array", "negative-number", "nan-number"])
def test_gronwall_rejects_a_negative_or_nan_v(v):
    with pytest.raises(ValueError, match="v must be nonnegative and not NaN"):
        gronwall_oracle(1.0, lambda t: 0.0, v, GRID)


def test_gronwall_rejects_one_negative_v_entry():
    def v(s, t):
        return np.where((s == GRID[3]) & (t == GRID[7]), -1e-3, 1.0)

    with pytest.raises(ValueError, match="v must be nonnegative"):
        gronwall_oracle(1.0, lambda t: 0.0, v, GRID)


@pytest.mark.parametrize("w, v", [(lambda t: 1e6, lambda s, t: 0.0),     # past the cap
                                  (lambda t: 0.0, lambda s, t: math.inf),  # inf, and NaN at 0
                                  (lambda t: np.where(t > 0.02, math.inf, 0.0), lambda s, t: 0.0)],
                         ids=["cap", "nan", "inf"])
def test_gronwall_divergence_is_a_runtime_error(w, v):
    with np.errstate(invalid="ignore"):  # inf * 0 makes the NaN case
        with pytest.raises(RuntimeError, match="diverged"):
            gronwall_oracle(1.0, w, v, GRID)
        with pytest.raises(RuntimeError, match="diverged"):
            loop_gronwall_oracle(1.0, w, v, GRID[:41])


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


# -- NaN measurements -------------------------------------------------------------------------
# A NaN ratio counts as +inf: the report fails with an infinite worst ratio
# and names the sample whose measurement was NaN.


def _fails_at(rep, sample):
    return (not rep.passed and rep.worst_ratio == math.inf
            and _same_sample(rep.worst_sample, sample))


def test_kernel_mass_nan_measurement_fails(monkeypatch):
    scn = build()
    samples = mass_samples(1, 20, 1.0, seed=0)
    x, t, tau = samples
    eval_ = Kernel.eval

    def nan_at_sample_3(self, xs, ts, xi, taus):
        # one call for all samples: the rows of sample 3 read NaN
        vals = eval_(self, xs, ts, xi, taus)
        return np.where(np.asarray(ts) == t[3], np.nan, vals)

    monkeypatch.setattr(Kernel, "eval", nan_at_sample_3)
    rep = check_kernel_mass(scn.kernel, samples)
    assert _fails_at(rep, (x[3], t[3], tau[3]))


def test_gamma_nan_measurement_fails(monkeypatch):
    scn = build(phi="gaussian")
    offsets, s = samples = gamma_samples(1, 200, seed=0)
    derivatives = Kernel.derivatives

    def nan_at_sample_4(self, orders, *args):
        # the one call serves every order; sample 4 reads NaN in each
        vals = [np.array(v, dtype=float) for v in derivatives(self, orders, *args)]
        for v in vals:
            v[4] = np.nan
        return tuple(vals)

    monkeypatch.setattr(Kernel, "derivatives", nan_at_sample_4)
    reports = check_gamma_estimates(scn.kernel, scn.estimate_params, samples)
    assert all(_fails_at(reports[k], (offsets[4], s[4])) for k in (0, 1, 2))


@pytest.mark.parametrize("which", ["gradient_many", "hessian_many"])
def test_prop1_nan_measurement_fails(which):
    scn = build(phi="abs-sqrt")
    probe = moving_probe(scn)
    x, t = samples = space_time_samples(1, 60, seed=4)
    measure = probe.derivatives_many
    nan_order = 1 if which == "gradient_many" else 2

    def nan_at_sample_5(pts, times, orders):
        # the one call serves both reports; only ``which`` reads NaN
        vals = [np.array(v, dtype=float) for v in measure(pts, times, orders)]
        vals[orders.index(nan_order)][5] = np.nan
        return tuple(vals)

    probe.derivatives_many = nan_at_sample_5
    rep_g, rep_h = check_prop1(scn, probe, samples)
    nan_rep, other = (rep_g, rep_h) if which == "gradient_many" else (rep_h, rep_g)
    assert _fails_at(nan_rep, (x[5], t[5]))
    assert other.passed


def test_holder_nan_measurement_fails():
    scn = build(phi="gaussian", g="agent-secretion", X0=np.zeros((1, 2)))
    growth = scn.growth
    x, y = pairs = holder_pairs(1, 100, seed=1)

    def phi_nan_at_pair_6(pts):
        return np.where((pts == x[6]).all(axis=-1), np.nan, scn.phi(pts))

    rep = check_holder(phi_nan_at_pair_6, scn.alpha, growth.C, growth.H, pairs)
    assert _fails_at(rep, (x[6], y[6]))

    x2, xx, y2, yy = pairs2 = holder_pairs_two_arg(1, scn.n, 100, seed=1)

    def g_nan_at_pair_6(pts, conf):
        return np.where((pts == x2[6]).all(axis=-1), np.nan, scn.g(pts, conf))

    rep = check_holder(g_nan_at_pair_6, scn.alpha, growth.C, growth.HR(2.0), pairs2)
    assert _fails_at(rep, ((x2[6], xx[6]), (y2[6], yy[6])))


def test_residual_nan_measurement_fails():
    scn = build(V0=[[0.4]])
    times = np.linspace(0.0, 0.5, 51)
    X = (0.4 * times)[:, None, None]
    V = np.full((51, 1, 1), 0.4)
    V[-1] = np.nan  # only the last interior node's dV/dt reads it
    path = AgentPath(times, X, V)
    rep = residual_check(path, scn, FieldProbe(scn, path), tolerance=1e-10)
    assert _fails_at(rep, (times[-2],))
