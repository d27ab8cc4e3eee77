"""Scenario assembly, preset catalog, declared-constant sanity."""

import numpy as np
import pytest

from chemosim.presets import (
    GaussianSource,
    _from_spec,
    coefficient_preset,
    force_preset,
    g_preset,
    phi_preset,
    preset_catalog,
    scenario_from_config,
)
from chemosim.scenario import ScenarioError

from util import build


def test_heat_preset_records_unit_eigenvalues():
    scn = build(coeff="heat", phi="gaussian")
    assert scn.coeffs.mu0 == pytest.approx(1.0)
    assert scn.coeffs.mu1 == pytest.approx(1.0)


def test_anisotropic_preset_records_diagonal_eigenvalues():
    scn = build(coeff="anisotropic-constant", dim=2)
    assert scn.coeffs.mu0 == pytest.approx(0.5)
    assert scn.coeffs.mu1 == pytest.approx(2.0)


def test_make_scenario_leaves_caller_coefficients_untouched():
    coeffs = coefficient_preset("anisotropic-constant", 2)
    scn = build(coeff=coeffs, dim=2)  # make_scenario with these coefficients
    assert coeffs.mu0 is None and coeffs.mu1 is None
    assert scn.coeffs.mu0 == pytest.approx(0.5)
    assert scn.coeffs.mu1 == pytest.approx(2.0)


def test_variable_sine_eigenvalues_within_half_to_three_halves():
    coeffs = coefficient_preset("variable-sine", 2)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(-5, 5, 2)
        eigs = np.linalg.eigvalsh(coeffs.a(x, rng.uniform(0, 1)))
        assert 0.5 - 1e-12 <= eigs.min() and eigs.max() <= 1.5 + 1e-12


def test_variable_sine_declares_its_eigenvalue_range():
    scn = build(coeff="variable-sine", phi="gaussian", dim=2)
    assert (scn.coeffs.mu0, scn.coeffs.mu1) == (0.5, 1.5)
    assert scn.coeffs.lambda0 == pytest.approx(2.0 / 9.0, rel=1e-15)


def test_variable_sine_side_condition_reads_the_declared_range():
    # C < lambda0 / (4 T) = 1/18 = 0.0556; the 5-point probe grid's range
    # (0.545, 1.455) would have admitted C up to 0.0644
    cfg = {
        "dimension": 1, "horizon": 1.0, "coefficients": "variable-sine",
        "phi": "gaussian", "g": "zero", "force": "zero",
        "X0": [[0.0]], "V0": [[0.0]], "growth": {"C": 0.058},
    }
    with pytest.raises(ScenarioError, match="side condition"):
        scenario_from_config(cfg)
    cfg["growth"] = {"C": 0.055}
    assert scenario_from_config(cfg).growth.C == 0.055


def test_declared_eigenvalue_range_left_by_a_sample_raises():
    from dataclasses import replace

    narrow = replace(coefficient_preset("variable-sine", 1), mu0=0.6)
    with pytest.raises(ScenarioError, match="leave the declared range"):
        build(coeff=narrow, phi="gaussian")


@pytest.mark.parametrize("declared", [{}, {"mu0": 0.5}, {"mu1": 1.5}],
                         ids=["none", "mu0-only", "mu1-only"])
def test_undeclared_variable_coefficients_raise_before_a_is_sampled(declared):
    from dataclasses import replace

    def unsampled(x, t):
        raise AssertionError("a(x, t) sampled")

    coeffs = replace(coefficient_preset("variable-sine", 1), a=unsampled,
                     **{"mu0": None, "mu1": None, **declared})
    with pytest.raises(ScenarioError, match="must declare their eigenvalue range: mu0 and mu1"):
        build(coeff=coeffs, phi="gaussian")


@pytest.mark.parametrize("mu0, mu1", [(0.0, 1.5), (1.5, 0.5), (float("nan"), 1.5),
                                      (0.5, float("inf"))])
def test_a_declared_eigenvalue_range_must_be_positive_and_ordered(mu0, mu1):
    from dataclasses import replace

    coeffs = replace(coefficient_preset("variable-sine", 1), mu0=mu0, mu1=mu1)
    with pytest.raises(ScenarioError, match="0 < mu0 <= mu1 < inf"):
        build(coeff=coeffs, phi="gaussian")


def test_growth_side_condition_rejected():
    # lambda0 = 1 for heat, so C = lambda0/(2T) violates C < lambda0/(4T)
    from chemosim.scenario import GrowthSpec, make_scenario
    from chemosim.presets import phi_preset, g_preset, force_preset

    phi, *_ = phi_preset("gaussian")
    g, hr, *_ = g_preset("zero", 1)
    growth = GrowthSpec(C=0.5, H=1.0, HR=hr, M=1.0, T=1.0)
    with pytest.raises(ScenarioError, match="side condition"):
        make_scenario(coefficient_preset("heat", 1), phi, g, force_preset("zero"),
                      [[0.0]], [[0.0]], growth)


def test_dimension_mismatch_rejected():
    with pytest.raises(ScenarioError):
        build(dim=2, X0=np.zeros((1, 1)), V0=np.zeros((1, 1)))


def test_nonpositive_eigenvalue_rejected():
    from chemosim.scenario import OperatorCoefficients, GrowthSpec, make_scenario

    bad = OperatorCoefficients(
        dimension=1,
        a=lambda x, t: np.array([[-0.5]]),
        b=lambda x, t: np.zeros(1),
        c=lambda x, t: 0.0,
        is_constant=True,
        holder_exponent=0.5,
    )
    phi, *_ = phi_preset("zero")
    g, hr, *_ = g_preset("zero", 1)
    growth = GrowthSpec(C=0.0, H=0.0, HR=hr, M=0.0, T=1.0)
    with pytest.raises(ScenarioError, match="eigenvalue"):
        make_scenario(bad, phi, g, force_preset("zero"), [[0.0]], [[0.0]], growth)


def test_nonlocal_delta_must_be_positive():
    with pytest.raises(ScenarioError):
        build(delta=-0.1)
    assert build(delta=0.2).nonlocal_delta == 0.2


S1_CONFIG = {
    "dimension": 1, "horizon": 1.0, "coefficients": "heat", "phi": "gaussian",
    "g": "agent-secretion", "force": {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
    "X0": [[0.2, -0.3]], "V0": [[0.3, 0.0]],
}


@pytest.mark.parametrize("key, value, message", [
    ("horizon", float("nan"), "horizon must be positive and finite, got nan"),
    ("horizon", float("inf"), "horizon must be positive and finite, got inf"),
    ("R", float("nan"), "compact radius R must be positive and finite, got nan"),
    ("R", 0.0, "compact radius R must be positive and finite, got 0.0"),
    ("delta", float("nan"), "sensing radius delta must be positive and finite, got nan"),
    ("delta", float("inf"), "sensing radius delta must be positive and finite, got inf"),
    ("growth", {"C": float("nan")}, "growth constant C must be nonnegative, got nan"),
    ("X0", [[float("nan"), -0.3]], r"initial state X0 must be finite, got \[\[nan, -0.3\]\]"),
    ("V0", [[0.3, float("inf")]], r"initial state V0 must be finite, got \[\[0.3, inf\]\]"),
    ("growth", {"H": float("nan")}, "growth constant H must be finite and nonnegative, got nan"),
    ("growth", {"H": -1.0}, "growth constant H must be finite and nonnegative, got -1.0"),
    ("growth", {"M": float("nan")}, "growth constant M must be finite and nonnegative, got nan"),
    ("growth", {"M": float("inf")}, "growth constant M must be finite and nonnegative, got inf"),
    ("force", {"name": "damped-chemotaxis", "chi": float("nan"), "kappa_v": 1.0},
     "force Lipschitz constant lipschitz_w must be finite and nonnegative, got nan"),
    ("force", {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": float("nan")},
     r"force Lipschitz constant lipschitz_xv\(R\) must be finite and nonnegative, got nan"),
    ("force", {"name": "pure-chemotaxis", "chi": float("inf")},
     "force Lipschitz constant lipschitz_w must be finite and nonnegative, got inf"),
    ("force", {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": float("inf")},
     r"force Lipschitz constant lipschitz_xv\(R\) must be finite and nonnegative, got inf"),
    ("coefficients", {"a": [[float("nan")]]}, r"coefficient a must be finite, got \[\[nan\]\]"),
    ("coefficients", {"a": [[1.0]], "b": [float("inf")]},
     r"coefficient b must be finite, got \[inf\]"),
    ("coefficients", {"a": [[1.0]], "c": float("nan")}, "coefficient c must be finite, got nan"),
], ids=["horizon-nan", "horizon-inf", "R-nan", "R-zero", "delta-nan", "delta-inf",
        "growth-C-nan", "X0-nan", "V0-inf", "growth-H-nan", "growth-H-negative",
        "growth-M-nan", "growth-M-inf", "force-chi-nan", "force-kappa_v-nan",
        "force-chi-inf", "force-kappa_v-inf", "coefficients-a-nan", "coefficients-b-inf",
        "coefficients-c-nan"])
def test_non_finite_config_numbers_are_rejected_by_name(key, value, message):
    # json.loads accepts NaN and Infinity, so a config can carry them
    with pytest.raises(ScenarioError, match=message):
        scenario_from_config(dict(S1_CONFIG, **{key: value}))


@pytest.mark.parametrize("name, value", [("lipschitz_w", -0.5), ("lipschitz_global", float("nan")),
                                         ("lipschitz_global", -1.0),
                                         ("lipschitz_global", float("inf"))])
def test_force_law_constants_are_rejected_by_name(name, value):
    from dataclasses import replace

    force = replace(force_preset("damped-chemotaxis", chi=0.3), **{name: value})
    with pytest.raises(ScenarioError,
                       match=f"force Lipschitz constant {name} must be finite and nonnegative, "
                             f"got {value!r}"):
        build(phi="gaussian", force=force)
    # an undeclared global constant is no input
    assert build(force=replace(force, lipschitz_w=0.3, lipschitz_global=None)).force is not None


def test_initial_datum_cannot_centre_gaussians_at_agents():
    phi, h_phi, c_phi, m_phi = phi_preset("gaussian")

    def declared(x):
        return phi(x)

    declared.gaussian_source = GaussianSource(1.0, 1.0, True)
    with pytest.raises(ScenarioError, match="no agents"):
        build(phi=(declared, h_phi, c_phi, m_phi))


def test_only_the_gaussian_phi_declares_a_hessian_bound():
    for name, h2 in (("gaussian", 2.0), ("zero", None), ("abs-sqrt", None)):
        phi, *_ = phi_preset(name)
        assert getattr(phi, "hessian_bound", None) == h2
        assert scenario_from_config(dict(S1_CONFIG, phi=name)).growth.H2 == h2


@pytest.mark.parametrize("h2", [-1.0, float("nan"), float("inf")])
def test_a_declared_hessian_bound_must_be_finite_and_nonnegative(h2):
    phi, h_phi, c_phi, m_phi = phi_preset("gaussian")

    def declared(x):
        return phi(x)

    declared.hessian_bound = h2
    with pytest.raises(ScenarioError, match="hessian bound H2"):
        build(phi=(declared, h_phi, c_phi, m_phi))


def test_preset_catalog_contents():
    cat = preset_catalog()
    assert "heat" in cat["coefficients"]
    assert "anisotropic-constant" in cat["coefficients"]
    assert "variable-sine" in cat["coefficients"]
    assert {"zero", "gaussian", "abs-sqrt"} <= set(cat["phi"])
    assert {"zero", "constant", "agent-secretion"} <= set(cat["g"])
    assert {"zero", "pure-chemotaxis", "damped-chemotaxis",
            "saturating-chemotaxis"} <= set(cat["force"])


def test_agent_secretion_value_at_agent_position():
    g, hr, _, m = g_preset("agent-secretion", 1)
    x_agent = np.array([[0.3]])  # (N, n) with the single agent at 0.3
    val = g(np.array([[0.3]]), x_agent)[0]
    assert val == pytest.approx(-1.0)
    assert hr(5.0) == 1.0 and m == 1.0


def test_damped_force_pure_damping_example():
    force = force_preset("damped-chemotaxis", chi=0.0, kappa_v=1.0)
    X = np.zeros((2, 1))
    V = np.array([[2.0], [0.0]])
    out = force.eval(0.0, X, V, np.zeros((2, 1)))[:, 0]
    np.testing.assert_allclose(out, [-2.0, 0.0])


def test_saturating_force_bounded_slope():
    force = force_preset("saturating-chemotaxis", chi=1.0)
    w = np.array([[3.0]])
    out = force.eval(0.0, np.zeros((1, 1)), np.zeros((1, 1)), w)[:, 0]
    assert out[0] == pytest.approx(3.0 / 4.0)


@pytest.mark.parametrize("name,kwargs", [
    ("zero", {}),
    ("pure-chemotaxis", {"chi": 0.7}),
    ("damped-chemotaxis", {"chi": 0.4, "kappa_v": 1.3}),
    ("saturating-chemotaxis", {"chi": 0.9}),
])
def test_force_lipschitz_in_w_never_exceeds_declared(name, kwargs):
    force = force_preset(name, **kwargs)
    rng = np.random.default_rng(17)
    dim, n = 2, 3
    X = rng.normal(size=(dim, n))
    V = rng.normal(size=(dim, n))
    for _ in range(1000):
        w1 = rng.normal(size=dim) * rng.uniform(0.1, 5.0)
        w2 = rng.normal(size=dim) * rng.uniform(0.1, 5.0)
        i = int(rng.integers(0, n))
        only_i = np.eye(n)[i]  # w in column i, zeros elsewhere
        d = np.linalg.norm(force.eval(0.0, X, V, np.outer(w1, only_i))[:, i]
                           - force.eval(0.0, X, V, np.outer(w2, only_i))[:, i])
        assert d <= force.lipschitz_w * np.linalg.norm(w1 - w2) * (1.0 + 1e-9) + 1e-15


@pytest.mark.parametrize("name,kwargs", [
    ("zero", {}),
    ("pure-chemotaxis", {"chi": 0.7}),
    ("damped-chemotaxis", {"chi": 0.4, "kappa_v": 1.3}),
    ("saturating-chemotaxis", {"chi": 0.9}),
])
def test_force_column_reads_only_its_own_w(name, kwargs):
    force = force_preset(name, **kwargs)
    rng = np.random.default_rng(23)
    nodes, dim, n = 5, 2, 3
    times = np.linspace(0.0, 0.4, nodes)
    X, V, W = (rng.normal(size=(nodes, dim, n)) for _ in range(3))
    F = force.eval(times, X, V, W)
    assert F.shape == X.shape
    for k in range(nodes):  # stacked calls equal one-node calls
        np.testing.assert_array_equal(F[k], force.eval(float(times[k]), X[k], V[k], W[k]))
    for j in range(n):  # changing column j of W moves column j of F only
        W2 = W.copy()
        W2[..., j] = 3.0 * rng.normal(size=(nodes, dim))
        F2 = force.eval(times, X, V, W2)
        others = np.arange(n) != j
        np.testing.assert_array_equal(F2[..., others], F[..., others])


def test_build_scenario_from_config_is_deterministic():
    cfg = {
        "dimension": 1, "horizon": 1.0,
        "coefficients": "heat", "phi": "gaussian",
        "g": {"name": "agent-secretion"},
        "force": {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
        "X0": [[0.1]], "V0": [[0.2]], "R": 1.0,
    }
    s1 = scenario_from_config(cfg)
    s2 = scenario_from_config(cfg)
    np.testing.assert_array_equal(s1.X0, s2.X0)
    assert s1.growth.H == s2.growth.H
    assert s1.growth.M == s2.growth.M
    assert s1.coeffs.mu0 == s2.coeffs.mu0
    assert s1.lipschitz_w == s2.lipschitz_w


def test_build_scenario_inline_coefficients():
    cfg = {
        "dimension": 2, "horizon": 1.0,
        "coefficients": {"a": [[0.5, 0.0], [0.0, 2.0]]},
        "phi": "zero", "g": "zero", "force": "zero",
        "X0": [[0.0], [0.0]], "V0": [[0.0], [0.0]],
    }
    scn = scenario_from_config(cfg)
    assert scn.coeffs.mu0 == pytest.approx(0.5)
    assert scn.coeffs.mu1 == pytest.approx(2.0)


def test_build_scenario_missing_key_raises():
    with pytest.raises(ScenarioError):
        scenario_from_config({"dimension": 1})


def test_a_config_name_loads_like_any_unknown_key():
    # a scenario holds no name, and a config key it does not read is ignored
    named = scenario_from_config(dict(S1_CONFIG, name="s1"))
    plain = scenario_from_config(S1_CONFIG)
    assert not hasattr(named, "name")
    np.testing.assert_array_equal(named.X0, plain.X0)
    np.testing.assert_array_equal(named.V0, plain.V0)
    assert (named.growth.C, named.growth.H, named.growth.M) == \
        (plain.growth.C, plain.growth.H, plain.growth.M)
    assert (named.coeffs.mu0, named.coeffs.mu1) == (plain.coeffs.mu0, plain.coeffs.mu1)


def test_unknown_preset_names_raise():
    with pytest.raises(ScenarioError):
        coefficient_preset("nope", 1)
    with pytest.raises(ScenarioError):
        phi_preset("nope")
    with pytest.raises(ScenarioError):
        g_preset("nope", 1)
    with pytest.raises(ScenarioError):
        force_preset("nope")
    # a config mapping without a name names no preset
    for key, spec in (("g", {"value": 2.0}), ("force", {"chi": 0.3})):
        with pytest.raises(ScenarioError, match=f"unknown {key} preset None"):
            scenario_from_config(dict(S1_CONFIG, **{key: spec}))


@pytest.mark.parametrize("key,spec,param", [
    ("force", {"name": "damped-chemotaxis", "chi2": 0.3}, "chi2"),
    ("g", {"name": "agent-secretion", "rate": 2.0}, "rate"),
    ("g", {"name": "constant", "n_agents": 3}, "n_agents"),
])
def test_unknown_preset_parameters_raise_by_name(key, spec, param):
    with pytest.raises(ScenarioError, match=f"unknown parameter '{param}' for {key} preset "
                                            f"'{spec['name']}'"):
        scenario_from_config(dict(S1_CONFIG, **{key: spec}))


def test_a_type_error_inside_a_preset_propagates():
    def broken_preset(name, chi=1.0):
        raise TypeError("raised inside the preset")

    with pytest.raises(TypeError, match="raised inside the preset"):
        _from_spec({"name": "damped-chemotaxis", "chi": 0.3}, broken_preset)


def test_scenario_exposes_lipschitz_policy():
    scn = build(force="damped-chemotaxis", force_kwargs={"chi": 0.3, "kappa_v": 1.1})
    assert scn.lipschitz_w == 0.3
    assert scn.lipschitz_xv(1.0) == 1.1
    assert scn.satisfies_global_hypotheses


def test_estimate_params_requires_constant_coefficients():
    scn = build(coeff="variable-sine", phi="gaussian")
    with pytest.raises(ScenarioError, match="constant coefficients"):
        scn.estimate_params
