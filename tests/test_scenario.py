"""Scenario assembly, preset catalog, declared-constant sanity."""

import numpy as np
import pytest

from chemosim.presets import (
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
    out = force.eval(0.0, X, V, np.zeros(2), 0)
    np.testing.assert_allclose(out, [-2.0, 0.0])


def test_saturating_force_bounded_slope():
    force = force_preset("saturating-chemotaxis", chi=1.0)
    w = np.array([3.0])
    out = force.eval(0.0, np.zeros((1, 1)), np.zeros((1, 1)), w, 0)
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
        d = np.linalg.norm(force.eval(0.0, X, V, w1, i) - force.eval(0.0, X, V, w2, i))
        assert d <= force.lipschitz_w * np.linalg.norm(w1 - w2) * (1.0 + 1e-9) + 1e-15


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


def test_unknown_preset_names_raise():
    with pytest.raises(ScenarioError):
        coefficient_preset("nope", 1)
    with pytest.raises(ScenarioError):
        phi_preset("nope")
    with pytest.raises(ScenarioError):
        g_preset("nope", 1)
    with pytest.raises(ScenarioError):
        force_preset("nope")


def test_scenario_exposes_lipschitz_policy():
    scn = build(force="damped-chemotaxis", force_kwargs={"chi": 0.3, "kappa_v": 1.1})
    assert scn.lipschitz_w == 0.3
    assert scn.lipschitz_xv(1.0) == 1.1
    assert scn.satisfies_global_hypotheses


def test_estimate_params_requires_constant_coefficients():
    scn = build(coeff="variable-sine", phi="gaussian")
    with pytest.raises(ScenarioError, match="constant coefficients"):
        scn.estimate_params
