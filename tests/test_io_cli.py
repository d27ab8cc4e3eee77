"""File formats, round trips, CLI subcommands and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chemosim import io as cio
from chemosim.config import ConfigError, config_digest, load_config
from chemosim.paths import AgentPath
from chemosim.picard import contraction_S, horizon_certificate

from util import build

DAMPED_CFG = {
    "name": "damped-demo",
    "dimension": 1,
    "horizon": 2.0,
    "alpha": 0.5,
    "coefficients": "heat",
    "phi": "gaussian",
    "g": "zero",
    "force": {"name": "damped-chemotaxis", "chi": 0.0, "kappa_v": 1.0},
    "X0": [[0.0]],
    "V0": [[0.5]],
    "R": 1.0,
}


def write_cfg(tmp_path, cfg=None, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg or DAMPED_CFG, indent=1))
    return p


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "chemosim.cli", *args],
                          capture_output=True, text=True)


# -- file formats -----------------------------------------------------------------------


def test_trajectory_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0, 1, 7))
    times[0] = 0.0
    path = AgentPath(times, rng.normal(size=(7, 2, 3)), rng.normal(size=(7, 2, 3)))
    f = tmp_path / "traj.csv"
    cio.write_trajectory(path, f)
    back = cio.read_trajectory(f)
    np.testing.assert_array_equal(back.times, path.times)
    np.testing.assert_array_equal(back.X, path.X)
    np.testing.assert_array_equal(back.V, path.V)


def test_trajectory_rejects_foreign_file(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("not a trajectory\n")
    with pytest.raises(ValueError):
        cio.read_trajectory(f)


def test_bounds_round_trip(tmp_path):
    values = {"T1": 0.5, "S_value": 0.8123456789012345, "K": 3.14159}
    f = tmp_path / "bounds.txt"
    cio.write_bounds(values, f)
    back = cio.read_bounds(f)
    assert back == values


def test_config_digest_stable_under_key_reordering():
    a = {"x": 1, "y": [1, 2], "z": {"k": 3, "m": 4}}
    b = {"z": {"m": 4, "k": 3}, "y": [1, 2], "x": 1}
    assert config_digest(a) == config_digest(b)
    c = dict(a)
    c["x"] = 2
    assert config_digest(a) != config_digest(c)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"dimension": 1}))
    with pytest.raises(ConfigError, match="missing required"):
        load_config(incomplete)


def test_field_snapshot_format(tmp_path):
    from chemosim.field import solve_field_fd

    scn = build(phi="gaussian", T=0.5)
    path = AgentPath.constant(scn.X0, scn.V0, np.linspace(0, 0.5, 5))
    fdf = solve_field_fd(scn, path)
    f = tmp_path / "snap.csv"
    cio.write_field_snapshot(fdf, 0.25, f)
    first = f.read_text().splitlines()[0]
    assert first.startswith("# chemosim-field-grid-v1")
    assert "dim=1" in first and "t=" in first


# -- CLI ---------------------------------------------------------------------------------


def test_cli_simulate_zero_force_rows(tmp_path):
    cfg = dict(DAMPED_CFG)
    cfg["force"] = "zero"
    cfg["horizon"] = 1.0
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", str(p), "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    path = cio.read_trajectory(out / "trajectory.csv")
    np.testing.assert_allclose(path.X[:, 0, 0], 0.5 * path.times, atol=1e-12)
    manifest = cio.read_manifest(out / "manifest.json")
    assert manifest["config_digest"] == config_digest(cfg)
    assert manifest["segments"]


def test_cli_simulate_deterministic(tmp_path):
    p = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("simulate", "--config", str(p), "--output-dir", str(out1),
                 "--field-snapshot", "0.5")
    r2 = run_cli("simulate", "--config", str(p), "--output-dir", str(out2),
                 "--field-snapshot", "0.5")
    assert r1.returncode == 0 and r2.returncode == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "field_t0.5.csv").read_bytes() == (out2 / "field_t0.5.csv").read_bytes()


def test_cli_simulate_nonlocal_manifest_echo(tmp_path):
    cfg = dict(DAMPED_CFG)
    cfg["horizon"] = 0.5
    cfg["force"] = {"name": "damped-chemotaxis", "chi": 0.05, "kappa_v": 1.0}
    cfg["g"] = "agent-secretion"
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", str(p), "--output-dir", str(out),
                  "--mode", "nonlocal", "--delta", "0.1", "--horizon", "0.2")
    assert res.returncode == 0, res.stderr
    manifest = cio.read_manifest(out / "manifest.json")
    assert manifest["mode"] == "nonlocal"
    assert manifest["delta"] == 0.1


def test_cli_simulate_delta_flag_overrides_config_delta(tmp_path):
    cfg = dict(DAMPED_CFG, horizon=0.5, g="agent-secretion", mode="nonlocal",
               force={"name": "damped-chemotaxis", "chi": 0.05, "kappa_v": 1.0})
    trajectories = {}
    for label, cfg_delta, flags in (("flag", 0.1, ("--delta", "0.4")),
                                    ("config-0.1", 0.1, ()), ("config-0.4", 0.4, ())):
        p = write_cfg(tmp_path, dict(cfg, delta=cfg_delta), name=f"{label}.json")
        out = tmp_path / label
        res = run_cli("simulate", "--config", str(p), "--output-dir", str(out),
                      "--horizon", "0.02", *flags)
        assert res.returncode == 0, res.stderr
        trajectories[label] = (out / "trajectory.csv").read_bytes()
    assert trajectories["flag"] != trajectories["config-0.1"]
    assert trajectories["flag"] == trajectories["config-0.4"]


def test_cli_bounds_round_trip(tmp_path):
    p = write_cfg(tmp_path)
    out = tmp_path / "run"
    res = run_cli("bounds", "--config", str(p), "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    values = cio.read_bounds(out / "bounds.txt")
    scn = build(phi="gaussian", force="damped-chemotaxis",
                force_kwargs={"chi": 0.0, "kappa_v": 1.0}, V0=[[0.5]], T=2.0)
    recomputed = contraction_S(scn, values["R"], values["T_bar"])
    assert abs(recomputed - values["S_value"]) < 1e-12
    assert values["kappa"] == 0.0  # zero Gaussian weight data
    assert "B" in values


def test_cli_verify_pass_and_report(tmp_path):
    p = write_cfg(tmp_path)
    out = tmp_path / "run"
    res = run_cli("verify", "--config", str(p), "--suite", "kernel-mass,gronwall",
                  "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["format"] == "chemosim-report-v1"
    assert all(r["passed"] for r in doc["reports"])


def test_cli_verify_prop1_passes_on_rough_datum(tmp_path):
    cfg = dict(DAMPED_CFG)
    cfg["phi"] = "abs-sqrt"
    cfg["force"] = "zero"
    cfg["horizon"] = 1.0
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = run_cli("verify", "--config", str(p), "--suite", "prop1",
                  "--samples", "200", "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "verify_report.json").read_text())
    assert all(r["passed"] for r in doc["reports"])


def test_cli_bounds_zero_force_has_zero_modulus(tmp_path):
    cfg = dict(DAMPED_CFG)
    cfg["force"] = "zero"
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = run_cli("bounds", "--config", str(p), "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    values = cio.read_bounds(out / "bounds.txt")
    assert values["S_value"] == 0.0


def test_cli_verify_all_suites_serialize(tmp_path):
    # includes the two-argument Hoelder reports, whose worst samples are
    # nested tuples of differently shaped arrays
    cfg = dict(DAMPED_CFG)
    cfg["horizon"] = 1.0
    cfg["g"] = "agent-secretion"
    cfg["force"] = {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0}
    cfg["X0"] = [[0.2]]
    cfg["V0"] = [[0.3]]
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = run_cli("verify", "--config", str(p), "--suite", "all",
                  "--samples", "100", "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "verify_report.json").read_text())
    assert len(doc["reports"]) == 12
    assert all(r["passed"] for r in doc["reports"])


def test_cli_verify_falsify_nonzero_exit(tmp_path):
    p = write_cfg(tmp_path)
    out = tmp_path / "run"
    res = run_cli("verify", "--config", str(p), "--suite", "prop1", "--samples", "60",
                  "--falsify", "--output-dir", str(out))
    assert res.returncode == 1
    doc = json.loads((out / "verify_report.json").read_text())
    assert any(not r["passed"] for r in doc["reports"])


def test_cli_verify_unknown_suite(tmp_path):
    p = write_cfg(tmp_path)
    res = run_cli("verify", "--config", str(p), "--suite", "nope")
    assert res.returncode == 2
    assert "unknown verify suite" in res.stderr


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 1}))
    res = run_cli("bounds", "--config", str(bad))
    assert res.returncode == 2


def test_cli_solver_error_exit_code(tmp_path):
    cfg = dict(DAMPED_CFG)
    # growth constant violating the side condition is caught at build: config error
    cfg["growth"] = {"C": 0.5}
    p = write_cfg(tmp_path, cfg)
    res = run_cli("bounds", "--config", str(p))
    assert res.returncode == 2
    # an admissible config whose kernel-mass suite is ill-posed: reaction rate
    cfg2 = dict(DAMPED_CFG)
    cfg2["coefficients"] = {"a": [[1.0]], "c": 0.3}
    cfg2["growth"] = {}
    p2 = write_cfg(tmp_path, cfg2, name="cfg2.json")
    res2 = run_cli("verify", "--config", str(p2), "--suite", "kernel-mass")
    assert res2.returncode == 3


def test_cli_field_export(tmp_path):
    cfg = dict(DAMPED_CFG)
    cfg["horizon"] = 0.5
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = run_cli("field-export", "--config", str(p), "--times", "0.25,0.5",
                  "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "field_t0.25.csv").exists()
    assert (out / "field_t0.5.csv").exists()


def test_cli_outdir_env_var(tmp_path, monkeypatch):
    p = write_cfg(tmp_path)
    env_dir = tmp_path / "envout"
    import os
    import subprocess as sp

    env = dict(os.environ, CHEMOSIM_OUTDIR=str(env_dir))
    res = sp.run([sys.executable, "-m", "chemosim.cli", "bounds", "--config", str(p)],
                 capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert (env_dir / "bounds.txt").exists()
