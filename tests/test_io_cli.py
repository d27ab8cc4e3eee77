"""File formats, round trips, CLI subcommands and exit codes."""

import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chemosim import cli, quadrature
from chemosim import io as cio
from chemosim import verify as ver
from chemosim.config import ConfigError, config_digest, load_config
from chemosim.field import BACKEND_KERNEL, FieldProbe
from chemosim.paths import AgentPath
from chemosim.picard import MODE_NONLOCAL, contraction_S, horizon_certificate, solve_local
from chemosim.scenario import build_scenario
from chemosim.verify import residual_check

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


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # a solve needs neither; loading them adds about 70 MB of resident memory
    code = ("import sys, chemosim, chemosim.cli; "
            "print([m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_verify_all_leaves_scipy_stats_unloaded(tmp_path):
    # the verify sample sets come from chemosim's own Halton sampler
    p = write_cfg(tmp_path)
    code = ("import sys; from chemosim import cli; "
            f"code = cli.main(['verify', '--config', {str(p)!r}, '--suite', 'all', "
            f"'--output-dir', {str(tmp_path / 'run')!r}]); "
            "print(code, 'scipy.stats' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "0 False"


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


@pytest.mark.parametrize("cut, message", [
    (lambda lines: lines[:1], "holds no header"),
    (lambda lines: lines[:2], "holds no rows"),
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]], "row 2 holds 12 values, the header names 13"),
    (lambda lines: lines[:4] + [lines[4] + ",0.5"], "row 3 holds 14 values, the header names 13"),
    (lambda lines: [lines[0], lines[1][:8]] + lines[2:], "row 1 holds 13 values, the header names 2"),
], ids=["tag-only", "no-rows", "short-row", "long-row", "short-header"])
def test_a_cut_short_or_mixed_trajectory_names_its_file(tmp_path, cut, message):
    # what a run that died part way through a write can leave: a short file,
    # or new bytes followed by an old file's
    rng = np.random.default_rng(0)
    path = AgentPath(np.linspace(0.0, 1.0, 5), rng.normal(size=(5, 2, 3)),
                     rng.normal(size=(5, 2, 3)))
    f = tmp_path / "traj.csv"
    cio.write_trajectory(path, f)
    f.write_text("\n".join(cut(f.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(f)) + ".* " + message):
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


# negative zero, subnormals, the range ends and plain negatives
AWKWARD_VALUES = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300,
                           -3.75, 0.1, -1.0 / 3.0, 123456789.125, -7e-17])


def per_value_lines(table):
    return [",".join(cio._fmt(v) for v in row) for row in np.asarray(table).tolist()]


def test_trajectory_rows_match_the_per_value_format(tmp_path):
    times = np.array([0.0, 0.25, 0.5, 1.0])
    X = np.resize(AWKWARD_VALUES, (4, 2, 3))
    V = np.resize(AWKWARD_VALUES[::-1], (4, 2, 3))
    f = tmp_path / "traj.csv"
    cio.write_trajectory(AgentPath(times, X, V), f)
    table = np.hstack([times[:, None], X.transpose(0, 2, 1).reshape(4, -1),
                       V.transpose(0, 2, 1).reshape(4, -1)])
    assert f.read_text().splitlines()[2:] == per_value_lines(table)


@pytest.mark.parametrize("dim", [1, 2])
def test_field_snapshot_rows_match_the_per_value_format(tmp_path, dim):
    from types import SimpleNamespace

    axis = np.linspace(-1.0, 1.0, 4)
    values = np.resize(AWKWARD_VALUES, (2,) + (4,) * dim)
    grid = SimpleNamespace(axes=(axis,) * dim, times=np.array([0.0, 1.0]), values=values, h=2.0 / 3.0)
    f = tmp_path / "snap.csv"
    cio.write_field_snapshot(grid, 1.0, f)
    rows = values[1].reshape(-1, 4) if dim > 1 else values[1][None, :]
    assert f.read_text().splitlines()[1:] == per_value_lines(rows)


# -- rewriting in place ------------------------------------------------------------


def _writers():
    """Each writer of chemosim.io, with small content to write."""
    from types import SimpleNamespace

    times = np.array([0.0, 0.5])
    path = AgentPath(times, np.resize(AWKWARD_VALUES, (2, 1, 2)), np.zeros((2, 1, 2)))
    grid = SimpleNamespace(axes=(np.linspace(-1.0, 1.0, 3),), times=times,
                           values=np.resize(AWKWARD_VALUES, (2, 3)), h=1.0)
    return {
        "trajectory": lambda f: cio.write_trajectory(path, f),
        "field": lambda f: cio.write_field_snapshot(grid, 0.5, f),
        "bounds": lambda f: cio.write_bounds({"T1": 0.5, "S_value": 0.25}, f),
        "manifest": lambda f: cio.write_manifest({"name": "demo"}, f),
        "reports": lambda f: cio.write_reports([], f),
    }


@pytest.mark.parametrize("writer", list(_writers()))
def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, writer):
    write = _writers()[writer]
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    write(fresh)
    old.write_bytes(b"9" * 10000 + b"\n")
    write(old)
    assert old.read_bytes() == fresh.read_bytes()
    write(old)  # a rewrite of the same length
    assert old.read_bytes() == fresh.read_bytes()


def test_rewriting_keeps_the_inode_and_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    cio.write_bounds({"T1": 0.5, "S_value": 0.25, "K": 3.0}, target)
    inode = target.stat().st_ino
    link.symlink_to(target)
    cio.write_bounds({"T1": 0.125}, link)
    assert link.is_symlink() and target.stat().st_ino == inode
    assert cio.read_bounds(target) == {"T1": 0.125}


def test_a_write_error_leaves_only_the_new_bytes_written(tmp_path, monkeypatch):
    # a full disk part way through a rewrite: the file is cut to the bytes
    # written, as truncating on open left it, with no old bytes past them
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    cio.write_manifest({"name": "demo"}, fresh)
    old.write_bytes(b"9" * 10000 + b"\n")
    calls = []

    def short_then_full(fd, data, _write=os.write):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(28, "No space left on device")
        return _write(fd, data[:7])

    monkeypatch.setattr(cio.os, "write", short_then_full)
    with pytest.raises(OSError, match="No space"):
        cio.write_manifest({"name": "demo"}, old)
    monkeypatch.undo()
    assert len(calls) == 2
    assert old.read_bytes() == fresh.read_bytes()[:7]


def test_a_new_output_file_gets_the_default_mode(tmp_path):
    old = os.umask(0o027)
    try:
        cio.write_bounds({"T1": 0.5}, tmp_path / "bounds.txt")
        (tmp_path / "plain.txt").write_text("T1 = 0.5\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "bounds.txt").stat().st_mode)
    assert mode == 0o666 & ~0o027 == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_cli_verify_writes_its_report_to_a_device(tmp_path):
    # a device cannot be truncated, so the report is written as a stream
    p = write_cfg(tmp_path)
    res = run_cli("verify", "--config", str(p), "--suite", "holder", "--output", "/dev/null",
                  "--output-dir", str(tmp_path / "run"))
    assert res.returncode == 0, res.stderr


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
    starts = [seg["start"] for seg in manifest["segments"]]
    assert starts[0] == "taylor" and len(starts) >= 2
    assert set(starts[1:]) == {"extrapolated"}


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


def test_cli_simulate_pointwise_manifest_has_no_radius(tmp_path):
    # a config delta only matters for non-local sensing
    p = write_cfg(tmp_path, dict(DAMPED_CFG, delta=0.1))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(p), "--output-dir", str(out),
                     "--horizon", "0.02"]) == 0
    manifest = cio.read_manifest(out / "manifest.json")
    assert manifest["mode"] == "pointwise"
    assert manifest["delta"] is None


def test_cli_simulate_delta_flag_needs_nonlocal_sensing(tmp_path):
    # the config delta stays allowed (see above); the flag asks for a radius
    # that pointwise sensing would ignore
    p = write_cfg(tmp_path, dict(DAMPED_CFG, delta=0.1))
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", str(p), "--output-dir", str(out),
                  "--horizon", "0.02", "--delta", "0.1")
    assert res.returncode == 2, res.stderr
    assert "config error: --delta" in res.stderr
    assert not out.exists()


def test_cli_simulate_nan_horizon_is_a_solver_error(tmp_path):
    p = write_cfg(tmp_path)
    res = run_cli("simulate", "--config", str(p), "--output-dir", str(tmp_path / "run"),
                  "--horizon", "nan")
    assert res.returncode == 3, res.stderr
    assert "solver error: requested horizon must lie in (0, T]" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("samples", ["0", "-5", "2.5"])
def test_cli_verify_samples_must_be_a_positive_integer(tmp_path, samples):
    p = write_cfg(tmp_path)
    out = tmp_path / "run"
    res = run_cli("verify", "--config", str(p), "--suite", "holder", "--samples", samples,
                  "--output-dir", str(out))
    assert res.returncode == 2, res.stderr
    assert "argument --samples:" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "2.5"])
def test_cli_verify_seed_must_be_a_non_negative_integer(tmp_path, seed):
    p = write_cfg(tmp_path)
    out = tmp_path / "run"
    res = run_cli("verify", "--config", str(p), "--suite", "holder", "--seed", seed,
                  "--output-dir", str(out))
    assert res.returncode == 2, res.stderr
    assert "argument --seed:" in res.stderr
    assert not out.exists()


def test_cli_verify_out_of_memory_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # stands in for the 745 GiB that 1e11 samples would ask for
    def too_big(n, bounds, seed=0):
        raise MemoryError(f"Unable to allocate 745. GiB for {n} samples")

    monkeypatch.setattr(ver, "halton_points", too_big)
    p = write_cfg(tmp_path)
    out = tmp_path / "run"
    code = cli.main(["verify", "--config", str(p), "--suite", "prop1",
                     "--samples", "100000000000", "--output-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "solver error: out of memory: Unable to allocate 745. GiB for 100000000000 samples\n"
    assert not (out / "verify_report.json").exists()


S1_CFG = {
    "horizon": 1.0,
    "coefficients": "heat",
    "phi": "gaussian",
    "g": "agent-secretion",
    "force": {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
}


def s1_scenario(dim):
    return build_scenario(dict(S1_CFG, dimension=dim,
                               X0=[[0.2, -0.3], [0.1, 0.05]][:dim],
                               V0=[[0.3, 0.0], [0.0, 0.1]][:dim]))


@pytest.mark.parametrize("dim", [1, 2])
def test_run_suites_equal_each_suite_on_its_own(dim):
    scn = s1_scenario(dim)
    for seed in (1, 977):
        together = [r.to_dict() for r in cli._run_suites(scn, cli.ALL_SUITES, 300, seed, False)]
        alone = [r.to_dict() for suite in cli.ALL_SUITES
                 for r in cli._run_suites(scn, [suite], 300, seed, False)]
        assert together == alone, seed


def test_run_suites_pass_with_a_reaction_rate():
    # the kernel's mass is e^{c (t - tau)}, which the kernel-mass suite checks
    scn = build_scenario(dict(S1_CFG, dimension=1, coefficients={"a": [[1.0]], "c": -0.1},
                              X0=[[0.2, -0.3]], V0=[[0.3, 0.0]]))
    reports = cli._run_suites(scn, cli.ALL_SUITES, 300, 1, False)
    assert [r.claim for r in reports][:1] == ["kernel-mass"]
    assert all(r.passed for r in reports), [r.claim for r in reports if not r.passed]


def test_run_suites_draw_each_seed_once_and_close_the_table(monkeypatch):
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    scn = s1_scenario(1)
    for seed in (1, 977):
        cli._run_suites(scn, cli.ALL_SUITES, 300, seed, False)
    assert seeds == [1, 977]
    assert quadrature._HALTON_TABLES.get() is None

    def broken(*args, **kwargs):
        raise RuntimeError("holder check failed to run")

    monkeypatch.setattr(ver, "check_holder", broken)
    with pytest.raises(RuntimeError, match="holder check"):
        cli._run_suites(scn, ("gamma", "holder"), 300, 1, False)
    assert quadrature._HALTON_TABLES.get() is None


def test_holder_suite_checks_a_declared_phi_hessian_bound():
    # S1's gaussian phi declares H2 = 2; the holder suite appends its check,
    # and the falsification control halves H2 so that the check fails
    scn = s1_scenario(1)
    reports = cli._run_suites(scn, ["holder"], 300, 1, False)
    assert [r.claim for r in reports] == ["holder-envelope"] * 2 + ["phi-hessian-bound"]
    assert reports[-1].passed and reports[-1].constants == {"H2": 2.0}
    assert reports[-1].sample_count == 600  # both points of each pair
    falsified = cli._run_suites(scn, ["holder"], 300, 1, True)
    assert [r.passed for r in falsified] == [True, True, False]
    assert falsified[-1].constants == {"H2": 1.0}
    # abs-sqrt declares no H2: no report
    rough = build_scenario(dict(S1_CFG, dimension=1, phi="abs-sqrt", X0=[[0.2, -0.3]],
                                V0=[[0.3, 0.0]]))
    assert rough.growth.H2 is None
    assert [r.claim for r in cli._run_suites(rough, ["holder"], 300, 1, True)] \
        == ["holder-envelope"] * 2


@pytest.mark.parametrize("phi, h2", [("gaussian", 2.0), ("abs-sqrt", None)])
def test_cli_bounds_records_h2_only_when_declared(tmp_path, phi, h2):
    p = write_cfg(tmp_path, dict(S1_CFG, dimension=1, phi=phi, X0=[[0.2, -0.3]],
                                 V0=[[0.3, 0.0]]))
    out = tmp_path / "run"
    res = run_cli("bounds", "--config", str(p), "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    values = cio.read_bounds(out / "bounds.txt")
    assert values.get("H2") == h2
    assert ("H2 = 2" in res.stdout) == (h2 is not None)


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


def test_cli_simulate_backend_follows_coefficients(tmp_path):
    p = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", str(p), "--backend", "finite-difference"])
    assert exc.value.code == 2
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(p), "--output-dir", str(out),
                     "--horizon", "0.02"]) == 0
    assert cio.read_manifest(out / "manifest.json")["backend"] == BACKEND_KERNEL


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
    # the gaussian phi declares H2, so the holder suite adds phi-hessian-bound
    assert len(doc["reports"]) == 13
    assert all(r["passed"] for r in doc["reports"])


def test_cli_verify_all_suites_below_the_default_sample_times(tmp_path):
    # the horizon lies below the default lower ends of the sampled time
    # ranges (0.01 and 0.1), which must shrink to fit inside (0, horizon]
    cfg = dict(DAMPED_CFG)
    cfg["horizon"] = 0.005
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    res = run_cli("verify", "--config", str(p), "--suite", "all",
                  "--samples", "100", "--output-dir", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "verify_report.json").read_text())
    assert len(doc["reports"]) == 13  # phi-hessian-bound included
    prop1 = [r for r in doc["reports"] if r["claim"].startswith("field-")]
    assert len(prop1) == 2
    assert all(0.0 < r["worst_sample"][1] <= 0.005 for r in prop1)


def test_cli_verify_residual_follows_the_config_mode(tmp_path):
    cfg = dict(DAMPED_CFG, horizon=0.005, g="agent-secretion", mode="nonlocal", delta=0.1,
               force={"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
               X0=[[0.2]], V0=[[0.3]])
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", str(p), "--suite", "residual",
                     "--output-dir", str(out)]) == 0
    (rep,) = json.loads((out / "verify_report.json").read_text())["reports"]
    scn = build_scenario(cfg)
    cert = horizon_certificate(scn, mode=MODE_NONLOCAL)
    path, _ = solve_local(scn, cert, tol=1e-8, dt=1e-2)
    expected = residual_check(path, scn, FieldProbe(scn, path), mode=MODE_NONLOCAL)
    assert rep["worst_ratio"] == expected.worst_ratio


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


def test_cli_verify_unknown_suite_runs_no_suite(tmp_path, monkeypatch, capsys):
    p = write_cfg(tmp_path)
    called = []
    for name in ("check_kernel_mass", "check_gamma_estimates", "check_prop1", "check_holder",
                 "check_phi_hessian", "gronwall_oracle", "residual_check"):
        monkeypatch.setattr(ver, name, lambda *a, _name=name, **k: called.append(_name))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(p), "--suite", "prop1,residual,bogus",
                  "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unknown verify suite 'bogus'" in capsys.readouterr().err
    assert called == []
    assert not (tmp_path / "verify_report.json").exists()


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
    # an admissible config, with a reaction rate, and a time step that is
    # not positive: a solver error
    cfg2 = dict(DAMPED_CFG)
    cfg2["coefficients"] = {"a": [[1.0]], "c": 0.3}
    cfg2["growth"] = {}
    p2 = write_cfg(tmp_path, cfg2, name="cfg2.json")
    res2 = run_cli("simulate", "--config", str(p2), "--output-dir", str(tmp_path / "run"),
                   "--dt", "0")
    assert res2.returncode == 3
    assert "dt must be positive and finite" in res2.stderr


@pytest.mark.parametrize("command", ["simulate", "bounds", "verify"])
def test_cli_nonlocal_config_without_radius_is_a_config_error(tmp_path, command):
    p = write_cfg(tmp_path, dict(DAMPED_CFG, mode="nonlocal"))
    extra = ("--suite", "residual") if command == "verify" else ()
    res = run_cli(command, "--config", str(p), "--output-dir", str(tmp_path / "run"), *extra)
    assert res.returncode == 2, res.stderr
    assert "non-local mode needs --delta or a config delta" in res.stderr


@pytest.mark.parametrize("mode", ["non-local", None])
@pytest.mark.parametrize("command", [("simulate",), ("bounds",), ("verify", "--suite", "holder")],
                         ids=["simulate", "bounds", "verify-holder"])
def test_cli_unknown_config_mode_is_a_config_error(tmp_path, capsys, command, mode):
    # a misspelt mode was a solver error (simulate, bounds) or ran pointwise
    # (verify)
    p = write_cfg(tmp_path, dict(DAMPED_CFG, mode=mode))
    out = tmp_path / "run"
    assert cli.main([command[0], "--config", str(p), "--output-dir", str(out),
                     *command[1:]]) == cli.EXIT_CONFIG
    assert (f"config error: config key 'mode' must be 'pointwise' or 'nonlocal', got {mode!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
def test_cli_nonpositive_delta_flag_is_a_config_error(tmp_path, delta):
    p = write_cfg(tmp_path, dict(DAMPED_CFG, mode="nonlocal", delta=0.1))
    res = run_cli("simulate", "--config", str(p), "--output-dir", str(tmp_path / "run"),
                  "--delta", delta, "--horizon", "0.02")
    assert res.returncode == 2, res.stderr
    assert "sensing radius --delta must be positive" in res.stderr


@pytest.mark.parametrize("args, message", [
    (("simulate", "--horizon", "0.01", "--field-snapshot", "0.01", "--field-snapshot", "5"),
     "time 5 lies outside the solved span [0, 0.01]"),
    (("simulate", "--horizon", "0.01", "--field-snapshot", "-0.5"),
     "time -0.5 lies outside the solved span [0, 0.01]"),
    (("field-export", "--times", "0.5,3"), "time 3 lies outside the solved span [0, 1]"),
], ids=["simulate-after", "simulate-before", "field-export-after"])
def test_cli_snapshot_outside_the_solved_span(tmp_path, args, message):
    p = write_cfg(tmp_path, dict(DAMPED_CFG, horizon=1.0))
    out = tmp_path / "run"
    res = run_cli(args[0], "--config", str(p), "--output-dir", str(out), *args[1:])
    assert res.returncode == 3, res.stderr
    assert message in res.stderr
    assert not list(out.glob("field_t*.csv"))  # not even the in-range one


@pytest.mark.parametrize("times", ["abc", "0.25,abc", "0.25,"])
def test_cli_field_export_bad_time_is_a_usage_error(tmp_path, times):
    p = write_cfg(tmp_path, dict(DAMPED_CFG, horizon=1.0))
    out = tmp_path / "run"
    res = run_cli("field-export", "--config", str(p), "--times", times, "--output-dir", str(out))
    assert res.returncode == 2, res.stderr
    bad = times.split(",")[-1]
    assert f"argument --times: snapshot time {bad!r} is not a number" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("key, label", [("horizon", "horizon"), ("R", "compact radius R"),
                                        ("delta", "nonlocal sensing radius delta")])
@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_cli_nan_config_number_is_a_config_error(tmp_path, command, key, label):
    # json.dumps writes NaN and json.loads reads it back
    p = write_cfg(tmp_path, {**DAMPED_CFG, "mode": "nonlocal", "delta": 0.1, key: float("nan")})
    res = run_cli(command, "--config", str(p), "--output-dir", str(tmp_path / "run"))
    assert res.returncode == 2, res.stderr
    assert f"config error: {label} must be positive and finite, got nan" in res.stderr


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_cli_nan_growth_constant_is_a_config_error(tmp_path, command):
    # a NaN M made bounds print B = nan and simulate write it to the manifest
    p = write_cfg(tmp_path, {**DAMPED_CFG, "growth": {"M": float("nan")}})
    out = tmp_path / "run"
    res = run_cli(command, "--config", str(p), "--output-dir", str(out))
    assert res.returncode == 2, res.stderr
    assert "config error: growth constant M must be finite and nonnegative, got nan" in res.stderr
    assert not out.exists()


def test_cli_unknown_preset_parameter_is_a_config_error(tmp_path):
    # the TypeError of the preset call escaped, and bounds exited 1 with a traceback
    p = write_cfg(tmp_path, {**DAMPED_CFG, "force": {"name": "damped-chemotaxis", "chi2": 0.3}})
    out = tmp_path / "run"
    res = run_cli("bounds", "--config", str(p), "--output-dir", str(out))
    assert res.returncode == 2, res.stderr
    assert ("config error: unknown parameter 'chi2' for force preset 'damped-chemotaxis'"
            in res.stderr)
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("change, key, want", [
    ({"force": {"name": "damped-chemotaxis", "chi": "x"}}, "force.chi", "numeric"),
    ({"g": {"name": "constant", "value": "abc"}}, "g.value", "numeric"),
    ({"dimension": "two"}, "dimension", "numeric"),
    ({"X0": [["a"]]}, "X0", "numeric"),
    ({"coefficients": {"a": [[1.0]], "b": "x"}}, "coefficients.b", "numeric"),
    ({"dimension": 1.7}, "dimension", "an integer"),
    ({"dimension": True}, "dimension", "numeric"),
    ({"horizon": "0.5"}, "horizon", "numeric"),
    ({"R": True}, "R", "numeric"),
    ({"X0": [["0.2", "-0.3"]], "V0": [[0.5, 0.0]]}, "X0", "numeric"),
    ({"X0": [[True, 0.2]], "V0": [[0.5, 0.0]]}, "X0", "numeric"),
    ({"X0": [[0.2, -0.3]], "V0": [[1, False]]}, "V0", "numeric"),
    ({"coefficients": {"a": [[1.0, False], [0.0, 1.0]]}}, "coefficients.a", "numeric"),
], ids=["force-chi", "g-value", "dimension", "X0", "inline-b", "fractional-dimension",
        "bool-dimension", "string-horizon", "bool-R", "string-X0", "bool-among-floats-X0",
        "bool-among-ints-V0", "bool-inline-a"])
def test_cli_non_numeric_config_value_is_a_config_error(tmp_path, capsys, change, key, want):
    # the force parameter escaped as a TypeError (exit 1), the others as
    # solver errors (exit 3); int() truncated a dimension of 1.7 to 1,
    # float() read a bool or a string of digits, and np.asarray read a bool
    # among numbers as 0 or 1, so those built
    p = write_cfg(tmp_path, {**DAMPED_CFG, **change})
    out = tmp_path / "run"
    assert cli.main(["bounds", "--config", str(p), "--output-dir", str(out)]) == 2
    assert f"config error: config key {key!r} must be {want}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"force": 3}, "config key 'force' must be a preset name or a mapping, got 3"),
    ({"g": [1.0]}, "config key 'g' must be a preset name or a mapping, got [1.0]"),
    ({"coefficients": {"c": -0.1}}, "config key 'coefficients' must be a preset name or a "
                                    "mapping with an 'a'"),
    ({"growth": 5}, "config key 'growth' must be a mapping, got 5"),
], ids=["force", "g", "coefficients", "growth"])
def test_cli_config_value_of_the_wrong_shape_is_a_config_error(tmp_path, capsys, change,
                                                               message):
    # each escaped as an AttributeError or KeyError traceback (exit 1)
    p = write_cfg(tmp_path, {**DAMPED_CFG, **change})
    assert cli.main(["bounds", "--config", str(p), "--output-dir", str(tmp_path / "run")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_bounds_writes_an_infinite_B(tmp_path):
    # 16 agents in 2D: B's exponent overflowed math.exp, and bounds exited 1
    # with a traceback; an infinite bound is still a bound
    rng = np.random.default_rng(0)
    cfg = {"dimension": 2, "horizon": 0.5, "R": 4.0, "coefficients": "heat",
           "phi": "gaussian", "g": "agent-secretion",
           "force": {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
           "X0": rng.uniform(-0.5, 0.5, (2, 16)).tolist(),
           "V0": rng.uniform(-0.3, 0.3, (2, 16)).tolist()}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["bounds", "--config", str(p), "--output-dir", str(out)]) == 0
    assert "\nB = inf\n" in (out / "bounds.txt").read_text()
    values = cio.read_bounds(out / "bounds.txt")
    assert values["B"] == math.inf and math.isfinite(values["T_bar"])


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
