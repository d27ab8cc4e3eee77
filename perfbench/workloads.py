"""Seeded S1 workloads, their timed units and the checks on their outputs.

Every workload uses ROADMAP's S1 physics (heat coefficients, Gaussian phi,
agent secretion, damped chemotaxis with chi 0.3 and kappa_v 1, two agents).
The workload seed draws the agents' initial state; the program only ever
sees the generated config.  With C = 0 the certificate does not depend on the
initial state, so every seed does the same amount of certified work.

A unit is what a user runs once: set up a scenario from the config, then
solve it and write trajectory.csv and manifest.json (as `chemosim simulate`
does), or run every verify suite and write the report (as `chemosim verify
--suite all` does).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import chemosim
from chemosim import cli, io
from chemosim.config import config_digest

TOL = 1e-8
DT = 1e-2
DELTA = 0.1
VERIFY_SAMPLES = 300   # the `chemosim verify` default


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    kind: str                    # "solve" or "verify"
    mode: str = chemosim.MODE_POINTWISE
    horizon: float | None = None  # solve span; the config horizon stays 1


# Solve spans: 11 certified segments in 1D (t_bar 2.0e-3), 3 in non-local 1D,
# 2 in 2D (t_bar 3.2e-5); each unit takes 2-3 s on a 2-core box.
WORKLOADS = {
    "pointwise-1d": Workload("pointwise-1d", 1, "solve", horizon=0.02),
    "pointwise-2d": Workload("pointwise-2d", 2, "solve", horizon=5e-5),
    "nonlocal-1d": Workload("nonlocal-1d", 1, "solve", chemosim.MODE_NONLOCAL, horizon=0.005),
    "verify-1d": Workload("verify-1d", 1, "verify"),
}


def make_config(workload: Workload, seed: int) -> dict:
    """S1 config with X0 in [-0.5, 0.5]^N and V0 in [-0.3, 0.3]^N per agent."""
    rng = np.random.default_rng(seed)
    dim = workload.dimension
    cfg = {
        "dimension": dim,
        "horizon": 1.0,
        "coefficients": "heat",
        "phi": "gaussian",
        "g": "agent-secretion",
        "force": {"name": "damped-chemotaxis", "chi": 0.3, "kappa_v": 1.0},
        "X0": rng.uniform(-0.5, 0.5, size=(dim, 2)).tolist(),
        "V0": rng.uniform(-0.3, 0.3, size=(dim, 2)).tolist(),
    }
    if workload.mode == chemosim.MODE_NONLOCAL:
        cfg["mode"] = workload.mode
        cfg["delta"] = DELTA
    return cfg


def setup(cfg: dict, tracer=None):
    """Validated scenario with its estimate constants computed."""
    scenario = chemosim.build_scenario(cfg)
    if tracer is not None:
        scenario = tracer.wrap_scenario(scenario)
    scenario.estimate_params
    return scenario


# -- solve units -------------------------------------------------------------


def run_solve(scenario, workload: Workload, cfg: dict, outdir: Path) -> list:
    """Certificates, Picard solve, trajectory.csv and manifest.json."""
    segments: list = []
    path = chemosim.solve_global(scenario, workload.horizon, tol=TOL, mode=workload.mode,
                                 dt=DT, segments_out=segments)
    io.write_trajectory(path, outdir / "trajectory.csv")
    delta = scenario.nonlocal_delta if workload.mode == chemosim.MODE_NONLOCAL else None
    first = segments[0].certificate
    manifest = {
        "command": "simulate",
        "config_digest": config_digest(cfg),
        "mode": workload.mode,
        "delta": delta,
        "tol": TOL,
        "horizon": workload.horizon,
        "backend": chemosim.BACKEND_KERNEL,
        "certificate": {"T1": first.t_range, "T2": first.t_contract, "T_bar": first.t_bar,
                        "S_value": first.s_value, "gamma_bar": first.gamma_bar},
        "bound_B": chemosim.gronwall_bound_B(scenario, workload.horizon, delta=delta),
        "segments": [{"t_start": s.t_start, "t_end": s.t_end, "t_bar": s.certificate.t_bar,
                      "s_value": s.certificate.s_value, "iterations": s.iterations,
                      "final_diff": s.final_diff} for s in segments],
        "outputs": ["trajectory.csv"],   # relative, so the manifest's size repeats across runs
    }
    io.write_manifest(manifest, outdir / "manifest.json")
    return segments


def check_solve(scenario, workload: Workload, outdir: Path, segments: list,
                reference_digest: str | None) -> tuple[str, list[str]]:
    """Digest of trajectory.csv and the list of failed checks.

    The residual check reads the written file back.  It is skipped when the
    file is byte-identical to the reference one, whose residual was checked.
    """
    failures = []
    traj_file = outdir / "trajectory.csv"
    digest = hashlib.sha256(traj_file.read_bytes()).hexdigest()
    if digest != reference_digest:
        path = io.read_trajectory(traj_file)
        if not all(np.isfinite(a).all() for a in (path.times, path.X, path.V)):
            failures.append("trajectory has non-finite values")
        else:
            probe = chemosim.FieldProbe(scenario, path)
            report = chemosim.residual_check(path, scenario, probe, mode=workload.mode)
            if not report.passed:
                failures.append(f"ODE residual {report.worst_ratio - 1.0:.3g} above {report.tolerance:g}")
        if reference_digest is not None:
            failures.append("trajectory.csv differs from the first run of this seed")
    if not segments:
        failures.append("no segments recorded")
    for s in segments:
        cert = s.certificate
        values = (s.final_diff, cert.s_value, cert.t_bar, cert.t_range, cert.t_contract)
        if not all(math.isfinite(v) for v in values):
            failures.append(f"segment at t={s.t_start:g}: non-finite record")
        elif not s.final_diff < TOL:
            failures.append(f"segment at t={s.t_start:g}: final_diff {s.final_diff:.3g} >= tol")
        elif not cert.s_value < 1.0:
            failures.append(f"segment at t={s.t_start:g}: certified S {cert.s_value:.3g} >= 1")
    return digest, failures


# -- verify units --------------------------------------------------------------


def run_verify(scenario, seed: int, outdir: Path) -> list:
    """All verify suites with the workload seed as sample seed, then the report."""
    reports = cli._run_suites(scenario, cli.ALL_SUITES, VERIFY_SAMPLES, seed, False)
    io.write_reports(reports, outdir / "verify_report.json")
    return reports


def check_verify(reports: list, outdir: Path, reference_digest: str | None) -> tuple[str, list[str]]:
    """Digest of the report file and the failed checks; failing reports are
    counted by the caller."""
    failures = []
    digest = hashlib.sha256((outdir / "verify_report.json").read_bytes()).hexdigest()
    if reference_digest is not None and digest != reference_digest:
        failures.append("verify_report.json differs from the first run of this seed")
    if not all(math.isfinite(r.worst_ratio) for r in reports):
        failures.append("a report has a non-finite worst ratio")
    return digest, failures
