"""Command-line driver: simulate | verify | bounds | field-export.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 solver
error.  The default output directory comes from $CHEMOSIM_OUTDIR when set.
Simulation output is deterministic, so reruns with the same config produce
byte-identical trajectory and snapshot files; manifests record wall-clock
times and therefore differ.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as cio
from . import verify as ver
from .config import ConfigError, config_digest, load_config
from .field import BACKEND_FD, BACKEND_KERNEL, FieldProbe, QuadratureSpec, solve_field_fd
from .paths import AgentPath
from .picard import (
    MODE_NONLOCAL,
    MODE_POINTWISE,
    PicardError,
    gronwall_bound_B,
    horizon_certificate,
    solve_global,
    solve_local,
)
from .quadrature import halton_points
from .scenario import Scenario, ScenarioError, build_scenario

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

ALL_SUITES = ("kernel-mass", "gamma", "prop1", "holder", "gronwall", "residual")


def _default_outdir() -> str:
    return os.environ.get("CHEMOSIM_OUTDIR", ".")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chemosim",
                                     description="Coupled agent/signal simulation and bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="solve the coupled system and write the trajectory")
    sim.add_argument("--config", required=True)
    sim.add_argument("--mode", choices=[MODE_POINTWISE, MODE_NONLOCAL], default=None)
    sim.add_argument("--delta", type=float, default=None, help="sensing radius for non-local mode")
    sim.add_argument("--tol", type=float, default=1e-8)
    sim.add_argument("--horizon", type=float, default=None, help="defaults to the config horizon")
    sim.add_argument("--dt", type=float, default=1e-2)
    sim.add_argument("--backend", choices=[BACKEND_KERNEL, BACKEND_FD], default=BACKEND_KERNEL)
    sim.add_argument("--output-dir", default=None)
    sim.add_argument("--field-snapshot", type=float, action="append", default=[],
                     help="export a field grid at this time (repeatable)")

    vfy = sub.add_parser("verify", help="run estimate checks and write a report")
    vfy.add_argument("--config", required=True)
    vfy.add_argument("--suite", default="all",
                     help=f"comma-separated subset of {','.join(ALL_SUITES)} or 'all'")
    vfy.add_argument("--samples", type=int, default=300)
    vfy.add_argument("--seed", type=int, default=0)
    vfy.add_argument("--falsify", action="store_true",
                     help="shrink the claimed constants as a checker sanity control")
    vfy.add_argument("--output", default=None)
    vfy.add_argument("--output-dir", default=None)

    bnd = sub.add_parser("bounds", help="emit horizon certificate and growth-bound constants")
    bnd.add_argument("--config", required=True)
    bnd.add_argument("--output", default=None)
    bnd.add_argument("--output-dir", default=None)

    fex = sub.add_parser("field-export", help="export field grids for the frozen initial configuration")
    fex.add_argument("--config", required=True)
    fex.add_argument("--times", required=True, help="comma-separated snapshot times")
    fex.add_argument("--output-dir", default=None)
    return parser


def _outdir(args) -> Path:
    out = Path(args.output_dir or _default_outdir())
    out.mkdir(parents=True, exist_ok=True)
    return out


def _mode_and_delta(args, cfg, scenario: Scenario) -> tuple[str, float | None]:
    mode = args.mode or cfg.get("mode", MODE_POINTWISE)
    delta = args.delta if args.delta is not None else scenario.nonlocal_delta
    if mode == MODE_NONLOCAL and delta is None:
        raise ConfigError("non-local mode needs --delta or a config delta")
    return mode, delta


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    scenario = build_scenario(cfg)
    mode, delta = _mode_and_delta(args, cfg, scenario)
    if args.delta is not None:
        scenario = replace(scenario, nonlocal_delta=args.delta)
    horizon = args.horizon if args.horizon is not None else scenario.growth.T
    outdir = _outdir(args)

    t_start = time.perf_counter()
    segments: list = []
    path = solve_global(scenario, horizon, tol=args.tol, mode=mode,
                        backend=args.backend, dt=args.dt, segments_out=segments)
    wall_solve = time.perf_counter() - t_start

    traj_file = outdir / "trajectory.csv"
    cio.write_trajectory(path, traj_file)
    outputs = [str(traj_file)]

    fdf = solve_field_fd(scenario, path) if args.field_snapshot else None
    for t_snap in args.field_snapshot:
        snap_file = outdir / f"field_t{t_snap:g}.csv"
        cio.write_field_snapshot(fdf, t_snap, snap_file)
        outputs.append(str(snap_file))

    first = segments[0].certificate if segments else None
    manifest = {
        "command": "simulate",
        "config_digest": config_digest(cfg),
        "mode": mode,
        "delta": delta,
        "tol": args.tol,
        "horizon": horizon,
        "backend": args.backend,
        "certificate": None if first is None else {
            "T1": first.t_range, "T2": first.t_contract, "T_bar": first.t_bar,
            "S_value": first.s_value, "gamma_bar": first.gamma_bar,
        },
        "bound_B": gronwall_bound_B(scenario, horizon, delta=delta if mode == MODE_NONLOCAL else None),
        "segments": [
            {"t_start": s.t_start, "t_end": s.t_end, "t_bar": s.certificate.t_bar,
             "s_value": s.certificate.s_value, "iterations": s.iterations,
             "final_diff": s.final_diff}
            for s in segments
        ],
        "wall_seconds": {"solve": wall_solve},
        "outputs": outputs,
    }
    cio.write_manifest(manifest, outdir / "manifest.json")
    print(f"wrote {traj_file} ({len(path.times)} nodes, {len(segments)} segments)")
    return EXIT_OK


def _holder_pairs(scenario: Scenario, count: int, seed: int, radius: float = 2.0):
    dim = scenario.dimension
    pts = halton_points(2 * count, [(-radius, radius)] * dim, seed=seed)
    return [(pts[2 * i], pts[2 * i + 1]) for i in range(count)]


def _holder_pairs_two_arg(scenario: Scenario, count: int, seed: int, radius: float = 2.0):
    dim, n = scenario.dimension, scenario.n
    cols = 2 * dim + 2 * dim * n
    raw = halton_points(count, [(-radius, radius)] * cols, seed=seed)
    pairs = []
    for row in raw:
        x = row[:dim]
        y = row[dim:2 * dim]
        xx = row[2 * dim:2 * dim + dim * n].reshape(dim, n)
        yy = row[2 * dim + dim * n:].reshape(dim, n)
        # configurations stay inside the ball of the declared radius
        for m in (xx, yy):
            nrm = np.linalg.norm(m)
            if nrm > radius:
                m *= radius / nrm
        pairs.append(((x, xx), (y, yy)))
    return pairs


def _run_suites(scenario: Scenario, suites, samples: int, seed: int, falsify: bool):
    reports = []
    horizon = scenario.growth.T
    for suite in suites:
        if suite == "kernel-mass":
            kern = scenario.kernel
            if kern.c != 0.0:
                raise PicardError("kernel-mass suite requires a zero reaction rate")
            reports.append(ver.check_kernel_mass(
                kern, ver.mass_samples(scenario.dimension, min(samples, 50), horizon, seed)))
        elif suite == "gamma":
            params = scenario.estimate_params
            reps = ver.check_gamma_estimates(
                scenario.kernel, params,
                ver.gamma_samples(scenario.dimension, samples, t_max=horizon, seed=seed))
            reports.extend(reps[k] for k in sorted(reps))
        elif suite == "prop1":
            times = np.linspace(0.0, horizon, 9)
            path = AgentPath.constant(scenario.X0, scenario.V0, times)
            probe = FieldProbe(scenario, path)
            pts = ver.space_time_samples(scenario.dimension, samples, box=3.0,
                                         t_range=(0.01, min(1.0, horizon)), seed=seed)
            # certified bounds hold with large margins, so the sanity control
            # must shrink K well below the observed worst ratio
            k_scale = 0.02 if falsify else 1.0
            rep_g, rep_h = ver.check_prop1(scenario, probe, pts, k_scale=k_scale)
            reports.extend([rep_g, rep_h])
        elif suite == "holder":
            growth = scenario.growth
            reports.append(ver.check_holder(scenario.phi, scenario.alpha, growth.C,
                                            growth.H, _holder_pairs(scenario, samples, seed)))
            radius = 2.0
            reports.append(ver.check_holder(scenario.g, scenario.alpha, growth.C,
                                            growth.HR(radius),
                                            _holder_pairs_two_arg(scenario, samples, seed, radius)))
        elif suite == "gronwall":
            grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
            cases = [
                ("zero-kernels", lambda t: 0.0, lambda s, t: 0.0),
                ("constant-single", lambda t: 1.0, lambda s, t: 0.0),
                ("double-integral", lambda t: 0.0, lambda s, t: 1.0),
            ]
            for label, w_fn, v_fn in cases:
                rep = ver.gronwall_oracle(1.0, w_fn, v_fn, grid)
                rep.claim = f"integral-inequality-{label}"
                reports.append(rep)
        elif suite == "residual":
            cert = horizon_certificate(scenario)
            path, _ = solve_local(scenario, cert, tol=1e-8, dt=1e-2)
            probe = FieldProbe(scenario, path)
            reports.append(ver.residual_check(path, scenario, probe))
        else:
            raise ConfigError(f"unknown verify suite {suite!r}")
    return reports


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    scenario = build_scenario(cfg)
    suites = ALL_SUITES if args.suite == "all" else tuple(s.strip() for s in args.suite.split(","))
    reports = _run_suites(scenario, suites, args.samples, args.seed, args.falsify)
    outdir = _outdir(args)
    out_file = Path(args.output) if args.output else outdir / "verify_report.json"
    cio.write_reports(reports, out_file)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.claim}: worst ratio {r.worst_ratio:.6g} "
              f"(tolerance 1+{r.tolerance:g}, {r.sample_count} samples)")
    print(f"report written to {out_file}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    scenario = build_scenario(cfg)
    cert = horizon_certificate(scenario, mode=cfg.get("mode", MODE_POINTWISE))
    values = {
        "T1": cert.t_range,
        "T2": cert.t_contract,
        "T_bar": cert.t_bar,
        "S_value": cert.s_value,
        "gamma_bar": cert.gamma_bar,
        "R": cert.radius,
    }
    values.update(cert.constants)
    if scenario.satisfies_global_hypotheses:
        values["B"] = gronwall_bound_B(scenario, scenario.growth.T, delta=cert.delta)
    outdir = _outdir(args)
    out_file = Path(args.output) if args.output else outdir / "bounds.txt"
    cio.write_bounds(values, out_file)
    for key, val in values.items():
        print(f"{key} = {val:.12g}")
    return EXIT_OK


def _cmd_field_export(args) -> int:
    cfg = load_config(args.config)
    scenario = build_scenario(cfg)
    times = [float(v) for v in args.times.split(",")]
    horizon = scenario.growth.T
    grid_times = np.linspace(0.0, horizon, 9)
    path = AgentPath.constant(scenario.X0, scenario.V0, grid_times)
    fdf = solve_field_fd(scenario, path)
    outdir = _outdir(args)
    for t_snap in times:
        snap_file = outdir / f"field_t{t_snap:g}.csv"
        cio.write_field_snapshot(fdf, t_snap, snap_file)
        print(f"wrote {snap_file}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
        "field-export": _cmd_field_export,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ScenarioError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PicardError, ValueError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
