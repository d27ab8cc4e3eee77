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
from .field import FieldProbe, backend_for, solve_field_fd
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
from .quadrature import halton_run
from .scenario import Scenario, ScenarioError, build_scenario

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

ALL_SUITES = ("kernel-mass", "gamma", "prop1", "holder", "gronwall", "residual")


def _default_outdir() -> str:
    return os.environ.get("CHEMOSIM_OUTDIR", ".")


def _time_list(text: str) -> list[float]:
    """Parse a comma-separated list of times; a bad entry is a usage error."""
    times = []
    for entry in text.split(","):
        try:
            times.append(float(entry))
        except ValueError:
            raise argparse.ArgumentTypeError(f"snapshot time {entry!r} is not a number") from None
    return times


def _positive_int(text: str) -> int:
    """A count of at least 1; argparse reports anything else as a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """A seed of at least 0; argparse reports anything else as a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _suite_list(text: str) -> tuple[str, ...]:
    """'all' or a comma-separated list of suite names; an unknown name is a
    usage error, reported before any suite runs."""
    if text == "all":
        return ALL_SUITES
    suites = tuple(s.strip() for s in text.split(","))
    for suite in suites:
        if suite not in ALL_SUITES:
            raise argparse.ArgumentTypeError(f"unknown verify suite {suite!r}")
    return suites


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
    sim.add_argument("--output-dir", default=None)
    sim.add_argument("--field-snapshot", type=float, action="append", default=[],
                     help="export a field grid at this time (repeatable)")

    vfy = sub.add_parser("verify", help="run estimate checks and write a report")
    vfy.add_argument("--config", required=True)
    vfy.add_argument("--suite", type=_suite_list, default=ALL_SUITES,
                     help=f"comma-separated subset of {','.join(ALL_SUITES)} or 'all'")
    vfy.add_argument("--samples", type=_positive_int, default=300)
    vfy.add_argument("--seed", type=_non_negative_int, default=0)
    vfy.add_argument("--falsify", action="store_true",
                     help="shrink prop1's claimed K by 50x and halve the holder suite's declared "
                          "H2, so those checkers must fail")
    vfy.add_argument("--output", default=None)
    vfy.add_argument("--output-dir", default=None)

    bnd = sub.add_parser("bounds", help="emit horizon certificate and growth-bound constants")
    bnd.add_argument("--config", required=True)
    bnd.add_argument("--output", default=None)
    bnd.add_argument("--output-dir", default=None)

    fex = sub.add_parser("field-export", help="export field grids for the frozen initial configuration")
    fex.add_argument("--config", required=True)
    fex.add_argument("--times", required=True, type=_time_list,
                     help="comma-separated snapshot times")
    fex.add_argument("--output-dir", default=None)
    return parser


def _outdir(args) -> Path:
    out = Path(args.output_dir or _default_outdir())
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sensing(cfg, scenario: Scenario, mode: str | None = None,
             delta: float | None = None) -> tuple[Scenario, str, float | None]:
    """(scenario carrying the radius, mode, radius) of a run: ``mode`` and
    ``delta`` override the config's; pointwise sensing has no radius."""
    config_mode = cfg.get("mode", MODE_POINTWISE)
    if config_mode not in (MODE_POINTWISE, MODE_NONLOCAL):
        raise ConfigError(f"config key 'mode' must be 'pointwise' or 'nonlocal', got {config_mode!r}")
    mode = mode or config_mode
    if mode != MODE_NONLOCAL:
        if delta is not None:
            raise ConfigError(f"--delta sets the non-local sensing radius; {mode} sensing has none")
        return scenario, mode, None
    if delta is not None:
        if not 0.0 < delta < np.inf:  # NaN too; the config's delta was checked at build
            raise ConfigError(f"sensing radius --delta must be positive and finite, got {delta:g}")
        scenario = replace(scenario, nonlocal_delta=delta)
    if scenario.nonlocal_delta is None:
        raise ConfigError("non-local mode needs --delta or a config delta")
    return scenario, mode, scenario.nonlocal_delta


def _check_snapshot_times(times, horizon: float) -> None:
    for t_snap in times:
        if not 0.0 <= t_snap <= horizon:  # NaN too
            raise ValueError(f"field snapshot time {t_snap:g} lies outside the solved "
                             f"span [0, {horizon:g}]")


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    scenario, mode, delta = _sensing(cfg, build_scenario(cfg), args.mode, args.delta)
    horizon = args.horizon if args.horizon is not None else scenario.growth.T
    _check_snapshot_times(args.field_snapshot, horizon)
    outdir = _outdir(args)

    t_start = time.perf_counter()
    segments: list = []
    path = solve_global(scenario, horizon, tol=args.tol, mode=mode,
                        dt=args.dt, segments_out=segments)
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
        "backend": backend_for(scenario),
        "certificate": None if first is None else {
            "T1": first.t_range, "T2": first.t_contract, "T_bar": first.t_bar,
            "S_value": first.s_value, "gamma_bar": first.gamma_bar,
        },
        "bound_B": gronwall_bound_B(scenario, horizon, delta=delta),
        "segments": [
            {"t_start": s.t_start, "t_end": s.t_end, "t_bar": s.certificate.t_bar,
             "s_value": s.certificate.s_value, "iterations": s.iterations,
             "final_diff": s.final_diff, "start": s.start}
            for s in segments
        ],
        "wall_seconds": {"solve": wall_solve},
        "outputs": outputs,
    }
    cio.write_manifest(manifest, outdir / "manifest.json")
    print(f"wrote {traj_file} ({len(path.times)} nodes, {len(segments)} segments)")
    return EXIT_OK


def _sample_floor(default: float, horizon: float) -> float:
    """Lower end of a sampled time range inside (0, horizon]: the generator
    default, or a tenth of a horizon that lies below it."""
    return default if default <= horizon else horizon / 10.0


def _run_suites(scenario: Scenario, suites, samples: int, seed: int, falsify: bool,
                mode: str = MODE_POINTWISE):
    """Reports of the named verify suites, in order.  The sample sets of a
    run come from one Halton table per seed (`quadrature.halton_run`,
    closed when the run ends or raises): the suites' draws share the seed's
    digit permutations and the points computed, and each set equals the
    one the suite draws when it runs on its own, bit for bit."""
    reports = []
    horizon = scenario.growth.T
    with halton_run():
        for suite in suites:
            if suite == "kernel-mass":
                reports.append(ver.check_kernel_mass(
                    scenario.kernel,
                    ver.mass_samples(scenario.dimension, min(samples, 50), horizon, seed,
                                     t_min=_sample_floor(0.1, horizon))))
            elif suite == "gamma":
                params = scenario.estimate_params
                reps = ver.check_gamma_estimates(
                    scenario.kernel, params,
                    ver.gamma_samples(scenario.dimension, samples, t_max=horizon, seed=seed,
                                      t_min=_sample_floor(0.01, horizon)))
                reports.extend(reps[k] for k in sorted(reps))
            elif suite == "prop1":
                times = np.linspace(0.0, horizon, 9)
                path = AgentPath.constant(scenario.X0, scenario.V0, times)
                probe = FieldProbe(scenario, path)
                t_range = (_sample_floor(0.01, horizon), min(1.0, horizon))
                pts = ver.space_time_samples(scenario.dimension, samples, box=3.0,
                                             t_range=t_range, seed=seed)
                # certified bounds hold with large margins, so the sanity control
                # must shrink K well below the observed worst ratio
                k_scale = 0.02 if falsify else 1.0
                rep_g, rep_h = ver.check_prop1(scenario, probe, pts, k_scale=k_scale)
                reports.extend([rep_g, rep_h])
            elif suite == "holder":
                growth = scenario.growth
                pairs = ver.holder_pairs(scenario.dimension, samples, seed)
                reports.append(ver.check_holder(scenario.phi, scenario.alpha, growth.C, growth.H,
                                                pairs))
                points = np.concatenate(pairs)
                radius = 2.0
                pairs = ver.holder_pairs_two_arg(scenario.dimension, scenario.n, samples, seed,
                                                 radius)
                reports.append(ver.check_holder(scenario.g, scenario.alpha, growth.C,
                                                growth.HR(radius), pairs))
                if growth.H2 is not None:
                    # the falsification control halves the declared bound
                    h2 = growth.H2 / 2.0 if falsify else growth.H2
                    reports.append(ver.check_phi_hessian(scenario.phi, h2, points))
            elif suite == "gronwall":
                grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
                # constant kernels (w, v)
                cases = [
                    ("zero-kernels", 0.0, 0.0),
                    ("constant-single", 1.0, 0.0),
                    ("double-integral", 0.0, 1.0),
                ]
                for label, w, v in cases:
                    rep = ver.gronwall_oracle(1.0, w, v, grid)
                    rep.claim = f"integral-inequality-{label}"
                    reports.append(rep)
            elif suite == "residual":
                cert = horizon_certificate(scenario, mode=mode)
                path, _ = solve_local(scenario, cert, tol=1e-8, dt=1e-2)
                probe = FieldProbe(scenario, path)
                reports.append(ver.residual_check(path, scenario, probe, mode=mode))
            else:
                raise ConfigError(f"unknown verify suite {suite!r}")
    return reports


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    scenario, mode, _ = _sensing(cfg, build_scenario(cfg))
    reports = _run_suites(scenario, args.suite, args.samples, args.seed, args.falsify, mode=mode)
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
    scenario, mode, delta = _sensing(cfg, build_scenario(cfg))
    cert = horizon_certificate(scenario, mode=mode, delta=delta)
    values = {
        "T1": cert.t_range,
        "T2": cert.t_contract,
        "T_bar": cert.t_bar,
        "S_value": cert.s_value,
        "gamma_bar": cert.gamma_bar,
        "R": cert.radius,
    }
    # H2 only when the certificate used a declared one
    values.update((key, val) for key, val in cert.constants.items() if val is not None)
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
    times = args.times
    horizon = scenario.growth.T
    _check_snapshot_times(times, horizon)
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
    except MemoryError as exc:
        print(f"solver error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
