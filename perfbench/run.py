"""chemosim benchmark: seeded S1 workloads measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pointwise-1d --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process

One client runs one unit at a time (a closed loop) until `--seconds` have
passed, with at least three units.  Every unit sets up a scenario from the
seeded config and solves or verifies it; its outputs are checked outside the
timed region.  `--trace 0` reports the end-to-end metrics of untraced units,
with times rescaled to a nominal machine speed (see reference.py).
`--trace 1` alternates untraced and traced units and reports the per-layer
metrics of the traced ones, plus tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is imported from `src/` of the checkout this file sits in; the
run fails, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("pointwise-1d", "pointwise-2d", "nonlocal-1d", "verify-1d")
DEFAULT_SEED = 1
HELDOUT_SEED = 977   # claims must also hold here; never tune on it
DEFAULT_SECONDS = 60
MIN_UNITS = 3
# set-up takes milliseconds in 1D, so before each untraced unit it is repeated
# for up to SETUP_ROUND_S: its samples then spread over the run like the units'
SETUP_ROUND_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"        # one solve at a time on one core; at most nproc


@dataclass
class Unit:
    traced: bool
    setup_s: float
    wall_s: float
    attempted: int = 1
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str | None = None
    scale: float = 1.0          # rescales this unit's times to nominal speed
    setup_samples: list = field(default_factory=list)
    layer: dict | None = None   # per-layer metrics of a traced unit
    spans: dict | None = None   # calls, busy_s and self_s per span name


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's src/ first on the path; fail if it holds no chemosim."""
    src = ROOT / "src"
    if not (src / "chemosim" / "__init__.py").is_file():
        sys.exit(f"error: no chemosim package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import chemosim

    if Path(chemosim.__file__).resolve().parent != (src / "chemosim").resolve():
        sys.exit(f"error: imported chemosim from {chemosim.__file__}, not from {src}")


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def _run_unit(workload, cfg, seed, workdir, traced, check_scenario, first_digest):
    import tracer as trace_mod
    import workloads as wl

    tracer = trace_mod.Tracer() if traced else None
    gc.collect()
    result = None
    errors = []
    t0 = t1 = time.perf_counter()
    with tracer.active() if traced else nullcontext():
        try:
            scenario = wl.setup(cfg, tracer)
            t1 = time.perf_counter()
            if workload.kind == "solve":
                result = wl.run_solve(scenario, workload, cfg, workdir)
            else:
                result = wl.run_verify(scenario, seed, workdir)
        except Exception:
            errors.append(traceback.format_exc())
        t2 = time.perf_counter()
    unit = Unit(traced=traced, setup_s=t1 - t0, wall_s=t2 - t1)
    if result is None:
        unit.failures, unit.failed = errors, 1
        return unit, tracer
    if workload.kind == "solve":
        unit.digest, unit.failures = wl.check_solve(check_scenario, workload, workdir, result, first_digest)
        unit.failed = int(bool(unit.failures))
        counts = {"reports": 0, "passed": 0}
    else:
        unit.digest, other = wl.check_verify(result, workdir, first_digest)
        passed = sum(r.passed for r in result)
        unit.attempted = len(result)
        # a changed or non-finite report fails the whole unit, else each failing report counts
        unit.failed = unit.attempted if other else unit.attempted - passed
        unit.failures = other + [f"report {r.claim} failed: worst ratio {r.worst_ratio:.6g}"
                                 for r in result if not r.passed]
        counts = {"reports": len(result), "passed": passed}
    if traced:
        unit.spans = tracer.span_stats()
        unit.layer = trace_mod.layer_metrics(tracer, unit.spans, counts)
    return unit, tracer


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed-loop run of one workload; returns the result record."""
    import reference
    import tracer as trace_mod
    import workloads as wl

    env = _environment()
    workload = wl.WORKLOADS[name]
    cfg = wl.make_config(workload, seed)
    deadline = time.perf_counter() + seconds
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    units, took = [], []
    first_tracer = None
    try:
        t0 = time.perf_counter()
        check_scenario = wl.setup(cfg)
        setup_guess = time.perf_counter() - t0
        refs = [] if trace else reference.group()
        min_units = 2 * MIN_UNITS if trace else MIN_UNITS
        # start a unit only when it is expected to end before the deadline
        while len(units) < min_units or time.perf_counter() + _median(took) < deadline:
            t0 = time.perf_counter()
            extra = []
            while not trace and sum(extra) + setup_guess <= SETUP_ROUND_S:
                t1 = time.perf_counter()
                wl.setup(cfg)
                extra.append(time.perf_counter() - t1)
            traced = trace and len(units) % 2 == 1
            # identical bytes need no second residual check, once the first unit passed
            first_digest = units[0].digest if units and not units[0].failures else None
            unit, tracer = _run_unit(workload, cfg, seed, workdir, traced, check_scenario, first_digest)
            if traced and unit.layer is not None:
                first = next((u.layer for u in units if u.layer is not None), None)
                if first is not None:
                    unit.failures += [f"per-layer count {k} changed: {first[k]} -> {unit.layer[k]}"
                                      for k in trace_mod.exact_metric_names()
                                      if unit.layer[k] != first[k]]
                    unit.failed = max(unit.failed, int(bool(unit.failures)))
                first_tracer = first_tracer or tracer
            if not trace:
                after = reference.group()
                unit.scale = reference.scale(refs, after)
                unit.setup_samples = extra + [unit.setup_s]
                refs = after
            units.append(unit)
            took.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [u for u in units if not u.traced]
    traced_units = [u for u in units if u.traced and u.layer is not None]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "config": cfg,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "digests": sorted({u.digest for u in units if u.digest}),
        "units": [vars(u) for u in units],
    }
    if not trace:
        record["raw"] = {
            "setup_s": _median([x for u in plain for x in u.setup_samples]),
            "wall_s": _median([u.wall_s for u in plain]),
            "reference_slice_s": reference.NOMINAL_S / _median([u.scale for u in plain]),
        }
        record["metrics"] = {
            "setup_s": {"value": _median([x * u.scale for u in plain for x in u.setup_samples]),
                        "unit": "s"},
            "wall_s": {"value": _median([u.wall_s * u.scale for u in plain]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        metrics = {}
        for metric, (unit_name, _, exact, _) in trace_mod.PER_LAYER.items():
            values = [u.layer[metric] for u in traced_units]
            value = values[0] if exact and values else _median(values)
            metrics[metric] = {"value": value, "unit": unit_name}
        overhead = _median([u.wall_s for u in traced_units]) / _median([u.wall_s for u in plain]) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        record["metrics"] = metrics
        spans = [u.spans for u in traced_units]
        record["spans_median"] = {
            span: {key: _median([s.get(span, {}).get(key, 0) for s in spans])
                   for key in ("calls", "busy_s", "self_s")}
            for span in sorted({k for s in spans for k in s})
        }
        # the counts of every traced unit are equal, so one unit's spans stand for all
        if first_tracer is not None:
            spans_file = OUT_DIR / f"spans-{name}-seed{seed}.json"
            spans_file.write_text(json.dumps(first_tracer.dump()))
            record["spans_file"] = str(spans_file.relative_to(ROOT))
    return record


def _report(record: dict) -> dict:
    """Print the human-readable summary; return the contract's result line."""
    import reference

    env = record["environment"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{len(record['units'])} units in a closed loop, one client")
    print("# environment " + json.dumps(env, sort_keys=True))
    for u in record["units"]:
        kind = "traced" if u["traced"] else "untraced"
        status = "ok" if not u["failures"] else "FAILED: " + "; ".join(
            f.strip().splitlines()[-1] for f in u["failures"])
        print(f"#   {kind:8s} setup {u['setup_s']:.4f} s  wall {u['wall_s']:.4f} s  "
              f"scale {u['scale']:.3f}  digest {str(u['digest'])[:16]}  {status}")
    for span, s in record.get("spans_median", {}).items():
        print(f"#   span {span:32s} calls {s['calls']:>9.0f}  busy {s['busy_s']:9.4f} s  "
              f"self {s['self_s']:9.4f} s")
    if "raw" in record:
        raw = record["raw"]
        print(f"# times below are rescaled to a {1e3 * reference.NOMINAL_S:g} ms reference slice; "
              f"raw medians: setup {raw['setup_s']:.6g} s, wall {raw['wall_s']:.6g} s, "
              f"reference slice {1e3 * raw['reference_slice_s']:.4g} ms")
    for metric, m in record["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def _run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is per workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status = status or int(not results[name]["correct"])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    _import_program()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = _report(record)
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
