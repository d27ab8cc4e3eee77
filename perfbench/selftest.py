"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They take about a minute: each test runs real workload units.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

for _var in run.THREAD_VARS:
    os.environ.setdefault(_var, run.THREADS)
run._import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_seeded_configs():
    wl = workloads.WORKLOADS["pointwise-2d"]
    assert workloads.make_config(wl, 5) == workloads.make_config(wl, 5)
    assert workloads.make_config(wl, 5)["X0"] != workloads.make_config(wl, 6)["X0"]
    assert run.DEFAULT_SEED != run.HELDOUT_SEED


def test_wrapped_callables_keep_is_zero():
    cfg = dict(workloads.make_config(workloads.WORKLOADS["pointwise-1d"], 1), phi="zero", g="zero")
    wrapped = tracer.Tracer().wrap_scenario(workloads.setup(cfg))
    assert wrapped.phi.is_zero and wrapped.g.is_zero


def test_counts_and_digests_repeat_across_runs():
    """Two traced runs of one seed: every count and every digest agrees,
    traced and untraced units alike."""
    first = run.run_workload("pointwise-1d", run.DEFAULT_SEED, 0, True)
    second = run.run_workload("pointwise-1d", run.DEFAULT_SEED, 0, True)
    for record in (first, second):
        assert record["failed"] == 0
        assert len(record["digests"]) == 1
        assert {u["traced"] for u in record["units"]} == {False, True}
    assert first["digests"] == second["digests"]
    for name in tracer.exact_metric_names():
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["picard.segments"]["value"] > 0
    assert first["metrics"]["kernel.grad_x.evals"]["value"] > 0
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_perturbed_trajectory_is_counted_as_failed(monkeypatch):
    """A trajectory.csv changed after the solve fails the residual check,
    which drives failed_frac above zero without aborting the run."""
    solve = workloads.run_solve

    def perturbed_solve(scenario, workload, cfg, outdir):
        segments = solve(scenario, workload, cfg, outdir)
        traj = outdir / "trajectory.csv"
        lines = traj.read_text().splitlines()
        row = lines[len(lines) // 2].split(",")
        row[1] = repr(float(row[1]) + 1e-3)
        lines[len(lines) // 2] = ",".join(row)
        traj.write_text("\n".join(lines) + "\n")
        return segments

    monkeypatch.setattr(workloads, "run_solve", perturbed_solve)
    record = run.run_workload("pointwise-1d", run.DEFAULT_SEED, 0, False)
    assert record["attempted"] == len(record["units"]) >= run.MIN_UNITS
    assert record["failed"] == record["attempted"]
    assert all(any("residual" in f for f in u["failures"]) for u in record["units"])
    assert list(record["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
