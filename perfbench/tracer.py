"""Outside-in tracing of chemosim's public entry points.

The benchmark wraps the program's functions and methods from its own files;
no file of the program changes.  Every wrapped call records a span (name,
start, end, parent) in memory, so each layer's inclusive ("busy") and
exclusive ("self") time can be derived, and some wrappers also count the
work a call did (points probed, kernel values computed, bytes written).

Wrappers are installed only around a traced unit (`Tracer.active`) and are
removed again before the unit's output checks run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import chemosim.cli  # noqa: F401  (imported so its references are patched too)
from chemosim import field, io, kernel, paths, picard, scenario, verify


def _kernel_work(tr, args, kwargs, result):
    # result has shape (..., N) for grad_x, (..., N, N) for hess_x, (...) for eval
    name, x, xi = tr.current_name, args[1], args[3]
    tail = {"kernel.eval": 0, "kernel.grad_x": 1, "kernel.hess_x": 2}[name]
    tr.counters[name + ".evals"] += result.size // math.prod(result.shape[result.ndim - tail:])
    tr.counters[name + ".bytes"] += result.nbytes + np.asarray(x).nbytes + np.asarray(xi).nbytes


def _points_work(tr, args, kwargs, result):
    tr.counters[tr.current_name + ".points"] += np.atleast_2d(np.asarray(args[1])).shape[0]


def _g_work(tr, args, kwargs, result):
    x = args[0]
    tr.counters["presets.g.points"] += int(math.prod(x.shape[:-1]))


def _io_work(tr, args, kwargs, result):
    tr.counters["io.bytes"] += Path(args[1]).stat().st_size


def _certificate_work(tr, args, kwargs, result):
    tr.t_bar_min = min(tr.t_bar_min, result.t_bar)


def _solve_local_work(tr, args, kwargs, result):
    path, history = result
    tr.counters["picard.segments"] += 1
    tr.counters["picard.iterations"] += len(history)
    tr.counters["picard.nodes"] += len(path.times)
    tr.segment_s.append(tr.last_duration)


# (owner, attribute, span name, work counter); owners are classes here
_METHODS = [
    (kernel.Kernel, "eval", "kernel.eval", _kernel_work),
    (kernel.Kernel, "grad_x", "kernel.grad_x", _kernel_work),
    (kernel.Kernel, "hess_x", "kernel.hess_x", _kernel_work),
    (paths.AgentPath, "positions_at", "paths.positions_at", None),
    (paths.AgentPath, "velocities_at", "paths.velocities_at", None),
    (paths.AgentPath, "concat", "paths.concat", None),
    (field.FieldProbe, "gradient_many", "field.gradient_many", _points_work),
    (field.FieldProbe, "gradient", "field.gradient", None),
    (field.FieldProbe, "hessian", "field.hessian", None),
    (field.FieldProbe, "ball_average_gradient", "field.ball_average_gradient", None),
]

# module-level functions; every chemosim module that imported one by name is
# patched too, so calls from inside the program are traced
_FUNCTIONS = [
    (picard, "horizon_certificate", "picard.certificate", _certificate_work),
    (picard, "solve_local", "picard.solve_local", _solve_local_work),
    (kernel, "default_estimate_params", "kernel.estimate_params", None),
    (scenario, "build_scenario", "scenario.build", None),
    (verify, "check_kernel_mass", "verify.check_kernel_mass", None),
    (verify, "check_gamma_estimates", "verify.check_gamma_estimates", None),
    (verify, "check_prop1", "verify.check_prop1", None),
    (verify, "check_holder", "verify.check_holder", None),
    (verify, "gronwall_oracle", "verify.gronwall_oracle", None),
    (verify, "residual_check", "verify.residual_check", None),
    (io, "write_trajectory", "io.write_trajectory", _io_work),
    (io, "write_field_snapshot", "io.write_field_snapshot", _io_work),
    (io, "write_bounds", "io.write_bounds", _io_work),
    (io, "write_manifest", "io.write_manifest", _io_work),
    (io, "write_reports", "io.write_reports", _io_work),
]


class _StampedList(list):
    """segments_out list that timestamps each appended SegmentRecord."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def append(self, item):
        self.stamps.append(time.perf_counter())
        super().append(item)


class Tracer:
    """In-memory span recorder for one traced unit of work."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.outer: list[bool] = []   # no enclosing span of the same name
        self.counters: Counter = Counter()
        self.segment_s: list[float] = []
        self.t_bar_min = math.inf
        self.current_name = ""
        self.last_duration = 0.0
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    # -- recording -------------------------------------------------------------

    def call(self, name, fn, args, kwargs, work=None):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[name] == 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            self.start[idx] = t0
            self.end[idx] = t1
        if work is not None:
            self.current_name, self.last_duration = name, t1 - t0
            work(self, args, kwargs, result)
        return result

    def wrap(self, name, fn, work=None):
        """Traced copy of fn; functools.wraps keeps attributes such as is_zero."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)
        return traced

    def _wrap_solve_global(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller_list = kwargs.get("segments_out")
            stamped = _StampedList()
            kwargs["segments_out"] = stamped
            t0 = time.perf_counter()
            path = self.call("picard.solve_global", fn, args, kwargs)
            if caller_list is not None:
                caller_list.extend(stamped)
            self.counters["picard.segments"] += len(stamped)
            self.counters["picard.iterations"] += sum(r.iterations for r in stamped)
            self.counters["picard.nodes"] += len(path.times)
            marks = [t0] + stamped.stamps
            self.segment_s.extend(b - a for a, b in zip(marks, marks[1:]))
            return path
        return traced

    def wrap_scenario(self, scn):
        """Copy of a scenario whose g, phi and force law are traced."""
        force = dataclasses.replace(scn.force, eval=self.wrap("presets.force", scn.force.eval))
        return dataclasses.replace(scn, g=self.wrap("presets.g", scn.g, _g_work),
                                   phi=self.wrap("presets.phi", scn.phi), force=force)

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for cls, attr, name, work in _METHODS:
                patch(cls, attr, self.wrap(name, getattr(cls, attr), work))
            functions = [(getattr(mod, attr), self.wrap(name, getattr(mod, attr), work))
                         for mod, attr, name, work in _FUNCTIONS]
            original = picard.solve_global
            functions.append((original, self._wrap_solve_global(original)))
            modules = [m for key, m in list(sys.modules.items())
                       if key == "chemosim" or key.startswith("chemosim.")]
            for orig, new in functions:
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patch(mod, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    # -- derived numbers --------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """calls, busy (inclusive, outermost spans only) and self time per name."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        stats: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if self.outer[i]:
                s["busy_s"] += dur[i]
        return stats

    def dump(self) -> dict:
        """Columnar span table for the run's span file."""
        index = {name: k for k, name in enumerate(dict.fromkeys(self.names))}
        t_ref = self.start[0] if self.start else 0.0
        return {
            "names": list(index),
            "name": [index[n] for n in self.names],
            "start": [t - t_ref for t in self.start],
            "end": [t - t_ref for t in self.end],
            "parent": self.parent,
            "counters": dict(self.counters),
        }


def _stat(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def _sum_stat(stats, prefix, key):
    return sum(s[key] for name, s in stats.items() if name.startswith(prefix))


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


# Per-layer metrics: name -> (unit, better, exact, getter(tracer, stats, unit_counts)).
# Counts are exact: they must repeat bit for bit across units and runs of a seed.
# Only times that are nonzero on every workload are listed; the span file and the
# printed table carry the rest (for example verify.check_prop1's busy time).
PER_LAYER = {
    "picard.segments": ("count", "lower", True, lambda tr, st, u: tr.counters["picard.segments"]),
    "picard.iterations": ("count", "lower", True, lambda tr, st, u: tr.counters["picard.iterations"]),
    "picard.nodes": ("count", "lower", True, lambda tr, st, u: tr.counters["picard.nodes"]),
    "picard.t_bar_min": ("model_time", "higher", True, lambda tr, st, u: tr.t_bar_min),
    "picard.certificate.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "picard.certificate", "calls")),
    "picard.certificate.busy_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "picard.certificate", "busy_s")),
    "picard.self_s": ("s", "lower", False,
                      lambda tr, st, u: _stat(st, "picard.solve_global", "self_s") + _stat(st, "picard.solve_local", "self_s")),
    "picard.segment_s_p50": ("s", "lower", False, lambda tr, st, u: _median(tr.segment_s)),
    "field.gradient_many.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "field.gradient_many", "calls")),
    "field.gradient_many.points": ("count", "lower", True, lambda tr, st, u: tr.counters["field.gradient_many.points"]),
    "field.gradient_many.busy_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "field.gradient_many", "busy_s")),
    "field.points_per_call": ("points/call", "higher", True,
                              lambda tr, st, u: tr.counters["field.gradient_many.points"]
                              / max(1, _stat(st, "field.gradient_many", "calls"))),
    "field.ball_average_gradient.calls": ("count", "lower", True,
                                          lambda tr, st, u: _stat(st, "field.ball_average_gradient", "calls")),
    "field.gradient.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "field.gradient", "calls")),
    "field.hessian.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "field.hessian", "calls")),
    "kernel.grad_x.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "kernel.grad_x", "calls")),
    "kernel.grad_x.evals": ("count", "lower", True, lambda tr, st, u: tr.counters["kernel.grad_x.evals"]),
    "kernel.grad_x.bytes": ("B", "lower", True, lambda tr, st, u: tr.counters["kernel.grad_x.bytes"]),
    "kernel.grad_x.self_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "kernel.grad_x", "self_s")),
    "kernel.hess_x.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "kernel.hess_x", "calls")),
    "kernel.eval.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "kernel.eval", "calls")),
    "kernel.estimate_params.busy_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "kernel.estimate_params", "busy_s")),
    "paths.positions_at.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "paths.positions_at", "calls")),
    "paths.positions_at.self_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "paths.positions_at", "self_s")),
    "paths.velocities_at.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "paths.velocities_at", "calls")),
    "paths.concat.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "paths.concat", "calls")),
    "scenario.build.busy_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "scenario.build", "busy_s")),
    "presets.g.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "presets.g", "calls")),
    "presets.g.points": ("count", "lower", True, lambda tr, st, u: tr.counters["presets.g.points"]),
    "presets.g.self_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "presets.g", "self_s")),
    "presets.phi.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "presets.phi", "calls")),
    "presets.force.calls": ("count", "lower", True, lambda tr, st, u: _stat(st, "presets.force", "calls")),
    "presets.force.self_s": ("s", "lower", False, lambda tr, st, u: _stat(st, "presets.force", "self_s")),
    "verify.reports": ("count", "higher", True, lambda tr, st, u: u["reports"]),
    "verify.passed": ("count", "higher", True, lambda tr, st, u: u["passed"]),
    "io.write_s": ("s", "lower", False, lambda tr, st, u: _sum_stat(st, "io.", "busy_s")),
    "io.bytes": ("B", "lower", True, lambda tr, st, u: tr.counters["io.bytes"]),
}


def layer_metrics(tracer: Tracer, stats: dict, unit_counts: dict) -> dict:
    """Per-layer values of one traced unit (without trace.overhead_frac)."""
    return {name: getter(tracer, stats, unit_counts)
            for name, (_, _, _, getter) in PER_LAYER.items()}


def exact_metric_names() -> list[str]:
    return [name for name, spec in PER_LAYER.items() if spec[2]]
