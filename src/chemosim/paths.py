"""Time-sampled agent trajectories with linear interpolation between nodes.

Interpolation at any array of times is a lookup, which reads the grid
alone (one min and one max for the range check, which a NaN fails, and one
``searchsorted``; the times are clamped only when one reaches an end of the
grid), then a gather of the node columns.  A lookup serves every path on
its grid: a Picard segment looks up its source cells' times once, in its
field time table, and each sweep only gathers.  A path is validated once,
when it is built from outside; the solver's paths on an already checked
grid (each Picard iterate, the join of `AgentPath.concat`) reuse that grid
unchecked, and a join checks only its junction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AgentPath:
    """Sampled positions and velocities of all agents.

    ``times`` is finite and strictly increasing, ``X`` and ``V`` have shape
    (len(times), N, n) = (nodes, dimension, agents).  Values between nodes
    are linear interpolants, so the running sup of any norm is attained at
    the nodes.  Instances are immutable and safe to share read-only across
    threads.
    """

    times: np.ndarray
    X: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        X = np.asarray(self.X, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two time nodes")
        # increasing steps (NaN fails them) between finite ends: finite times
        if not ((times[1:] > times[:-1]).all() and math.isfinite(times[0])
                and math.isfinite(times[-1])):
            raise ValueError("time grid must be finite and strictly increasing")
        if X.ndim != 3 or X.shape != V.shape or X.shape[0] != len(times):
            raise ValueError("X and V must have shape (len(times), N, n)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "V", V)

    def _on_grid(self, X: np.ndarray, V: np.ndarray) -> "AgentPath":
        """The path with this path's time grid and the float arrays X, V of
        shape (len(times), N, n), built without re-checking the grid, which
        was checked when this path was built."""
        return _unchecked(self.times, X, V)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_agents(self) -> int:
        return self.X.shape[2]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def _interp(self, values: np.ndarray, t) -> np.ndarray:
        """``values`` (nodes, N, n) interpolated at times ``t``: the
        `_lookup` of the times and the `_gather` of the node columns, whose
        (N * n, K) result for the K times is returned as a (*t.shape, N, n)
        view."""
        t = np.asarray(t, dtype=float)
        out = _gather(values, _lookup(self.times, t)).reshape(values.shape[1:] + t.shape)
        return out.transpose(tuple(range(2, out.ndim)) + (0, 1)) if t.ndim else out

    def positions_at(self, t) -> np.ndarray:
        """Configuration X(t): shape (N, n) for a scalar time, (*t.shape, N, n)
        for an array of times (one ``searchsorted`` for all of them).  Raises
        ValueError when any time lies outside the path range."""
        return self._interp(self.X, t)

    def velocities_at(self, t) -> np.ndarray:
        """Velocities V(t), shaped like ``positions_at``."""
        return self._interp(self.V, t)

    def sup_position_norm(self) -> float:
        """max over nodes of |X(t)| (exact for linear interpolation)."""
        return float(np.linalg.norm(self.X.reshape(len(self.times), -1), axis=1).max())

    def sup_distance(self, other: "AgentPath") -> float:
        """Sup-norm distance between two paths on the same grid (one array,
        or exactly equal times), measured on the stacked (X, V) state."""
        if not (self.times is other.times or np.array_equal(self.times, other.times)):
            raise ValueError("paths must share the same time grid")
        dx = (self.X - other.X).reshape(len(self.times), -1)
        dv = (self.V - other.V).reshape(len(self.times), -1)
        # the largest root is the root of the largest square (sqrt is
        # monotone and correctly rounded; a NaN propagates through both)
        squares = (dx * dx).sum(axis=1) + (dv * dv).sum(axis=1)
        return math.sqrt(squares.max())

    @staticmethod
    def constant(X0, V0, times) -> "AgentPath":
        """Path frozen at the initial state."""
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        V0 = np.atleast_2d(np.asarray(V0, dtype=float))
        times = np.asarray(times, dtype=float)
        X = np.broadcast_to(X0, (len(times),) + X0.shape).copy()
        V = np.broadcast_to(V0, (len(times),) + V0.shape).copy()
        return AgentPath(times, X, V)

    def concat(self, other: "AgentPath") -> "AgentPath":
        """Join a later path whose first node coincides with this path's last.
        Both grids were checked when their paths were built, so only the
        junction is: the joined grid is strictly increasing when the later
        path's second node lies after this path's last."""
        if abs(other.times[0] - self.times[-1]) > 1e-12 * max(1.0, self.horizon):
            raise ValueError("paths are not contiguous in time")
        if not other.times[1] > self.times[-1]:
            raise ValueError("time grid must be finite and strictly increasing")
        times = np.concatenate([self.times, other.times[1:]])
        X = np.concatenate([self.X, other.X[1:]], axis=0)
        V = np.concatenate([self.V, other.V[1:]], axis=0)
        return _unchecked(times, X, V)


def _lookup(times: np.ndarray, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the times ``t`` (any shape, K entries) fall on the grid
    ``times``: the node left of each time, the node right of it and the
    weight of the right node, each (K,).  It reads the grid alone, so it
    serves every path on that grid (`_gather`).

    One min and one max check the range (a NaN time fails both).  The
    times are clamped onto the grid only when one reaches an end, where the
    clamp can change it (a time within eps outside, or -0.0 at a +0.0 end);
    inside, the clamp would return every time as it is.  The node left of a
    time is the count of interior nodes at or before it, which needs no
    clamp of its own."""
    flat = np.asarray(t, dtype=float).ravel()
    if flat.size:
        lo, hi, first, last = flat.min(), flat.max(), times[0], times[-1]
        eps = 1e-9 * max(1.0, abs(float(last)))
        if not (lo >= first - eps and hi <= last + eps):
            bad = flat[~((flat >= first - eps) & (flat <= last + eps))][0]
            raise ValueError(f"time {float(bad)} outside path range [{first}, {last}]")
        if lo <= first or hi >= last:
            flat = np.minimum(np.maximum(flat, first), last)
    idx = times[1:-1].searchsorted(flat, side="right")
    nxt = idx + 1
    t_lo = times.take(idx)
    return idx, nxt, (flat - t_lo) / (times.take(nxt) - t_lo)


def _gather(values: np.ndarray, lookup: tuple) -> np.ndarray:
    """``values`` (nodes, N, n) of a path interpolated at the times of a
    `_lookup` on its grid, shaped (N * n, K): the node columns are gathered
    and weighted.  The one place that does the interpolation arithmetic."""
    idx, nxt, lam = lookup
    cols = values.reshape(len(values), -1).T
    return (1.0 - lam) * cols.take(idx, axis=1) + lam * cols.take(nxt, axis=1)


def _unchecked(times: np.ndarray, X: np.ndarray, V: np.ndarray) -> AgentPath:
    """An AgentPath of arrays that already meet its invariants, without the
    checks of ``__post_init__``."""
    path = object.__new__(AgentPath)
    object.__setattr__(path, "times", times)
    object.__setattr__(path, "X", X)
    object.__setattr__(path, "V", V)
    return path
