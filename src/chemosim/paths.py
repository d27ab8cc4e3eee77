"""Time-sampled agent trajectories with linear interpolation between nodes."""

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
        """``values`` (nodes, N, n) interpolated at times ``t``: the node
        columns are gathered into (N * n, K) for the K times, and the result
        is a (*t.shape, N, n) view of that array."""
        times = self.times
        t = np.asarray(t, dtype=float)
        eps = 1e-9 * max(1.0, abs(self.horizon))
        outside = ~((t >= times[0] - eps) & (t <= times[-1] + eps))  # NaN too
        if np.any(outside):
            bad = float(t[outside][0]) if t.ndim else float(t)
            raise ValueError(f"time {bad} outside path range [{times[0]}, {times[-1]}]")
        flat = np.minimum(np.maximum(t.ravel(), times[0]), times[-1])
        idx = np.minimum(np.maximum(np.searchsorted(times, flat, side="right") - 1, 0), len(times) - 2)
        lam = (flat - times[idx]) / (times[idx + 1] - times[idx])
        cols = values.reshape(len(times), -1).T
        out = (1.0 - lam) * np.take(cols, idx, axis=1) + lam * np.take(cols, idx + 1, axis=1)
        return np.moveaxis(out.reshape(values.shape[1:] + t.shape), (0, 1), (-2, -1))

    def positions_at(self, t) -> np.ndarray:
        """Configuration X(t): shape (N, n) for a scalar time, (*t.shape, N, n)
        for an array of times (one ``searchsorted`` for all of them).  Raises
        ValueError when any time lies outside the path range."""
        return self._interp(self.X, t)

    def velocities_at(self, t) -> np.ndarray:
        """Velocities V(t), shaped like ``positions_at``."""
        return self._interp(self.V, t)

    def sup_deviation(self, X0: np.ndarray, V0: np.ndarray) -> tuple[float, float]:
        """Largest node distances (max |X(t)-X0|, max |V(t)-V0|), Euclidean in
        the stacked configuration vector."""
        dx = np.linalg.norm((self.X - X0).reshape(len(self.times), -1), axis=1)
        dv = np.linalg.norm((self.V - V0).reshape(len(self.times), -1), axis=1)
        return float(dx.max()), float(dv.max())

    def sup_position_norm(self) -> float:
        """max over nodes of |X(t)| (exact for linear interpolation)."""
        return float(np.linalg.norm(self.X.reshape(len(self.times), -1), axis=1).max())

    def sup_distance(self, other: "AgentPath") -> float:
        """Sup-norm distance between two paths on the same grid, measured on
        the stacked (X, V) state."""
        same_grid = self.times is other.times or (
            len(self.times) == len(other.times) and np.allclose(self.times, other.times))
        if not same_grid:
            raise ValueError("paths must share the same time grid")
        dx = (self.X - other.X).reshape(len(self.times), -1)
        dv = (self.V - other.V).reshape(len(self.times), -1)
        dy = np.sqrt(np.sum(dx * dx, axis=1) + np.sum(dv * dv, axis=1))
        return float(dy.max())

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
        """Join a later path whose first node coincides with this path's last."""
        if abs(other.times[0] - self.times[-1]) > 1e-12 * max(1.0, self.horizon):
            raise ValueError("paths are not contiguous in time")
        times = np.concatenate([self.times, other.times[1:]])
        X = np.concatenate([self.X, other.X[1:]], axis=0)
        V = np.concatenate([self.V, other.V[1:]], axis=0)
        return AgentPath(times, X, V)
