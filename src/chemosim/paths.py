"""Time-sampled agent trajectories with linear interpolation between nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AgentPath:
    """Sampled positions and velocities of all agents.

    ``times`` is strictly increasing, ``X`` and ``V`` have shape
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
        if np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly increasing")
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

    def _interp(self, values: np.ndarray, t: float) -> np.ndarray:
        times = self.times
        eps = 1e-9 * max(1.0, abs(self.horizon))
        if t < times[0] - eps or t > times[-1] + eps:
            raise ValueError(f"time {t} outside path range [{times[0]}, {times[-1]}]")
        t = min(max(t, times[0]), times[-1])
        idx = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2))
        lam = (t - times[idx]) / (times[idx + 1] - times[idx])
        return (1.0 - lam) * values[idx] + lam * values[idx + 1]

    def positions_at(self, t: float) -> np.ndarray:
        """Configuration X(t), shape (N, n)."""
        return self._interp(self.X, t)

    def velocities_at(self, t: float) -> np.ndarray:
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
        if len(self.times) != len(other.times) or not np.allclose(self.times, other.times):
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
