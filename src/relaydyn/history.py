"""State histories and evolved trajectories.

The phase space of a delayed relay system pairs a continuous history segment
(the last `horizon` time units of the state path, with horizon at least the
delay) with the current relay output.  Two history representations:

* :class:`BreakpointHistory` - an anchor value plus relay switch times and
  the input label active on each subinterval.  Evaluation composes the flow
  backend from the anchor, so it is exact whenever the backend is.
* :class:`SampledHistory` - values on a uniform grid with cubic
  interpolation, for histories that are not flow trajectories (measured
  data, random initial conditions).

Both evaluate at any s in [-horizon, 0] and report a path derivative, which
is what the event engine needs to assess crossing transversality.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BreakpointHistory",
    "SampledHistory",
    "HybridState",
    "CrossingRecord",
    "SwitchRecord",
    "Trajectory",
]

_EDGE_TOL = 1e-9


class _Window:
    """Evaluation window [-horizon, 0] shared by both history kinds."""

    def __init__(self, horizon: float):
        self.horizon = float(horizon)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    def _check(self, s: float) -> float:
        if not -self.horizon - _EDGE_TOL <= s <= _EDGE_TOL:  # NaN fails too
            raise ValueError(f"history evaluated at {s} outside [{-self.horizon}, 0]")
        return min(max(s, -self.horizon), 0.0)

    def _check_all(self, s: np.ndarray) -> np.ndarray:
        """:meth:`_check` on an array of times; a NaN makes min and max NaN."""
        if s.size:
            self._check(float(s.min()))
            self._check(float(s.max()))
        return np.clip(s, -self.horizon, 0.0)

    def head(self) -> np.ndarray:
        return self(0.0)


class BreakpointHistory(_Window):
    """Exact history: anchor value at -horizon plus switch times and labels.

    Parameters
    ----------
    flow : backend with ``apply``/``apply_path``/``velocity``.
    horizon : positive window length.
    anchor : state at s = -horizon.
    times : strictly increasing switch times inside (-horizon, 0].
    labels : input label on each subinterval; ``len(times) + 1`` entries,
        ``labels[i]`` active on ``[times[i-1], times[i])`` (right-continuous
        in the label).
    """

    def __init__(self, flow, horizon: float, anchor, times: Sequence[float] = (),
                 labels: Sequence[int] = (-1,)):
        super().__init__(horizon)
        self.flow = flow
        self.times = [float(t) for t in times]
        self.labels = [int(u) for u in labels]
        if len(self.labels) != len(self.times) + 1:
            raise ValueError("need one label per subinterval")
        if any(u not in (-1, 1) for u in self.labels):
            raise ValueError("labels must be +1 or -1")
        lo = -self.horizon
        for t in self.times:
            if not (lo < t <= 0.0):
                raise ValueError("switch times must be increasing inside (-horizon, 0]")
            lo = t
        # propagate the anchor across the breakpoints once
        self._starts = [np.asarray(anchor, dtype=float)]
        self._start_times = [-self.horizon] + self.times
        for i, t in enumerate(self.times):
            y = self.flow.apply(self._starts[i], self.labels[i], t - self._start_times[i])
            self._starts.append(y)

    @property
    def dim(self) -> int:
        return self._starts[0].shape[0]

    def _segment(self, s):
        """Piece index of each time: ``bisect_right`` on the switch times."""
        return np.searchsorted(self.times, s, side="right")

    def __call__(self, s):
        """State at s; an array of times gives one row per (flattened) time."""
        ss = self._check_all(np.asarray(s, dtype=float).ravel())
        rows = np.empty((ss.size, self.dim))
        for n, (si, i) in enumerate(zip(ss.tolist(), self._segment(ss).tolist())):
            rows[n] = self.flow.apply(self._starts[i], self.labels[i], si - self._start_times[i])
        return rows if np.ndim(s) > 0 else rows[0]

    def derivative(self, s: float) -> np.ndarray:
        """Path velocity; uses the label right-continuous at s."""
        s = self._check(float(s))
        return self.flow.velocity(self(s), self.label_at(s))

    def label_at(self, s: float) -> int:
        return self.labels[self._segment(self._check(float(s)))]

    def pieces(self, lo: float) -> list[tuple[float, float]]:
        """Smooth subintervals covering [lo, 0]."""
        cuts = [lo] + [t for t in self.times if lo < t < 0.0] + [0.0]
        return list(zip(cuts[:-1], cuts[1:]))


def _not_a_knot(values: np.ndarray, h: float) -> np.ndarray:
    """Coefficients (y, c1, c2, c3) of the not-a-knot cubic through ``values``.

    ``values`` holds one row per node of a uniform grid of step ``h``.  On
    interval i the spline is ``y[i] + dx*(c1[i] + dx*(c2[i] + dx*c3[i]))``
    with dx measured from node i, so constant data has c1 = c2 = c3 = 0 and
    is reproduced exactly.  The node slopes s solve, with d the interval
    slopes and every row divided by h, the tridiagonal system

        s[0] + 2 s[1]            = (5 d[0] + d[1]) / 2
        s[i-1] + 4 s[i] + s[i+1] = 3 (d[i-1] + d[i])
        2 s[-2] + s[-1]          = (d[-2] + 5 d[-1]) / 2

    (scipy's ``CubicSpline`` rows on a uniform grid), by elimination without
    pivoting: every pivot stays at or above 3/7.
    """
    n = values.shape[0]
    d = np.diff(values, axis=0) / h
    lower = [0.0] + [1.0] * (n - 2) + [2.0]
    diag = [1.0] + [4.0] * (n - 2) + [1.0]
    upper = [2.0] + [1.0] * (n - 2) + [0.0]
    rhs = np.concatenate([(5.0 * d[:1] + d[1:2]) / 2.0, 3.0 * (d[:-1] + d[1:]),
                          (d[-2:-1] + 5.0 * d[-1:]) / 2.0])
    cols = rhs.T.tolist()  # plain floats: the sweeps are sequential
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        for c in cols:
            c[i] -= w * c[i - 1]
    for c in cols:
        c[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            c[i] = (c[i] - upper[i] * c[i + 1]) / diag[i]
    slopes = np.array(cols).T
    t = (slopes[:-1] + slopes[1:] - 2.0 * d) / h
    return np.stack([values[:-1], slopes[:-1], (d - slopes[:-1]) / h - t, t / h])


class SampledHistory(_Window):
    """History on a uniform grid over [-horizon, 0] with cubic interpolation.

    The interpolant is the not-a-knot cubic spline through the samples.
    """

    def __init__(self, horizon: float, values):
        super().__init__(horizon)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 4:
            raise ValueError("need at least 4 samples, shape (m, dim)")
        self.values = values
        self.grid = np.linspace(-self.horizon, 0.0, values.shape[0])
        self._coef = _not_a_knot(values, self.horizon / (values.shape[0] - 1))
        self._nodes = self.grid.tolist()  # plain floats keep scalar lookups cheap

    def _piece(self, s: float):
        """Coefficients of the interval holding s, and the offset into it.

        Interval i is [grid[i], grid[i+1]), the last one closed, as in scipy.
        """
        i = bisect.bisect_right(self._nodes, s, 1, len(self._nodes) - 1) - 1
        return self._coef[:, i], s - self._nodes[i]

    @classmethod
    def constant(cls, y0, horizon: float, n: int = 9) -> "SampledHistory":
        y0 = np.asarray(y0, dtype=float)
        return cls(horizon, np.tile(y0, (n, 1)))

    @classmethod
    def from_function(cls, fn: Callable[[float], np.ndarray], horizon: float,
                      n: int = 129) -> "SampledHistory":
        grid = np.linspace(-horizon, 0.0, n)
        return cls(horizon, np.stack([np.asarray(fn(s), dtype=float) for s in grid]))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __call__(self, s):
        if np.ndim(s) > 0:
            s = self._check_all(np.asarray(s, dtype=float))
            i = np.searchsorted(self.grid[1:-1], s, side="right")
            (y, c1, c2, c3), dx = self._coef[:, i], (s - self.grid[i])[..., None]
        else:
            (y, c1, c2, c3), dx = self._piece(self._check(float(s)))
        return y + dx * (c1 + dx * (c2 + dx * c3))

    def derivative(self, s: float) -> np.ndarray:
        (_, c1, c2, c3), dx = self._piece(self._check(float(s)))
        return c1 + dx * (2.0 * c2 + dx * (3.0 * c3))

    def pieces(self, lo: float) -> list[tuple[float, float]]:
        return [(lo, 0.0)]


@dataclass(frozen=True)
class HybridState:
    """A point of the hybrid phase space: history segment plus relay output."""

    history: BreakpointHistory | SampledHistory
    u: int

    def __post_init__(self):
        if self.u not in (-1, 1):
            raise ValueError("relay output must be +1 or -1")


@dataclass(frozen=True)
class CrossingRecord:
    """The switching signal reached a threshold line and armed a switch."""

    time: float
    level: float          # +eps or -eps
    direction: int        # sign of d/dt h(y) at the crossing
    slope: float
    switch_time: float    # time + delay


@dataclass(frozen=True)
class SwitchRecord:
    """The relay output changed value (always a crossing's delayed echo)."""

    time: float
    new_u: int
    crossing_time: float


@dataclass
class Segment:
    """One constant-input piece of the headpoint path."""

    t0: float
    y0: np.ndarray
    u: int


class Trajectory:
    """Headpoint path of one evolution together with its event log.

    Supports evaluation on [-horizon, T]: non-positive times delegate to the
    initial history, positive times are reconstructed from the recorded
    constant-input segments (exactly, for a closed-form backend).
    """

    def __init__(self, flow, initial_history, segments: list[Segment],
                 crossings: list[CrossingRecord], switches: list[SwitchRecord],
                 T: float):
        self.flow = flow
        self.initial_history = initial_history
        self.segments = segments
        self.crossings = crossings
        self.switches = switches
        self.T = float(T)
        self._seg_times = [s.t0 for s in segments]

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        """State at time t; an array of times gives one row per (flattened) time.

        Segments are found by the ``bisect_right`` rule on their start times,
        and every row comes from the backend's scalar ``apply``.
        """
        rows = self._rows(np.asarray(t, dtype=float).ravel())
        return rows if np.ndim(t) > 0 else rows[0]

    def _rows(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty((ts.size, self.initial_history.dim))
        past = ts <= 0.0
        if past.any():
            out[past] = self.initial_history(ts[past])
        ahead = ts[~past]
        if ahead.size:
            if ahead.max() > self.T + _EDGE_TOL:
                raise ValueError(f"trajectory evaluated at {ahead.max()} beyond T={self.T}")
            ahead = np.minimum(ahead, self.T)
            apply, segs = self.flow.apply, self.segments
            out[~past] = [apply(segs[i].y0, segs[i].u, s - segs[i].t0)
                          for s, i in zip(ahead.tolist(), self._segment(ahead).tolist())]
        return out

    def _segment(self, ts: np.ndarray) -> np.ndarray:
        """Segment index of each time: ``bisect_right`` on the segment starts, less one."""
        return np.searchsorted(self._seg_times, ts, side="right") - 1

    def u_at(self, t):
        """Relay output at time t (right-continuous); an array of times gives a list."""
        idx = np.maximum(self._segment(np.asarray(t, dtype=float).ravel()), 0)
        us = [self.segments[k].u for k in idx.tolist()]
        return us if np.ndim(t) > 0 else us[0]

    def head(self) -> np.ndarray:
        return self(self.T)

    # -- event views ---------------------------------------------------------

    def switch_times(self) -> np.ndarray:
        return np.asarray([s.time for s in self.switches], dtype=float)

    def switch_points(self) -> np.ndarray:
        """Headpoint locations at the switch times, one row per switch."""
        return self(self.switch_times())

    # -- tail extraction -----------------------------------------------------

    def tail_history(self, horizon: float):
        """History segment covering [T - horizon, T], shifted so the head is 0."""
        lo = self.T - horizon
        if lo < -self.initial_history.horizon - _EDGE_TOL:
            raise ValueError("requested horizon reaches beyond the recorded past")
        if lo >= 0.0 or isinstance(self.initial_history, BreakpointHistory):
            times, labels = self._tail_events(lo)
            return BreakpointHistory(self.flow, horizon, self(lo), times, labels)
        n = max(129, self.initial_history.values.shape[0])
        grid = np.linspace(lo, self.T, n)
        return SampledHistory(horizon, self(grid))

    def _tail_events(self, lo: float) -> tuple[list[float], list[int]]:
        """Label-change times in (lo, T] shifted by -T, plus per-interval labels."""
        # (time, label) pairs, label active from that time onward
        pairs: list[tuple[float, int]] = []
        if lo < 0.0:
            hist = self.initial_history
            pairs.append((lo, hist.label_at(lo)))
            for t, u in zip([-hist.horizon] + hist.times, hist.labels):
                if lo < t <= 0.0:
                    pairs.append((t, u))
        for seg in self.segments:
            if seg.t0 >= lo:
                pairs.append((seg.t0, seg.u))
        if not pairs or pairs[0][0] > lo:
            pairs.insert(0, (lo, self.u_at(lo)))
        cleaned = [pairs[0]]
        for t, u in pairs[1:]:
            if u != cleaned[-1][1] and t > lo:
                cleaned.append((t, u))
        times = [t - self.T for t, _ in cleaned[1:]]
        labels = [u for _, u in cleaned]
        return times, labels
