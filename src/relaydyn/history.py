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
is what the event engine needs to assess crossing transversality.  A
breakpoint history and an evolved :class:`Trajectory` are both chains of
constant-input flows, evaluated by one piece rule (:func:`_piece`, :func:`_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _clip(s, lo: float, hi: float, what: str) -> np.ndarray:
    """Times ``s`` as floats clipped onto [lo, hi]; a NaN, or a time past an
    end by more than the edge tolerance, raises."""
    s = np.asarray(s, dtype=float)
    if s.size and not lo - _EDGE_TOL <= s.min() <= s.max() <= hi + _EDGE_TOL:
        raise ValueError(f"{what} evaluated at {s.min()} to {s.max()}, outside [{lo}, {hi}]")
    return np.clip(s, lo, hi)


def _piece(starts, s):
    """Index of the piece holding each time: ``bisect_right`` on the piece
    starts, less one, so a piece holds its start (right-continuous)."""
    return np.searchsorted(starts, s, side="right") - 1


def _rows(flow, starts, states, labels, s: np.ndarray) -> np.ndarray:
    """States of a chain of constant-input flows at the times ``s``: piece i
    starts at ``starts[i]`` in ``states[i]`` under input ``labels[i]``, and
    each row is the backend's scalar ``apply`` from the start of its piece."""
    rows = np.empty((s.size, len(states[0])))
    for n, (si, i) in enumerate(zip(s.tolist(), _piece(starts, s).tolist())):
        rows[n] = flow.apply(states[i], labels[i], si - starts[i])
    return rows


class _Window:
    """Evaluation window [-horizon, 0] shared by both history kinds."""

    def __init__(self, horizon: float):
        self.horizon = float(horizon)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    def _check(self, s) -> np.ndarray:
        """Times clipped onto the window; see :func:`_clip`."""
        return _clip(s, -self.horizon, 0.0, "history")

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

    def __call__(self, s):
        """State at s; an array of times gives one row per (flattened) time."""
        ss = self._check(s).ravel()
        rows = _rows(self.flow, self._start_times, self._starts, self.labels, ss)
        return rows if np.ndim(s) > 0 else rows[0]

    def derivative(self, s: float) -> np.ndarray:
        """Path velocity; uses the label right-continuous at s."""
        s = self._check(s)
        return self.flow.velocity(self(s), self.label_at(s))

    def label_at(self, s: float) -> int:
        return self.labels[_piece(self._start_times, self._check(s))]

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

    def _at(self, s):
        """Coefficients of the interval holding each time, and the offset into it.

        Interval i is [grid[i], grid[i+1]), the last one closed, as in scipy.
        """
        i = _piece(self.grid[:-1], s)
        return self._coef[:, i], s - self.grid[i]

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
        """State at s; an array of times gives an array of rows in its shape."""
        (y, c1, c2, c3), dx = self._at(self._check(s))
        dx = dx[..., None]
        return y + dx * (c1 + dx * (c2 + dx * c3))

    def derivative(self, s: float) -> np.ndarray:
        (_, c1, c2, c3), dx = self._at(self._check(s))
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
    constant-input segments (exactly, for a closed-form backend).  The relay
    output is read off one label timeline: the initial history's pieces, when
    it records them, then the segments.
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
        self._start_times = [s.t0 for s in segments]
        self._starts = [s.y0 for s in segments]
        self._labels = [s.u for s in segments]

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        """State at time t; an array of times gives one row per (flattened) time."""
        ts = _clip(t, -self.initial_history.horizon, self.T, "trajectory").ravel()
        rows = np.empty((ts.size, self.initial_history.dim))
        past = ts <= 0.0
        if past.any():
            rows[past] = self.initial_history(ts[past])
        if not past.all():
            rows[~past] = _rows(self.flow, self._start_times, self._starts,
                                self._labels, ts[~past])
        return rows if np.ndim(t) > 0 else rows[0]

    def _timeline(self) -> tuple[list[float], list[int]]:
        """Piece starts and input labels of the whole path, in time order; a
        history piece that starts at 0 gives way to the first segment."""
        hist = self.initial_history
        if not isinstance(hist, BreakpointHistory):
            return self._start_times, self._labels
        n = int(np.searchsorted(hist._start_times, 0.0))
        return hist._start_times[:n] + self._start_times, hist.labels[:n] + self._labels

    def u_at(self, t):
        """Relay output at time t (right-continuous); an array of times gives a list.

        Before 0 it is the initial history's label; a :class:`SampledHistory`
        records none, so there a negative time raises.
        """
        starts, labels = self._timeline()
        ts = _clip(t, starts[0], self.T, "trajectory").ravel()
        us = [labels[i] for i in _piece(starts, ts).tolist()]
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
        """History segment covering [T - horizon, T], shifted so the head is 0.

        Its switches are the label changes after T - horizon on the label
        timeline.  A sampled past inside the window is resampled instead.
        """
        lo = self.T - horizon
        if lo < -self.initial_history.horizon - _EDGE_TOL:
            raise ValueError("requested horizon reaches beyond the recorded past")
        if lo < 0.0 and isinstance(self.initial_history, SampledHistory):
            n = max(129, self.initial_history.values.shape[0])
            return SampledHistory(horizon, self(np.linspace(lo, self.T, n)))
        times, labels = [], [self.u_at(lo)]
        for t, u in zip(*self._timeline()):
            if t > lo and u != labels[-1]:
                times.append(t - self.T)
                labels.append(u)
        return BreakpointHistory(self.flow, horizon, self(lo), times, labels)
