"""Delayed hysteretic relay systems and their event-driven evolution.

The feedback loop under study switches a two-valued input u according to a
delayed, hysteretic reading of a scalar output:

    u(t) = -1  once h(y(t - tau)) has reached  +epsilon,
    u(t) = +1  once h(y(t - tau)) has reached  -epsilon,

holding its previous value while the delayed output stays strictly inside
the band (-epsilon, +epsilon).  The threshold lines belong to the switched
region: equality already triggers.  u is kept right-continuous.

:func:`evolve` advances a hybrid state (history segment, relay value) by
integrating the headpoint between events.  Switches never surprise the
integrator: every switch is the delayed echo of a threshold crossing
detected at least one delay earlier, so the engine integrates exactly up to
the next scheduled switch, scanning each new path section for further
crossings as it goes.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._roots import brentq
from .errors import DegenerateCrossing, NumericalError, WindowTooLarge
from .flows import AffineOscillatorFlow
from .history import (BreakpointHistory, CrossingRecord, HybridState,
                      Segment, SwitchRecord, Trajectory)

__all__ = [
    "RelaySystem",
    "oscillator_system",
    "hysteron",
    "RelayPath",
    "evolve",
    "check_weak_transversality",
    "strict_transversality_q",
    "switch_bound_report",
    "SwitchBoundReport",
]

# slopes below DEGEN_TOL at a crossing count as tangent
DEGEN_TOL = 1e-8
DEFAULT_SCAN_DT = 0.02
# nodes in the first chunk of a scan over a window longer than one delay (and
# of every hysteron scan); each later chunk doubles
_SCAN_CHUNK = 32


@dataclass(frozen=True)
class RelaySystem:
    """A relay feedback loop: flow backend, switching functional, delay, band.

    ``h``/``dh`` evaluate the switching functional and its gradient.  ``h``
    takes one state of shape (dim,) and returns a float, or a stack of
    states of shape (n, dim) and returns one value per row.  A stacked value
    may differ from the one-state value of that row in the last bits.
    :func:`evolve` reads stacked values only for the sign tests of its scans
    of the history window and the head path, and refines every crossing on
    one-state values, so its crossing and switch times do not depend on
    those bits; the margins of :func:`check_weak_transversality` are built
    on stacked values.
    ``lipschitz_f`` and ``sup_dh`` (optional) feed the switching-rate
    diagnostics of :func:`switch_bound_report`.
    """

    flow: object
    h: Callable[[np.ndarray], float | np.ndarray]
    dh: Callable[[np.ndarray], np.ndarray]
    tau: float
    epsilon: float
    lipschitz_f: float | None = None
    sup_dh: float | None = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("delay must be positive")
        if not self.epsilon > 0:
            raise ValueError("hysteresis half-width must be positive")


def oscillator_system(zeta: float, alpha: float, tau: float, epsilon: float) -> RelaySystem:
    """Relay oscillator with switching line x*cos(alpha) + x'*sin(alpha) = level."""
    flow = AffineOscillatorFlow(zeta)
    c = np.array([math.cos(alpha), math.sin(alpha)])
    return RelaySystem(
        flow=flow,
        h=lambda y: y @ c,
        dh=lambda y: c,
        tau=tau,
        epsilon=epsilon,
        lipschitz_f=flow.lipschitz(),
        sup_dh=1.0,
    )


# ---------------------------------------------------------------------------
# hysteretic relay on a scalar signal


@dataclass(frozen=True)
class RelayPath:
    """Piecewise-constant relay output: value ``values[i]`` holds on
    ``[switch_times[i-1], switch_times[i])``; right-continuous."""

    start: float
    end: float
    switch_times: tuple[float, ...]
    values: tuple[int, ...]

    def __call__(self, s: float) -> int:
        if not self.start <= s <= self.end:
            raise ValueError("outside the relay path domain")
        return self.values[bisect_right(self.switch_times, s)]

    @property
    def final(self) -> int:
        return self.values[-1]


def _init_relay_state(sigma0: float, u0: int, epsilon: float) -> int:
    if sigma0 >= epsilon:
        return -1
    if sigma0 <= -epsilon:
        return 1
    return u0


def _grid(a: float, b: float, dt: float) -> np.ndarray:
    """Scan nodes on [a, b], at most ``dt`` apart and never fewer than 8.

    ``np.linspace(a, b, n)`` bit for bit, by its own arithmetic: node k is
    ``k * ((b - a) / (n - 1)) + a``, or ``k / (n - 1) * (b - a) + a`` where
    that step is 0, and the last node is b.
    """
    delta = b - a
    n = max(8, int(math.ceil(delta / dt)) + 1)
    ts = np.arange(n, dtype=float)
    if (step := delta / (n - 1)) == 0:
        ts /= n - 1
        ts *= delta
    else:
        ts *= step
    ts += a
    ts[-1] = b
    return ts


def _first_crossing(values: Callable[[np.ndarray], np.ndarray],
                    value: Callable[[float], float], ts: np.ndarray, rho: int,
                    epsilon: float, chunk: int) -> float | None:
    """Earliest s in (ts[0], ts[-1]] where ``rho * signal - epsilon`` reaches 0.

    ``values`` gives the signal on an array of nodes and is read only for the
    sign tests, chunk by chunk (``chunk`` nodes first, doubling) up to the
    first chunk that holds a hit; node 0 is never a hit.  ``value`` gives the
    exact signal at one time, and Brent's method runs on it in the first cell
    that holds a hit.
    """
    n = len(ts)
    a, b = 0, min(n, chunk)
    while True:
        hs = values(ts[a:b])
        if np.shape(hs) != (b - a,):
            raise TypeError(f"h returned shape {np.shape(hs)} for a stack of {b - a} "
                            "states; RelaySystem.h must give one value per row")
        first = max(a, 1)
        hit = np.flatnonzero(rho * hs[first - a:] - epsilon >= 0.0)
        if hit.size:
            i = first + int(hit[0])
            break
        if b == n:
            return None
        a, b = b, min(n, b + 2 * (b - a))
    return float(brentq(lambda s: rho * value(s) - epsilon, ts[i - 1], ts[i],
                        xtol=1e-14, rtol=8.9e-16))


def hysteron(signal: Callable[[float], float], interval: tuple[float, float], u0: int,
             epsilon: float, samples: int = 2049) -> RelayPath:
    """Run the hysteretic relay over a continuous scalar signal.

    The initial value u0 only matters while the signal starts inside the
    open band; otherwise the relay state is set by the region the signal
    starts in.  Sign changes are located on a ``samples``-point grid, the
    scan resuming from each switch on the nodes after it, and refined by
    Brent's method, so features narrower than the grid spacing are
    invisible; pass more samples for wilder signals.
    """

    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty signal interval")
    if not epsilon > 0:
        raise ValueError("hysteresis half-width must be positive")
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(f"samples must be an integer of at least 2, got {samples!r}")
    state = _init_relay_state(float(signal(a)), u0, epsilon)
    times: list[float] = []
    values = [state]
    ts = np.linspace(a, b, samples)
    while (s := _first_crossing(lambda ss: np.array([signal(x) for x in ss]), signal,
                                ts, state, epsilon, _SCAN_CHUNK)) is not None:
        state = -state
        times.append(s)
        values.append(state)
        ts = np.concatenate(([s], ts[ts > s]))  # resume on the same grid
    return RelayPath(a, b, tuple(times), tuple(values))


# ---------------------------------------------------------------------------
# evolution engine


def _crossing(system: RelaySystem, s: float, slope: float, rho: int) -> CrossingRecord:
    """Record of the watched line ``rho * epsilon`` reached at time s."""
    if abs(slope) < DEGEN_TOL:
        raise DegenerateCrossing(f"signal tangent to the switching line at t={s:.6g}")
    return CrossingRecord(time=s, level=rho * system.epsilon, direction=int(np.sign(slope)),
                          slope=slope, switch_time=s + system.tau)


def evolve(system: RelaySystem, state: HybridState, T: float,
           scan_dt: float = DEFAULT_SCAN_DT) -> tuple[HybridState, Trajectory]:
    """Advance the hybrid state by time T > 0.

    Returns the state at time T (history re-anchored so its head is at 0)
    and the trajectory with its crossing/switch log.  The discrete component
    of the given state is normalised first: when the delayed output starts
    outside the open hysteresis band, the relay value is set by that region
    regardless of ``state.u``, and the trajectory's ``u_at(0.0)`` records the
    value that actually ran.  T and ``scan_dt`` must be positive and finite.

    Raises :class:`DegenerateCrossing` when the switching signal meets a
    threshold line with slope smaller than 1e-8 in magnitude, and
    :class:`NumericalError`, naming a time and the flow, where advancing the
    state raises ``FloatingPointError`` or ``OverflowError`` or gives a state
    or a signal value that is not finite; an error raised by ``system.h``
    itself passes unchanged.  Histories shorter than the delay are rejected.
    """

    if not 0.0 < T < math.inf:
        raise ValueError(f"evolution time must be positive and finite, got {T!r}")
    if not 0.0 < scan_dt < math.inf:
        raise ValueError(f"scan step must be positive and finite, got {scan_dt!r}")
    hist = state.history
    tau, eps = system.tau, system.epsilon
    if hist.horizon < tau - 1e-12:
        raise ValueError("history shorter than the delay")

    def sigma(s: float) -> float:
        return float(system.h(hist(s)))

    # the relay output at time 0 reads the signal at -tau, where the watched
    # residual is negative: every history crossing lies in (-tau, 0], and
    # its switch, one delay later, lies ahead
    u = rho = _init_relay_state(sigma(-tau), state.u, eps)
    crossings: list[CrossingRecord] = []
    # each piece lies in [-tau, 0], so it is scanned in one stacked call
    for (a, b) in hist.pieces(-tau):
        ts = _grid(a, b, scan_dt)
        while (s := _first_crossing(lambda ss: system.h(hist(ss)), sigma,
                                    ts, rho, eps, len(ts))) is not None:
            slope = float(system.dh(hist(s)) @ hist.derivative(s))
            crossings.append(_crossing(system, s, slope, rho))
            rho = -rho
            ts = np.concatenate(([s], ts[ts > s]))  # resume on the same grid
    # crossings are found in time order, so their switches fall due in it
    pending = deque(crossings)

    flow = system.flow
    y = hist(0.0)
    t = 0.0
    segments = [Segment(0.0, y, u)]
    switches: list[SwitchRecord] = []

    while t < T - 1e-13:
        t_stop = min(T, pending[0].switch_time) if pending else T
        s_hit = _next_head_crossing(system, y, t, u, rho, t_stop, scan_dt)
        t_next = t_stop if s_hit is None else s_hit
        try:
            z = flow.apply(y, u, t_next - t)
        except (FloatingPointError, OverflowError) as exc:
            raise _overflow(flow, t) from exc
        if not all(map(math.isfinite, z.tolist())):
            raise _overflow(flow, t)
        y, t = z, t_next
        if s_hit is not None:
            c = _crossing(system, s_hit, float(system.dh(y) @ flow.velocity(y, u)), rho)
            crossings.append(c)
            pending.append(c)
            rho = -rho
        elif pending and pending[0].switch_time <= t + 1e-13:
            c = pending.popleft()
            u = -u
            switches.append(SwitchRecord(time=c.switch_time, new_u=u, crossing_time=c.time))
            segments.append(Segment(c.switch_time, y, u))

    traj = Trajectory(flow, hist, segments, crossings, switches, T)
    new_state = HybridState(history=traj.tail_history(hist.horizon), u=u)
    return new_state, traj


def _next_head_crossing(system: RelaySystem, y, t: float, u: int, rho: int,
                        t_stop: float, scan_dt: float) -> float | None:
    """Earliest time in (t, t_stop] where the watched threshold is reached.

    :func:`_first_crossing` on the grid over [t, t_stop], its sign tests on
    one stacked ``h`` call per chunk of the path.  A window of at most one
    delay is one chunk; a longer one starts at ``_SCAN_CHUNK`` nodes.  While
    a switch is pending the window is at most one delay: the switch falls
    due at its crossing time s plus tau, and ``t_stop <= t + tau`` holds
    exactly where ``t_stop - t <= tau`` can fail by rounding.
    """
    if t_stop <= t:
        return None
    flow, eps = system.flow, system.epsilon

    def values(ss: np.ndarray) -> np.ndarray:
        try:
            path = flow.apply_path(y, u, ss - t)
        except (FloatingPointError, OverflowError) as exc:
            raise _overflow(flow, t) from exc
        return system.h(path)

    def value(s: float) -> float:
        v = system.h(flow.apply(y, u, s - t))
        if not math.isfinite(v):
            raise NumericalError(f"signal is not finite at t={s:.6g} under {flow!r}")
        return v

    ts = _grid(t, t_stop, scan_dt)
    chunk = len(ts) if t_stop <= t + system.tau else _SCAN_CHUNK
    return _first_crossing(values, value, ts, rho, eps, chunk)


def _overflow(flow, t: float) -> NumericalError:
    """The error of a flow that overflowed while advancing from time t."""
    return NumericalError(f"state overflowed after t={t:.6g} under {flow!r}")


def check_weak_transversality(system: RelaySystem, traj: Trajectory,
                              window: float) -> list[tuple[float, float]]:
    """Verify |h(y(.))| increases strictly through every recorded crossing.

    Returns ``(crossing_time, margin)`` pairs, the margin being the smallest
    forward difference of |h| at 25 points in the window (positive = strictly
    monotone).  All windows go through one stacked ``h`` call, so a margin may
    differ by rounding from one built on one-state values.  Raises
    :class:`WindowTooLarge` when the window would overlap a neighbouring
    crossing or leave the recorded time range.
    """

    if not window > 0:
        raise ValueError("window must be positive")
    times = sorted(c.time for c in traj.crossings)
    lo_lim = -traj.initial_history.horizon
    for i, tc in enumerate(times):
        lo, hi = tc - window, tc + window
        if lo < lo_lim or hi > traj.T:
            raise WindowTooLarge(f"window around t={tc:.6g} leaves the trajectory")
        if (i > 0 and lo <= times[i - 1]) or (i + 1 < len(times) and hi >= times[i + 1]):
            raise WindowTooLarge(f"window around t={tc:.6g} overlaps the next crossing")
    # one row of 25 samples per crossing window, evaluated as one stack
    ts = np.linspace(np.subtract(times, window), np.add(times, window), 25, axis=1)
    vals = np.abs(system.h(traj(ts))).reshape(ts.shape)
    margins = np.diff(vals, axis=1).min(axis=1)
    return list(zip(times, margins.tolist()))


def strict_transversality_q(system: RelaySystem, y) -> float:
    """Product of the one-sided switching-signal slopes at a corner point.

    Positive means both flows push the signal across the line the same way
    (admissible corner); negative means the corner is only touched from one
    side and the local return-map construction does not apply.
    """

    g = system.dh(y)
    return float((g @ system.flow.velocity(y, -1)) * (g @ system.flow.velocity(y, +1)))


@dataclass(frozen=True)
class SwitchBoundReport:
    """Observed switching statistics against the a-priori rate bound."""

    observed: int
    bound: float
    min_gap: float
    gap_bound: float
    y_max: float

    @property
    def ok(self) -> bool:
        gap_ok = math.isinf(self.min_gap) or self.min_gap >= self.gap_bound
        return self.observed <= self.bound and gap_ok


def switch_bound_report(system: RelaySystem, traj: Trajectory,
                        t0: float) -> SwitchBoundReport:
    """Compare switches on [t0, T] against the hysteresis rate bound.

    With L a Lipschitz constant of the field, H a bound on |grad h| and
    y_max the largest state norm at 1024 times on [t0 - tau, T], switches
    after one full delay are separated by at least 2*eps/(H*L*y_max), so
    at most 1 + (T - t0)*H*L*y_max/(2*eps) fit.  Requires t0 >= tau.
    """

    if t0 < system.tau - 1e-12:
        raise ValueError("bound valid only after one full delay, need t0 >= tau")
    L, H = system.lipschitz_f, system.sup_dh
    if L is None or H is None:
        raise ValueError("system lacks lipschitz_f / sup_dh data")
    ts = np.linspace(t0 - system.tau, traj.T, 1024)
    y_max = float(np.linalg.norm(traj(ts), axis=1).max())
    stimes = [s for s in traj.switch_times() if s >= t0]
    gaps = np.diff(stimes)
    min_gap = float(gaps.min()) if gaps.size else math.inf
    rate = H * L * y_max / (2.0 * system.epsilon)
    return SwitchBoundReport(
        observed=len(stimes),
        bound=1.0 + (traj.T - t0) * rate,
        min_gap=min_gap,
        gap_bound=1.0 / rate,
        y_max=y_max,
    )
