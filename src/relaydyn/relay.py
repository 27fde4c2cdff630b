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
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._roots import brentq
from .errors import DegenerateCrossing, WindowTooLarge
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

# crossing times are refined until the signal residual is below RESID_TOL;
# slopes below DEGEN_TOL at a crossing count as tangent
RESID_TOL = 1e-12
DEGEN_TOL = 1e-8
DEFAULT_SCAN_DT = 0.02
# nodes in the first chunk of the head-crossing scan; each later chunk doubles
_SCAN_CHUNK = 32


@dataclass(frozen=True)
class RelaySystem:
    """A relay feedback loop: flow backend, switching functional, delay, band.

    ``h``/``dh`` evaluate the switching functional and its gradient.  ``h``
    takes one state of shape (dim,) and returns a float, or a stack of
    states of shape (n, dim) and returns one value per row.  A stacked value
    may differ from the one-state value of that row in the last bits.
    :func:`evolve` reads stacked values only for the sign tests of its scans
    and refines and polishes every crossing on one-state values, so its
    crossing and switch times do not depend on those bits; the margins of
    :func:`check_weak_transversality` are built on stacked values.
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


def _march_relay(value: Callable[[float], float], a: float, b: float, n: int,
                 state: int, epsilon: float, collect: Callable[[float, int], None]) -> int:
    """Advance the relay state across one smooth signal piece [a, b].

    ``value`` must be exact (not interpolated between the scan nodes) so the
    bracketed refinement converges to the true crossing.  ``collect`` is
    called once per flip with the refined time and the new state.  Assumes
    the state is consistent at ``a`` (watched residual negative there).
    Returns the state at ``b``.
    """

    ts = np.linspace(a, b, n)
    sig = np.array([value(s) for s in ts])
    last = a
    i = 1
    while i < n:
        if state * sig[i] - epsilon >= 0.0:
            lo = ts[i - 1] if (state * sig[i - 1] - epsilon) < 0.0 and ts[i - 1] >= last else last
            st = state
            s_hit = float(brentq(lambda s: st * value(s) - epsilon, lo, ts[i],
                                 xtol=1e-14, rtol=8.9e-16))
            state = -state
            collect(s_hit, state)
            last = s_hit
            # stay on this node: the signal may cross the other line in the same cell
            continue
        i += 1
    return state


def hysteron(signal: Callable[[float], float], interval: tuple[float, float], u0: int,
             epsilon: float, samples: int = 2049) -> RelayPath:
    """Run the hysteretic relay over a continuous scalar signal.

    The initial value u0 only matters while the signal starts inside the
    open band; otherwise the relay state is set by the region the signal
    starts in.  Sign changes are located on a ``samples``-point grid and
    refined by bisection, so features narrower than the grid spacing are
    invisible; pass more samples for wilder signals.
    """

    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty signal interval")
    if not epsilon > 0:
        raise ValueError("hysteresis half-width must be positive")
    state = _init_relay_state(float(signal(a)), u0, epsilon)
    times: list[float] = []
    values = [state]

    def collect(s_hit, new_state):
        times.append(s_hit)
        values.append(new_state)

    _march_relay(signal, a, b, int(samples), state, epsilon, collect)
    return RelayPath(a, b, tuple(times), tuple(values))


# ---------------------------------------------------------------------------
# evolution engine


def _scan_history(system: RelaySystem, state: HybridState, scan_dt: float):
    """Relay state and crossings encoded in the last delay-window of history.

    Returns (u_start, rho, crossings): the relay output effective at time 0,
    the relay state continuing the headpoint signal, and crossing records at
    history times in [-tau, 0].
    """

    hist = state.history
    tau, eps = system.tau, system.epsilon

    def sigma(s: float) -> float:
        return float(system.h(hist(s)))

    def slope(s: float) -> float:
        return float(system.dh(hist(s)) @ hist.derivative(s))

    rho = _init_relay_state(sigma(-tau), state.u, eps)
    u_start = rho
    crossings: list[CrossingRecord] = []

    def collect(s_hit: float, new_state: int):
        sl = slope(s_hit)
        if abs(sl) < DEGEN_TOL:
            raise DegenerateCrossing(
                f"signal tangent to the switching line at history time {s_hit:.6g}")
        crossings.append(CrossingRecord(time=s_hit, level=-new_state * eps,
                                        direction=int(np.sign(sl)), slope=sl,
                                        switch_time=s_hit + tau))

    for (a, b) in hist.pieces(-tau):
        n = max(8, int(math.ceil((b - a) / scan_dt)) + 1)
        rho = _march_relay(sigma, a, b, n, rho, eps, collect)
    return u_start, rho, crossings


def evolve(system: RelaySystem, state: HybridState, T: float,
           scan_dt: float = DEFAULT_SCAN_DT) -> tuple[HybridState, Trajectory]:
    """Advance the hybrid state by time T > 0.

    Returns the state at time T (history re-anchored so its head is at 0)
    and the trajectory with its crossing/switch log.  The discrete component
    of the given state is normalised first: when the delayed output starts
    outside the open hysteresis band, the relay value is set by that region
    regardless of ``state.u``.

    Raises :class:`DegenerateCrossing` when the switching signal meets a
    threshold line with slope smaller than 1e-8 in magnitude.  Histories
    shorter than the delay are rejected.
    """

    if not T > 0:
        raise ValueError("evolution time must be positive")
    hist = state.history
    tau, eps = system.tau, system.epsilon
    if hist.horizon < tau - 1e-12:
        raise ValueError("history shorter than the delay")

    u_start, rho, hist_crossings = _scan_history(system, state, scan_dt)

    # delayed echoes of the history crossings that still lie ahead
    pending: list[tuple[float, int]] = []
    u_sched = u_start
    cross_by_switch: dict[float, float] = {}
    for c in hist_crossings:
        u_sched = -u_sched
        cross_by_switch[c.switch_time] = c.time
        if c.switch_time > 0.0:
            insort(pending, (c.switch_time, u_sched))

    flow = system.flow
    y = hist(0.0)
    t = 0.0
    u = u_start
    segments = [Segment(0.0, y, u)]
    switches: list[SwitchRecord] = []
    all_crossings = list(hist_crossings)

    while t < T - 1e-13:
        t_stop = min(T, pending[0][0]) if pending else T
        s_hit = _next_head_crossing(system, y, t, u, rho, t_stop, scan_dt)
        if s_hit is not None:
            z = flow.apply(y, u, s_hit - t)
            sl = float(system.dh(z) @ flow.velocity(z, u))
            if abs(sl) < DEGEN_TOL:
                raise DegenerateCrossing(
                    f"signal tangent to the switching line at t={s_hit:.6g}")
            all_crossings.append(CrossingRecord(time=s_hit, level=rho * eps,
                                                direction=int(np.sign(sl)), slope=sl,
                                                switch_time=s_hit + tau))
            cross_by_switch[s_hit + tau] = s_hit
            rho = -rho
            insort(pending, (s_hit + tau, rho))
            y = z
            t = s_hit
            continue
        y = flow.apply(y, u, t_stop - t)
        t = t_stop
        if pending and pending[0][0] <= t + 1e-13:
            st, new_u = pending.pop(0)
            if new_u != u:
                u = new_u
                switches.append(SwitchRecord(time=st, new_u=new_u,
                                             crossing_time=cross_by_switch[st]))
                segments.append(Segment(st, y, u))

    traj = Trajectory(flow, hist, segments, all_crossings, switches, T)
    new_state = HybridState(history=traj.tail_history(hist.horizon), u=u)
    return new_state, traj


def _next_head_crossing(system: RelaySystem, y, t: float, u: int, rho: int,
                        t_stop: float, scan_dt: float) -> float | None:
    """Earliest time in (t, t_stop] where the watched threshold is reached.

    The scan grid spans [t, t_stop], but it is evaluated lazily: chunks of
    ``_SCAN_CHUNK`` nodes, doubling, up to the first chunk that holds a hit.
    The cost is linear in the distance to the next hit rather than to
    ``t_stop``, and the bracket and the root are those of the full grid.
    """
    if t_stop <= t:
        return None
    flow = system.flow
    eps = system.epsilon
    n = max(8, int(math.ceil((t_stop - t) / scan_dt)) + 1)
    ts = np.linspace(t, t_stop, n)
    dts = ts - t
    a, b = 0, min(n, _SCAN_CHUNK)
    while True:
        # one stacked h per chunk: only the sign of each node's residual is read
        hs = system.h(flow.apply_path(y, u, dts[a:b]))
        if np.shape(hs) != (b - a,):
            raise TypeError(f"h returned shape {np.shape(hs)} for a stack of {b - a} "
                            "states; RelaySystem.h must give one value per row")
        ws = rho * hs - eps
        first = max(a, 1)  # node 0 is the state at t itself, never a hit
        hit = np.flatnonzero(ws[first - a:] >= 0.0)
        if hit.size:
            i = first + int(hit[0])
            break
        if b == n:
            return None
        a, b = b, min(n, b + 2 * (b - a))

    def w(s: float) -> float:
        return rho * system.h(flow.apply(y, u, s - t)) - eps

    s_hit = float(brentq(w, ts[i - 1], ts[i], xtol=1e-14, rtol=8.9e-16))

    # polish until the signal residual itself is tiny
    def dw(s: float) -> float:
        z = flow.apply(y, u, s - t)
        return rho * float(system.dh(z) @ flow.velocity(z, u))

    for _ in range(3):
        r = w(s_hit)
        if abs(r) <= RESID_TOL:
            break
        d = dw(s_hit)
        if d == 0.0:
            break
        s_hit -= r / d
    return s_hit


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
