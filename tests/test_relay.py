"""Relay automaton and event-driven evolution of the delayed loop."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from relaydyn import relay
from relaydyn.errors import (DegenerateCrossing, NoRootInBracket, NumericalError,
                             WindowTooLarge)
from relaydyn.flows import AffineOscillatorFlow
from relaydyn.history import BreakpointHistory, HybridState, SampledHistory
from relaydyn.oscillator import (OscillatorParams, collision_orbit, collision_context,
                                 surface_alpha)
from relaydyn.reduced import map_F, oscillator_context, reconstruct_history
from relaydyn.relay import (RelaySystem, check_weak_transversality, evolve,
                            hysteron, oscillator_system, strict_transversality_q,
                            switch_bound_report)
from rk_oracle import NumericalFlow

ZETA, TAU, EPS = -0.1, 4.2, 0.1


def relay_oracle(signal, a, b, u0, epsilon, n=200001):
    """Brute-force relay path: dense scan plus interval-halving refinement.

    Deliberately shares no code with the implementation under test.
    """

    s0 = signal(a)
    if s0 >= epsilon:
        state = -1
    elif s0 <= -epsilon:
        state = 1
    else:
        state = u0
    times, values = [], [state]
    ss = np.linspace(a, b, n)
    i = 1
    while i < n:
        lo = ss[i - 1]
        if state * signal(ss[i]) - epsilon >= 0.0:
            hi = ss[i]
            if state * signal(lo) - epsilon < 0.0:
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if state * signal(mid) - epsilon >= 0.0:
                        hi = mid
                    else:
                        lo = mid
            state = -state
            times.append(hi)
            values.append(state)
            # rescan the same cell: the other line may be hit right after
            continue
        i += 1
    return times, values


def test_hysteron_matches_brute_force_oracle():
    def sig(s):
        return 1.4 * math.sin(1.9 * s) + 0.3 * math.sin(5.3 * s + 1.0)

    path = hysteron(sig, (0.0, 20.0), 1, 0.5)
    times, values = relay_oracle(sig, 0.0, 20.0, 1, 0.5)
    assert path.values == tuple(values)
    np.testing.assert_allclose(path.switch_times, times, rtol=0, atol=1e-9)
    assert len(path.switch_times) >= 10


def test_hysteron_initialization_rule():
    for u0 in (-1, 1):
        # at or beyond a threshold the region decides, not u0
        assert hysteron(lambda s: 0.7, (0, 1), u0, 0.5).final == -1
        assert hysteron(lambda s: 0.5, (0, 1), u0, 0.5).final == -1
        assert hysteron(lambda s: -0.7, (0, 1), u0, 0.5).final == 1
        # strictly inside the band the previous value holds
        assert hysteron(lambda s: 0.2, (0, 1), u0, 0.5).final == u0


def test_hysteron_fast_signals_on_a_coarse_grid():
    # on the 101-node grid over [0, 1] the switches of 2 sin(40 s) fall about
    # eight cells apart.  The single wave switches up in (0.50, 0.51) and down
    # in (0.51, 0.52): the scan resumed at the first switch finds no hit up
    # to node 0.51 and takes the second switch in the next cell.
    s0, half = 0.5035, 0.01

    def wave(s):
        return 1.5 * math.sin(math.pi * min(max(s - s0, -half / 2), 1.5 * half) / half)

    for sig in (lambda s: 2.0 * math.sin(40.0 * s), wave):
        path = hysteron(sig, (0.0, 1.0), 1, 0.5, samples=101)
        times, values = relay_oracle(sig, 0.0, 1.0, 1, 0.5)
        assert path.values == tuple(values)
        np.testing.assert_allclose(path.switch_times, times, rtol=0, atol=1e-9)
    assert [math.floor(100 * s) for s in path.switch_times] == [50, 51]


def relay_path_by_loop(path, s):
    """Value of a relay path at s by a linear walk over its switch times."""
    i = 0
    for t in path.switch_times:
        if s >= t:
            i += 1
        else:
            break
    return path.values[i]


def test_relay_path_lookup_matches_linear_walk():
    def sig(s):
        return 1.4 * math.sin(1.9 * s) + 0.3 * math.sin(5.3 * s + 1.0)

    rng = np.random.default_rng(7)
    for path in (hysteron(sig, (0.0, 20.0), 1, 0.5),
                 hysteron(lambda s: 2.0 * math.sin(40.0 * s), (0.0, 1.0), 1, 0.5,
                          samples=101),
                 hysteron(lambda s: 0.2, (0.0, 1.0), -1, 0.5)):
        # right-continuity: the switch times themselves and their neighbours
        probes = [path.start, path.end, *path.switch_times,
                  *np.nextafter(path.switch_times, -np.inf),
                  *rng.uniform(path.start, path.end, 200)]
        for s in probes:
            assert path(s) == relay_path_by_loop(path, s)
        for s in (path.start - 1e-9, path.end + 1e-9, math.nan):
            with pytest.raises(ValueError):
                path(s)


def test_hysteron_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hysteron(lambda s: 0.0, (1.0, 1.0), 1, 0.5)
    with pytest.raises(ValueError):
        hysteron(lambda s: 0.0, (0.0, 1.0), 1, 0.0)


def oscillator_setup(alpha=None):
    if alpha is None:
        alpha = surface_alpha(ZETA, TAU, EPS)[0]
    system = oscillator_system(ZETA, alpha, TAU, EPS)
    orbit = collision_orbit(ZETA, TAU, alpha)
    ctx = collision_context(orbit)
    return system, orbit, ctx


def test_evolve_reproduces_reduced_map_switch_points():
    # full delayed simulation vs the half-return map with alternating sign
    system, orbit, ctx = oscillator_setup()
    y0 = orbit.y_star + np.array([2e-3, -1e-3])
    state = reconstruct_history(ctx, y0)
    _, traj = evolve(system, state, 4.5 * TAU)
    pts = traj.switch_points()
    assert pts.shape[0] >= 4
    expected, sign = y0.copy(), 1
    for k in range(4):
        expected = map_F(ctx, expected)
        sign = -sign
        np.testing.assert_allclose(pts[k], sign * expected, rtol=0, atol=1e-9)


def test_evolve_near_symmetric_orbit_is_periodic():
    system, orbit, ctx = oscillator_setup()
    state = reconstruct_history(ctx, orbit.y_star + np.array([1e-9, 0.0]))
    _, traj = evolve(system, state, 6.0 * TAU)
    stimes = traj.switch_times()
    assert stimes.size >= 5
    np.testing.assert_allclose(np.diff(stimes), TAU, rtol=0, atol=1e-6)
    pts = traj.switch_points()
    for k in range(pts.shape[0]):
        np.testing.assert_allclose(pts[k], (-1) ** (k + 1) * orbit.y_star,
                                   rtol=0, atol=1e-6)


def test_evolve_is_partition_independent():
    system, _, ctx = oscillator_setup()
    y0 = np.array([0.9, 1.5])
    state0 = reconstruct_history(ctx, y0)
    whole, traj = evolve(system, state0, 3.0 * TAU)
    half, _ = evolve(system, state0, 1.5 * TAU)
    again, _ = evolve(system, half, 1.5 * TAU)
    np.testing.assert_allclose(again.history.head(), whole.history.head(),
                               rtol=0, atol=1e-9)
    assert again.u == whole.u
    for s in np.linspace(-TAU, 0.0, 13):
        np.testing.assert_allclose(again.history(s), whole.history(s),
                                   rtol=0, atol=1e-9)


def test_evolve_runs_the_relay_output_the_delayed_signal_sets():
    # the default simulate: h(y(-tau)) = 0.439 >= eps, so u0 = +1 runs as -1,
    # and the trajectory records the value that ran
    system = oscillator_system(ZETA, -0.5, TAU, EPS)
    hist = SampledHistory.constant(np.array([0.5, 0.0]), TAU)
    assert float(system.h(hist(-TAU))) >= EPS
    runs = [evolve(system, HybridState(hist, u0), 20.0) for u0 in (1, -1)]
    (state_p, traj_p), (state_m, traj_m) = runs
    for state, traj in runs:
        assert traj.u_at(0.0) == traj.segments[0].u == state.u == -1
    assert traj_p.crossings == traj_m.crossings and traj_p.switches == traj_m.switches
    assert [(s.t0, s.y0.tolist(), s.u) for s in traj_p.segments] == \
        [(s.t0, s.y0.tolist(), s.u) for s in traj_m.segments]
    ts = np.linspace(-TAU, 20.0, 401)
    assert np.array_equal(traj_p(ts), traj_m(ts))
    assert np.array_equal(state_p.history(ts[:70]), state_m.history(ts[:70]))


def test_evolve_rejects_short_history():
    system, _, _ = oscillator_setup()
    state = HybridState(SampledHistory.constant([0.5, 0.0], 0.5 * TAU), 1)
    with pytest.raises(ValueError):
        evolve(system, state, 1.0)


def test_evolve_switches_echo_crossings_after_one_delay():
    system, _, ctx = oscillator_setup()
    state = reconstruct_history(ctx, np.array([0.9, 1.4]))
    _, traj = evolve(system, state, 3.0 * TAU)
    for sw in traj.switches:
        assert sw.time == pytest.approx(sw.crossing_time + TAU, abs=1e-12)
    # each switch flips the relay output, starting from the initial one
    us = [traj.segments[0].u] + [sw.new_u for sw in traj.switches]
    assert len(us) > 3 and all(b == -a for a, b in zip(us, us[1:]))


@pytest.mark.parametrize("u0", [1, -1])
def test_history_window_crossings_match_the_oracle(u0):
    def steep(s):
        return np.array([3.0 * math.sin(12.0 * s) + 0.4 * math.sin(31.0 * s + 1.0), 0.0])

    def wobbly(s):
        return np.array([math.sin(3.0 * s) + 0.25 * math.sin(90.0 * s), 0.0])

    # alternating inputs on 8 pieces drive x' across both lines on most of them
    zigzag = BreakpointHistory(AffineOscillatorFlow(ZETA), TAU, [0.0, 0.0],
                               [-3.9, -3.3, -2.7, -2.1, -1.5, -0.9, -0.3],
                               [1, -1, 1, -1, 1, -1, 1, -1])
    cases = {"steep": (0.0, SampledHistory.from_function(steep, TAU, n=1025), 16),
             "wobbly": (0.0, SampledHistory.from_function(wobbly, TAU, n=1025), 8),
             "zigzag": (math.pi / 2, zigzag, 6)}
    for name, (alpha, hist, n_min) in cases.items():
        system = oscillator_system(ZETA, alpha, TAU, EPS)
        _, traj = evolve(system, HybridState(hist, u0), 0.5)
        got = [c for c in traj.crossings if c.time <= 0.0]

        def sig(s):
            return float(system.h(hist(s)))

        times, values = relay_oracle(sig, -TAU, 0.0, u0, EPS, n=20001)
        assert len(got) == len(times) >= n_min, name
        np.testing.assert_allclose([c.time for c in got], times, rtol=0, atol=1e-9)
        # the state before each flip names the line reached and the direction
        assert [c.level for c in got] == [v * EPS for v in values[:-1]], name
        assert [c.direction for c in got] == values[:-1], name
        if name == "steep":
            # the signal goes from one line past the other inside one 0.02
            # scan cell around every crossing
            assert all(v * sig(t - 0.01) < -EPS and v * sig(t + 0.01) > EPS
                       for t, v in zip(times, values) if t < -0.01)
        if name == "wobbly":
            # some crossing follows the one before it within two scan cells
            assert np.diff(times).min() < 2 * relay.DEFAULT_SCAN_DT


def test_degenerate_crossing_is_reported():
    # cubic tangency: the signal crosses +eps with zero slope
    system, _, _ = oscillator_setup(alpha=0.0)

    def fn(s):
        return np.array([EPS + 1e-3 * (s + 1.0) ** 3, 3e-3 * (s + 1.0) ** 2])

    state = HybridState(SampledHistory.from_function(fn, TAU, n=257), 1)
    with pytest.raises(DegenerateCrossing):
        evolve(system, state, 1.0)


def test_weak_transversality_on_regular_run():
    system, orbit, ctx = oscillator_setup()
    # near the orbit every crossing slope is close to one of the corner
    # scalars g+/-; double-length history keeps the windows inside range
    state = reconstruct_history(ctx, orbit.y_star + np.array([2e-3, -1e-3]),
                                horizon=2.0 * TAU)
    _, traj = evolve(system, state, 3.0 * TAU)
    margins = check_weak_transversality(system, traj, window=0.02)
    assert margins and all(m > 0 for _, m in margins)
    with pytest.raises(WindowTooLarge):
        check_weak_transversality(system, traj, window=2.0 * TAU)


def test_transversality_and_switch_bound_match_per_sample_loops():
    # the stacked h may move each sample in its last bit, nothing more
    system, orbit, ctx = oscillator_setup()
    state = reconstruct_history(ctx, orbit.y_star + np.array([2e-3, -1e-3]),
                                horizon=2.0 * TAU)
    _, traj = evolve(system, state, 3.0 * TAU)
    margins = check_weak_transversality(system, traj, window=0.02)
    assert len(margins) == len(traj.crossings)
    for tc, m in margins:
        vals = [abs(system.h(traj(s))) for s in np.linspace(tc - 0.02, tc + 0.02, 25)]
        assert m == pytest.approx(min(np.diff(vals)), rel=1e-9)
    report = switch_bound_report(system, traj, t0=TAU)
    ts = np.linspace(0.0, traj.T, 1024)
    assert report.y_max == pytest.approx(max(np.linalg.norm(traj(s)) for s in ts), rel=1e-14)


def test_strict_transversality_sign():
    system, orbit, _ = oscillator_setup()
    assert strict_transversality_q(system, orbit.y_star) == pytest.approx(orbit.q)
    assert orbit.q > 0
    # with the line x' = level both vector fields point through it in
    # opposite directions at the origin
    vertical = oscillator_system(ZETA, math.pi / 2, TAU, EPS)
    assert strict_transversality_q(vertical, np.zeros(2)) < 0


def test_switch_bound_holds_on_random_runs():
    rng = np.random.default_rng(42)
    system, orbit, _ = oscillator_setup()
    for _ in range(5):
        y0 = orbit.y_star + rng.normal(scale=0.3, size=2)
        hist = SampledHistory.constant(y0, TAU)
        _, traj = evolve(system, HybridState(hist, 1), 4.0 * TAU)
        report = switch_bound_report(system, traj, t0=TAU)
        assert report.ok
        assert report.observed <= report.bound
        assert report.min_gap >= report.gap_bound
    with pytest.raises(ValueError):
        switch_bound_report(system, traj, t0=0.5 * TAU)


# ---------------------------------------------------------------------------
# the lazily scanned head-crossing search against the full-grid scan


def full_grid_head_crossing(system, y, t, u, rho, t_stop, scan_dt):
    """The head-crossing search as a single full-grid scan up to t_stop."""
    if t_stop <= t:
        return None
    flow = system.flow
    eps = system.epsilon
    n = max(8, int(math.ceil((t_stop - t) / scan_dt)) + 1)
    ts = np.linspace(t, t_stop, n)
    path = flow.apply_path(y, u, ts - t)
    ws = rho * np.array([system.h(p) for p in path]) - eps
    hit = np.flatnonzero(ws[1:] >= 0.0)
    if hit.size == 0:
        return None
    i = 1 + int(hit[0])

    def w(s):
        return rho * system.h(flow.apply(y, u, s - t)) - eps

    lo = ts[i - 1] if ws[i - 1] < 0.0 else ts[0]
    return float(brentq(w, lo, ts[i], xtol=1e-14, rtol=8.9e-16))


class ClockFlow:
    """One-dimensional flow y' = 1: the state is the elapsed time plus y0."""

    dim = 1

    def apply(self, y, u, t):
        return np.asarray(y, float) + t

    def apply_path(self, y, u, ts):
        return np.asarray(y, float) + np.asarray(ts, float)[:, None]

    def velocity(self, y, u):
        return np.ones(1)


def clock_signal(p):
    # strictly increasing and not affine, so a bracket that moves also
    # moves the bits of the refined root; one state or a stack, as h must
    p = np.asarray(p, dtype=float)
    return p[..., 0] + 0.3 * np.sin(p[..., 0])


def clock_system(eps):
    return RelaySystem(flow=ClockFlow(), h=clock_signal,
                       dh=lambda p: np.array([1.0 + 0.3 * math.cos(p[0])]),
                       tau=1.0, epsilon=eps)


def test_head_crossing_scan_matches_full_grid_at_chunk_edges():
    # the watched signal crosses eps between nodes k - 1 and k
    t, t_stop, scan_dt = 0.0, 20.0, 0.02
    n = max(8, int(math.ceil((t_stop - t) / scan_dt)) + 1)
    ts = np.linspace(t, t_stop, n)
    c = relay._SCAN_CHUNK
    assert n > 7 * c + 1
    cases = {
        "first chunk": 5,
        "last node of the first chunk": c - 1,
        "first node of the second chunk": c,
        "first node of the third chunk": 3 * c,
        "second node of the third chunk": 3 * c + 1,
        "last node": n - 1,
    }
    y = np.array([t])
    for name, k in cases.items():
        eps = clock_signal([0.5 * (ts[k - 1] + ts[k])])
        system = clock_system(eps)
        got = relay._next_head_crossing(system, y, t, 1, 1, t_stop, scan_dt)
        assert got == full_grid_head_crossing(system, y, t, 1, 1, t_stop, scan_dt), name
        assert ts[k - 1] < got < ts[k], name
    # no hit up to t_stop
    system = clock_system(clock_signal([t_stop]) + 1e-3)
    assert relay._next_head_crossing(system, y, t, 1, 1, t_stop, scan_dt) is None
    assert full_grid_head_crossing(system, y, t, 1, 1, t_stop, scan_dt) is None
    # a window of at most one delay (tau = 1) is one stacked call, though it
    # holds more than one chunk's nodes
    t_stop = t + 1.0
    n = max(8, int(math.ceil((t_stop - t) / scan_dt)) + 1)
    ts = np.linspace(t, t_stop, n)
    assert n > c
    for name, k in {"window start": 1, "window middle": n // 2, "last node": n - 1}.items():
        ndims = []

        def h(p):
            ndims.append(np.ndim(p))
            return clock_signal(p)

        eps = clock_signal([0.5 * (ts[k - 1] + ts[k])])
        system = dataclasses.replace(clock_system(eps), h=h)
        got = relay._next_head_crossing(system, y, t, 1, 1, t_stop, scan_dt)
        assert ndims.count(2) == 1, name
        assert got == full_grid_head_crossing(system, y, t, 1, 1, t_stop, scan_dt), name
        assert ts[k - 1] < got < ts[k], name


def test_head_crossing_scan_matches_full_grid_from_the_threshold():
    # ws[0] >= 0 on a rising signal: node 1 is the first hit, so the bracket
    # [ts[0], ts[1]] starts on the line (the full-grid copy's ts[0] fallback)
    t, t_stop, scan_dt = 1.0, 3.0, 0.02
    y = np.array([t])
    system = clock_system(clock_signal(y))
    got = relay._next_head_crossing(system, y, t, 1, 1, t_stop, scan_dt)
    assert got == full_grid_head_crossing(system, y, t, 1, 1, t_stop, scan_dt) == t
    # strictly beyond the line at ts[0] neither version finds a bracket; the
    # scan reports it as the package's numerical error, not scipy's ValueError
    system = clock_system(clock_signal(y) - 0.1)
    with pytest.raises(NoRootInBracket):
        relay._next_head_crossing(system, y, t, 1, 1, t_stop, scan_dt)
    with pytest.raises(ValueError):
        full_grid_head_crossing(system, y, t, 1, 1, t_stop, scan_dt)
    # node 0 is never a hit: beyond the line there, back inside from node 1 on
    t = -2.0
    y = np.array([t])
    system = clock_system(-clock_signal(y) - 0.01)
    for search in (relay._next_head_crossing, full_grid_head_crossing):
        assert search(system, y, t, 1, -1, t + 3.0, scan_dt) is None


def test_head_crossing_scan_matches_full_grid_on_the_oscillator():
    rng = np.random.default_rng(11)
    system = oscillator_system(ZETA, -0.5, TAU, EPS)
    scan_dt = relay.DEFAULT_SCAN_DT
    late = hits = misses = 0
    for _ in range(60):
        y = rng.normal(scale=0.6, size=2)
        u, rho = rng.choice([-1, 1], size=2)
        t = rng.uniform(0.0, 5.0)
        t_stop = t + 10.0 ** rng.uniform(-1.5, 1.6)
        if rho * system.h(y) - EPS >= 0.0:
            continue
        got = relay._next_head_crossing(system, y, t, u, rho, t_stop, scan_dt)
        assert got == full_grid_head_crossing(system, y, t, u, rho, t_stop, scan_dt)
        if got is None:
            misses += 1
        else:
            hits += 1
            late += got - t > relay._SCAN_CHUNK * scan_dt
    assert misses and hits and late


def test_evolve_scan_work_is_linear_in_the_horizon():
    # the simulate command's default system and constant history
    base = oscillator_system(-0.1, -0.5, 4.2, 0.1)
    state = HybridState(SampledHistory.constant([0.5, 0.0], 4.2), 1)
    calls, crossings = [], []
    for horizon in (100.0, 200.0):
        count = [0]

        def h(y, count=count):
            count[0] += np.atleast_2d(y).shape[0]  # states, one per stacked row
            return base.h(y)

        _, traj = evolve(dataclasses.replace(base, h=h), state, horizon)
        calls.append(count[0])
        crossings.append(len(traj.crossings))
    # the full-grid scan costs about 4x here, its work per crossing grows
    assert calls[1] / calls[0] < 2.5
    assert max(c / k for c, k in zip(calls, crossings)) < 400


def test_simulate_scan_makes_one_h_call_per_chunk():
    # the simulate command's default system and constant history, at the
    # benchmark's horizon; a scan calling h once per node makes about 30k
    # calls, and a full-grid scan evaluates thousands of states per crossing
    base = oscillator_system(-0.1, -0.5, 4.2, 0.1)
    state = HybridState(SampledHistory.constant([0.5, 0.0], 4.2), 1)
    calls, stacked, states = [0], [0], [0]

    def h(y):
        calls[0] += 1
        stacked[0] += np.ndim(y) == 2
        states[0] += np.atleast_2d(y).shape[0]
        return base.h(y)

    _, traj = evolve(dataclasses.replace(base, h=h), state, 500.0)
    assert len(traj.crossings) > 100
    assert calls[0] < 2000
    assert calls[0] / len(traj.crossings) < 20
    # a window of at most one delay is one stacked call: about two per
    # crossing, where chunks of 32, 64 and 128 nodes made four.  The window
    # from a crossing to the switch it arms is one delay, though
    # (s + tau) - s may exceed tau by rounding: treated as longer, such
    # windows took 2.39 stacked calls per crossing
    assert stacked[0] / len(traj.crossings) <= 2.1
    assert states[0] / len(traj.crossings) < 400


def test_grid_equals_linspace_bit_for_bit():
    rng = np.random.default_rng(28)
    n = 20000
    starts = np.concatenate([rng.uniform(-5.0, 5.0, n // 2),     # history pieces and early windows
                             rng.uniform(495.0, 500.0, n - n // 2)])  # near the horizon
    widths = 10.0 ** rng.uniform(-12.0, 1.0, n)  # down to 1e-12: the 8-node floor
    dts = np.where(rng.random(n) < 0.5, relay.DEFAULT_SCAN_DT, 10.0 ** rng.uniform(-3, 0, n))
    windows = list(zip(starts.tolist(), (starts + widths).tolist(), dts.tolist()))
    # the head scan's windows end at a switch time, one delay after a crossing
    windows += [(a, a + 4.2, 0.02) for a in starts[:100].tolist()]
    windows += [(0.0, 5e-324, 0.02),  # a step of 0: numpy's step-zero branch
                (-1e-320, 1e-320, 0.02),  # a subnormal step
                (-4.2, 0.0, 0.02), (0.0, 500.0, 0.02), (499.9, 500.0, 1.0)]
    floor = 0
    for a, b, dt in windows:
        got = relay._grid(a, b, dt)
        want = np.linspace(a, b, max(8, int(math.ceil((b - a) / dt)) + 1))
        assert got.dtype == want.dtype and np.array_equal(got, want), (a, b, dt)
        floor += got.size == 8
    assert floor > n // 4


@pytest.mark.parametrize("one_state_h", [
    lambda y: y[0] - 0.1,
    lambda y: math.cos(-0.5) * y[0] + math.sin(-0.5) * y[1],
    lambda y: 0.0,
], ids=["first_row", "dot_of_rows", "constant"])
def test_scan_refuses_an_h_without_one_value_per_row(one_state_h):
    # each is right for one state, but wrong or a scalar on a stack
    base = oscillator_system(-0.1, -0.5, 4.2, 0.1)
    state = HybridState(SampledHistory.constant([0.5, 0.0], 4.2), 1)
    with pytest.raises(TypeError, match="one value per row"):
        evolve(dataclasses.replace(base, h=one_state_h), state, 50.0)


def test_oscillator_h_takes_one_state_or_a_stack():
    rng = np.random.default_rng(3)
    ys = rng.normal(size=(4000, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4000, 1))
    for alpha in (-0.5, 0.3, 2.0):
        system = oscillator_system(ZETA, alpha, TAU, EPS)
        c = np.array([math.cos(alpha), math.sin(alpha)])
        one = [system.h(y) for y in ys]
        # one state: the value of the scalar dot product, bit for bit
        assert one == [float(c @ y) for y in ys]
        stacked = system.h(ys)
        assert stacked.shape == (len(ys),)
        ulps = np.abs(stacked - np.array(one)) / np.spacing(np.linalg.norm(ys, axis=1))
        assert ulps.max() <= 2.0


def test_evolve_on_rk_flow_matches_closed_form():
    # the simulate command's default system, integrated by RK45 instead
    closed = oscillator_system(-0.1, -0.5, 4.2, 0.1)
    rk = dataclasses.replace(closed, flow=NumericalFlow(closed.flow.velocity, dim=2))
    state = HybridState(SampledHistory.constant([0.5, 0.0], 4.2), 1)
    _, ref = evolve(closed, state, 5.0 * 4.2)
    _, got = evolve(rk, state, 5.0 * 4.2)
    assert len(ref.switches) >= 3
    assert len(got.switches) == len(ref.switches)
    np.testing.assert_allclose(got.switch_times(), ref.switch_times(), rtol=0, atol=1e-7)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_sizes_refuse_nan_and_non_positive_values(bad):
    # every size guard reads `not x > 0`, so NaN is refused with the message
    # of a non-positive size instead of passing a `x <= 0` test; the horizon
    # and the scan step of evolve must be finite too
    flow = AffineOscillatorFlow(ZETA)
    system = oscillator_system(ZETA, -0.5, TAU, EPS)
    state = HybridState(SampledHistory.constant([0.5, 0.0], TAU), 1)
    _, traj = evolve(system, state, 10.0)
    refusals = [
        (lambda: evolve(system, state, bad), "evolution time must be positive"),
        (lambda: evolve(system, state, math.inf), "evolution time must be positive and finite"),
        (lambda: evolve(system, state, 10.0, scan_dt=bad), "scan step must be positive"),
        (lambda: evolve(system, state, 10.0, scan_dt=math.inf),
         "scan step must be positive and finite"),
        (lambda: oscillator_system(ZETA, -0.5, bad, EPS), "delay must be positive"),
        (lambda: oscillator_system(ZETA, -0.5, TAU, bad), "half-width must be positive"),
        (lambda: OscillatorParams(ZETA, bad, EPS, -0.5), "delay must be positive"),
        (lambda: OscillatorParams(ZETA, TAU, bad, -0.5), "half-width must be positive"),
        (lambda: oscillator_context(ZETA, -0.5, bad, EPS, [0.1, 0.0]),
         "delay and hysteresis half-width must be positive"),
        (lambda: oscillator_context(ZETA, -0.5, TAU, bad, [0.1, 0.0]),
         "delay and hysteresis half-width must be positive"),
        (lambda: BreakpointHistory(flow, bad, [0.1, 0.0]), "horizon must be positive"),
        (lambda: SampledHistory(bad, np.zeros((9, 2))), "horizon must be positive"),
        (lambda: SampledHistory.constant([0.5, 0.0], bad), "horizon must be positive"),
        (lambda: hysteron(math.sin, (0.0, 10.0), 1, bad), "half-width must be positive"),
        (lambda: hysteron(math.sin, (0.0, 20.0), 1, 0.5, samples=bad),
         "samples must be an integer"),
        *[(lambda n=n: hysteron(math.sin, (0.0, 20.0), 1, 0.5, samples=n),
           "samples must be an integer of at least 2") for n in (0, 1, 2.5)],
        (lambda: check_weak_transversality(system, traj, bad), "window must be positive"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError, match=message):
            call()


def test_evolve_names_an_overflow_under_raising_errstate():
    system = oscillator_system(-5.0, -0.5, TAU, EPS)
    state = HybridState(SampledHistory.constant(np.array([0.5, 0.0]), TAU), 1)
    with np.errstate(all="raise"), pytest.raises(NumericalError) as info:
        evolve(system, state, 500.0)
    assert str(info.value) == \
        "state overflowed after t=139.18 under AffineOscillatorFlow(zeta=-5.0)"
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_evolve_names_an_overflow_under_quiet_errstate():
    # the one-state route overflows inside the hit cell of a finite stacked scan
    system = oscillator_system(-5.0, -0.5, TAU, EPS)
    state = HybridState(SampledHistory.constant(np.array([0.5, 0.0]), TAU), 1)
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
        evolve(system, state, 500.0)
    assert str(info.value) == \
        "signal is not finite at t=141.248 under AffineOscillatorFlow(zeta=-5.0)"


def test_evolve_passes_an_error_of_h_unchanged():
    base = oscillator_system(ZETA, -0.5, TAU, EPS)

    def h(y):
        if np.ndim(y) == 1 and y[0] < 0.0:
            raise FloatingPointError("divide by zero in h")
        return base.h(y)

    system = dataclasses.replace(base, h=h)
    state = HybridState(SampledHistory.constant(np.array([0.5, 0.0]), TAU), 1)
    with np.errstate(all="raise"), \
            pytest.raises(FloatingPointError, match="^divide by zero in h$"):
        evolve(system, state, 20.0)


def test_evolve_refuses_a_state_that_is_not_finite():
    # no crossing within 0.5 of the start, so the first step is the only one
    class Overflowing(AffineOscillatorFlow):
        def apply(self, y, u, t):
            return np.full(2, math.inf)

    system = dataclasses.replace(oscillator_system(ZETA, -0.5, TAU, EPS),
                                 flow=Overflowing(ZETA))
    state = HybridState(SampledHistory.constant(np.array([0.5, 0.0]), TAU), 1)
    with pytest.raises(NumericalError, match=r"^state overflowed after t=0 under "
                                             r"AffineOscillatorFlow\(zeta=-0\.1\)$"):
        evolve(system, state, 0.5)
