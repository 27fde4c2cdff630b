"""History containers: exact breakpoint form, sampled form, hybrid state."""

import bisect

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from relaydyn.flows import AffineOscillatorFlow
from relaydyn.history import BreakpointHistory, HybridState, SampledHistory


@pytest.fixture
def flow():
    return AffineOscillatorFlow(-0.1)


def test_breakpoint_history_composes_flow(flow):
    anchor = np.array([0.4, -0.2])
    hist = BreakpointHistory(flow, 5.0, anchor, times=[-3.0, -1.0],
                             labels=[1, -1, 1])
    np.testing.assert_allclose(hist(-5.0), anchor, atol=1e-14)
    # manual composition: +1 for 2 units, -1 for 2 units, +1 afterwards
    y1 = flow.apply(anchor, 1, 2.0)
    y2 = flow.apply(y1, -1, 2.0)
    np.testing.assert_allclose(hist(-3.0), y1, atol=1e-13)
    np.testing.assert_allclose(hist(-1.0), y2, atol=1e-13)
    np.testing.assert_allclose(hist(-2.0), flow.apply(y1, -1, 1.0), atol=1e-13)
    np.testing.assert_allclose(hist(0.0), flow.apply(y2, 1, 1.0), atol=1e-13)
    np.testing.assert_allclose(hist.head(), hist(0.0))


def test_breakpoint_history_labels_right_continuous(flow):
    hist = BreakpointHistory(flow, 4.0, [1.0, 0.0], times=[-2.0],
                             labels=[-1, 1])
    assert hist.label_at(-2.0) == 1
    assert hist.label_at(-2.0 - 1e-12) == -1
    assert hist.label_at(0.0) == 1
    # derivative uses the active label
    np.testing.assert_allclose(hist.derivative(-2.0),
                               flow.velocity(hist(-2.0), 1), atol=1e-13)


def test_breakpoint_history_pieces(flow):
    hist = BreakpointHistory(flow, 4.0, [1.0, 0.0], times=[-3.0, -1.0],
                             labels=[1, -1, 1])
    assert hist.pieces(-2.0) == [(-2.0, -1.0), (-1.0, 0.0)]
    assert hist.pieces(-4.0) == [(-4.0, -3.0), (-3.0, -1.0), (-1.0, 0.0)]


def test_breakpoint_history_validation(flow):
    with pytest.raises(ValueError):
        BreakpointHistory(flow, -1.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        BreakpointHistory(flow, 2.0, [0.0, 0.0], times=[-1.0], labels=[1])
    with pytest.raises(ValueError):
        BreakpointHistory(flow, 2.0, [0.0, 0.0], times=[-3.0], labels=[1, -1])
    with pytest.raises(ValueError):
        BreakpointHistory(flow, 2.0, [0.0, 0.0], times=[-1.0], labels=[1, 2])
    hist = BreakpointHistory(flow, 2.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        hist(0.5)
    with pytest.raises(ValueError):
        hist(-2.5)


def test_sampled_history_constant():
    hist = SampledHistory.constant([0.3, -0.7], 4.2)
    for s in (-4.2, -1.0, 0.0):
        np.testing.assert_allclose(hist(s), [0.3, -0.7], atol=1e-14)
        np.testing.assert_allclose(hist.derivative(s), 0.0, atol=1e-12)
    assert hist.dim == 2


def test_sampled_history_refuses_arrays_outside_the_window():
    # arrays obey the scalar rule: out-of-window times raise, never clamp
    hist = SampledHistory.constant([0.3, -0.7], 4.2)
    for bad, s in (([1.0, -10.0], 1.0), ([-2.0, 1e-6], 1e-6),
                   ([-4.2 - 1e-6, -1.0], -4.2 - 1e-6)):
        with pytest.raises(ValueError):
            hist(np.array(bad))
        with pytest.raises(ValueError):
            hist(s)
    # within the edge tolerance both paths still clamp onto the window
    edge = np.array([-4.2 - 1e-10, -1.0, 1e-10])
    got = hist(edge)
    assert got.shape == (3, 2)
    for row, s in zip(got, edge):
        np.testing.assert_array_equal(row, hist(float(s)))


@pytest.mark.parametrize("kind", ["breakpoint", "sampled"])
def test_histories_refuse_nan_times(flow, kind):
    # a NaN time is outside every window: it raises like an out-of-window
    # time, scalar or inside an array, and never returns a NaN row
    hists = {"breakpoint": [BreakpointHistory(flow, 4.2, [0.3, -0.7]),
                            BreakpointHistory(flow, 4.2, [1.0, 0.0], times=[-2.0],
                                              labels=[-1, 1])],
             "sampled": [SampledHistory.constant([0.3, -0.7], 4.2),
                         SampledHistory.from_function(
                             lambda s: np.array([np.sin(s), np.cos(s)]), 4.2)]}[kind]
    for hist in hists:
        for evaluate in (lambda: hist(np.nan), lambda: hist(np.array([-1.0, np.nan])),
                         lambda: hist(np.array([np.nan])), lambda: hist.derivative(np.nan)):
            with pytest.raises(ValueError, match="outside"):
                evaluate()


def test_sampled_history_interpolates_smooth_function():
    def fn(s):
        return np.array([np.sin(s), np.cos(s)])

    hist = SampledHistory.from_function(fn, 5.0, n=129)
    ss = np.linspace(-5.0, 0.0, 257)
    err = max(float(np.max(np.abs(hist(s) - fn(s)))) for s in ss)
    assert err < 1e-6
    derr = max(float(np.max(np.abs(hist.derivative(s)
                                   - np.array([np.cos(s), -np.sin(s)]))))
               for s in ss)
    assert derr < 1e-4


def test_sampled_history_constant_is_exact():
    # the simulate default: a constant history must not pick up rounding
    for n in (4, 9, 129):
        hist = SampledHistory.constant([0.3, -0.7], 4.2, n=n)
        ss = np.linspace(-4.2, 0.0, 1001)
        assert np.all(hist(ss) == [0.3, -0.7])
        for s in ss:
            assert np.all(hist(float(s)) == [0.3, -0.7])
            d = hist.derivative(float(s))
            assert np.all(d == 0.0) and not np.signbit(d).any()


@pytest.mark.parametrize("n", [4, 9, 129])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("data", ["random", "smooth"])
def test_sampled_history_equals_scipy_cubic_spline(n, dim, data):
    # scipy's not-a-knot CubicSpline, to 1e-13 of the largest value compared
    horizon = 3.7
    grid = np.linspace(-horizon, 0.0, n)
    if data == "random":
        values = np.random.default_rng(10 * n + dim).normal(size=(n, dim))
    else:
        values = np.stack([np.sin(1.3 * grid) + 0.5, 2.0 * np.cos(0.7 * grid)], axis=1)[:, :dim]
    hist = SampledHistory(horizon, values)
    ref = CubicSpline(grid, values, axis=0)
    ss = np.concatenate([np.linspace(-horizon, 0.0, 1001), grid])
    got, want = hist(ss), ref(ss)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    dgot = np.stack([hist.derivative(float(s)) for s in ss])
    dwant = ref.derivative()(ss)
    assert np.max(np.abs(dgot - dwant)) <= 1e-13 * np.max(np.abs(dwant))
    # scalar calls take the same arithmetic as the array call
    np.testing.assert_array_equal(np.stack([hist(float(s)) for s in ss]), got)


def test_sampled_history_needs_enough_samples():
    with pytest.raises(ValueError):
        SampledHistory(1.0, np.zeros((3, 2)))


def test_hybrid_state_validates_relay_output():
    hist = SampledHistory.constant([0.0, 0.0], 1.0)
    HybridState(hist, 1)
    HybridState(hist, -1)
    with pytest.raises(ValueError):
        HybridState(hist, 0)


@pytest.mark.parametrize("kind", ["sampled", "breakpoint"])
def test_trajectory_rows_equal_one_time_values(flow, kind):
    from relaydyn.relay import evolve, oscillator_system

    system = oscillator_system(-0.1, -0.5, 4.2, 0.1)
    if kind == "sampled":
        hist = SampledHistory.from_function(
            lambda s: np.array([0.5 + 0.2 * np.sin(s), 0.2 * np.cos(s)]), 4.2)
        past = hist
    else:
        hist = BreakpointHistory(flow, 4.2, [0.3, -0.1], times=[-2.5, -0.7],
                                 labels=[1, -1, 1])
        # the history's one-time rule: the piece that bisect_right finds on
        # the switch times, then apply from that piece's start
        piece_t, piece_y = [-4.2], [np.array([0.3, -0.1])]
        for t, u in zip(hist.times, hist.labels):
            piece_y.append(flow.apply(piece_y[-1], u, t - piece_t[-1]))
            piece_t.append(t)

        def past(t):
            i = bisect.bisect_right(hist.times, t)
            return flow.apply(piece_y[i], hist.labels[i], t - piece_t[i])
    _, traj = evolve(system, HybridState(hist, 1), 30.0)
    assert len(traj.segments) > 3
    rng = np.random.default_rng(2)
    edges = [seg.t0 for seg in traj.segments] + [0.0, traj.T, -4.2, -2.5, -0.7]
    ts = np.concatenate([rng.uniform(-4.2, traj.T, 400), edges])
    before = ts[ts <= 0.0]
    assert np.array_equal(hist(before), [past(t) for t in before.tolist()])
    assert all(np.array_equal(hist(t), past(t)) for t in before.tolist())
    # the one-time rule: initial history up to 0, then the segment that
    # bisect_right finds on the segment starts, at a time clamped to T
    starts = [seg.t0 for seg in traj.segments]
    segs = [traj.segments[max(bisect.bisect_right(starts, t) - 1, 0)]
            for t in ts.tolist()]
    expect = np.stack([past(t) if t <= 0.0 else
                       traj.flow.apply(seg.y0, seg.u, min(t, traj.T) - seg.t0)
                       for t, seg in zip(ts.tolist(), segs)])
    rows = traj(ts[:, None])  # any shape, rows in flattened order
    assert rows.shape == (ts.size, 2)
    assert np.array_equal(rows, expect)
    assert all(np.array_equal(traj(t), row) for t, row in zip(ts.tolist(), expect))
    # before 0 the relay output is the history's label, which a sampled
    # history does not record
    if kind == "sampled":
        with pytest.raises(ValueError):
            traj.u_at(ts)
        ts, segs = ts[ts >= 0.0], [seg for t, seg in zip(ts.tolist(), segs) if t >= 0.0]
    us = [hist.label_at(t) if t < 0.0 else seg.u for t, seg in zip(ts.tolist(), segs)]
    assert traj.u_at(ts) == us
    assert [traj.u_at(t) for t in ts.tolist()] == us
    assert traj(np.array([])).shape == (0, 2)
    with pytest.raises(ValueError):
        traj(np.array([1.0, traj.T + 1e-6]))


def test_trajectory_u_at_reads_the_history_label_before_0(flow):
    from relaydyn.relay import evolve, oscillator_system

    system = oscillator_system(-0.1, -0.5, 4.2, 0.1)
    hist = BreakpointHistory(flow, 4.2, [0.3, 0.0], times=[-2.0], labels=[-1, 1])
    _, traj = evolve(system, HybridState(hist, -1), 1.0)
    assert traj.u_at(-1.0) == hist.label_at(-1.0) == 1
    assert traj.u_at([-3.0, -2.0, 0.0]) == [-1, 1, traj.segments[0].u]
    for bad in (-4.2 - 1e-6, traj.T + 1e-6, np.nan):
        with pytest.raises(ValueError, match="outside"):
            traj.u_at(bad)
    # a sampled history records no relay output
    _, traj = evolve(system, HybridState(SampledHistory.constant([0.3, 0.0], 4.2), 1), 1.0)
    assert traj.u_at(0.0) == traj.segments[0].u
    with pytest.raises(ValueError, match="outside"):
        traj.u_at(-1.0)


@pytest.mark.parametrize("last", [-1, 1], ids=["agrees", "overridden"])
def test_tail_history_cuts_the_label_timeline(flow, last):
    # switches at T - 9.6, T - 8.7 and T - 7.1 (so lo can land on them
    # exactly) and at 0, where the relay output evolve starts from is -1;
    # with last = 1 the history's label from 0 on gives way to it
    from relaydyn.relay import evolve, oscillator_system

    T = 6.0
    hist = BreakpointHistory(flow, 4.2, [0.3, -0.1], times=[T - 9.6, T - 8.7, T - 7.1, 0.0],
                             labels=[1, -1, 1, -1, last])
    _, traj = evolve(oscillator_system(-0.1, -0.5, 4.2, 0.1), HybridState(hist, -1), T)
    starts = [seg.t0 for seg in traj.segments]
    assert len(starts) > 2 and traj.segments[0].u == -1

    def label(t):  # read pointwise from the old state
        return hist.label_at(t) if t < 0.0 else traj.segments[bisect.bisect_right(starts, t) - 1].u

    seg_start = next(t for t in starts if T / 2 <= t < T)
    horizons = {"below 0": 8.0, "on a history switch": 8.7, "on a segment start": T - seg_start,
                "on 0": T}
    assert T - horizons["on a segment start"] == seg_start
    breaks = hist.times + starts
    rng = np.random.default_rng(5)
    for case, horizon in horizons.items():
        lo = T - horizon
        tail = traj.tail_history(horizon)
        assert isinstance(tail, BreakpointHistory) and tail.horizon == horizon, case
        assert all(a != b for a, b in zip(tail.labels, tail.labels[1:])), case
        ts = [lo] + [t for t in breaks if lo < t] + rng.uniform(lo, T, 200).tolist()
        assert [tail.label_at(t - T) for t in ts] == [label(t) for t in ts], case
        assert set(tail.times) <= {t - T for t in breaks}, case
        ss = np.array([t - T for t in ts])
        np.testing.assert_allclose(tail(ss), traj(T + ss), rtol=0, atol=1e-12, err_msg=case)
