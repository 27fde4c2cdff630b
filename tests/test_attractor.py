"""Attractor iteration, envelope sweeps, circle maps and polygon arcs."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from relaydyn import attractor, reduced
from relaydyn._roots import fused_dot, split_factor
from relaydyn.attractor import (extract_circle_map, iterate_attractor,
                                on_plus_image_manifold, polygon_arcs, sweep,
                                visit_window)
from relaydyn.cli import DEFAULTS
from relaydyn.errors import (CentroidOnCurve, DegenerateDerivative,
                             InsufficientSamples, LeftNeighborhood, NoConvergence,
                             NoRootInBracket, SingularSurface)
from relaydyn.oscillator import collision_point, surface_alpha
from relaydyn.reduced import branch_of, map_F, map_F_branch, oscillator_context

ZETA, EPS = -0.1, 0.1


def rotation_samples(omega, n=300, r=1.0, phase=0.3):
    phi = phase + omega * np.arange(n)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)


def test_circle_map_recovers_pure_rotation():
    omega = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0
    desc = extract_circle_map(rotation_samples(omega))
    assert desc.monotone
    assert desc.locking_period is None
    gaps = np.mod(desc.pairs[:, 1] - desc.pairs[:, 0], 2.0 * math.pi)
    target = math.fmod(omega, 2.0 * math.pi)
    # the sample mean sits O(1/n) off the true center, tilting each angle
    np.testing.assert_allclose(gaps, target, rtol=0, atol=2e-2)
    assert abs(float(gaps.mean()) - target) < 1e-4


def test_circle_map_detects_locking():
    # full cycles only: the centroid is then exactly the rotation center
    omega = 2.0 * math.pi * 3.0 / 7.0
    desc = extract_circle_map(rotation_samples(omega, n=294))
    assert desc.locking_period == 7
    assert desc.monotone
    gaps = np.mod(desc.pairs[:, 1] - desc.pairs[:, 0], 2.0 * math.pi)
    np.testing.assert_allclose(gaps, omega % (2.0 * math.pi), rtol=0, atol=1e-10)


def test_circle_map_rejects_centroid_on_curve():
    samples = rotation_samples(2.39996, n=299)
    samples = np.vstack([samples, samples.mean(axis=0)])
    with pytest.raises(CentroidOnCurve):
        extract_circle_map(samples)


def test_circle_map_needs_enough_samples():
    with pytest.raises(InsufficientSamples):
        extract_circle_map(rotation_samples(2.4, n=150))


def test_non_invertible_angle_dynamics_flagged():
    # fold the angle back and forth: strict circular order is violated
    rng = np.random.default_rng(1)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=400)
    nxt = np.mod(phi + 1.5 * np.sin(phi), 2.0 * math.pi)
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    desc = extract_circle_map(pts)
    # the raw samples are in random order, so the induced map is the
    # consecutive-pair graph; with folding it cannot stay monotone
    assert not desc.monotone or desc.locking_period is not None


@pytest.fixture(scope="module")
def fig_ctx():
    # polygon regime: tau = 4.25, alpha = -0.44 between SPC and ICC
    y_ref = collision_point(ZETA, 4.25)
    return oscillator_context(ZETA, -0.44, 4.25, EPS, y_ref)


def test_median_equals_numpy_median_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 4, 399, 400):
        for values in (rng.normal(size=n), np.abs(rng.normal(size=n)),
                       np.round(rng.normal(size=n), 1), np.full(n, 0.1)):
            want = np.float64(np.median(values))
            assert np.float64(attractor._median(values)).tobytes() == want.tobytes()
    assert attractor._median(np.array([1.7e308, 1.7e308, 0.0, 2e308])) == math.inf
    assert math.isnan(attractor._median(np.array([0.3, np.nan, 0.1])))
    assert np.isnan(np.median(np.array([0.3, np.nan, 0.1])))


def test_iterate_attractor_polygon_regime(fig_ctx):
    run = iterate_attractor(fig_ctx, fig_ctx.y_ref + np.array([1e-3, 0.0]))
    assert run.points.shape == (360, 2)
    assert run.visited_plus and run.visited_minus
    assert np.all(run.width > 1e-3)
    np.testing.assert_array_equal(run.final, run.points[-1])


def test_iterate_attractor_reports_escape(fig_ctx):
    with pytest.raises(LeftNeighborhood):
        iterate_attractor(fig_ctx, fig_ctx.y_ref + np.array([1e-3, 0.0]),
                          radius=1e-6)


def test_polygon_arcs_on_corner_attractor(fig_ctx):
    run = iterate_attractor(fig_ctx, fig_ctx.y_ref + np.array([1e-3, 0.0]),
                            n_total=600)
    desc = polygon_arcs(run.points, fig_ctx)
    assert desc.monotone
    assert desc.locking_period is None
    assert desc.corner_indices
    assert desc.arc_ids is not None and desc.arc_ids.size == 560
    assert 1 < desc.arc_count < 60
    # arc ids partition the angle-sorted samples into contiguous runs
    changes = np.flatnonzero(np.diff(desc.arc_ids) != 0).size
    assert changes == desc.arc_count - 1


def test_polygon_arcs_rejects_point_attractor(fig_ctx):
    pts = np.tile(fig_ctx.y_ref, (300, 1))
    with pytest.raises(InsufficientSamples):
        polygon_arcs(pts, fig_ctx)


def test_on_plus_image_manifold(fig_ctx):
    y = fig_ctx.y_ref - 5e-3 * fig_ctx.dh(fig_ctx.y_ref)
    w = map_F_branch(fig_ctx, y, +1)
    assert on_plus_image_manifold(fig_ctx, w)
    assert not on_plus_image_manifold(fig_ctx, w + np.array([1e-3, 1e-3]))


def test_sweep_envelopes_and_visit_window():
    alphas = np.linspace(-0.47, -0.42, 26)
    records = sweep(ZETA, 4.2, EPS, alphas)
    assert len(records) == 26
    assert not any(r.escaped for r in records)
    spc = surface_alpha(ZETA, 4.2, EPS)[0]
    for r in records:
        width = float(r.width[0])
        if r.alpha < spc - 1e-3:
            assert width < 1e-6  # point attractor below the collision
        if r.alpha > spc + 5e-3:
            assert width > 1e-4  # polygon regime has finite extent
    window = visit_window(records)
    assert window is not None
    lo, hi = window
    assert lo <= spc + 5e-3
    assert -0.445 < hi < -0.42  # D+ detachment near the ICC


def test_sweep_direction_hysteresis_is_negligible():
    # warm starts must not trap the orbit in a direction-dependent state.
    # Stop short of the torus birth near alpha = -0.4306: there the linear
    # decay rate vanishes and no fixed transient length settles the orbit.
    # Finite-orbit envelopes carry O(1/n) phase-sampling error, hence 5e-4.
    alphas = np.linspace(-0.47, -0.435, 15)
    up = sweep(ZETA, 4.2, EPS, alphas, n_transient=100, n_total=1600)
    down = sweep(ZETA, 4.2, EPS, alphas[::-1], n_transient=100, n_total=1600)
    for ru, rd in zip(up, reversed(down)):
        assert ru.alpha == rd.alpha
        assert np.max(np.abs(ru.env_min - rd.env_min)) < 5e-4
        assert np.max(np.abs(ru.env_max - rd.env_max)) < 5e-4


def test_sweep_records_escape_without_raising():
    # far above the polygon window the orbit leaves the corner neighborhood
    records = sweep(ZETA, 4.2, EPS, [-0.1], radius=0.05)
    assert len(records) == 1
    assert records[0].escaped
    assert np.isnan(records[0].env_min).all()
    assert visit_window(records) is None


@pytest.mark.parametrize("error", [NoRootInBracket, DegenerateDerivative, NoConvergence])
def test_crossing_failures_count_as_leaving(monkeypatch, fig_ctx, error):
    # every crossing-time failure of the map ends the run as an escape, so a
    # sweep records it instead of raising
    calls = []

    def failing(state):
        calls.append(state[:2])
        if len(calls) > 5:
            raise error("crossing-time failure")

    route_map_steps(monkeypatch, failing)
    with pytest.raises(LeftNeighborhood) as info:
        iterate_attractor(fig_ctx, fig_ctx.y_ref + np.array([1e-3, 0.0]))
    assert isinstance(info.value.__cause__, error)
    calls.clear()
    records = sweep(ZETA, 4.25, EPS, [-0.45, -0.44])
    assert [r.escaped for r in records] == [True, True]
    assert np.isnan(records[1].env_max).all()


def generic_sweep(zeta, tau, epsilon, alphas, n_transient, n_total, keep=32,
                  radius=attractor.DEFAULT_RADIUS):
    """Warm-started sweep over the generic map -Y_p^(tau + t(y)) y.

    The crossing time comes from the two-evaluation solve built on
    ``flow.apply`` and ``flow.velocity``; no escape happens on the grids
    this is used with.
    """
    from test_reduced import two_eval_crossing_time

    y_ref = collision_point(zeta, tau)
    y = y_ref + np.array([1e-3, 0.0])
    out = []
    for alpha in alphas:
        ctx = oscillator_context(zeta, float(alpha), tau, epsilon, y_ref)
        kept, flags = [], set()
        for k in range(n_total):
            b = -1 if ctx.h(y) >= epsilon else 1
            y = -ctx.flow.apply(y, 1, tau + two_eval_crossing_time(ctx, y, b))
            assert np.linalg.norm(y - y_ref) <= radius
            if k >= n_transient:
                kept.append(y)
                flags.add(-1 if ctx.h(y) >= epsilon else 1)
        pts = np.asarray(kept)
        out.append((pts.min(axis=0), pts.max(axis=0), 1 in flags, -1 in flags,
                    pts[-keep:]))
    return out


def test_sweep_equals_generic_map_loop():
    # from the point attractor through the collision into the polygon regime
    alphas = np.linspace(-0.47, -0.43, 5)
    records = sweep(ZETA, 4.2, EPS, alphas, n_transient=20, n_total=60)
    want = generic_sweep(ZETA, 4.2, EPS, alphas, n_transient=20, n_total=60)
    assert any(r.visited_plus for r in records)
    for r, (lo, hi, plus, minus, sample) in zip(records, want, strict=True):
        assert not r.escaped and not r.retried
        assert np.array_equal(r.env_min, lo)
        assert np.array_equal(r.env_max, hi)
        assert (r.visited_plus, r.visited_minus) == (plus, minus)
        assert np.array_equal(r.sample, sample)


def test_sweep_equals_generic_map_loop_where_orbits_lock():
    # the default grid's alpha <= -0.475, where warm-started orbits repeat a
    # float state within 60 maps and the rest of each window is copied
    config = DEFAULTS["sweep"]
    grid = np.linspace(*config["alpha_range"], config["n_alpha"])
    alphas = grid[grid <= -0.475]
    records = sweep(ZETA, 4.2, EPS, alphas, keep=360)
    want = generic_sweep(ZETA, 4.2, EPS, alphas, 40, 400, keep=360)
    assert len(records) == 26
    for r, (lo, hi, plus, minus, sample) in zip(records, want, strict=True):
        assert not r.escaped and not r.retried
        assert np.array_equal(r.env_min, lo)
        assert np.array_equal(r.env_max, hi)
        assert (r.visited_plus, r.visited_minus) == (plus, minus)
        assert np.array_equal(r.sample, sample)


@pytest.fixture
def locking_ctx():
    # below the collision the attractor is a fixed point in D+, and from the
    # default seed its float iterates first repeat a state at iterate 58,
    # five maps after its first visit
    return oscillator_context(ZETA, -0.5, 4.2, EPS, collision_point(ZETA, 4.2))


def route_map_steps(monkeypatch, on_step):
    """Pass every state sent to a crossing kernel's map steps, (x, x', h, u),
    to ``on_step`` before the kernel maps it."""
    real = reduced.CrossingKernel.map_steps

    def map_steps(kernel, tau):
        send = real(kernel, tau).send

        def routed(state):
            on_step(state)
            return send(state)

        return SimpleNamespace(send=routed)

    monkeypatch.setattr(reduced.CrossingKernel, "map_steps", map_steps)


@pytest.fixture
def steps(monkeypatch):
    """The branch of every map step, one kernel call each."""
    calls = []
    route_map_steps(monkeypatch, lambda state: calls.append(state[3]))
    return calls


def test_iterate_attractor_stops_at_the_first_float_cycle(locking_ctx, steps):
    y0 = locking_ctx.y_ref + np.array([1e-3, 0.0])
    points, _, _ = map_F_iterates(locking_ctx, y0, 0, 400)
    first = {}
    for k, y in enumerate(map(tuple, points.tolist())):
        if y in first:
            break
        first[y] = k
    assert (k, k - first[y]) == (58, 5)
    assert_equals_map_F_loop(locking_ctx, y0)
    steps.clear()
    assert iterate_attractor(locking_ctx, y0).period == 5
    # the checkpoint at iterate 62 meets its copy five maps later
    assert len(steps) == 68


def test_iterate_attractor_copies_a_cycle_closed_before_the_window(locking_ctx, steps):
    # the window holds copies only, and so do its flags
    y0 = locking_ctx.y_ref + np.array([1e-3, 0.0])
    run = assert_equals_map_F_loop(locking_ctx, y0, 200, 400)
    assert run.points.shape == (200, 2)
    steps.clear()
    assert iterate_attractor(locking_ctx, y0, 200, 400).period == 5
    assert len(steps) == 68


def cycle_context(states, eps):
    """A context whose map sends each state to the next, cyclically.

    The map tells states apart by their bits, the sign of zero included;
    h = x, so a state is in D+ where x < eps.
    """
    keys = [(math.copysign(1.0, x), x, xdot) for x, xdot in states]

    def step(state):
        x, xdot, h, u = state
        nx, nxdot = states[(keys.index((math.copysign(1.0, x), x, xdot)) + 1) % len(states)]
        return nx, nxdot, nx

    return SimpleNamespace(
        crossing_kernel=SimpleNamespace(map_steps=lambda tau: SimpleNamespace(send=step),
                                        dot=lambda x, xdot: x),
        epsilon=eps, tau=1.0, y_ref=np.array([0.0, 0.1]))


@pytest.mark.parametrize("c_x, period", [(0.03, 4), (-0.0, 0)])
def test_iterate_attractor_copies_only_exact_repeats(c_x, period):
    # the cycle D -> A -> B -> C -> D from D, with A = (+0, v) the checkpoint
    # at iterate 0; with C = (-0, v), C compares equal to A at iterate 2 but
    # is another state, so taking it for A would report period 2 and copy a
    # wrong window
    v = 0.1
    states = [(0.02, v), (0.0, v), (0.01, v), (c_x, v)]
    for n_transient in (0, 30):
        run = iterate_attractor(cycle_context(states, 0.015), states[0], n_transient, 40)
        assert run.period == period
        want = np.array([states[(k + 1) % 4] for k in range(n_transient, 40)])
        assert np.array_equal(np.signbit(run.points), np.signbit(want))
        assert np.array_equal(run.points, want)
        assert run.visited_plus and run.visited_minus


def test_sweep_at_the_defaults_skips_the_maps_of_locked_orbits(steps):
    # 121 x 400 = 48,400 maps without the cycle shortcut; 39,737 with it
    config = DEFAULTS["sweep"]
    alphas = np.linspace(*config["alpha_range"], config["n_alpha"])
    records = sweep(config["zeta"], config["tau"], config["epsilon"], alphas,
                    warm_start=config["warm_start"], n_transient=config["n_transient"],
                    n_total=config["n_total"])
    assert not any(r.escaped or r.retried for r in records)
    assert len(steps) <= 40_500


def sweep_digest(records):
    """sha256 of every field of a sweep's records."""
    from test_reduced import pin_digest

    return pin_digest(value for r in records for value in (
        r.alpha, r.env_min, r.env_max, r.visited_plus, r.visited_minus, r.sample,
        r.escaped, r.retried))


@pytest.mark.parametrize("alphas, flags, digest", [
    (np.linspace(-0.15, -0.07, 5), ["", "ER", "E", "", ""],
     "c02b18da49e636b05edeadafe4ac02c6008717c72a0d1cd86bce6640cd8d401d"),
    # the same range shifted by 2e-3, as the bench's nonzero seeds shift it
    (np.linspace(-0.148, -0.068, 5), ["", "ER", "E", "", ""],
     "10ced17c778e024cca172adbb5a481b4f456b3bf16f5193d9d1511153ccb44b8"),
    ([-0.15, -0.08], ["", "R"],
     "325f8bf810911b04905e70228b9fa2f61b299c3a8393f539cc9d660783a986bc"),
], ids=["range", "shifted", "retry-holds"])
def test_sweep_past_tau_4_6_keeps_its_escapes_and_retries(alphas, flags, digest):
    # at tau = 4.65 a warm start from alpha = -0.15 loses the crossing; the
    # default seed then escapes too (E) or holds (R), and each escaped value
    # sends the next one back to the default seed; the default pins reach
    # none of this
    records = sweep(ZETA, 4.65, EPS, alphas)
    assert [("E" if r.escaped else "") + ("R" if r.retried else "")
            for r in records] == flags
    assert sweep_digest(records) == digest


@pytest.mark.parametrize("n_transient, n_total", [
    (True, 400), (40.5, 400), (40, 400.0), (np.float64(40), 400), (40, np.bool_(True)),
    (40, "400")])
def test_iterate_attractor_refuses_a_count_not_an_integer(fig_ctx, n_transient, n_total):
    # True used to keep 399 points, 40.5 kept 359, and a float n_total
    # raised a bare TypeError from range
    with pytest.raises(ValueError, match="integer"):
        iterate_attractor(fig_ctx, fig_ctx.y_ref + np.array([1e-3, 0.0]),
                          n_transient, n_total)


def test_iterate_attractor_takes_numpy_integer_counts(fig_ctx):
    y0 = fig_ctx.y_ref + np.array([1e-3, 0.0])
    run = iterate_attractor(fig_ctx, y0, np.int64(40), np.int32(100))
    assert np.array_equal(run.points, iterate_attractor(fig_ctx, y0, 40, 100).points)


@pytest.mark.parametrize("bad", [
    {"alphas": [-0.45, math.nan]}, {"alphas": [math.inf]}, {"alphas": [-math.inf, -0.45]},
    {"tau": math.nan}, {"tau": math.inf}, {"epsilon": math.inf}, {"epsilon": math.nan},
    {"zeta": math.nan}])
def test_sweep_refuses_non_finite_parameters(iterate_calls, bad):
    # before, a NaN alpha was recorded as escaped, an infinite one raised a
    # math domain error, eps = inf gave a NaN envelope and a non-finite tau
    # failed in the surface corner's SVD
    args = {"zeta": ZETA, "tau": 4.2, "epsilon": EPS, "alphas": [-0.45], **bad}
    with pytest.raises(ValueError, match="finite"):
        sweep(**args)
    assert iterate_calls == []


@pytest.fixture
def iterate_calls(monkeypatch):
    calls = []
    real = attractor.iterate_attractor

    def counting(ctx, y0, *args):
        calls.append(np.array(y0))
        return real(ctx, y0, *args)

    monkeypatch.setattr(attractor, "iterate_attractor", counting)
    return calls


def test_sweep_does_not_rerun_the_default_seed(iterate_calls):
    # the iteration is deterministic, so the default seed escapes again
    records = sweep(ZETA, 4.2, EPS, [-0.1], radius=0.05)
    assert len(iterate_calls) == 1
    assert records[0].escaped and not records[0].retried
    iterate_calls.clear()
    records = sweep(ZETA, 4.2, EPS, [-0.1, -0.1], radius=0.05, warm_start=False)
    assert len(iterate_calls) == 2
    assert [(r.escaped, r.retried) for r in records] == [(True, False)] * 2


def test_sweep_marks_retried_warm_starts(iterate_calls):
    y_ref = collision_point(ZETA, 4.2)
    far = y_ref + np.array([4.0, 0.0])  # beyond DEFAULT_RADIUS
    records = sweep(ZETA, 4.2, EPS, [-0.45, -0.44], y0=far)
    # the far start leaves, the default seed holds, and its attractor warm
    # starts the next value
    assert len(iterate_calls) == 3
    np.testing.assert_array_equal(iterate_calls[1], y_ref + np.array([1e-3, 0.0]))
    assert [(r.escaped, r.retried) for r in records] == [(False, True), (False, False)]
    iterate_calls.clear()
    records = sweep(ZETA, 4.2, EPS, [-0.1], y0=far, radius=0.05)
    assert len(iterate_calls) == 2
    np.testing.assert_array_equal(iterate_calls[0], far)
    assert records[0].escaped and records[0].retried


def map_F_iterates(ctx, y0, n_transient=40, n_total=400, radius=attractor.DEFAULT_RADIUS):
    """iterate_attractor written on map_F and array arithmetic: the oracle
    of its float loop, raising the same LeftNeighborhood at the same k.
    An iterate escapes where its squared distance to the corner exceeds
    radius**2."""
    y = np.asarray(y0, dtype=float)
    kept, plus, minus = [], False, False
    for k in range(n_total):
        try:
            y = map_F(ctx, y)
        except (NoRootInBracket, DegenerateDerivative, NoConvergence) as exc:
            raise LeftNeighborhood(
                f"iterate {k} lost the threshold crossing: {exc}") from exc
        d = y - ctx.y_ref
        if d[0] * d[0] + d[1] * d[1] > radius * radius:
            raise LeftNeighborhood(f"iterate {k} left the working neighborhood")
        if k >= n_transient:
            kept.append(y)
            plus |= branch_of(ctx, y) > 0
            minus |= branch_of(ctx, y) < 0
    return np.asarray(kept), plus, minus


def assert_equals_map_F_loop(ctx, y0, *args):
    points, plus, minus = map_F_iterates(ctx, y0, *args)
    run = iterate_attractor(ctx, y0, *args)
    assert np.array_equal(run.points, points)
    assert np.array_equal(run.final, points[-1])
    assert np.array_equal(run.env_min, points.min(axis=0))
    assert np.array_equal(run.env_max, points.max(axis=0))
    assert (run.visited_plus, run.visited_minus) == (plus, minus)
    return run


def test_iterate_attractor_equals_map_F_loop_from_both_branches(fig_ctx):
    # 2e-3 either side of the threshold line, along its unit normal
    normal = fig_ctx.dh(fig_ctx.y_ref)
    shift = fig_ctx.epsilon - fig_ctx.h(fig_ctx.y_ref)
    starts = {b: fig_ctx.y_ref + (shift - b * 2e-3) * normal for b in (1, -1)}
    for b, y0 in starts.items():
        assert branch_of(fig_ctx, y0) == b
        run = assert_equals_map_F_loop(fig_ctx, y0, 0, 120)
        assert run.points.shape == (120, 2)


def test_iterate_attractor_flags_the_sample_itself(fig_ctx):
    # one-sample windows: each flag must come from the kept iterate, not
    # from the threshold read that chose its branch
    y0 = fig_ctx.y_ref + np.array([1e-3, 0.0])
    flags = {(run.visited_plus, run.visited_minus)
             for run in (assert_equals_map_F_loop(fig_ctx, y0, n - 1, n)
                         for n in range(1, 41))}
    assert flags == {(True, False), (False, True)}


def test_iterate_attractor_equals_map_F_loop_on_default_polygon():
    config = DEFAULTS["polygon"]
    y_ref = collision_point(config["zeta"], config["tau"])
    ctx = oscillator_context(config["zeta"], config["alpha"], config["tau"],
                             config["epsilon"], y_ref)
    run = assert_equals_map_F_loop(ctx, y_ref + np.array([1e-3, 0.0]),
                                   config["n_transient"], config["n_total"])
    assert run.visited_plus and run.visited_minus


@pytest.mark.parametrize("radius, k, cause", [
    (0.05, 0, None),              # the first image is already outside
    (1.0, 1, None),               # a later image leaves
    (3.0, 3, NoRootInBracket),    # the path misses the threshold
])
def test_iterate_attractor_escapes_where_the_map_F_loop_does(radius, k, cause):
    # far above the polygon window, where the orbit leaves the corner
    y_ref = collision_point(ZETA, 4.2)
    ctx = oscillator_context(ZETA, -0.1, 4.2, EPS, y_ref)
    y0 = y_ref + np.array([1e-3, 0.0])
    with pytest.raises(LeftNeighborhood) as want:
        map_F_iterates(ctx, y0, radius=radius)
    with pytest.raises(LeftNeighborhood) as got:
        iterate_attractor(ctx, y0, radius=radius)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"iterate {k} ")
    assert type(got.value.__cause__) is type(want.value.__cause__)
    assert isinstance(got.value.__cause__, cause or type(None))


def test_iterate_attractor_escapes_at_the_radius_edge(fig_ctx):
    # the least radius whose square reaches the first image's squared
    # distance keeps it and the next float below loses it, as in the map_F loop
    rng = np.random.default_rng(47)
    for y0 in fig_ctx.y_ref + rng.normal(scale=1e-2, size=(40, 2)):
        d = map_F(fig_ctx, y0) - fig_ctx.y_ref
        s = float(d[0] * d[0] + d[1] * d[1])
        radius = math.sqrt(s)
        while radius * radius < s:
            radius = math.nextafter(radius, math.inf)
        while math.nextafter(radius, 0.0) ** 2 >= s:
            radius = math.nextafter(radius, 0.0)
        assert_equals_map_F_loop(fig_ctx, y0, 0, 1, radius)
        below = math.nextafter(radius, 0.0)
        with pytest.raises(LeftNeighborhood) as want:
            map_F_iterates(fig_ctx, y0, 0, 1, below)
        with pytest.raises(LeftNeighborhood) as got:
            iterate_attractor(fig_ctx, y0, 0, 1, below)
        assert str(got.value) == str(want.value) == "iterate 0 left the working neighborhood"


def test_iterate_attractor_takes_few_exact_sums(monkeypatch):
    # the float filters leave math.fsum to the dot products that set a bit:
    # about 5.9 per map at polygon's defaults, 8.9 with every dot exact
    config = DEFAULTS["polygon"]
    y_ref = collision_point(config["zeta"], config["tau"])
    ctx = oscillator_context(config["zeta"], config["alpha"], config["tau"],
                             config["epsilon"], y_ref)
    calls, fsum = [], math.fsum

    def counting(terms):
        calls.append(None)
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", counting)
    iterate_attractor(ctx, y_ref + np.array([1e-3, 0.0]),
                      config["n_transient"], config["n_total"])
    assert len(calls) <= 6.0 * config["n_total"]


def test_float_loop_rests_on_equal_dot_products():
    # the loop reads h with the crossing kernel's fused_dot on floats, where
    # map_F reads c @ y; both must round alike on every default sweep iterate
    config = DEFAULTS["sweep"]
    alphas = np.linspace(*config["alpha_range"], config["n_alpha"])
    records = sweep(config["zeta"], config["tau"], config["epsilon"], alphas,
                    keep=config["n_total"])
    checked = 0
    for r in records:
        c = np.array([math.cos(r.alpha), math.sin(r.alpha)])
        c_split = split_factor(float(c[1]))
        for y in r.sample:
            assert float(c @ y) == fused_dot(float(c[0]), c_split, *y.tolist())
            checked += 1
    assert checked == 121 * 360


def test_iterate_attractor_solves_one_crossing_per_map(monkeypatch, fig_ctx, steps):
    from relaydyn.flows import AffineOscillatorFlow

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((reduced, "map_F"), (reduced, "map_F_branch"),
                         (reduced, "branch_of"), (attractor, "branch_of")):
        monkeypatch.setattr(module, name, forbidden(name))
    monkeypatch.setattr(AffineOscillatorFlow, "apply", forbidden("flow.apply"))
    # the kernel's Newton loop and image evaluate the flow inline
    monkeypatch.setattr(AffineOscillatorFlow, "_advance", forbidden("flow._advance"))
    run = iterate_attractor(fig_ctx, fig_ctx.y_ref + np.array([1e-3, 0.0]), 40, 250)
    assert len(steps) == 250
    assert set(steps) == {1, -1}
    assert run.points.shape == (210, 2)
    assert run.period == 0  # the polygon orbit never repeats a state


@pytest.mark.parametrize("y0", [[0.1, 0.2, 0.3], [[0.1, 0.2]], [0.1]])
def test_iterate_attractor_refuses_a_state_not_of_shape_2(fig_ctx, y0):
    with pytest.raises(ValueError, match="shape"):
        iterate_attractor(fig_ctx, y0)


@pytest.mark.parametrize("y0", [[math.nan, 0.0], [math.inf, 0.0], [0.1, math.nan],
                                [0.1, -math.inf]])
def test_iterate_attractor_and_sweep_refuse_a_non_finite_state(fig_ctx, iterate_calls, y0):
    # a NaN or infinite seed used to run into the crossing solve, and sweep
    # then quietly retried from the default seed
    with pytest.raises(ValueError, match="finite"):
        iterate_attractor(fig_ctx, y0)
    iterate_calls.clear()
    with pytest.raises(ValueError, match="finite"):
        sweep(ZETA, 4.2, EPS, [-0.45], y0=y0)
    assert iterate_calls == []


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_iterate_attractor_refuses_a_non_positive_radius(fig_ctx, radius):
    with pytest.raises(ValueError, match="radius"):
        iterate_attractor(fig_ctx, fig_ctx.y_ref + np.array([1e-3, 0.0]),
                          radius=radius)


def test_sweep_keep_zero_gives_no_sample_and_negative_keep_raises(iterate_calls):
    records = sweep(ZETA, 4.2, EPS, [-0.45], keep=0)
    assert records[0].sample.shape == (0, 2)
    assert not records[0].escaped
    records = sweep(ZETA, 4.2, EPS, [-0.45], keep=3)
    assert records[0].sample.shape == (3, 2)
    iterate_calls.clear()
    with pytest.raises(ValueError, match="keep"):
        sweep(ZETA, 4.2, EPS, [-0.45], keep=-3)
    assert iterate_calls == []


@pytest.mark.parametrize("keep", [True, 2.5, np.float64(3.0)])
def test_sweep_refuses_a_keep_not_an_integer(iterate_calls, keep):
    # True used to return a one-point sample, and 2.5 raised a bare TypeError
    # from the sample slice after the whole alpha loop had run
    with pytest.raises(ValueError, match="keep must be a non-negative integer"):
        sweep(ZETA, 4.2, EPS, [-0.45, -0.44], keep=keep)
    assert iterate_calls == []


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_sweep_takes_a_numpy_integer_keep(integer):
    want = sweep(ZETA, 4.2, EPS, [-0.45], keep=3)
    got = sweep(ZETA, 4.2, EPS, [-0.45], keep=integer(3))
    assert np.array_equal(got[0].sample, want[0].sample)


def test_sweep_refuses_a_delay_below_pi(iterate_calls):
    # below pi the corner sits on the -eps line, which is not modelled
    with pytest.raises(SingularSurface):
        sweep(ZETA, 3.0, EPS, np.linspace(-1.5, 1.5, 5))
    assert iterate_calls == []
