"""Reduced half-return map: crossing times, branches, Jacobians, lifting."""

import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from relaydyn import reduced
from relaydyn.attractor import iterate_attractor
from relaydyn.errors import (DegenerateDerivative, LeftNeighborhood, NoRootInBracket,
                             RelayDynError)
from relaydyn.history import BreakpointHistory, HybridState
from relaydyn.oscillator import (collision_context, collision_orbit, surface_alpha,
                                 surface_corner)
from relaydyn.reduced import (DomainTag, branch_of, classify, crossing_time,
                              jacobian_F, jacobian_F_branch, map_F,
                              map_F_branch, oscillator_context,
                              reconstruct_history)
from relaydyn.relay import evolve, oscillator_system

ZETA, TAU, EPS = -0.1, 4.2, 0.1


@pytest.fixture(scope="module")
def ctx():
    alpha = surface_alpha(ZETA, TAU, EPS)[0]
    return collision_context(collision_orbit(ZETA, TAU, alpha))


def scan_crossing_oracle(ctx, y, branch, n=20001):
    """Crossing offset by dense scan plus interval halving; no Newton."""

    def g(t):
        return ctx.h(ctx.flow.apply(y, branch, t)) - ctx.epsilon

    ts = np.linspace(-ctx.delta, ctx.delta, n)
    vals = np.array([g(t) for t in ts])
    hits = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    assert hits.size >= 1
    lo, hi = ts[hits[0]], ts[hits[0] + 1]
    flo = vals[hits[0]]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if flo * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_crossing_time_matches_scan_oracle(ctx):
    rng = np.random.default_rng(5)
    for _ in range(25):
        y = ctx.y_ref + rng.normal(scale=5e-3, size=2)
        b = branch_of(ctx, y)
        t = crossing_time(ctx, y, b)
        assert abs(t - scan_crossing_oracle(ctx, y, b)) < 1e-10
        # the defining equation itself
        z = ctx.flow.apply(y, b, t)
        assert abs(ctx.h(z) - ctx.epsilon) < 1e-12


def test_crossing_time_fails_cleanly_far_from_threshold(ctx):
    # near the focus the signal stays inside the band for the whole bracket
    with pytest.raises(NoRootInBracket):
        crossing_time(ctx, np.array([1.0, 0.0]), 1)


def test_corner_is_fixed_point(ctx):
    y = ctx.y_ref
    assert np.linalg.norm(map_F(ctx, y) - y) < 1e-12
    assert branch_of(ctx, y) == -1  # the threshold counts as crossed
    assert classify(ctx, y, tol=1e-12) is DomainTag.BOUNDARY


def test_branch_selection_rule(ctx):
    c = np.array([ctx.dh(ctx.y_ref)]).ravel()
    inside = ctx.y_ref - 1e-4 * c
    outside = ctx.y_ref + 1e-4 * c
    assert branch_of(ctx, inside) == 1
    assert branch_of(ctx, outside) == -1
    assert classify(ctx, inside) is DomainTag.PLUS
    assert classify(ctx, outside) is DomainTag.MINUS


def test_plus_branch_jacobian_is_rank_one(ctx):
    y = ctx.y_ref - 1e-3 * ctx.dh(ctx.y_ref)
    J = jacobian_F_branch(ctx, y, +1)
    assert abs(np.linalg.det(J)) < 1e-10
    assert np.linalg.matrix_rank(J, tol=1e-8) == 1


def central_diff_jacobian(fn, y, h=1e-6):
    J = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        J[:, j] = (fn(y + e) - fn(y - e)) / (2.0 * h)
    return J


def test_branch_jacobians_match_central_differences(ctx):
    rng = np.random.default_rng(9)
    for branch in (-1, +1):
        for _ in range(8):
            y = ctx.y_ref + rng.normal(scale=4e-3, size=2)
            J = jacobian_F_branch(ctx, y, branch)
            fd = central_diff_jacobian(lambda z: map_F_branch(ctx, z, branch), y)
            rel = np.max(np.abs(J - fd)) / max(np.max(np.abs(J)), 1.0)
            assert rel < 1e-7
    y = ctx.y_ref + np.array([1e-3, -2e-3])
    np.testing.assert_allclose(jacobian_F(ctx, y),
                               jacobian_F_branch(ctx, y, branch_of(ctx, y)))


def test_branches_coincide_across_line_for_vertical_threshold():
    # alpha = 0: the input jump is parallel to the threshold line, so the
    # rank-one corrections match and the map is C^1 across the line; for
    # any other alpha the one-sided linearizations genuinely disagree there
    from relaydyn.oscillator import collision_point
    y_ref = collision_point(ZETA, TAU)
    eps = float(y_ref[0])  # on-surface eps at alpha = 0 is h(y*) = x*
    ctx0 = oscillator_context(ZETA, 0.0, TAU, eps, y_ref)
    rng = np.random.default_rng(13)
    for _ in range(10):
        y = np.array([eps, y_ref[1] + rng.normal(scale=4e-3)])  # on the line
        fp = map_F_branch(ctx0, y, +1)
        fm = map_F_branch(ctx0, y, -1)
        assert np.max(np.abs(fp - fm)) < 1e-10
        jp = jacobian_F_branch(ctx0, y, +1)
        jm = jacobian_F_branch(ctx0, y, -1)
        assert np.max(np.abs(jp - jm)) < 1e-10
    alpha = surface_alpha(ZETA, TAU, EPS)[0]
    ctx = collision_context(collision_orbit(ZETA, TAU, alpha))
    gap = np.max(np.abs(jacobian_F_branch(ctx, ctx.y_ref, +1)
                        - jacobian_F_branch(ctx, ctx.y_ref, -1)))
    assert gap > 1e-2  # a genuine corner away from alpha = 0


def test_reconstruct_history_lifts_map_points(ctx):
    # the lifted state must evolve into switch points -F(y), F(F(y)), ...
    alpha = surface_alpha(ZETA, TAU, EPS)[0]
    system = oscillator_system(ZETA, alpha, TAU, ctx.epsilon)
    y0 = ctx.y_ref + np.array([-1.5e-3, 2e-3])
    state = reconstruct_history(ctx, y0)
    assert state.u == 1
    # the single label change sits exactly at the lifted switch point
    np.testing.assert_allclose(state.history(-ctx.delta), y0, atol=1e-12)
    _, traj = evolve(system, state, 3.2 * TAU)
    pts = traj.switch_points()
    assert pts.shape[0] >= 3
    expected, sign = y0.copy(), 1
    for k in range(3):
        expected = map_F(ctx, expected)
        sign = -sign
        np.testing.assert_allclose(pts[k], sign * expected, rtol=0, atol=1e-8)


@pytest.mark.parametrize("tau, alpha", [(4.3, -0.56), (4.25, -0.6), (4.45, -0.4)])
def test_reconstruct_history_lifts_chaotic_attractors(tau, alpha):
    # sweep's 0.45 tau window past the torus collision, where the map is
    # chaotic: every 10th sample of the attractor lifts, and the delayed
    # system's first 19 switch points follow the map's iterates
    ctx = wide_context(alpha, tau)
    run = iterate_attractor(ctx, ctx.y_ref + np.array([1e-3, 0.0]), 1000, 1360, radius=3.0)
    assert run.period == 0 and run.visited_plus and run.visited_minus
    system = oscillator_system(ZETA, alpha, tau, EPS)
    for y0 in run.points[::10]:
        _, traj = evolve(system, reconstruct_history(ctx, y0), 20.0 * tau)
        pts = traj.switch_points()
        assert pts.shape[0] >= 19
        expected = y0
        for k, pt in enumerate(pts):
            expected = map_F(ctx, expected)
            np.testing.assert_allclose(pt, (-1) ** (k + 1) * expected, rtol=0, atol=1e-11)


def test_reconstruct_history_refuses_a_crossing_more_than_one_delay_back(ctx):
    # with a 0.95 tau window the crossing at -delta + t(y) can lie more than
    # one delay back; the next switch then falls before the head, and the
    # history, which holds only the switch at -delta, would lose it
    alpha = surface_alpha(ZETA, TAU, EPS)[0]
    delta = 0.95 * TAU
    wide = oscillator_context(ZETA, alpha, TAU, EPS, ctx.y_ref, delta=delta)
    system = oscillator_system(ZETA, alpha, TAU, EPS)
    lifted = refused = 0
    rng = np.random.default_rng(1)
    for y in ctx.y_ref + rng.normal(scale=0.5, size=(300, 2)):
        t = outcome(crossing_time, wide, y, branch_of(wide, y))
        if isinstance(t, type):
            continue
        try:
            state = reconstruct_history(wide, y)
        except ValueError:
            assert t - delta < -TAU
            refused += 1
            # the unchecked lift evolves into another first switch
            unchecked = BreakpointHistory(wide.flow, TAU, wide.flow.apply(y, -1, delta - TAU),
                                          times=[-delta], labels=[-1, 1])
            _, traj = evolve(system, HybridState(unchecked, 1), 1.05 * TAU)
            pts = traj.switch_points()
            assert pts.shape[0] == 0 or np.max(np.abs(pts[0] + map_F(wide, y))) > 1e-8
            continue
        _, traj = evolve(system, state, 1.05 * TAU)
        np.testing.assert_allclose(traj.switch_points()[0], -map_F(wide, y), rtol=0, atol=1e-8)
        lifted += 1
    assert lifted > 0 and refused > 0


def test_context_validation():
    with pytest.raises(ValueError):
        oscillator_context(ZETA, 0.0, TAU, -0.1, np.zeros(2))
    with pytest.raises(ValueError):
        oscillator_context(ZETA, 0.0, TAU, EPS, np.zeros(2), delta=2.0 * TAU)


# ---------------------------------------------------------------------------
# the shared bracketed Newton against the two-evaluation solves it replaced


def two_eval_crossing_time(ctx, y, branch):
    """Crossing solve with separate value and slope flow evaluations.

    The residual floor is 1e-13, or 32 machine epsilons of max|y| where that
    is larger (beyond |y| = 14).
    """
    y = np.asarray(y, dtype=float)
    flow, eps, delta = ctx.flow, ctx.epsilon, ctx.delta
    tol = max(1e-13, 32.0 * np.finfo(float).eps * float(np.max(np.abs(y))))

    def g(t):
        return float(ctx.h(flow.apply(y, branch, t))) - eps

    def dg(t):
        z = flow.apply(y, branch, t)
        return float(ctx.dh(z) @ flow.velocity(z, branch))

    t = 0.0
    for _ in range(30):
        r = g(t)
        if abs(r) < tol:
            if -delta < t < delta:
                if abs(dg(t)) < 1e-8:
                    raise DegenerateDerivative("tangent")
                return t
            break
        d = dg(t)
        if d == 0.0 or abs(t) > delta:
            break
        t -= r / d
    ga, gb = g(-delta), g(delta)
    if ga == 0.0:
        return -delta
    if gb == 0.0:
        return delta
    if ga * gb > 0.0:
        raise NoRootInBracket("no crossing")
    t = float(brentq(g, -delta, delta, xtol=1e-15, rtol=8.9e-16))
    if abs(dg(t)) < 1e-8:
        raise DegenerateDerivative("tangent")
    return t


def outcome(fn, *args):
    """Return value, or the error type when the solve refuses."""
    try:
        return fn(*args)
    except RelayDynError as exc:
        return type(exc)


@pytest.fixture
def brentq_calls(monkeypatch):
    calls = []
    solve = reduced.brentq

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(reduced, "brentq", counting)
    return calls


def test_shared_newton_equals_two_eval_solves_near_corner(ctx, brentq_calls):
    rng = np.random.default_rng(31)
    for y in ctx.y_ref + rng.normal(scale=5e-3, size=(200, 2)):
        for branch in (1, -1):
            want = two_eval_crossing_time(ctx, y, branch)
            assert crossing_time(ctx, y, branch) == want
    assert brentq_calls == []  # Newton converges on every point this close


def rare_path_states(ctx):
    """States that reach the crossing solves' rare paths.

    x' = 0 and a subnormal x' put c1 x' outside :func:`fused_dot`'s exact
    range.  The others have |y| >= 14, where the crossing solve's residual
    floor is 32 machine epsilons of |y| rather than 1e-13: states on the
    threshold line and next to it, and the pull-back by delta of states on
    the line through Y_+^delta y_ref across the reference velocity
    f(y_ref, +1).
    """
    c, flow, delta = ctx.c, ctx.flow, ctx.delta
    along = np.array([-c[1], c[0]])
    f2 = flow.velocity(ctx.y_ref, 1)
    y_sec = flow.apply(ctx.y_ref, 1, delta)
    across = np.array([-f2[1], f2[0]]) / np.hypot(*f2)
    states = [np.array([ctx.y_ref[0], xdot]) for xdot in (0.0, 5e-324, -1e-310)]
    for s in (20.0, -25.0, 30.0, -45.0, 100.0, 1e3):
        states += [(ctx.epsilon + r) * c + s * along for r in (0.0, 1e-3, -2e-3, 0.05)]
        states.append(flow.apply(y_sec + s * across, 1, -delta))
    assert min(np.max(np.abs(y)) for y in states[3:]) >= 14.0
    return states


def test_shared_newton_equals_two_eval_solves_far_out(ctx, brentq_calls):
    # at this spread some solves fall back to bisection and some find no root
    rng = np.random.default_rng(32)
    kinds = set()
    for y in [*(ctx.y_ref + rng.normal(scale=0.3, size=(100, 2))), *rare_path_states(ctx)]:
        for branch in (1, -1):
            got = outcome(crossing_time, ctx, y, branch)
            assert got == outcome(two_eval_crossing_time, ctx, y, branch)
            kinds.add(got if isinstance(got, type) else float)
    assert kinds == {float, NoRootInBracket}
    assert len(brentq_calls) > 0


def test_shared_newton_bisection_fallback(ctx, brentq_calls):
    y = np.array([1.622538752405961, 0.9319829647795249])
    t = crossing_time(ctx, y, -1)
    assert brentq_calls == [(-ctx.delta, ctx.delta)]
    assert t == two_eval_crossing_time(ctx, y, -1)
    assert abs(ctx.h(ctx.flow.apply(y, -1, t)) - ctx.epsilon) < 1e-12


def test_shared_newton_no_root(ctx, brentq_calls):
    far = np.array([1.0, 0.0])
    with pytest.raises(NoRootInBracket):
        crossing_time(ctx, far, 1)
    with pytest.raises(NoRootInBracket):
        two_eval_crossing_time(ctx, far, 1)
    assert brentq_calls == []


def test_newton_step_out_of_the_box_ends_in_the_bracket_search(ctx):
    # with a 0.45 tau window, the first state's slope c . f(y, +1) at t = 0
    # is -1e-5, so Newton's first step on branch +1 lands at t ~ 6.9e4,
    # where math.exp overflows; an iterate outside the box must go to the
    # bracket search unevaluated, so every solve of the seed-32 scan returns
    # a root on its signal inside its window or refuses documentedly
    delta = 0.45 * TAU
    wide = oscillator_context(ZETA, surface_alpha(ZETA, TAU, EPS)[0], TAU, EPS,
                              ctx.y_ref, delta=delta)
    flow, (c0, c1) = wide.flow, wide.c
    x = ctx.y_ref[0] + 0.05
    steep = np.array([x, (-1e-5 + c1 * flow._omsq * (x - 1.0)) / (c0 - 2.0 * ZETA * c1)])
    slope = float(wide.c @ flow.velocity(steep, 1))
    assert slope == pytest.approx(-1e-5, rel=1e-9)
    assert -(wide.h(steep) - EPS) / slope > 6e4
    with pytest.raises(NoRootInBracket):
        crossing_time(wide, steep, 1)
    kinds = set()
    rng = np.random.default_rng(32)
    for y in [steep, *(ctx.y_ref + rng.normal(scale=0.3, size=(200, 2)))]:
        for branch in (1, -1):
            t = outcome(crossing_time, wide, y, branch)
            if not isinstance(t, type):
                assert -delta <= t <= delta
                assert abs(wide.h(flow.apply(y, branch, t)) - EPS) <= 1e-12
            kinds.add(t if isinstance(t, type) else float)
    assert float in kinds and kinds <= {float, NoRootInBracket, DegenerateDerivative}


# ---------------------------------------------------------------------------
# the float filters of the crossing kernel at their margins

FILTER_NORMAL, FILTER_DELTA = (0.6, -1.3), 0.5


def filter_kernel(ctx, level):
    """A :class:`CrossingKernel` on a normal other than the threshold's."""
    return reduced.CrossingKernel(ctx.flow, FILTER_NORMAL, level, FILTER_DELTA)


def array_solve(ctx, level, min_slope, y, u):
    """The kernel's rules with every dot product an ``ndarray.dot``."""
    normal, flow, delta = np.array(FILTER_NORMAL), ctx.flow, FILTER_DELTA
    tol = max(1e-13, 32.0 * np.finfo(float).eps * float(np.max(np.abs(y))))

    def signal(t):
        z = flow.apply(y, u, t)
        return float(normal @ z) - level, float(normal @ flow.velocity(z, u))

    t, converged = 0.0, False
    for _ in range(30):
        if not -delta <= t <= delta:
            break
        r, d = signal(t)
        if abs(r) < tol:
            converged = True
            break
        if d == 0.0:
            break
        t -= r / d
    if not converged:
        (ra, da), (rb, db) = signal(-delta), signal(delta)
        if ra * rb > 0.0:
            raise NoRootInBracket("no crossing")
        t = float(brentq(lambda s: signal(s)[0], -delta, delta, xtol=1e-15, rtol=8.9e-16))
        d = signal(t)[1]
    if abs(d) < min_slope:
        raise DegenerateDerivative("tangent")
    return t


def plain_dot(n, w):
    return float(n[0] * w[0] + n[1] * w[1])


def test_residual_filter_at_the_floor(ctx):
    # Newton starts at t = 0, where the residual is read from the dot product
    # the caller passes in, so the filter first acts on the second iterate
    # t1.  A level g0 + d0 T' makes t1 = T' and its residual about
    # g''(0) T'**2 / 2; T' within 0.2 % of sqrt(2e-13 / |g''(0)|) puts that
    # residual within 4e-16 of the floor 1e-13 on both sides.  The kernel must
    # solve as the all-array route does, including where the plain residual
    # alone would decide otherwise.  The kernel does not check its level,
    # which may be negative here.
    n = np.array(FILTER_NORMAL)
    flow = ctx.flow
    rng = np.random.default_rng(45)
    misjudged = accepted = 0
    for y in ctx.y_ref + rng.normal(scale=0.05, size=(30, 2)):
        x, xdot = y.tolist()
        for u in (1, -1):
            g0, v = float(n @ y), flow.velocity(y, u)
            d0 = float(n @ v)
            curvature = float(n @ [v[1], -2.0 * flow.zeta * v[1] - flow._omsq * v[0]])
            t_floor = math.sqrt(2e-13 / abs(curvature))
            for sign in (1, -1):
                for k in range(-40, 41):
                    level = g0 + d0 * sign * t_floor * (1.0 + 5e-5 * k)
                    kernel = filter_kernel(ctx, level)
                    got = outcome(kernel.solve, x, xdot, kernel.dot(x, xdot), u)
                    assert got == outcome(array_solve, ctx, level, 1e-8, y, u)
                    t1 = 0.0 - (g0 - level) / d0
                    w = flow.apply(y, u, t1)
                    fused = abs(float(n @ w) - level) < 1e-13
                    misjudged += (abs(plain_dot(n, w) - level) < 1e-13) != fused
                    accepted += got == t1
    assert misjudged > 0 and accepted > 0


def test_slope_filter_at_the_minimum_slope(ctx, monkeypatch):
    # minimum slopes within a few ulps of the root's slope: the kernel must
    # raise DegenerateDerivative exactly where the all-array route does
    n = np.array(FILTER_NORMAL)
    rng = np.random.default_rng(46)
    misjudged = raised = 0
    for y in ctx.y_ref + rng.normal(scale=0.05, size=(30, 2)):
        x, xdot = y.tolist()
        for u in (1, -1):
            level = float(n @ ctx.flow.apply(y, u, 0.1))  # a root near 0.1
            t = array_solve(ctx, level, 0.0, y, u)
            z = ctx.flow.apply(y, u, t)
            v = ctx.flow.velocity(z, u)
            slope = abs(float(n @ v))
            for j in range(-3, 4):
                min_slope = slope + j * math.ulp(slope)
                monkeypatch.setattr(reduced, "_MIN_SLOPE", min_slope)
                kernel = filter_kernel(ctx, level)
                got = outcome(kernel.solve, x, xdot, kernel.dot(x, xdot), u)
                assert got == outcome(array_solve, ctx, level, min_slope, y, u)
                misjudged += (abs(plain_dot(n, v)) < min_slope) != (slope < min_slope)
                raised += got is DegenerateDerivative
    assert misjudged > 0 and raised > 0


# ---------------------------------------------------------------------------
# the scalar crossing signal against the array route it replaced


def test_crossing_signal_equals_array_route(ctx):
    # value and slope of the kernel's signal equal the threshold signal
    # h(z) - eps and dh(z) . f(z, b), built from flow.apply and
    # flow.velocity, bit for bit
    flow, eps, delta = ctx.flow, ctx.epsilon, ctx.delta
    crossing = ctx.crossing_kernel
    rng = np.random.default_rng(43)
    ts = np.linspace(-delta, delta, 41)
    points = np.vstack([ctx.y_ref + rng.normal(scale=5e-3, size=(30, 2)),
                        ctx.y_ref + rng.normal(scale=0.3, size=(30, 2))])
    for y in points:
        x, xdot = y.tolist()
        for b in (1, -1):
            g0 = crossing.dot(x, xdot)
            for t in ts:
                z = flow.apply(y, b, t)
                want = (float(ctx.h(z)) - eps, float(ctx.dh(z) @ flow.velocity(z, b)))
                assert crossing.signal(x, xdot, g0, b, t) == want


def test_map_F_evaluates_the_flow_once(monkeypatch, ctx):
    # the crossing solve runs on the scalar closed form; only map_F's image
    # is an array evaluation, on both branches
    from relaydyn import attractor
    from relaydyn.flows import AffineOscillatorFlow

    applies = []
    real_apply = AffineOscillatorFlow.apply

    def counting_apply(self, y, u, t):
        applies.append(u)
        return real_apply(self, y, u, t)

    monkeypatch.setattr(AffineOscillatorFlow, "apply", counting_apply)
    rng = np.random.default_rng(44)
    branches = set()
    for y in ctx.y_ref + rng.normal(scale=5e-3, size=(40, 2)):
        branches.add(branch_of(ctx, y))
        applies.clear()
        map_F(ctx, y)
        assert applies == [1]
    assert branches == {1, -1}

    # iterate_attractor takes the image from the scalar closed form too: one
    # kernel step per map, evaluating the flow inline, and no array
    # evaluation at all
    from test_attractor import route_map_steps

    steps, advances = [], []
    real_advance = AffineOscillatorFlow._advance

    def counting_advance(self, *args):
        advances.append(args)
        return real_advance(self, *args)

    route_map_steps(monkeypatch, steps.append)
    monkeypatch.setattr(AffineOscillatorFlow, "_advance", counting_advance)
    applies.clear()
    attractor.iterate_attractor(ctx, ctx.y_ref + np.array([1e-3, 0.0]), 10, 60)
    assert len(steps) == 60
    assert applies == [] and advances == []


# ---------------------------------------------------------------------------
# the crossing kernel's output bits, pinned


def pin_digest(results) -> str:
    """sha256 of a run of results: floats and arrays by their bytes, a
    refusal by its error type and message."""
    digest = hashlib.sha256()
    for r in results:
        if isinstance(r, BaseException):
            digest.update(f"{type(r).__name__}: {r}".encode())
        else:
            digest.update(np.asarray(r, dtype=float).tobytes())
    return digest.hexdigest()


def result(fn, *args):
    """Return value, or the error itself when the call refuses."""
    try:
        return fn(*args)
    except RelayDynError as exc:
        return exc


def wide_context(alpha, tau=4.65):
    """sweep's neighborhood: the corner at tau and the 0.45 tau window."""
    return oscillator_context(ZETA, alpha, tau, EPS, surface_corner(ZETA, tau),
                              delta=0.45 * tau)


def kernel_outputs(ctx, seed):
    """crossing_time on both branches and map_F over a seeded set of
    states, and iterate_attractor from some of them."""
    rng = np.random.default_rng(seed)
    near = ctx.y_ref + rng.normal(scale=5e-3, size=(60, 2))
    far = ctx.y_ref + rng.normal(scale=0.3, size=(60, 2))
    states = [*near, *far, *rare_path_states(ctx)]
    outputs = {"crossing_time": [], "map_F": [], "iterate_attractor": []}
    for y in states:
        for branch in (1, -1):
            outputs["crossing_time"].append(result(crossing_time, ctx, y, branch))
        outputs["map_F"].append(result(map_F, ctx, y))
    for y0 in [ctx.y_ref + np.array([1e-3, 0.0]), *near[:4], *far[:6]]:
        run = result(iterate_attractor, ctx, y0, 20, 120)
        outputs["iterate_attractor"] += ([run] if isinstance(run, BaseException) else
                                         [run.points, run.final, run.period,
                                          run.visited_plus, run.visited_minus])
    return states, outputs


KERNEL_PINS = {
    "default": {
        "crossing_time": "05c137c983c912ceb6e4dd808017e1be496f41154144e89261351ebd498e4371",
        "map_F": "fc9e73de0b2142919198c9023ac41125469276cd3200b7f4515423bfe2d82185",
        "iterate_attractor": "eb869b968d81b569c70e88f99aeb7a28520f79632909ecde65e01b48a8f487d1",
    },
    "wide -0.0875": {
        "crossing_time": "1723ecb1a717430e93e9bafb383a13f595ff8aa31443d5f19f8c36d5e5421528",
        "map_F": "49e7140505a6de9243109855a0ca061ba7595e9abaad4811e91bb81da1e61f80",
        "iterate_attractor": "42205d3e3bb6a05f09c8901345d68fc3b41237f112ffd44ad1ffc3aa620f8c38",
    },
    "wide -0.1": {
        "crossing_time": "85d695817bc607bea3a0d7f8307d3532975f7072d96a7289d3428001b4925bbb",
        "map_F": "04d13b6736f81a9eeed844c416efd89566f89c52cb6d0f61e613ba38f7b3d703",
        "iterate_attractor": "f62d60ae00c81106ac261d14c279653b7fb5855b2de6623cddaea08b0a75f124",
    },
}


@pytest.mark.parametrize("name", list(KERNEL_PINS))
def test_crossing_kernel_keeps_its_pinned_bits(ctx, brentq_calls, name):
    # every output the crossing kernel sets a bit of, over both branches,
    # |y| > 14 where the residual floor scales with |y|, states 0.3 from
    # the corner where Newton hands over to Brent's method, and sweep's
    # 0.45 tau window at tau = 4.65, where cold starts lose the crossing
    context = {"default": ctx, "wide -0.0875": wide_context(-0.0875),
               "wide -0.1": wide_context(-0.1)}[name]
    states, outputs = kernel_outputs(context, 48)
    assert {branch_of(context, y) for y in states} == {1, -1}
    solved_far_out = [t for y, t in zip(np.repeat(states, 2, axis=0), outputs["crossing_time"])
                      if np.max(np.abs(y)) > 14.0 and not isinstance(t, BaseException)]
    assert solved_far_out
    assert any(isinstance(t, NoRootInBracket) for t in outputs["crossing_time"])
    runs = outputs["iterate_attractor"]
    kept = sum(isinstance(r, np.ndarray) for r in runs) // 2
    left = sum(isinstance(r, LeftNeighborhood) for r in runs)
    assert (kept, left) == {"default": (10, 1), "wide -0.0875": (8, 3), "wide -0.1": (0, 11)}[name]
    # only the default window hands a solve over to Brent's method
    assert len(brentq_calls) == {"default": 7, "wide -0.0875": 0, "wide -0.1": 0}[name]
    assert {key: pin_digest(values) for key, values in outputs.items()} == KERNEL_PINS[name]
