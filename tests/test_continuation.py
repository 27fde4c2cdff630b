"""Newton, pseudo-arclength continuation, and the invariant-curve machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaydyn import continuation
from relaydyn.continuation import (FourierCurve, ResidualProblem, _Bordered,
                                   _family_fd_jacobian, _family_residual, _fit_series,
                                   _node_trig, _series_val, _TrigTable,
                                   collision_closure, continue_branch,
                                   continue_colliding_family, continue_ns_curve,
                                   fd_jacobian, fixed_point_residual,
                                   fourier_error_estimate,
                                   invariant_curve_residual, newton, ns_jacobian,
                                   ns_residual,
                                   curve_radial_mismatch,
                                   seed_colliding_curve, solve_colliding_curve,
                                   solve_fixed_point)
from relaydyn.errors import (DegenerateDerivative, InitialPointFailed, NoConvergence,
                             NotAMaximum, ParametrizationBreakdown, SingularJacobian)
from relaydyn.flows import AffineOscillatorFlow
from relaydyn.oscillator import collision_point, find_nsc, surface_alpha
from relaydyn.output import write_csv, write_curve_snapshot_csv
from relaydyn.reduced import map_F_branch, oscillator_context

from ns_oracle import ns_residual_oracle

ZETA, EPS = -0.1, 0.1
NSC = (4.1304261916526945, -0.48779391649198917)


# -- root finding ---------------------------------------------------------

def test_newton_scalar_root():
    z, _ = newton(lambda z: np.array([z[0] ** 2 - 4.0]), np.array([3.0]))
    assert z[0] == pytest.approx(2.0, abs=1e-12)


def test_newton_solves_linear_system_immediately():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, -2.0])
    z, _ = newton(lambda z: A @ z - b, np.zeros(2), max_iter=2)
    np.testing.assert_allclose(z, np.linalg.solve(A, b), atol=1e-12)


def test_newton_failure_modes():
    with pytest.raises(NoConvergence):
        newton(lambda z: np.array([z[0] ** 2 + 1.0]), np.array([1.0]), max_iter=8)
    with pytest.raises(SingularJacobian):
        newton(lambda z: np.array([0.0 * z[0] + 1.0]), np.array([1.0]))


def test_newton_refuses_a_non_finite_residual_or_step():
    with pytest.raises(NoConvergence, match="residual is not finite"):
        newton(lambda z: np.array([math.nan * z[0]]), np.array([1.0]))
    # a subnormal pivot passes the solve, but the step overflows
    problem = ResidualProblem(lambda z: np.array([z[0] - 1.0]),
                              lambda z, f0: np.array([[1e-320]]))
    with pytest.raises(SingularJacobian, match="non-finite step"):
        newton(problem, np.array([3.0]))


def test_fd_jacobian_on_polynomial():
    def fn(z):
        return np.array([z[0] ** 2 + z[1], 3.0 * z[0] * z[1]])

    z = np.array([1.2, -0.7])
    exact = np.array([[2.0 * z[0], 1.0], [3.0 * z[1], 3.0 * z[0]]])
    np.testing.assert_allclose(fd_jacobian(fn, z), exact, rtol=0, atol=1e-5)


# -- pseudo-arclength on a known manifold ----------------------------------

def circle_residual(w):
    return np.array([w[0] ** 2 + w[1] ** 2 - 1.0])


def test_continue_branch_traces_circle():
    branch = continue_branch(circle_residual, np.array([1.0, 0.0]),
                             ds=0.05, max_points=60,
                             direction=np.array([0.0, 1.0]))
    assert branch.termination == "max-points"
    assert len(branch) == 60
    for p in branch.points:
        assert abs(circle_residual(p.w)[0]) < 1e-10
    # direction control: the second point moved toward +y
    assert branch.points[1].w[1] > 0
    back = continue_branch(circle_residual, np.array([1.0, 0.0]),
                           ds=0.05, max_points=5,
                           direction=np.array([0.0, -1.0]))
    assert back.points[1].w[1] < 0


def test_continue_branch_stop_callback():
    def stop(point):
        return "quadrant" if point.w[1] > 0.5 else None

    branch = continue_branch(circle_residual, np.array([1.0, 0.0]),
                             ds=0.05, max_points=100,
                             direction=np.array([0.0, 1.0]), stop=stop)
    assert branch.termination == "quadrant"
    assert branch.points[-1].w[1] > 0.5


@pytest.mark.parametrize("analytic", [True, False])
def test_continue_branch_takes_residuals_from_newton(monkeypatch, analytic):
    # the residual newton converged on is the accepted point's residual and
    # the tangent Jacobian's f0: outside newton, only a forward-difference
    # tangent evaluates the residual, once per perturbed column
    inside, calls = [False], {True: 0, False: 0}

    def residual(w):
        calls[inside[0]] += 1
        return circle_residual(w)

    real = continuation.newton

    def counted(*args, **kw):
        inside[0] = True
        try:
            return real(*args, **kw)
        finally:
            inside[0] = False

    monkeypatch.setattr(continuation, "newton", counted)
    jacobian = (lambda w, f0: np.array([2.0 * w])) if analytic else None
    branch = continue_branch(ResidualProblem(residual, jacobian), np.array([1.0, 0.0]),
                             ds=0.05, max_points=20, direction=np.array([0.0, 1.0]))
    assert len(branch) == 20
    # one tangent at the seed and after each of the 19 steps, 2 columns each
    assert calls[True] > 0 and calls[False] == (0 if analytic else 2 * 20)
    for p in branch.points:
        assert p.residual_norm == float(np.max(np.abs(circle_residual(p.w))))


def test_continue_branch_seed_failure():
    with pytest.raises(InitialPointFailed):
        continue_branch(lambda w: np.array([w[0] ** 2 + 1.0]),
                        np.array([1.0, 0.0]), ds=0.1)


def circle_jacobian(w, f0):
    return np.array([2.0 * w])


def test_continue_branch_stops_at_the_seed():
    branch = continue_branch(circle_residual, np.array([1.0, 0.0]), ds=0.05,
                             stop=lambda point: "seed")
    assert (len(branch), branch.termination, branch.message) == (1, "seed", "")
    assert branch.points[0].step == 0.0


def test_continue_branch_halves_its_step_down_to_the_floor():
    # the residual turns NaN past the angle 0.3, so every corrector that
    # starts beyond it fails and the step halves until it is below ds_min
    def residual(w):
        return circle_residual(w) if math.atan2(w[1], w[0]) <= 0.3 else np.array([math.nan])

    branch = continue_branch(ResidualProblem(residual, circle_jacobian), np.array([1.0, 0.0]),
                             ds=0.05, ds_min=1e-3, max_points=100,
                             direction=np.array([0.0, 1.0]))
    assert branch.termination == "step-floor"
    assert branch.message == "residual is not finite"
    angles = [math.atan2(p.w[1], p.w[0]) for p in branch.points]
    assert 0.3 - 2e-3 < angles[-1] <= 0.3
    steps = [p.step for p in branch.points[1:]]
    assert any(b < a for a, b in zip(steps, steps[1:]))  # a step was halved


def test_continue_branch_ends_where_the_tangent_fails():
    # the Jacobian refuses a converged point past the angle 0.3: there the
    # corrector has returned, and only the tangent asks for it
    def jacobian(w, f0):
        if math.atan2(w[1], w[0]) > 0.3 and np.max(np.abs(f0)) <= 1e-10:
            raise SingularJacobian("no tangent past 0.3")
        return circle_jacobian(w, f0)

    branch = continue_branch(ResidualProblem(circle_residual, jacobian), np.array([1.0, 0.0]),
                             ds=0.05, max_points=100, direction=np.array([0.0, 1.0]))
    assert branch.termination == "tangent-failure"
    assert branch.message == "no tangent past 0.3"
    angles = [math.atan2(p.w[1], p.w[0]) for p in branch.points]
    assert max(angles[:-1]) <= 0.3 < angles[-1]


# -- fixed points of the minus branch and the NS locus ---------------------

def test_fixed_point_at_corner_has_zero_offset():
    alpha = surface_alpha(ZETA, 4.2, EPS)[0]
    y_star = collision_point(ZETA, 4.2)
    res = fixed_point_residual(y_star, 0.0, 4.2, alpha, EPS, ZETA)
    assert np.max(np.abs(res)) < 1e-12
    y0, t0 = solve_fixed_point(ZETA, 4.2, alpha, EPS)
    np.testing.assert_allclose(y0, y_star, atol=1e-10)
    assert abs(t0) < 1e-10


def test_fixed_point_off_surface_closes_orbit():
    # subcritical alpha: fixed point sits inside D- with a genuine offset
    y0, t0 = solve_fixed_point(ZETA, 4.2, -0.46, EPS)
    assert abs(t0) > 1e-4
    ctx = oscillator_context(ZETA, -0.46, 4.2, EPS, y_ref=y0, delta=0.45 * 4.2)
    np.testing.assert_allclose(map_F_branch(ctx, y0, -1), y0, rtol=0, atol=1e-9)


def test_ns_residual_vanishes_at_nsc():
    y_star = collision_point(ZETA, NSC[0])
    for fn in (ns_residual, ns_residual_oracle):
        res, trace = fn(y_star, 0.0, NSC[0], NSC[1], EPS, ZETA)
        assert np.max(np.abs(res)) < 1e-9
        assert abs(trace) < 2.0


def test_continue_ns_curve_brackets_the_seed():
    branch = continue_ns_curve(ZETA, EPS, tau_span=(3.6, 4.6),
                               ds=1e-2, ds_max=5e-2, max_points=120)
    taus = branch.values("tau")
    assert taus[0] < NSC[0] < taus[-1]
    assert np.all(np.diff(taus) > 0)
    for p in branch.points:
        res, trace = ns_residual_oracle(p.w[:2], p.w[2], p.w[3], p.w[4], EPS, ZETA)
        assert np.max(np.abs(res)) < 1e-8
        assert abs(trace) < 2.0
    assert branch.termination == "tau-bounds"


@pytest.mark.parametrize("tau_span", [(math.pi + 0.2, 3.5), (4.2, 5.0)])
def test_continue_ns_curve_refuses_a_seed_outside_the_span(tau_span):
    with pytest.raises(ValueError, match="NS point delay 4.13043"):
        continue_ns_curve(ZETA, EPS, nsc=NSC, tau_span=tau_span)


@pytest.fixture(scope="module")
def default_ns_curve():
    """The NS curve of the default ``unfold``."""
    return continue_ns_curve(ZETA, EPS, nsc=NSC, tau_span=(math.pi + 0.2, 5.0))


def test_ns_residual_closes_the_oracle_on_every_default_row(default_ns_curve):
    branch = default_ns_curve
    assert len(branch) == 68
    for p in branch.points:
        args = (p.w[:2], p.w[2], p.w[3], p.w[4], EPS, ZETA)
        res, trace = ns_residual(*args)
        ref, ref_trace = ns_residual_oracle(*args)
        assert np.max(np.abs(res)) < 1e-10, p.data
        assert np.max(np.abs(ref)) < 1e-10, p.data
        assert abs(trace - ref_trace) < 1e-9, p.data
        assert trace == p.data["trace"]


def test_continue_ns_curve_on_the_oracle_keeps_the_default_rows(monkeypatch, default_ns_curve):
    branch = default_ns_curve
    monkeypatch.setattr(continuation, "ns_residual", ns_residual_oracle)
    ref = continue_ns_curve(ZETA, EPS, nsc=NSC, tau_span=(math.pi + 0.2, 5.0))
    assert (len(ref), ref.termination) == (len(branch), branch.termination)
    assert branch.termination == "tau-bounds"
    for key in ("tau", "alpha", "t0", "trace"):
        np.testing.assert_allclose(branch.values(key), ref.values(key), rtol=0, atol=1e-9)


def flow_matrix_ns_residual(y0, t0, tau, alpha, epsilon, zeta):
    """``ns_residual`` as written before, with A(t0) and A(T) read from flow_matrix arrays."""
    flow = AffineOscillatorFlow(zeta)
    x, xdot, t0 = float(y0[0]), float(y0[1]), float(t0)
    T = float(tau) + t0
    w0, w1 = flow._advance(x, xdot, +1, T)
    z0, z1 = flow._advance(x, xdot, -1, t0)
    ca, sa = math.cos(alpha), math.sin(alpha)
    g = ca * z1 + sa * flow._accel(z0, z1, -1)
    a, b = flow.flow_matrix(t0), flow.flow_matrix(T)
    r0 = (ca * a[0, 0] + sa * a[1, 0]) / g
    r1 = (ca * a[0, 1] + sa * a[1, 1]) / g
    f0, f1 = w1, flow._accel(w0, w1, +1)
    j00, j01 = f0 * r0 - b[0, 0], f0 * r1 - b[0, 1]
    j10, j11 = f1 * r0 - b[1, 0], f1 * r1 - b[1, 1]
    res = np.array([x + w0, xdot + w1, epsilon - (ca * z0 + sa * z1),
                    j00 * j11 - j01 * j10 - 1.0])
    return res, j00 + j11


def test_ns_residual_equals_the_flow_matrix_route(default_ns_curve):
    cases = [(p.w[:2], p.w[2], p.w[3], p.w[4], EPS, ZETA) for p in default_ns_curve.points]
    assert len(cases) == 68
    rng = np.random.default_rng(23)
    cases += [(rng.normal(size=2), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 4.0 * math.pi),
               rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(0.0, 1.0),
               rng.uniform(-0.5, 0.5)) for _ in range(1000)]
    for args in cases:
        res, trace = ns_residual(*args)
        ref, ref_trace = flow_matrix_ns_residual(*args)
        assert np.array_equal(res, ref) and trace == ref_trace, args


def test_default_ns_curve_builds_no_flow_matrix(monkeypatch):
    # ns_residual reads A(t0) and A(tau + t0) as floats: 2,482 flow_matrix
    # arrays once went into the 1,241 residuals of the default unfold curve.
    # Every Jacobian is ns_jacobian's: the forward differences took 5
    # residuals each, and the 195 of them made 975 of those 1,241 residuals.
    calls = {"flow_matrix": 0, "ns_residual": 0, "ns_jacobian": 0, "fd_jacobian": 0}
    real_matrix = AffineOscillatorFlow.flow_matrix

    def counting_matrix(self, t):
        calls["flow_matrix"] += 1
        return real_matrix(self, t)

    monkeypatch.setattr(AffineOscillatorFlow, "flow_matrix", counting_matrix)
    for name in ("ns_residual", "ns_jacobian", "fd_jacobian"):
        real = getattr(continuation, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(continuation, name, counted)
    branch = continue_ns_curve(ZETA, EPS, nsc=NSC, tau_span=(math.pi + 0.2, 5.0))
    assert len(branch) == 68
    assert calls == {"flow_matrix": 0, "ns_residual": 266, "ns_jacobian": 195,
                     "fd_jacobian": 0}


# -- the closed-form NS Jacobian and its oracles ----------------------------

def ns_jacobian_cases(default_ns_curve):
    """ns_residual's arguments at the NS seed, every 5th default row and 200
    random points drawn as in test_ns_residual_equals_the_flow_matrix_route."""
    cases = [(collision_point(ZETA, NSC[0]), 0.0, NSC[0], NSC[1], EPS, ZETA)]
    cases += [(p.w[:2], p.w[2], p.w[3], p.w[4], EPS, ZETA) for p in default_ns_curve.points[::5]]
    rng = np.random.default_rng(29)
    cases += [(rng.normal(size=2), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 4.0 * math.pi),
               rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(0.0, 1.0),
               rng.uniform(-0.5, 0.5)) for _ in range(200)]
    return cases


def ns_unknowns(y0, t0, tau, alpha, epsilon, zeta):
    """The unknown vector (x, x', t0, tau, alpha) and ns_residual's residual in it."""
    def residual(w):
        return ns_residual(w[:2], w[2], w[3], w[4], epsilon, zeta)[0]

    return np.array([y0[0], y0[1], t0, tau, alpha]), residual


def central_jacobian(fn, w, h, order):
    """Central differences of fn at w: the 3-point (order 2) or 5-point (order 4) stencil."""
    J = np.empty((fn(w).size, w.size))
    for j in range(w.size):
        e = np.eye(1, w.size, j)[0] * h
        if order == 2:
            J[:, j] = (fn(w + e) - fn(w - e)) / (2.0 * h)
        else:
            J[:, j] = (8.0 * (fn(w + e) - fn(w - e)) - (fn(w + 2 * e) - fn(w - 2 * e))) / (12 * h)
    return J


def test_ns_jacobian_matches_its_difference_oracles(default_ns_curve):
    # Central differences of fourth order at h = 1e-5 resolve the Jacobian to
    # about 1e-10 everywhere.  fd_jacobian's forward step is first order: it
    # is off by (h/2) G'' + O(h^2), about 5e-8 of |J| on the curve, where it
    # is held to 1e-6 as it stands.  At random points where g = c . f(z, -1)
    # is as small as 0.027 that term reaches 8.6e-6 of |J|, so there the
    # 3-point central difference at the same step measures it and it is
    # added to the 1e-6.
    cases = ns_jacobian_cases(default_ns_curve)
    assert len(cases) == 1 + 14 + 200
    for n, args in enumerate(cases):
        w, residual = ns_unknowns(*args)
        J = ns_jacobian(*args)
        assert J.shape == (4, 5)
        ref = central_jacobian(residual, w, 1e-5, order=4)
        assert np.max(np.abs(J - ref)) <= 1e-8 * np.max(np.abs(ref)), args
        fd = fd_jacobian(residual, w)
        tol = 1e-6 * np.max(np.abs(fd))
        if n >= 15:
            tol = tol + np.abs(fd - central_jacobian(residual, w, continuation.FD_STEP, order=2))
        assert np.all(np.abs(J - fd) <= tol), args


def test_ns_jacobian_raises_exactly_where_ns_residual_does():
    # alpha is stepped through the zero of g = c . f(z, -1) so that |g|
    # straddles ns_residual's 1e-12 floor
    flow = AffineOscillatorFlow(ZETA)
    rng = np.random.default_rng(31)
    raised = returned = 0
    for _ in range(40):
        y0, t0, tau = rng.normal(size=2), rng.uniform(-2.0, 2.0), rng.uniform(3.2, 6.0)
        z = flow.apply(y0, -1, t0)
        zdot = flow.velocity(z, -1)
        alpha0 = math.atan2(-zdot[0], zdot[1])
        for k in (-3.0, -1.5, -0.9, -0.5, 0.0, 0.5, 0.9, 1.5, 3.0):
            args = (y0, t0, tau, alpha0 + k * 1e-12 / np.hypot(*zdot), EPS, ZETA)
            try:
                ns_residual(*args)
            except DegenerateDerivative:
                with pytest.raises(DegenerateDerivative, match="threshold crossing is tangent"):
                    ns_jacobian(*args)
                raised += 1
                continue
            assert np.all(np.isfinite(ns_jacobian(*args)))
            returned += 1
    assert raised > 100 and returned > 100


def test_continue_ns_curve_on_the_fd_jacobian_keeps_the_default_rows(monkeypatch,
                                                                     default_ns_curve):
    # forward differences of the same residual, the Jacobian the curve took
    # before ns_jacobian, remain its oracle: every row within 1e-8 of the FD
    # curve by index, and in alpha and t0 at its own tau (linear between FD
    # rows, and past the end rows along the end segments)
    def fd_ns_jacobian(*args):
        w, residual = ns_unknowns(*args)
        return fd_jacobian(residual, w)

    monkeypatch.setattr(continuation, "ns_jacobian", fd_ns_jacobian)
    ref = continue_ns_curve(ZETA, EPS, nsc=NSC, tau_span=(math.pi + 0.2, 5.0))
    branch = default_ns_curve
    assert (len(branch), branch.termination) == (len(ref), ref.termination) == (68, "tau-bounds")
    for key in ("tau", "alpha", "t0", "trace"):
        np.testing.assert_allclose(branch.values(key), ref.values(key), rtol=0, atol=1e-8)
    tau, ref_tau = branch.values("tau"), ref.values("tau")
    i = np.clip(np.searchsorted(ref_tau, tau) - 1, 0, ref_tau.size - 2)
    for key in ("alpha", "t0"):
        v = ref.values(key)
        at_tau = v[i] + (v[i + 1] - v[i]) / (ref_tau[i + 1] - ref_tau[i]) * (tau - ref_tau[i])
        assert np.max(np.abs(at_tau - branch.values(key))) <= 1e-8, key


def test_ns_curve_ends_at_the_crossing_window():
    # the closed form runs on past tau = 5.1, where the reduced map's
    # crossing-time solve (window 0.45 tau) no longer finds t0
    branch = continue_ns_curve(ZETA, EPS, nsc=NSC, tau_span=(math.pi + 0.2, 5.5))
    assert branch.termination == "crossing-window"
    taus = branch.values("tau")
    assert np.all(np.diff(taus) > 0)
    assert 5.05 < taus[-1] < 5.5
    for p in branch.points:
        res, trace = ns_residual_oracle(p.w[:2], p.w[2], p.w[3], p.w[4], EPS, ZETA)
        assert np.max(np.abs(res)) < 1e-10, p.data
        assert abs(trace - p.data["trace"]) < 1e-9, p.data


# -- trigonometric series helpers ------------------------------------------

@given(st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7))
def test_fit_series_round_trip(coeff_list):
    coeffs = np.asarray(coeff_list)
    m = 2 * 3 + 1
    phi = 2.0 * math.pi * np.arange(m) / m
    fitted = _fit_series(_series_val(coeffs, phi))
    np.testing.assert_allclose(fitted, coeffs, rtol=0, atol=1e-12)


def test_series_val_off_node_and_derivatives():
    coeffs = np.array([0.5, 1.0, -0.3, 0.2, 0.7])  # a0, a1, b1, a2, b2

    def direct(phi):
        return (0.5 + 1.0 * np.cos(phi) - 0.3 * np.sin(phi)
                + 0.2 * np.cos(2 * phi) + 0.7 * np.sin(2 * phi))

    phi = np.linspace(0.0, 2.0 * math.pi, 101)
    np.testing.assert_allclose(_series_val(coeffs, phi), direct(phi), atol=1e-13)
    h = 1e-6
    d1 = (_series_val(coeffs, phi + h) - _series_val(coeffs, phi - h)) / (2 * h)
    np.testing.assert_allclose(_series_val(coeffs, phi, deriv=1), d1, atol=1e-7)
    d2 = (_series_val(coeffs, phi + h) - 2 * _series_val(coeffs, phi)
          + _series_val(coeffs, phi - h)) / h ** 2
    np.testing.assert_allclose(_series_val(coeffs, phi, deriv=2), d2, atol=1e-3)


def make_curve(n_modes=8, r0=0.5, wobble=0.05):
    r = np.zeros(2 * n_modes + 1)
    r[0], r[1], r[4] = r0, wobble, -0.4 * wobble
    t = np.zeros(2 * n_modes + 1)
    t[0], t[2] = -0.01, 0.004
    p = np.zeros(2 * n_modes)
    p[1], p[2] = 0.02, -0.01
    return FourierCurve(n_modes=n_modes, r_coeffs=r, t_coeffs=t, p_coeffs=p,
                        omega=-1.3, y0=np.array([4.0, -0.5]), t0=-0.02)


def test_fourier_curve_pack_round_trip():
    curve = make_curve()
    again = FourierCurve.unpack(curve.n_modes, curve.pack())
    for name in ("r_coeffs", "t_coeffs", "p_coeffs"):
        np.testing.assert_array_equal(getattr(again, name), getattr(curve, name))
    assert again.omega == curve.omega and again.t0 == curve.t0
    np.testing.assert_array_equal(again.y0, curve.y0)
    assert FourierCurve.dim(curve.n_modes) == curve.pack().size


def test_fourier_curve_resample_is_exact_when_growing():
    curve = make_curve()
    fine = curve.resample(16)
    phi = np.linspace(0.0, 2.0 * math.pi, 37)
    np.testing.assert_allclose(fine.radius(phi), curve.radius(phi), atol=1e-12)
    np.testing.assert_allclose(fine.offset(phi), curve.offset(phi), atol=1e-12)
    np.testing.assert_allclose(fine.eta(phi), curve.eta(phi), atol=1e-12)


def test_parametrization_guard():
    curve = make_curve(r0=0.01, wobble=0.2)  # radius dips below zero
    with pytest.raises(ParametrizationBreakdown):
        curve.check_parametrization()
    make_curve().check_parametrization()


def test_collision_closure_requires_maximum():
    curve = make_curve()
    vals = collision_closure(curve, 0.7)
    assert vals[0] == pytest.approx(float(curve.offset(0.7)))
    assert vals[1] == pytest.approx(float(curve.offset(0.7, deriv=1)))
    # t(phi) = -0.01 + 0.004 sin(phi): stationary at pi/2 (max) and -pi/2 (min)
    collision_closure(curve, math.pi / 2, require_max=True)
    with pytest.raises(NotAMaximum):
        collision_closure(curve, -math.pi / 2, require_max=True)


def test_error_estimate_tail_fraction():
    clean = make_curve(n_modes=32)
    assert fourier_error_estimate(clean) < 1e-14
    noisy = make_curve(n_modes=32)
    rng = np.random.default_rng(0)
    noisy.r_coeffs[40:] += rng.normal(scale=0.02, size=noisy.r_coeffs[40:].size)
    assert fourier_error_estimate(noisy) > 1e-2


def test_curve_radial_mismatch():
    curve = make_curve()
    phi = np.linspace(0.0, 2.0 * math.pi, 17)
    on = curve.point(phi)
    np.testing.assert_allclose(curve_radial_mismatch(curve, on), 0.0, atol=1e-12)
    off = on + np.array([0.0, 1e-3])
    assert np.max(curve_radial_mismatch(curve, off)) > 1e-4


# -- cached node tables: bit-for-bit against the uncached evaluators -------
# Exact equality on purpose: the cached path must perform the same
# floating-point operations in the same order, so that continuation runs
# (whose later points amplify last-bit noise in FD tangents) do not move.

def node_angles(n_modes, midpoint=False):
    m = 2 * n_modes + 1
    if midpoint:
        return 2.0 * math.pi * (np.arange(m) + 0.5) / m
    return 2.0 * math.pi * np.arange(m) / m


def random_curve(n_modes, seed):
    rng = np.random.default_rng(seed)
    decay = np.repeat(0.5 ** np.arange(1, n_modes + 1), 2)
    r = np.concatenate([[0.5], 0.05 * decay * rng.normal(size=2 * n_modes)])
    t = np.concatenate([[-0.01], 0.004 * decay * rng.normal(size=2 * n_modes)])
    p = 0.02 * decay * rng.normal(size=2 * n_modes)
    return FourierCurve(n_modes=n_modes, r_coeffs=r, t_coeffs=t, p_coeffs=p,
                        omega=-1.3, y0=collision_point(ZETA, NSC[0]), t0=-0.02)


def reference_defect(curve, phi, tau, alpha):
    flow = AffineOscillatorFlow(ZETA)
    c = np.array([math.cos(alpha), math.sin(alpha)])
    pts = curve.point(phi)
    t_phi = curve.offset(phi)
    eta = curve.eta(phi)
    r_eta = _series_val(curve.r_coeffs, eta)
    img = curve.y0 + r_eta[:, None] * np.stack([np.cos(eta), np.sin(eta)], axis=-1)
    fwd = flow.apply_batch(pts, +1, tau + t_phi)
    on_line = EPS - flow.apply_batch(pts, -1, t_phi) @ c
    return img + fwd, on_line


def series_reference(coeffs, phi, zero_mean=False, deriv=0):
    """The evaluator as first written, rebuilding cos/sin(k phi) per call."""
    a0, rest = (0.0, coeffs) if zero_mean else (coeffs[0], coeffs[1:])
    k = np.arange(1, rest.size // 2 + 1)
    ka = phi[:, None] * k
    A, B = rest[0::2], rest[1::2]
    if deriv == 0:
        return a0 + np.cos(ka) @ A + np.sin(ka) @ B
    if deriv == 1:
        return -(np.sin(ka) * k) @ A + (np.cos(ka) * k) @ B
    return -(np.cos(ka) * k * k) @ A - (np.sin(ka) * k * k) @ B


@pytest.mark.parametrize("n_modes", [4, 16, 32])
@pytest.mark.parametrize("midpoint", [False, True])
def test_node_table_matches_series_val(n_modes, midpoint):
    rng = np.random.default_rng(n_modes)
    full = rng.normal(size=2 * n_modes + 1)
    mean_free = rng.normal(size=2 * n_modes)
    phi = node_angles(n_modes, midpoint)
    trig = _node_trig(n_modes, midpoint=midpoint)
    assert np.array_equal(trig.phi, phi)
    assert np.array_equal(trig.unit, np.stack([np.cos(phi), np.sin(phi)], axis=-1))
    for coeffs, zero_mean in ((full, False), (mean_free, True)):
        expected = series_reference(coeffs, phi, zero_mean)
        assert np.array_equal(trig.series(coeffs, zero_mean=zero_mean), expected)
        assert np.array_equal(_series_val(coeffs, phi, zero_mean=zero_mean), expected)
    off_node = rng.uniform(-7.0, 7.0, size=9)
    for deriv in (0, 1, 2):
        assert np.array_equal(_series_val(full, off_node, deriv=deriv),
                              series_reference(full, off_node, deriv=deriv))
    assert _node_trig(n_modes, midpoint=midpoint) is trig


@pytest.mark.parametrize("n_modes", [4, 16, 32])
def test_residual_and_error_estimate_match_uncached_reference(n_modes):
    curve = random_curve(n_modes, seed=n_modes)
    tau, alpha = NSC[0] + 0.05, NSC[1]
    defect, on_line = reference_defect(curve, node_angles(n_modes), tau, alpha)
    fp = fixed_point_residual(curve.y0, curve.t0, tau, alpha, EPS, ZETA)
    expected = np.concatenate([defect.ravel(), on_line, fp])
    assert np.array_equal(invariant_curve_residual(curve, tau, alpha, EPS, ZETA), expected)

    defect, on_line = reference_defect(curve, node_angles(n_modes, midpoint=True), tau, alpha)
    expected = max(fourier_error_estimate(curve),
                   max(float(np.max(np.abs(defect))), float(np.max(np.abs(on_line)))))
    assert fourier_error_estimate(curve, params=(tau, alpha, EPS, ZETA)) == expected


@pytest.mark.parametrize("phi_star", [0.0, 0.7, -2.9, 5.0])
def test_collision_closure_matches_offset(phi_star):
    curve = random_curve(16, seed=1)
    expected = np.array([curve.offset(phi_star), curve.offset(phi_star, deriv=1)])
    assert np.array_equal(collision_closure(curve, phi_star), expected)


def test_cached_node_tables_are_read_only():
    trig = _node_trig(8)
    for arr in (trig.phi, trig.k, trig.cos, trig.sin, trig.unit):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(ValueError):
        make_curve(n_modes=8).nodes()[0] = 1.0
    assert np.array_equal(_node_trig(8).phi, node_angles(8))


# -- grazing-curve seeding and continuation --------------------------------

@pytest.fixture(scope="module")
def solved_seed():
    w = seed_colliding_curve(ZETA, EPS, NSC, dtau=1e-2, n_modes=24)
    return solve_colliding_curve(w, 24, EPS, ZETA), 24


def test_seeded_curve_solves_collocation_system(solved_seed):
    w, n_modes = solved_seed
    nz = FourierCurve.dim(n_modes)
    curve = FourierCurve.unpack(n_modes, w[:nz])
    phi_star, tau, alpha = w[nz], w[nz + 1], w[nz + 2]
    assert tau == pytest.approx(NSC[0] + 1e-2, abs=1e-12)  # frozen by the solve
    res = invariant_curve_residual(curve, tau, alpha, EPS, ZETA)
    assert np.max(np.abs(res)) < 1e-9
    np.testing.assert_allclose(collision_closure(curve, phi_star), 0.0, atol=1e-9)
    curve.check_parametrization()
    assert curve.mean_radius() > 0
    assert curve.omega < 0  # clockwise rotation of the minus branch


def test_seeded_curve_is_invariant_under_reduced_map(solved_seed):
    # independent of the collocation residual: push nodes through the map
    w, n_modes = solved_seed
    nz = FourierCurve.dim(n_modes)
    curve = FourierCurve.unpack(n_modes, w[:nz])
    tau, alpha = w[nz + 1], w[nz + 2]
    ctx = oscillator_context(ZETA, alpha, tau, EPS, y_ref=curve.y0,
                             delta=0.45 * tau)
    imgs = np.array([map_F_branch(ctx, p, -1) for p in curve.point(curve.nodes())])
    assert np.max(curve_radial_mismatch(curve, imgs)) < 1e-8


def test_family_continuation_first_steps():
    branch = continue_colliding_family(ZETA, EPS, n_modes=16, max_points=6,
                                       ds=2e-3)
    assert len(branch) == 6
    taus = branch.values("tau")
    radii = branch.values("radius")
    assert np.all(np.diff(taus) > 0)
    assert np.all(radii > 0)
    assert np.all(np.diff(radii) > 0)  # the curve grows away from the NS point
    # 16 modes floors the off-node residual near 5e-6; spectral health at the
    # production 64-node resolution is covered by the acceptance suite
    assert np.all(branch.values("error") < 1e-4)
    alphas = branch.values("alpha")
    assert np.max(np.abs(alphas - NSC[1])) < 0.05  # family hugs the NS locus


# -- blocked and bordered Jacobians: bit-for-bit against fd_jacobian --------
# fd_jacobian stays the oracle.  Exact equality, because the continuation
# amplifies last-bit differences in its Jacobians into visible moves of
# later branch points.

def family_fd_oracle(w, n_modes):
    return fd_jacobian(lambda z: _family_residual(z, n_modes, EPS, ZETA), w)


@pytest.fixture(scope="module", params=[4, 8, 32])
def family_points(request):
    n_modes = request.param
    guess = seed_colliding_curve(ZETA, EPS, NSC, dtau=1e-2, n_modes=n_modes)
    # the square solve at frozen tau, with the column-loop Jacobian and without
    # the parametrization check (4 modes converge to the zero-radius curve)
    nz = FourierCurve.dim(n_modes)

    def at_tau(v):
        return np.insert(v, nz + 1, guess[nz + 1])

    v, _ = newton(lambda v: _family_residual(at_tau(v), n_modes, EPS, ZETA),
                  np.delete(guess, nz + 1))
    solved = at_tau(v)
    nudge = 1e-4 * np.sin(np.arange(solved.size) + 1.0)
    return n_modes, {"guess": guess, "solved": solved, "perturbed": solved + nudge}


@pytest.mark.parametrize("where", ["guess", "solved", "perturbed"])
def test_blocked_family_jacobian_equals_fd_jacobian(family_points, where):
    n_modes, points = family_points
    w = points[where]
    expected = family_fd_oracle(w, n_modes)
    assert np.array_equal(_family_fd_jacobian(w, None, n_modes, EPS, ZETA), expected)
    f0 = _family_residual(w, n_modes, EPS, ZETA)
    assert np.array_equal(_family_fd_jacobian(w, f0, n_modes, EPS, ZETA), expected)


@pytest.mark.parametrize("given_f0", [True, False])
def test_blocked_family_jacobian_makes_at_most_the_base_residual(family_points, monkeypatch,
                                                                 given_f0):
    # each column computes only the row blocks it moves, never a full residual
    n_modes, points = family_points
    w = points["perturbed"]
    f0 = _family_residual(w, n_modes, EPS, ZETA) if given_f0 else None
    calls = {"_family_residual": 0, "invariant_curve_residual": 0}
    for name in calls:
        real = getattr(continuation, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(continuation, name, counted)
    _family_fd_jacobian(w, f0, n_modes, EPS, ZETA)
    expected = 0 if given_f0 else 1
    assert calls == {"_family_residual": expected, "invariant_curve_residual": expected}


def test_batched_series_rows_equal_single_evaluations():
    rng = np.random.default_rng(7)
    n = 12
    coeffs = rng.normal(size=(5, 2 * n + 1))
    trig = _node_trig(n)
    eta = _TrigTable.at(rng.uniform(-7.0, 7.0, size=(5, 2 * n + 1)), n)
    for deriv in (0, 1, 2):
        batch = trig.series(coeffs, deriv=deriv)
        mean_free = trig.series(coeffs[:, 1:], zero_mean=True, deriv=deriv)
        at_eta = eta.series(coeffs[0], deriv=deriv)
        for i in range(5):
            assert np.array_equal(batch[i], trig.series(coeffs[i], deriv=deriv))
            assert np.array_equal(mean_free[i], trig.series(coeffs[i, 1:], zero_mean=True,
                                                            deriv=deriv))
            assert np.array_equal(at_eta[i], _TrigTable.at(eta.phi[i], n).series(
                coeffs[0], deriv=deriv))


def corrector_problems():
    ns_seed = np.array([*collision_point(ZETA, NSC[0]), 0.0, NSC[0], NSC[1]])

    def ns(w):
        return ns_residual(w[:2], w[2], w[3], w[4], EPS, ZETA)[0]

    yield ResidualProblem(circle_residual), np.array([0.6, 0.8]), np.array([0.8, -0.6])
    yield ResidualProblem(ns), ns_seed, np.array([0.1, -0.2, 0.3, 0.9, 0.2])


@pytest.mark.parametrize("case", [0, 1], ids=["circle", "ns"])
def test_bordered_jacobian_equals_fd_jacobian(case):
    problem, w, t = list(corrector_problems())[case]
    pred = w + 1e-2 * t
    z = pred + 1e-3 * np.cos(np.arange(w.size))
    last = np.eye(1, w.size, w.size - 1)[0]
    for normal, point, extra in ((t, pred, lambda z: t @ (z - pred)),
                                 (last, w, lambda z: z[-1] - w[-1])):
        bordered = _Bordered(problem, normal, point)

        def corrector(z):
            return np.append(problem.residual(z), extra(z))

        f0 = corrector(z)
        assert np.array_equal(bordered.residual(z), f0)
        assert np.array_equal(bordered.jac(z, f0), fd_jacobian(corrector, z, f0))
        assert np.array_equal(bordered.jac(z), fd_jacobian(corrector, z))


def test_family_steps_unchanged_by_blocked_jacobian(monkeypatch):
    def run():
        return continue_colliding_family(ZETA, EPS, n_modes=16, max_points=4, ds=2e-3)

    blocked = run()

    def column_loop(w, f0, n_modes, epsilon, zeta):
        return fd_jacobian(lambda z: _family_residual(z, n_modes, epsilon, zeta), w, f0)

    monkeypatch.setattr(continuation, "_family_fd_jacobian", column_loop)
    plain = run()
    assert len(blocked) == len(plain) == 4
    for a, b in zip(blocked.points, plain.points):
        assert np.array_equal(a.w, b.w)
        assert a.step == b.step and a.residual_norm == b.residual_norm


def test_curve_snapshot_bytes_match_per_angle_loop(tmp_path):
    curve = random_curve(32, seed=3)
    rows = []
    for phi in np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False):
        y = curve.point(phi)
        rows.append((phi, curve.radius(phi), curve.eta(phi), curve.offset(phi), y[0], y[1]))
    write_csv(tmp_path / "loop.csv", ["phi", "r", "eta", "t", "x", "xdot"], rows)
    write_curve_snapshot_csv(tmp_path / "one_pass.csv", curve)
    assert (tmp_path / "one_pass.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
