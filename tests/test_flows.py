"""Closed-form oscillator flow against an independent Runge-Kutta oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from relaydyn.flows import AffineOscillatorFlow
from rk_oracle import NumericalFlow


def rk_oracle(zeta, y0, u, ts):
    """Reference path via scipy's RK45 at tight tolerance, any-sign times."""
    omsq = 1.0 + zeta * zeta

    def rhs(t, y):
        return [y[1], -2.0 * zeta * y[1] - omsq * (y[0] - u)]

    ts = np.asarray(ts, dtype=float)
    out = np.empty((ts.size, 2))
    for sign in (1.0, -1.0):
        sel = sign * ts > 0
        if sel.any():
            span = sign * float(np.max(sign * ts[sel]))
            sol = solve_ivp(rhs, (0.0, span), np.asarray(y0, float),
                            rtol=1e-12, atol=1e-12, dense_output=True)
            out[sel] = sol.sol(ts[sel]).T
    out[ts == 0.0] = np.asarray(y0, float)
    return out


def companion(zeta):
    omsq = 1.0 + zeta * zeta
    return np.array([[0.0, 1.0], [-omsq, -2.0 * zeta]])


def test_flow_matches_rk_oracle():
    rng = np.random.default_rng(7)
    flow = AffineOscillatorFlow(-0.1)
    ts = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 17)
    worst = 0.0
    for _ in range(10):
        y0 = rng.normal(scale=2.0, size=2)
        for u in (-1, 1):
            ref = rk_oracle(-0.1, y0, u, ts)
            got = flow.apply_path(y0, u, ts)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-9


def test_flow_matrix_is_matrix_exponential():
    for zeta in (-0.1, 0.3, 0.0):
        flow = AffineOscillatorFlow(zeta)
        M = companion(zeta)
        for t in (-3.7, -1.0, 0.0, 0.5, 2.0, 6.0):
            np.testing.assert_allclose(flow.flow_matrix(t), expm(M * t),
                                       rtol=0, atol=1e-12)


def test_flow_offset_solves_forced_system():
    # v(t) = M^{-1} (e^{Mt} - I) b with b = (0, 1+zeta^2)
    zeta = -0.1
    flow = AffineOscillatorFlow(zeta)
    M = companion(zeta)
    b = np.array([0.0, 1.0 + zeta * zeta])
    for t in (-2.0, 0.3, 1.7, 5.0):
        ref = np.linalg.solve(M, (expm(M * t) - np.eye(2)) @ b)
        np.testing.assert_allclose(flow.flow_offset(t), ref, rtol=0, atol=1e-12)


def test_determinant_follows_liouville():
    # det A(t) = exp(trace * t) = exp(-2 zeta t)
    for zeta in (-0.1, 0.25):
        flow = AffineOscillatorFlow(zeta)
        for t in (-4.0, -0.3, 1.1, 7.5):
            det = float(np.linalg.det(flow.flow_matrix(t)))
            assert det == pytest.approx(math.exp(-2.0 * zeta * t), rel=1e-12)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.sampled_from([-1, 1]))
def test_semigroup_property(x, xdot, s, t, u):
    flow = AffineOscillatorFlow(-0.1)
    y = np.array([x, xdot])
    once = flow.apply(y, u, s + t)
    twice = flow.apply(flow.apply(y, u, s), u, t)
    np.testing.assert_allclose(twice, once, rtol=0, atol=1e-10)


def test_backward_flow_inverts_forward():
    flow = AffineOscillatorFlow(-0.1)
    y = np.array([1.3, -0.4])
    z = flow.apply(y, -1, 2.9)
    np.testing.assert_allclose(flow.apply(z, -1, -2.9), y, rtol=0, atol=1e-12)


def test_equilibria_are_fixed():
    flow = AffineOscillatorFlow(-0.1)
    for u in (-1, 1):
        eq = flow.equilibrium(u)
        np.testing.assert_allclose(eq, [float(u), 0.0])
        np.testing.assert_allclose(flow.apply(eq, u, 3.21), eq, atol=1e-13)
        np.testing.assert_allclose(flow.velocity(eq, u), 0.0, atol=1e-13)


def test_velocity_is_path_derivative():
    flow = AffineOscillatorFlow(-0.1)
    y = np.array([0.7, 1.1])
    h = 1e-6
    for u in (-1, 1):
        for t in (0.0, 1.4):
            fd = (flow.apply(y, u, t + h) - flow.apply(y, u, t - h)) / (2 * h)
            np.testing.assert_allclose(flow.velocity(flow.apply(y, u, t), u),
                                       fd, rtol=0, atol=1e-7)


def test_jacobian_is_state_transition_matrix():
    flow = AffineOscillatorFlow(-0.1)
    y = np.array([0.2, -0.9])
    np.testing.assert_allclose(flow.jacobian(y, 1, 1.3), flow.flow_matrix(1.3))


def test_apply_variants_agree():
    flow = AffineOscillatorFlow(-0.1)
    rng = np.random.default_rng(3)
    ys = rng.normal(size=(6, 2))
    ts = rng.uniform(-3, 3, size=6)
    path = flow.apply_path(ys[0], -1, ts)
    batch = flow.apply_batch(ys, -1, ts)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(path[i], flow.apply(ys[0], -1, t), atol=1e-14)
        np.testing.assert_allclose(batch[i], flow.apply(ys[i], -1, t), atol=1e-14)


def test_apply_batch_broadcasts_one_state_exactly():
    flow = AffineOscillatorFlow(-0.1)
    rng = np.random.default_rng(4)
    y = rng.normal(size=2)
    ts = rng.uniform(-6, 6, size=200)
    for u in (-1, 1):
        one = flow.apply_batch(y, u, ts)
        tiled = flow.apply_batch(np.tile(y, (ts.size, 1)), u, ts)
        assert one.shape == (ts.size, 2)
        assert np.array_equal(one, tiled)
        assert np.array_equal(flow.apply_path(y, u, ts), one)


def test_lipschitz_bounds_velocity_difference():
    flow = AffineOscillatorFlow(-0.1)
    L = flow.lipschitz()
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.normal(size=(2, 2))
        gap = np.linalg.norm(flow.velocity(a, 1) - flow.velocity(b, 1))
        assert gap <= L * np.linalg.norm(a - b) + 1e-12


def test_numerical_flow_agrees_with_closed_form():
    zeta = -0.1
    closed = AffineOscillatorFlow(zeta)
    num = NumericalFlow(closed.velocity, dim=2,
                        field_jacobian=lambda y, u: companion(zeta))
    y = np.array([1.0, 0.5])
    for u in (-1, 1):
        for t in (-2.5, 0.0, 0.9, 4.0):
            np.testing.assert_allclose(num.apply(y, u, t), closed.apply(y, u, t),
                                       rtol=0, atol=1e-8)
    np.testing.assert_allclose(num.jacobian(y, 1, 1.2), closed.flow_matrix(1.2),
                               rtol=0, atol=1e-8)
    ts = np.array([-1.0, -0.2, 0.0, 0.4, 2.0])
    np.testing.assert_allclose(num.apply_path(y, -1, ts),
                               closed.apply_path(y, -1, ts), rtol=0, atol=1e-8)


def array_apply(flow, y, u, t):
    """The array formula of ``apply`` before it delegated to the scalar form."""
    z = flow.zeta
    e = math.exp(-z * t)
    c = math.cos(t)
    s = math.sin(t)
    omsq = 1.0 + z * z
    a11, a12 = e * (c + z * s), e * s
    a21, a22 = -e * omsq * s, e * (c - z * s)
    v1, v2 = e * (-z * s - c) + 1.0, e * omsq * s
    return np.array([a11 * y[0] + a12 * y[1] + u * v1,
                     a21 * y[0] + a22 * y[1] + u * v2])


def array_velocity(flow, y, u):
    return np.array([y[1], -2.0 * flow.zeta * y[1] - (1.0 + flow.zeta ** 2) * (y[0] - u)])


def test_apply_and_velocity_equal_the_array_formulas_bit_for_bit():
    rng = np.random.default_rng(41)
    for zeta in (-0.1, -0.3, 0.05):
        flow = AffineOscillatorFlow(zeta)
        for y, t in zip(rng.normal(scale=2.0, size=(300, 2)), rng.uniform(-6, 6, size=300)):
            for u in (-1, 1):
                assert np.array_equal(flow.apply(y, u, t), array_apply(flow, y, u, t))
                assert np.array_equal(flow.velocity(y, u), array_velocity(flow, y, u))
                assert flow._advance(float(y[0]), float(y[1]), u, t) == \
                    tuple(array_apply(flow, y, u, t))


def stacked_apply_batch(flow, ys, u, ts):
    """The batch formula with its two components joined by ``np.stack``."""
    ys = np.asarray(ys, dtype=float)
    ts = np.asarray(ts, dtype=float)
    z, omsq = flow.zeta, 1.0 + flow.zeta * flow.zeta
    e, c, s = np.exp(-z * ts), np.cos(ts), np.sin(ts)
    x = e * ((c + z * s) * ys[..., 0] + s * ys[..., 1]) + u * (e * (-z * s - c) + 1.0)
    xdot = e * (-omsq * s * ys[..., 0] + (c - z * s) * ys[..., 1]) + u * e * omsq * s
    return np.stack([x, xdot], axis=-1)


def test_apply_batch_equals_the_stacked_formula_bit_for_bit():
    rng = np.random.default_rng(43)
    flow = AffineOscillatorFlow(-0.1)
    ts = rng.uniform(-8.0, 8.0, size=(5, 7))
    cases = [(rng.normal(size=2), ts[0]),            # one state broadcast
             (rng.normal(size=(7, 2)), ts[1]),        # a (k, 2) stack
             (rng.normal(size=(5, 7, 2)), ts),        # a (k, m, 2) stack
             (rng.normal(size=2), ts)]                # one state on a (k, m) grid
    for ys, t in cases:
        for u in (-1, 1):
            got = flow.apply_batch(ys, u, t)
            want = stacked_apply_batch(flow, ys, u, t)
            assert got.shape == want.shape == np.shape(t) + (2,)
            assert np.array_equal(got, want)


def test_transition_rows_equal_the_scalar_transition_bit_for_bit():
    # compared as bit patterns: == passes -0.0 against +0.0, and a21 of A(0) is -0.0
    from relaydyn.cli import DEFAULTS
    bifmap, unfold = DEFAULTS["bifmap"], DEFAULTS["unfold"]
    rng = np.random.default_rng(30)
    ts = np.concatenate([rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 2000),
                         [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-200, 1e-17, -2.0 ** -30],
                         np.linspace(*bifmap["tau_range"], bifmap["n_tau"]),
                         np.linspace(math.pi + 0.05, unfold["tau_max"], unfold["n_collision"])])
    for zeta in (-0.1, -0.3, 0.05, 0.0):
        flow = AffineOscillatorFlow(zeta)
        rows = flow.transition_rows(ts)
        assert all(r.shape == ts.shape and r.flags.c_contiguous for r in rows)
        want = np.array([flow._transition(t) for t in ts.tolist()])
        assert np.array_equal(np.stack(rows, axis=-1).view(np.uint64), want.view(np.uint64))
    assert np.signbit(AffineOscillatorFlow(-0.1).transition_rows([0.0])[2][0])


def test_apply_rows_equals_apply_bit_for_bit():
    # np.exp differs from libm in the last bit on some arguments; the rows
    # must not, here over times far past one period too
    rng = np.random.default_rng(44)
    n = 3000
    ys = rng.normal(scale=2.0, size=(n, 2))
    us = rng.choice([-1, 1], size=n)
    ts = np.concatenate([rng.uniform(-8.0, 8.0, n // 2), rng.uniform(0.0, 500.0, n - n // 2)])
    for zeta in (-0.1, -0.3, 0.05):
        flow = AffineOscillatorFlow(zeta)
        want = np.array([flow.apply(y, u, t)
                         for y, u, t in zip(ys, us.tolist(), ts.tolist())])
        assert np.array_equal(flow.apply_rows(ys, us, ts), want)
    assert flow.apply_rows(ys[:0], us[:0], ts[:0]).shape == (0, 2)
    num = NumericalFlow(lambda y, u: [y[1], -y[0] + u], 2)
    np.testing.assert_array_equal(num.apply_rows(ys[:3], us[:3], ts[:3] / 8.0),
                                  [num.apply(y, u, t) for y, u, t in
                                   zip(ys[:3], us[:3].tolist(), (ts[:3] / 8.0).tolist())])
