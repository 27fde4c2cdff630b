"""Flow backends for the two constant-input vector fields of a relay system.

A flow backend knows how to advance a state under either of the two frozen
inputs u = +1 / u = -1, evaluate the vector field itself, and report the
derivative of the time-t flow with respect to the initial state.

:class:`AffineOscillatorFlow` is the damped harmonic oscillator with
constant forcing, advanced in closed form.  It is valid for positive *and*
negative times, which the return-map construction relies on.  Consumers
(``RelaySystem``, ``BreakpointHistory``, ``Trajectory``) take any object
with the same methods.

The closed form of A(t) and v(t) is written once for each rounding that
callers depend on: ``_transition`` on floats (``apply``, ``flow_matrix``,
``flow_offset``, ``continuation``'s scalar loops); ``transition_rows``, its
bit-for-bit twin on arrays with ``math.exp`` per element, since ``np.exp``
can differ from libm in the last bit (``apply_rows``, so histories and
trajectories, and ``oscillator``'s stacked corners); and ``apply_batch``,
factored with ``np.exp``, whose bits ``family`` and the relay's crossing
scan carry.  ``reduced.CrossingKernel._newton`` writes two more copies
inline, in ``_transition``'s association, so that ``sweep``'s Newton steps
make no method call (``BENCH_29.json``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["AffineOscillatorFlow"]


class AffineOscillatorFlow:
    """Closed-form flow of  x'' + 2*zeta*x' + (1+zeta^2)*x = (1+zeta^2)*u.

    The state is y = (x, x').  With u frozen at +1 or -1 the system is affine,
    y' = B y + u*b, and the flow is y(t) = A(t) y0 + u * v(t) with

        A(t) = exp(-zeta*t) * [[cos t + zeta*sin t,        sin t       ],
                               [-(1+zeta^2)*sin t,  cos t - zeta*sin t]],

        v(t) = exp(-zeta*t) * (-zeta*sin t - cos t + exp(zeta*t),
                               (1+zeta^2)*sin t).

    Both formulas hold for every real t; negative times run the flow
    backwards exactly.  The equilibria are (u, 0).  For zeta < 0 they are
    unstable foci, the regime where the relay feedback produces the
    self-sustained oscillations this package studies.
    """

    dim = 2

    def __init__(self, zeta: float):
        self.zeta = float(zeta)
        self._omsq = 1.0 + self.zeta * self.zeta

    # -- closed-form pieces ----------------------------------------------

    def flow_matrix(self, t: float) -> np.ndarray:
        """State-transition matrix A(t) of the homogeneous part."""
        return np.array(self._matrix(t)).reshape(2, 2)

    def _transition(self, t: float) -> tuple[float, float, float, float, float, float]:
        """A(t) row by row and v(t), as six floats: a11, a12, a21, a22, v1, v2."""
        z = self.zeta
        e = math.exp(-z * t)
        c = math.cos(t)
        s = math.sin(t)
        return (e * (c + z * s), e * s, -e * self._omsq * s, e * (c - z * s),
                e * (-z * s - c) + 1.0, e * self._omsq * s)

    def transition_rows(self, ts) -> tuple[np.ndarray, ...]:
        """:meth:`_transition` for each entry of the 1-D ts, bit for bit, as six
        1-D arrays: the same products in the same order, ``math.exp`` per entry."""
        ts = np.asarray(ts, dtype=float)
        z = self.zeta
        e = np.array(list(map(math.exp, (-z * ts).tolist())))
        c = np.cos(ts)
        s = np.sin(ts)
        return (e * (c + z * s), e * s, -e * self._omsq * s, e * (c - z * s),
                e * (-z * s - c) + 1.0, e * self._omsq * s)

    def _matrix(self, t: float) -> tuple[float, float, float, float]:
        """The entries of :meth:`flow_matrix`, row by row, as four floats."""
        return self._transition(t)[:4]

    def flow_offset(self, t: float) -> np.ndarray:
        """Forced response v(t), i.e. the flow of the origin under u = +1."""
        return np.array(self._transition(t)[4:])

    def _advance(self, x: float, xdot: float, u: int, t: float) -> tuple[float, float]:
        """:meth:`apply` on a state given as two floats; returns two floats."""
        a11, a12, a21, a22, v1, v2 = self._transition(t)
        return (a11 * x + a12 * xdot + u * v1,
                a21 * x + a22 * xdot + u * v2)

    def _accel(self, x: float, xdot: float, u: int) -> float:
        """Second component of :meth:`velocity` on a state given as two floats."""
        return -2.0 * self.zeta * xdot - self._omsq * (x - u)

    # -- backend interface -------------------------------------------------

    def apply(self, y, u: int, t: float) -> np.ndarray:
        """Advance y by time t (any sign) under frozen input u."""
        return np.array(self._advance(y[0], y[1], u, t))

    def apply_batch(self, ys, u: int, ts) -> np.ndarray:
        """Row-paired :meth:`apply`: ys[i] advanced by ts[i]; one state broadcasts."""
        ys = np.asarray(ys, dtype=float)
        ts = np.asarray(ts, dtype=float)
        z = self.zeta
        e = np.exp(-z * ts)
        c = np.cos(ts)
        s = np.sin(ts)
        x = e * ((c + z * s) * ys[..., 0] + s * ys[..., 1]) + u * (e * (-z * s - c) + 1.0)
        xdot = e * (-self._omsq * s * ys[..., 0] + (c - z * s) * ys[..., 1]) \
            + u * e * self._omsq * s
        out = np.empty(x.shape + (2,))
        out[..., 0] = x
        out[..., 1] = xdot
        return out

    apply_path = apply_batch  # one state, one row per entry of ts

    def apply_rows(self, ys, us, ts) -> np.ndarray:
        """Row-paired :meth:`apply`, one input per row: ys[i] under us[i] by ts[i].

        Each row equals :meth:`apply` bit for bit: :meth:`_advance`'s
        arithmetic in its association, on :meth:`transition_rows`.  A single
        input broadcasts.
        """
        ys = np.asarray(ys, dtype=float)
        a11, a12, a21, a22, v1, v2 = self.transition_rows(ts)
        x, xdot = ys[:, 0], ys[:, 1]
        out = np.empty((a11.size, 2))
        out[:, 0] = a11 * x + a12 * xdot + us * v1
        out[:, 1] = a21 * x + a22 * xdot + us * v2
        return out

    def velocity(self, y, u: int) -> np.ndarray:
        """Vector field f(y, u)."""
        return np.array([y[1], self._accel(y[0], y[1], u)])

    def jacobian(self, y, u: int, t: float) -> np.ndarray:
        """d(flow)/d(initial state); state-independent for an affine system."""
        return self.flow_matrix(t)

    def equilibrium(self, u: int) -> np.ndarray:
        return np.array([float(u), 0.0])

    def lipschitz(self) -> float:
        """2-norm of the linear part; a Lipschitz constant of f in y."""
        B = np.array([[0.0, 1.0], [-self._omsq, -2.0 * self.zeta]])
        return float(np.linalg.norm(B, 2))

    def __repr__(self) -> str:
        return f"AffineOscillatorFlow(zeta={self.zeta})"
