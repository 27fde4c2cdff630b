"""Adaptive RK45 flow, the tests' oracle for the closed-form flows.

It has the flow methods that ``RelaySystem``, ``BreakpointHistory`` and
``Trajectory`` call, so a test can drop it in where the closed form goes.
"""

import numpy as np
from scipy.integrate import solve_ivp

RTOL = ATOL = 1e-10


class NumericalFlow:
    """Flow of y' = field(y, u) by ``scipy.integrate.solve_ivp`` (RK45).

    ``field_jacobian(y, u)``, when given, lets :meth:`jacobian` integrate
    the variational equations.
    """

    def __init__(self, field, dim, field_jacobian=None):
        self.field = field
        self.dim = int(dim)
        self.field_jacobian = field_jacobian

    @staticmethod
    def _solve(rhs, z0, t, dense=False):
        sol = solve_ivp(rhs, (0.0, t), z0, method="RK45", rtol=RTOL, atol=ATOL,
                        dense_output=dense)
        if not sol.success:
            raise RuntimeError(f"RK45 failed over span (0, {t}): {sol.message}")
        return sol

    def _flow(self, y, u, t, dense=False):
        return self._solve(lambda s, yy: self.field(yy, u), np.asarray(y, float), t, dense)

    def apply(self, y, u, t):
        if t == 0.0:  # solve_ivp rejects empty spans
            return np.asarray(y, float).copy()
        return self._flow(y, u, t).y[:, -1]

    def apply_path(self, y, u, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, self.dim))
        for sel in (ts > 0.0, ts < 0.0):
            if sel.any():
                span = ts[sel][np.argmax(np.abs(ts[sel]))]
                out[sel] = self._flow(y, u, span, dense=True).sol(ts[sel]).T
        out[ts == 0.0] = np.asarray(y, float)
        return out

    def apply_rows(self, ys, us, ts):
        rows = [self.apply(y, u, t) for y, u, t in
                zip(ys, np.asarray(us).tolist(), np.asarray(ts, dtype=float).tolist())]
        return np.array(rows).reshape(len(rows), self.dim)

    def velocity(self, y, u):
        return np.asarray(self.field(y, u), dtype=float)

    def jacobian(self, y, u, t):
        n = self.dim
        if t == 0.0:
            return np.eye(n)

        def rhs(s, z):
            yy = z[:n]
            M = z[n:].reshape(n, n)
            return np.concatenate([self.field(yy, u),
                                   (self.field_jacobian(yy, u) @ M).ravel()])

        z0 = np.concatenate([np.asarray(y, float), np.eye(n).ravel()])
        return self._solve(rhs, z0, t).y[n:, -1].reshape(n, n)
