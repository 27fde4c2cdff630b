"""Newton solvers and pseudo-arclength continuation for the reduced map.

Three layers:

* generic plumbing: :func:`newton` on square residual problems with
  forward-difference Jacobians, and :func:`continue_branch`, a
  pseudo-arclength corrector that halves its step on Newton failure and
  multiplies it by 1.5 after every accepted point;
* the oscillator's algebraic systems: fixed points of the diffeomorphism
  branch (:func:`fixed_point_residual`), their Neimark-Sacker locus
  (:func:`ns_residual` and its closed-form Jacobian :func:`ns_jacobian`,
  :func:`continue_ns_curve`);
* closed invariant curves by Fourier collocation (:class:`FourierCurve`,
  :func:`invariant_curve_residual`) and the one-parameter family of
  curves that graze the switching threshold
  (:func:`continue_colliding_family`), whose breakup is detected through
  a spectral error estimate.

The invariant curve is parametrized by angle about a base point,
y(phi) = y0 + r(phi) (cos phi, sin phi), with the angle dynamics stored
as eta(phi) = phi + omega + p(phi) where p is a zero-mean trigonometric
polynomial; keeping p mean-free pins the otherwise redundant split
between the rotation omega and the mean of p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._roots import brentq
from .errors import (BreakupDetected, DegenerateDerivative, InitialPointFailed,
                     NoConvergence, NotAMaximum, ParametrizationBreakdown, RelayDynError,
                     SingularJacobian)
from .flows import AffineOscillatorFlow
from .oscillator import collision_point, find_nsc
from .reduced import crossing_time, jacobian_F_branch, oscillator_context

__all__ = [
    "ResidualProblem",
    "fd_jacobian",
    "newton",
    "BranchPoint",
    "Branch",
    "continue_branch",
    "fixed_point_residual",
    "solve_fixed_point",
    "ns_residual",
    "ns_jacobian",
    "continue_ns_curve",
    "FourierCurve",
    "invariant_curve_residual",
    "collision_closure",
    "solve_colliding_curve",
    "seed_colliding_curve",
    "continue_colliding_family",
    "fourier_error_estimate",
    "curve_radial_mismatch",
]

FD_STEP = 1e-7


@dataclass(frozen=True)
class ResidualProblem:
    """A residual map G together with an optional Jacobian.

    ``jacobian(z, f0)`` receives f0 = G(z) when the caller already has it,
    otherwise None; without a ``jacobian`` the forward-difference
    :func:`fd_jacobian` is used.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray | None], np.ndarray] | None = None

    def jac(self, z: np.ndarray, f0: np.ndarray | None = None) -> np.ndarray:
        if self.jacobian is not None:
            return np.asarray(self.jacobian(z, f0), dtype=float)
        return fd_jacobian(self.residual, z, f0)


@dataclass(frozen=True)
class _Bordered:
    """``problem`` with the linear equation ``normal @ (z - point) = 0`` appended."""

    problem: ResidualProblem
    normal: np.ndarray
    point: np.ndarray

    def residual(self, z: np.ndarray) -> np.ndarray:
        return np.append(self.problem.residual(z), self.normal @ (z - self.point))

    def jac(self, z: np.ndarray, f0: np.ndarray | None = None) -> np.ndarray:
        """``problem.jac`` over the forward-difference row of the border.

        Entry for entry this is what ``fd_jacobian(self.residual, z, f0)``
        computes, while a problem with its own ``jacobian`` keeps using it:
        the stacked ``np.matmul`` takes each perturbed row's dot product on
        its own, as the residual does (a 2-D ``@`` is a gemv, whose bits
        differ).
        """
        z = np.asarray(z, dtype=float)
        if f0 is None:
            f0 = self.residual(z)
        border = np.matmul((_perturbed(z) - self.point)[:, None, :], self.normal[:, None])
        row = (border[:, 0, 0] - f0[-1]) / FD_STEP
        return np.vstack([self.problem.jac(z, f0[:-1]), row])


def fd_jacobian(fn: Callable, z: np.ndarray, f0: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference Jacobian of fn at z."""
    z = np.asarray(z, dtype=float)
    if f0 is None:
        f0 = np.asarray(fn(z), dtype=float)
    J = np.empty((f0.size, z.size))
    for j in range(z.size):
        zp = z.copy()
        zp[j] += FD_STEP
        J[:, j] = (np.asarray(fn(zp), dtype=float) - f0) / FD_STEP
    return J


def newton(problem: ResidualProblem | Callable, z0, tol: float = 1e-10,
           max_iter: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration for a square residual system.

    Returns the solution and the residual there.  Raises
    :class:`NoConvergence` when the residual max-norm is still above tol
    after max_iter steps and :class:`SingularJacobian` when a linear solve
    fails.
    """

    if callable(problem):
        problem = ResidualProblem(problem)
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(max_iter):
        f = np.asarray(problem.residual(z), dtype=float)
        if not np.all(np.isfinite(f)):
            raise NoConvergence("residual is not finite")
        if np.max(np.abs(f)) <= tol:
            return z, f
        J = problem.jac(z, f)
        try:
            step = np.linalg.solve(J, f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("linear solve produced non-finite step")
        z -= step
    f = np.asarray(problem.residual(z), dtype=float)
    if np.all(np.isfinite(f)) and np.max(np.abs(f)) <= tol:
        return z, f
    raise NoConvergence(
        f"residual {np.max(np.abs(f)):.3e} above {tol:.1e} after {max_iter} iterations")


# ---------------------------------------------------------------------------
# pseudo-arclength continuation


@dataclass
class BranchPoint:
    """One accepted continuation point: full unknown vector plus metadata."""

    w: np.ndarray
    residual_norm: float
    step: float
    data: dict = field(default_factory=dict)


@dataclass
class Branch:
    """Ordered continuation points and the reason the run stopped."""

    points: list[BranchPoint] = field(default_factory=list)
    termination: str = ""
    message: str = ""

    def values(self, key: str) -> np.ndarray:
        return np.asarray([p.data[key] for p in self.points], dtype=float)

    def __len__(self) -> int:
        return len(self.points)


def _tangent(J: np.ndarray) -> np.ndarray:
    """Unit kernel vector of the (n-1) x n continuation Jacobian."""
    _, _, vt = np.linalg.svd(J)
    return vt[-1]


def continue_branch(problem: ResidualProblem | Callable, w0, *, ds: float = 1e-2,
                    ds_min: float = 1e-8, ds_max: float = 0.2,
                    max_points: int = 400,
                    direction: np.ndarray | None = None,
                    fix_index: int | None = None,
                    point_data: Callable[[np.ndarray], dict] | None = None,
                    stop: Callable[[BranchPoint], str | None] | None = None) -> Branch:
    """Trace a solution branch of G(w) = 0 with dim G = dim w - 1.

    The seed is first corrected with coordinate ``fix_index`` (default:
    last) frozen; failure raises :class:`InitialPointFailed`.  Each step
    then predicts along the branch tangent and corrects in the hyperplane
    orthogonal to it; Newton failures halve the step (stopping at the
    floor), and every accepted point multiplies it by 1.5, up to the cap.
    ``stop`` inspects every accepted point and may end the run by
    returning a reason string or raising a :class:`RelayDynError`
    (recorded, not propagated).  Every
    Jacobian, of the bordered corrector systems and for the tangent, comes
    from ``problem.jac``; a plain callable is wrapped in a
    :class:`ResidualProblem`.  Correctors take at most 12 Newton steps.
    """

    if callable(problem):
        problem = ResidualProblem(problem)
    w0 = np.asarray(w0, dtype=float).copy()
    n = w0.size
    k = n - 1 if fix_index is None else fix_index

    try:
        w, f = newton(_Bordered(problem, np.eye(1, n, k)[0], w0), w0, max_iter=12)
    except RelayDynError as exc:
        raise InitialPointFailed(f"seed correction failed: {exc}") from exc

    branch = Branch()

    def accept(wp, f, step):
        # f is the bordered residual at wp, so f[:-1] is problem.residual(wp)
        rn = float(np.max(np.abs(f[:-1])))
        point = BranchPoint(w=wp, residual_norm=rn, step=step,
                            data=point_data(wp) if point_data else {})
        branch.points.append(point)
        if stop is not None:
            reason = stop(point)
            if reason:
                branch.termination = reason
                return False
        return True

    if not accept(w, f, 0.0):
        return branch

    t = _tangent(problem.jac(w, f[:-1]))
    if direction is not None:
        if float(np.dot(t, direction)) < 0:
            t = -t
    step = ds
    while len(branch.points) < max_points:
        pred = w + step * t
        try:
            w_new, f = newton(_Bordered(problem, t, pred), pred, max_iter=12)
        except (RelayDynError, np.linalg.LinAlgError) as exc:
            step *= 0.5
            if step < ds_min:
                branch.termination = "step-floor"
                branch.message = str(exc)
                return branch
            continue
        w = w_new
        try:
            if not accept(w, f, step):
                return branch
        except RelayDynError as exc:
            branch.termination = type(exc).__name__
            branch.message = str(exc)
            return branch
        try:
            t_new = _tangent(problem.jac(w, f[:-1]))
        except (RelayDynError, np.linalg.LinAlgError) as exc:
            branch.termination = "tangent-failure"
            branch.message = str(exc)
            return branch
        if float(np.dot(t_new, t)) < 0:
            t_new = -t_new
        t = t_new
        step = min(1.5 * step, ds_max)
    branch.termination = branch.termination or "max-points"
    return branch


# ---------------------------------------------------------------------------
# fixed points of the diffeomorphism branch and their Neimark-Sacker locus


def fixed_point_residual(y0, t0: float, tau: float, alpha: float,
                         epsilon: float, zeta: float) -> np.ndarray:
    """Residual of the branch-minus fixed point with crossing offset t0.

    Components: y0 + Y_+^(tau+t0) y0 (the half-return closes with the sign
    flip) and eps - h(Y_-^(t0) y0) (the crossing sits on the threshold).
    """

    y0 = np.asarray(y0, dtype=float)
    flow = AffineOscillatorFlow(zeta)
    c = np.array([math.cos(alpha), math.sin(alpha)])
    res12 = y0 + flow.apply(y0, +1, tau + t0)
    res3 = epsilon - float(c @ flow.apply(y0, -1, t0))
    return np.array([res12[0], res12[1], res3])


def solve_fixed_point(zeta: float, tau: float, alpha: float,
                      epsilon: float) -> tuple[np.ndarray, float]:
    """Newton solve, to 1e-12, for the branch-minus fixed point from the corner."""
    y_star = collision_point(zeta, tau)
    z0 = np.array([y_star[0], y_star[1], 0.0])

    def fn(z):
        return fixed_point_residual(z[:2], z[2], tau, alpha, epsilon, zeta)

    z, _ = newton(fn, z0, tol=1e-12)
    return z[:2], float(z[2])


def _minus_jacobian(y0, tau, alpha, epsilon, zeta) -> np.ndarray:
    # wide crossing window: along continuation curves the fixed point's
    # crossing offset can grow well past the local-map default of 0.1 tau
    ctx = oscillator_context(zeta, alpha, tau, epsilon,
                             y_ref=np.asarray(y0, float), delta=0.45 * tau)
    return jacobian_F_branch(ctx, np.asarray(y0, float), -1)


def ns_residual(y0, t0: float, tau: float, alpha: float, epsilon: float,
                zeta: float) -> tuple[np.ndarray, float]:
    """Fixed-point residual extended by det(DF_minus) - 1, in closed form.

    With T = tau + t0, w = Y_+^T y0, z = Y_-^(t0) y0 and g = c . f(z, -1),

        DF_minus = -A(T) + f(w, +1) (c^T A(t0)) / g,

    which is :func:`~relaydyn.reduced.jacobian_F_branch` with the unknown
    t0 in place of the solved crossing time; on the locus the two agree.
    Everything runs on floats, with no crossing-time solve.  Returns the
    four residual components and the trace of DF_minus; a Neimark-Sacker
    point additionally needs |trace| < 2, otherwise the unit determinant
    pairs two real reciprocal eigenvalues.  Raises
    :class:`DegenerateDerivative` when |g| < 1e-12.
    """

    flow = AffineOscillatorFlow(zeta)
    x, xdot, t0 = float(y0[0]), float(y0[1]), float(t0)
    T = float(tau) + t0
    w0, w1 = flow._advance(x, xdot, +1, T)
    z0, z1 = flow._advance(x, xdot, -1, t0)
    ca, sa = math.cos(alpha), math.sin(alpha)
    g = ca * z1 + sa * flow._accel(z0, z1, -1)
    if abs(g) < 1e-12:
        raise DegenerateDerivative("threshold crossing is tangent, no linearisation")
    (a11, a12, a21, a22), (b11, b12, b21, b22) = flow._matrix(t0), flow._matrix(T)
    r0, r1 = (ca * a11 + sa * a21) / g, (ca * a12 + sa * a22) / g
    f0, f1 = w1, flow._accel(w0, w1, +1)
    j00, j01 = f0 * r0 - b11, f0 * r1 - b12
    j10, j11 = f1 * r0 - b21, f1 * r1 - b22
    res = np.array([x + w0, xdot + w1, epsilon - (ca * z0 + sa * z1),
                    j00 * j11 - j01 * j10 - 1.0])
    return res, j00 + j11


def ns_jacobian(y0, t0: float, tau: float, alpha: float, epsilon: float,
                zeta: float) -> np.ndarray:
    """The 4 x 5 Jacobian of :func:`ns_residual`'s residual in (x, x', t0, tau, alpha).

    In the notation there, with r^T = c^T A(t0) / g and F = f(w, +1) so
    that DF_minus = J = -A(T) + F r^T: A' = B A for the linear part B of
    the vector field, w' = F, z' = f(z, -1), dc/dalpha = c_perp and
    d det J = tr(adj J dJ).  Each dJ is a sum of outer products p q^T, for
    which tr(adj J p q^T) = q^T adj(J) p, and of -B A(T) from the delay.
    Raises :class:`DegenerateDerivative` where :func:`ns_residual` does.
    """

    flow = AffineOscillatorFlow(zeta)
    x, xdot, t0 = float(y0[0]), float(y0[1]), float(t0)
    T = float(tau) + t0
    w0, w1 = flow._advance(x, xdot, +1, T)
    z0, z1 = flow._advance(x, xdot, -1, t0)
    ca, sa = math.cos(alpha), math.sin(alpha)
    zdot = flow._accel(z0, z1, -1)
    g = ca * z1 + sa * zdot
    if abs(g) < 1e-12:
        raise DegenerateDerivative("threshold crossing is tangent, no linearisation")
    (a11, a12, a21, a22), (b11, b12, b21, b22) = flow._matrix(t0), flow._matrix(T)

    def lin(v0, v1):  # B v
        return v1, flow._accel(v0, v1, 0)

    (db11, db21), (db12, db22) = lin(b11, b21), lin(b12, b22)  # A'(T) = B A(T)
    (da11, da21), (da12, da22) = lin(a11, a21), lin(a12, a22)  # A'(t0)
    h0, h1 = ca * a11 + sa * a21, ca * a12 + sa * a22  # c^T A(t0) = dh(z)/dy
    r0, r1 = h0 / g, h1 / g
    f0, f1 = w1, flow._accel(w0, w1, +1)
    j00, j01 = f0 * r0 - b11, f0 * r1 - b12
    j10, j11 = f1 * r0 - b21, f1 * r1 - b22

    def quad(p0, p1, q0, q1):  # q^T adj(J) p
        return q0 * (j11 * p0 - j01 * p1) + q1 * (j00 * p1 - j10 * p0)

    # dg/dy = c^T B A(t0); the y columns of J are (B A(T) e_k - F dg_k / g) r^T
    dg0, dg1 = ca * da11 + sa * da21, ca * da12 + sa * da22
    d_y0 = quad(db11 - f0 * dg0 / g, db21 - f1 * dg0 / g, r0, r1)
    d_y1 = quad(db12 - f0 * dg1 / g, db22 - f1 * dg1 / g, r0, r1)
    # tau moves T only: -B A(T) + (B F) r^T
    bf0, bf1 = lin(f0, f1)
    d_tau = quad(bf0, bf1, r0, r1) - (j11 * db11 - j01 * db21 - j10 * db12 + j00 * db22)
    # t0 also moves r: dr = (c^T B A(t0) - r c . B z') / g
    bz0, bz1 = lin(z1, zdot)
    dg_t = ca * bz0 + sa * bz1
    d_t0 = d_tau + quad(f0, f1, (dg0 - r0 * dg_t) / g, (dg1 - r1 * dg_t) / g)
    # alpha moves c: dr = (c_perp^T A(t0) - r c_perp . z') / g
    dg_a = -sa * z1 + ca * zdot
    d_alpha = quad(f0, f1, (-sa * a11 + ca * a21 - r0 * dg_a) / g,
                   (-sa * a12 + ca * a22 - r1 * dg_a) / g)
    return np.array([[1.0 + b11, b12, f0, f0, 0.0],
                     [b21, 1.0 + b22, f1, f1, 0.0],
                     [-h0, -h1, -g, 0.0, sa * z0 - ca * z1],
                     [d_y0, d_y1, d_t0, d_tau, d_alpha]])


def continue_ns_curve(zeta: float, epsilon: float, *,
                      nsc: tuple[float, float] | None = None,
                      tau_span: tuple[float, float] = (math.pi + 0.2, 5.5),
                      ds: float = 5e-3, ds_max: float = 5e-2,
                      max_points: int = 400) -> Branch:
    """Neimark-Sacker curve of the branch-minus fixed point in (tau, alpha).

    Unknowns are (y0, t0, tau, alpha) at fixed eps; the residual is the
    closed-form :func:`ns_residual` and every Jacobian, of the correctors
    and of the tangents, :func:`ns_jacobian`.  The seed is the on-surface NS
    point ``nsc`` = (tau, alpha), from :func:`find_nsc` when not given,
    where the fixed point is the corner itself (t0 = 0); the locus is
    traced in both delay directions from there and returned ordered by
    increasing tau.  Raises ``ValueError`` when the seed's delay lies
    outside ``tau_span``.

    A leg ends at its first point outside ``tau_span`` and keeps that
    point, so the curve reaches a little past both ends of the span: the
    default ``unfold`` rows run from tau = 3.329 to 5.017 over the span
    (pi + 0.2, 5.0).  A leg also ends, and drops the point, where
    |trace| >= 2 (``"trace-guard"``) or where the reduced map is not
    defined (``"crossing-window"``).  The closed form runs on past the
    crossing window, so every accepted point solves its crossing time once,
    and that solve must return t0 to 1e-9.
    """

    tau0, alpha0 = find_nsc(zeta, epsilon) if nsc is None else nsc
    if not tau_span[0] <= tau0 <= tau_span[1]:
        raise ValueError(f"NS point delay {tau0:.6g} lies outside tau_span {tau_span}")
    y0 = collision_point(zeta, tau0)
    seed = np.array([y0[0], y0[1], 0.0, tau0, alpha0])

    def residual(w):
        return ns_residual(w[:2], w[2], w[3], w[4], epsilon, zeta)[0]

    def jacobian(w, f0):
        return ns_jacobian(w[:2], w[2], w[3], w[4], epsilon, zeta)

    def point_data(w):
        _, tr = ns_residual(w[:2], w[2], w[3], w[4], epsilon, zeta)
        return {"tau": w[3], "alpha": w[4], "t0": w[2], "trace": tr}

    def in_window(w) -> bool:
        ctx = oscillator_context(zeta, w[4], w[3], epsilon, y_ref=w[:2], delta=0.45 * w[3])
        try:
            return abs(crossing_time(ctx, w[:2], -1) - w[2]) <= 1e-9
        except RelayDynError:
            return False

    def stop(point):
        if not in_window(point.w):
            return "crossing-window"
        if not tau_span[0] <= point.data["tau"] <= tau_span[1]:
            return "tau-bounds"
        if abs(point.data["trace"]) >= 2.0:
            return "trace-guard"
        return None

    def run(sign: float) -> Branch:
        direction = np.zeros(5)
        direction[3] = sign
        leg = continue_branch(ResidualProblem(residual, jacobian), seed, ds=ds,
                              ds_max=ds_max, max_points=max_points // 2,
                              direction=direction, fix_index=3,
                              point_data=point_data, stop=stop)
        if leg.termination in ("trace-guard", "crossing-window") and leg.points:
            leg.points.pop()  # not an NS point of the reduced map
        return leg

    down, up = run(-1.0), run(1.0)
    branch = Branch(points=list(reversed(down.points[1:])) + up.points,
                    termination=up.termination, message=up.message)
    return branch


# ---------------------------------------------------------------------------
# Fourier representation of closed invariant curves


@dataclass(frozen=True)
class _TrigTable:
    """cos(k phi) and sin(k phi), k = 1..n, at a fixed array of angles phi.

    ``phi`` may carry leading batch axes; ``cos``/``sin`` have shape
    phi.shape + (n,) and ``unit`` the rows (cos phi, sin phi).
    """

    phi: np.ndarray
    k: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    unit: np.ndarray

    @classmethod
    def at(cls, phi, n: int) -> "_TrigTable":
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        k = np.arange(1, n + 1)
        ka = phi[..., None] * k
        cos = np.cos(ka)
        # sin overwrites k*phi: one temporary fewer in the batched angle tables
        return cls(phi, k, cos, np.sin(ka, out=ka),
                   np.stack([np.cos(phi), np.sin(phi)], axis=-1))

    def series(self, coeffs: np.ndarray, zero_mean: bool = False, deriv: int = 0) -> np.ndarray:
        """Evaluate trigonometric polynomials [a0, a1, b1, ...] at phi.

        Leading axes of ``coeffs`` and of the table broadcast.  Every
        (m, n) @ (n, 1) slice of the stacked matmul is one gemv, the same
        call the one-polynomial case makes, so a batch row equals its
        unbatched evaluation bit for bit (a single gemm would not).
        """
        if zero_mean:
            a0, rest = 0.0, coeffs
        else:
            a0, rest = coeffs[..., :1], coeffs[..., 1:]
        k, A, B = self.k, rest[..., 0::2, None], rest[..., 1::2, None]
        if deriv == 0:
            return a0 + (self.cos @ A)[..., 0] + (self.sin @ B)[..., 0]
        if deriv == 1:
            return -((self.sin * k) @ A)[..., 0] + ((self.cos * k) @ B)[..., 0]
        if deriv == 2:
            return -((self.cos * k * k) @ A)[..., 0] - ((self.sin * k * k) @ B)[..., 0]
        raise ValueError("deriv must be 0, 1 or 2")

    def points(self, y0: np.ndarray, r_coeffs: np.ndarray) -> np.ndarray:
        """Curve points y0 + r(phi) (cos phi, sin phi)."""
        return y0 + self.series(r_coeffs)[..., None] * self.unit


@functools.lru_cache(maxsize=16)
def _node_trig(n_modes: int, midpoint: bool = False) -> _TrigTable:
    """Read-only table at the 2n+1 collocation nodes, or midway between them.

    The residual evaluates the same few node sets tens of thousands of times
    per continuation, so each table is built once and shared.
    """
    m = 2 * n_modes + 1
    phi = 2.0 * math.pi * ((np.arange(m) + 0.5) if midpoint else np.arange(m)) / m
    table = _TrigTable.at(phi, n_modes)
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def _series_val(coeffs: np.ndarray, phi, zero_mean: bool = False, deriv: int = 0):
    """Evaluate a real trigonometric polynomial [a0, a1, b1, ...] at phi."""
    n = (coeffs.size if zero_mean else coeffs.size - 1) // 2
    out = _TrigTable.at(phi, n).series(coeffs, zero_mean, deriv)
    return out if np.ndim(phi) else float(out[0])


def _fit_series(samples: np.ndarray, zero_mean: bool = False) -> np.ndarray:
    """Exact trigonometric interpolation on the standard odd node set."""
    m = samples.size
    n = (m - 1) // 2
    spec = np.fft.fft(samples) / m
    coeffs = np.empty(2 * n + 1)
    coeffs[0] = spec[0].real
    coeffs[1::2] = 2.0 * spec[1:n + 1].real
    coeffs[2::2] = -2.0 * spec[1:n + 1].imag
    return coeffs[1:] if zero_mean else coeffs


@dataclass
class FourierCurve:
    """Closed curve y(phi) = y0 + r(phi)(cos phi, sin phi) with dynamics data.

    ``r_coeffs`` and ``t_coeffs`` are full trigonometric polynomials
    [a0, a1, b1, ...] for the radius and the crossing offset; the angle
    image is eta(phi) = phi + omega + p(phi) with ``p_coeffs`` zero-mean
    (no a0 entry).  ``y0``/``t0`` are the enclosed fixed point and its
    offset.
    """

    n_modes: int
    r_coeffs: np.ndarray
    t_coeffs: np.ndarray
    p_coeffs: np.ndarray
    omega: float
    y0: np.ndarray
    t0: float

    def __post_init__(self):
        n = self.n_modes
        if self.r_coeffs.size != 2 * n + 1 or self.t_coeffs.size != 2 * n + 1 \
                or self.p_coeffs.size != 2 * n:
            raise ValueError("coefficient vector sizes inconsistent with n_modes")

    # -- evaluation ---------------------------------------------------------

    def nodes(self) -> np.ndarray:
        """The 2n+1 collocation angles (a shared, read-only array)."""
        return _node_trig(self.n_modes).phi

    def radius(self, phi):
        return _series_val(self.r_coeffs, phi)

    def offset(self, phi, deriv: int = 0):
        """Crossing offset t(phi) along the curve."""
        return _series_val(self.t_coeffs, phi, deriv=deriv)

    def eta(self, phi):
        return np.asarray(phi, dtype=float) + self.omega \
            + _series_val(self.p_coeffs, phi, zero_mean=True)

    def eta_prime(self, phi):
        return 1.0 + _series_val(self.p_coeffs, phi, zero_mean=True, deriv=1)

    def point(self, phi) -> np.ndarray:
        pts = _TrigTable.at(phi, self.n_modes).points(self.y0, self.r_coeffs)
        return pts if np.ndim(phi) else pts[0]

    def tabulate(self, phi: np.ndarray) -> tuple[np.ndarray, ...]:
        """(r, eta, t, point) at each angle of a 1-D array, from one table.

        Each angle is its own (1, n) slice of the table, so every value
        equals the scalar ``radius``/``eta``/``offset``/``point`` at that
        angle bit for bit.
        """
        phi = np.asarray(phi, dtype=float)
        trig = _TrigTable.at(phi[:, None], self.n_modes)
        eta = phi + self.omega + trig.series(self.p_coeffs, zero_mean=True)[:, 0]
        return (trig.series(self.r_coeffs)[:, 0], eta, trig.series(self.t_coeffs)[:, 0],
                trig.points(self.y0, self.r_coeffs)[:, 0])

    def mean_radius(self) -> float:
        return float(self.r_coeffs[0])

    # -- invariants ---------------------------------------------------------

    def check_parametrization(self):
        """Raise :class:`ParametrizationBreakdown` unless r > 0 and eta' > 0."""
        phi = self.nodes()
        if np.min(self.radius(phi)) <= 0.0:
            raise ParametrizationBreakdown("radius vanishes at a collocation node")
        if np.min(self.eta_prime(phi)) <= 0.0:
            raise ParametrizationBreakdown("angle image not strictly increasing")

    # -- packing ------------------------------------------------------------

    def pack(self) -> np.ndarray:
        return np.concatenate([self.r_coeffs, self.t_coeffs, self.p_coeffs,
                               [self.omega], self.y0, [self.t0]])

    @classmethod
    def unpack(cls, n_modes: int, z: np.ndarray) -> "FourierCurve":
        z = np.asarray(z, dtype=float)
        m = 2 * n_modes + 1
        if z.size != cls.dim(n_modes):
            raise ValueError("vector length does not match n_modes")
        r = z[:m]
        t = z[m:2 * m]
        p = z[2 * m:2 * m + 2 * n_modes]
        rest = z[2 * m + 2 * n_modes:]
        return cls(n_modes=n_modes, r_coeffs=r.copy(), t_coeffs=t.copy(),
                   p_coeffs=p.copy(), omega=float(rest[0]),
                   y0=rest[1:3].copy(), t0=float(rest[3]))

    @staticmethod
    def dim(n_modes: int) -> int:
        return 6 * n_modes + 6

    def resample(self, n_modes: int) -> "FourierCurve":
        """Re-interpolate on a different mode count (exact when growing)."""
        phi = _node_trig(n_modes).phi
        return FourierCurve(
            n_modes=n_modes,
            r_coeffs=_fit_series(self.radius(phi)),
            t_coeffs=_fit_series(self.offset(phi)),
            p_coeffs=_fit_series(self.eta(phi) - phi - self.omega, zero_mean=True),
            omega=self.omega,
            y0=self.y0.copy(),
            t0=self.t0,
        )


def _angle_table(trig: _TrigTable, p_coeffs: np.ndarray, omega) -> _TrigTable:
    """Table at the angle images eta = phi + omega + p(phi) of a node table."""
    return _TrigTable.at(trig.phi + omega + trig.series(p_coeffs, zero_mean=True),
                         trig.k.size)


def _advance(pts: np.ndarray, t_phi: np.ndarray, tau: float, alpha: float,
             epsilon: float, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Curve points advanced for tau + t(phi) under input +1 (fwd), and the
    threshold defect after t(phi) under input -1 (on_line)."""
    flow = AffineOscillatorFlow(zeta)
    c = np.array([math.cos(alpha), math.sin(alpha)])
    fwd = flow.apply_batch(pts, +1, tau + t_phi)
    return fwd, epsilon - flow.apply_batch(pts, -1, t_phi) @ c


def _invariance_defect(curve: FourierCurve, trig: _TrigTable, tau: float, alpha: float,
                       epsilon: float, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Invariance defect (img + fwd) and threshold defect at the angles of a
    node table; see :func:`invariant_curve_residual`."""
    img = _angle_table(trig, curve.p_coeffs, curve.omega).points(curve.y0, curve.r_coeffs)
    fwd, on_line = _advance(trig.points(curve.y0, curve.r_coeffs),
                            trig.series(curve.t_coeffs), tau, alpha, epsilon, zeta)
    return img + fwd, on_line


def invariant_curve_residual(curve: FourierCurve, tau: float, alpha: float,
                             epsilon: float, zeta: float) -> np.ndarray:
    """Collocation residual of the invariance equation plus the center pin.

    At each node: the curve point advanced for tau + t(phi) under input +1
    must land on the curve at angle eta(phi) with opposite sign, and the
    same point advanced for t(phi) under input -1 must sit on the
    threshold line.  The final three components pin (y0, t0) to the
    branch-minus fixed point.

    No parametrization check happens here: the residual must stay smooth
    for intermediate Newton iterates, which may transiently cross r = 0.
    Accepted solutions are validated by the callers.
    """

    defect, on_line = _invariance_defect(curve, _node_trig(curve.n_modes),
                                         tau, alpha, epsilon, zeta)
    fp = fixed_point_residual(curve.y0, curve.t0, tau, alpha, epsilon, zeta)
    return np.concatenate([defect.ravel(), on_line, fp])


def _closure(trig: _TrigTable, t_coeffs: np.ndarray) -> np.ndarray:
    """(t, t') at the single angle of ``trig``; leading axes of t_coeffs batch."""
    return np.concatenate([trig.series(t_coeffs), trig.series(t_coeffs, deriv=1)], axis=-1)


def collision_closure(curve: FourierCurve, phi_star: float,
                      require_max: bool = False) -> np.ndarray:
    """Residual (t(phi*), t'(phi*)) of the grazing condition max t = 0.

    The maximizer is carried as the explicit unknown phi*, which turns the
    max condition into two smooth equations.  With ``require_max`` the
    second-order condition is enforced and :class:`NotAMaximum` raised when
    t''(phi*) >= 0.
    """

    trig = _TrigTable.at(phi_star, curve.n_modes)
    if require_max and trig.series(curve.t_coeffs, deriv=2)[0] >= 0.0:
        raise NotAMaximum(f"offset stationary point at phi={phi_star:.4g} is not a maximum")
    return _closure(trig, curve.t_coeffs)


# ---------------------------------------------------------------------------
# colliding-curve family: seeding, square solve, continuation


def _family_residual(w: np.ndarray, n_modes: int, epsilon: float, zeta: float) -> np.ndarray:
    """Stacked residual for unknowns [curve, phi*, tau, alpha]."""
    nz = FourierCurve.dim(n_modes)
    curve = FourierCurve.unpack(n_modes, w[:nz])
    phi_star, tau, alpha = w[nz], w[nz + 1], w[nz + 2]
    return np.concatenate([
        invariant_curve_residual(curve, tau, alpha, epsilon, zeta),
        collision_closure(curve, phi_star),
    ])


def _perturbed(v: np.ndarray) -> np.ndarray:
    """Row j is v + FD_STEP e_j, formed as fd_jacobian forms it."""
    out = np.tile(v, (v.size, 1))
    j = np.arange(v.size)
    out[j, j] += FD_STEP
    return out


def _family_fd_jacobian(w: np.ndarray, f0: np.ndarray | None, n_modes: int,
                        epsilon: float, zeta: float) -> np.ndarray:
    """``fd_jacobian`` of :func:`_family_residual`, bit for bit, by blocks.

    The residual's rows come in four blocks: the invariance defect (2m rows,
    m = 2n + 1 nodes), the threshold defect (m), the fixed point (3) and the
    closure (2).  Column j of ``fd_jacobian`` is (G(w + h e_j) - f0) / h;
    here each column computes, from the same perturbed vector and with the
    same floating-point operations, only the row blocks its unknown enters:

    * radius coefficients and y0: defect and threshold rows (y0 also the
      fixed point);
    * offset coefficients: defect, threshold and closure rows;
    * angle coefficients [p, omega]: defect rows;
    * t0: fixed point; phi*: closure; tau: defect and fixed point;
      alpha: threshold and fixed point.

    Every other entry is (v - v) / h for a finite residual value v, which
    is exactly +0.0, so the matrix starts from zeros.  An intermediate a
    column cannot change (the angle table while a radius coefficient moves,
    say) is computed once, and the columns of a block run as one stacked
    batch.
    """
    w = np.asarray(w, dtype=float)
    if f0 is None:
        f0 = _family_residual(w, n_modes, epsilon, zeta)
    nz = FourierCurve.dim(n_modes)
    m = 2 * n_modes + 1
    curve = FourierCurve.unpack(n_modes, w[:nz])
    y0, r, t, t0 = curve.y0, curve.r_coeffs, curve.t_coeffs, curve.t0
    phi_star, tau, alpha = w[nz], w[nz + 1], w[nz + 2]
    trig = _node_trig(n_modes)
    star = _TrigTable.at(phi_star, n_modes)
    params = (tau, alpha, epsilon, zeta)

    pts = trig.points(y0, r)
    t_phi = trig.series(t)
    angles = _angle_table(trig, curve.p_coeffs, curve.omega)
    img = angles.points(y0, r)
    fwd, _ = _advance(pts, t_phi, *params)

    rows = {"defect": slice(0, 2 * m), "on_line": slice(2 * m, 3 * m),
            "fp": slice(3 * m, 3 * m + 3), "closure": slice(3 * m + 3, 3 * m + 5)}
    J = np.zeros((f0.size, w.size))

    def put(cols, **blocks):
        """Columns ``cols`` from one batch of perturbed values per row block."""
        b = cols.stop - cols.start
        for name, v in blocks.items():
            J[rows[name], cols] = ((v.reshape(b, -1) - f0[rows[name]]) / FD_STEP).T

    R = _perturbed(r)
    fwd_r, on_line_r = _advance(trig.points(y0, R), t_phi, *params)
    put(slice(0, m), defect=angles.points(y0, R) + fwd_r, on_line=on_line_r)

    T = _perturbed(t)
    fwd_t, on_line_t = _advance(pts, trig.series(T), *params)
    put(slice(m, 2 * m), defect=img + fwd_t, on_line=on_line_t, closure=_closure(star, T))

    P = _perturbed(np.append(curve.p_coeffs, curve.omega))  # [p, omega] columns
    img_p = _angle_table(trig, P[:, :-1], P[:, -1:]).points(y0, r)
    put(slice(2 * m, nz - 3), defect=img_p + fwd)

    Y = _perturbed(y0)[:, None]  # both y0 columns, on the node angle table
    fwd_y, on_line_y = _advance(trig.points(Y, r), t_phi, *params)
    put(slice(nz - 3, nz - 1), defect=angles.points(Y, r) + fwd_y, on_line=on_line_y,
        fp=np.stack([fixed_point_residual(y, t0, *params) for y in Y[:, 0]]))

    put(slice(nz - 1, nz), fp=fixed_point_residual(y0, t0 + FD_STEP, *params))
    put(slice(nz, nz + 1), closure=_closure(_TrigTable.at(phi_star + FD_STEP, n_modes), t))

    tau_h = (tau + FD_STEP, alpha, epsilon, zeta)
    put(slice(nz + 1, nz + 2), defect=img + _advance(pts, t_phi, *tau_h)[0],
        fp=fixed_point_residual(y0, t0, *tau_h))

    alpha_h = (tau, alpha + FD_STEP, epsilon, zeta)
    put(slice(nz + 2, nz + 3), on_line=_advance(pts, t_phi, *alpha_h)[1],
        fp=fixed_point_residual(y0, t0, *alpha_h))
    return J


def _wrap_angle(x):
    return np.mod(np.asarray(x, dtype=float) + math.pi, 2.0 * math.pi) - math.pi


def _fit_scattered(phis: np.ndarray, values: np.ndarray, n_modes: int) -> np.ndarray:
    """Least-squares fit of up to 12 Fourier modes on scattered angles, padded to n_modes."""
    k = min(12, n_modes, (phis.size - 1) // 2)
    cols = [np.ones_like(phis)]
    for j in range(1, k + 1):
        cols.append(np.cos(j * phis))
        cols.append(np.sin(j * phis))
    coef, *_ = np.linalg.lstsq(np.stack(cols, axis=-1), values, rcond=None)
    out = np.zeros(2 * n_modes + 1)
    out[:coef.size] = coef
    return out


def _ns_alpha_at(zeta: float, epsilon: float, tau: float, hint: float) -> float:
    """Switching angle on the fixed-point NS locus at the given delay, within 0.08 of hint."""

    def val(alpha: float) -> float:
        y0, _ = solve_fixed_point(zeta, tau, alpha, epsilon)
        return float(np.linalg.det(_minus_jacobian(y0, tau, alpha, epsilon, zeta))) - 1.0

    grid = np.linspace(hint - 0.08, hint + 0.08, 33)
    vals = np.full(33, np.nan)
    for i, a in enumerate(grid):
        try:
            vals[i] = val(float(a))
        except RelayDynError:
            continue
    ok = np.isfinite(vals[:-1]) & np.isfinite(vals[1:]) & (vals[:-1] * vals[1:] < 0)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        raise NoConvergence(f"no NS crossing within 0.08 of alpha={hint:.4g}")
    i = hits[np.argmin(np.abs(0.5 * (grid[hits] + grid[hits + 1]) - hint))]
    return float(brentq(val, grid[i], grid[i + 1], xtol=1e-13))


def seed_colliding_curve(zeta: float, epsilon: float, nsc: tuple[float, float],
                         dtau: float = 1e-3, n_modes: int = 32) -> np.ndarray:
    """Initial guess [curve, phi*, tau, alpha] for the grazing curve near onset.

    At tau = tau_nsc + dtau the switching angle is first moved onto the NS
    locus, where DF_minus at the fixed point has unit-modulus eigenvalues.
    The invariant ellipse of that linearization, scaled so it touches the
    threshold line, seeds the radius series; the rotation and angle
    distortion come from the linear map's action on the ellipse, and the
    offset series from actual crossing-time solves around it.  The ellipse
    is accurate to second order in the amplitude, which keeps Newton well
    inside the genuine-curve basin (the degenerate zero-radius solution of
    the system always exists alongside the family).
    """

    tau_nsc = nsc[0]
    tau_s = tau_nsc + dtau
    alpha_s = _ns_alpha_at(zeta, epsilon, tau_s, hint=nsc[1])
    y0, t0 = solve_fixed_point(zeta, tau_s, alpha_s, epsilon)
    J = _minus_jacobian(y0, tau_s, alpha_s, epsilon, zeta)
    lam, vec = np.linalg.eig(J)
    v = vec[:, int(np.argmax(lam.imag))]
    a, b = 2.0 * v.real, -2.0 * v.imag

    c = np.array([math.cos(alpha_s), math.sin(alpha_s)])
    h0 = float(c @ y0)
    swing = math.hypot(float(c @ a), float(c @ b))
    rho = (epsilon - h0) / swing          # line-touching amplitude

    s = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    ell = rho * (np.outer(np.cos(s), a) + np.outer(np.sin(s), b))
    r_coeffs = _fit_scattered(np.arctan2(ell[:, 1], ell[:, 0]),
                              np.hypot(ell[:, 0], ell[:, 1]), n_modes)

    trig = _node_trig(n_modes)
    phi = trig.phi
    rel = trig.series(r_coeffs)[:, None] * trig.unit
    pts = y0 + rel
    img = rel @ J.T
    d = _wrap_angle(np.arctan2(img[:, 1], img[:, 0]) - phi)
    omega0 = float(d.mean())

    ctx = oscillator_context(zeta, alpha_s, tau_s, epsilon, y_ref=y0)
    t_samples = np.array([crossing_time(ctx, p, -1) for p in pts])
    phi_star = float(phi[int(np.argmax(t_samples))])

    curve = FourierCurve(n_modes=n_modes, r_coeffs=r_coeffs,
                         t_coeffs=_fit_series(t_samples),
                         p_coeffs=_fit_series(_wrap_angle(d - omega0), zero_mean=True),
                         omega=omega0, y0=np.asarray(y0, float), t0=t0)
    return np.concatenate([curve.pack(), [phi_star, tau_s, alpha_s]])


def solve_colliding_curve(w_guess: np.ndarray, n_modes: int, epsilon: float,
                          zeta: float) -> np.ndarray:
    """Square Newton solve, to 1e-10, of the grazing-curve system at frozen tau."""
    nz = FourierCurve.dim(n_modes)
    tau = float(w_guess[nz + 1])
    v0 = np.delete(w_guess, nz + 1)

    def fn(v):
        w = np.insert(v, nz + 1, tau)
        return _family_residual(w, n_modes, epsilon, zeta)

    def jacobian(v, f0):
        J = _family_fd_jacobian(np.insert(v, nz + 1, tau), f0, n_modes, epsilon, zeta)
        return np.delete(J, nz + 1, axis=1)

    v, _ = newton(ResidualProblem(fn, jacobian), v0)
    w = np.insert(v, nz + 1, tau)
    FourierCurve.unpack(n_modes, w[:nz]).check_parametrization()
    return w


def continue_colliding_family(zeta: float, epsilon: float, *, n_modes: int = 32,
                              tau_stop: float | None = None, ds: float = 2e-3,
                              max_points: int = 400, breakup_tol: float = 1e-2) -> Branch:
    """Continue the family of threshold-grazing invariant curves in (tau, alpha).

    Seeds 1e-3 past the on-surface NS point and steps by pseudo-arclength
    in the direction of growing tau, with steps between 1e-9 and 2.5e-2.
    Every accepted point records the curve, its mean radius and the
    spectral error estimate; the run ends
    with termination ``BreakupDetected`` once that estimate exceeds
    ``breakup_tol``, with ``NotAMaximum`` if the grazing point stops being
    a maximum, or at ``tau_stop``.
    """

    w_guess = seed_colliding_curve(zeta, epsilon, find_nsc(zeta, epsilon), n_modes=n_modes)
    try:
        w0 = solve_colliding_curve(w_guess, n_modes, epsilon, zeta)
    except RelayDynError as exc:
        raise InitialPointFailed(f"grazing-curve seed failed: {exc}") from exc

    nz = FourierCurve.dim(n_modes)

    def residual(w):
        return _family_residual(w, n_modes, epsilon, zeta)

    def jacobian(w, f0):
        return _family_fd_jacobian(w, f0, n_modes, epsilon, zeta)

    def point_data(w):
        curve = FourierCurve.unpack(n_modes, w[:nz])
        err = fourier_error_estimate(curve, params=(w[nz + 1], w[nz + 2], epsilon, zeta))
        return {
            "curve": curve,
            "phi_star": float(w[nz]),
            "tau": float(w[nz + 1]),
            "alpha": float(w[nz + 2]),
            "radius": curve.mean_radius(),
            "omega": curve.omega,
            "t0": curve.t0,
            "error": err,
        }

    def stop(point):
        if point.data["error"] > breakup_tol:
            raise BreakupDetected(
                f"error estimate {point.data['error']:.3e} beyond {breakup_tol:.1e} "
                f"at tau={point.data['tau']:.6g}")
        curve = point.data["curve"]
        curve.check_parametrization()
        collision_closure(curve, point.data["phi_star"], require_max=True)
        if tau_stop is not None and point.data["tau"] >= tau_stop:
            return "tau-stop"
        return None

    direction = np.zeros(w0.size)
    direction[nz + 1] = 1.0
    return continue_branch(ResidualProblem(residual, jacobian), w0, ds=ds, ds_min=1e-9,
                           ds_max=2.5e-2, max_points=max_points, direction=direction,
                           fix_index=nz + 1, point_data=point_data, stop=stop)


# ---------------------------------------------------------------------------
# error estimate and geometric invariance


def _mode_energies(coeffs: np.ndarray, zero_mean: bool = False) -> np.ndarray:
    rest = coeffs if zero_mean else coeffs[1:]
    e = rest[0::2] ** 2 + rest[1::2] ** 2
    if not zero_mean:
        e = np.concatenate([[coeffs[0] ** 2], e])
    else:
        e = np.concatenate([[0.0], e])
    return e


def fourier_error_estimate(curve: FourierCurve,
                           params: tuple[float, float, float, float] | None = None) -> float:
    """Spectral health of a curve: tail-energy fraction, optionally residual.

    The tail fraction is the energy in the top quartile of modes of the
    three series (radius, angle part, offset) over their total energy.
    When (tau, alpha, eps, zeta) is supplied the invariance residual is
    also evaluated midway between collocation nodes and the larger of the
    two measures returned.
    """

    n = curve.n_modes
    energies = (_mode_energies(curve.r_coeffs)
                + _mode_energies(curve.p_coeffs, zero_mean=True)
                + _mode_energies(curve.t_coeffs))
    total = float(energies.sum())
    if total == 0.0:
        return 0.0
    k_cut = n - max(1, n // 4)
    tail = float(energies[k_cut + 1:].sum()) / total

    if params is None:
        return tail
    defect, on_line = _invariance_defect(curve, _node_trig(n, midpoint=True), *params)
    res = max(float(np.max(np.abs(defect))), float(np.max(np.abs(on_line))))
    return max(tail, res)


def curve_radial_mismatch(curve: FourierCurve, pts: np.ndarray) -> np.ndarray:
    """Distance of points from the curve, measured radially about y0."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rel = pts - curve.y0
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    return np.abs(np.hypot(rel[:, 0], rel[:, 1]) - curve.radius(ang))
