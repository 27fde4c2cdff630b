"""Reduced half-return map near a colliding symmetric relay orbit.

Consider a relay feedback orbit whose switches alternate every half period
and which brushes the switching threshold exactly at a switch point (a
corner collision).  Near such an orbit the full delayed dynamics collapse
onto a finite-dimensional map between consecutive switch points,

    F(y) = -Y_p^(tau + t(y)) y,

where Y_p is the constant-input flow active after the switch and t(y) is
the (small, possibly negative) time offset at which the path through y
meets the threshold line {h = eps}.  The offset is found along the
pre-switch flow when y starts beyond the line and along the post-switch
flow otherwise, which splits the phase space into two smooth branches:

* branch +1 (domain ``h < eps``): crossing lies ahead, the constraint pins
  the crossing point to the line, and the branch map has rank deficit one;
* branch -1 (domain ``h >= eps``): crossing already happened, the map is a
  local diffeomorphism.

Both branches agree on the line itself, so F is continuous and piecewise
smooth.  The map and its analytic Jacobians are exact up to the flow
backend; :func:`reconstruct_history` lifts a map point back to a full
hybrid state, its one switch a fixed delta before the head, so the
event-driven engine can serve as an oracle.

The crossing time t(y) is where the threshold normal dotted with the
closed-form flow from y reaches eps.  The context's one :class:`CrossingKernel` solves
it by Newton with a Brent fallback on Python floats, and it also steps the
map itself: the attractor loop of :mod:`relaydyn.attractor` sends it each
iterate and gets the next one back, through the same Newton body that
:func:`crossing_time` and :func:`map_F` run.

The context watches the +eps line and propagates with input +1 after the
switch.  For odd fields and linear h the opposite half-cycle is its
reflection y -> -y, so one context covers the whole orbit.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Generator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._roots import SPLITTER, brentq, fused_dot, split_factor
from .errors import DegenerateDerivative, NoRootInBracket
from .flows import AffineOscillatorFlow
from .history import BreakpointHistory, HybridState

__all__ = [
    "CollisionContext",
    "CrossingKernel",
    "oscillator_context",
    "DomainTag",
    "classify",
    "branch_of",
    "crossing_time",
    "map_F",
    "map_F_branch",
    "jacobian_F",
    "jacobian_F_branch",
    "reconstruct_history",
]

_EPS = float(np.finfo(float).eps)
# a root whose slope is below this in magnitude is a tangent crossing
_MIN_SLOPE = 1e-8


class DomainTag(enum.Enum):
    """Which smooth branch of the reduced map applies at a point."""

    PLUS = "plus"          # h < eps: rank-deficient branch
    MINUS = "minus"        # h > eps: diffeomorphism branch
    BOUNDARY = "boundary"  # on the threshold line, branches agree


@dataclass(frozen=True)
class CollisionContext:
    """Everything the reduced map needs around one corner collision.

    The watched threshold is linear, h(y) = c . y, with unit normal
    ``c = (cos alpha, sin alpha)``; :meth:`h` and :meth:`dh` read it.
    ``delta`` bounds the crossing-time search to (-delta, delta); it must
    be small enough that the path through any admissible point meets the
    threshold exactly once in that window; :func:`reconstruct_history`
    puts the lifted switch delta before the head.  ``y_ref`` is the
    collision point itself: :func:`~relaydyn.attractor.iterate_attractor`
    measures its escape radius from it, and ``sweep`` and ``polygon`` seed
    their runs next to it.  The context watches ``h = +eps`` and propagates
    with input +1.  Its :class:`CrossingKernel` is built on first use and
    kept.
    """

    flow: AffineOscillatorFlow
    c: np.ndarray
    tau: float
    epsilon: float
    y_ref: np.ndarray
    delta: float

    def __post_init__(self):
        if not (self.tau > 0 and self.epsilon > 0):
            raise ValueError("delay and hysteresis half-width must be positive")
        if not 0 < self.delta < self.tau:
            raise ValueError("crossing bracket must satisfy 0 < delta < tau")

    def h(self, y) -> float:
        """Threshold function c . y."""
        return float(self.c @ y)

    def dh(self, y) -> np.ndarray:
        """Gradient of :meth:`h`: the normal c, the same at every y."""
        return self.c

    @cached_property
    def crossing_kernel(self) -> CrossingKernel:
        """Solver of :func:`crossing_time`: h = eps within (-delta, delta) of 0."""
        return CrossingKernel(self.flow, self.c.tolist(), self.epsilon, self.delta)


def oscillator_context(zeta: float, alpha: float, tau: float, epsilon: float,
                       y_ref, delta: float | None = None) -> CollisionContext:
    """Reduced-map context for the relay oscillator with switching angle alpha."""
    return CollisionContext(
        flow=AffineOscillatorFlow(zeta),
        c=np.array([math.cos(alpha), math.sin(alpha)]),
        tau=tau,
        epsilon=epsilon,
        y_ref=np.asarray(y_ref, dtype=float),
        delta=0.1 * tau if delta is None else delta,
    )


def classify(ctx: CollisionContext, y, tol: float = 0.0) -> DomainTag:
    """Domain of y relative to the watched threshold line."""
    r = float(ctx.h(y)) - ctx.epsilon
    if abs(r) <= tol:
        return DomainTag.BOUNDARY
    return DomainTag.MINUS if r > 0 else DomainTag.PLUS


def branch_of(ctx: CollisionContext, y) -> int:
    """Branch applying at y; the threshold line counts as already crossed."""
    return -1 if float(ctx.h(y)) >= ctx.epsilon else 1


class CrossingKernel:
    """Offset t in the window (-delta, delta) at which n . z(t) = level.

    z(t) is the closed-form flow from a state (x, x') under a frozen input
    u and n a fixed normal; the slope n . f(z(t), u) comes from the same
    flow evaluation.  Everything fixed per context is bound at
    construction; :attr:`CollisionContext.crossing_kernel` watches the
    threshold line, with the threshold normal c and level eps.

    One Newton body serves two callers.  :meth:`solve` returns the root for
    one state; :meth:`map_steps` returns the half-return map's next iterate
    per ``send``, so a loop over the map makes one kernel call per map.  The
    body is a generator: priming it binds its constants once, for one solve
    or for a whole orbit.

    Newton runs from t = 0.  It accepts an iterate whose residual is below
    max(1e-13, 32 machine epsilons * max(|x|, |x'|)), and stops once an
    iterate leaves the window or meets a zero slope; Brent's method then
    searches the window.  A root whose slope is below 1e-8 in magnitude
    raises :class:`DegenerateDerivative`; a window without a sign change
    raises :class:`NoRootInBracket`.

    The Newton loop evaluates the flow inline, in ``flow._advance``'s exact
    association, and the field in ``flow._accel``'s; the bracket search
    calls ``flow._advance``.  At t = 0 the flow is the identity on finite
    states bit for bit, so the Newton start reads the state itself and the
    dot product the caller passes in.  A Newton step's residual and slope,
    the image's h and :meth:`signal` for the bracket search round as
    :func:`fused_dot`, equal to ``ndarray.dot`` (the BLAS ddot's fused
    multiply-add) bit for bit; the body writes that arithmetic out (Dekker's
    product and ``math.fsum``).  The accepted iterate's residual and the
    slope tested against the minimum slope are plain float sums, rounded
    exactly only inside a certified margin about their thresholds, so roots
    and exceptions stay bit for bit.  An iterate outside the window goes to
    the bracket search unevaluated, so a far Newton step cannot overflow
    ``math.exp``.
    """

    def __init__(self, flow: AffineOscillatorFlow, normal, level: float, delta: float):
        self._flow = flow
        self._m2z, self._omsq = -2.0 * flow.zeta, flow._omsq  # flow._accel's factors
        n0, n1 = normal
        self._n0, self._n1 = float(n0), split_factor(float(n1))
        self._level, self._delta = float(level), float(delta)
        # the Newton body's constants, unpacked in one step whenever it is primed
        self._constants = (flow.zeta, self._m2z, self._omsq, self._n0, self._n1, *self._n1,
                           self._level, 32.0 * _EPS, _MIN_SLOPE, -self._delta, self._delta)

    def dot(self, x: float, xdot: float) -> float:
        """n . (x, x'): the signal plus ``level`` at t = 0."""
        return fused_dot(self._n0, self._n1, x, xdot)

    def signal(self, x: float, xdot: float, g0: float, u: int, t: float) -> tuple[float, float]:
        """Signal and slope at offset t from (x, x'), with g0 = :meth:`dot`."""
        if t == 0.0:
            zx, zv, g = x, xdot, g0
        else:
            zx, zv = self._flow._advance(x, xdot, u, t)
            g = self.dot(zx, zv)
        return (g - self._level,
                fused_dot(self._n0, self._n1, zv, self._m2z * zv - self._omsq * (zx - u)))

    def solve(self, x: float, xdot: float, g0: float, u: int) -> float:
        """Offset t at which the signal from (x, x') under input u vanishes.

        ``g0`` is :meth:`dot` at (x, x'); a caller that holds it passes it in.
        """
        newton = self._newton(None)
        next(newton)
        return newton.send((x, xdot, g0, u))

    def map_steps(self, tau: float) -> Generator[tuple[float, float, float], tuple, None]:
        """The half-return map F(y) = -Y_+^(tau + t(y)) y, one ``send`` per iterate.

        Returns a primed generator.  Sending (x, x', h, u), with h = :meth:`dot`
        at (x, x') and u the branch, returns (x1, x1', h1): x1 and x1' are
        ``-flow._advance(x, x', 1, tau + t)`` with t what :meth:`solve`
        returns, bit for bit, and h1 is :meth:`dot` at (x1, x1').  Errors
        raise from ``send`` as from :meth:`solve`, and end the generator.
        """
        steps = self._newton(tau)
        next(steps)
        return steps

    def _newton(self, tau: float | None):
        """The Newton body: receives (x, x', g0, u) and yields the root t,
        or with ``tau`` the map iterate of :meth:`map_steps`."""
        (z, m2z, omsq, n0, n1_split, n1, n1_hi, n1_lo, level, floor_scale, min_slope,
         t_min, t_max) = self._constants
        exp, cos, sin, fsum, nan = math.exp, math.cos, math.sin, math.fsum, math.nan
        out = None
        while True:
            x, xdot, g0, u = yield out
            tol = max(1e-13, floor_scale * max(abs(x), abs(xdot)))
            t, converged = 0.0, False
            for _ in range(30):
                if not t_min <= t <= t_max:
                    break
                if t == 0.0:
                    zx, zv, r = x, xdot, g0 - level
                else:
                    e = exp(-z * t)
                    c = cos(t)
                    s = sin(t)
                    zx = e * (c + z * s) * x + e * s * xdot + u * (e * (-z * s - c) + 1.0)
                    zv = -e * omsq * s * x + e * (c - z * s) * xdot + u * (e * omsq * s)
                    # plain r is within 5u(|p| + |q| + |level|) of the fused r (u = 2**-53)
                    # and tol - B rounds by u*tol < u(|p| + |q| + |level|) where |r| can
                    # reach tol, so B = 1e-15(...) > 9u(...) certifies |fused r| < tol
                    p, q = n0 * zx, n1 * zv
                    r = p + q - level
                    if not (abs(r) < tol and abs(r) < tol - 1e-15 * (abs(p) + abs(q) + abs(level))):
                        err = nan
                        if 1e-250 < abs(q) < 1e250:
                            sp = SPLITTER * zv
                            hi = sp - (sp - zv)
                            lo = zv - hi
                            err = ((n1_hi * hi - q) + n1_hi * lo + n1_lo * hi) + n1_lo * lo
                        r = (fsum((q, err, p)) if err == err
                             else fused_dot(n0, n1_split, zx, zv)) - level
                acc = m2z * zv - omsq * (zx - u)
                if abs(r) < tol:
                    converged = True
                    break
                q, err = n1 * acc, nan
                if 1e-250 < abs(q) < 1e250:
                    sp = SPLITTER * acc
                    hi = sp - (sp - acc)
                    lo = acc - hi
                    err = ((n1_hi * hi - q) + n1_hi * lo + n1_lo * hi) + n1_lo * lo
                d = fsum((q, err, n0 * zv)) if err == err else fused_dot(n0, n1_split, zv, acc)
                if d == 0.0:
                    break
                t -= r / d
            if not converged:
                t, d = self._bracket_root(x, xdot, g0, u)
            else:
                # the plain slope lies within 3u(|p| + |q|) of the fused one
                p, q = n0 * zv, n1 * acc
                d = p + q
                if abs(abs(d) - min_slope) <= 1e-15 * (abs(p) + abs(q)):
                    d = fused_dot(n0, n1_split, zv, acc)
            if abs(d) < min_slope:
                raise DegenerateDerivative(f"threshold met tangentially at offset {t:.6g}")
            if tau is None:
                out = t
                continue
            t = tau + t
            e = exp(-z * t)
            c = cos(t)
            s = sin(t)
            x, xdot = (-(e * (c + z * s) * x + e * s * xdot + (e * (-z * s - c) + 1.0)),
                       -(-e * omsq * s * x + e * (c - z * s) * xdot + e * omsq * s))
            out = x, xdot, fused_dot(n0, n1_split, x, xdot)

    def _bracket_root(self, x: float, xdot: float, g0: float, u: int) -> tuple[float, float]:
        """Root and slope by Brent's method over the window, else
        :class:`NoRootInBracket`."""
        b = self._delta
        a = -b
        (ra, da), (rb, db) = self.signal(x, xdot, g0, u, a), self.signal(x, xdot, g0, u, b)
        if ra == 0.0:
            return a, da
        if rb == 0.0:
            return b, db
        if ra * rb > 0.0:
            raise NoRootInBracket(f"no threshold crossing within {b:.4g} of the switch point")
        t = brentq(lambda s: self.signal(x, xdot, g0, u, s)[0], a, b,
                   xtol=1e-15, rtol=8.9e-16)
        return t, self.signal(x, xdot, g0, u, t)[1]


def crossing_time(ctx: CollisionContext, y, branch: int) -> float:
    """Offset t in [-delta, delta] with h = eps along the branch flow from y.

    The signal is c . z(t) - eps with c the context's threshold normal and
    z(t) the branch flow from y; its slope c . f(z(t), branch) comes from
    the same flow evaluation.  The context's :attr:`~CollisionContext.crossing_kernel`
    runs Newton from t = 0 with that slope and falls back to Brent's method
    over the full bracket when Newton stalls or leaves it.  The residual
    floor is 1e-13 up to |y| = 14 and 32 machine epsilons of |y| beyond,
    where the signal's rounding exceeds 1e-13.  Raises :class:`NoRootInBracket` when
    the bracket holds no sign change and :class:`DegenerateDerivative` when
    the signal is tangent at the root.
    """

    kernel = ctx.crossing_kernel
    x, xdot = float(y[0]), float(y[1])
    return kernel.solve(x, xdot, kernel.dot(x, xdot), branch)


def map_F_branch(ctx: CollisionContext, y, branch: int) -> np.ndarray:
    """One smooth branch of the half-return map (no domain check)."""
    y = np.asarray(y, dtype=float)
    t = crossing_time(ctx, y, branch)
    return -ctx.flow.apply(y, 1, ctx.tau + t)


def map_F(ctx: CollisionContext, y) -> np.ndarray:
    """Half-return map between consecutive switch points."""
    return map_F_branch(ctx, y, branch_of(ctx, y))


def jacobian_F_branch(ctx: CollisionContext, y, branch: int) -> np.ndarray:
    """Analytic branch Jacobian.

    Differentiating F = -Y_p^(tau+t(y)) y with the implicit crossing time
    gives

        DF(y) = -Phi_p(tau+t) + f(w, p) (h'(z) Phi_b(t)) / (h'(z) f(z, b)),

    with z the crossing point, w = Y_p^(tau+t) y the (negated) image, Phi
    the flow linearisations and f the vector field.  On branch +1 the two
    Phi factors share the flow and DF collapses to rank one with image
    spanned by f(w, p): the geometric face of that branch's dimension
    deficit.
    """

    y = np.asarray(y, dtype=float)
    flow, tau = ctx.flow, ctx.tau
    t = crossing_time(ctx, y, branch)
    z = flow.apply(y, branch, t)
    w = flow.apply(y, 1, tau + t)
    gz = ctx.dh(z)
    denom = float(gz @ flow.velocity(z, branch))
    if abs(denom) < 1e-12:
        raise DegenerateDerivative("threshold crossing is tangent, no linearisation")
    phi_t = flow.jacobian(y, branch, t)
    phi_w = flow.jacobian(y, 1, tau + t)
    return -phi_w + np.outer(flow.velocity(w, 1), gz @ phi_t) / denom


def jacobian_F(ctx: CollisionContext, y) -> np.ndarray:
    """Jacobian of the branch applying at y (discontinuous across the line)."""
    return jacobian_F_branch(ctx, y, branch_of(ctx, y))


def reconstruct_history(ctx: CollisionContext, y, horizon: float | None = None) -> HybridState:
    """Lift a map point to the hybrid state it stands for.

    The history's one switch sits at the switch point y, at the fixed
    offset -delta: the history runs the post-switch flow from y for delta
    time units up to the head and the pre-switch flow before that.  The
    path through y meets the threshold at -delta + t(y), with t(y) the
    :func:`crossing_time` on y's branch, so the state switches next at time
    tau - delta + t(y), at the point -F(y).  It evolves under the full
    delayed dynamics into the switch points -F(y), F(F(y)), ... which is the
    oracle test for the map.

    That next switch lies in the past when -delta + t(y) < -tau, which a
    window delta > tau / 2 allows; the history holds only the one switch,
    so the lift would lose it, and raises ``ValueError`` instead.  A point
    without a map image raises as :func:`crossing_time` does.
    """

    y = np.asarray(y, dtype=float)
    big = ctx.tau if horizon is None else float(horizon)
    if big < ctx.tau:
        raise ValueError("history horizon must cover the delay")
    d = ctx.delta
    t = crossing_time(ctx, y, branch_of(ctx, y))
    if t - d < -ctx.tau:
        raise ValueError(f"the threshold crossing at {t - d:.6g} lies more than one delay "
                         "back, so the lifted history would miss the next switch")
    anchor = ctx.flow.apply(y, -1, d - big)
    hist = BreakpointHistory(ctx.flow, big, anchor, times=[-d], labels=[-1, 1])
    return HybridState(history=hist, u=1)
