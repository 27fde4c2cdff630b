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
hybrid state so the event-driven engine can serve as an oracle.

The context watches the +eps line and propagates with input +1 after the
switch.  For odd fields and linear h the opposite half-cycle is its
reflection y -> -y, so one context covers the whole orbit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._roots import brentq, fused_dot, split_factor
from .errors import (DegenerateDerivative, NoRootInBracket, NoRootInInterval)
from .flows import AffineOscillatorFlow
from .history import BreakpointHistory, HybridState

__all__ = [
    "CollisionContext",
    "oscillator_context",
    "DomainTag",
    "classify",
    "branch_of",
    "crossing_time",
    "map_F",
    "map_F_branch",
    "jacobian_F",
    "jacobian_F_branch",
    "theta",
    "reconstruct_history",
]

_EPS = float(np.finfo(float).eps)


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
    threshold exactly once in that window.  ``y_ref`` is the collision
    point itself (used to anchor the phase section of :func:`theta`).
    The context watches ``h = +eps`` and propagates with input +1.
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


def _bracketed_newton(signal, start: float, box: tuple[float, float],
                      bracket: tuple[float, float],
                      tol: float = 1e-13) -> tuple[float, float] | None:
    """Root of a scalar signal: Newton from ``start``, else bisection.

    ``signal(t)`` returns the value and the slope from one flow evaluation.
    Newton accepts an iterate whose value is below ``tol`` and lies inside
    ``bracket``, and stops once an iterate leaves ``box``; otherwise
    ``brentq`` searches the bracket.  Returns the root and the slope there,
    or None when the bracket holds no sign change.
    """

    t = start
    for _ in range(30):
        r, d = signal(t)
        if abs(r) < tol:
            if bracket[0] <= t <= bracket[1]:
                return t, d
            break
        if d == 0.0 or not box[0] <= t <= box[1]:
            break
        t -= r / d

    a, b = bracket
    (ga, da), (gb, db) = signal(a), signal(b)
    if ga == 0.0:
        return a, da
    if gb == 0.0:
        return b, db
    if ga * gb > 0.0:
        return None
    t = float(brentq(lambda s: signal(s)[0], a, b, xtol=1e-15, rtol=8.9e-16))
    return t, signal(t)[1]


def _crossing_signal(ctx: CollisionContext, y, branch: int):
    """Crossing signal of y on a branch, and the residual Newton can reach.

    The signal is t -> (c . z - eps, c . f(z, branch)), with z the branch
    flow from y at offset t and c the context's threshold normal.  Each call
    is one scalar flow evaluation and two :func:`fused_dot` products on
    floats, which equal ``ndarray.dot`` (the BLAS ddot's fused multiply-add)
    bit for bit; c's second component is split once per signal.  At t = 0
    the flow is the identity on finite states bit for bit, so the Newton
    start reads y itself.  The value rounds to a few ulps of |y|, so the
    residual floor is 1e-13 up to |y| = 14 and 32 machine epsilons of |y|
    beyond, where 1e-13 would be below the rounding.
    """

    eps = ctx.epsilon
    advance, accel = ctx.flow._advance, ctx.flow._accel
    c0, c1 = ctx.c.tolist()
    c1_split = split_factor(c1)
    x0, xdot0 = float(y[0]), float(y[1])
    tol = max(1e-13, 32.0 * _EPS * max(abs(x0), abs(xdot0)))

    def signal(t: float) -> tuple[float, float]:
        x, xdot = (x0, xdot0) if t == 0.0 else advance(x0, xdot0, branch, t)
        return (fused_dot(c0, c1_split, x, xdot) - eps,
                fused_dot(c0, c1_split, xdot, accel(x, xdot, branch)))

    return signal, tol


def crossing_time(ctx: CollisionContext, y, branch: int) -> float:
    """Offset t in [-delta, delta] with h = eps along the branch flow from y.

    The signal is c . z(t) - eps with c the context's threshold normal and
    z(t) the branch flow from y; its slope c . f(z(t), branch) comes from
    the same flow evaluation.  Newton from t = 0 with that slope; falls
    back to bisection over the full bracket when Newton stalls or leaves
    it.  Raises :class:`NoRootInBracket` when the bracket holds no sign
    change and :class:`DegenerateDerivative` when the signal is tangent at
    the root.
    """

    delta = ctx.delta
    signal, tol = _crossing_signal(ctx, y, branch)
    root = _bracketed_newton(signal, 0.0, (-delta, delta), (-delta, delta), tol)
    if root is None:
        raise NoRootInBracket(
            f"no threshold crossing within {delta:.4g} of the switch point")
    t, slope = root
    if abs(slope) < 1e-8:
        raise DegenerateDerivative(f"threshold met tangentially at offset {t:.6g}")
    return t


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


def theta(ctx: CollisionContext, y) -> float:
    """Travel time from y to the phase section downstream of the corner.

    The section is the hyperplane through ``Y_p^delta y_ref`` normal to the
    reference velocity f(y_ref, p); it is crossed transversally by every
    path near the collision orbit, giving each map point a well-defined
    phase theta(y) in [0, 2*delta].  Raises :class:`NoRootInInterval` when
    the path does not reach the section in that window.
    """

    y = np.asarray(y, dtype=float)
    flow, delta = ctx.flow, ctx.delta
    y_ref = np.asarray(ctx.y_ref, dtype=float)
    f2 = flow.velocity(y_ref, 1)
    y_sec = flow.apply(y_ref, 1, delta)

    def signal(th: float) -> tuple[float, float]:
        z = flow.apply(y, 1, th)
        return float(f2 @ (z - y_sec)), float(f2 @ flow.velocity(z, 1))

    root = _bracketed_newton(signal, delta, (-delta, 3.0 * delta), (0.0, 2.0 * delta))
    if root is None:
        raise NoRootInInterval("path does not reach the phase section in [0, 2*delta]")
    return root[0]


def reconstruct_history(ctx: CollisionContext, y, horizon: float | None = None) -> HybridState:
    """Lift a map point to the hybrid state it stands for.

    The history runs the post-switch flow for theta(y) time units (so the
    head sits on the phase section) and the pre-switch flow before that;
    the single label change happens exactly at the switch point y.  The
    returned state evolves under the full delayed dynamics into the switch
    points -F(y), F(F(y)), ... which is the oracle test for the map.
    """

    y = np.asarray(y, dtype=float)
    th = theta(ctx, y)
    big = ctx.tau if horizon is None else float(horizon)
    if big < ctx.tau:
        raise ValueError("history horizon must cover the delay")
    if th >= big:
        raise ValueError("phase offset exceeds the history horizon")
    anchor = ctx.flow.apply(y, -1, th - big)
    hist = BreakpointHistory(ctx.flow, big, anchor, times=[-th], labels=[-1, 1])
    return HybridState(history=hist, u=1)
