"""The relay-controlled linear oscillator and its corner-collision surface.

The plant is the second-order system

    x'' + 2*zeta*x' + (1 + zeta^2)(x - u) = 0,

driven by the delayed hysteretic relay with switching functional
h(y) = y1*cos(alpha) + y2*sin(alpha).  For negative damping the open-loop
equilibria are spiraling sources and the relay sustains a symmetric limit
cycle whose switch points satisfy y = -Y_+^tau y, giving the closed form

    y*(tau) = -[I + A(tau)]^{-1} v(tau).

For tau > pi the orbit collides with the +eps threshold exactly when eps
equals h(y*); delays tau <= pi are refused.  Sweeping (tau, alpha) maps
out the collision surface, and the reduced-map linearisations along it
organise the local bifurcation picture (folds, flips, Neimark-Sacker curve
and its strong resonances) that this module extracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ._roots import brentq
from .errors import (DegenerateDerivative, NegativeEpsilon, NonTransversalCorner,
                     RelayDynError, SingularSurface)
from .flows import AffineOscillatorFlow
from .reduced import CollisionContext, oscillator_context

__all__ = [
    "OscillatorParams",
    "CollisionOrbit",
    "collision_point",
    "surface_corner",
    "collision_epsilon",
    "collision_orbit",
    "collision_context",
    "CollisionStability",
    "stability_at_collision",
    "surface_table",
    "surface_alpha",
    "collision_curve",
    "find_nsc",
    "CurvePoint",
    "BifurcationMap",
    "bifurcation_map",
    "BIFURCATION_LABELS",
]

# I + A(tau) counts as singular when its smallest singular value is at most
# this multiple of the larger of its largest one and 1
_SINGULAR_TOL = 1e-12
# |c . f(y*, b)| below which the threshold is met tangentially
_G_MIN = 1e-8


@dataclass(frozen=True)
class OscillatorParams:
    """Parameter quadruple of the relay oscillator."""

    zeta: float
    tau: float
    epsilon: float
    alpha: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("delay must be positive")
        if not self.epsilon > 0:
            raise ValueError("hysteresis half-width must be positive")


@dataclass(frozen=True)
class CollisionOrbit:
    """Symmetric periodic orbit at the moment of corner collision.

    ``g_plus``/``g_minus`` are the one-sided speeds of the switching signal
    at the corner (threshold gradient dotted with either vector field) and
    ``q`` their product; strict transversality means q > 0.
    """

    y_star: np.ndarray
    params: OscillatorParams
    q: float
    g_plus: float
    g_minus: float


def collision_point(zeta: float, tau: float) -> np.ndarray:
    """Switch point y* of the symmetric orbit, from y = -Y_+^tau y.

    Raises :class:`SingularSurface` when I + A(tau) is numerically
    singular: its smallest singular value is at most 1e-12 times the larger
    of its largest one and 1.  Since
    det(I + A) = (1 + e^{-zeta tau} cos tau)^2 + e^{-2 zeta tau} sin^2 tau,
    the matrix is singular only at zeta = 0, tau = (2k+1) pi.  Near that
    point I + A is a small multiple of a near-rotation, so both singular
    values shrink together and a test relative to the largest alone would
    not fire; the floor of 1 makes it absolute there, and (0, pi), where
    both are 1.2e-16, is refused.  Further out the matrix stays well
    conditioned and y* is large but accurate: at (1e-12, pi + 1e-8) both
    singular values are 1e-8 and |y*| is 2e8.  The refusals callers see at
    tau < pi come from :func:`surface_corner`'s delay check.
    """

    y, sv = _switch_points(*_transition_stack(AffineOscillatorFlow(zeta), [tau]))
    if np.isnan(y[0, 0]):
        raise SingularSurface(
            f"I + A(tau) singular at tau={tau:.6g} "
            f"(singular values {sv[0, 0]:.2e} and {sv[0, -1]:.2e})")
    return y[0]


def _transition_stack(flow: AffineOscillatorFlow, taus) -> tuple[np.ndarray, np.ndarray]:
    """A(tau) as a (k, 2, 2) stack and v(tau) as (k, 2), from ``flow.transition_rows``.

    Each delay's pair equals ``flow_matrix`` and ``flow_offset`` bit for bit.
    """
    a11, a12, a21, a22, v1, v2 = flow.transition_rows(taus)
    return (np.stack((a11, a12, a21, a22), axis=-1).reshape(-1, 2, 2),
            np.stack((v1, v2), axis=-1))


def _switch_points(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve [I + A] y = -v for a stack of delays by one svd and one solve.

    Returns y* and the singular values; rows of y* are NaN where I + A is
    singular.  The stacked LAPACK calls equal the per-matrix ones bit for
    bit.
    """
    m = np.eye(2) + a
    sv = np.linalg.svd(m, compute_uv=False)
    ok = sv[:, -1] > _SINGULAR_TOL * np.maximum(sv[:, 0], 1.0)
    y = np.full(v.shape, np.nan)
    y[ok] = np.linalg.solve(m[ok], -v[ok][..., None])[..., 0]
    return y, sv


def _corner_rows(zeta: float, taus) -> np.ndarray:
    """The pieces of the collision orbit that depend on tau only, per delay.

    Every alpha at one delay shares them.  Row block k holds y*, the vector
    fields f(y*, +1) and f(y*, -1), the flow matrix A(tau) (two rows) and
    f(w, +1) at the image w = Y_+^tau y*, so a (k, 6, 2) array holds
    thousands of corners in little memory.  The switch points are solved by
    one stacked solve.  Delays without a corner (tau < pi, or I + A
    singular) get NaN rows, which every surface point there inherits.
    """
    taus = np.asarray(taus, dtype=float)
    flow = AffineOscillatorFlow(zeta)
    a, v = _transition_stack(flow, taus)
    y, _ = _switch_points(a, v)
    y[taus < math.pi + 1e-9] = np.nan
    x, xdot = y[:, 0], y[:, 1]
    # w = A y + v, summed in the order of flow.apply
    w0 = a[:, 0, 0] * x + a[:, 0, 1] * xdot + v[:, 0]
    w1 = a[:, 1, 0] * x + a[:, 1, 1] * xdot + v[:, 1]
    rows = np.empty((taus.size, 6, 2))
    rows[:, 0] = y
    rows[:, 1, 0] = rows[:, 2, 0] = xdot
    rows[:, 1, 1] = flow._accel(x, xdot, +1)
    rows[:, 2, 1] = flow._accel(x, xdot, -1)
    rows[:, 3:5] = a
    rows[:, 5, 0] = w1
    rows[:, 5, 1] = flow._accel(w0, w1, +1)
    return rows


def _corner(zeta: float, tau: float) -> np.ndarray:
    """The (6, 2) corner rows of one delay; raises SingularSurface if it has none."""
    rows = _corner_rows(zeta, [tau])[0]
    if np.isnan(rows[0, 0]):
        collision_point(zeta, tau)  # raises where I + A(tau) is singular
        raise SingularSurface(
            f"collision surface covers tau > pi only, got tau={tau:.6g}")
    return rows


def surface_corner(zeta: float, tau: float) -> np.ndarray:
    """:func:`collision_point` where tau > pi; smaller delays raise SingularSurface."""
    return _corner(zeta, tau)[0]


def _epsilon(y: np.ndarray, alphas) -> np.ndarray:
    """h(y*) = y*_1 cos(alpha) + y*_2 sin(alpha), row by row."""
    return y[..., 0] * np.cos(alphas) + y[..., 1] * np.sin(alphas)


def collision_epsilon(zeta: float, tau: float, alpha: float) -> float:
    """Hysteresis half-width at which the symmetric orbit collides.

    For tau > pi the corner sits on the +eps line, so eps = h(y*).  Delays
    tau <= pi raise :class:`SingularSurface`: the surface degenerates at
    pi, and below it the corner sits on the -eps line, which is not modelled.

    Raises :class:`NegativeEpsilon` when the computed value is not a
    physical half-width (the parameter point lies off the surface).
    """

    return _positive_epsilon(float(_epsilon(surface_corner(zeta, tau), alpha)), tau, alpha)


def _positive_epsilon(eps: float, tau: float, alpha: float) -> float:
    if eps <= 0:
        raise NegativeEpsilon(
            f"no colliding orbit at tau={tau:.6g}, alpha={alpha:.6g} (eps={eps:.3e})")
    return eps


def collision_orbit(zeta: float, tau: float, alpha: float) -> CollisionOrbit:
    """Collision orbit data at a surface point, with transversality scalars."""
    rows, alpha = _corner(zeta, tau), float(alpha)
    eps, _, g = _orbit_scalars(rows[None], np.array([alpha]))
    eps = _positive_epsilon(float(eps[0]), tau, alpha)
    g_plus, g_minus = float(g[0, 0]), float(g[0, 1])
    q = g_plus * g_minus
    if q <= 0:
        raise NonTransversalCorner(
            f"corner not strictly transversal at tau={tau:.6g}, alpha={alpha:.6g} (q={q:.3e})")
    return CollisionOrbit(y_star=rows[0], params=OscillatorParams(zeta, tau, eps, alpha),
                          q=q, g_plus=g_plus, g_minus=g_minus)


def collision_context(orbit: CollisionOrbit) -> CollisionContext:
    """Reduced-map context anchored at the orbit's switch point."""
    p = orbit.params
    return oscillator_context(p.zeta, p.alpha, p.tau, p.epsilon, orbit.y_star)


@dataclass(frozen=True)
class CollisionStability:
    """Spectra of the two branch linearisations at the corner.

    ``lambda_plus`` is the single nonzero eigenvalue of the rank-one branch
    (equal to its trace); ``eigs_minus`` the pair of the diffeomorphism
    branch.  ``residuals`` holds the bifurcation test functions evaluated
    at the point; a small residual flags proximity to that bifurcation.
    """

    lambda_plus: float
    eigs_minus: tuple[complex, complex]
    residuals: dict[str, float]

    @property
    def stable_plus(self) -> bool:
        return abs(self.lambda_plus) < 1.0

    @property
    def stable_minus(self) -> bool:
        return all(abs(ev) < 1.0 for ev in self.eigs_minus)

    def near(self, tol: float = 1e-3) -> tuple[str, ...]:
        return tuple(k for k, v in self.residuals.items() if abs(v) < tol)


# bifurcation test functions on the collision surface; NS additionally
# requires |trace| < 2 so the unit-determinant pair is actually complex
BIFURCATION_LABELS = ("fold_plus", "flip_plus", "fold_minus", "flip_minus", "ns_minus")


# ---------------------------------------------------------------------------
# the surface-point kernel: every formula below runs on stacks of points, and
# the single-point functions call it with a stack of one.  Its numpy calls
# equal their per-point forms bit for bit: np.cos/np.sin equal math.cos and
# math.sin, a stacked (1, 2) @ (2, 1) matmul is the same BLAS ddot as c @ f,
# and stacked det, trace, svd and solve equal the per-matrix calls.


def _normals(alphas: np.ndarray) -> np.ndarray:
    """Threshold normals c = (cos alpha, sin alpha), one row per alpha."""
    return np.stack((np.cos(alphas), np.sin(alphas)), axis=-1)


def _orbit_scalars(rows: np.ndarray, alphas: np.ndarray):
    """eps = h(y*), the normals c and g_b = c . f(y*, b) at each point.

    Returns eps (k,), c (k, 2) and g (k, 2) with columns b = +1, -1.
    """
    c = _normals(alphas)
    g = np.stack([np.matmul(c[:, None, :], rows[:, b, :, None])[:, 0, 0] for b in (1, 2)],
                 axis=-1)
    return _epsilon(rows[:, 0], alphas), c, g


def _jacobians(rows: np.ndarray, c: np.ndarray, g: np.ndarray):
    """Both branch Jacobians at each corner, in closed form.

    The crossing offset is 0 at y* because eps = h(y*), so
    :func:`~relaydyn.reduced.jacobian_F_branch` reduces to
    DF_b = -A(tau) + f(w, +1) c^T / g_b with g_b = c . f(y*, b), and no
    crossing-time solve is needed.
    """
    minus_a = -rows[:, 3:5]
    outer = rows[:, 5, :, None] * c[:, None, :]
    return minus_a + outer / g[:, 0, None, None], minus_a + outer / g[:, 1, None, None]


def _tests(j_plus: np.ndarray, j_minus: np.ndarray) -> dict[str, np.ndarray]:
    """The bifurcation test functions and both traces of stacked Jacobian pairs."""
    lam = np.trace(j_plus, axis1=1, axis2=2)
    eye = np.eye(2)
    return {
        "fold_plus": lam - 1.0,
        "flip_plus": lam + 1.0,
        "fold_minus": np.linalg.det(j_minus - eye),
        "flip_minus": np.linalg.det(j_minus + eye),
        "ns_minus": np.linalg.det(j_minus) - 1.0,
        "trace_minus": np.trace(j_minus, axis1=1, axis2=2),
        "trace_plus": lam,
    }


def _masked_scalars(rows: np.ndarray, alphas: np.ndarray):
    """:func:`_orbit_scalars` with q = g_+ g_- and the validity mask.

    A point is valid where the single-point route returns: eps > 0 (else
    NegativeEpsilon), q > 0 (else NonTransversalCorner), |g_b| >= _G_MIN
    (else DegenerateDerivative) and a corner exists (NaN rows).  Returns
    eps, c, g, q and the mask.
    """
    eps, c, g = _orbit_scalars(rows, alphas)
    q = g[:, 0] * g[:, 1]
    return eps, c, g, q, (eps > 0) & (q > 0) & (np.abs(g) >= _G_MIN).all(axis=1)


def _surface_batch(rows: np.ndarray, alphas: np.ndarray):
    """Evaluate the surface at points given by corner rows (k, 6, 2) and alphas.

    Returns eps (k,), q = g_+ g_- (k,), the :func:`_tests` arrays and the
    validity mask of :func:`_masked_scalars`; the test values are NaN where
    a point is not valid.
    """
    eps, c, g, q, valid = _masked_scalars(rows, alphas)
    idx = np.flatnonzero(valid)
    tests = {}
    for key, value in _tests(*_jacobians(rows[idx], c[idx], g[idx])).items():
        tests[key] = np.full(alphas.shape, np.nan)
        tests[key][idx] = value
    return eps, q, tests, valid


def _ns_value(rows: np.ndarray, alpha: float) -> float:
    """det(DF_minus) - 1 at one point, NaN where :func:`_masked_scalars` masks it.

    The same steps as :func:`_surface_batch` on a stack of one, so the value
    equals its ``"ns_minus"`` bit for bit, without the other six tests.
    """
    _, c, g, _, valid = _masked_scalars(rows[None], np.array([alpha]))
    if not valid[0]:
        return math.nan
    return float(np.linalg.det(_jacobians(rows[None], c, g)[1])[0] - 1.0)


def stability_at_collision(orbit: CollisionOrbit) -> CollisionStability:
    """Classify the corner: branch spectra plus bifurcation residuals."""
    p = orbit.params
    g = np.array([[orbit.g_plus, orbit.g_minus]])
    if (np.abs(g) < _G_MIN).any():
        raise DegenerateDerivative(f"threshold met tangentially at tau={p.tau:.6g}, "
                                   f"alpha={p.alpha:.6g}")
    j_plus, j_minus = _jacobians(_corner(p.zeta, p.tau)[None], _normals(np.array([p.alpha])), g)
    ev = np.linalg.eigvals(j_minus[0])
    vals = {k: float(v[0]) for k, v in _tests(j_plus, j_minus).items()}
    lam = vals.pop("trace_plus")
    tr = vals.pop("trace_minus")
    if abs(tr) >= 2.0:
        vals.pop("ns_minus")  # determinant can be 1 with real eigenvalues
    return CollisionStability(lambda_plus=lam, eigs_minus=(complex(ev[0]), complex(ev[1])),
                              residuals=vals)


def surface_table(zeta: float, taus, alphas) -> np.ndarray:
    """The surface over the (tau, alpha) grid, tau-major, one row per valid point.

    Columns: tau, alpha, eps, q, lambda_plus and max |y* + Y_+^tau y*|, the
    residual of the switch point; all corners come from one stacked solve,
    and the residuals from one ``apply_rows`` call.
    """
    taus, alphas = np.asarray(taus, dtype=float), np.asarray(alphas, dtype=float)
    corners = _corner_rows(zeta, taus)
    has = ~np.isnan(corners[:, 0, 0])
    taus, corners = taus[has], corners[has]
    tau_col, alpha_col = np.repeat(taus, alphas.size), np.tile(alphas, taus.size)
    eps, q, tests, valid = _surface_batch(np.repeat(corners, alphas.size, axis=0), alpha_col)
    y = corners[:, 0]
    resid = np.max(np.abs(y + AffineOscillatorFlow(zeta).apply_rows(y, 1, taus)), axis=1)
    return np.column_stack((tau_col, alpha_col, eps, q, tests["trace_plus"],
                            np.repeat(resid, alphas.size)))[valid]


# ---------------------------------------------------------------------------
# slices of the collision surface and the on-surface NS point


def surface_alpha(zeta: float, tau: float, epsilon: float) -> list[float]:
    """Switching angles at which the collision surface meets a given eps.

    Scans 361 alphas over [-pi/2, pi/2] for sign changes of
    ``collision_epsilon - epsilon`` and refines each, returning all roots
    in increasing order (the fixed-eps slice of the surface may be crossed
    more than once).  Delays tau <= pi are refused as in
    :func:`collision_epsilon`.
    """

    return _slice_roots(surface_corner(zeta, tau), epsilon)


def _slice_roots(y: np.ndarray, epsilon: float) -> list[float]:
    """:func:`surface_alpha` for a switch point y* already solved."""

    def g(alpha: float) -> float:
        return y[0] * math.cos(alpha) + y[1] * math.sin(alpha) - epsilon

    grid, cos, sin = _slice_grid()
    vals = y[0] * cos + y[1] * sin - epsilon  # equals g on every grid point
    roots = [float(grid[i]) for i in np.flatnonzero(vals == 0.0)]
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(float(brentq(g, grid[i], grid[i + 1], xtol=1e-14)))
    return sorted(roots)


@cache
def _slice_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 361 scan angles of :func:`surface_alpha` and their cos and sin, built once."""
    grid = np.linspace(-math.pi / 2, math.pi / 2, 361)
    return grid, np.cos(grid), np.sin(grid)


def _slice_alpha_near(y: np.ndarray, tau: float, epsilon: float, hint: float | None) -> float:
    """The alpha root of the eps slice at the corner y* of tau nearest to hint."""
    roots = _slice_roots(y, epsilon)
    if not roots:
        raise NegativeEpsilon(
            f"eps={epsilon:.4g} slice does not meet the surface at tau={tau:.6g}")
    if hint is None:
        return roots[0]
    return min(roots, key=lambda a: abs(a - hint))


def _slice_walk(zeta: float, epsilon: float, taus):
    """(tau, corner rows, alpha) along the eps slice, from one stacked corner solve.

    alpha is the first root of the first delay, then the root nearest the last,
    or None where a delay has no corner (NaN rows have no root), no root, or
    a root solve that raised.
    """
    hint = None
    for tau, rows in zip(np.asarray(taus, dtype=float).tolist(), _corner_rows(zeta, taus)):
        try:
            alpha = hint = _slice_alpha_near(rows[0], tau, epsilon, hint)
        except RelayDynError:
            alpha = None
        yield tau, rows, alpha


def collision_curve(zeta: float, epsilon: float, taus) -> list[tuple[float, float, float]]:
    """Points (tau, alpha, epsilon) of the fixed-eps slice of the surface:
    the delays of ``taus`` where :func:`_slice_walk` finds a root."""
    return [(tau, alpha, epsilon) for tau, _, alpha in _slice_walk(zeta, epsilon, taus)
            if alpha is not None]


def find_nsc(zeta: float, epsilon: float) -> tuple[float, float]:
    """Locate the Neimark-Sacker point on a fixed-eps slice of the surface.

    Walks 60 delays over [pi + 0.2, 5.8] as :func:`collision_curve` does, reads
    det(DF_minus) - 1 from :func:`_ns_value`, skipping points it masks, and
    bisects the first sign change down to a tau interval of 1e-12; a bisection
    point the kernel masks raises what :func:`collision_orbit` or
    :func:`stability_at_collision` raise there.  Returns (tau, alpha).
    """

    def ns_at(tau: float, hint: float) -> tuple[float, float]:
        rows = _corner(zeta, tau)
        alpha = _slice_alpha_near(rows[0], tau, epsilon, hint)
        val = _ns_value(rows, alpha)
        if math.isnan(val):  # masked: the single-point route raises its reason
            stability_at_collision(collision_orbit(zeta, tau, alpha))
        return val, alpha

    prev = None
    for tau, rows, hint in _slice_walk(zeta, epsilon, np.linspace(math.pi + 0.2, 5.8, 60)):
        val = math.nan if hint is None else _ns_value(rows, hint)
        if math.isnan(val):
            prev = None
            continue
        if prev is not None and prev[1] * val < 0:
            (lo, flo), hi = prev, tau
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                fmid, hint = ns_at(mid, hint)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            tau_ns = 0.5 * (lo + hi)
            return tau_ns, ns_at(tau_ns, hint)[1]
        prev = (tau, val)
    raise NegativeEpsilon("no Neimark-Sacker point on this slice of the surface")


# ---------------------------------------------------------------------------
# bifurcation map over the collision surface


@dataclass(frozen=True)
class CurvePoint:
    """One refined point of a bifurcation curve on the collision surface."""

    tau: float
    alpha: float
    epsilon: float
    label: str
    residual: float
    tags: tuple[str, ...] = ()


@dataclass
class BifurcationMap:
    """Bifurcation curves of the two branch maps over the (tau, alpha) grid."""

    zeta: float
    tau_grid: np.ndarray
    alpha_grid: np.ndarray
    points: dict[str, list[CurvePoint]] = field(default_factory=dict)
    polylines: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def all_points(self) -> list[CurvePoint]:
        return [p for pts in self.points.values() for p in pts]


_RESONANCES = ((math.pi, "1:2"), (2.0 * math.pi / 3.0, "1:3"), (math.pi / 2.0, "1:4"))


def _evaluate(zeta: float, taus: np.ndarray, alphas: np.ndarray):
    """:func:`_surface_batch` at the (tau, alpha) pairs, each distinct delay solved once."""
    uniq, inverse = np.unique(taus, return_inverse=True)
    return _surface_batch(_corner_rows(zeta, uniq)[inverse], alphas)


def _refine_edges(zeta: float, labels, p0, p1, f0, tol):
    """Bisect every (label, edge) job in lockstep, one evaluation per round.

    Job n bisects the test function ``BIFURCATION_LABELS[labels[n]]`` along
    the segment p0[n]-p1[n], whose value at p0[n] is f0[n].  Each job keeps
    the rule of a scalar bisection: halve at m = (a + b) / 2, stop once the
    value there is below tol or NaN (the sign test brackets nothing past a
    NaN), else keep the half whose ends differ in sign; at most 80
    steps.  A round evaluates the midpoint of every active job by one
    :func:`_evaluate` call.

    Returns each job's last point (k, 2) and, at it, the job's test value,
    eps and all :func:`_tests` values (NaN off the surface).
    """
    k = labels.size
    a, b, fa = np.zeros(k), np.ones(k), np.array(f0, dtype=float)
    point, value, eps = np.empty((k, 2)), np.empty(k), np.empty(k)
    tests: dict[str, np.ndarray] = {}
    active = np.arange(k)
    for _ in range(80):
        if not active.size:
            break
        m = 0.5 * (a[active] + b[active])
        start = p0[active]
        pts = start + m[:, None] * (p1[active] - start)
        m_eps, _, m_tests, _ = _evaluate(zeta, pts[:, 0], pts[:, 1])
        fm = np.choose(labels[active], [m_tests[lb] for lb in BIFURCATION_LABELS])
        point[active], value[active], eps[active] = pts, fm, m_eps
        for key, v in m_tests.items():
            tests.setdefault(key, np.full(k, np.nan))[active] = v
        go = ~(np.isnan(fm) | (np.abs(fm) < tol))
        left = go & ((fa[active] < 0) != (fm < 0))
        right = go & ~left
        b[active[left]] = m[left]
        a[active[right]], fa[active[right]] = m[right], fm[right]
        active = active[go]
    return point, value, eps, tests


def _chain_segments(segments: list[tuple[tuple, tuple]]) -> list[np.ndarray]:
    """Join segments sharing an endpoint into polylines.

    Two cells that share an edge hold the same refined point, so shared
    endpoints are equal tuples.
    """
    links: dict[tuple, list[int]] = {}
    for idx, (p, q) in enumerate(segments):
        links.setdefault(p, []).append(idx)
        links.setdefault(q, []).append(idx)

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segments[start])
        for endpos in (0, -1):
            end = segments[start][endpos]
            while True:
                nxt = [i for i in links.get(end, []) if not used[i]]
                if not nxt:
                    break
                i = nxt[0]
                used[i] = True
                p, q = segments[i]
                end = q if p == end else p
                if endpos == 0:
                    chain.insert(0, end)
                else:
                    chain.append(end)
        polylines.append(np.array(chain))
    return polylines


def bifurcation_map(zeta: float,
                    tau_range: tuple[float, float] = (math.pi + 1e-3, 2 * math.pi),
                    alpha_range: tuple[float, float] = (-1.2, 1.2),
                    n_tau: int = 50, n_alpha: int = 50,
                    residual_tol: float = 1e-8) -> BifurcationMap:
    """Extract the bifurcation curves of both branch maps on the surface.

    Grid-scans the five test functions over (tau, alpha), bisects every
    sign change along grid edges down to ``residual_tol`` and chains the
    refined crossings into polylines.  NS points additionally pass the
    |trace| < 2 guard and carry strong-resonance tags (eigenvalue angle
    within 1e-3 of pi, 2*pi/3 or pi/2); points where the fold and flip
    residuals of the same branch both nearly vanish are tagged as PD-SN
    concurrence candidates.  The guard leaves the 1:2 tag reachable only
    for trace in (-2, -2 + 1e-6), so the map practically never reports it.
    Both grids need at least 2 points.
    """

    if n_tau < 2 or n_alpha < 2:
        raise ValueError(f"bifurcation_map needs n_tau, n_alpha >= 2, "
                         f"got {n_tau}, {n_alpha}")
    taus = np.linspace(tau_range[0], tau_range[1], n_tau)
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_alpha)
    _, _, tests, _ = _evaluate(zeta, np.repeat(taus, alphas.size), np.tile(alphas, taus.size))
    grid = np.stack([tests[lb] for lb in BIFURCATION_LABELS]).reshape(-1, taus.size, alphas.size)

    # one job per (label, grid edge) with a sign change: edges (i, j)-(i+1, j)
    # and (i, j)-(i, j+1)
    jobs = []
    for di, dj in ((1, 0), (0, 1)):
        v0 = grid[:, :taus.size - di, :alphas.size - dj]
        v1 = grid[:, di:, dj:]
        crossed = np.isfinite(v0) & np.isfinite(v1) & (np.sign(v0) * np.sign(v1) < 0)
        lab, i, j = np.nonzero(crossed)
        jobs.append((lab, i, j, i + di, j + dj))
    lab, i0, j0, i1, j1 = (np.concatenate(parts) for parts in zip(*jobs))
    point, value, eps, final = _refine_edges(
        zeta, lab, np.stack((taus[i0], alphas[j0]), axis=1),
        np.stack((taus[i1], alphas[j1]), axis=1), grid[lab, i0, j0], residual_tol)

    # Cells (i, j) are met in row-major order, and each lists its edges as
    # (i, j)-(i+1, j), (i, j+1)-(i+1, j+1), (i, j)-(i, j+1), (i+1, j)-(i+1, j+1).
    # A label's points come in the order the cells first meet their edges, and
    # each cell pairs the crossings it holds in that edge order into segments.
    met = {label: [] for label in BIFURCATION_LABELS}
    cells = {label: {} for label in BIFURCATION_LABELS}
    for n in range(lab.size):
        label = BIFURCATION_LABELS[lab[n]]
        cp = _curve_point(label, point[n], value[n], eps[n],
                          {key: v[n] for key, v in final.items()}, residual_tol)
        if cp is None:
            continue
        # (cell, position) in each of the one or two cells holding the edge
        i, j = int(i0[n]), int(j0[n])
        if i1[n] > i:
            sides = ((i, j - 1, 1), (i, j, 0))
        else:
            sides = ((i - 1, j, 3), (i, j, 2))
        sides = [s for s in sides if 0 <= s[0] < taus.size - 1 and 0 <= s[1] < alphas.size - 1]
        met[label].append((sides[0], cp))
        for ci, cj, pos in sides:
            cells[label].setdefault((ci, cj), []).append((pos, (cp.tau, cp.alpha)))

    result = BifurcationMap(zeta=zeta, tau_grid=taus, alpha_grid=alphas)
    for label in BIFURCATION_LABELS:
        result.points[label] = [cp for _, cp in sorted(met[label], key=lambda e: e[0])]
        segments = []
        for cell in sorted(cells[label]):
            kept = [pt for _, pt in sorted(cells[label][cell])]
            segments.extend(zip(kept[0::2], kept[1::2]))
        result.polylines[label] = _chain_segments(segments)
    return result


def _curve_point(label, point, residual, epsilon, tv, residual_tol) -> CurvePoint | None:
    """Validate and tag one refined crossing; None drops it (NaN included).

    An NS point needs |trace| < 2, and the 1:2 tag an angle within 1e-3 of
    pi, so that tag is reachable only for trace in (-2, -2 + 1e-6).
    """
    if not abs(residual) < residual_tol * 10:
        return None
    tags = []
    if label == "ns_minus":
        tr = tv["trace_minus"]
        if abs(tr) >= 2.0:
            return None
        angle = math.acos(max(-1.0, min(1.0, tr / 2.0)))
        for target, name in _RESONANCES:
            if abs(angle - target) < 1e-3:
                tags.append(name)
    if label in ("fold_minus", "flip_minus") and abs(tv["fold_minus"]) < 1e-4 \
            and abs(tv["flip_minus"]) < 1e-4:
        tags.append("pd-sn")
    return CurvePoint(tau=float(point[0]), alpha=float(point[1]),
                      epsilon=float(epsilon), label=label,
                      residual=float(residual), tags=tuple(tags))
