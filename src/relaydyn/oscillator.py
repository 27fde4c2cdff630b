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
    "collision_epsilon",
    "collision_orbit",
    "collision_context",
    "CollisionStability",
    "stability_at_collision",
    "surface_alpha",
    "find_nsc",
    "CurvePoint",
    "BifurcationMap",
    "bifurcation_map",
    "BIFURCATION_LABELS",
]

# relative smallest singular value below which I + A(tau) counts as singular
_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class OscillatorParams:
    """Parameter quadruple of the relay oscillator."""

    zeta: float
    tau: float
    epsilon: float
    alpha: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("delay must be positive")
        if self.epsilon <= 0:
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
    singular.  For the damped closed form this happens only in the limit
    zeta -> 0 with tau -> pi jointly, but generic flow matrices can hit it
    anywhere, so the guard is a singular-value check rather than a special
    tau value.
    """

    flow = AffineOscillatorFlow(zeta)
    m = np.eye(2) + flow.flow_matrix(tau)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= sv[0] * _SINGULAR_RTOL:
        raise SingularSurface(
            f"I + A(tau) singular at tau={tau:.6g} (cond {sv[0] / max(sv[-1], 1e-300):.2e})")
    return np.linalg.solve(m, -flow.flow_offset(tau))


def _surface_corner(zeta: float, tau: float) -> np.ndarray:
    """Switch point y* for a delay the collision surface covers (tau > pi)."""
    if tau < math.pi + 1e-9:
        raise SingularSurface(
            f"collision surface covers tau > pi only, got tau={tau:.6g}")
    return collision_point(zeta, tau)


class _Corner:
    """The pieces of the collision orbit that depend on tau only.

    Every alpha at one delay shares them: the switch point y*, the two
    vector fields there, the flow matrix A(tau) and the vector field
    f(w, +1) at the image w = Y_+^tau y*.  Callers solve one per delay and
    pass it on.  The pieces are rows of one array, so a map run can hold
    thousands of corners in little memory.
    """

    __slots__ = ("zeta", "tau", "_rows")

    def __init__(self, zeta: float, tau: float, y: np.ndarray):
        flow = AffineOscillatorFlow(zeta)
        self.zeta, self.tau = zeta, tau
        self._rows = np.empty((6, 2))
        self._rows[0] = y
        self._rows[1] = flow.velocity(y, +1)
        self._rows[2] = flow.velocity(y, -1)
        self._rows[3:5] = flow.flow_matrix(tau)
        self._rows[5] = flow.velocity(flow.apply(y, 1, tau), 1)

    @property
    def y_star(self) -> np.ndarray:
        return self._rows[0]

    @property
    def f_plus(self) -> np.ndarray:
        return self._rows[1]

    @property
    def f_minus(self) -> np.ndarray:
        return self._rows[2]

    @property
    def a_tau(self) -> np.ndarray:
        return self._rows[3:5]

    @property
    def f_image(self) -> np.ndarray:
        return self._rows[5]


def _corner(zeta: float, tau: float) -> _Corner:
    """Solve the corner of one delay; raises as :func:`collision_orbit` does."""
    return _Corner(zeta, tau, _surface_corner(zeta, tau))


def _epsilon_at(y: np.ndarray, tau: float, alpha: float) -> float:
    eps = y[0] * math.cos(alpha) + y[1] * math.sin(alpha)
    if eps <= 0:
        raise NegativeEpsilon(
            f"no colliding orbit at tau={tau:.6g}, alpha={alpha:.6g} (eps={eps:.3e})")
    return float(eps)


def collision_epsilon(zeta: float, tau: float, alpha: float) -> float:
    """Hysteresis half-width at which the symmetric orbit collides.

    For tau > pi the corner sits on the +eps line, so eps = h(y*).  Delays
    tau <= pi raise :class:`SingularSurface`: the surface degenerates at
    pi, and below it the corner sits on the -eps line, which is not modelled.

    Raises :class:`NegativeEpsilon` when the computed value is not a
    physical half-width (the parameter point lies off the surface).
    """

    return _epsilon_at(_surface_corner(zeta, tau), tau, alpha)


def collision_orbit(zeta: float, tau: float, alpha: float) -> CollisionOrbit:
    """Collision orbit data at a surface point, with transversality scalars."""
    return _orbit(_corner(zeta, tau), alpha)


def _orbit(corner: _Corner, alpha: float) -> CollisionOrbit:
    zeta, tau, y = corner.zeta, corner.tau, corner.y_star
    eps = _epsilon_at(y, tau, alpha)
    c = np.array([math.cos(alpha), math.sin(alpha)])
    g_plus = float(c @ corner.f_plus)
    g_minus = float(c @ corner.f_minus)
    q = g_plus * g_minus
    if q <= 0:
        raise NonTransversalCorner(
            f"corner not strictly transversal at tau={tau:.6g}, alpha={alpha:.6g} (q={q:.3e})")
    return CollisionOrbit(y_star=y, params=OscillatorParams(zeta, tau, eps, alpha),
                          q=q, g_plus=g_plus, g_minus=g_minus)


def collision_context(orbit: CollisionOrbit, delta: float | None = None) -> CollisionContext:
    """Reduced-map context anchored at the orbit's switch point."""
    p = orbit.params
    return oscillator_context(p.zeta, p.alpha, p.tau, p.epsilon, orbit.y_star, delta)


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


def _branch_jacobians(corner: _Corner, orbit: CollisionOrbit) -> tuple[np.ndarray, np.ndarray]:
    """Both branch Jacobians at the corner, in closed form.

    The crossing offset is 0 at y* because eps = h(y*), so
    :func:`~relaydyn.reduced.jacobian_F_branch` reduces to
    DF_b = -A(tau) + f(w, +1) c^T / g_b with g_b = c . f(y*, b), and no
    crossing-time solve is needed.
    """
    alpha = orbit.params.alpha
    c = np.array([math.cos(alpha), math.sin(alpha)])
    minus_a, f_image = -corner.a_tau, corner.f_image
    jacobians = []
    for g in (orbit.g_plus, orbit.g_minus):
        if abs(g) < 1e-8:
            raise DegenerateDerivative(f"threshold met tangentially at tau={corner.tau:.6g}, "
                                       f"alpha={alpha:.6g}")
        jacobians.append(minus_a + np.outer(f_image, c) / g)
    return jacobians[0], jacobians[1]


def _test_values(j_plus: np.ndarray, j_minus: np.ndarray) -> dict[str, float]:
    lam = float(np.trace(j_plus))
    eye = np.eye(2)
    return {
        "fold_plus": lam - 1.0,
        "flip_plus": lam + 1.0,
        "fold_minus": float(np.linalg.det(j_minus - eye)),
        "flip_minus": float(np.linalg.det(j_minus + eye)),
        "ns_minus": float(np.linalg.det(j_minus)) - 1.0,
        "trace_minus": float(np.trace(j_minus)),
    }


def stability_at_collision(orbit: CollisionOrbit) -> CollisionStability:
    """Classify the corner: branch spectra plus bifurcation residuals."""
    p = orbit.params
    return _stability(_Corner(p.zeta, p.tau, orbit.y_star), orbit)


def _stability(corner: _Corner, orbit: CollisionOrbit) -> CollisionStability:
    j_plus, j_minus = _branch_jacobians(corner, orbit)
    lam = float(np.trace(j_plus))
    ev = np.linalg.eigvals(j_minus)
    vals = _test_values(j_plus, j_minus)
    tr = vals.pop("trace_minus")
    if abs(tr) >= 2.0:
        vals.pop("ns_minus")  # determinant can be 1 with real eigenvalues
    return CollisionStability(lambda_plus=lam, eigs_minus=(complex(ev[0]), complex(ev[1])),
                              residuals=vals)


# ---------------------------------------------------------------------------
# slices of the collision surface and the on-surface NS point


def surface_alpha(zeta: float, tau: float, epsilon: float,
                  bracket: tuple[float, float] = (-math.pi / 2, math.pi / 2),
                  n_scan: int = 361) -> list[float]:
    """Switching angles at which the collision surface meets a given eps.

    Scans alpha over the bracket for sign changes of
    ``collision_epsilon - epsilon`` and refines each, returning all roots
    in increasing order (the fixed-eps slice of the surface may be crossed
    more than once).  Delays tau <= pi are refused as in
    :func:`collision_epsilon`.
    """

    return _slice_roots(_surface_corner(zeta, tau), epsilon, bracket, n_scan)


def _slice_roots(y: np.ndarray, epsilon: float,
                 bracket: tuple[float, float] = (-math.pi / 2, math.pi / 2),
                 n_scan: int = 361) -> list[float]:
    """:func:`surface_alpha` for a switch point y* already solved."""

    def g(alpha: float) -> float:
        return y[0] * math.cos(alpha) + y[1] * math.sin(alpha) - epsilon

    grid = np.linspace(bracket[0], bracket[1], n_scan)
    vals = np.array([g(a) for a in grid])
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(float(brentq(g, grid[i], grid[i + 1], xtol=1e-14)))
    for i in np.flatnonzero(vals == 0.0):
        roots.append(float(grid[i]))
    return sorted(roots)


def _slice_alpha_near(corner: _Corner, epsilon: float, hint: float | None) -> float:
    """The alpha root of the eps slice at the corner's delay nearest to hint."""
    roots = _slice_roots(corner.y_star, epsilon)
    if not roots:
        raise NegativeEpsilon(
            f"eps={epsilon:.4g} slice does not meet the surface at tau={corner.tau:.6g}")
    if hint is None:
        return roots[0]
    return min(roots, key=lambda a: abs(a - hint))


def find_nsc(zeta: float, epsilon: float,
             tau_bracket: tuple[float, float] = (math.pi + 0.2, 5.8),
             alpha_hint: float | None = None,
             n_scan: int = 60) -> tuple[float, float]:
    """Locate the Neimark-Sacker point on a fixed-eps slice of the surface.

    Walks tau along the slice (following the alpha root continuously),
    finds a sign change of det(DF_minus) - 1 and bisects it down to a tau
    interval of 1e-12.  Scan points off the surface or at a tangential
    corner are skipped.  Returns (tau, alpha).
    """

    def ns_value(tau: float, hint: float | None) -> tuple[float, float]:
        corner = _corner(zeta, tau)
        alpha = _slice_alpha_near(corner, epsilon, hint)
        orbit = _orbit(corner, alpha)
        _, j_minus = _branch_jacobians(corner, orbit)
        return float(np.linalg.det(j_minus)) - 1.0, alpha

    taus = np.linspace(tau_bracket[0], tau_bracket[1], n_scan)
    hint = alpha_hint
    prev = None
    for tau in taus:
        try:
            val, hint = ns_value(float(tau), hint)
        except (NegativeEpsilon, SingularSurface, NonTransversalCorner,
                DegenerateDerivative, ValueError):
            prev = None
            continue
        if prev is not None and prev[1] * val < 0:
            lo, hi = prev[0], float(tau)
            flo = prev[1]
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                fmid, hint = ns_value(mid, hint)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            tau_ns = 0.5 * (lo + hi)
            _, alpha_ns = ns_value(tau_ns, hint)
            return tau_ns, alpha_ns
        prev = (float(tau), val)
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


def _surface_tests(corner: _Corner, alpha: float):
    """(orbit, test values) at one surface point; None where it is invalid."""
    try:
        orbit = _orbit(corner, float(alpha))
        return orbit, _test_values(*_branch_jacobians(corner, orbit))
    except (RelayDynError, ValueError):
        # invalid surface point or (near-)tangential corner
        return None


def _surface_evaluator(zeta: float):
    """:func:`_surface_tests` by (tau, alpha), solving each distinct tau once.

    The corners live as long as the returned function, so one map run
    shares them between grid rows, constant-tau edges and midpoints.
    """
    corners: dict[float, _Corner | None] = {}

    def tests(tau, alpha):
        tau = float(tau)
        if tau not in corners:
            try:
                corners[tau] = _corner(zeta, tau)
            except (RelayDynError, ValueError):
                corners[tau] = None  # no corner at this delay
        corner = corners[tau]
        return None if corner is None else _surface_tests(corner, alpha)

    return tests


def _grid_values(tests_at, taus, alphas):
    """Test-function values over the grid; NaN where the surface is invalid."""
    vals = {k: np.full((taus.size, alphas.size), np.nan)
            for k in (*BIFURCATION_LABELS, "trace_minus")}
    for i, tau in enumerate(taus):
        for j, alpha in enumerate(alphas):
            tests = tests_at(tau, alpha)
            if tests is not None:
                for k, v in tests[1].items():
                    vals[k][i, j] = v
    return vals


def _refine_edge(tests_at, label, p0, p1, v0, tol, max_iter=80):
    """Bisect ``label`` along the segment p0-p1 until it is below tol.

    Returns the last midpoint, the test value there (NaN off the surface)
    and its :func:`_surface_tests` result.  A NaN midpoint ends the search,
    because the sign test brackets nothing past it.
    """
    a, b = 0.0, 1.0
    fa = v0
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        point = (p0[0] + m * (p1[0] - p0[0]), p0[1] + m * (p1[1] - p0[1]))
        tests = tests_at(*point)
        fm = math.nan if tests is None else tests[1][label]
        if math.isnan(fm) or abs(fm) < tol:
            break
        if (fa < 0) != (fm < 0):
            b = m
        else:
            a, fa = m, fm
    return point, fm, tests


def _chain_segments(segments: list[tuple[tuple, tuple]], tol: float) -> list[np.ndarray]:
    """Join segments sharing endpoints (within tol) into polylines."""

    def key(p):
        return (round(p[0] / tol), round(p[1] / tol))

    links: dict[tuple, list[int]] = {}
    for idx, (p, q) in enumerate(segments):
        links.setdefault(key(p), []).append(idx)
        links.setdefault(key(q), []).append(idx)

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segments[start])
        for endpos in (0, -1):
            while True:
                end = chain[endpos]
                nxt = [i for i in links.get(key(end), []) if not used[i]]
                if not nxt:
                    break
                i = nxt[0]
                used[i] = True
                p, q = segments[i]
                other = q if key(p) == key(end) else p
                if endpos == 0:
                    chain.insert(0, other)
                else:
                    chain.append(other)
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
    concurrence candidates.
    """

    taus = np.linspace(tau_range[0], tau_range[1], n_tau)
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_alpha)
    tests_at = _surface_evaluator(zeta)
    vals = _grid_values(tests_at, taus, alphas)

    result = BifurcationMap(zeta=zeta, tau_grid=taus, alpha_grid=alphas)
    for label in BIFURCATION_LABELS:
        grid = vals[label]
        # validated crossing per grid edge (or None), shared between the two
        # adjacent cells
        edge_pts: dict[tuple, CurvePoint | None] = {}

        def crossing(i0, j0, i1, j1):
            v0, v1 = grid[i0, j0], grid[i1, j1]
            if not (np.isfinite(v0) and np.isfinite(v1) and np.sign(v0) * np.sign(v1) < 0):
                return None
            refined = _refine_edge(tests_at, label, (taus[i0], alphas[j0]),
                                   (taus[i1], alphas[j1]), v0, residual_tol)
            return _curve_point(label, *refined, residual_tol)

        segments = []
        for i in range(taus.size - 1):
            for j in range(alphas.size - 1):
                kept = []
                for (i0, j0, i1, j1, eid) in (
                        (i, j, i + 1, j, ("h", i, j)),
                        (i, j + 1, i + 1, j + 1, ("h", i, j + 1)),
                        (i, j, i, j + 1, ("v", i, j)),
                        (i + 1, j, i + 1, j + 1, ("v", i + 1, j))):
                    if eid not in edge_pts:
                        edge_pts[eid] = crossing(i0, j0, i1, j1)
                    cp = edge_pts[eid]
                    if cp is not None:
                        kept.append((cp.tau, cp.alpha))
                if len(kept) >= 2:
                    # ambiguous 4-crossing cells: pair in hit order
                    for a, b in zip(kept[0::2], kept[1::2]):
                        segments.append((a, b))
        # edges enter edge_pts in the order the cells first meet them
        result.points[label] = [cp for cp in edge_pts.values() if cp is not None]
        tol = max(taus[1] - taus[0], alphas[1] - alphas[0]) * 1e-6
        result.polylines[label] = _chain_segments(segments, tol)
    return result


def _curve_point(label, point, residual, tests, residual_tol) -> CurvePoint | None:
    """Validate and tag one refined crossing; None drops it (NaN included)."""
    if not abs(residual) < residual_tol * 10 or tests is None:
        return None
    orbit, tv = tests
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
                      epsilon=orbit.params.epsilon, label=label,
                      residual=float(residual), tags=tuple(tags))
