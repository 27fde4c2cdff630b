"""Brute-force attractor analysis for the reduced half-return map.

Everything here iterates the half-return map of :mod:`relaydyn.reduced` and
post-processes the orbit: parameter sweeps record the min/max envelope of
the iterates (the numerical bifurcation diagram), and single-parameter runs
are turned into polygon descriptions - angles about the attractor mean, the
induced circle map, corner/arc segmentation.  :func:`iterate_attractor` runs
the same map as :func:`relaydyn.reduced.map_F` on two floats per step, which
stays the library route and the tests' oracle for that loop.

The sampling window follows the convention of keeping iterates 40 through
400: late enough to shed transients at desk scale, long enough to cover
the attractor densely in the quasi-periodic regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CentroidOnCurve, DegenerateDerivative, InsufficientSamples,
                     LeftNeighborhood, NoConvergence, NoRootInBracket)
from .oscillator import surface_corner
from .reduced import CollisionContext, branch_of, oscillator_context

__all__ = [
    "AttractorRun",
    "SweepRecord",
    "PolygonDescription",
    "iterate_attractor",
    "sweep",
    "visit_window",
    "extract_circle_map",
    "polygon_arcs",
    "on_plus_image_manifold",
]

DEFAULT_RADIUS = 3.0  # past tau = 4.45 the attractor reaches beyond 0.5 from the corner
MIN_SAMPLES = 200   # fewest samples a circle map or polygon is extracted from


@dataclass(frozen=True)
class AttractorRun:
    """Iterates of the half-return map after transient removal."""

    points: np.ndarray          # sampled window, orbit order
    env_min: np.ndarray         # per-coordinate envelope over the window
    env_max: np.ndarray
    visited_plus: bool          # some sample in D+ (h < eps)
    visited_minus: bool
    final: np.ndarray           # last iterate, for warm starts
    period: int                 # exact float period of the orbit, 0 if none

    @property
    def width(self) -> np.ndarray:
        return self.env_max - self.env_min


@dataclass(frozen=True)
class SweepRecord:
    """Envelope data of one parameter value within a sweep."""

    alpha: float
    env_min: np.ndarray
    env_max: np.ndarray
    visited_plus: bool
    visited_minus: bool
    sample: np.ndarray          # last few attractor points
    escaped: bool = False
    retried: bool = False       # the warm start left, the default seed ran

    @property
    def width(self) -> np.ndarray:
        return self.env_max - self.env_min


def iterate_attractor(ctx: CollisionContext, y0, n_transient: int = 40,
                      n_total: int = 400, radius: float = DEFAULT_RADIUS) -> AttractorRun:
    """Iterate the half-return map and keep the post-transient window.

    Raises :class:`LeftNeighborhood` when an iterate moves further than
    ``radius`` from the reference corner (the local map construction is
    only meaningful nearby; crossing-time failures count as having left),
    and ``ValueError`` unless ``n_transient`` and ``n_total`` are integers
    with 0 <= n_transient < n_total, ``y0`` is one finite state of shape (2,)
    and ``radius`` is positive.

    Each step is :func:`relaydyn.reduced.map_F` on the floats (x, x'), in
    one call: the context's
    :attr:`~relaydyn.reduced.CollisionContext.crossing_kernel` is primed once
    per run (:meth:`~relaydyn.reduced.CrossingKernel.map_steps`) and maps
    (x, x', h, branch) to the next (x, x', h), solving the crossing and
    evaluating the image inline.  The threshold h = c . y is read once per
    iterate, by the kernel, which rounds it as map_F's ``c @ y`` (the BLAS
    ddot's fused multiply-add) bit for bit, so the iterates equal map_F's;
    it serves as the kernel's value at t = 0, the next step's branch and the
    D+/D- flags.  An iterate escapes when its squared distance to the
    corner, a plain float sum of squares, exceeds ``radius * radius``.

    Every step is a pure function of (x, x'): h, the branch, the crossing
    solve, the image and the escape test read nothing else.  So once the
    state repeats an earlier one exactly, the orbit is periodic from there
    on: the rest of the window is copied from the stored cycle instead of
    mapped, which gives the same samples, flags and final iterate, and no
    escape, since each copied state has passed the test once.  ``period`` is
    that exact float period, or 0 if no state repeated within ``n_total``.
    A stable fixed point in D+, where the map has rank one, draws the float
    iterates onto such a cycle of a few ulps within about 60 maps (the
    default sweep's alpha <= -0.475).  Repeats are found as in Brent's cycle
    detection (BIT 20, 1980): each state is compared with a checkpoint, y0
    and then iterates 2**m - 2, so the first match gives the least period,
    at two float compares per step.  A state with a zero coordinate never
    counts as a repeat, because +0.0 == -0.0 although their bits, and what
    follows from them, differ.
    """

    for name, n in (("n_transient", n_transient), ("n_total", n_total)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {n!r}")
    if not 0 <= n_transient < n_total:
        raise ValueError("need 0 <= n_transient < n_total")
    y = np.asarray(y0, dtype=float)
    if y.shape != (2,):
        raise ValueError(f"y0 must be one state of shape (2,), got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError(f"y0 must be finite, got {y.tolist()}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    kernel = ctx.crossing_kernel
    step = kernel.map_steps(ctx.tau).send
    eps, r2 = ctx.epsilon, radius * radius
    x_ref, xdot_ref = float(ctx.y_ref[0]), float(ctx.y_ref[1])
    orbit = []                      # x, x', h of every iterate, flat
    x, xdot = float(y[0]), float(y[1])
    h = kernel.dot(x, xdot)
    x_cp, xdot_cp, k_cp, k_next = x, xdot, -1, 0    # checkpoint: y0 is iterate -1
    period = 0
    for k in range(n_total):
        try:
            x, xdot, h = step((x, xdot, h, -1 if h >= eps else 1))
        except (NoRootInBracket, DegenerateDerivative, NoConvergence) as exc:
            raise LeftNeighborhood(
                f"iterate {k} lost the threshold crossing: {exc}") from exc
        dx, dxdot = x - x_ref, xdot - xdot_ref
        if dx * dx + dxdot * dxdot > r2:
            raise LeftNeighborhood(f"iterate {k} left the working neighborhood")
        orbit += (x, xdot, h)
        if x == x_cp and xdot == xdot_cp and x and xdot:
            period = k - k_cp
            break
        if k == k_next:
            x_cp, xdot_cp, k_cp, k_next = x, xdot, k, 2 * k + 2
    if period:
        rest = n_total - len(orbit) // 3
        orbit += (orbit[-3 * period:] * (rest // period + 1))[:3 * rest]
    window = np.array(orbit[3 * n_transient:]).reshape(-1, 3)
    pts = window[:, :2].copy()
    minus = window[:, 2] >= eps
    return AttractorRun(points=pts, env_min=pts.min(axis=0), env_max=pts.max(axis=0),
                        visited_plus=not minus.all(), visited_minus=bool(minus.any()),
                        final=pts[-1], period=period)


def sweep(zeta: float, tau: float, epsilon: float, alphas, *,
          warm_start: bool = True, y0=None, n_transient: int = 40,
          n_total: int = 400, keep: int = 32,
          radius: float = DEFAULT_RADIUS) -> list[SweepRecord]:
    """Envelope sweep over switching angles at fixed (zeta, tau, eps).

    With ``warm_start`` each parameter value starts from the previous
    attractor's last iterate, following the hysteresis-free protocol of
    numerical bifurcation diagrams.  A warm start that leaves the
    neighborhood is retried once from the default seed (``retried``); a
    run that escapes from the default seed is recorded with ``escaped``
    set (NaN envelope).  ``sample`` holds the last ``keep`` points of the
    window, none for ``keep = 0``.

    A warm-started record's ``visited_plus`` (the D+ flag) is good only to
    the warm-start step: it reads iterates that started from the previous
    value's attractor.  At tau = 4.2 a 101-value sweep over
    alpha in [-0.5, 0] sets it at alpha = -0.430, 9.4e-4 past the family's
    alpha, where the 0.001 grid and a cold start leave it unset.

    Escapes never raise.  The inputs do, before any iteration: a ``keep``
    not a non-negative integer, or a non-finite zeta, tau, eps, alpha or ``y0``, raises
    ``ValueError``, and a delay the collision surface does not cover
    (tau < pi, where the corner sits on the -eps line) raises
    :class:`SingularSurface`.
    """

    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)) or keep < 0:
        raise ValueError(f"keep must be a non-negative integer, got {keep!r}")
    for name, value in (("zeta", zeta), ("tau", tau), ("epsilon", epsilon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    alphas = np.asarray(alphas, dtype=float)
    if not np.isfinite(alphas).all():
        raise ValueError(f"alphas must be finite, got {alphas.tolist()}")
    y = None if y0 is None else np.asarray(y0, dtype=float)
    if y is not None and not np.isfinite(y).all():
        raise ValueError(f"y0 must be finite, got {y.tolist()}")
    y_ref = surface_corner(zeta, tau)
    records: list[SweepRecord] = []
    if alphas.size == 0:
        return records
    default_seed = y_ref + np.array([1e-3, 0.0])
    if y is None:
        y = default_seed
    for alpha in alphas:
        ctx = oscillator_context(zeta, float(alpha), tau, epsilon, y_ref, delta=0.45 * tau)
        # the iteration is deterministic: rerunning the default seed cannot help
        seeds = (y,) if np.array_equal(y, default_seed) else (y, default_seed)
        run = None
        for k, seed in enumerate(seeds):
            try:
                run = iterate_attractor(ctx, seed, n_transient, n_total, radius)
                break
            except LeftNeighborhood:
                continue
        retried = k > 0
        if run is None:
            nan2 = np.full(2, np.nan)
            records.append(SweepRecord(alpha=float(alpha), env_min=nan2, env_max=nan2,
                                       visited_plus=False, visited_minus=False,
                                       sample=np.empty((0, 2)), escaped=True,
                                       retried=retried))
            y = default_seed
            continue
        records.append(SweepRecord(alpha=float(alpha), env_min=run.env_min,
                                   env_max=run.env_max, visited_plus=run.visited_plus,
                                   visited_minus=run.visited_minus,
                                   sample=run.points[-keep:] if keep else run.points[:0],
                                   retried=retried))
        if warm_start:
            y = run.final
    return records


def visit_window(records: list[SweepRecord]) -> tuple[float, float] | None:
    """Parameter range over which the attractor still reaches D+.

    Returns (first, last) alpha with the D+ flag set, or None if the flag
    never fires.  The upper edge estimates where the attractor detaches
    from the threshold (the grazing end of the polygon regime).  From a
    warm-started :func:`sweep` the edge is good only to the warm-start
    step, since the D+ flag is (see :func:`sweep`).
    """

    flagged = [r.alpha for r in records if r.visited_plus]
    if not flagged:
        return None
    return min(flagged), max(flagged)


# ---------------------------------------------------------------------------
# circle map and polygon structure


@dataclass(frozen=True)
class PolygonDescription:
    """Geometry of a closed attractor seen from its mean point.

    ``points`` are the attractor samples sorted by angle; ``orbit_next``
    maps each sorted point to the angle of its image, giving the circle
    map pairs.  ``arc_ids`` numbers the arc of each sorted point; a plain
    circle-map extraction is one arc with no corners, and
    :func:`polygon_arcs` fills in the arcs and corners of a polygon.
    """

    points: np.ndarray
    centroid: np.ndarray
    angles: np.ndarray                  # sorted, in [-pi, pi)
    pairs: np.ndarray                   # (m, 2) circle-map graph (phi_k, phi_{k+1})
    monotone: bool
    locking_period: int | None
    arc_ids: np.ndarray
    corner_indices: tuple[int, ...] = ()

    @property
    def arc_count(self) -> int:
        return len(set(self.arc_ids.tolist()))  # np.unique would import numpy.ma


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a non-empty 1-D array, bit for bit: the
    middle sorted value, or the mean of the middle two, NaN if any value is.

    ``np.median`` imports ``numpy.ma`` on its first call, which costs every
    ``polygon`` process about 8 ms.
    """
    s = np.sort(values).tolist()
    n = len(s)
    if math.isnan(s[-1]):
        return math.nan
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def _angles_about(samples: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    rel = samples - centroid
    radii = np.hypot(rel[:, 0], rel[:, 1])
    scale = _median(radii)
    if scale <= 0.0 or np.min(radii) < 1e-6 * scale:
        raise CentroidOnCurve("a sample (nearly) coincides with the attractor mean")
    return np.arctan2(rel[:, 1], rel[:, 0])


def _circular_monotone(phi_in: np.ndarray, phi_out: np.ndarray) -> bool:
    """True when the induced map preserves strict circular order."""
    order = np.argsort(phi_in)
    pin = phi_in[order]
    pout = phi_out[order]
    # collapse numerically identical inputs (locked orbits revisit points)
    keep = np.concatenate([[True], np.diff(pin) > 1e-9])
    pout = pout[keep]
    if pout.size < 3:
        return True
    gaps = np.mod(np.diff(np.append(pout, pout[0])), 2.0 * math.pi)
    winding = gaps.sum() / (2.0 * math.pi)
    return bool(np.all(gaps > 0.0) and abs(winding - 1.0) < 1e-9)


def _locking_period(angles_in_orbit_order: np.ndarray) -> int | None:
    phi = angles_in_orbit_order
    for q in range(1, 65):
        d = np.mod(phi[q:] - phi[:-q] + math.pi, 2.0 * math.pi) - math.pi
        if np.max(np.abs(d)) < 1e-6:
            return q
    return None


def extract_circle_map(samples: np.ndarray) -> PolygonDescription:
    """Angle dynamics of a closed attractor about its sample mean.

    ``samples`` must be in orbit order.  Raises
    :class:`InsufficientSamples` below ``MIN_SAMPLES`` points and
    :class:`CentroidOnCurve` when the mean is not strictly inside the
    curve (degenerate angles).
    """

    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < MIN_SAMPLES:
        raise InsufficientSamples(
            f"need at least {MIN_SAMPLES} samples, got {samples.shape[0]}")
    centroid = samples.mean(axis=0)
    phi = _angles_about(samples, centroid)
    pairs = np.stack([phi[:-1], phi[1:]], axis=-1)
    order = np.argsort(phi)
    return PolygonDescription(
        points=samples[order],
        centroid=centroid,
        angles=phi[order],
        pairs=pairs,
        monotone=_circular_monotone(pairs[:, 0], pairs[:, 1]),
        locking_period=_locking_period(phi),
        arc_ids=np.zeros(samples.shape[0], dtype=int),
    )


def _turning_corners(points: np.ndarray) -> tuple[int, ...]:
    """Indices whose turning angle exceeds ten times the median."""
    nxt = np.roll(points, -1, axis=0)
    prv = np.roll(points, 1, axis=0)
    sec_in = points - prv
    sec_out = nxt - points
    ang = np.abs(np.arctan2(
        sec_in[:, 0] * sec_out[:, 1] - sec_in[:, 1] * sec_out[:, 0],
        (sec_in * sec_out).sum(axis=1)))
    med = _median(ang)
    if med <= 0.0:
        return ()
    return tuple(int(i) for i in np.flatnonzero(ang > 10.0 * med))


def polygon_arcs(samples: np.ndarray, ctx: CollisionContext) -> PolygonDescription:
    """Segment a polygon attractor into its smooth arcs.

    Arc identity is the number of map applications since the orbit last
    passed through D+ (each D+ passage projects onto the image of the
    rank-one branch, so points sharing that age lie on a common smooth
    image arc).  Corner candidates from the turning-angle test refine the
    arc boundaries.  A degenerate (point-like) attractor raises
    :class:`InsufficientSamples`.
    """

    samples = np.asarray(samples, dtype=float)
    desc = extract_circle_map(samples)
    diam = float(np.max(desc.points.max(axis=0) - desc.points.min(axis=0)))
    if diam < 1e-8:
        raise InsufficientSamples("attractor is a point, no polygon to segment")

    # ages along the orbit; unknown until the first D+ passage
    in_plus = np.array([branch_of(ctx, y) > 0 for y in samples])
    ages = np.full(samples.shape[0], -1)
    age = None
    for k in range(samples.shape[0]):
        if in_plus[k]:
            age = 0
        elif age is not None:
            age += 1
        if age is not None:
            ages[k] = age

    order = np.argsort(_angles_about(samples, desc.centroid))
    sorted_ages = ages[order]
    known = sorted_ages >= 0

    if not known.any():
        return desc  # smooth curve regime: single arc, no corners

    # boundaries where the age changes between angle-neighbors (unknown ages
    # inherit their predecessor to avoid spurious cuts)
    filled = sorted_ages.copy()
    for i in range(filled.size):
        if filled[i] < 0:
            filled[i] = filled[i - 1] if i else filled[known.argmax()]
    change = np.flatnonzero(filled != np.roll(filled, 1))
    corners_turn = _turning_corners(desc.points)
    corners = tuple(sorted(set(int(i) for i in change) | set(corners_turn)))
    arc_ids = np.zeros(filled.size, dtype=int)
    current = 0
    for i in range(filled.size):
        if i in corners and i != 0:
            current += 1
        arc_ids[i] = current
    return PolygonDescription(
        points=desc.points, centroid=desc.centroid, angles=desc.angles,
        pairs=desc.pairs, monotone=desc.monotone,
        locking_period=desc.locking_period,
        corner_indices=corners, arc_ids=arc_ids)


def on_plus_image_manifold(ctx: CollisionContext, w) -> bool:
    """Does w lie on the image of the rank-one branch?

    That image is the delayed push-forward of the threshold line, so
    pulling w back by tau under the propagation flow must land on it (1e-8).
    """

    z = ctx.flow.apply(-np.asarray(w, dtype=float), 1, -ctx.tau)
    return abs(float(ctx.h(z)) - ctx.epsilon) <= 1e-8
