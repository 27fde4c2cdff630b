"""Collision surface, corner stability, and the bifurcation map."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from relaydyn.errors import (DegenerateDerivative, NegativeEpsilon, NonTransversalCorner,
                             RelayDynError, SingularSurface)
from relaydyn.oscillator import (bifurcation_map, collision_epsilon,
                                 collision_orbit, collision_point, find_nsc,
                                 stability_at_collision, surface_alpha)

ZETA, EPS = -0.1, 0.1

# frozen landmark values, pinned by the matrix-exponential oracle below and
# by the bisection-based locator probes
Y_STAR_42 = np.array([0.8671183934591682, 1.4690050479176497])
SPC_42 = -0.4745828278048784
SPC_425 = -0.46643946113202234
NSC = (4.1304261916526945, -0.48779391649198917)
LAMBDA_PLUS_NSC = -0.11706204327661995
NS_ANGLE = 1.2336786518012657


def corner_oracle(zeta, tau):
    """Corner point via generic linear algebra: expm, quadrature-free drift."""
    omsq = 1.0 + zeta * zeta
    M = np.array([[0.0, 1.0], [-omsq, -2.0 * zeta]])
    b = np.array([0.0, omsq])
    A = expm(M * tau)
    v = np.linalg.solve(M, (A - np.eye(2)) @ b)
    return np.linalg.solve(np.eye(2) + A, -v)


def test_collision_point_matches_expm_oracle():
    for tau in (1.1, 2.5, 3.6, 4.2, 5.5):
        np.testing.assert_allclose(collision_point(ZETA, tau),
                                   corner_oracle(ZETA, tau), rtol=0, atol=1e-12)
    np.testing.assert_allclose(collision_point(ZETA, 4.2), Y_STAR_42,
                               rtol=0, atol=1e-13)


def test_collision_point_solves_fixed_point_equation():
    from relaydyn.flows import AffineOscillatorFlow
    flow = AffineOscillatorFlow(ZETA)
    for tau in (3.3, 4.2, 5.8):
        y = collision_point(ZETA, tau)
        np.testing.assert_allclose(flow.apply(y, 1, tau), -y, rtol=0, atol=1e-12)


def test_collision_point_refuses_the_singular_delay():
    # at zeta = 0, tau = (2k+1) pi both singular values of I + A(tau) sit at
    # rounding level, so a test relative to the largest alone cannot see it
    for tau in (math.pi, 3.0 * math.pi):
        with pytest.raises(SingularSurface):
            collision_point(0.0, tau)
    # both singular values are 1e-8 here: well conditioned, so the large y*
    # is a result, and it solves the fixed-point equation
    from relaydyn.flows import AffineOscillatorFlow
    zeta, tau = 1e-12, math.pi + 1e-8
    y = collision_point(zeta, tau)
    assert np.abs(y).max() > 1e8
    np.testing.assert_allclose(AffineOscillatorFlow(zeta).apply(y, 1, tau), -y,
                               rtol=1e-12, atol=0)


def test_collision_epsilon_sign_rule():
    # corner on the +eps line beyond tau = pi; delays up to pi are refused
    y = collision_point(ZETA, 4.2)
    h = float(math.cos(-0.4) * y[0] + math.sin(-0.4) * y[1])
    assert collision_epsilon(ZETA, 4.2, -0.4) == pytest.approx(h, abs=1e-14)
    assert collision_epsilon(ZETA, 4.2, -0.4) == pytest.approx(
        0.22661141879455537, abs=1e-14)
    with pytest.raises(SingularSurface):
        collision_epsilon(ZETA, 2.5, 1.0)
    with pytest.raises(SingularSurface):
        collision_epsilon(ZETA, 2.5, -0.3)
    with pytest.raises(NegativeEpsilon):
        collision_epsilon(ZETA, 4.2, -1.2)
    with pytest.raises(SingularSurface):
        collision_epsilon(ZETA, math.pi, 0.0)


@pytest.mark.parametrize("tau", [2.0, 2.5, math.pi])
def test_surface_refuses_tau_up_to_pi(tau):
    # the old tau < pi path put the corner on the -eps line, and its map
    # sent y* about 4 away from itself at tau = 2.0 and 2.5
    with pytest.raises(SingularSurface):
        collision_epsilon(ZETA, tau, 0.7)
    with pytest.raises(SingularSurface):
        collision_orbit(ZETA, tau, 0.7)
    with pytest.raises(SingularSurface):
        surface_alpha(ZETA, tau, EPS)


def test_collision_orbit_transversality_scalars():
    orbit = collision_orbit(ZETA, 4.2, SPC_42)
    assert orbit.q == pytest.approx(orbit.g_plus * orbit.g_minus, rel=1e-14)
    assert orbit.q > 0
    assert orbit.params.epsilon == pytest.approx(EPS, abs=1e-12)


def test_surface_alpha_inverts_collision_epsilon():
    roots = surface_alpha(ZETA, 4.2, EPS)
    assert roots
    for alpha in roots:
        assert collision_epsilon(ZETA, 4.2, alpha) == pytest.approx(EPS, abs=1e-12)
    assert min(roots, key=lambda a: abs(a - SPC_42)) == pytest.approx(
        SPC_42, abs=1e-12)
    assert min(surface_alpha(ZETA, 4.25, EPS),
               key=lambda a: abs(a - SPC_425)) == pytest.approx(SPC_425, abs=1e-12)


def test_find_nsc_location_and_residual():
    tau, alpha = find_nsc(ZETA, EPS)
    assert tau == pytest.approx(NSC[0], abs=1e-9)
    assert alpha == pytest.approx(NSC[1], abs=1e-9)
    stab = stability_at_collision(collision_orbit(ZETA, tau, alpha))
    assert abs(stab.residuals["ns_minus"]) < 1e-9
    ev = stab.eigs_minus[0]
    assert abs(abs(ev) - 1.0) < 1e-9
    assert abs(float(np.angle(ev))) == pytest.approx(NS_ANGLE, abs=1e-9)
    # not a strong resonance: the angle is far from pi, 2pi/3 and pi/2
    for target in (math.pi, 2 * math.pi / 3, math.pi / 2):
        assert abs(NS_ANGLE - target) > 1e-2


@pytest.mark.parametrize("zeta, epsilon", [(-0.2, 0.1), (-0.3, 0.1), (-0.1, 0.5)])
def test_find_nsc_skips_tangential_scan_points(monkeypatch, zeta, epsilon):
    # each slice crosses a non-transversal corner (q < 0) inside the scan;
    # skipped, it shows the slice has no NS sign change at all
    from relaydyn import oscillator as osc
    real, tangential = osc._ns_value, []

    def recorded(rows, alpha):
        eps, _, _, q, _ = osc._masked_scalars(rows[None], np.array([alpha]))
        tangential.extend(q[(eps > 0) & (q <= 0)].tolist())
        return real(rows, alpha)

    monkeypatch.setattr(osc, "_ns_value", recorded)
    with pytest.raises(NegativeEpsilon, match="no Neimark-Sacker point on this slice"):
        find_nsc(zeta, epsilon)
    assert tangential


def test_find_nsc_skips_degenerate_scan_points(monkeypatch):
    # a tangential crossing at the first scan point leaves the NS point as is
    from relaydyn import oscillator as osc
    real, calls = osc._ns_value, []

    def degenerate_at_first(rows, alpha):
        value = real(rows, alpha)
        if not calls:  # masked as at |g_b| < 1e-8
            value = math.nan
        calls.append(alpha)
        return value

    monkeypatch.setattr(osc, "_ns_value", degenerate_at_first)
    assert find_nsc(ZETA, EPS) == NSC
    assert len(calls) > 1


def test_find_nsc_bisection_point_off_the_kernel_raises_its_reason(monkeypatch):
    # the scan solves its corners stacked and bisection one at a time, so
    # from the first bisection point on every corner counts as tangential
    from relaydyn import oscillator as osc
    real = osc._corner

    def tangential_from_here(zeta, tau):
        monkeypatch.setattr(osc, "_G_MIN", math.inf)
        return real(zeta, tau)

    monkeypatch.setattr(osc, "_corner", tangential_from_here)
    with pytest.raises(DegenerateDerivative, match="threshold met tangentially at tau="):
        find_nsc(ZETA, EPS)


def test_stability_at_nsc():
    stab = stability_at_collision(collision_orbit(ZETA, *NSC))
    assert stab.lambda_plus == pytest.approx(LAMBDA_PLUS_NSC, abs=1e-12)
    assert stab.stable_plus
    assert not stab.stable_minus or abs(abs(stab.eigs_minus[0]) - 1) < 1e-9
    assert "ns_minus" in stab.near(tol=1e-6)


def test_stability_spectra_match_numpy_eigendecomposition():
    from relaydyn.reduced import jacobian_F_branch
    from relaydyn.oscillator import collision_context
    orbit = collision_orbit(ZETA, 4.2, SPC_42)
    ctx = collision_context(orbit)
    stab = stability_at_collision(orbit)
    jp = jacobian_F_branch(ctx, orbit.y_star, +1)
    jm = jacobian_F_branch(ctx, orbit.y_star, -1)
    assert stab.lambda_plus == pytest.approx(float(np.trace(jp)), abs=1e-14)
    got = sorted(stab.eigs_minus, key=lambda z: z.imag)
    ref = sorted(np.linalg.eigvals(jm), key=lambda z: z.imag)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_stability_drops_ns_minus_where_the_pair_is_real():
    # at tau = 5.1 the minus branch has trace -2.26, where det(DF_minus) = 1
    # would mean a real pair, not a Neimark-Sacker point
    stab = stability_at_collision(collision_orbit(ZETA, 5.1, -0.4))
    assert set(stab.residuals) == {"fold_plus", "flip_plus", "fold_minus", "flip_minus"}
    assert sum(stab.eigs_minus).real == pytest.approx(-2.2588860136508955, rel=1e-12)
    assert "ns_minus" in stability_at_collision(collision_orbit(ZETA, 4.2, SPC_42)).residuals


@pytest.mark.parametrize("target, name", [
    (math.pi, "1:2"), (2 * math.pi / 3, "1:3"), (math.pi / 2, "1:4")])
def test_curve_point_tags_strong_resonances(target, name):
    from relaydyn.oscillator import _curve_point

    def tags(angle):
        tv = {"trace_minus": 2 * math.cos(angle), "fold_minus": 1.0, "flip_minus": 1.0}
        cp = _curve_point("ns_minus", (4.0, -0.4), 1e-9, 0.1, tv, 1e-8)
        return None if cp is None else cp.tags

    # at 1:2 itself the trace is -2 and the pair is real
    assert tags(target) == (None if name == "1:2" else (name,))
    for off in (-9e-4, 9e-4):
        assert tags(target + off) == (name,)
    for off in (-1.1e-3, 1.1e-3):
        assert tags(target + off) == ()


@pytest.mark.parametrize("label", ["fold_minus", "flip_minus", "fold_plus"])
def test_curve_point_tags_pd_sn_where_fold_and_flip_both_vanish(label):
    from relaydyn.oscillator import _curve_point
    for fold, flip, tagged in [(9e-5, -9e-5, True), (1.1e-4, 9e-5, False),
                               (-9e-5, -1.1e-4, False)]:
        tv = {"trace_minus": 0.5, "fold_minus": fold, "flip_minus": flip}
        cp = _curve_point(label, (4.0, -0.4), 1e-9, 0.1, tv, 1e-8)
        assert cp.tags == (("pd-sn",) if tagged and label != "fold_plus" else ())
        assert (cp.label, cp.tau, cp.alpha, cp.epsilon) == (label, 4.0, -0.4, 0.1)


def test_bifurcation_map_small_grid():
    bmap = bifurcation_map(ZETA, tau_range=(3.3, 5.2), alpha_range=(-1.1, 0.3),
                           n_tau=18, n_alpha=18)
    pts = bmap.all_points()
    assert pts
    labels = {p.label for p in pts}
    assert "ns_minus" in labels
    for p in pts:
        assert abs(p.residual) < 1e-7
        assert p.epsilon > 0
    # the NS curve passes by the dedicated locator's on-slice point; grid
    # refinement lands on edges, so compare against the nearest curve point
    ns_pts = bmap.points["ns_minus"]
    assert ns_pts
    nearest = min(ns_pts, key=lambda p: abs(p.epsilon - EPS))
    assert abs(nearest.epsilon - EPS) < 0.05
    assert abs(nearest.tau - NSC[0]) < 0.25
    for label, polys in bmap.polylines.items():
        for seg in polys:
            assert seg.ndim == 2 and seg.shape[1] == 2
            steps = np.linalg.norm(np.diff(seg, axis=0), axis=1)
            if steps.size:
                assert float(steps.max()) < 0.6  # chained, not scattered


@pytest.mark.parametrize("n_tau, n_alpha", [(1, 18), (18, 1)])
def test_bifurcation_map_refuses_one_point_grid(n_tau, n_alpha):
    # a one-point axis leaves no grid edge and no spacing to chain by
    with pytest.raises(ValueError, match="n_tau, n_alpha >= 2"):
        bifurcation_map(ZETA, n_tau=n_tau, n_alpha=n_alpha)


# -- the bifurcation map against its three-evaluation predecessor ------------

def generic_branch_jacobians(orbit):
    """Both branch Jacobians through the reduced map's crossing-time solve."""
    from relaydyn.oscillator import collision_context
    from relaydyn.reduced import jacobian_F_branch
    ctx = collision_context(orbit)
    return (jacobian_F_branch(ctx, orbit.y_star, +1),
            jacobian_F_branch(ctx, orbit.y_star, -1))


def reference_bifurcation_map(zeta, tau_range, alpha_range, n_tau, n_alpha,
                              residual_tol=1e-8, counts=None):
    """The map as it was written before one evaluator served every stage.

    The grid, each bisection midpoint and each accepted crossing (once per
    adjacent cell) evaluate the surface separately, each with its own
    corner solve and the generic branch Jacobians.  ``counts`` collects
    the midpoints in evaluation order and the number of re-evaluations.
    """
    from relaydyn import oscillator as osc
    from relaydyn.errors import RelayDynError
    counts = {} if counts is None else counts
    counts.update(midpoints=[], reevaluations=0)

    def tests_at(tau, alpha):
        orbit = osc.collision_orbit(zeta, tau, alpha)
        j_plus, j_minus = generic_branch_jacobians(orbit)
        return orbit, {k: float(v[0]) for k, v in osc._tests(j_plus[None], j_minus[None]).items()}

    taus = np.linspace(tau_range[0], tau_range[1], n_tau)
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_alpha)
    vals = {k: np.full((n_tau, n_alpha), np.nan)
            for k in osc.BIFURCATION_LABELS + ("trace_minus",)}
    for i, tau in enumerate(taus):
        for j, alpha in enumerate(alphas):
            try:
                _, tv = tests_at(float(tau), float(alpha))
            except (RelayDynError, ValueError):
                continue
            for k in vals:
                vals[k][i, j] = tv[k]

    def refine(label, p0, p1, v0):
        a, b, fa = 0.0, 1.0, v0
        for _ in range(80):
            m = 0.5 * (a + b)
            point = (p0[0] + m * (p1[0] - p0[0]), p0[1] + m * (p1[1] - p0[1]))
            counts["midpoints"].append(point)
            try:
                fm = tests_at(*point)[1][label]
            except (RelayDynError, ValueError):
                fm = math.nan
            if abs(fm) < residual_tol:
                return point, fm
            if (fa < 0) != (fm < 0):
                b = m
            else:
                a, fa = m, fm
        return point, fm

    def curve_point(point, label, residual):
        if abs(residual) >= residual_tol * 10:
            return None
        counts["reevaluations"] += 1
        try:
            orbit, tv = tests_at(*point)
        except (RelayDynError, ValueError):
            return None
        tags = []
        if label == "ns_minus":
            tr = tv["trace_minus"]
            if abs(tr) >= 2.0:
                return None
            angle = math.acos(max(-1.0, min(1.0, tr / 2.0)))
            tags += [name for target, name in osc._RESONANCES
                     if abs(angle - target) < 1e-3]
        if label in ("fold_minus", "flip_minus") and abs(tv["fold_minus"]) < 1e-4 \
                and abs(tv["flip_minus"]) < 1e-4:
            tags.append("pd-sn")
        return osc.CurvePoint(tau=float(point[0]), alpha=float(point[1]),
                              epsilon=orbit.params.epsilon, label=label,
                              residual=float(residual), tags=tuple(tags))

    points, polylines = {}, {}
    for label in osc.BIFURCATION_LABELS:
        grid = vals[label]
        edge_pts = {}
        segments, accepted = [], {}
        for i in range(n_tau - 1):
            for j in range(n_alpha - 1):
                hits = []
                for (i0, j0, i1, j1, eid) in (
                        (i, j, i + 1, j, ("h", i, j)),
                        (i, j + 1, i + 1, j + 1, ("h", i, j + 1)),
                        (i, j, i, j + 1, ("v", i, j)),
                        (i + 1, j, i + 1, j + 1, ("v", i + 1, j))):
                    if eid not in edge_pts:
                        v0, v1 = grid[i0, j0], grid[i1, j1]
                        edge_pts[eid] = None
                        if np.isfinite(v0) and np.isfinite(v1) \
                                and np.sign(v0) * np.sign(v1) < 0:
                            edge_pts[eid] = refine(label, (taus[i0], alphas[j0]),
                                                   (taus[i1], alphas[j1]), v0)
                    if edge_pts[eid] is not None:
                        hits.append((eid, edge_pts[eid]))
                kept = []
                for eid, (point, res) in hits:
                    cp = curve_point(point, label, res)
                    if cp is not None:
                        accepted[eid] = cp
                        kept.append(point)
                for a, b in zip(kept[0::2], kept[1::2]):
                    segments.append((a, b))
        points[label] = list(accepted.values())
        polylines[label] = osc._chain_segments(segments)
    return vals, points, polylines


# tau starting below pi leaves NaN cells; tau beyond about 5 puts NS sign
# changes where |trace| >= 2, which the trace guard rejects
REFERENCE_GRIDS = [
    dict(tau_range=(2.9, 4.6), alpha_range=(-1.1, 0.3), n_tau=11, n_alpha=10),
    dict(tau_range=(4.4, 5.6), alpha_range=(-0.45, 0.05), n_tau=10, n_alpha=9),
]


@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_bifurcation_map_equals_the_three_evaluation_map(grid):
    vals, points, polylines = reference_bifurcation_map(ZETA, **grid)
    bmap = bifurcation_map(ZETA, **grid)
    assert list(bmap.points) == list(points) == list(bmap.polylines)
    for label in points:
        assert bmap.points[label] == points[label]  # every field, exactly
        assert len(bmap.polylines[label]) == len(polylines[label])
        for got, ref in zip(bmap.polylines[label], polylines[label]):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert sum(map(len, points.values())) > 10
    if grid["tau_range"][0] < math.pi:
        assert np.isnan(vals["ns_minus"]).any()
    else:
        # NS sign changes between cells whose pair is real: all rejected
        ns, tr = vals["ns_minus"], vals["trace_minus"]
        real = (np.abs(tr[:-1]) >= 2.0) & (np.abs(tr[1:]) >= 2.0)
        assert (real & (ns[:-1] * ns[1:] < 0)).any()
        assert points["ns_minus"]


def recorded_evaluations(monkeypatch, zeta, grid):
    """The (tau, alpha) batches one bifurcation_map run hands its evaluator."""
    from relaydyn import oscillator as osc
    batches = []
    real = osc._evaluate

    def counted(zeta, taus, alphas):
        batches.append(list(zip(taus.tolist(), alphas.tolist())))
        return real(zeta, taus, alphas)

    monkeypatch.setattr(osc, "_evaluate", counted)
    bmap = bifurcation_map(zeta, **grid)
    monkeypatch.undo()
    return bmap, batches


def test_bifurcation_map_evaluates_grid_and_midpoints_only(monkeypatch):
    grid = REFERENCE_GRIDS[1]
    counts = {}
    reference_bifurcation_map(ZETA, **grid, counts=counts)
    bmap, batches = recorded_evaluations(monkeypatch, ZETA, grid)
    taus = np.linspace(*grid["tau_range"], grid["n_tau"])
    alphas = np.linspace(*grid["alpha_range"], grid["n_alpha"])
    assert batches[0] == [(t, a) for t in taus for a in alphas]
    # then one batch per bisection round: the midpoint of every job and
    # step, exactly the predecessor's, though it evaluated every accepted
    # crossing again once per cell
    midpoints = [p for batch in batches[1:] for p in batch]
    assert sorted(midpoints) == sorted(counts["midpoints"])
    assert counts["reevaluations"] >= len(bmap.all_points()) > 0


def test_bifurcation_map_and_surface_solve_one_corner_per_tau(monkeypatch, tmp_path):
    from relaydyn import cli
    from relaydyn import oscillator as osc
    grid = REFERENCE_GRIDS[1]
    counts = {}
    reference_bifurcation_map(ZETA, **grid, counts=counts)
    taus = np.linspace(*grid["tau_range"], grid["n_tau"])
    distinct = sorted({float(t) for t in taus} | {float(p[0]) for p in counts["midpoints"]})
    assert len(distinct) < grid["n_tau"] * grid["n_alpha"] + len(counts["midpoints"])
    calls = []
    real = osc._corner_rows

    def counted(zeta, taus):
        calls.append(np.asarray(taus, dtype=float).tolist())
        return real(zeta, taus)

    monkeypatch.setattr(osc, "_corner_rows", counted)
    # each evaluation solves its distinct delays once, by one stacked call:
    # the grid's first, then each bisection round's.  Nothing is kept across
    # calls, so back-to-back runs solve the same delays
    for _ in range(2):
        calls.clear()
        bifurcation_map(ZETA, **grid)
        assert calls[0] == taus.tolist()
        assert all(batch == sorted(set(batch)) for batch in calls)
        assert sorted({t for batch in calls for t in batch}) == distinct
    config = dict(cli.DEFAULTS["surface"], tau_range=[2.9, 5.5], n_tau=7, n_alpha=6)
    rows = np.linspace(2.9, 5.5, 7)
    for _ in range(2):
        calls.clear()
        cli.cmd_surface(config, tmp_path, 0)
        assert calls == [rows.tolist()]  # one stacked solve for the whole grid


# -- closed-form corner Jacobians against the crossing-time solve -----------

def closed_and_generic(points):
    """Both Jacobian routes at each (zeta, tau, alpha) with a colliding orbit.

    Yields (closed form, generic, h(y*) - eps); each route gives its
    Jacobian pair or the class of the exception it raised.  The generic
    route solves the crossing time by Newton from t = 0, so it steps off
    the corner only where h(y*) misses eps, which is 1e-13 or more only
    for large |y*|.
    """
    from relaydyn import oscillator as osc

    def closed_form(orbit):
        g = np.array([[orbit.g_plus, orbit.g_minus]])
        if (np.abs(g) < osc._G_MIN).any():
            raise DegenerateDerivative("threshold met tangentially")
        p = orbit.params
        j_plus, j_minus = osc._jacobians(osc._corner(p.zeta, p.tau)[None],
                                         osc._normals(np.array([p.alpha])), g)
        return j_plus[0], j_minus[0]

    for zeta, tau, alpha in points:
        try:
            orbit = osc.collision_orbit(zeta, tau, alpha)
        except (RelayDynError, ValueError):
            continue
        sides = []
        for jacobians in (lambda: closed_form(orbit),
                          lambda: generic_branch_jacobians(orbit)):
            try:
                sides.append(jacobians())
            except RelayDynError as exc:
                sides.append(type(exc))
        ctx = osc.collision_context(orbit)
        yield sides[0], sides[1], ctx.h(orbit.y_star) - orbit.params.epsilon


def assert_closed_form_matches(points, rtol=1e-12):
    """The closed form equals the generic route, or both raise one class.

    Equality is exact where h(y*) meets eps to 1e-13; elsewhere the two
    agree to ``rtol`` of the largest entry.  Returns the number of orbit
    points, of raising points and of points off by 1e-13 or more.
    """
    n_orbits = n_raised = n_off = 0
    for closed, generic, miss in closed_and_generic(points):
        n_orbits += 1
        if isinstance(closed, type) or isinstance(generic, type):
            assert closed is generic, (closed, generic)
            n_raised += 1
        elif abs(miss) < 1e-13:
            for got, ref in zip(closed, generic):
                assert np.array_equal(got, ref)
        else:
            n_off += 1
            for got, ref in zip(closed, generic):
                assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))
    return n_orbits, n_raised, n_off


def test_closed_form_jacobians_on_the_default_bifmap_grid():
    from relaydyn.cli import DEFAULTS
    cfg = DEFAULTS["bifmap"]
    taus = np.linspace(*cfg["tau_range"], cfg["n_tau"])
    alphas = np.linspace(*cfg["alpha_range"], cfg["n_alpha"])
    assert assert_closed_form_matches(
        (cfg["zeta"], float(t), float(a)) for t in taus for a in alphas) == (1125, 0, 0)


def test_closed_form_jacobians_on_find_nsc_slices(monkeypatch):
    # every point find_nsc evaluates its NS test at, its bisection included,
    # on the default slice and on three slices that cross a tangential
    # corner; each corner row is traced back to the delay it was solved at
    from relaydyn import oscillator as osc
    real_rows, real_value = osc._corner_rows, osc._ns_value
    delay_of, points = {}, []

    def rows_recorded(zeta, taus):
        rows = real_rows(zeta, taus)
        delay_of.update((r.tobytes(), (zeta, t))
                        for r, t in zip(rows, np.asarray(taus, dtype=float).tolist()))
        return rows

    def value_recorded(rows, alpha):
        points.append((*delay_of[rows.tobytes()], alpha))
        return real_value(rows, alpha)

    monkeypatch.setattr(osc, "_corner_rows", rows_recorded)
    monkeypatch.setattr(osc, "_ns_value", value_recorded)
    assert find_nsc(ZETA, EPS) == NSC
    for zeta, epsilon in [(-0.2, 0.1), (-0.3, 0.1), (-0.1, 0.5)]:
        with pytest.raises(NegativeEpsilon):
            find_nsc(zeta, epsilon)
    monkeypatch.undo()
    n_orbits, n_raised, n_off = assert_closed_form_matches(points)
    assert n_orbits > 150 and (n_raised, n_off) == (0, 0)


def test_closed_form_jacobians_at_random_surface_points():
    rng = np.random.default_rng(8)
    taus = rng.uniform(math.pi, 2.0 * math.pi, 6000)
    alphas = rng.uniform(-math.pi / 2, math.pi / 2, 6000)
    n_orbits, n_raised, n_off = assert_closed_form_matches(
        (ZETA, float(t), float(a)) for t, a in zip(taus, alphas))
    assert n_orbits >= 2000 and (n_raised, n_off) == (0, 0)


def test_closed_form_jacobians_at_near_tangential_corners():
    # alpha within 1e-7 of c . f(y*, b) = 0: both routes raise
    # DegenerateDerivative below |g_b| = 1e-8 and agree exactly above it
    from relaydyn import oscillator as osc
    points = []
    for tau in np.linspace(3.3, 6.2, 15):
        corner = osc._corner(ZETA, float(tau))
        for f in (corner[1], corner[2]):
            for offset in (-1e-8, -1e-9, -1e-10, 1e-10, 1e-9, 1e-8, 1e-7):
                points.append((ZETA, float(tau), math.atan(-f[0] / f[1]) + offset))
    n_orbits, n_raised, n_off = assert_closed_form_matches(points)
    assert n_raised > 20 and n_orbits - n_raised > 20 and n_off == 0


def test_closed_form_jacobians_near_the_singular_corner():
    # zeta -> 0 with tau -> pi drives |y*| up to about 1e6, where h(y*)
    # misses eps by about an ulp of |y*|: by 1e-13 or more at 113 of these
    # 1665 points.  The crossing-time Newton's residual floor grows with
    # |y|, so the generic route still stops at t = 0 there and equals the
    # closed form bit for bit at every point.
    rng = np.random.default_rng(1)
    points = [(-10 ** rng.uniform(-7, -2), math.pi + 10 ** rng.uniform(-8, -2),
               rng.uniform(-math.pi / 2, math.pi / 2)) for _ in range(2000)]
    n_orbits = n_off = 0
    for closed, generic, miss in closed_and_generic(points):
        assert not isinstance(closed, type) and not isinstance(generic, type)
        assert all(np.array_equal(got, ref) for got, ref in zip(closed, generic))
        n_orbits += 1
        n_off += abs(miss) >= 1e-13
    assert n_orbits == 1665 and n_off == 113


# |y*| from 4.5e3 to 2.4e6: h(y*) misses eps by about an ulp of |y*|, more
# than 1e-13, so Newton has to accept t = 0 on a floor scaled by |y|; the
# fallback bracket is crossed twice and holds no sign change
LARGE_CORNERS = [
    (-1.25688014523386e-07, 3.14159319375383, 0.8819210364435208),
    (-1.674629636797883e-07, 3.141656733849946, 1.424761121888733),
    (-2.203500005810026e-06, 3.1416045274462125, 1.1977950139097056),
    (-8.352912734554121e-06, 3.141722938651509, 1.3903218358204912),
    (-1.6634731161678694e-05, 3.142030098709536, 1.4255541072510298),
]


@pytest.mark.parametrize("zeta, tau, alpha", LARGE_CORNERS)
def test_crossing_time_at_corners_with_large_y_star(zeta, tau, alpha):
    from relaydyn.oscillator import collision_context
    from relaydyn.reduced import crossing_time
    orbit = collision_orbit(zeta, tau, alpha)
    assert np.max(np.abs(orbit.y_star)) > 4e3
    ctx = collision_context(orbit)
    assert [crossing_time(ctx, orbit.y_star, b) for b in (1, -1)] == [0.0, 0.0]


# -- the batched surface evaluator against the single-point route -----------

def scalar_surface_values(zeta, tau, alpha):
    """(eps, q, test values) at one point, or the class of the exception.

    The route raises where collision_orbit or the generic branch Jacobians
    do; the values come from per-point formulas written out here: h(y*) on
    math.cos and math.sin, g_b = c @ f(y*, b), and the test functions of
    the two Jacobians by single-matrix trace and det.
    """
    from relaydyn.flows import AffineOscillatorFlow
    try:
        orbit = collision_orbit(zeta, tau, alpha)
        j_plus, j_minus = generic_branch_jacobians(orbit)
    except (RelayDynError, ValueError) as exc:
        return type(exc)
    y, flow = orbit.y_star, AffineOscillatorFlow(zeta)
    c = np.array([math.cos(alpha), math.sin(alpha)])
    eps = float(y[0] * math.cos(alpha) + y[1] * math.sin(alpha))
    q = float(c @ flow.velocity(y, 1)) * float(c @ flow.velocity(y, -1))
    lam, eye = float(np.trace(j_plus)), np.eye(2)
    return eps, q, {
        "fold_plus": lam - 1.0,
        "flip_plus": lam + 1.0,
        "fold_minus": float(np.linalg.det(j_minus - eye)),
        "flip_minus": float(np.linalg.det(j_minus + eye)),
        "ns_minus": float(np.linalg.det(j_minus)) - 1.0,
        "trace_minus": float(np.trace(j_minus)),
        "trace_plus": lam,
    }


def surface_sample():
    """(zeta, tau, alpha) points that reach every way off the surface.

    Random points with tau from below pi + 1e-9 (no corner) to 2 pi, where
    eps <= 0 and q <= 0 both occur; alphas within 1e-7 of a tangential
    corner, |g_b| < 1e-8 included; and the singular I + A(tau) limit
    zeta -> 0, tau -> pi, where |y*| reaches about 1e6.
    """
    from relaydyn import oscillator as osc
    rng = np.random.default_rng(12)
    points = [(ZETA, t, a) for t, a in zip(rng.uniform(math.pi - 0.3, 2 * math.pi, 3000),
                                          rng.uniform(-math.pi / 2, math.pi / 2, 3000))]
    points += [(ZETA, t, 0.3) for t in (math.pi, math.pi + 1e-9, np.nextafter(math.pi + 1e-9, 0))]
    for tau in np.linspace(3.3, 6.2, 15):
        corner = osc._corner(ZETA, float(tau))
        for f in (corner[1], corner[2]):
            for offset in (-1e-8, -1e-9, -1e-10, 0.0, 1e-10, 1e-9, 1e-8, 1e-7):
                points.append((ZETA, float(tau), math.atan(-f[0] / f[1]) + offset))
    points += [(-10 ** rng.uniform(-7, -2), math.pi + 10 ** rng.uniform(-8, -2),
                rng.uniform(-math.pi / 2, math.pi / 2)) for _ in range(1000)]
    return [(float(z), float(t), float(a)) for z, t, a in points]


def test_batched_evaluator_equals_the_single_point_route():
    from relaydyn import oscillator as osc
    points = surface_sample()
    rows = np.concatenate([osc._corner_rows(z, [t]) for z, t, _ in points])
    eps, q, tests, valid = osc._surface_batch(rows, np.array([a for _, _, a in points]))
    raised = {}
    for n, point in enumerate(points):
        ref = scalar_surface_values(*point)
        if isinstance(ref, type):
            raised[ref] = raised.get(ref, 0) + 1
            assert not valid[n] and all(np.isnan(v[n]) for v in tests.values()), point
            continue
        assert valid[n], point
        assert (eps[n], q[n]) == ref[:2], point
        assert {k: v[n] for k, v in tests.items()} == ref[2], point
    assert all(raised.get(exc, 0) > 50 for exc in (SingularSurface, NegativeEpsilon,
                                                  NonTransversalCorner, DegenerateDerivative)), raised
    assert valid.sum() > 1500


def ns_value_sample():
    """(rows, alpha) at every delay of find_nsc's 60-delay walk on four slices,
    at the walk's alpha where it has one and at 7 fixed alphas, plus random
    points from below pi to 2 pi, where q <= 0 and missing corners occur."""
    from relaydyn import oscillator as osc
    points, n_walk = [], 0
    fixed = np.linspace(-math.pi / 2, math.pi / 2, 7).tolist()
    for zeta, epsilon in [(-0.1, 0.1), (-0.2, 0.1), (-0.3, 0.1), (-0.1, 0.5)]:
        for _, rows, alpha in osc._slice_walk(zeta, epsilon,
                                              np.linspace(math.pi + 0.2, 5.8, 60)):
            n_walk += 1
            points += [(rows, a) for a in ([] if alpha is None else [alpha]) + fixed]
    assert n_walk == 4 * 60
    rng = np.random.default_rng(33)
    for _ in range(600):
        tau = float(rng.uniform(math.pi - 0.3, 2 * math.pi))
        points.append((osc._corner_rows(ZETA, [tau])[0],
                       float(rng.uniform(-math.pi / 2, math.pi / 2))))
    return points


def test_ns_value_equals_the_batch_kernel_bit_for_bit(monkeypatch):
    from relaydyn import oscillator as osc
    n_valid = n_tangential = n_no_corner = 0
    for rows, alpha in ns_value_sample():
        got = osc._ns_value(rows, alpha)
        eps, q, tests, valid = osc._surface_batch(rows[None], np.array([alpha]))
        ref = tests["ns_minus"][0]
        if valid[0]:
            n_valid += 1
            assert np.array(got).view(np.uint64) == np.array(ref).view(np.uint64)
        else:
            assert math.isnan(got) and math.isnan(ref)
            n_tangential += bool(eps[0] > 0 and q[0] <= 0)
            n_no_corner += bool(np.isnan(rows[0, 0]))
    assert n_valid > 500 and n_tangential > 50 and n_no_corner > 20

    def refuse(rows, alphas):
        raise AssertionError("find_nsc reached the batch kernel")

    monkeypatch.setattr(osc, "_surface_batch", refuse)
    assert find_nsc(ZETA, EPS) == NSC


def test_platform_numpy_matches_the_scalar_calls(monkeypatch, tmp_path):
    # The batched evaluator equals the single-point route only while numpy's
    # cos and sin equal math.cos and math.sin, and stacked det, svd, solve,
    # trace and (1, 2) @ (2, 1) matmul equal their per-matrix calls.  A numpy
    # build or CPU whose vector routines differ fails here, not through
    # silently changed bifmap files.
    from relaydyn import cli
    from relaydyn import oscillator as osc
    from relaydyn.cli import DEFAULTS
    from relaydyn.flows import AffineOscillatorFlow
    taus, alphas = [], []
    for name in ("bifmap", "surface"):
        cfg = DEFAULTS[name]
        taus.append(np.linspace(*cfg["tau_range"], cfg["n_tau"]))
        alphas.append(np.linspace(*cfg["alpha_range"], cfg["n_alpha"]))
    for grid in REFERENCE_GRIDS:
        _, batches = recorded_evaluations(monkeypatch, ZETA, grid)
        points = np.array([p for batch in batches[1:] for p in batch])
        taus.append(points[:, 0])
        alphas.append(points[:, 1])
    alphas = np.concatenate(alphas)
    for vector, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
        assert np.array_equal(vector(alphas), [scalar(a) for a in alphas])
        assert all(vector(alphas[n:n + 1])[0] == scalar(alphas[n]) for n in range(0, alphas.size, 7))

    taus = np.unique(np.concatenate(taus))

    # the flow's transition_rows builds A(tau) and v(tau) on arrays, but with
    # math.exp per delay: np.exp differs from it in the last bit on some CPUs
    unfold_taus = []
    real = AffineOscillatorFlow.transition_rows

    def recorded(self, delays):
        unfold_taus.extend(np.asarray(delays, dtype=float).tolist())
        return real(self, delays)

    monkeypatch.setattr(AffineOscillatorFlow, "transition_rows", recorded)
    cli.cmd_unfold(dict(DEFAULTS["unfold"]), tmp_path, 0)  # find_nsc included
    monkeypatch.undo()
    assert len(set(unfold_taus)) >= 137
    rng = np.random.default_rng(15)
    flow = AffineOscillatorFlow(ZETA)
    for delays in (taus, np.array(unfold_taus), rng.uniform(0.0, 4.0 * math.pi, 1000)):
        a, v = osc._transition_stack(flow, delays)
        assert np.array_equal(a, [flow.flow_matrix(t) for t in delays.tolist()])
        assert np.array_equal(v, [flow.flow_offset(t) for t in delays.tolist()])

    a, v = osc._transition_stack(flow, taus.tolist())
    m = np.eye(2) + a
    assert np.array_equal(np.linalg.svd(m, compute_uv=False),
                          [np.linalg.svd(mi, compute_uv=False) for mi in m])
    assert np.array_equal(np.linalg.solve(m, -v[..., None])[..., 0],
                          [np.linalg.solve(mi, -vi) for mi, vi in zip(m, v)])
    rows = osc._corner_rows(ZETA, taus)
    rows = rows[~np.isnan(rows[:, 0, 0])]
    c = np.stack((np.cos(alphas[:len(rows)]), np.sin(alphas[:len(rows)])), axis=-1)
    for f in (rows[:, 1], rows[:, 2]):
        assert np.array_equal(np.matmul(c[:, None, :], f[:, :, None])[:, 0, 0],
                              [ci @ fi for ci, fi in zip(c, f)])
    j = -rows[:, 3:5] + rows[:, 5, :, None] * c[:, None, :]
    for stack in (j, j - np.eye(2), j + np.eye(2)):
        assert np.array_equal(np.linalg.det(stack), [np.linalg.det(ji) for ji in stack])
        assert np.array_equal(np.trace(stack, axis1=1, axis2=2), [np.trace(ji) for ji in stack])


def reference_slice_roots(y, epsilon, bracket=(-math.pi / 2, math.pi / 2), n_scan=361):
    """The eps-slice roots with the scan evaluated point by point, as written before."""
    from relaydyn._roots import brentq

    def g(alpha):
        return y[0] * math.cos(alpha) + y[1] * math.sin(alpha) - epsilon

    grid = np.linspace(bracket[0], bracket[1], n_scan)
    vals = np.array([g(a) for a in grid])
    roots = [float(brentq(g, grid[i], grid[i + 1], xtol=1e-14))
             for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)]
    roots += [float(grid[i]) for i in np.flatnonzero(vals == 0.0)]
    return sorted(roots)


def test_slice_roots_equal_the_pointwise_scan(monkeypatch, tmp_path):
    from relaydyn import cli
    from relaydyn import oscillator as osc
    slices = []
    real = osc._slice_roots

    def recorded(y, epsilon, *args):
        slices.append((np.array(y), epsilon))
        return real(y, epsilon, *args)

    monkeypatch.setattr(osc, "_slice_roots", recorded)
    cli.cmd_unfold(dict(cli.DEFAULTS["unfold"]), tmp_path, 0)
    monkeypatch.undo()
    assert len({(*y, epsilon) for y, epsilon in slices}) >= 137
    rng = np.random.default_rng(14)
    slices += [(rng.normal(size=2), float(rng.uniform(0.0, 1.0))) for _ in range(200)]
    n_roots = 0
    for y, epsilon in slices:
        roots = osc._slice_roots(y, epsilon)
        assert roots == reference_slice_roots(y, epsilon)
        n_roots += len(roots)
    assert n_roots > 300
