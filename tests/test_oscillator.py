"""Collision surface, corner stability, and the bifurcation map."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from relaydyn.errors import NegativeEpsilon, SingularSurface
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


# -- the bifurcation map against its three-evaluation predecessor ------------

def reference_bifurcation_map(zeta, tau_range, alpha_range, n_tau, n_alpha,
                              residual_tol=1e-8, counts=None):
    """The map as it was written before one evaluator served every stage.

    The grid, each bisection midpoint and each accepted crossing (once per
    adjacent cell) evaluate the surface separately.  ``counts`` collects
    the midpoints in evaluation order and the number of re-evaluations.
    """
    from relaydyn import oscillator as osc
    from relaydyn.errors import RelayDynError
    counts = {} if counts is None else counts
    counts.update(midpoints=[], reevaluations=0)

    def tests_at(tau, alpha):
        orbit = osc.collision_orbit(zeta, tau, alpha)
        return orbit, osc._test_values(*osc._branch_jacobians(orbit))

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
        tol = max(taus[1] - taus[0], alphas[1] - alphas[0]) * 1e-6
        polylines[label] = osc._chain_segments(segments, tol)
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


def test_bifurcation_map_evaluates_grid_and_midpoints_only(monkeypatch):
    from relaydyn import oscillator as osc
    grid = REFERENCE_GRIDS[1]
    counts = {}
    reference_bifurcation_map(ZETA, **grid, counts=counts)
    calls = []
    real = osc.collision_orbit

    def counted(zeta, tau, alpha):
        calls.append((tau, alpha))
        return real(zeta, tau, alpha)

    monkeypatch.setattr(osc, "collision_orbit", counted)
    bmap = bifurcation_map(ZETA, **grid)
    n_cells = grid["n_tau"] * grid["n_alpha"]
    taus = np.linspace(*grid["tau_range"], grid["n_tau"])
    alphas = np.linspace(*grid["alpha_range"], grid["n_alpha"])
    assert calls[:n_cells] == [(t, a) for t in taus for a in alphas]
    # the rest are the bisection midpoints, in the predecessor's order; it
    # evaluated every accepted crossing again once per adjacent cell on top
    assert calls[n_cells:] == counts["midpoints"]
    assert counts["reevaluations"] >= len(bmap.all_points()) > 0
