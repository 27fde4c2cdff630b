"""Acceptance gate: one test and one printed verdict line per criterion.

Every criterion re-derives its expected values through an independent path
(generic Runge-Kutta, central differences, brute-force simulation, scalar
root brackets) and checks the package against them at the stated tolerance
and within the stated runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relaydyn import cli
from relaydyn.attractor import (DEFAULT_RADIUS, iterate_attractor, polygon_arcs, sweep,
                                visit_window)
from relaydyn.continuation import (FourierCurve, _ns_alpha_at, continue_colliding_family,
                                   continue_ns_curve, curve_radial_mismatch,
                                   solve_colliding_curve)
from relaydyn.errors import RelayDynError
from relaydyn.flows import AffineOscillatorFlow
from relaydyn.history import HybridState, SampledHistory
from relaydyn.oscillator import (bifurcation_map, collision_epsilon, collision_orbit,
                                 collision_context, collision_point, find_nsc,
                                 surface_alpha, surface_corner, surface_table)
from relaydyn.reduced import (branch_of, jacobian_F_branch, map_F, map_F_branch,
                              oscillator_context, reconstruct_history)
from relaydyn.relay import evolve, oscillator_system, switch_bound_report

ZETA, EPS = -0.1, 0.1


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def family():
    """One full grazing-curve family run, shared by criteria 8 and 9."""
    t0 = time.perf_counter()
    branch = continue_colliding_family(ZETA, EPS)
    return {"branch": branch, "elapsed": time.perf_counter() - t0,
            "nsc": find_nsc(ZETA, EPS)}


def test_criterion_1_closed_form_flow_vs_rk():
    start = time.perf_counter()
    flow = AffineOscillatorFlow(ZETA)
    omsq = 1.0 + ZETA * ZETA
    rng = np.random.default_rng(2024)
    ts = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 25)

    def rhs(t, y, u):
        return [y[1], -2.0 * ZETA * y[1] - omsq * (y[0] - u)]

    worst = 0.0
    for _ in range(100):
        y0 = rng.normal(scale=2.0, size=2)
        for u in (-1, 1):
            ref = np.empty((ts.size, 2))
            for sign in (1.0, -1.0):
                sel = sign * ts > 0
                sol = solve_ivp(rhs, (0.0, sign * 2.0 * math.pi), y0,
                                args=(u,), method="DOP853",
                                rtol=1e-12, atol=1e-12, dense_output=True)
                ref[sel] = sol.sol(ts[sel]).T
            ref[ts == 0.0] = y0
            got = flow.apply_path(y0, u, ts)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-8 and elapsed < 5.0,
           f"closed-form flow vs RK oracle, 100 states, t in [-2pi, 2pi]: "
           f"max err {worst:.2e} < 1e-8, {elapsed:.1f}s < 5s")


def test_criterion_2_collision_surface_grid():
    start = time.perf_counter()
    flow = AffineOscillatorFlow(ZETA)
    taus = np.linspace(math.pi + 1e-3, 2.0 * math.pi, 50)
    alphas = np.linspace(-1.2, 1.2, 50)
    valid = 0
    worst_half, worst_fix = 0.0, 0.0
    for tau in taus:
        y = collision_point(ZETA, float(tau))
        half = float(np.max(np.abs(y + flow.apply(y, 1, float(tau)))))
        worst_half = max(worst_half, half)
        for alpha in alphas:
            try:
                eps = collision_epsilon(ZETA, float(tau), float(alpha))
                ctx = oscillator_context(ZETA, float(alpha), float(tau), eps, y)
                fix = float(np.max(np.abs(map_F(ctx, y) - y)))
            except (RelayDynError, ValueError):
                continue
            valid += 1
            worst_fix = max(worst_fix, fix)
    elapsed = time.perf_counter() - start
    report(2, worst_half < 1e-10 and worst_fix < 1e-10 and valid >= 1000
           and elapsed < 30.0,
           f"50x50 surface grid, {valid} valid points: half-period residual "
           f"{worst_half:.2e} < 1e-10, corner fixed-point {worst_fix:.2e} "
           f"< 1e-10, {elapsed:.1f}s < 30s")


def test_criterion_3_reduction_vs_simulation():
    start = time.perf_counter()
    tau = 4.2
    alpha = surface_alpha(ZETA, tau, EPS)[0]
    orbit = collision_orbit(ZETA, tau, alpha)
    ctx = collision_context(orbit)
    system = oscillator_system(ZETA, alpha, tau, EPS)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        r = 1e-2 * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        y0 = orbit.y_star + r * np.array([math.cos(ang), math.sin(ang)])
        state = reconstruct_history(ctx, y0)
        _, traj = evolve(system, state, 6.6 * tau)
        pts = traj.switch_points()
        assert pts.shape[0] >= 6
        expected, sign = y0.copy(), 1
        for k in range(6):
            expected = map_F(ctx, expected)
            sign = -sign
            worst = max(worst, float(np.max(np.abs(pts[k] - sign * expected))))
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-6 and elapsed < 60.0,
           f"100 starts within 1e-2 of the corner at (tau, alpha, eps) = "
           f"(4.2, {alpha:.4f}, 0.1): simulated switch points vs (-1)^k F^k, "
           f"k <= 6, max err {worst:.2e} < 1e-6, {elapsed:.1f}s < 60s")


def test_criterion_4_branch_jacobians():
    start = time.perf_counter()
    tau = 4.2
    alpha = surface_alpha(ZETA, tau, EPS)[0]
    ctx = collision_context(collision_orbit(ZETA, tau, alpha))
    rng = np.random.default_rng(11)
    h = 1e-6
    worst_rel = 0.0
    for branch in (-1, 1):
        for _ in range(20):
            y = ctx.y_ref + rng.normal(scale=4e-3, size=2)
            J = jacobian_F_branch(ctx, y, branch)
            fd = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[:, j] = (map_F_branch(ctx, y + e, branch)
                            - map_F_branch(ctx, y - e, branch)) / (2.0 * h)
            worst_rel = max(worst_rel,
                            float(np.max(np.abs(J - fd)) / np.max(np.abs(J))))
    # vertical threshold: the branch linearizations coincide on the line
    # (the corner unfolds into a C^1 matching exactly at alpha = 0)
    y_ref = collision_point(ZETA, tau)
    eps0 = float(y_ref[0])
    ctx0 = oscillator_context(ZETA, 0.0, tau, eps0, y_ref)
    worst_coin = 0.0
    for _ in range(20):
        y = np.array([eps0, y_ref[1] + rng.normal(scale=4e-3)])
        gap = np.max(np.abs(jacobian_F_branch(ctx0, y, 1)
                            - jacobian_F_branch(ctx0, y, -1)))
        worst_coin = max(worst_coin, float(gap))
    elapsed = time.perf_counter() - start
    report(4, worst_rel < 1e-5 and worst_coin < 1e-10 and elapsed < 5.0,
           f"analytic branch Jacobians, 20 points per branch: central-diff "
           f"rel err {worst_rel:.2e} < 1e-5, alpha=0 branch coincidence "
           f"{worst_coin:.2e} < 1e-10, {elapsed:.1f}s < 5s")


def test_criterion_5_switching_rate_bound():
    start = time.perf_counter()
    tau = 4.2
    alpha = surface_alpha(ZETA, tau, EPS)[0]
    system = oscillator_system(ZETA, alpha, tau, EPS)
    y_star = collision_point(ZETA, tau)
    rng = np.random.default_rng(17)
    checked = 0
    min_margin = math.inf
    for _ in range(50):
        y0 = y_star + rng.normal(scale=0.3, size=2)
        horizon = rng.uniform(3.0, 5.0) * tau
        state = HybridState(SampledHistory.constant(y0, tau), 1)
        _, traj = evolve(system, state, horizon)
        rep = switch_bound_report(system, traj, t0=tau)
        assert rep.ok
        checked += 1
        min_margin = min(min_margin, rep.bound - rep.observed)
    elapsed = time.perf_counter() - start
    report(5, checked == 50 and elapsed < 60.0,
           f"hysteresis switching-rate bound on 50 randomized runs, t0 = tau: "
           f"never exceeded (min slack {min_margin:.1f} switches), "
           f"{elapsed:.1f}s < 60s")


def test_criterion_6_polygon_attractor():
    start = time.perf_counter()
    tau, alpha = 4.25, -0.44
    y_ref = collision_point(ZETA, tau)
    ctx = oscillator_context(ZETA, alpha, tau, EPS, y_ref)
    run = iterate_attractor(ctx, y_ref + np.array([1e-3, 0.0]), n_total=600)
    desc = polygon_arcs(run.points, ctx)
    ok = (run.visited_plus and run.visited_minus and desc.monotone
          and 1 < desc.arc_count < 100)
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 10.0,
           f"attractor at (alpha, tau, eps, zeta) = (-0.44, 4.25, 0.1, -0.1): "
           f"visits both domains, {desc.arc_count} arcs, strictly monotone "
           f"circle map, {elapsed:.1f}s < 10s")


def test_criterion_7_envelope_sweep():
    start = time.perf_counter()
    tau = 4.2
    spc = surface_alpha(ZETA, tau, EPS)[0]
    alphas = np.linspace(-0.50, -0.40, 101)
    records = sweep(ZETA, tau, EPS, alphas)
    widths = np.array([r.width[0] for r in records])
    als = np.array([r.alpha for r in records])
    below = widths[als < spc - 2e-3]
    width_before = float(np.max(below))
    icc = visit_window(records)[1]
    sel = (als >= spc) & (als <= spc + 0.5 * (icc - spc))
    a, b = np.polyfit(als[sel], widths[sel], 1)
    fit = a * als[sel] + b
    ss_res = float(np.sum((widths[sel] - fit) ** 2))
    ss_tot = float(np.sum((widths[sel] - widths[sel].mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    elapsed = time.perf_counter() - start
    report(7, width_before < 1e-6 and r2 > 0.99 and sel.sum() >= 5
           and elapsed < 120.0,
           f"envelope sweep at tau = 4.2: width {width_before:.2e} < 1e-6 "
           f"below the collision at alpha = {spc:.4f}, linear growth over "
           f"the first half of [SPC, ICC = {icc:.4f}] with R^2 = {r2:.5f} "
           f"> 0.99, {elapsed:.1f}s < 120s")


def test_criterion_8_colliding_curve_family(family):
    start = time.perf_counter()
    branch, nsc = family["branch"], family["nsc"]
    taus = branch.values("tau")
    radii = branch.values("radius")
    alphas = branch.values("alpha")
    errors = branch.values("error")

    ends_in_breakup = (branch.termination == "BreakupDetected"
                       and errors[-1] > 1e-2)

    # tangency of the grazing family to the NS locus: alpha distance vs
    # delay distance on a log-log fit over the onset window
    sel = np.flatnonzero((taus - nsc[0] >= 2e-3) & (taus - nsc[0] <= 5e-2))
    gaps = []
    for i in sel:
        a_ns = _ns_alpha_at(ZETA, EPS, float(taus[i]), hint=float(alphas[i]))
        gaps.append(abs(alphas[i] - a_ns))
    exponent = float(np.polyfit(np.log(taus[sel] - nsc[0]), np.log(gaps), 1)[0])

    # radius grows affinely in tau over the middle third of the branch
    n = len(branch)
    mid = slice(n // 3, 2 * n // 3 + 1)
    coef = np.polyfit(taus[mid], radii[mid], 1)
    dev = float(np.max(np.abs(np.polyval(coef, taus[mid]) - radii[mid]))
                / np.max(radii[mid]))

    # doubling the mode count must not move a resolved curve
    resolved = int(np.flatnonzero(errors < 1e-8)[-1])
    pt = branch.points[resolved]
    c32 = pt.data["curve"]
    w64 = np.concatenate([c32.resample(64).pack(),
                          [pt.data["phi_star"], pt.data["tau"], pt.data["alpha"]]])
    w64 = solve_colliding_curve(w64, 64, EPS, ZETA)
    c64 = FourierCurve.unpack(64, w64[:FourierCurve.dim(64)])
    phi = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    # the comparison is geometric: the locus and its crossing-time field.
    # eta is the circle-map conjugacy, whose Fourier tail is set by small
    # divisors of the rotation number, not by the spatial resolution.
    mode_shift = max(float(np.max(np.abs(c32.point(phi) - c64.point(phi)))),
                     float(np.max(np.abs(c32.offset(phi) - c64.offset(phi)))))

    # the NS locus itself continues through the onset point
    ns = continue_ns_curve(ZETA, EPS, tau_span=(3.7, 4.6), ds=1e-2,
                           max_points=200)
    ns_taus = ns.values("tau")
    ns_ok = (len(ns) >= 20 and ns_taus[0] < nsc[0] < ns_taus[-1]
             and max(p.residual_norm for p in ns.points) < 1e-8)

    elapsed = family["elapsed"] + (time.perf_counter() - start)
    ok = (ends_in_breakup and 1.8 <= exponent <= 2.2 and dev < 0.05
          and mode_shift < 1e-8 and ns_ok and elapsed < 600.0)
    report(8, ok,
           f"family of {n} grazing curves over tau in [{taus[0]:.4f}, "
           f"{taus[-1]:.4f}]: NS tangency exponent {exponent:.3f} in 2 +/- 0.2, "
           f"mid-branch radius affine to {100 * dev:.2f}% < 5%, 32->64 mode "
           f"shift {mode_shift:.2e} < 1e-8, NS locus traced ({len(ns)} points), "
           f"terminates in BreakupDetected (final estimate {errors[-1]:.2e}), "
           f"{elapsed:.0f}s < 600s")


def test_criterion_9_family_invariance_oracle(family):
    # independent of the collocation residual: push the collocation nodes
    # through the reduced map and measure the radial distance to the curve
    branch = family["branch"]
    worst = 0.0
    for pt in branch.points[::5]:
        curve = pt.data["curve"]
        tau, alpha = pt.data["tau"], pt.data["alpha"]
        ctx = oscillator_context(ZETA, alpha, tau, EPS, y_ref=curve.y0,
                                 delta=0.45 * tau)
        pts = curve.point(curve.nodes())
        imgs = np.array([map_F_branch(ctx, p, -1) for p in pts])
        worst = max(worst, float(np.max(curve_radial_mismatch(curve, imgs))))
    report(9, worst < 1e-6,
           f"every 5th family curve, all collocation nodes through the "
           f"reduced map: radial mismatch {worst:.2e} < 1e-6 "
           f"(within criterion 8's run)")


# -- cross-command oracles: one geometry reached by two commands -------------

def test_family_alpha_at_tau_4_2_lies_past_the_sweep_visit_window(family):
    # the grazing family marks where the tau = 4.2 attractor stops touching
    # the threshold; sweep at its CLI defaults sees the last D+ visit one
    # grid step or less below that alpha
    cfg = cli.DEFAULTS["sweep"]
    tau = cfg["tau"]
    taus, alphas = family["branch"].values("tau"), family["branch"].values("alpha")
    i = int(np.flatnonzero(taus > tau)[0])
    assert taus[i - 1] <= tau
    alpha = float(np.interp(tau, taus[i - 1:i + 1], alphas[i - 1:i + 1]))
    grid = np.linspace(*cfg["alpha_range"], cfg["n_alpha"])
    records = sweep(cfg["zeta"], tau, cfg["epsilon"], grid, warm_start=cfg["warm_start"],
                    n_transient=cfg["n_transient"], n_total=cfg["n_total"])
    edge = visit_window(records)[1]
    assert edge < alpha <= edge + 1e-3, (alpha, edge)


@pytest.mark.parametrize("tau", [4.45, 4.55])
def test_family_alpha_past_tau_4_45_lies_within_a_step_of_the_sweep_edge(family, tau):
    # past tau = 4.45 the attractor reaches beyond a 0.1 tau crossing window
    # and 0.5 from the corner; sweep's wider neighbourhood still sees its
    # last D+ visit within one grid step (0.005) below the family's alpha
    taus, alphas = family["branch"].values("tau"), family["branch"].values("alpha")
    i = int(np.flatnonzero(taus > tau)[0])
    assert taus[i - 1] <= tau
    alpha = float(np.interp(tau, taus[i - 1:i + 1], alphas[i - 1:i + 1]))
    records = sweep(ZETA, tau, EPS, np.linspace(-0.5, 0.0, 101))
    edge = visit_window(records)[1]
    assert edge <= alpha < edge + 0.005, (alpha, edge)


def test_attractor_past_tau_4_6_matches_the_delayed_system():
    # sweep's neighbourhood (0.45 tau window, radius 3) at tau = 4.65, where
    # the attractor spans 0.99 x 0.61 and visits both D+ and D-: the full
    # evolve from the history that each of 9 of its points reconstructs
    # switches where the reduced map's iterates say, as criterion 3 checks
    # near the corner at tau = 4.2
    tau, alpha = 4.65, -0.0875
    y_ref = surface_corner(ZETA, tau)
    ctx = oscillator_context(ZETA, alpha, tau, EPS, y_ref, delta=0.45 * tau)
    run = iterate_attractor(ctx, y_ref + np.array([1e-3, 0.0]), 40, 400, DEFAULT_RADIUS)
    assert np.all(run.env_max - run.env_min > 0.6)
    assert run.visited_plus and run.visited_minus
    system = oscillator_system(ZETA, alpha, tau, EPS)
    for y0 in run.points[::40]:
        _, traj = evolve(system, reconstruct_history(ctx, y0), 6.6 * tau)
        pts = traj.switch_points()
        assert pts.shape[0] >= 6
        expected = y0
        for k in range(6):
            expected = map_F(ctx, expected)
            err = float(np.max(np.abs(pts[k] - (-1) ** (k + 1) * expected)))
            assert err <= 1e-12, (y0, k, err)


def test_family_starts_one_step_past_the_ns_point(family):
    assert family["branch"].values("tau")[0] == family["nsc"][0] + 1e-3


def test_surface_table_on_the_eps_slice_gives_eps():
    # sweep's surface_alpha mark and the surface table read one surface
    alphas = surface_alpha(ZETA, 4.2, EPS)
    table = surface_table(ZETA, [4.2], alphas)
    assert table.shape[0] == len(alphas) >= 1
    assert np.max(np.abs(table[:, 2] - EPS)) <= 1e-12


def test_unfold_ns_point_lies_on_the_bifmap_ns_minus_curve():
    # unfold's NS curve (fixed eps, free t0) and bifmap's ns_minus curve
    # (t0 = 0, eps = h(y*) varying) meet only at the NS point: the default
    # find_nsc point lies 4.5e-4 from the bifmap polyline, whose grid steps
    # are 0.064 x 0.049, and eps read along the nearest segment is 0.0988
    cfg = cli.DEFAULTS["bifmap"]
    bmap = bifurcation_map(cfg["zeta"], tau_range=tuple(cfg["tau_range"]),
                           alpha_range=tuple(cfg["alpha_range"]), n_tau=cfg["n_tau"],
                           n_alpha=cfg["n_alpha"], residual_tol=cfg["residual_tol"])
    ucfg = cli.DEFAULTS["unfold"]
    assert (ucfg["zeta"], ucfg["epsilon"]) == (cfg["zeta"], EPS)
    nsc = np.array(find_nsc(ucfg["zeta"], ucfg["epsilon"]))
    best = (math.inf, None, None, None)
    for line in bmap.polylines["ns_minus"]:
        for p, q in zip(line[:-1], line[1:]):
            s = float(np.clip((nsc - p) @ (q - p) / ((q - p) @ (q - p)), 0.0, 1.0))
            best = min(best, (float(np.hypot(*(p + s * (q - p) - nsc))), s, p, q),
                       key=lambda b: b[0])
    dist, s, p, q = best
    eps_p, eps_q = (collision_epsilon(ZETA, *end) for end in (p, q))
    eps = eps_p + s * (eps_q - eps_p)
    assert dist < 1e-3, (dist, p, q)
    assert abs(eps - EPS) < 3e-3, (eps, eps_p, eps_q)
