"""The four benchmark workloads: CLI inputs made from a seed, and output checks.

Seed 0 runs each command at its CLI defaults (``simulate`` also sets a
500-unit horizon).  Other seeds perturb one parameter inside a small
neighbourhood chosen so the regime, and with it the amount of work, stays
the same; see README.md for the neighbourhoods and why each workload
exists.

Every workload yields, per command, a *summary* (values compared against
the stored seed-0 reference to 1e-8) and a list of *oracle* failures
(checks that need no reference, so they also cover seeds other than 0).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

TOL = 1e-8          # agreement with the stored reference
INVARIANCE_TOL = 1e-6

FAMILY_POINTS = 48
FAMILY_TERMINATION = "BreakupDetected"
SIMULATE_HORIZON = 500.0


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    return json.loads(path.read_text())


def corner_point(zeta: float, tau: float) -> np.ndarray:
    """Switch point of the symmetric orbit from the matrix exponential.

    Independent of the closed-form flow in ``relaydyn.flows``: y* solves
    y = -(A y + (I - A) e) with A = expm(B tau) and e = (1, 0) the u = +1
    equilibrium.
    """
    B = np.array([[0.0, 1.0], [-(1.0 + zeta * zeta), -2.0 * zeta]])
    A = expm(B * tau)
    e = np.array([1.0, 0.0])
    return np.linalg.solve(np.eye(2) + A, -(np.eye(2) - A) @ e)


def _manifest_errors(out: Path) -> list[str]:
    listed = set(_json(out / "manifest.json")["outputs"])
    present = {p.name for p in out.iterdir()}
    return [] if listed == present else [f"manifest lists {sorted(listed ^ present)} wrongly"]


# ---------------------------------------------------------------------------
# family


def family_configs(seed: int) -> dict[str, dict]:
    if seed == 0:
        return {"family": {}}
    rng = random.Random(seed)
    return {"family": {"epsilon": 0.1 + rng.uniform(-1e-6, 1e-6)}}


def family_summary(out: Path, config: dict) -> dict:
    summary = _json(out / "summary.json")
    recs = [json.loads(line) for line in (out / "family.jsonl").read_text().splitlines()]
    return {
        "n_points": summary["n_points"],
        "termination": summary["termination"],
        "points": [[r["parameters"]["tau"], r["parameters"]["alpha"], r["radius"]]
                   for r in recs],
    }


def family_oracle(out: Path, config: dict) -> list[str]:
    """Regime pin plus invariance of every 5th stored curve under map_F."""
    from relaydyn.cli import DEFAULTS
    from relaydyn.continuation import FourierCurve, curve_radial_mismatch
    from relaydyn.reduced import map_F_branch, oscillator_context

    cfg = dict(DEFAULTS["family"], **config)
    zeta, eps, n_modes = cfg["zeta"], cfg["epsilon"], int(cfg["n_modes"])
    errors = _manifest_errors(out)
    summary = _json(out / "summary.json")
    if summary["n_points"] != FAMILY_POINTS or summary["termination"] != FAMILY_TERMINATION:
        errors.append(f"regime changed: {summary['n_points']} points, "
                      f"{summary['termination']}")
    recs = [json.loads(line) for line in (out / "family.jsonl").read_text().splitlines()]
    if len(recs) != summary["n_points"] or any(r["radius"] <= 0.0 for r in recs):
        errors.append("family records disagree with the summary or have no radius")
    nz = FourierCurve.dim(n_modes)
    every = int(cfg["snapshot_every"])
    worst = 0.0
    for i in range(0, len(recs), every):
        if not (out / f"curve_{i:04d}.csv").is_file():
            errors.append(f"snapshot curve_{i:04d}.csv missing")
        w = np.asarray(recs[i]["unknowns"], dtype=float)
        curve = FourierCurve.unpack(n_modes, w[:nz])
        tau, alpha = float(w[nz + 1]), float(w[nz + 2])
        ctx = oscillator_context(zeta, alpha, tau, eps, y_ref=curve.y0, delta=0.45 * tau)
        imgs = np.array([map_F_branch(ctx, p, -1) for p in curve.point(curve.nodes())])
        worst = max(worst, float(np.max(curve_radial_mismatch(curve, imgs))))
    if not worst < INVARIANCE_TOL:
        errors.append(f"stored curves not invariant under map_F: {worst:.2e}")
    return errors


# ---------------------------------------------------------------------------
# sweep + polygon


def sweep_configs(seed: int) -> dict[str, dict]:
    if seed == 0:
        return {"sweep": {}, "polygon": {}}
    rng = random.Random(seed)
    shift = rng.uniform(-2e-3, 2e-3)
    return {"sweep": {"alpha_range": [-0.5 + shift, -0.38 + shift]},
            "polygon": {"alpha": -0.44 + shift}}


def _sweep_rows(out: Path) -> list[list]:
    return [[float(r["alpha"]), float(r["env_min_x"]), float(r["env_max_x"]),
             int(r["visited_plus"]), int(r["visited_minus"]), int(r["escaped"])]
            for r in _rows(out / "sweep.csv")]


def sweep_summary(out: Path, config: dict) -> dict:
    return {"records": _sweep_rows(out),
            "visit_window": _json(out / "marks.json")["visit_window"]}


def sweep_oracle(out: Path, config: dict) -> list[str]:
    from relaydyn.cli import DEFAULTS

    cfg = dict(DEFAULTS["sweep"], **config)
    errors = _manifest_errors(out)
    rows = _sweep_rows(out)
    alphas = np.linspace(*cfg["alpha_range"], int(cfg["n_alpha"]))
    if len(rows) != alphas.size or np.max(np.abs([r[0] for r in rows] - alphas)) > 1e-12:
        errors.append("sweep rows do not match the alpha grid")
    if any(r[5] for r in rows) or any(not r[1] <= r[2] for r in rows):
        errors.append("escaped row or inverted envelope")
    marks = _json(out / "marks.json")
    flagged = [r[0] for r in rows if r[3]]
    window = [min(flagged), max(flagged)] if flagged else None
    if marks["visit_window"] != window:
        errors.append(f"visit_window {marks['visit_window']} disagrees with the rows")
    y = corner_point(cfg["zeta"], cfg["tau"])
    for a in marks["surface_alpha"]:
        if abs(y[0] * math.cos(a) + y[1] * math.sin(a) - cfg["epsilon"]) > 1e-10:
            errors.append(f"surface_alpha {a} is not on the collision surface")
    return errors


def polygon_summary(out: Path, config: dict) -> dict:
    s = _json(out / "summary.json")
    return {"arc_count": s["arc_count"], "locking_period": s["locking_period"]}


def polygon_oracle(out: Path, config: dict) -> list[str]:
    """The stored samples are one orbit: map_F sends each onto another."""
    from relaydyn.cli import DEFAULTS
    from relaydyn.oscillator import collision_point
    from relaydyn.reduced import map_F, oscillator_context

    cfg = dict(DEFAULTS["polygon"], **config)
    errors = _manifest_errors(out)
    pts = np.array([[float(r["x"]), float(r["xdot"])] for r in _rows(out / "polygon.csv")])
    if pts.shape[0] != int(cfg["n_total"]) - int(cfg["n_transient"]):
        errors.append(f"{pts.shape[0]} polygon samples")
    if _json(out / "summary.json")["arc_count"] < 2:
        errors.append("attractor is not a polygon")
    ctx = oscillator_context(cfg["zeta"], cfg["alpha"], cfg["tau"], cfg["epsilon"],
                             collision_point(cfg["zeta"], cfg["tau"]))
    # one small array per sample: with a single 360 x 360 x 2 temporary here,
    # the sweep repetitions after each check ran about 15 % slower
    dist = np.array([np.min(np.linalg.norm(pts - map_F(ctx, p), axis=1)) for p in pts])
    if np.count_nonzero(dist > 1e-9) > 1:
        errors.append(f"{np.count_nonzero(dist > 1e-9)} samples leave the stored orbit")
    return errors


# ---------------------------------------------------------------------------
# atlas: surface, bifmap, unfold


def atlas_configs(seed: int) -> dict[str, dict]:
    if seed == 0:
        return {"surface": {}, "bifmap": {}, "unfold": {}}
    rng = random.Random(seed)
    zeta = {"zeta": -0.1 + rng.uniform(-1e-4, 1e-4)}
    return {"surface": dict(zeta), "bifmap": dict(zeta), "unfold": dict(zeta)}


def _on_surface(zeta: float, tau: float, alpha: float, eps: float) -> bool:
    y = corner_point(zeta, tau)
    return abs(y[0] * math.cos(alpha) + y[1] * math.sin(alpha) - eps) <= 1e-10


def surface_summary(out: Path, config: dict) -> dict:
    return {"rows": len(_rows(out / "surface.csv"))}


def surface_oracle(out: Path, config: dict) -> list[str]:
    from relaydyn.cli import DEFAULTS

    cfg = dict(DEFAULTS["surface"], **config)
    errors = _manifest_errors(out)
    rows = _rows(out / "surface.csv")
    if not 0 < len(rows) <= int(cfg["n_tau"]) * int(cfg["n_alpha"]):
        errors.append(f"{len(rows)} surface rows")
    for r in rows[::37]:
        if not _on_surface(cfg["zeta"], float(r["tau"]), float(r["alpha"]),
                           float(r["epsilon"])):
            errors.append(f"surface row at tau={r['tau']} is off the surface")
    if any(float(r["residual"]) > 1e-10 for r in rows):
        errors.append("surface residual above 1e-10")
    return errors


def _bifmap_points(out: Path) -> dict[str, list]:
    points: dict[str, list] = {}
    for r in _rows(out / "points.csv"):
        points.setdefault(r["label"], []).append([float(r["tau"]), float(r["alpha"])])
    return {k: sorted(v) for k, v in sorted(points.items())}


def bifmap_summary(out: Path, config: dict) -> dict:
    return {"points": _bifmap_points(out)}


def bifmap_oracle(out: Path, config: dict) -> list[str]:
    """Every stored point lies on the surface and zeroes its test function."""
    from relaydyn.cli import DEFAULTS
    from relaydyn.oscillator import collision_orbit, stability_at_collision

    cfg = dict(DEFAULTS["bifmap"], **config)
    errors = _manifest_errors(out)
    rows = _rows(out / "points.csv")
    if not rows:
        errors.append("no bifurcation points")
    limit = 10.0 * float(cfg["residual_tol"])
    bad = 0
    for r in rows:
        tau, alpha = float(r["tau"]), float(r["alpha"])
        stab = stability_at_collision(collision_orbit(cfg["zeta"], tau, alpha))
        value = stab.residuals.get(r["label"], math.inf)
        if not (abs(value) < limit and _on_surface(cfg["zeta"], tau, alpha,
                                                    float(r["epsilon"]))):
            bad += 1
    if bad:
        errors.append(f"{bad} bifurcation points fail their test function")
    return errors


def unfold_summary(out: Path, config: dict) -> dict:
    nsc = _json(out / "nsc.json")
    return {"ns": [nsc["tau"], nsc["alpha"]]}


def unfold_oracle(out: Path, config: dict) -> list[str]:
    """The NS point is on the eps slice with a unit-modulus eigenvalue pair."""
    from relaydyn.cli import DEFAULTS
    from relaydyn.oscillator import collision_orbit, stability_at_collision

    cfg = dict(DEFAULTS["unfold"], **config)
    errors = _manifest_errors(out)
    nsc = _json(out / "nsc.json")
    if not _on_surface(cfg["zeta"], nsc["tau"], nsc["alpha"], cfg["epsilon"]):
        errors.append("NS point is off the eps slice")
    stab = stability_at_collision(collision_orbit(cfg["zeta"], nsc["tau"], nsc["alpha"]))
    moduli = [abs(e) for e in stab.eigs_minus]
    if max(abs(m - 1.0) for m in moduli) > 1e-8:
        errors.append(f"NS eigenvalue moduli {moduli}")
    if not _rows(out / "ns_curve.csv") or not _rows(out / "collision_curve.csv"):
        errors.append("empty NS or collision curve")
    return errors


# ---------------------------------------------------------------------------
# simulate


def simulate_configs(seed: int) -> dict[str, dict]:
    cfg = {"horizon": SIMULATE_HORIZON}
    if seed:
        rng = random.Random(seed)
        cfg["y0"] = [0.5 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)]
    return {"simulate": cfg}


def simulate_summary(out: Path, config: dict) -> dict:
    return {"switch_times": [s["time"] for s in _json(out / "events.json")["switches"]]}


def simulate_oracle(out: Path, config: dict) -> list[str]:
    """Switches echo crossings exactly tau later; the slow attractor is kept."""
    from relaydyn.cli import DEFAULTS

    cfg = dict(DEFAULTS["simulate"], **config)
    tau = float(cfg["tau"])
    errors = _manifest_errors(out)
    events = _json(out / "events.json")
    switches = events["switches"]
    armed = {c["switch_time"] for c in events["crossings"]}
    for s in switches:
        if abs(s["time"] - s["crossing_time"] - tau) > 1e-12 or s["time"] not in armed:
            errors.append(f"switch at {s['time']} is not tau after a crossing")
            break
    if any(a["new_u"] == b["new_u"] for a, b in zip(switches, switches[1:])):
        errors.append("consecutive switches to the same relay value")
    times = np.array([s["time"] for s in switches])
    late = np.diff(times[times > 0.5 * cfg["horizon"]])
    if times.size < 2 or late.size == 0 or np.min(late) <= tau:
        errors.append("left the slow attractor (switch gaps at most tau)")
    rows = _rows(out / "trajectory.csv")
    u = np.array([int(r["u"]) for r in rows])
    t = np.array([float(r["t"]) for r in rows])
    flips = np.count_nonzero(np.diff(u))
    if len(rows) != 2001 or flips != np.count_nonzero(times <= t[-1]):
        errors.append("trajectory relay column disagrees with the switch log")
    return errors


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], dict[str, dict]]
    summaries: dict[str, Callable[[Path, dict], dict]]
    oracles: dict[str, Callable[[Path, dict], list[str]]]


WORKLOADS = {
    "family": Workload("family", family_configs, {"family": family_summary},
                       {"family": family_oracle}),
    "sweep": Workload("sweep", sweep_configs,
                      {"sweep": sweep_summary, "polygon": polygon_summary},
                      {"sweep": sweep_oracle, "polygon": polygon_oracle}),
    "atlas": Workload("atlas", atlas_configs,
                      {"surface": surface_summary, "bifmap": bifmap_summary,
                       "unfold": unfold_summary},
                      {"surface": surface_oracle, "bifmap": bifmap_oracle,
                       "unfold": unfold_oracle}),
    "simulate": Workload("simulate", simulate_configs, {"simulate": simulate_summary},
                         {"simulate": simulate_oracle}),
}


def compare(got, want, path: str = "") -> list[str]:
    """Differences between a summary and its reference (floats to TOL)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [e for k in want for e in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {len(got) if isinstance(got, list) else got} entries, "
                    f"reference has {len(want)}"]
        errors = [e for i, (g, w) in enumerate(zip(got, want))
                  for e in compare(g, w, f"{path}[{i}]")]
        return errors[:3]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if abs(got - want) <= TOL else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
