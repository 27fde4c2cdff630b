"""Deterministic file output for sweep, polygon, surface and branch data.

All writers produce byte-identical files for identical inputs: floats are
serialized with ``repr`` (shortest round-trip form), JSON keys are sorted,
and no timestamps or environment data enter the files.  The manifest
carries the exact configuration of the run plus a fixed build identifier.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BUILD_ID = "relaydyn-0.1.0"


def _fmt(value) -> str:
    if type(value) is float:  # the common case, ahead of the isinstance chain
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")
    return path


def write_json_lines(path, objs) -> Path:
    path = Path(path)
    lines = [json.dumps(_jsonable(o), sort_keys=True) for o in objs]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def write_manifest(out_dir, command: str, config: dict, outputs: list[str]) -> Path:
    manifest = {
        "build": BUILD_ID,
        "command": command,
        "config": config,
        "outputs": sorted(outputs),
    }
    return write_json(Path(out_dir) / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# domain-specific tables


def write_trajectory_csv(path, traj) -> Path:
    ts = np.linspace(0.0, traj.T, 2001)
    return write_csv(path, ["t", "x", "xdot", "u"],
                     zip(ts.tolist(), *traj(ts).T.tolist(), traj.u_at(ts)))


def write_sweep_csv(path, records) -> Path:
    rows = [(r.alpha, r.env_min[0], r.env_max[0], r.visited_plus,
             r.visited_minus, r.escaped) for r in records]
    return write_csv(
        path, ["alpha", "env_min_x", "env_max_x", "visited_plus",
               "visited_minus", "escaped"], rows)


def write_polygon_csv(path, description) -> Path:
    ids = description.arc_ids
    if ids is None:
        ids = np.zeros(description.points.shape[0], dtype=int)
    rows = [(description.angles[k], description.points[k, 0],
             description.points[k, 1], int(ids[k]))
            for k in range(description.points.shape[0])]
    return write_csv(path, ["phi", "x", "xdot", "arc_id"], rows)


def write_circle_map_csv(path, description) -> Path:
    rows = [(p[0], p[1]) for p in description.pairs]
    return write_csv(path, ["phi_k", "phi_next"], rows)


def write_curve_points_csv(path, points) -> Path:
    """Bifurcation-set points: one row per located curve point."""
    rows = [(p.tau, p.alpha, p.epsilon, p.label, p.residual,
             ";".join(p.tags)) for p in points]
    return write_csv(path, ["tau", "alpha", "epsilon", "label", "residual", "tags"],
                     rows)


def write_curve_snapshot_csv(path, curve) -> Path:
    phis = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    r, eta, t, y = curve.tabulate(phis)
    rows = zip(phis, r, eta, t, y[:, 0], y[:, 1])
    return write_csv(path, ["phi", "r", "eta", "t", "x", "xdot"], rows)


def family_records(branch, n_modes: int):
    """JSON-ready per-point records of a colliding-curve family branch."""
    records = []
    for pt in branch.points:
        rec = {
            "parameters": {"tau": pt.data["tau"], "alpha": pt.data["alpha"]},
            "phi_star": pt.data["phi_star"],
            "radius": pt.data["radius"],
            "omega": pt.data["omega"],
            "t0": pt.data["t0"],
            "n_modes": n_modes,
            "unknowns": list(pt.w),
            "residual": pt.residual_norm,
            "error_estimate": pt.data["error"],
            "flags": {"step": pt.step},
        }
        records.append(rec)
    return records
