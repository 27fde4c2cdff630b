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
    """One CSV cell: a float by repr, a bool as 1/0, anything else by str.

    The writers pass Python natives, so a float cell takes the first test.
    """
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


def _native(obj):
    """``json.dumps`` default: numpy scalars and arrays as Python natives.

    ``np.float64`` is a ``float`` subclass, which json already prints by
    ``float.__repr__``.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_native) + "\n")
    return path


def write_json_lines(path, objs) -> Path:
    path = Path(path)
    lines = [json.dumps(o, sort_keys=True, default=_native) for o in objs]
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
    rows = [(r.alpha, float(r.env_min[0]), float(r.env_max[0]), r.visited_plus,
             r.visited_minus, r.escaped) for r in records]
    return write_csv(
        path, ["alpha", "env_min_x", "env_max_x", "visited_plus",
               "visited_minus", "escaped"], rows)


def write_polygon_csv(path, description) -> Path:
    rows = zip(description.angles.tolist(), *description.points.T.tolist(),
               description.arc_ids.tolist())
    return write_csv(path, ["phi", "x", "xdot", "arc_id"], rows)


def write_circle_map_csv(path, description) -> Path:
    return write_csv(path, ["phi_k", "phi_next"], description.pairs.tolist())


def write_curve_points_csv(path, points) -> Path:
    """Bifurcation-set points: one row per located curve point."""
    rows = [(p.tau, p.alpha, p.epsilon, p.label, p.residual,
             ";".join(p.tags)) for p in points]
    return write_csv(path, ["tau", "alpha", "epsilon", "label", "residual", "tags"],
                     rows)


def write_curve_snapshot_csv(path, curve) -> Path:
    phis = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    r, eta, t, y = curve.tabulate(phis)
    return write_csv(path, ["phi", "r", "eta", "t", "x", "xdot"],
                     np.column_stack((phis, r, eta, t, y)).tolist())


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
            "unknowns": pt.w.tolist(),
            "residual": pt.residual_norm,
            "error_estimate": pt.data["error"],
            "flags": {"step": pt.step},
        }
        records.append(rec)
    return records
