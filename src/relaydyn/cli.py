"""Command line front end.

Every subcommand reads a flat JSON config (defaults overridable via
``--config``), writes its tables into ``--out`` and drops a manifest
recording the resolved configuration.  Runs are deterministic: the same
config produces byte-identical files.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 validation failure (a precondition of the mathematics was violated),
1 any other exception.  Each failure is one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import attractor, continuation, oscillator, output, reduced, relay
from .errors import NumericalError, RelayDynError, ValidationError
from .history import HybridState, SampledHistory


class ConfigError(Exception):
    """Bad configuration file or option values."""


DEFAULTS: dict[str, dict] = {
    "simulate": {
        "zeta": -0.1, "tau": 4.2, "alpha": -0.5, "epsilon": 0.1,
        "u0": 1, "horizon": 20.0, "history": "constant",
        "y0": [0.5, 0.0], "amplitude": 0.3, "scan_dt": 0.02,
    },
    "surface": {
        "zeta": -0.1, "tau_range": [math.pi + 1e-3, 2.0 * math.pi],
        "n_tau": 50, "alpha_range": [-1.2, 1.2], "n_alpha": 50,
    },
    "bifmap": {
        "zeta": -0.1, "tau_range": [math.pi + 1e-3, 2.0 * math.pi],
        "n_tau": 50, "alpha_range": [-1.2, 1.2], "n_alpha": 50,
        "residual_tol": 1e-8,
    },
    "unfold": {
        "zeta": -0.1, "epsilon": 0.1, "tau_max": 5.0, "n_collision": 80,
    },
    "family": {
        "zeta": -0.1, "epsilon": 0.1, "n_modes": 32, "tau_stop": None,
        "ds": 2e-3, "max_points": 400, "snapshot_every": 5,
        "breakup_tol": 1e-2,
    },
    "sweep": {
        "zeta": -0.1, "tau": 4.2, "epsilon": 0.1,
        "alpha_range": [-0.5, -0.38], "n_alpha": 121, "warm_start": True,
        "n_transient": 40, "n_total": 400,
    },
    "polygon": {
        "zeta": -0.1, "tau": 4.25, "alpha": -0.44, "epsilon": 0.1,
        "n_transient": 40, "n_total": 400,
    },
}


POSITIVE = {"tau", "epsilon", "horizon", "scan_dt", "tau_max", "ds", "breakup_tol",
            "residual_tol", "n_tau", "n_alpha", "n_collision", "n_modes", "max_points",
            "snapshot_every", "n_total"}
NON_NEGATIVE = {"amplitude", "n_transient"}
_MAX_SCAN_STEPS = 10_000_000  # per simulate scan; the default config takes 1000
_NS_TAU_MIN = math.pi + 0.2  # unfold's NS curve spans delays (pi + 0.2, tau_max)


def _finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_value(key: str, value, default) -> None:
    """Raise ConfigError unless value has the type of its default (None
    stands for an optional number) and a usable range."""
    if default is None and value is None:
        return
    kind = float if default is None else type(default)
    if kind is list:
        ok = isinstance(value, list) and len(value) == len(default) \
            and all(_finite(v) for v in value)
        what = f"a list of {len(default)} finite numbers"
    elif kind is float:
        ok, what = _finite(value), "a finite number"
    else:  # bool, int, str: exactly that type, so true is not a count
        ok, what = type(value) is kind, f"of type {kind.__name__}"
    if not ok:
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")
    if key.endswith("_range") and not value[0] < value[1]:
        raise ConfigError(f"'{key}' must be increasing, got {value!r}")
    if key == "u0" and value not in (-1, 1):
        raise ConfigError(f"'u0' must be -1 or 1, got {value!r}")
    if key in POSITIVE and value <= 0:
        raise ConfigError(f"'{key}' must be positive, got {value!r}")
    if key in NON_NEGATIVE and value < 0:
        raise ConfigError(f"'{key}' must be non-negative, got {value!r}")


def load_config(command: str, path: str | None) -> dict:
    config = dict(DEFAULTS[command])
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(user) - set(config)
        if unknown:
            raise ConfigError(
                f"unknown keys for '{command}': {', '.join(sorted(unknown))}")
        config.update(user)
    for key, default in DEFAULTS[command].items():
        _check_value(key, config[key], default)
    if "n_total" in config and not config["n_transient"] < config["n_total"]:
        raise ConfigError("'n_transient' must be below 'n_total'")
    if command == "simulate" and \
            max(config["horizon"], config["tau"]) / config["scan_dt"] > _MAX_SCAN_STEPS:
        raise ConfigError(f"'scan_dt' must be at least max('horizon', 'tau') / "
                          f"{_MAX_SCAN_STEPS}, got {config['scan_dt']!r}")
    if command == "unfold" and config["tau_max"] <= _NS_TAU_MIN:
        raise ConfigError(f"'tau_max' must be above pi + 0.2 ({_NS_TAU_MIN!r}), the start "
                          f"of unfold's delay span, got {config['tau_max']!r}")
    if command == "bifmap" and min(config["n_tau"], config["n_alpha"]) < 2:
        raise ConfigError("'n_tau' and 'n_alpha' must be at least 2 for bifmap")
    if command == "polygon" and \
            config["n_total"] - config["n_transient"] < attractor.MIN_SAMPLES:
        raise ConfigError(f"'n_total' - 'n_transient' must be at least "
                          f"{attractor.MIN_SAMPLES} for polygon, the samples "
                          f"its circle map needs")
    return config


def _prepare_out(out: str) -> Path:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc
    return out_dir


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config: dict, out_dir: Path, seed: int) -> list[str]:
    system = relay.oscillator_system(config["zeta"], config["alpha"],
                                     config["tau"], config["epsilon"])
    tau = float(config["tau"])
    kind = config["history"]
    if kind == "constant":
        hist = SampledHistory.constant(np.asarray(config["y0"], float), tau)
    elif kind == "random":
        rng = np.random.default_rng(seed)
        base = np.asarray(config["y0"], float)
        amp = float(config["amplitude"])
        coef = rng.normal(size=(3, 2)) * amp
        freq = rng.uniform(0.5, 2.0, size=3)

        def fn(s):
            return base + (coef * np.sin(np.outer(freq, [s, s]))[:, :1]).sum(axis=0)

        hist = SampledHistory.from_function(fn, tau)
    elif kind == "collision":
        orbit = oscillator.collision_orbit(config["zeta"], tau, config["alpha"])
        ctx = oscillator.collision_context(orbit)
        state = reduced.reconstruct_history(ctx, orbit.y_star + np.array([1e-3, 0.0]))
        hist, u0 = state.history, state.u
        system = relay.oscillator_system(config["zeta"], config["alpha"],
                                         tau, orbit.params.epsilon)
        config = dict(config, epsilon=orbit.params.epsilon, u0=u0)
    else:
        raise ConfigError(f"unknown history kind '{kind}'")
    if kind != "collision":
        u0 = int(config["u0"])
    state = HybridState(hist, u0)
    _, traj = relay.evolve(system, state, float(config["horizon"]),
                           scan_dt=float(config["scan_dt"]))
    files = [
        output.write_trajectory_csv(out_dir / "trajectory.csv", traj),
        output.write_json(out_dir / "events.json", {
            "crossings": [{"time": c.time, "direction": c.direction,
                           "slope": c.slope, "switch_time": c.switch_time}
                          for c in traj.crossings],
            "switches": [{"time": s.time, "new_u": s.new_u,
                          "crossing_time": s.crossing_time}
                         for s in traj.switches],
        }),
    ]
    return [f.name for f in files]


def cmd_surface(config: dict, out_dir: Path, seed: int) -> list[str]:
    table = oscillator.surface_table(config["zeta"],
                                     np.linspace(*config["tau_range"], int(config["n_tau"])),
                                     np.linspace(*config["alpha_range"], int(config["n_alpha"])))
    f = output.write_csv(out_dir / "surface.csv",
                         ["tau", "alpha", "epsilon", "q", "lambda_plus", "residual"],
                         table.tolist())
    return [f.name]


def cmd_bifmap(config: dict, out_dir: Path, seed: int) -> list[str]:
    bmap = oscillator.bifurcation_map(
        config["zeta"], tau_range=tuple(config["tau_range"]),
        alpha_range=tuple(config["alpha_range"]), n_tau=int(config["n_tau"]),
        n_alpha=int(config["n_alpha"]), residual_tol=float(config["residual_tol"]))
    files = [
        output.write_curve_points_csv(out_dir / "points.csv", bmap.all_points()),
        output.write_json(out_dir / "polylines.json", {
            label: [seg.tolist() for seg in segs]
            for label, segs in bmap.polylines.items()
        }),
    ]
    return [f.name for f in files]


def cmd_unfold(config: dict, out_dir: Path, seed: int) -> list[str]:
    zeta, eps = config["zeta"], config["epsilon"]
    tau_ns, alpha_ns = oscillator.find_nsc(zeta, eps)
    if not _NS_TAU_MIN <= tau_ns <= float(config["tau_max"]):
        raise ConfigError(
            f"the Neimark-Sacker point's delay {tau_ns:.6g} lies outside unfold's "
            f"delay span [pi + 0.2, {config['tau_max']!r}]; raise 'tau_max'")
    orbit = oscillator.collision_orbit(zeta, tau_ns, alpha_ns)
    stab = oscillator.stability_at_collision(orbit)
    angle = abs(float(np.angle(stab.eigs_minus[0])))
    branch = continuation.continue_ns_curve(
        zeta, eps, nsc=(tau_ns, alpha_ns),
        tau_span=(_NS_TAU_MIN, float(config["tau_max"])))
    ns_rows = [[float(p.data[k]) for k in ("tau", "alpha", "t0", "trace")]
               for p in branch.points]
    coll_rows = oscillator.collision_curve(
        zeta, eps, np.linspace(math.pi + 0.05, float(config["tau_max"]),
                               int(config["n_collision"])))
    files = [
        output.write_json(out_dir / "nsc.json", {
            "tau": tau_ns, "alpha": alpha_ns, "epsilon": eps,
            "lambda_plus": stab.lambda_plus, "rotation_angle": angle,
            "ns_points": len(branch.points), "ns_termination": branch.termination,
        }),
        output.write_csv(out_dir / "ns_curve.csv",
                         ["tau", "alpha", "t0", "trace"], ns_rows),
        output.write_csv(out_dir / "collision_curve.csv",
                         ["tau", "alpha", "epsilon"], coll_rows),
    ]
    return [f.name for f in files]


def cmd_family(config: dict, out_dir: Path, seed: int) -> list[str]:
    n_modes = int(config["n_modes"])
    branch = continuation.continue_colliding_family(
        config["zeta"], config["epsilon"], n_modes=n_modes,
        tau_stop=config["tau_stop"], ds=float(config["ds"]),
        max_points=int(config["max_points"]),
        breakup_tol=float(config["breakup_tol"]))
    files = [
        output.write_json_lines(out_dir / "family.jsonl",
                                output.family_records(branch, n_modes)),
        output.write_json(out_dir / "summary.json", {
            "n_points": len(branch.points),
            "termination": branch.termination,
            "message": branch.message,
            "tau_first": branch.points[0].data["tau"] if branch.points else None,
            "tau_last": branch.points[-1].data["tau"] if branch.points else None,
        }),
    ]
    every = int(config["snapshot_every"])
    for i in range(0, len(branch.points), max(every, 1)):
        name = out_dir / f"curve_{i:04d}.csv"
        files.append(output.write_curve_snapshot_csv(name, branch.points[i].data["curve"]))
    return [f.name for f in files]


def cmd_sweep(config: dict, out_dir: Path, seed: int) -> list[str]:
    alphas = np.linspace(*config["alpha_range"], int(config["n_alpha"]))
    records = attractor.sweep(
        config["zeta"], config["tau"], config["epsilon"], alphas,
        warm_start=bool(config["warm_start"]),
        n_transient=int(config["n_transient"]), n_total=int(config["n_total"]))
    window = attractor.visit_window(records)
    try:
        spc = oscillator.surface_alpha(config["zeta"], config["tau"], config["epsilon"])
    except RelayDynError:
        spc = []
    files = [
        output.write_sweep_csv(out_dir / "sweep.csv", records),
        output.write_json(out_dir / "marks.json", {
            "surface_alpha": spc,
            "visit_window": list(window) if window else None,
        }),
    ]
    return [f.name for f in files]


def cmd_polygon(config: dict, out_dir: Path, seed: int) -> list[str]:
    zeta, tau = config["zeta"], config["tau"]
    y_ref = oscillator.surface_corner(zeta, tau)
    ctx = reduced.oscillator_context(zeta, config["alpha"], tau,
                                     config["epsilon"], y_ref, delta=0.45 * tau)
    run = attractor.iterate_attractor(ctx, y_ref + np.array([1e-3, 0.0]),
                                      n_transient=int(config["n_transient"]),
                                      n_total=int(config["n_total"]))
    desc = attractor.polygon_arcs(run.points, ctx)
    files = [
        output.write_polygon_csv(out_dir / "polygon.csv", desc),
        output.write_circle_map_csv(out_dir / "circle_map.csv", desc),
        output.write_json(out_dir / "summary.json", {
            "arc_count": desc.arc_count,
            "corner_count": len(desc.corner_indices),
            "monotone": desc.monotone,
            "locking_period": desc.locking_period,
            "centroid": desc.centroid.tolist(),
            "visited_plus": run.visited_plus,
            "visited_minus": run.visited_minus,
        }),
    ]
    return [f.name for f in files]


COMMANDS = {
    "simulate": cmd_simulate,
    "surface": cmd_surface,
    "bifmap": cmd_bifmap,
    "unfold": cmd_unfold,
    "family": cmd_family,
    "sweep": cmd_sweep,
    "polygon": cmd_polygon,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydyn",
        description="Delayed-relay oscillator toolbox: simulation, collision "
                    "surface, bifurcation curves, invariant-curve continuation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized inputs")
    p = sub.add_parser("print-config")
    p.add_argument("name", nargs="?", default=None,
                   help="command whose defaults to print (all if omitted)")
    p.add_argument("--config", default=None, help="JSON config file to merge")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "print-config":
        if args.name is None:
            print(json.dumps(DEFAULTS, sort_keys=True, indent=2))
        else:
            if args.name not in DEFAULTS:
                raise ConfigError(f"unknown command '{args.name}'")
            print(json.dumps(load_config(args.name, args.config),
                             sort_keys=True, indent=2))
        return 0
    if args.seed < 0:
        raise ConfigError(f"'--seed' must be non-negative, got {args.seed}")
    config = load_config(args.command, args.config)
    created = not Path(args.out).exists()
    out_dir = _prepare_out(args.out)
    try:
        # an overflow or invalid operation fails the run in one line (exit 3);
        # underflow of exp is benign and stays quiet
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            names = COMMANDS[args.command](config, out_dir, int(args.seed))
    except BaseException:  # leave no empty directory of this run's making
        if created and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise
    manifest_config = dict(config, seed=int(args.seed))
    output.write_manifest(out_dir, args.command, manifest_config,
                          names + ["manifest.json"])
    print(f"{args.command}: wrote {len(names) + 1} files to {out_dir}")
    return 0


def main(argv=None) -> int:
    try:
        code = run(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        code = 4
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        code = 3
    except Exception as exc:  # last resort: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
