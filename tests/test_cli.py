"""Command line driver: configs, exit codes, deterministic outputs."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaydyn import cli, continuation, oscillator
from relaydyn.errors import NoConvergence


def run_cli(args):
    return cli.main(args)


def test_import_loads_no_scipy_fractions_or_decimal():
    # scipy is a test and RK-oracle dependency; importing it costs every
    # command about 0.7 s of CPU.  fractions and decimal are the exact
    # arithmetic that tests check the float kernels against; the kernels
    # themselves fall back on ndarray.dot, so setup_s does not grow
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import relaydyn.cli, sys; print(sorted({m.split('.')[0] "
         "for m in sys.modules} & {'scipy', 'fractions', 'decimal'}))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_polygon_leaves_numpy_ma_unloaded(tmp_path):
    # np.median and np.unique import numpy.ma on their first call, about
    # 8 ms of every polygon process; the attractor sorts and counts a set
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from relaydyn import cli; "
         f"code = cli.main(['polygon', '--out', {str(tmp_path / 'o')!r}]); "
         "print(code, 'numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False"


def test_package_source_imports_no_scipy():
    # the subprocess check above sees module-level imports only; this one
    # also catches an import inside a function body
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def _private_uses(tree):
    """(line, name) for each ``_``-prefixed name of another relaydyn module
    that the module imports, or reads as ``module._name``.

    Dunder names are not private, and ``_roots`` is a private module whose
    public names the package shares.
    """
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (
                node.level or (node.module or "").split(".")[0] == "relaydyn"):
            continue
        source = (node.module or "").removeprefix("relaydyn").lstrip(".")
        for alias in node.names:
            if not source:  # from . import module
                modules.add(alias.asname or alias.name)
            elif private(alias.name):
                found.append((node.lineno, f"{source}.{alias.name}"))
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    return sorted(found)


def test_modules_use_no_private_name_of_another_module():
    # a module's `_` names are its own: another module that needs one wants
    # a public function in its place
    probe = ast.parse("from .oscillator import _a, b\nfrom . import oscillator as o\n"
                      "def f():\n    return o._c, o.d, o.__name__\n")
    assert _private_uses(probe) == [(1, "oscillator._a"), (4, "o._c")]
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for line, name in _private_uses(ast.parse(path.read_text()))]
    assert found == []


def _orphaned_helpers(trees):
    """Each ``_``-prefixed module-level function or class of the given
    modules that no name, attribute or import in any of them refers to.

    A definition is not a reference, and nor is a mention in a docstring.
    """
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    named |= {alias.name for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(name for name in defined if name not in named)


def test_no_private_helper_is_orphaned():
    # a helper that only its own definition names is dead code, such as a
    # deletion leaves behind
    probe = ast.parse('def _a():\n    "see _b"\ndef _b():\n    return _c()\n'
                      'def _c():\n    pass\nclass _D:\n    pass\nx = m._D\n')
    assert _orphaned_helpers([probe]) == ["_a", "_b"]
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))]
    assert _orphaned_helpers(trees) == []


def _defaulted_parameters(tree):
    """(callee name, parameter, position) for each defaulted parameter.

    The callee name of ``__init__`` is its class; a method's positions skip
    ``self``/``cls``, and keyword-only parameters have position None.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list)
            name = cls if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            found.extend((name, positional[i].arg, i - bound)
                         for i in range(first, len(positional)))
            found.extend((name, arg.arg, None)
                         for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return found


def test_every_defaulted_parameter_is_set_by_a_call():
    # a default that no call in the package, its tests or its benchmark
    # overrides is a configuration nothing runs: it belongs in the body
    root = Path(cli.__file__).resolve().parents[2]
    params = [(path.name, *p) for path in sorted(Path(cli.__file__).parent.glob("*.py"))
              for p in _defaulted_parameters(ast.parse(path.read_text()))]
    calls = []  # (callee name, keywords passed, positional arguments passed)
    for path in sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            # a ** mapping may pass any keyword, a * sequence any position
            keywords = {k.arg or "**" for k in node.keywords}
            reach = math.inf if any(isinstance(a, ast.Starred) for a in node.args) \
                else len(node.args)
            calls.append((name, keywords, reach))
    unset = [f"{module}: {name}({param})" for module, name, param, pos in params
             if not any(callee == name and (param in keywords or "**" in keywords
                                            or (pos is not None and reach > pos))
                        for callee, keywords, reach in calls)]
    assert params and calls
    assert unset == []


def test_print_config_lists_all_defaults(capsys):
    assert run_cli(["print-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == set(cli.DEFAULTS)
    assert data["simulate"]["tau"] == 4.2


def test_print_config_merges_user_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau": 4.4}))
    assert run_cli(["print-config", "sweep", "--config", str(cfg)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tau"] == 4.4
    assert data["n_alpha"] == cli.DEFAULTS["sweep"]["n_alpha"]


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_malformed_config_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert run_cli(["sweep", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2


def test_bad_history_kind_is_exit_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"history": "banana"}))
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2


def test_validation_failure_is_exit_4(tmp_path, capsys):
    # below the collision the attractor collapses to a point, so the
    # polygon segmentation has nothing to work with
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau": 4.2, "alpha": -0.49}))
    assert run_cli(["polygon", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 4
    assert "validation error" in capsys.readouterr().err


def test_numerical_failure_is_exit_3(tmp_path, monkeypatch, capsys):
    def boom(config, out_dir, seed):
        raise NoConvergence("forced")

    monkeypatch.setitem(cli.COMMANDS, "sweep", boom)
    assert run_cli(["sweep", "--out", str(tmp_path / "o")]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("zeta", [-5, -50])
def test_overflow_is_one_numerical_error_line(tmp_path, zeta):
    # strongly negative damping overflows the flow; a child process keeps
    # numpy's RuntimeWarnings, which the run must not print, on its stderr
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"zeta": zeta, "horizon": 500}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "relaydyn", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical error:")


def test_overflow_names_the_time_and_the_flow(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"zeta": -5, "horizon": 500}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical error: state overflowed after t=[0-9.]+ "
                        r"under AffineOscillatorFlow\(zeta=-5\.0\)\n", err), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, message", [
    (["simulate", "--config", "{dir}/missing.json", "--out", "{dir}/o"],
     "cannot read config file"),
    (["simulate", "--config", "{dir}/array.json", "--out", "{dir}/o"],
     "config must be a JSON object"),
    (["simulate", "--out", "{dir}/file/o"], "output directory not writable"),
    (["print-config", "banana"], "unknown command 'banana'"),
])
def test_unusable_config_or_out_is_one_exit_2_line(tmp_path, capsys, args, message):
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "file").write_text("")
    assert run_cli([a.format(dir=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_family_stops_at_tau_stop(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau_stop": 4.136, "n_modes": 16}))
    assert run_cli(["family", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["termination"] == "tau-stop"
    taus = [json.loads(line)["parameters"]["tau"]
            for line in (tmp_path / "o" / "family.jsonl").read_text().splitlines()]
    assert len(taus) == summary["n_points"] > 2
    assert taus[-2] < 4.136 <= taus[-1] == summary["tau_last"]


# sha256 of every file the commands write at their defaults.  family is left
# out: its bits follow the OpenBLAS thread count.  A change that moves an
# output on purpose updates these pins and says so in CHANGES.md.
DEFAULT_OUTPUT_SHA256 = {
    "bifmap/manifest.json":
        "66819f22820e6051d4653bf9a40a06b617e71840e12b7a06aea900548ec62a73",
    "bifmap/points.csv":
        "c01b2bf131a6f9732990af449ff8b4ea9f52c29a611cb1e26c0626b190ccdeb3",
    "bifmap/polylines.json":
        "6d5002c5d203dd2fecf2bd6158ae46b80dc7d3a655dc1833801ddb970e6f72cc",
    "polygon/circle_map.csv":
        "25a084bd17fa110a67fe75f0aaa05b6ca1a622b26b8e513d063269e68c9c973f",
    "polygon/manifest.json":
        "6a6b06162f05a31a7452c80311ccae87172838122fcc8c79935a18949be78ab8",
    "polygon/polygon.csv":
        "c08c81115c4e7f88d9d1ef1785c408403eba48ce92dcbd2a1558d381aea026ee",
    "polygon/summary.json":
        "4468132679a0877d50d6f8cf00e5a3f4e9e2272ff4834d296cb263fec303ef9e",
    "simulate/events.json":
        "253fc19d38c13bb84bd2bf4ae7ff2a54c6a84c59702b95f763e69d147c899c84",
    "simulate/manifest.json":
        "aaf1d471f4ef5d8d4df3062009e16bd7ab8dd8ec04ae0c344d67f47b8836258c",
    "simulate/trajectory.csv":
        "7fac0323161bbdb0e7fbe6601bba9872810cbbbe46b88b9db1c54099f5de50f9",
    "surface/manifest.json":
        "3896a874362e0b7f2091cb0359d85c1feceb2b68129e312f34e120d8f9e5284d",
    "surface/surface.csv":
        "b7b24c20f573fd322b34967c93b03873cec3eef1e0ef9bd7de701d59bbf0a454",
    "sweep/manifest.json":
        "55aff8aceaba79d97dce35c3a62cc1e72d4f243538ecd15ea3700b540977ff62",
    "sweep/marks.json":
        "63e102bf7e45b8e04d54a87c3da932d19bb8d536fb8578b150a3b1ccc0174f0b",
    "sweep/sweep.csv":
        "0e78d773a30fa1c67425815ac8e4aa1ad22e743f50734074164f20e172fb328d",
    "unfold/collision_curve.csv":
        "78ad15a9a431644b0b8593d5d043231b5497b1c19ed251b29151cf91ca2dae74",
    "unfold/manifest.json":
        "d0085e3ed0facb6286e8af8b46f415fc17eeacfb45769ff4b70ee0136987c3f8",
    "unfold/ns_curve.csv":
        "8306d5b44eb338df9aafe6dbb30bad5af442c78c68c964a9d13d6a426f752a1b",
    "unfold/nsc.json":
        "d5cb1837da015a95837178263a781dce8847fa353036a57b7797aba2edaf72dd",
}


def test_default_outputs_keep_their_pinned_bytes(tmp_path, capsys):
    commands = sorted({name.split("/")[0] for name in DEFAULT_OUTPUT_SHA256})
    for command in commands:
        assert run_cli([command, "--out", str(tmp_path / command)]) == 0
    got = {str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert got == DEFAULT_OUTPUT_SHA256


# sha256 of the simulate files at the benchmark's horizon, 500, where the
# scan builds 237 grids and the trajectory table spans 118 segments
HORIZON_500_SHA256 = {
    "events.json": "c60de2f72f2a55f84bcee99ec601170744cc72eb34d5e18fece3748a69a54a9a",
    "trajectory.csv": "fd9fb5ec721086fe1a68521fa115e2782eaf19a59f30f9cf3b4f88b3b3ce51eb",
}


def test_simulate_at_horizon_500_keeps_its_pinned_bytes(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"horizon": 500}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    got = {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
           for name in HORIZON_500_SHA256}
    assert got == HORIZON_500_SHA256


def test_simulate_outputs_are_byte_identical(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"horizon": 12.0, "history": "random"}))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli(["simulate", "--config", str(cfg), "--seed", "5",
                        "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trajectory.csv", "events.json", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert sorted(manifest["outputs"]) == manifest["outputs"]


@pytest.mark.parametrize("command, files", [
    ("sweep", ("sweep.csv", "marks.json", "manifest.json")),
    ("polygon", ("polygon.csv", "circle_map.csv", "summary.json", "manifest.json")),
])
def test_sweep_and_polygon_outputs_are_byte_identical(tmp_path, command, files):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli([command, "--out", str(out)]) == 0
        outs.append(out)
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(files)
    for fname in files:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_different_seed_changes_random_history(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"horizon": 8.0, "history": "random"}))
    hashes = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert run_cli(["simulate", "--config", str(cfg), "--seed", seed,
                        "--out", str(out)]) == 0
        hashes.append((out / "trajectory.csv").read_bytes())
    assert hashes[0] != hashes[1]


def test_sweep_command_writes_tables(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha_range": [-0.47, -0.45], "n_alpha": 5,
                               "n_total": 120, "n_transient": 20}))
    out = tmp_path / "o"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    body = (out / "sweep.csv").read_text().splitlines()
    assert body[0] == "alpha,env_min_x,env_max_x,visited_plus,visited_minus,escaped"
    assert len(body) == 6
    marks = json.loads((out / "marks.json").read_text())
    assert marks["surface_alpha"]


def test_surface_command_writes_rows(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_tau": 6, "n_alpha": 6,
                               "tau_range": [3.5, 5.0],
                               "alpha_range": [-0.8, 0.2]}))
    out = tmp_path / "o"
    assert run_cli(["surface", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert lines[0] == "tau,alpha,epsilon,q,lambda_plus,residual"
    assert len(lines) > 10
    for ln in lines[1:]:
        cells = ln.split(",")
        assert float(cells[2]) > 0      # epsilon
        assert float(cells[3]) > 0      # transversality q
        assert abs(float(cells[5])) < 1e-10


def test_polygon_command_summary(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["polygon", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monotone"] is True
    assert summary["arc_count"] >= 2
    assert summary["visited_plus"] and summary["visited_minus"]
    lines = (out / "circle_map.csv").read_text().splitlines()
    assert lines[0] == "phi_k,phi_next"
    assert len(lines) > 300


def test_collision_history_below_pi_is_exit_4(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"history": "collision", "tau": 2.5, "alpha": 1.0}))
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "tau > pi" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_non_transversal_collision_history_is_exit_4(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"history": "collision", "alpha": 1.0}))
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("validation error: corner not strictly transversal")


def test_surface_below_pi_writes_header_only(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau_range": [2.0, 3.0]}))
    out = tmp_path / "o"
    assert run_cli(["surface", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert lines == ["tau,alpha,epsilon,q,lambda_plus,residual"]


@pytest.mark.parametrize("command, config", [
    ("sweep", {"tau": 3.0, "alpha_range": [-1.5, 1.5], "n_alpha": 61}),
    ("polygon", {"tau": 3.0}),
])
def test_sweep_and_polygon_below_pi_are_exit_4(tmp_path, capsys, command, config):
    # below pi the corner sits on the -eps line, which is not modelled: the
    # delay is refused before any map iteration, not reported as escapes
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "validation error: collision surface covers tau > pi only, got tau=3\n"


@pytest.mark.parametrize("command, config, code", [
    ("sweep", {"tau": 3.0}, 4),
    ("family", {"n_modes": 1, "max_points": 3}, 3),
])
def test_failed_run_removes_the_empty_out_directory_it_made(tmp_path, capsys,
                                                           command, config, code):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()
    out.mkdir()  # a directory the user made stays
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == code
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("scan_dt", [1e-300, 1e-6])
def test_tiny_scan_dt_is_exit_2(tmp_path, capsys, scan_dt):
    # refused before any scan grid is allocated: the default horizon 20
    # would need 2e7 nodes at 1e-6 and more than numpy can index at 1e-300
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scan_dt": scan_dt}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: 'scan_dt' must be at least max('horizon', 'tau') / "
                   f"10000000, got {scan_dt!r}\n")
    assert not (tmp_path / "o").exists()


def test_unfold_solves_its_ns_point_once(tmp_path, monkeypatch):
    calls = []
    real = oscillator.find_nsc

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oscillator, "find_nsc", counted)
    monkeypatch.setattr(continuation, "find_nsc", counted)
    assert run_cli(["unfold", "--out", str(tmp_path / "o")]) == 0
    assert calls == [(-0.1, 0.1)]


@pytest.mark.parametrize("tau_max", [3.0, math.pi + 0.2, math.nextafter(math.pi + 0.2, 4.0)])
def test_unfold_needs_delays_past_the_span_start(tmp_path, capsys, tau_max):
    # unfold traces the NS curve over tau in (pi + 0.2, tau_max); an empty
    # span used to write an NS row and collision rows beyond tau_max
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau_max": tau_max}))
    out = tmp_path / "o"
    code = run_cli(["unfold", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    if tau_max > math.pi + 0.2:  # a span that stops short of the NS point
        assert err.startswith("config error: the Neimark-Sacker point's delay 4.13043 ")
    else:
        assert err == (
            f"config error: 'tau_max' must be above pi + 0.2 ({math.pi + 0.2!r}), the start "
            f"of unfold's delay span, got {tau_max!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("tau_max, code", [(3.5, 2), (4.2, 0)])
def test_unfold_span_must_hold_the_ns_point(tmp_path, capsys, tau_max, code):
    # the NS curve is seeded at the NS point (tau = 4.130 by default); a span
    # ending before it used to write that one row at tau = 4.130 and exit 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau_max": tau_max}))
    out = tmp_path / "o"
    assert run_cli(["unfold", "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == ("config error: the Neimark-Sacker point's delay 4.13043 lies outside "
                       f"unfold's delay span [pi + 0.2, {tau_max!r}]; raise 'tau_max'\n")
        assert not out.exists()
        return
    assert err == ""
    nsc = json.loads((out / "nsc.json").read_text())
    assert nsc["tau"] <= tau_max and nsc["ns_points"] > 1


def test_unfold_collision_curve_skips_delays_without_a_corner(tmp_path, monkeypatch):
    # one stacked corner solve for find_nsc's scan and one for the collision
    # curve; a NaN row is skipped as a raised error at that delay used to be
    real = oscillator._corner_rows
    calls = []

    def counted(zeta, taus):
        calls.append(len(taus))
        rows = real(zeta, taus)
        if len(taus) > 1:
            rows[3] = np.nan
        return rows

    monkeypatch.setattr(oscillator, "_corner_rows", counted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_collision": 9}))
    assert run_cli(["unfold", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert [n for n in calls if n > 1] == [60, 9]
    lines = (tmp_path / "o" / "collision_curve.csv").read_text().splitlines()
    taus = np.linspace(math.pi + 0.05, 5.0, 9)
    assert [float(line.split(",")[0]) for line in lines[1:]] == \
        [t for i, t in enumerate(taus.tolist()) if i != 3]


def test_polygon_with_too_few_samples_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_total": 100}))
    out = tmp_path / "o"
    assert run_cli(["polygon", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'n_total' - 'n_transient' must be at least 200")
    assert err.count("\n") == 1
    assert not out.exists()  # refused before any output
    cfg.write_text(json.dumps({"n_total": 240}))
    assert run_cli(["polygon", "--config", str(cfg), "--out", str(out)]) == 0


# -- config validation ------------------------------------------------------

@pytest.mark.parametrize("command,bad,message", [
    ("sweep", {"tau": "abc"}, "'tau' must be a finite number"),
    ("sweep", {"n_alpha": -3}, "'n_alpha' must be positive"),
    ("sweep", {"tau": math.nan}, "'tau' must be a finite number"),
    ("sweep", {"epsilon": 0.0}, "'epsilon' must be positive"),
    ("sweep", {"alpha_range": [-0.4, -0.5]}, "'alpha_range' must be increasing"),
    ("sweep", {"alpha_range": [-0.4]}, "'alpha_range' must be a list of 2"),
    ("sweep", {"warm_start": 1}, "'warm_start' must be of type bool"),
    ("sweep", {"n_alpha": True}, "'n_alpha' must be of type int"),
    ("sweep", {"n_transient": 400}, "'n_transient' must be below 'n_total'"),
    ("simulate", {"u0": 0}, "'u0' must be -1 or 1"),
    ("simulate", {"y0": [0.1, math.inf]}, "'y0' must be a list of 2 finite numbers"),
    ("simulate", {"amplitude": -0.1}, "'amplitude' must be non-negative"),
    ("family", {"tau_stop": "late"}, "'tau_stop' must be a finite number"),
    ("surface", {"n_tau": 2.0}, "'n_tau' must be of type int"),
])
def test_bad_config_values_are_exit_2(tmp_path, capsys, command, bad, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(bad))
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()  # refused before any output


# every integer count key of every command
COUNT_KEYS = [(command, key) for command, defaults in cli.DEFAULTS.items()
              for key, default in defaults.items()
              if type(default) is int and key != "u0"]
# caps on the other counts that keep each run short
SHORT = {"family": {"max_points": 3}, "sweep": {"n_alpha": 5}}


@pytest.mark.parametrize("value", [1, 2])
@pytest.mark.parametrize("command, key", COUNT_KEYS)
def test_small_counts_never_exit_1(tmp_path, capsys, command, key, value):
    config = dict(SHORT.get(command, {}), **{key: value})
    if key == "n_total":
        config["n_transient"] = 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), err
    assert err.count("\n") == (code != 0)
    if command == "bifmap" and value == 1:
        assert code == 2 and err.startswith("config error: 'n_tau' and 'n_alpha'")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_negative_seed_is_exit_2(tmp_path, capsys, command):
    assert run_cli([command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: '--seed' must be non-negative, got -1\n"
    assert not (tmp_path / "o").exists()


def test_valid_overrides_keep_their_json_types(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau_stop": 4.2, "n_modes": 16, "zeta": 0}))
    assert run_cli(["print-config", "family", "--config", str(cfg)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tau_stop"] == 4.2 and data["n_modes"] == 16
    assert data["zeta"] == 0 and isinstance(data["zeta"], int)  # an int is a number


def test_stray_exception_is_one_line(tmp_path, monkeypatch, capsys):
    def boom(config, out_dir, seed):
        raise KeyError("forced")

    monkeypatch.setitem(cli.COMMANDS, "sweep", boom)
    assert run_cli(["sweep", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'forced'\n"


GARBAGE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, -7.5, -1, 0, 0.5, 2, 10]))


def _numbers(lo, hi):
    return st.floats(lo, hi)


# in-range values, small enough that every run takes well under a second
PLAUSIBLE = {
    "simulate": {
        "zeta": _numbers(-0.3, 0.3), "tau": _numbers(0.5, 6.0),
        "alpha": _numbers(-1.6, 1.6), "epsilon": _numbers(0.01, 0.4),
        "u0": st.sampled_from([-1, 1]), "horizon": _numbers(0.5, 15.0),
        "history": st.sampled_from(["constant", "random", "collision"]),
        "y0": st.lists(_numbers(-2.0, 2.0), min_size=2, max_size=2),
        "amplitude": _numbers(0.0, 1.0), "scan_dt": _numbers(0.005, 0.1),
    },
    "polygon": {
        "zeta": _numbers(-0.3, 0.3), "tau": _numbers(2.0, 6.0),
        "alpha": _numbers(-1.2, 1.2), "epsilon": _numbers(0.01, 0.4),
        # n_total - n_transient >= 200, so that the run reaches the iteration
        "n_transient": st.integers(0, 40), "n_total": st.integers(240, 320),
    },
    "surface": {
        "zeta": _numbers(-0.3, 0.3),
        "tau_range": st.tuples(_numbers(1.0, 4.0), _numbers(4.5, 7.0)).map(list),
        "n_tau": st.integers(1, 3),
        "alpha_range": st.tuples(_numbers(-1.5, 0.0), _numbers(0.1, 1.5)).map(list),
        "n_alpha": st.integers(1, 3),
    },
}


@st.composite
def command_configs(draw):
    """Plausible or default values, and at most one garbage value, so that
    most examples get past validation and run."""
    command = draw(st.sampled_from(sorted(PLAUSIBLE)))
    keys = PLAUSIBLE[command]
    config = {key: draw(plausible) for key, plausible in keys.items() if draw(st.booleans())}
    if draw(st.booleans()):
        config[draw(st.sampled_from(sorted(keys)))] = draw(GARBAGE)
    return command, config


@settings(max_examples=60)
@given(command_configs(), st.integers(0, 3))
def test_random_configs_never_raise(command_config, seed):
    command, config = command_config
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli([command, "--config", str(cfg), "--seed", str(seed),
                            "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
