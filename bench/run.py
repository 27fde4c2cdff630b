"""relaydyn benchmark: runs the real CLI commands in-process on one workload.

    python3 bench/run.py --workload sweep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload family --trace 1
    python3 bench/run.py --workload atlas --validate-trace
    python3 bench/run.py --record-reference
    python3 bench/run.py --compare OLD NEW

``--trace 0`` repeats the workload's commands (one at a time, closed loop)
for about ``--seconds`` seconds, checks every output, and prints the
end-to-end metrics.  ``--trace 1`` runs the workload once untraced and once
with every public library function wrapped (see spans.py) and prints the
per-layer metrics.  The last line of standard output is the JSON result;
the full record, with the environment, goes to ``bench/out/results/``.

Run it from the root of a source checkout: the package is imported from
``src/``, not from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from spans import Tracer, layer_metrics, profile_counts, traced_counts
from workloads import WORKLOADS, compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

SETUP_REPEATS = 7

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    """Python, numpy, scipy, BLAS build and threads, cores and git sha."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_sha": sha or "unknown",
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup() -> tuple[float, float]:
    """CPU time (user + sys) of a fresh interpreter importing relaydyn.cli,
    and its wall time; medians of SETUP_REPEATS imports.

    CPU time is the metric: it counts any work moved into import as fully
    as wall time does, but not the waits that make single imports' wall
    times on a shared machine spread by a fifth.  In medians of seven, CPU
    time spread 6 % where wall time spread 11 % and probe-rescaled wall
    time 13 %.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus, walls = [], []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import relaydyn.cli"], env=env,
                       check=True, cwd=ROOT)
        walls.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpus.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return statistics.median(cpus), statistics.median(walls)


class Runner:
    """Runs one workload's commands and checks their outputs."""

    def __init__(self, workload, seed: int):
        from relaydyn import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.configs = workload.configs(seed)
        self.argv = {}
        for cmd, cfg in self.configs.items():
            self.work.mkdir(parents=True, exist_ok=True)
            argv = [cmd, "--out", str(self.work / cmd)]
            if cfg:
                path = self.work / f"{cmd}.json"
                path.write_text(json.dumps(cfg))
                argv += ["--config", str(path)]
            self.argv[cmd] = argv
        ref = REFERENCE / f"{workload.name}.json"
        self.reference = json.loads(ref.read_text()) if seed == 0 and ref.is_file() else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_once(self, tracer=None) -> tuple[float, float, dict[str, int]]:
        """All commands once; returns (wall, cpu, exit code per command)."""
        codes = {}
        c0, t0 = time.process_time(), time.perf_counter()
        for cmd, argv in self.argv.items():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                span = tracer.begin("cli.main") if tracer else None
                try:
                    codes[cmd] = self.cli.main(argv)
                except Exception as exc:  # a traceback is a failed command
                    codes[cmd] = 1
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                finally:
                    if tracer:
                        tracer.end(span)
            if codes[cmd] != 0:
                self.errors.append(f"{cmd}: exit {codes[cmd]}: {sink.getvalue().strip()}")
        return time.perf_counter() - t0, time.process_time() - c0, codes

    def check(self, codes: dict[str, int]) -> dict[str, dict]:
        """Count each command as one operation; failed if it exited non-zero
        or its outputs fail the oracle or the seed-0 reference."""
        summaries = {}
        for cmd, code in codes.items():
            self.attempted += 1
            errors = []
            if code == 0:
                out, cfg = self.work / cmd, self.configs[cmd]
                try:
                    summaries[cmd] = self.workload.summaries[cmd](out, cfg)
                    errors += self.workload.oracles[cmd](out, cfg)
                except Exception as exc:  # a malformed output is a failed check
                    errors.append(f"check raised {type(exc).__name__}: {exc}")
                if self.reference is not None and cmd in summaries:
                    errors += compare(summaries[cmd], self.reference[cmd], cmd)
            else:
                errors.append(f"exit code {code}")
            if errors:
                self.failed += 1
                self.errors += [f"{cmd}: {e}" for e in errors]
        return summaries

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def measure(runner: Runner, seconds: float) -> dict:
    """Repeat the workload while the next repetition fits in ``seconds``.

    Each repetition's wall and CPU time, less the speed probes taken during
    it, is rescaled to nominal machine speed (see speed.py); the metrics
    are the medians over repetitions.
    """
    walls, cpus, raw = [], [], []
    while True:
        with speed.window() as win:
            wall, cpu, codes = runner.run_once()
        runner.check(codes)
        raw.append(wall)
        walls.append((wall - win.probe_s) * win.scale)
        cpus.append((cpu - win.probe_s) * win.scale)
        if sum(raw) + statistics.median(raw) > seconds:
            break
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
            "raw_wall_s": statistics.median(raw), "walls": walls, "raw_walls": raw}


def traced(runner: Runner, name: str) -> dict:
    """One untraced and one traced repetition; per-layer metrics."""
    wall_plain, _, codes = runner.run_once()
    runner.check(codes)
    tracer = Tracer()
    tracer.install()
    try:
        wall_traced, _, codes = runner.run_once(tracer)
    finally:
        tracer.uninstall()
    runner.check(codes)
    tracer.write(OUT / "spans" / f"{name}-seed{runner.seed}.npz")
    return layer_metrics(tracer, wall_traced, wall_plain)


def validate_trace(runner: Runner) -> int:
    """Traced call counts against cProfile counts of the same workload."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    _, _, codes = runner.run_once()
    prof.disable()
    runner.check(codes)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, codes = runner.run_once(tracer)
    finally:
        tracer.uninstall()
    runner.check(codes)
    want = profile_counts(pstats.Stats(prof).stats, tracer)
    got = traced_counts(tracer)
    bad = 0
    for name in sorted(got):
        mark = "" if got[name] == want[name] else "  MISMATCH"
        bad += bool(mark)
        if got[name] or want[name]:
            print(f"{name:50s} traced {got[name]:>9d}  cProfile {want[name]:>9d}{mark}")
    print(f"{len(got)} traced functions, {bad} mismatches, checks failed: {runner.failed}")
    return 1 if bad or runner.failed else 0


def record_reference() -> int:
    """Write the seed-0 summaries of every workload to bench/reference/."""
    REFERENCE.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        runner = Runner(workload, 0)
        runner.reference = None
        try:
            _, _, codes = runner.run_once()
            summaries = runner.check(codes)
        finally:
            runner.close()
        if runner.failed:
            print("\n".join(runner.errors), file=sys.stderr)
            return 1
        (REFERENCE / f"{name}.json").write_text(json.dumps(summaries, indent=1) + "\n")
        print(f"{name}: reference written")
    return 0


def _load_results(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from one result file or a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict[str, dict[str, list[float]]] = {}
    for f in files:
        rec = json.loads(f.read_text())
        for metric, m in rec["result"]["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(metric, []).append(m["value"])
    return out


def compare_results(old: Path, new: Path) -> int:
    """Per-workload, per-metric medians of two result sets and their deltas."""
    a, b = _load_results(old), _load_results(new)
    print(f"{'workload':9s} {'metric':46s} {'base':>12s} {'new':>12s} {'delta':>12s} "
          f"{'rel':>8s}  runs")
    for wl in sorted(set(a) | set(b)):
        for metric in sorted(set(a.get(wl, {})) | set(b.get(wl, {}))):
            va, vb = a.get(wl, {}).get(metric), b.get(wl, {}).get(metric)
            if not va or not vb:
                print(f"{wl:9s} {metric:46s} only in {'new' if vb else 'base'}")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            rel = f"{(mb - ma) / ma:+8.1%}" if ma else "     n/a"
            print(f"{wl:9s} {metric:46s} {ma:12.6g} {mb:12.6g} {mb - ma:+12.4g} {rel}  "
                  f"{len(va)}/{len(vb)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--validate-trace", action="store_true",
                        help="compare traced call counts with cProfile")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the seed-0 outputs of every workload")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                        help="result files or directories to compare")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_results(*args.compare)
    if not (SRC / "relaydyn" / "cli.py").is_file():
        print(f"relaydyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    if args.trace == 0 and not args.validate_trace:
        setup_s, setup_wall_s = measure_setup()
    runner = Runner(WORKLOADS[args.workload], args.seed)
    try:
        if args.validate_trace:
            return validate_trace(runner)
        if args.trace:
            layer = traced(runner, args.workload)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            extra = {}
        else:
            timing = measure(runner, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"wall_s": timing["wall_s"], "cpu_s": timing["cpu_s"],
                      "setup_s": setup_s, "peak_rss_mb": rss_mb}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
            extra = {"setup_wall_s": setup_wall_s, **timing}
    finally:
        runner.close()

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "configs": runner.configs, "env": _env(),
              "fail_frac": runner.failed / runner.attempted, "errors": runner.errors,
              **extra, "result": result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for err in runner.errors:
        print(err, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_frac = {record['fail_frac']:.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
