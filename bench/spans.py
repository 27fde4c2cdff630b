"""In-memory span tracer that wraps relaydyn's public functions from outside.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces each traced
function at every module attribute it is bound to (``continuation`` imports
``crossing_time`` from ``reduced``, so both names get the wrapper), and the
traced methods on their classes.  :meth:`Tracer.uninstall` puts the
originals back.

A span is (name, start, end, parent) in four flat arrays, so a run of a
few hundred thousand calls costs a few megabytes.  Self time is a span's
duration minus the durations of its direct children; per-layer metrics are
derived from the spans and a few counters by :func:`layer_metrics`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LIBRARY_MODULES = ("flows", "history", "relay", "reduced", "oscillator",
                   "continuation", "attractor", "output")

# traced methods, beyond every public module-level function of the library
METHODS = {
    "flows": {"AffineOscillatorFlow": ("apply", "apply_batch", "apply_path")},
    "history": {"BreakpointHistory": ("__call__",), "SampledHistory": ("__call__",),
                "Trajectory": ("__call__", "tail_history")},
    "continuation": {"ResidualProblem": ("jac",)},
}

HISTORY_EVAL = ("history.BreakpointHistory.__call__", "history.SampledHistory.__call__",
                "history.Trajectory.__call__")
OUTPUT_WRITERS = ("output.write_csv", "output.write_json", "output.write_json_lines")


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.failed: dict[str, int] = {}
        self.extra: dict[str, int] = {}   # counters and post() sums, by name
        self.originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        """Span-recording wrapper; ``post(result)`` adds to ``extra[name]``."""
        nid = self._id(name)
        self.originals[name] = fn
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock, failed, extra = self._stack, time.perf_counter, self.failed, self.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                ends[idx] = clock()
                stack.pop()
                if not ok:
                    failed[name] = failed.get(name, 0) + 1
            if post is not None:
                extra[name] = extra.get(name, 0) + post(result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Count-only wrapper for functions too hot and too small for a span."""
        self.originals[name] = fn
        extra = self.extra
        extra.setdefault(name, 0)

        def counted(*args):
            extra[name] += 1
            return fn(*args)

        return counted

    def begin(self, name: str) -> int:
        """Open a span explicitly (used around each CLI command)."""
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        """Point every relaydyn module attribute bound to ``original`` at ``new``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "relaydyn" or mod_name.startswith("relaydyn."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, new)

    def install(self):
        import relaydyn
        from relaydyn import reduced

        posts = {
            "flows.AffineOscillatorFlow.apply_path": lambda res: res.shape[0],
            "relay.evolve": lambda res: len(res[1].crossings),
            "continuation.continue_branch": lambda res: len(res.points),
        }
        for name in OUTPUT_WRITERS:
            posts[name] = lambda res: res.stat().st_size
        for short in LIBRARY_MODULES:
            module = getattr(relaydyn, short)
            for attr, original in list(_public_functions(module)):
                name = f"{short}.{attr}"
                fn = original
                if name == "relay.oscillator_system":
                    fn = self._counting_system(original)
                self._rebind(original, self.wrap(name, fn, posts.get(name)))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    name = f"{short}.{cls_name}.{meth}"
                    self._patch(cls, meth, self.wrap(name, vars(cls)[meth], posts.get(name)))
        # bisection fallbacks of the crossing-time and phase solves
        self._patch(reduced, "brentq", self.wrap("reduced.brentq", reduced.brentq))

    def _counting_system(self, build):
        tracer = self

        @functools.wraps(build)
        def oscillator_system(*args, **kwargs):
            system = build(*args, **kwargs)
            return dataclasses.replace(system, h=tracer.counter("relay.h", system.h))

        return oscillator_system

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def write(self, path: Path):
        """Dump the spans (one row per span) and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-name aggregates over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.tracer = tracer
        self.name, self.parent = a["name"], a["parent"]
        self.dur = a["end"] - a["start"]
        n_names = len(tracer.names)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.name.size)
        self.self_time = self.dur - child
        self.calls = np.bincount(self.name, minlength=n_names)
        self.total_by_name = np.bincount(self.name, weights=self.dur, minlength=n_names)
        self.self_by_name = np.bincount(self.name, weights=self.self_time,
                                        minlength=n_names)

    def _nid(self, name: str) -> int | None:
        return self.tracer._ids.get(name)

    def count(self, *names: str) -> int:
        return int(sum(self.calls[i] for i in map(self._nid, names) if i is not None))

    def self_s(self, *names: str) -> float:
        return float(sum(self.self_by_name[i] for i in map(self._nid, names)
                         if i is not None))

    def total_s(self, name: str) -> float:
        i = self._nid(name)
        return 0.0 if i is None else float(self.total_by_name[i])

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.name == self._nid(name)]

    def under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with a span of ``ancestor`` somewhere above them."""
        nid, aid = self._nid(name), self._nid(ancestor)
        if nid is None or aid is None:
            return 0
        rows = np.flatnonzero(self.name == nid)
        hit = np.zeros(rows.size, dtype=bool)
        up = self.parent[rows]
        while True:
            live = up >= 0
            if not live.any():
                return int(hit.sum())
            hit[live] |= self.name[up[live]] == aid
            up = np.where(live, self.parent[np.maximum(up, 0)], -1)

    def parent_prefix(self, name: str, prefix: str) -> int:
        """Spans of ``name`` whose direct parent span's name starts with prefix."""
        nid = self._nid(name)
        if nid is None:
            return 0
        par = self.parent[self.name == nid]
        par = par[par >= 0]
        ok = np.array([n.startswith(prefix) for n in self.tracer.names], dtype=bool)
        return int(ok[self.name[par]].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    s = SpanStats(tracer)
    extra, failed = tracer.extra, tracer.failed
    attractor_ms = s.durations("attractor.iterate_attractor") * 1e3
    crossings = extra.get("relay.evolve", 0)
    h_calls = extra.get("relay.h", 0)
    maps = s.count("reduced.map_F")
    orbits = s.count("oscillator.collision_orbit")
    writers = ("output.",)
    out = {
        "flows.apply.calls": (s.count("flows.AffineOscillatorFlow.apply"), "count"),
        "flows.apply_batch.calls": (s.count("flows.AffineOscillatorFlow.apply_batch"),
                                    "count"),
        "flows.apply_path.rows": (extra.get("flows.AffineOscillatorFlow.apply_path", 0),
                                  "count"),
        "history.eval.calls": (s.count(*HISTORY_EVAL), "count"),
        "history.tail_history.self_s": (s.self_s("history.Trajectory.tail_history"), "s"),
        "relay.evolve.self_s": (s.self_s("relay.evolve"), "s"),
        "relay.h.calls": (h_calls, "count"),
        "relay.crossings": (crossings, "count"),
        "relay.h_per_crossing": (_ratio(h_calls, crossings), "calls/crossing"),
        "reduced.map_F.calls": (maps, "count"),
        "reduced.crossing_time.calls": (s.count("reduced.crossing_time"), "count"),
        "reduced.crossing_time.self_s": (s.self_s("reduced.crossing_time"), "s"),
        "reduced.brentq.calls": (s.count("reduced.brentq"), "count"),
        "reduced.flow_applies_per_map": (
            _ratio(s.under("flows.AffineOscillatorFlow.apply", "reduced.map_F"), maps),
            "calls/map"),
        "reduced.jacobian_F_branch.calls": (s.count("reduced.jacobian_F_branch"), "count"),
        "oscillator.collision_point.calls": (s.count("oscillator.collision_point"),
                                             "count"),
        "oscillator.collision_orbit.calls": (orbits, "count"),
        "oscillator.jacobians_per_orbit": (
            _ratio(s.parent_prefix("reduced.jacobian_F_branch", "oscillator."), orbits),
            "calls/orbit"),
        "oscillator.bifurcation_map.self_s": (s.self_s("oscillator.bifurcation_map"), "s"),
        "oscillator.find_nsc.total_s": (s.total_s("oscillator.find_nsc"), "s"),
        "continuation.invariant_curve_residual.calls": (
            s.count("continuation.invariant_curve_residual"), "count"),
        "continuation.invariant_curve_residual.self_s": (
            s.self_s("continuation.invariant_curve_residual"), "s"),
        "continuation.fd_jacobian.calls": (s.count("continuation.fd_jacobian"), "count"),
        "continuation.fd_jacobian.total_s": (s.total_s("continuation.fd_jacobian"), "s"),
        "continuation.newton.calls": (s.count("continuation.newton"), "count"),
        "continuation.newton.failed": (failed.get("continuation.newton", 0), "count"),
        "continuation.newton.iters": (s.count("continuation.ResidualProblem.jac"), "count"),
        "continuation.fourier_error_estimate.self_s": (
            s.self_s("continuation.fourier_error_estimate"), "s"),
        "continuation.points": (extra.get("continuation.continue_branch", 0), "count"),
        "attractor.iterate_attractor.calls": (attractor_ms.size, "count"),
        "attractor.iterate_attractor.failed": (
            failed.get("attractor.iterate_attractor", 0), "count"),
        "attractor.iterate_attractor.p50_ms": (
            float(np.percentile(attractor_ms, 50)) if attractor_ms.size else 0.0, "ms"),
        "attractor.iterate_attractor.p90_ms": (
            float(np.percentile(attractor_ms, 90)) if attractor_ms.size else 0.0, "ms"),
        "attractor.polygon_arcs.self_s": (s.self_s("attractor.polygon_arcs"), "s"),
        "output.files": (s.count(*OUTPUT_WRITERS), "count"),
        "output.bytes": (sum(extra.get(n, 0) for n in OUTPUT_WRITERS), "B"),
        "output.write.self_s": (
            s.self_s(*[n for n in tracer.names if n.startswith(writers)]), "s"),
        "cli.self_s": (s.self_s("cli.main"), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.spans": (int(s.name.size), "count"),
    }
    return {k: (float(v), unit) for k, (v, unit) in out.items()}


def profile_counts(stats, tracer: Tracer) -> dict[str, int]:
    """cProfile call counts of every traced original, keyed like the spans.

    ``reduced.brentq`` is scipy's function, so only calls made from
    ``reduced.py`` count; ``relay.h`` is the threshold lambda of
    :func:`relaydyn.relay.oscillator_system`.
    """
    out = {}
    for name, fn in tracer.originals.items():
        code = inspect.unwrap(fn).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        entry = stats.get(key)
        if entry is None:
            out[name] = 0
        elif name == "reduced.brentq":
            out[name] = sum(v[1] for k, v in entry[4].items()
                            if k[0].endswith("reduced.py"))
        else:
            out[name] = entry[1]
    return out


def traced_counts(tracer: Tracer) -> dict[str, int]:
    s = SpanStats(tracer)
    out = {name: s.count(name) for name in tracer.originals}
    if "relay.h" in out:
        out["relay.h"] = int(tracer.extra["relay.h"])
    return out
