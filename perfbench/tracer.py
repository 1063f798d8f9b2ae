"""Span tracer that wraps the public functions of bundlezeta from outside.

``Tracer.install`` replaces every public function defined in a
``bundlezeta`` submodule by a wrapper, in every module namespace that holds
it, so calls between modules are seen as well as calls from the benchmark.
The package source is not touched.  A wrapper records a span only while the
tracer is active, i.e. inside a timed operation; otherwise it calls
through.

Every call adds to per-function totals (calls, calls entering the layer
from another one, inclusive and self time).  Spans with their parent are
kept in memory for calls up to ``SPAN_DEPTH`` deep and written when the run
ends; deeper calls (Bessel terms inside quadrature integrands) only add to
the totals, which keeps memory bounded.  Self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

LAYERS = ("quadrature", "special_functions", "heat_theta", "zeta", "bundle_graph", "asymptotics", "crsf", "cli")
SPAN_DEPTH = 2

# per-function totals: calls, entries from another layer, inclusive s, self s
# a frame is [layer, child seconds, caller frame, depth, span id or -1]
CALLS, ENTRIES, INCL, SELF = range(4)


class Tracer:
    def __init__(self):
        self.active = False
        self.tag = ""
        self.stack = []
        self.totals = {}
        self.extras = {}
        self.spans = []
        self._next_span = 0
        self._origin = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self, package) -> int:
        """Wrap the public functions of the package's layer modules; returns how many."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        }
        wrapped = {}
        for layer in LAYERS:
            mod = modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return len(wrapped)

    def _wrap(self, fn, layer, key):
        self.totals[key] = [0, 0, 0.0, 0.0]
        hook = HOOKS.get(key)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, key, hook)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(key, layer, frame, t0, time.perf_counter() - t0)
            if hook is not None:
                hook(tracer, frame, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer, key, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.active:
                yield from inner
                return
            # one span for the whole iteration; time spent in the consumer between items is not counted
            frame = tracer._enter(layer)
            tracer.stack.pop()  # off the stack while the consumer runs
            start = time.perf_counter()
            busy = 0.0
            items = 0
            try:
                while True:
                    tracer.stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        busy += time.perf_counter() - t0
                        tracer.stack.pop()
                    items += 1
                    yield item
            finally:
                tracer.stack.append(frame)
                tracer._leave(key, layer, frame, start, busy)
            if hook is not None:
                hook(tracer, frame, args, items)

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, layer):
        caller = self.stack[-1] if self.stack else None
        depth = len(self.stack)
        span_id = -1
        if depth < SPAN_DEPTH:
            span_id = self._next_span
            self._next_span += 1
        frame = [layer, 0.0, caller, depth, span_id]
        self.stack.append(frame)
        return frame

    def _leave(self, key, layer, frame, start, duration):
        self.stack.pop()
        caller = frame[2]
        if caller is not None:
            caller[1] += duration
        tot = self.totals[key]
        tot[CALLS] += 1
        tot[INCL] += duration
        tot[SELF] += duration - frame[1]
        if caller is None or caller[0] != layer:
            tot[ENTRIES] += 1
        if frame[4] >= 0:
            parent = caller[4] if caller is not None else -1
            self.spans.append((frame[4], parent, key, round(start - self._origin, 7), round(duration, 7), self.tag))
        if key == "crsf.kenyon_sum":
            self.add(f"crsf.kenyon_{self.tag or 'warm'}_s", duration)

    def add(self, name, value):
        self.extras[name] = self.extras.get(name, 0) + value

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {"totals": self.totals, "extras": self.extras}


def _is_entry(frame) -> bool:
    caller = frame[2]
    return caller is None or caller[0] != frame[0]


def _hook_quadrature(tracer, frame, args, result):
    if _is_entry(frame):
        tracer.add("quadrature.evaluations", int(result.evaluations))


def _hook_eigenvalues(tracer, frame, args, result):
    tracer.add("bundle_graph.eigenvalues", int(len(result)))


def _hook_laplacian(tracer, frame, args, result):
    n = int(result.entries.shape[0])
    tracer.add("bundle_graph.dense_bytes", 16 * n * n)


def _hook_enumerate(tracer, frame, args, items):
    graph = args[0]
    tracer.add("crsf.forests", items)
    tracer.add("crsf.subsets", math.comb(len(graph.edges), graph.vertex_count))


HOOKS = {
    "quadrature.integrate_interval": _hook_quadrature,
    "quadrature.integrate_semi_infinite": _hook_quadrature,
    "bundle_graph.torus_eigenvalues": _hook_eigenvalues,
    "bundle_graph.laplacian": _hook_laplacian,
    "crsf.enumerate_crsfs": _hook_enumerate,
}


def merge(snapshots) -> dict:
    """Sum the totals and extras of several snapshots (one per CLI child)."""
    totals = {}
    extras = {}
    for snap in snapshots:
        for key, row in snap["totals"].items():
            acc = totals.setdefault(key, [0, 0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for key, v in snap["extras"].items():
            extras[key] = extras.get(key, 0) + v
    return {"totals": totals, "extras": extras}


def layer_metrics(snap: dict, command_walls) -> dict:
    """The per-layer metrics of one round, by name (run.py adds cli.import_s and trace.wall_s)."""
    totals = snap["totals"]
    extras = snap["extras"]

    def pick(layer, pred=lambda name: True):
        return [row for key, row in totals.items() if key.split(".")[0] == layer and pred(key.split(".", 1)[1])]

    def self_s(layer):
        return sum(row[SELF] for row in pick(layer))

    def incl(key):
        return totals.get(key, [0, 0, 0.0, 0.0])[INCL]

    forests = extras.get("crsf.forests", 0)
    subsets = extras.get("crsf.subsets", 0)
    return {
        "quadrature.integrals": sum(row[ENTRIES] for row in pick("quadrature")),
        "quadrature.evaluations": extras.get("quadrature.evaluations", 0),
        "quadrature.self_s": self_s("quadrature"),
        "special_functions.bessel_calls": sum(row[ENTRIES] for row in pick("special_functions", lambda n: "bessel" in n)),
        "special_functions.hurwitz_calls": sum(row[ENTRIES] for row in pick("special_functions", lambda n: "hurwitz" in n)),
        "special_functions.self_s": self_s("special_functions"),
        "heat_theta.theta_calls": sum(row[CALLS] for row in pick("heat_theta", lambda n: n.startswith("theta"))),
        "heat_theta.heat_kernel_entries": totals.get("heat_theta.heat_kernel", [0])[CALLS],
        "heat_theta.self_s": self_s("heat_theta"),
        "zeta.evaluations": sum(row[ENTRIES] for row in pick("zeta")),
        "zeta.self_s": self_s("zeta"),
        "bundle_graph.eigenvalues": extras.get("bundle_graph.eigenvalues", 0),
        "bundle_graph.torus_eigenvalues_s": incl("bundle_graph.torus_eigenvalues"),
        "bundle_graph.assembly_s": incl("bundle_graph.build_torus") + incl("bundle_graph.laplacian"),
        "bundle_graph.dense_bytes": extras.get("bundle_graph.dense_bytes", 0),
        "asymptotics.log_det_s": incl("asymptotics.log_det"),
        "asymptotics.log_det_lu_s": incl("asymptotics.log_det_lu"),
        "asymptotics.self_s": self_s("asymptotics"),
        "crsf.kenyon_cold_s": extras.get("crsf.kenyon_cold_s", 0.0),
        "crsf.kenyon_warm_s": extras.get("crsf.kenyon_warm_s", 0.0),
        "crsf.enumerate_s": incl("crsf.enumerate_crsfs"),
        "crsf.forests": forests,
        "crsf.subsets": subsets,
        "crsf.forest_share": forests / subsets if subsets else 0.0,
        "cli.command_median_s": statistics.median(command_walls) if command_walls else 0.0,
    }
