"""Per-layer tracing for the traced run (``--trace 1``).

Each wrapper replaces a function under the name its calling module binds it
to (``stokeszeros.spectral.transport``, ``stokeszeros.zeros.count_zeros_rect``,
``EigenfunctionEvaluator.eval``, ...), opens a span around the call and
counts the work it did.  Spans are aggregated as they close: a layer's self
time is its spans' durations minus the part covered by their child spans.
Nothing in the program is edited; ``uninstall`` puts every name back.
"""

from __future__ import annotations

import importlib
import math
import time
import weakref
from collections import Counter, defaultdict

from stokeszeros import spectral, stokescomplex, wkb, zeros

# the package re-exports the function `transport` under the module's name
transport = importlib.import_module("stokeszeros.transport")

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, start, time covered by children]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.count = Counter()
        self.max_depth = 0
        self._window = None
        self._cells_open = 0
        self._points = weakref.WeakKeyDictionary()  # evaluator -> points seen
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _call(self, layer, fn, args, kwargs):
        self.stack.append([layer, _now(), 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            layer, start, child = self.stack.pop()
            dur = _now() - start
            self.self_s[layer] += dur - child
            self.total_s[layer] += dur
            if self.stack:
                self.stack[-1][2] += dur

    def _span(self, layer, counter=None):
        def make(fn):
            def traced(*args, **kwargs):
                if counter:
                    self.count[counter] += 1
                return self._call(layer, fn, args, kwargs)

            return traced

        return make

    # -- layer-specific wrappers --------------------------------------------

    def _transport(self, fn):
        def traced(*args, **kwargs):
            self.count["transport.calls"] += 1
            if self.stack and self.stack[-1][0] == "spectral.eval":
                self.count["eval.transports"] += 1
            inner = kwargs.get("watcher")  # the program passes it by keyword

            def watcher(step):
                self.count["transport.steps"] += 1
                if inner is not None:
                    return inner(step)

            kwargs["watcher"] = watcher
            return self._call("transport", fn, args, kwargs)

        return traced

    def _eval(self, fn):
        def traced(ev, z, *args, **kwargs):
            seen = self._points.get(ev)
            first = seen is None
            if first:
                seen = self._points[ev] = set()
                self.count["evaluators"] += 1
            self.count["eval.calls"] += 1
            key = complex(z)
            if key not in seen:
                seen.add(key)
                self.count["eval.distinct"] += 1
            if self._cells_open:
                self.count["zeros.edge_evals"] += 1
            # the first evaluation builds the anchor skeleton
            layer = "spectral.first_eval" if first else "spectral.eval"
            return self._call(layer, fn, (ev, z) + args, kwargs)

        return traced

    def _locate(self, fn):
        def traced(f, window, *args, **kwargs):
            x0, x1, y0, y1 = window
            self._window = max(x1 - x0, y1 - y0)
            return self._call("zeros", fn, (f, window) + args, kwargs)

        return traced

    def _cell(self, fn):
        def traced(f, rect, *args, **kwargs):
            self.count["zeros.cells"] += 1
            if self._window:
                size = max(rect[1] - rect[0], rect[3] - rect[2])
                depth = round(math.log2(self._window / size))
                self.max_depth = max(self.max_depth, depth)
            self._cells_open += 1
            try:
                return self._call("zeros", fn, (f, rect) + args, kwargs)
            finally:
                self._cells_open -= 1

        return traced

    def _counted(self, counter):
        def make(fn):
            def traced(*args, **kwargs):
                self.count[counter] += 1
                return fn(*args, **kwargs)

            return traced

        return make

    # -- installation -----------------------------------------------------------

    def _patch(self, make, name, *owners):
        original = getattr(owners[0], name)
        wrapper = make(original)
        clear = getattr(original, "cache_clear", None)
        if clear is not None:
            wrapper.cache_clear = clear
        for owner in owners:
            setattr(owner, name, wrapper)
            self._undo.append((owner, name, original))

    def install(self):
        span, counted = self._span, self._counted
        self._patch(self._transport, "transport", transport, spectral)
        self._patch(span("spectral.solve", "spectral.eigenvalues"), "solve_eigenpair", spectral)
        self._patch(span("spectral.solve", "spectral.miss_calls"), "miss_function", spectral)
        self._patch(span("spectral.solve", "spectral.miss_calls"), "miss_surrogate", spectral)
        self._patch(self._eval, "eval", spectral.EigenfunctionEvaluator)
        self._patch(self._locate, "locate_zeros", zeros)
        self._patch(self._cell, "count_zeros_rect", zeros)
        self._patch(span("stokescomplex"), "stokes_complex", stokescomplex, spectral)
        self._patch(counted("quaddiff.traces"), "trace_trajectory", stokescomplex)
        self._patch(span("wkb.phase"), "__init__", wkb.PhaseIntegral)
        self._patch(span("wkb.u_grid"), "u_grid", wkb.PhaseIntegral)
        self._patch(counted("wkb.u_calls"), "u", wkb.PhaseIntegral)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- metrics --------------------------------------------------------------

    def metrics(self, items: int, wall: float) -> list:
        """(name, value, unit, base) for every per-layer metric."""
        c = self.count
        ratio = lambda a, b: a / b if b else 0.0
        steps = c["transport.steps"]
        later = c["eval.distinct"] - c["evaluators"]  # points after the first
        cells = c["zeros.cells"]
        return [
            ("transport.calls", c["transport.calls"], "count", None),
            ("transport.steps", steps, "count", None),
            ("transport.us_per_step", 1e6 * ratio(self.self_s["transport"], steps), "us", "transport.steps"),
            ("transport.self_s", self.self_s["transport"], "s", None),
            ("spectral.eigenvalues", c["spectral.eigenvalues"], "count", None),
            ("spectral.miss_calls_per_eigenvalue", ratio(c["spectral.miss_calls"], c["spectral.eigenvalues"]), "count", "spectral.eigenvalues"),
            ("spectral.solve_self_s", self.self_s["spectral.solve"], "s", None),
            ("spectral.eval_calls", c["eval.calls"], "count", None),
            ("spectral.eval_distinct", c["eval.distinct"], "count", None),
            ("spectral.eval_hit_ratio", ratio(c["eval.calls"] - c["eval.distinct"], c["eval.calls"]), "ratio", "spectral.eval_calls"),
            ("spectral.ms_per_eval", 1e3 * ratio(self.self_s["spectral.eval"], later), "ms", "spectral.eval_distinct minus one first evaluation per evaluator"),
            ("spectral.transports_per_eval", ratio(c["eval.transports"], later), "count", "spectral.eval_distinct minus one first evaluation per evaluator"),
            ("spectral.first_eval_s", ratio(self.total_s["spectral.first_eval"], c["evaluators"]), "s", f"{c['evaluators']} evaluators"),
            ("zeros.cells", cells, "count", None),
            ("zeros.max_depth", self.max_depth, "count", None),
            ("zeros.evals_per_edge", ratio(c["zeros.edge_evals"], 4 * cells), "count", "4 x zeros.cells"),
            ("zeros.self_s", self.self_s["zeros"], "s", None),
            ("stokescomplex.build_s", self.total_s["stokescomplex"], "s", None),
            ("quaddiff.traces", c["quaddiff.traces"], "count", None),
            ("wkb.phase_build_s", self.total_s["wkb.phase"], "s", None),
            ("wkb.u_grid_s", self.total_s["wkb.u_grid"], "s", None),
            ("wkb.u_calls", c["wkb.u_calls"], "count", None),
            ("trace.items_per_s", ratio(items, wall), "1/s", None),
        ]
