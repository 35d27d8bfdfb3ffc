"""Span tracing of afpa_sim from outside the package.

``Tracer.install`` replaces every public function of the pipeline modules
with a wrapper that opens a span (name, start, end, parent) around the
call, in every module that binds the function, and wraps each module's
``brentq`` so that root solves and their function evaluations are
counted where the solver is called.  ``Tracer.uninstall`` restores the
original bindings.  Nothing under ``src/`` is edited: the wrappers live
only in the benchmark process.

Every span is aggregated into per-name call counts, total and self
times; the first ``MAX_SPANS`` spans are also kept in memory and written
out by ``write``.  A span's self time is its duration minus the time
covered by its child spans.  Wrapping costs about a microsecond per call,
which inflates the self time of layers that make many small calls.

Three counts need more than a call count, and their wrappers keep them
directly: ``rig.solve_equilibrium`` calls made inside
``planner.forward_map``, ``planner.forward_map`` calls per
``planner.plan_state`` call, and the steps and simulated seconds of the
rows that ``pneumatics.step_simulate`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from pathlib import Path

PACKAGE = "afpa_sim"
# pipeline order; the span name prefix is the module's short name
LAYERS = ("pouch", "rig", "pneumatics", "planner", "study", "config", "drivers", "cli")
# spans kept in memory for ``write``; later spans are only aggregated
MAX_SPANS = 100_000


class Stat:
    """Aggregates of one span name."""

    __slots__ = ("calls", "evals", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.evals = 0  # root-finder function evaluations, for brentq spans
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list = []  # [name, start, end, parent index]
        self.span_count = 0
        self.solves_in_forward_map = 0
        self.forward_maps_per_plan: list[int] = []
        self.sim_steps = 0
        self.sim_s = 0.0
        self._stack: list = []  # [stat, start, child_s, span index]
        self._installed: list = []  # (module, attribute, original)

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # --- spans -------------------------------------------------------------

    def enter(self, name: str, stat: Stat) -> None:
        stack = self._stack
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, stack[-1][3] if stack else -1])
        self.span_count += 1
        stat.calls += 1
        frame = [stat, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = time.perf_counter()

    def exit(self) -> None:
        end = time.perf_counter()
        stat, start, child_s, index = self._stack.pop()
        duration = end - start
        stat.total_s += duration
        stat.self_s += duration - child_s
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.enter(name, self.stat(name))
        try:
            yield
        finally:
            self.exit()

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer, stat = self, self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name, stat)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        if name == "planner.forward_map":
            return self._count_solves(wrapper)
        if name == "planner.plan_state":
            return self._count_forward_maps(wrapper)
        if name == "pneumatics.step_simulate":
            return self._count_steps(wrapper)
        return wrapper

    def _count_solves(self, forward_map):
        solves = self.stat("rig.solve_equilibrium")

        @functools.wraps(forward_map)
        def wrapper(*args, **kwargs):
            before = solves.calls
            try:
                return forward_map(*args, **kwargs)
            finally:
                self.solves_in_forward_map += solves.calls - before

        return wrapper

    def _count_forward_maps(self, plan_state):
        maps = self.stat("planner.forward_map")

        @functools.wraps(plan_state)
        def wrapper(*args, **kwargs):
            before = maps.calls
            try:
                return plan_state(*args, **kwargs)
            finally:
                self.forward_maps_per_plan.append(maps.calls - before)

        return wrapper

    def _count_steps(self, step_simulate):
        @functools.wraps(step_simulate)
        def wrapper(*args, **kwargs):
            rows = step_simulate(*args, **kwargs)
            self.sim_steps += len(rows) - 1
            self.sim_s += float(rows[-1, 0])
            return rows

        return wrapper

    def _wrap_root(self, name: str, brentq):
        tracer, stat = self, self.stat(name)

        @functools.wraps(brentq)
        def wrapper(f, a, b, *args, **kwargs):
            def counted(x, *fargs):
                stat.evals += 1
                return f(x, *fargs)

            tracer.enter(name, stat)
            try:
                return brentq(counted, a, b, *args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer, wherever they are bound."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        from scipy.optimize import brentq

        layers = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        wrappers = {}
        for short, module in layers.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in (importlib.import_module(PACKAGE), *layers.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for short, module in layers.items():
            if getattr(module, "brentq", None) is brentq:
                self._patch(module, "brentq", self._wrap_root(f"{short}.brentq", brentq))

    def _patch(self, module, attr: str, replacement) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # --- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def evals(self, name: str) -> int:
        return self.stats[name].evals if name in self.stats else 0

    def seconds(self, name: str, kind: str = "total_s") -> float:
        return getattr(self.stats[name], kind) if name in self.stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))

    def counters(self) -> dict:
        """Deterministic work counts (no timings)."""
        return {
            "calls": {k: s.calls for k, s in self.stats.items() if s.calls},
            "evals": {k: s.evals for k, s in self.stats.items() if s.evals},
            "solves_in_forward_map": self.solves_in_forward_map,
            "forward_maps_per_plan": list(self.forward_maps_per_plan),
            "sim_steps": self.sim_steps,
            "sim_s": self.sim_s,
            "spans": self.span_count,
        }

    def write(self, path: Path) -> None:
        """Write the kept spans (times in microseconds from the first span)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "fields": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [index[n], round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
                for n, s, e, p in self.spans
            ],
            "spans_total": self.span_count,
            "spans_dropped": self.span_count - len(self.spans),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
