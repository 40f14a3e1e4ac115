"""Outside-in tracer for the workbench's layers.

`Tracer.install` replaces each public function of a layer module, wherever a
layer module binds it, by a wrapper; `uninstall` puts the originals back. A
wrapper records a span (name, start, end, parent span) and charges the call's
time, minus the time of wrapped calls inside it, to the function's layer.
Hot leaf calls are counted and timed the same way but keep no span record,
so memory stays small. Spans stay in memory until the run ends.

The wrappers return what the wrapped function returns, so program outputs
are unchanged; the runner checks that byte for byte.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "lattices", "shearer", "tables", "mt_engine", "wdag", "criterion", "jsonio", "cli")

# counted instead of spanned: called up to millions of times per run
LEAVES = {"unit_fraction", "is_acyclic", "shearer_membership", "EventSystem.holds"}


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.stack: list[list] = []  # [layer, start, child time, span id]
        self.spans: list[list] = []  # [name, start, end, parent span id]
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.steps = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _enter(self, layer: str, name: str, record: bool) -> list:
        start = perf_counter()
        parent = self.stack[-1][3] if self.stack else -1
        span = parent
        if record:
            span = len(self.spans)
            self.spans.append([name, start, start, parent])
        frame = [layer, start, 0.0, span]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str, record: bool) -> None:
        end = perf_counter()
        self.stack.pop()
        took = end - frame[1]
        self.self_time[frame[0]] += took - frame[2]
        self.inclusive[name] += took
        if self.stack:
            self.stack[-1][2] += took
        if record:
            self.spans[frame[3]][2] = end

    def _wrap(self, fn, layer: str, name: str):
        record = name not in LEAVES
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                self.calls[name] += 1

                def resume():
                    # each resumption is timed as a call of the generator
                    while True:
                        frame = enter(layer, name, False)
                        try:
                            item = next(it)
                        except StopIteration:
                            leave(frame, name, False)
                            return
                        except BaseException:
                            leave(frame, name, False)
                            raise
                        leave(frame, name, False)
                        yields[name] += 1
                        yield item

                return resume()

            return functools.update_wrapper(gen_wrapper, fn)

        on_result = self._count_steps if name == "run_mt" else None

        def wrapper(*args, **kwargs):
            frame = enter(layer, name, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame, name, record)
                self.calls[name] += 1
            if on_result is not None:
                on_result(out)
            return out

        return functools.update_wrapper(wrapper, fn)

    def _count_steps(self, stats) -> None:
        self.steps += stats.t

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        by_module = {mod.__name__: layer for layer, mod in self.modules.items()}
        wrapped: dict[int, object] = {}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = by_module.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, layer, attr)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        system_cls = self.modules["mt_engine"].EventSystem
        holds = system_cls.__dict__["holds"]
        self._saved.append((system_cls, "holds", holds))
        system_cls.holds = self._wrap(holds, "mt_engine", "EventSystem.holds")

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def cache_entries(self, layer: str) -> int:
        """Entries held by the layer's lru_cache helpers right now."""
        mod = self.modules[layer]
        return sum(
            obj.cache_info().currsize
            for obj in vars(mod).values()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__
        )

    def counts(self) -> dict[str, int]:
        """Every count the trace took; equal seeds give equal counts."""
        out = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        out.update({f"yields.{k}": v for k, v in sorted(self.yields.items())})
        out["steps"] = self.steps
        out["spans"] = len(self.spans)
        return out

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""

        def per(num: float, base: int) -> float:
            return num / base if base else 0.0

        memb = self.calls["shearer_membership"]
        tried = self.calls["is_acyclic"]
        out = {f"{layer}.self_s": (self.self_time[layer], "s") for layer in LAYERS}
        out.update({
            "shearer.independent_sets": (self.yields["independent_sets"], "count"),
            "shearer.membership_calls": (memb, "count"),
            "shearer.us_per_membership": (per(1e6 * self.inclusive["shearer_membership"], memb), "us"),
            "tables.draws": (self.calls["unit_fraction"], "count"),
            "mt_engine.us_per_step": (per(1e6 * self.inclusive["run_mt"], self.steps), "us"),
            "mt_engine.event_checks_per_step": (per(self.calls["EventSystem.holds"], self.steps), "ratio"),
            "wdag.orientations_tried": (tried, "count"),
            "wdag.useful_ratio": (per(self.yields["enumerate_pwdags"], tried), "ratio"),
            "wdag.cache_entries": (self.cache_entries("wdag"), "count"),
            "graphs.cache_entries": (self.cache_entries("graphs"), "count"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return out
