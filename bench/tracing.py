"""Span recording around tdasim's public functions, from outside the library.

Every traced function is wrapped at each module attribute that holds it, so
a call is recorded whichever binding the caller uses (``tdasim.generate.build``
and ``tdasim.metrics.build`` are separate bindings of one function).  Spans
stay in memory while the benchmark runs and are written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

# layer (tdasim module) -> public functions timed as spans of that layer
TRACED: dict[str, tuple[str, ...]] = {
    "scenario": ("load_scenario", "validate_scenario", "dumps"),
    "twig": ("build", "shortest_path", "embed_trace", "graph_to_dict"),
    "simulator": ("simulate", "benign_next_hop", "window_misses"),
    "detection": ("detect_global", "run_local_pipeline", "detect_local"),
    "generate": ("generate",),
    "metrics": ("evaluate_scenario",),
    "cli": ("main",),
}
NEIGHBOR_TABLES = "detection.neighbor_tables"  # NeighborTables.from_scenario
LAYERS = tuple(TRACED)
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns) + (
    NEIGHBOR_TABLES,
)


class Span(NamedTuple):
    name: str     # "<layer>.<function>", or "op" for one benchmark operation
    site: str     # module whose binding was called ("" for op spans)
    start: float  # perf_counter seconds
    end: float
    parent: int   # index of the enclosing span, -1 at the top
    op: int       # operation the span belongs to
    error: bool   # an exception left the call


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def errors_by_layer(spans: list[Span]) -> dict[str, int]:
    """Exceptions that left a layer: failed spans whose caller is another layer."""
    out = {layer: 0 for layer in LAYERS}
    for s in spans:
        if not s.error or s.name == "op":
            continue
        layer = s.name.split(".", 1)[0]
        parent_layer = spans[s.parent].name.split(".", 1)[0] if s.parent >= 0 else ""
        if parent_layer != layer:
            out[layer] += 1
    return out


class Tracer:
    """Records spans; install() swaps wrappers into tdasim's modules and undoes it."""

    def __init__(self) -> None:
        self._raw: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        # span name -> return values, or call arguments, kept for the caller to count
        self.results: dict[str, list] = defaultdict(list)
        self.keep_results: set[str] = set()
        self.args: dict[str, list] = defaultdict(list)
        self.keep_args: set[str] = set()
        self._paused = [False]

    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._raw]

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own output checks)."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def wrap(self, name: str, site: str, fn: Callable) -> Callable:
        raw, stack, clock, paused = self._raw, self._stack, time.perf_counter, self._paused
        keep = self.results[name] if name in self.keep_results else None
        keep_args = self.args[name] if name in self.keep_args else None

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            idx = len(raw)
            rec = [name, site, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            raw.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            if keep_args is not None:
                keep_args.append(args)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Wrap every binding of the traced functions in tdasim's modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tdasim" or n.startswith("tdasim."))]
        originals = {}
        for layer, fns in TRACED.items():
            home = sys.modules[f"tdasim.{layer}"]
            for fn in fns:
                originals[getattr(home, fn)] = f"{layer}.{fn}"
        undo: list[tuple[object, str, object]] = []
        try:
            for mod in modules:
                site = mod.__name__.rsplit(".", 1)[-1]
                for attr, value in list(vars(mod).items()):
                    name = originals.get(value) if callable(value) else None
                    if name is not None:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, self.wrap(name, site, value))
            tables = sys.modules["tdasim.detection"].NeighborTables
            raw_cm = vars(tables)["from_scenario"]
            undo.append((tables, "from_scenario", raw_cm))
            tables.from_scenario = classmethod(
                self.wrap(NEIGHBOR_TABLES, "detection", raw_cm.__func__))
            yield self
        finally:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self._raw:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-operation self time and call count of every traced function, and
    per-layer error counts over the whole traced pass."""
    selfs = self_times(spans)
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, selfs):
        ms[s.name] += t * 1000.0
        calls[s.name] += 1
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_ms"] = ms[name] / ops
        out[f"{name}.calls"] = calls[name] / ops
    for layer, n in errors_by_layer(spans).items():
        out[f"{layer}.errors"] = n
    return out


def calls_at(spans: list[Span], name: str, site: str) -> int:
    return sum(1 for s in spans if s.name == name and s.site == site)
