"""Spans and an event census recorded from outside the simulator.

The traced run wraps public boundaries of each layer (see
:data:`BOUNDARIES`) on their classes and modules, runs the plan, and
restores every original.  The wrappers must be installed before any
system is assembled: components pre-bind ``sim.schedule``, port
``request`` methods and each neighbour's ``accept`` at assembly, so a
wrapper installed later would never see those calls.

Per-hop boundaries fire millions of times on a 16x16 mesh, so spans are
aggregated in memory as count, total and child time per
``(name, parent)``; only the coarse boundaries in :data:`RECORDED` keep
one ``(name, start, end, parent, run_id)`` record per call.  A span's
self time is its duration minus the time its child spans cover.

The census counts every ``Simulator.schedule`` /
``schedule_cancellable`` call by the layer that owns the callback, as
``repro.perf.profiling.layer_of`` classifies the callback's source
file.  It is exact and machine-independent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: census buckets; a layer ``layer_of`` names outside these counts as other
CENSUS_LAYERS = ("noc", "coherence", "cpu", "kernel", "other")

#: span name -> (module, owner attribute or None for a module function,
#: method or function name).  The span's layer is the part before the dot.
BOUNDARIES: Dict[str, Tuple[str, str, str]] = {
    "sim.run": ("repro.sim.kernel", "Simulator", "run"),
    "noc.send": ("repro.noc.network", "Network", "send"),
    "noc.deliver_local": ("repro.noc.network", "Network", "deliver_local"),
    "noc.accept": ("repro.noc.router", "Router", "accept"),
    "noc.request": ("repro.noc.port", "OutputPort", "request"),
    "inpg.inspect": ("repro.inpg.big_router", "BigRouter", "inspect"),
    "coherence.load": ("repro.coherence.memsystem", "MemorySystem", "load"),
    "coherence.store": ("repro.coherence.memsystem", "MemorySystem", "store"),
    "coherence.rmw": ("repro.coherence.memsystem", "MemorySystem", "rmw"),
    "coherence.l1_handle": ("repro.coherence.l1cache", "L1Cache", "handle"),
    "coherence.dir_handle": (
        "repro.coherence.directory", "DirectoryController", "handle"),
    "locks.acquire": ("repro.locks.base", "LockPrimitive", "acquire"),
    "locks.release": ("repro.locks.base", "LockPrimitive", "release"),
    "cpu.sleep": ("repro.cpu.os_model", "OsModel", "sleep"),
    "cpu.notify_release": ("repro.cpu.os_model", "OsModel", "notify_release"),
    "workloads.generate": (
        "repro.workloads.generator", None, "generate_workload"),
    "system.build": ("repro.system", "ManyCoreSystem", "__init__"),
    "system.run": ("repro.system", "ManyCoreSystem", "run"),
    "exec.run": ("repro.exec.executor", "Executor", "run"),
    "exec.cache_get": ("repro.exec.cache", "ResultCache", "get"),
    "exec.cache_put": ("repro.exec.cache", "ResultCache", "put"),
    # with the cache off the executor still calls its (null) cache
    "exec.nullcache_get": ("repro.exec.cache", "NullCache", "get"),
    "exec.nullcache_put": ("repro.exec.cache", "NullCache", "put"),
    "stats.serialize": (
        "repro.stats.serialize", None, "serialize_run_result"),
    "stats.deserialize": (
        "repro.stats.serialize", None, "deserialize_run_result"),
}

#: coarse boundaries that keep one record per call
RECORDED = frozenset({
    "sim.run", "workloads.generate", "system.build", "system.run",
    "exec.run", "exec.cache_get", "exec.cache_put",
    "stats.serialize", "stats.deserialize",
})

ROOT = "<root>"


class Tracer:
    """In-memory span aggregation plus the scheduled-callback census.

    ``clock`` is injectable so tests can check the self-time arithmetic
    with exact numbers.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter,
                 on_run: Optional[Callable] = None):
        self.clock = clock
        #: ``on_run(system, result)`` is called as each system's run
        #: returns; its return values are kept in :attr:`runs`
        self.on_run = on_run
        #: open spans, innermost last: ``[name, child_seconds]``
        self._stack: List[list] = [[ROOT, 0.0]]
        #: ``(name, parent) -> [count, total_s, child_s]``
        self.aggregate: Dict[Tuple[str, str], list] = {}
        #: ``(name, start, end, parent, run_id)`` for :data:`RECORDED`
        self.records: List[tuple] = []
        #: scheduled callbacks per census layer
        self.census: Counter = Counter({layer: 0 for layer in CENSUS_LAYERS})
        self.runs: List[object] = []
        #: incremented when a run starts generating its workload
        self.run_id = -1
        self._restore: List[Tuple[object, str, object]] = []
        self._layer_by_code: Dict[object, str] = {}
        self._wrapper_code = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name`` (the wrapper keeps ``__wrapped__``)."""
        stack = self._stack
        aggregate = self.aggregate
        clock = self.clock
        records = self.records if name in RECORDED else None
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (name, parent[0])
                entry = aggregate.get(key)
                if entry is None:
                    aggregate[key] = [1, duration, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += frame[1]
                if records is not None:
                    records.append(
                        (name, start, end, parent[0], tracer.run_id))

        self._wrapper_code = span.__code__
        return span

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, _parent), (count, total, child) in self.aggregate.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += count
            row["total_s"] += total
            row["self_s"] += total - child
        return out

    def layer_totals(self, layer: str) -> Dict[str, float]:
        """Calls, total and self seconds summed over a layer's spans."""
        out = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        for name, row in self.totals().items():
            if name.split(".", 1)[0] == layer:
                for key in out:
                    out[key] += row[key]
        return out

    # ------------------------------------------------------------------
    # census
    # ------------------------------------------------------------------
    def classify(self, fn) -> str:
        """The census layer owning callback ``fn``."""
        try:
            code = fn.__code__
        except AttributeError:
            inner = getattr(fn, "func", None)  # functools.partial
            return self.classify(inner) if inner is not None else "other"
        if code is self._wrapper_code:
            code = fn.__wrapped__.__code__
        layer = self._layer_by_code.get(code)
        if layer is None:
            from repro.perf.profiling import layer_of

            layer = layer_of(code.co_filename)
            if layer not in CENSUS_LAYERS:
                layer = "other"
            self._layer_by_code[code] = layer
        return layer

    def counting(self, schedule: Callable) -> Callable:
        census = self.census
        classify = self.classify

        @functools.wraps(schedule)
        def counted(sim, delay, fn, *args):
            census[classify(fn)] += 1
            return schedule(sim, delay, fn, *args)

        return counted

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, prefixes: Tuple[str, ...] = ("",)) -> None:
        """Wrap every boundary whose span name starts with a prefix.

        The census is installed with the simulation layers, that is
        whenever ``sim.run`` is selected.
        """
        for name, (module_name, owner_name, attr) in BOUNDARIES.items():
            if not name.startswith(prefixes):
                continue
            module = importlib.import_module(module_name)
            if owner_name is None:
                self._wrap_function(name, getattr(module, attr))
            else:
                self._wrap_method(name, getattr(module, owner_name), attr)
        if "sim.run".startswith(prefixes):
            from repro.sim.kernel import Simulator

            for attr in ("schedule", "schedule_cancellable"):
                self._set(Simulator, attr,
                          self.counting(Simulator.__dict__[attr]))

    def _wrap_method(self, name: str, base: type, attr: str) -> None:
        # subclasses that override the method (each lock primitive, the
        # WRR port) get their own wrapper; inherited ones share the base's
        classes = [base]
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in classes:
            if attr in cls.__dict__:
                self._set(cls, attr, self._hooked(name, cls.__dict__[attr]))

    def _wrap_function(self, name: str, original: Callable) -> None:
        # re-exported names (``repro.api``, the executor's module-level
        # imports) are separate bindings: patch each one that holds it
        wrapper = self._hooked(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith(
                    "repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _hooked(self, name: str, fn: Callable) -> Callable:
        if name == "workloads.generate":
            def start_run(*args, **kwargs):
                self.run_id += 1
                return fn(*args, **kwargs)

            return self.wrap(name, functools.wraps(fn)(start_run))
        if name == "system.run" and self.on_run is not None:
            def run_and_observe(system, *args, **kwargs):
                result = fn(system, *args, **kwargs)
                self.runs.append(self.on_run(system, result))
                return result

            return self.wrap(name, functools.wraps(fn)(run_and_observe))
        return self.wrap(name, fn)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def dump(self) -> Dict:
        """The spans as plain data, for the trace file."""
        return {
            "aggregate": [
                {"name": name, "parent": parent, "calls": count,
                 "total_s": total, "child_s": child}
                for (name, parent), (count, total, child)
                in sorted(self.aggregate.items())
            ],
            "spans": [
                {"name": name, "start": start, "end": end,
                 "parent": parent, "run_id": run_id}
                for name, start, end, parent, run_id in self.records
            ],
            "census": dict(self.census),
        }

