"""Span recording around the program's public layer functions.

The benchmark never edits the program to trace it: :func:`install` replaces
selected public functions and methods with wrappers that record one span per
call and then call the original.  A span is ``(id, parent, name, kind,
start_ns, end_ns, attrs)``; the parent is the innermost open span of the
same thread, so spans nest per request even in the threaded server.  Spans
stay in memory and :meth:`Recorder.write` dumps them as JSONL once the
process is done.

Span kinds:

* ``op`` -- a timed operation opened by the benchmark's own code (a cold
  ask, a grid run); a served request is measured from its
  ``serve.dispatch`` container instead;
* ``layer`` -- a call into one of the program's layers; the union of these
  inside an operation is what ``trace.coverage`` measures;
* ``container`` -- a call that encloses layers without being one (the ask
  pipeline, the service lock section, the request handler).  Their self
  time is reported where it has a meaning of its own (lock wait, handler),
  but they never count towards coverage.

The second half of the module turns span files back into per-layer totals:
self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

OP, LAYER, CONTAINER = "op", "layer", "container"


class Recorder:
    """In-memory span sink shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, kind: str = OP):
        """Record one span around the ``with`` body; yields its attrs dict,
        which the caller may fill in."""
        attrs: Dict[str, Any] = {}
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield attrs
        finally:
            end = time.monotonic_ns()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append((span_id, parent, name, kind, start, end, attrs))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, kind, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "kind": kind, "start": start, "end": end,
                    "attrs": attrs}) + "\n")


def _wrap(recorder: Recorder, function: Callable, name: str, kind: str,
          describe: Optional[Callable[..., Dict[str, Any]]]) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name, kind) as attrs:
            result = function(*args, **kwargs)
        if describe is not None:
            try:
                attrs.update(describe(args, kwargs, result))
            except (AttributeError, KeyError, OSError, TypeError):
                pass
        return result
    return wrapper


def _load_bytes(args, kwargs, result) -> Dict[str, Any]:
    if result is None:
        return {"bytes": 0}
    store, kind, key = args[:3]
    # The record path is a pure function of (kind, key); no public API
    # exposes it, so a renamed helper just leaves the byte count at 0.
    return {"bytes": os.path.getsize(
        store._objects.object_path(store._record_name(kind, key)))}


def _rows_in(args, kwargs, result) -> Dict[str, Any]:
    backend = args[0]
    return {"rows": sum(len(backend._tables[name])
                        for name in backend.list_tables())}


def _experiment_counters(args, kwargs, result) -> Dict[str, Any]:
    return {key: result.counters.get(key, 0)
            for key in ("simulations_run", "store_hits", "batch_cells")}


#: ``(module, owner.attribute, span name, kind, describe)`` for every
#: wrapped function; ``owner`` is empty for a module-level function.
TARGETS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("repro.core.plan", "QueryPlanner.plan", "plan", LAYER,
     lambda a, k, r: {"jobs": len(r.jobs)}),
    ("repro.core.pipeline", "SimulationCache.get_trace", "workloads.trace",
     LAYER, None),
    ("repro.sim.engine", "SimulationEngine.run", "sim.replay", LAYER,
     lambda a, k, r: {"detail": a[0].detail, "accesses": len(a[1])}),
    ("repro.sim.batch", "BatchSimulator.run", "sim.batch", LAYER,
     lambda a, k, r: {"rollouts": len(a[1])}),
    ("repro.tracedb.database", "make_entry", "tracedb.make_entry", LAYER,
     None),
    ("repro.tracedb.schema", "AccessLog.to_table", "tracedb.to_table", LAYER,
     None),
    ("repro.tracedb.stats", "CacheStatisticalExpert.workload_statistics",
     "tracedb.statistics", LAYER, None),
    ("repro.tracedb.store", "TraceStore.save", "store.save", LAYER,
     lambda a, k, r: {"bytes": os.path.getsize(r)}),
    ("repro.tracedb.store", "TraceStore.load", "store.load", LAYER,
     _load_bytes),
    ("repro.tracedb.objstore", "ObjectStore.open_object", "store.open",
     LAYER, None),
    ("repro.retrieval.sieve", "SieveRetriever.retrieve", "retrieval.sieve",
     LAYER, None),
    ("repro.retrieval.ranger", "RangerRetriever.retrieve",
     "retrieval.ranger", LAYER, None),
    ("repro.retrieval.embedding", "EmbeddingRetriever.retrieve",
     "retrieval.embedding", LAYER, None),
    ("repro.analytics.backends", "StdlibBackend.execute",
     "analytics.execute", LAYER, _rows_in),
    ("repro.core.generate", "AnswerGenerator.generate", "generate", LAYER,
     None),
    ("repro.llm.memory", "ConversationMemory.context_block", "memory",
     LAYER, None),
    ("repro.llm.memory", "ConversationMemory.add_turn", "memory", LAYER,
     None),
    ("repro.core.experiment", "ExperimentSpec.compile",
     "experiment.compile", LAYER, None),
    ("repro.core.pipeline", "CacheMind.ask_request_many", "core.ask",
     CONTAINER, None),
    ("repro.serve.service", "CacheMindService.ask_batch", "serve.ask_batch",
     CONTAINER, None),
    ("repro.serve.service", "CacheMindService.warm_up", "serve.warm_up",
     CONTAINER, None),
    ("repro.serve.server", "CacheMindServer.dispatch_line", "serve.dispatch",
     CONTAINER, None),
    ("repro.core.experiment", "ExperimentRunner.run", "experiment.run",
     CONTAINER, _experiment_counters),
]


def install(recorder: Recorder) -> None:
    """Wrap every target so calls record spans into ``recorder``.  A target
    that no longer exists is reported on stderr and its figures read 0.

    A plain function is also replaced in every loaded module that imported
    it by name, so callers holding their own reference are traced too.
    """
    for module_name, path, name, kind, describe in TARGETS:
        owner_name, _, attribute = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            # On a class this resolves an inherited method too, so
            # StdlibBackend.execute wraps BaseTabularStore.execute for
            # that subclass only.
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            print(f"tracing: {module_name}.{path} not found; not traced",
                  file=sys.stderr)
            continue
        wrapper = _wrap(recorder, original, name, kind, describe)
        setattr(owner, attribute, wrapper)
        if owner_name:
            continue
        for module in list(sys.modules.values()):
            if getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapper)


# ----------------------------------------------------------------------
# analysis of span files
# ----------------------------------------------------------------------
def read_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class SpanTree:
    """Parent/child index over one process's spans."""

    def __init__(self, spans: Iterable[Dict[str, Any]]):
        self.spans = {span["id"]: span for span in spans}
        self.children: Dict[int, List[Dict[str, Any]]] = {}
        for span in self.spans.values():
            self.children.setdefault(span["parent"], []).append(span)

    def roots(self, name: str) -> List[Dict[str, Any]]:
        """Top-level spans called ``name``, oldest first."""
        return sorted((span for span in self.children.get(0, [])
                       if span["name"] == name),
                      key=lambda span: span["start"])

    def descendants(self, span: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
        pending = list(self.children.get(span["id"], []))
        while pending:
            child = pending.pop()
            yield child
            pending.extend(self.children.get(child["id"], []))

    def self_ns(self, span: Dict[str, Any]) -> int:
        covered = sum(child["end"] - child["start"]
                      for child in self.children.get(span["id"], []))
        return max(0, span["end"] - span["start"] - covered)

    def layer_covered_ns(self, span: Dict[str, Any]) -> int:
        """Time inside ``span`` covered by its outermost layer spans
        (containers are looked through, never counted)."""
        total = 0
        pending = list(self.children.get(span["id"], []))
        while pending:
            child = pending.pop()
            if child["kind"] == LAYER:
                total += child["end"] - child["start"]
            else:
                pending.extend(self.children.get(child["id"], []))
        return total


def layer_totals(tree: SpanTree, ops: Iterable[Dict[str, Any]]
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, self ``s`` and summed numeric attrs over
    every span under ``ops`` (the op spans themselves excluded)."""
    totals: Dict[str, Dict[str, float]] = {}
    for op in ops:
        for span in tree.descendants(op):
            entry = totals.setdefault(span["name"],
                                      {"calls": 0, "s": 0.0, "wall_s": 0.0})
            entry["calls"] += 1
            entry["s"] += tree.self_ns(span) / 1e9
            entry["wall_s"] += (span["end"] - span["start"]) / 1e9
            for key, value in span["attrs"].items():
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    entry[key] = entry.get(key, 0) + value
                elif key == "detail":
                    tag = f"detail_{value}"
                    entry[tag] = entry.get(tag, 0) + 1
    return totals
