"""Outside-in span tracing for the layers benchmark.

Nothing under ``src/`` knows it is traced.  The :class:`Tracer` wraps the
*public call boundary* of each layer from the benchmark's side:

* callables the harness owns (query objects, executor / manager / catalog
  entry points) are wrapped per instance with :meth:`Tracer.wrap`;
* objects the program creates for itself (storage structures inside an
  engine, MVCC sessions, traversal machines) are reached by patching the
  public methods of their classes for the lifetime of the tracer
  (:meth:`Tracer.patch_class`, undone by :meth:`Tracer.close`);
* engines are handed to the program behind an :class:`EngineProxy`, so the
  traversal machine's primitive and bulk calls are seen as ``engines``
  spans nested inside ``gremlin`` / ``queries`` / ``concurrency`` spans.

A span is ``(name, layer, start, end, parent, op_id)``.  Spans live in
columnar arrays in memory and are written once, when the run ends.  A call
that returns a generator gets one *busy-compressed* span: it starts at the
first ``next()`` and its length is the sum of the time spent inside every
``next()`` — the consumer's time between resumes is not the generator's.
Spans opened while a generator is resumed are its children.

Self time of a span = its duration minus the duration of its direct
children (single thread: children never overlap each other).  Tracing costs
about a microsecond per span, part inside the span and part in its parent;
:meth:`Tracer.summary` measures both parts on an empty call and takes them
out again, so a layer made of many tiny calls is not charged for being
watched.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: Raw spans kept in the trace file; the aggregate table is always complete.
TRACE_FILE_SPAN_CAP = 20_000

_BULK_METHODS = frozenset({"neighbors_many", "edges_for_many"})
#: Ledger accessors: reading a counter is bookkeeping of the *caller* (the
#: scheduler, a shard executor), not engine work, so it gets no span.
_ACCOUNTING = frozenset({"io_cost", "combined_metrics", "reset_metrics", "structure_version"})


def self_times(durations: Iterable[float], parents: Iterable[int]) -> list[float]:
    """Self time per span from ``(duration, parent index)`` columns.

    ``parent`` is ``-1`` for a root span.  Self time is the duration minus
    the part covered by direct children; children of one parent never
    overlap (one thread), so the covered part is the sum of their durations.
    """
    durations = list(durations)
    own = list(durations)
    for duration, parent in zip(durations, parents):
        if parent >= 0:
            own[parent] -= duration
    return own


class Tracer:
    """In-memory span recorder; disabled until :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        #: Set by the harness before each operation; copied into every span.
        self.op_id = -1
        self._current = -1
        self._names: list[tuple[str, str]] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._op = array("l")
        #: Items yielded by generator spans, per span (0 for plain calls).
        self._yielded = array("l")
        #: Ids handed to bulk engine primitives, per span (0 elsewhere).
        self._bulk_ids = array("l")
        self._patches: list[tuple[type, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int, start: float) -> int:
        index = len(self._name)
        self._name.append(name_id)
        self._start.append(start)
        self._end.append(start)
        self._parent.append(self._current)
        self._op.append(self.op_id)
        self._yielded.append(0)
        self._bulk_ids.append(0)
        return index

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        name_id = self._name_ids.get(key)
        if name_id is None:
            name_id = self._name_ids[key] = len(self._names)
            self._names.append(key)
        return name_id

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """Return ``fn`` recording one span per call while the tracer is enabled."""
        name_id = self._name_id(name, layer)
        bulk = name.rsplit(".", 1)[-1] in _BULK_METHODS
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            outer = self._current
            start = clock()
            index = self._open(name_id, start)
            self._current = index
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[index] = clock()
                self._current = outer
            if bulk:
                # Bound methods and proxies pass the id list first; patched
                # class methods pass ``self`` first.
                for arg in args[:2]:
                    if isinstance(arg, (list, tuple)):
                        self._bulk_ids[index] = len(arg)
                        break
            if inspect.isgenerator(result):
                return self._trace_generator(result, index)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _trace_generator(self, generator: Iterator[Any], index: int) -> Iterator[Any]:
        """Re-yield ``generator``, timing only the inside of each ``next()``.

        The creating call's span (already closed, a few hundred nanoseconds
        long) is re-used as the generator's busy-compressed span.
        """
        clock = time.perf_counter
        busy = self._end[index] - self._start[index]
        first = True
        while True:
            outer = self._current
            self._current = index
            start = clock()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                stop = clock()
                self._current = outer
                if first:
                    # Re-anchor at the first resume: that is when the work
                    # happens, and it keeps the span inside its real parent.
                    self._start[index] = start - busy
                    self._parent[index] = outer
                    first = False
                busy += stop - start
                self._end[index] = self._start[index] + busy
            self._yielded[index] += 1
            yield item

    # -- installing wrappers --------------------------------------------------

    def wrap_methods(self, obj: Any, methods: Iterable[str], layer: str) -> Any:
        """Wrap public methods of one instance the harness itself created."""
        prefix = type(obj).__name__
        for method in methods:
            setattr(obj, method, self.wrap(getattr(obj, method), f"{prefix}.{method}", layer))
        return obj

    def patch_class(self, cls: type, layer: str, methods: Iterable[str] | None = None) -> None:
        """Wrap public methods of ``cls`` until :meth:`close`.

        With ``methods=None`` every public function defined on the class
        itself is wrapped (properties and dunders are left alone).
        """
        if methods is None:
            methods = [
                name
                for name, value in vars(cls).items()
                if not name.startswith("_") and inspect.isfunction(value)
            ]
        for method in methods:
            original = vars(cls)[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(original, f"{cls.__name__}.{method}", layer))

    def close(self) -> None:
        """Undo every class patch (instance wrappers die with their objects)."""
        self.enabled = False
        while self._patches:
            cls, method, original = self._patches.pop()
            setattr(cls, method, original)

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._name)

    def spans(self, limit: int | None = None) -> list[tuple[str, str, float, float, int, int]]:
        """``(name, layer, start, end, parent, op_id)`` rows, in open order."""
        count = len(self) if limit is None else min(limit, len(self))
        rows = []
        for index in range(count):
            name, layer = self._names[self._name[index]]
            rows.append(
                (name, layer, self._start[index], self._end[index],
                 self._parent[index], self._op[index])
            )
        return rows

    @staticmethod
    def calibrate(calls: int = 5_000, repeats: int = 3) -> tuple[float, float]:
        """Seconds one traced call adds inside its own span and to its parent
        (the least disturbed of ``repeats`` measurements)."""
        best = (float("inf"), float("inf"))
        for _ in range(repeats):
            probe = Tracer()
            noop = probe.wrap(lambda: None, "noop", "calibration")

            def parent() -> None:
                for _ in range(calls):
                    noop()

            probe.enabled = True
            probe.wrap(parent, "parent", "calibration")()
            durations = [end - start for start, end in zip(probe._start, probe._end)]
            inside = sum(durations[1:]) / calls
            outside = (durations[0] - sum(durations[1:])) / calls
            best = (min(best[0], inside), min(best[1], outside))
        return best

    def summary(self) -> dict[str, Any]:
        """Aggregate the recorded spans per layer and per span name."""
        durations = [end - start for start, end in zip(self._start, self._end)]
        own = self_times(durations, self._parent)
        # Take the tracer's own cost back out: every call and every generator
        # resume is one event, costing ``inside`` in its span and ``outside``
        # in its parent's self time.
        inside, outside = self.calibrate()
        for index, parent in enumerate(self._parent):
            events = 1 + self._yielded[index]
            own[index] -= events * inside
            if parent >= 0:
                own[parent] -= events * outside
        own = [max(0.0, value) for value in own]
        layers: dict[str, float] = {}
        names: dict[str, dict[str, Any]] = {}
        covered = 0.0
        for index, name_id in enumerate(self._name):
            name, layer = self._names[name_id]
            layers[layer] = layers.get(layer, 0.0) + own[index]
            row = names.setdefault(
                name, {"layer": layer, "calls": 0, "self_s": 0.0, "total_s": 0.0,
                       "yielded": 0, "bulk_ids": 0}
            )
            row["calls"] += 1
            row["self_s"] += own[index]
            row["total_s"] += durations[index]
            row["yielded"] += self._yielded[index]
            row["bulk_ids"] += self._bulk_ids[index]
            if self._parent[index] < 0:
                covered += durations[index]
        return {"spans": len(self), "covered_s": covered, "layers": layers, "names": names}

    def write(self, path: Path) -> None:
        """Write the aggregate table plus a capped sample of raw spans."""
        payload = self.summary()
        payload["span_columns"] = ["name", "layer", "start", "end", "parent", "op_id"]
        payload["span_sample"] = self.spans(TRACE_FILE_SPAN_CAP)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


class EngineProxy:
    """A delegating stand-in for an engine: every public call is a span.

    Attribute reads fall through to the engine, so duck-typed consumers
    (the traversal machine, the optimizer, session managers, shard
    runtimes) cannot tell the difference.  The four factory methods that
    hand ``self`` to a new object are re-implemented here so the objects
    they build keep calling *through* the proxy.
    """

    def __init__(self, engine: Any, tracer: Tracer) -> None:
        self.__dict__["_engine"] = engine
        self.__dict__["_tracer"] = tracer

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._engine, name)
        if name.startswith("_") or name in _ACCOUNTING or not inspect.ismethod(value):
            return value
        wrapped = self._tracer.wrap(value, f"engine.{name}", "engines")
        self.__dict__[name] = wrapped
        return wrapped

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._engine, name, value)

    def traversal(self) -> Any:
        from repro.gremlin.traversal import GraphTraversal

        return GraphTraversal(self)

    def transactions(self, **config: Any) -> Any:
        manager = getattr(self._engine, "_session_manager", None)
        if manager is None:
            from repro.concurrency.sessions import SessionManager

            manager = SessionManager(self, **config)
            self._engine._session_manager = manager
        return manager

    def begin_session(self, isolation: str = "si") -> Any:
        return self.transactions().begin(isolation=isolation)

    def versions(self) -> Any:
        catalog = getattr(self._engine, "_version_catalog", None)
        if catalog is None:
            from repro.versions.catalog import VersionCatalog

            catalog = VersionCatalog(self, self.transactions())
            self._engine._version_catalog = catalog
        return catalog

    def at_version(self, ref: Any = "HEAD") -> Any:
        return self.versions().view(ref)


def install_program_patches(tracer: Tracer) -> None:
    """Patch the classes the program instantiates for itself."""
    from repro.concurrency.scheduler import VirtualTimeScheduler
    from repro.concurrency.sessions import SessionManager
    from repro.concurrency.versioning import VersionedGraph, VersionStore
    from repro.faults.recovery import ShardJournal
    from repro.gremlin.machine import TraversalMachine
    from repro.storage.bitmap import BitmapIndex
    from repro.storage.btree import BPlusTree
    from repro.storage.columnar import ColumnFamilyStore, RowKeyIndex
    from repro.storage.document_store import DocumentCollection
    from repro.storage.hash_index import HashIndex
    from repro.storage.indirection import IndirectionTable
    from repro.storage.property_store import PropertyStore
    from repro.storage.record_store import RecordStore
    from repro.storage.relational import Table
    from repro.storage.triple_store import TripleStore
    from repro.storage.wal import ValueLog, WriteAheadLog

    for cls in (
        BPlusTree, HashIndex, WriteAheadLog, ValueLog, RecordStore, PropertyStore,
        IndirectionTable, DocumentCollection, TripleStore, ColumnFamilyStore,
        RowKeyIndex, BitmapIndex, Table,
    ):
        tracer.patch_class(cls, "storage")
    tracer.patch_class(TraversalMachine, "gremlin", ["run"])
    tracer.patch_class(
        SessionManager, "concurrency",
        ["begin", "commit", "prepare", "commit_prepared", "abort", "flush"],
    )
    tracer.patch_class(VersionStore, "concurrency", ["collect_garbage"])
    tracer.patch_class(VirtualTimeScheduler, "concurrency", ["run"])
    tracer.patch_class(ShardJournal, "faults", ["recover", "checkpoint", "record"])
    # The MVCC overlay: every public read/write of a session's graph view.
    tracer.patch_class(VersionedGraph, "concurrency")
