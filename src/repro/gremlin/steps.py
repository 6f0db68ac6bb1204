"""Step implementations of the Gremlin-style traversal machine.

A *step* consumes a stream of :class:`~repro.gremlin.traversal.Traverser`
objects and produces a new stream.  Steps are deliberately thin: all graph
work is delegated to the engine's primitive operations so that the cost of a
query lands on the engine's storage structures, exactly as in the paper's
setup where Gremlin steps are translated one-by-one onto each system's API.

Two executor-level refinements live here (see
:mod:`~repro.gremlin.machine` for when they are enabled):

* adjacency steps expand whole frontier batches through the engine's bulk
  primitives (``neighbors_many`` / ``edges_for_many``), keeping the same
  logical charges and yield order while skipping per-hop generator chains;
* reducing steps (``count``, ``groupCount``, ``dedup``, ``limit``) honour
  the ``bulk`` multiplicity carried by merged traversers.

Lambda predicates passed to ``filter(...)`` are assumed pure: the batched
executor may pull a bounded chunk of walkers before expanding them, so a
predicate that mutates state shared with a downstream step could observe a
different interleaving than the per-walker executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro.exceptions import QueryError
from repro.model.elements import Direction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gremlin.machine import TraversalContext
    from repro.gremlin.traversal import Traverser

#: How many walkers an adjacency step gathers before one bulk engine call.
FRONTIER_BATCH = 256


def _unique_chunks(traversers: Iterable["Traverser"]) -> Iterator[list["Traverser"]]:
    """Group walkers into frontier chunks with unique objects.

    Each chunk holds at most :data:`FRONTIER_BATCH` walkers with *unique*
    objects — a repeated object closes the chunk so the engine is still
    called once per walker (identical charges to the per-walker path) and
    so that ``(source, result)`` pairs map back to walkers unambiguously.
    """
    batch: list["Traverser"] = []
    seen: set[Any] = set()
    for traverser in traversers:
        if traverser.obj in seen or len(batch) >= FRONTIER_BATCH:
            yield batch
            batch = []
            seen = set()
        batch.append(traverser)
        seen.add(traverser.obj)
    if batch:
        yield batch


def _expand_batches(
    traversers: Iterable["Traverser"],
    ctx: "TraversalContext",
    bulk_expand: Callable[[list[Any]], Iterator[tuple[Any, Any]]],
    kind: str,
) -> Iterator["Traverser"]:
    """Expand walkers through a bulk primitive in frontier chunks."""
    from repro.gremlin.traversal import Traverser  # local import to avoid cycle

    new = object.__new__
    setter = object.__setattr__
    for batch in _unique_chunks(traversers):
        walkers = {traverser.obj: traverser for traverser in batch}
        for source, result in bulk_expand([traverser.obj for traverser in batch]):
            parent = walkers[source]
            path = parent.path
            child = new(Traverser)
            setter(child, "obj", result)
            setter(child, "kind", kind)
            setter(child, "path", path if path is None else path + (result,))
            setter(child, "loops", parent.loops)
            setter(child, "bulk", parent.bulk)
            yield child


class Step:
    """Base class of every traversal step."""

    #: Short Gremlin-like name used in explain output.
    name = "step"

    def apply(self, traversers: Iterable["Traverser"], ctx: "TraversalContext") -> Iterator["Traverser"]:
        """Transform the incoming traverser stream."""
        raise NotImplementedError

    def describe(self) -> str:
        """Return a human-readable description used by ``explain()``."""
        return self.name


@dataclass
class VStep(Step):
    """``g.V()`` / ``g.V(id)``: start from every vertex or from given ids."""

    ids: tuple[Any, ...] = ()
    name = "V"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            if self.ids:
                for vertex_id in self.ids:
                    if ctx.graph.vertex_exists(vertex_id):
                        yield traverser.spawn(vertex_id, kind="vertex")
            else:
                for vertex_id in ctx.graph.vertex_ids():
                    yield traverser.spawn(vertex_id, kind="vertex")

    def describe(self) -> str:
        return f"V({', '.join(map(repr, self.ids))})"


@dataclass
class EStep(Step):
    """``g.E()`` / ``g.E(id)``: start from every edge or from given ids."""

    ids: tuple[Any, ...] = ()
    name = "E"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            if self.ids:
                for edge_id in self.ids:
                    if ctx.graph.edge_exists(edge_id):
                        yield traverser.spawn(edge_id, kind="edge")
            else:
                for edge_id in ctx.graph.edge_ids():
                    yield traverser.spawn(edge_id, kind="edge")

    def describe(self) -> str:
        return f"E({', '.join(map(repr, self.ids))})"


@dataclass
class HasStep(Step):
    """``has(key, value)`` / ``has('label', value)``: filter by property or label."""

    key: str
    value: Any
    name = "has"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            if self._matches(traverser, ctx):
                yield traverser

    def _matches(self, traverser: "Traverser", ctx: "TraversalContext") -> bool:
        graph = ctx.graph
        if traverser.kind == "vertex":
            if self.key == "label":
                # Structural filter: read the label without materialising the
                # vertex's off-loaded property blocks.
                return graph.vertex_label(traverser.obj) == self.value
            return graph.vertex_property(traverser.obj, self.key) == self.value
        if traverser.kind == "edge":
            if self.key == "label":
                return graph.edge_label(traverser.obj) == self.value
            return graph.edge_property(traverser.obj, self.key) == self.value
        return False

    def describe(self) -> str:
        return f"has({self.key!r}, {self.value!r})"


@dataclass
class IndexedVertexLookupStep(Step):
    """Conflation of ``V().has(key, value)`` into one engine-level lookup.

    Installed by the optimizer for engines that translate step chains into
    native queries (the relational engine's single-SQL-statement behaviour)
    or that expose an attribute index for the property.
    """

    key: str
    value: Any
    name = "V+has(index)"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            for vertex_id in ctx.graph.vertices_by_property(self.key, self.value):
                yield traverser.spawn(vertex_id, kind="vertex")

    def describe(self) -> str:
        return f"V().has({self.key!r}, {self.value!r}) [conflated]"


@dataclass
class EdgeLabelLookupStep(Step):
    """Conflation of ``E().has('label', l)`` into one engine-level lookup."""

    label: str
    name = "E+hasLabel"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            for edge_id in ctx.graph.edges_by_label(self.label):
                yield traverser.spawn(edge_id, kind="edge")

    def describe(self) -> str:
        return f"E().has('label', {self.label!r}) [conflated]"


@dataclass
class TraversalStep(Step):
    """``out`` / ``in`` / ``both``: move from vertices to adjacent vertices."""

    direction: Direction
    labels: tuple[str, ...] = ()
    name = "adjacent"

    def apply(self, traversers, ctx):
        graph = ctx.graph
        labels = self.labels or (None,)
        if ctx.batching and len(labels) == 1:
            # Whole-frontier expansion through the engine's bulk primitive.
            # Multi-label traversals keep the per-walker loop: batching per
            # label would reorder the stream a downstream except/store could
            # observe.
            label = labels[0]
            yield from _expand_batches(
                traversers,
                ctx,
                lambda ids: graph.neighbors_many(ids, self.direction, label),
                kind="vertex",
            )
            return
        for traverser in traversers:
            for label in labels:
                for neighbor in graph.neighbors(traverser.obj, self.direction, label):
                    yield traverser.spawn(neighbor, kind="vertex")

    def describe(self) -> str:
        return f"{self.direction.value}({', '.join(self.labels)})"


@dataclass
class IncidentEdgesStep(Step):
    """``outE`` / ``inE`` / ``bothE``: move from vertices to incident edges."""

    direction: Direction
    labels: tuple[str, ...] = ()
    name = "incident"

    def apply(self, traversers, ctx):
        graph = ctx.graph
        labels = self.labels or (None,)
        if ctx.batching and len(labels) == 1:
            label = labels[0]
            yield from _expand_batches(
                traversers,
                ctx,
                lambda ids: graph.edges_for_many(ids, self.direction, label),
                kind="edge",
            )
            return
        for traverser in traversers:
            for label in labels:
                for edge_id in graph.edges_for(traverser.obj, self.direction, label):
                    yield traverser.spawn(edge_id, kind="edge")

    def describe(self) -> str:
        return f"{self.direction.value}E({', '.join(self.labels)})"


@dataclass
class EdgeVertexStep(Step):
    """``outV`` / ``inV`` / ``otherV``: move from edges to their endpoints."""

    which: str  # "out", "in", or "other"
    name = "edge-vertex"

    def apply(self, traversers, ctx):
        graph = ctx.graph
        for traverser in traversers:
            source, target = graph.edge_endpoints(traverser.obj)
            if self.which == "out":
                yield traverser.spawn(source, kind="vertex")
            elif self.which == "in":
                yield traverser.spawn(target, kind="vertex")
            else:
                previous = traverser.previous_vertex()
                other = target if previous == source else source
                yield traverser.spawn(other, kind="vertex")

    def describe(self) -> str:
        return f"{self.which}V()"


@dataclass
class LabelStep(Step):
    """``label()``: map elements to their label."""

    name = "label"

    def apply(self, traversers, ctx):
        graph = ctx.graph
        for traverser in traversers:
            if traverser.kind == "edge":
                yield traverser.spawn(graph.edge_label(traverser.obj), kind="value")
            else:
                # Structural projection: never touch the property blocks.
                yield traverser.spawn(graph.vertex_label(traverser.obj), kind="value")


@dataclass
class ValuesStep(Step):
    """``values(key)``: map elements to one of their property values."""

    key: str
    name = "values"

    def apply(self, traversers, ctx):
        graph = ctx.graph
        for traverser in traversers:
            if traverser.kind == "vertex":
                value = graph.vertex_property(traverser.obj, self.key)
            else:
                value = graph.edge_property(traverser.obj, self.key)
            if value is not None:
                yield traverser.spawn(value, kind="value")

    def describe(self) -> str:
        return f"values({self.key!r})"


@dataclass
class IdStep(Step):
    """``id()``: map elements to their identifier."""

    name = "id"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            yield traverser.spawn(traverser.obj, kind="value")


@dataclass
class DedupStep(Step):
    """``dedup()``: drop duplicate traverser objects."""

    name = "dedup"

    def apply(self, traversers, ctx):
        seen: set[Any] = set()
        for traverser in traversers:
            key = traverser.obj
            if key in seen:
                continue
            seen.add(key)
            ctx.charge_materialization(key)
            # Distinct semantics: a merged traverser collapses to one result.
            yield traverser if traverser.bulk == 1 else traverser.with_bulk(1)


@dataclass
class FilterStep(Step):
    """``filter{...}``: keep traversers for which ``predicate(graph, obj)`` holds."""

    predicate: Callable[[Any, Any], bool]
    label: str = "lambda"
    name = "filter"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            if self.predicate(ctx.graph, traverser.obj):
                yield traverser

    def describe(self) -> str:
        return f"filter({self.label})"


@dataclass
class SideEffectStoreStep(Step):
    """``store(x)``: add each traverser object to an external collection."""

    collection: set
    name = "store"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            self.collection.add(traverser.obj)
            yield traverser


@dataclass
class ExceptStep(Step):
    """``except(x)``: drop traversers whose object is in the collection."""

    collection: Iterable[Any]
    name = "except"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            if traverser.obj not in self.collection:
                yield traverser


@dataclass
class FusedExpandExceptStoreStep(Step):
    """Conflation of ``both(l).except_(x).store(y)`` into one machine step.

    The BFS idiom (Q32-Q35) spends its time streaming every neighbour
    through three generator layers; this step expands a whole frontier
    chunk through ``neighbors_many`` and applies the except/store pair
    inline, preserving the exact per-pair order (and therefore the lazy
    dedup semantics) of the unfused body.  Installed by the machine's
    pipeline planner; never built directly by the DSL.
    """

    direction: Direction
    label: str | None
    except_collection: Iterable[Any]
    store_collection: set
    name = "adjacent+except+store"

    def apply(self, traversers, ctx):
        from repro.gremlin.traversal import Traverser  # local import to avoid cycle

        graph = ctx.graph
        direction = self.direction
        label = self.label
        excluded = self.except_collection
        store = self.store_collection
        store_add = store.add
        new = object.__new__
        setter = object.__setattr__
        for batch in _unique_chunks(traversers):
            walkers = {traverser.obj: traverser for traverser in batch}
            pairs = graph.neighbors_many(
                [traverser.obj for traverser in batch], direction, label
            )
            for source, neighbor in pairs:
                if neighbor in excluded:
                    continue
                store_add(neighbor)
                parent = walkers[source]
                path = parent.path
                child = new(Traverser)
                setter(child, "obj", neighbor)
                setter(child, "kind", "vertex")
                setter(child, "path", path if path is None else path + (neighbor,))
                setter(child, "loops", parent.loops)
                setter(child, "bulk", parent.bulk)
                yield child

    def describe(self) -> str:
        label = self.label or ""
        return f"{self.direction.value}({label}).except(x).store(x) [fused]"


@dataclass
class RetainStep(Step):
    """``retain(x)``: keep only traversers whose object is in the collection."""

    collection: Iterable[Any]
    name = "retain"

    def apply(self, traversers, ctx):
        allowed = set(self.collection)
        for traverser in traversers:
            if traverser.obj in allowed:
                yield traverser


@dataclass
class LimitStep(Step):
    """``limit(n)``: keep only the first ``n`` traversers."""

    count: int
    name = "limit"

    def apply(self, traversers, ctx):
        remaining = self.count
        for traverser in traversers:
            if remaining <= 0:
                return
            take = traverser.bulk if traverser.bulk <= remaining else remaining
            remaining -= take
            yield traverser if take == traverser.bulk else traverser.with_bulk(take)

    def describe(self) -> str:
        return f"limit({self.count})"


@dataclass
class OrderStep(Step):
    """``order().by(...)``: sort traversers by a key function (materialises)."""

    key: Callable[[Any, Any], Any] | None = None
    reverse: bool = False
    name = "order"

    def apply(self, traversers, ctx):
        materialised = list(traversers)
        for traverser in materialised:
            ctx.charge_materialization(traverser.obj, count=traverser.bulk)
        if self.key is None:
            materialised.sort(key=lambda t: _order_key(t.obj), reverse=self.reverse)
        else:
            materialised.sort(key=lambda t: _order_key(self.key(ctx.graph, t.obj)), reverse=self.reverse)
        yield from materialised


def _order_key(value: Any) -> tuple[str, Any]:
    """Totally order heterogeneous values by (type name, value)."""
    try:
        hash(value)
    except TypeError:
        value = repr(value)
    return (type(value).__name__, value)


@dataclass
class AsStep(Step):
    """``as('x')``: label the current position for a later ``loop('x')``."""

    label: str
    name = "as"

    def apply(self, traversers, ctx):
        yield from traversers

    def describe(self) -> str:
        return f"as({self.label!r})"


@dataclass
class LoopStep(Step):
    """``loop('x'){while}``: repeat the section that starts at ``as('x')``.

    The loop body is the sub-pipeline of steps between the matching
    :class:`AsStep` and this step.  After each pass, every traverser is fed
    to ``while_condition`` (called with ``(loops, object, graph)``); those for
    which it returns True re-enter the body, the others are emitted.  The
    traversal machine wires ``body_steps`` when the pipeline is assembled.
    """

    label: str
    while_condition: Callable[[int, Any, Any], bool]
    emit_all: bool = False
    max_loops: int = 64
    body_steps: list[Step] = field(default_factory=list)
    #: Set by the machine's bulking planner: merge each round's frontier,
    #: collapsing walkers at the same object into one bulked traverser.
    merge_frontiers: bool = False
    name = "loop"

    def apply(self, traversers, ctx):
        current = list(traversers)
        loops = 0
        while current and loops < self.max_loops:
            loops += 1
            produced: list["Traverser"] = []
            stream: Iterable["Traverser"] = iter(current)
            for step in self.body_steps:
                stream = step.apply(stream, ctx)
            for traverser in stream:
                traverser = traverser.with_loops(loops)
                # One charge per merged walker keeps memory accounting
                # identical to the unbulked stream.
                ctx.charge_materialization(traverser.obj, count=traverser.bulk)
                produced.append(traverser)
            if self.merge_frontiers and not ctx.path_tracking:
                produced = _merge_frontier(produced)
            if self.emit_all:
                yield from produced
            next_round: list["Traverser"] = []
            for traverser in produced:
                if self.while_condition(loops, traverser.obj, ctx.graph):
                    next_round.append(traverser)
                elif not self.emit_all:
                    yield traverser
            current = next_round
        if loops >= self.max_loops and current and not self.emit_all:
            yield from current

    def describe(self) -> str:
        return f"loop({self.label!r})"


def _merge_frontier(frontier: list["Traverser"]) -> list["Traverser"]:
    """Collapse walkers positioned at the same object into bulked walkers."""
    merged: dict[tuple[Any, str], "Traverser"] = {}
    for traverser in frontier:
        key = (traverser.obj, traverser.kind)
        held = merged.get(key)
        if held is None:
            merged[key] = traverser
        else:
            merged[key] = held.with_bulk(held.bulk + traverser.bulk)
    if len(merged) == len(frontier):
        return frontier
    return list(merged.values())


@dataclass
class PathStep(Step):
    """``path()``: replace each traverser object with the path it walked."""

    name = "path"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            yield replace(traverser, obj=tuple(traverser.path), kind="value")


@dataclass
class CountStep(Step):
    """``count()``: reduce the stream to a single number (bulk-aware)."""

    name = "count"

    def apply(self, traversers, ctx):
        total = sum(traverser.bulk for traverser in traversers)
        from repro.gremlin.traversal import Traverser  # local import to avoid cycle

        yield Traverser(obj=total, kind="value", path=(total,))


@dataclass
class NativeCountStep(Step):
    """A whole-stream count conflated into one native engine operation.

    Installed by the optimizer's count pushdown for engines that translate
    step chains into native queries (``V().count()`` -> ``vertex_count()``,
    ``E().count()`` -> ``edge_count()``, ``E().has('label', l).count()`` ->
    a label-scan count).
    """

    source: str  # "V", "E", or "E-label"
    label: str | None = None
    name = "count(native)"

    def apply(self, traversers, ctx):
        from repro.gremlin.traversal import Traverser  # local import to avoid cycle

        for _traverser in traversers:
            if self.source == "V":
                total = ctx.graph.vertex_count()
            elif self.source == "E":
                total = ctx.graph.edge_count()
            else:
                total = sum(1 for _edge in ctx.graph.edges_by_label(self.label))
            yield Traverser(obj=total, kind="value", path=(total,))

    def describe(self) -> str:
        if self.source == "E-label":
            return f"E().has('label', {self.label!r}).count() [conflated]"
        return f"{self.source}().count() [conflated]"


@dataclass
class BulkMergeStep(Step):
    """Merge traversers positioned at the same object into bulked walkers.

    A capacity-bounded barrier (TinkerPop's lazy-barrier idea): up to
    ``capacity`` walkers are gathered into an insertion-ordered map, so the
    relative order of first occurrences is preserved and downstream laziness
    is only deferred by one bounded chunk.  Inserted by the machine's
    bulking planner for path-free pipelines only.
    """

    capacity: int = 1024
    name = "bulk"

    def apply(self, traversers, ctx):
        from repro import kernels

        if not kernels.vectorized_enabled():
            yield from self._apply_scalar(traversers)
            return
        # Vectorized variant: gather a chunk (flushed when it holds
        # ``capacity`` distinct positions, exactly like the dict path),
        # then merge it with np.unique/bincount when the chunk is uniform
        # (all int objects, one kind, one loop depth) — the shape every
        # frontier of the BFS workloads has.  Mixed chunks fall back to the
        # dict merge; both orders are first-occurrence order.
        chunk: list["Traverser"] = []
        seen: set[tuple[Any, str, int]] = set()
        for traverser in traversers:
            chunk.append(traverser)
            seen.add((traverser.obj, traverser.kind, traverser.loops))
            if len(seen) >= self.capacity:
                yield from self._merge_chunk(chunk)
                chunk = []
                seen = set()
        if chunk:
            yield from self._merge_chunk(chunk)

    def _apply_scalar(self, traversers):
        merged: dict[tuple[Any, str, int], "Traverser"] = {}
        for traverser in traversers:
            key = (traverser.obj, traverser.kind, traverser.loops)
            held = merged.get(key)
            if held is None:
                merged[key] = traverser
                if len(merged) >= self.capacity:
                    yield from merged.values()
                    merged = {}
            else:
                merged[key] = held.with_bulk(held.bulk + traverser.bulk)
        yield from merged.values()

    def _merge_chunk(self, chunk: list["Traverser"]):
        from repro import kernels

        np = kernels.numpy()
        first = chunk[0]
        kind = first.kind
        loops = first.loops
        objs: list[int] = []
        uniform = True
        for traverser in chunk:
            obj = traverser.obj
            if type(obj) is not int or traverser.kind != kind or traverser.loops != loops:
                uniform = False
                break
            objs.append(obj)
        if not uniform:
            return self._apply_scalar(iter(chunk))
        try:
            arr = np.array(objs, dtype=np.int64)
        except OverflowError:
            return self._apply_scalar(iter(chunk))
        unique, first_index, inverse = np.unique(arr, return_index=True, return_inverse=True)
        if unique.size == arr.size:
            return iter(chunk)  # no duplicates: pass walkers through untouched
        bulks = np.bincount(
            inverse, weights=np.array([t.bulk for t in chunk], dtype=np.float64)
        )
        order = np.argsort(first_index, kind="stable")
        merged: list["Traverser"] = []
        for position in order.tolist():
            held = chunk[int(first_index[position])]
            bulk = int(bulks[position])
            merged.append(held if bulk == held.bulk else held.with_bulk(bulk))
        return iter(merged)

    def describe(self) -> str:
        return f"bulk({self.capacity})"


@dataclass
class GroupCountStep(Step):
    """``groupCount()``: reduce the stream to an object -> occurrences map.

    Bulk-aware: a merged traverser contributes its whole multiplicity with
    one dictionary update.
    """

    name = "groupCount"

    def apply(self, traversers, ctx):
        counts: dict[Any, int] = {}
        for traverser in traversers:
            counts[traverser.obj] = counts.get(traverser.obj, 0) + traverser.bulk
            ctx.charge_materialization(traverser.obj, count=traverser.bulk)
        from repro.gremlin.traversal import Traverser  # local import to avoid cycle

        yield Traverser(obj=counts, kind="value", path=(counts,))


@dataclass
class ReachableStep(Step):
    """``reachable(target)``: map each vertex to whether it reaches ``target``.

    The naive form runs the charged BFS oracle per walker — the pipeline a
    paper-style engine executes when no structural index exists.  The
    optimizer rewrites it to :class:`IndexedReachableStep` when the graph
    holds a fresh interval index over ``label``.
    """

    target: Any = None
    label: str | None = None
    name = "reachable"

    def apply(self, traversers, ctx):
        from repro.index.oracle import bfs_reachable  # local import to avoid cycle

        for traverser in traversers:
            answer = bfs_reachable(ctx.graph, traverser.obj, self.target, self.label)
            yield traverser.spawn(answer, kind="value")

    def describe(self) -> str:
        return f"reachable({self.target!r}, label={self.label!r})"


@dataclass
class IndexedReachableStep(Step):
    """``reachable(target)`` answered through the structural interval index.

    Installed by the optimizer only when the graph already holds a fresh
    index over ``label`` — the rewrite never builds one as a query side
    effect, so baseline pipelines keep paying the full BFS.
    """

    target: Any = None
    label: str | None = None
    name = "reachable(indexed)"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            answer = ctx.graph.reachable(traverser.obj, self.target, self.label)
            yield traverser.spawn(answer, kind="value")

    def describe(self) -> str:
        return f"reachable({self.target!r}, label={self.label!r}) [interval index]"


@dataclass
class DescendantsStep(Step):
    """``descendants()``: expand each vertex to everything it reaches.

    Naive form: the charged BFS oracle per walker.  Rewritten to
    :class:`IndexedDescendantsStep` under the same policy as
    :class:`ReachableStep`.
    """

    label: str | None = None
    name = "descendants"

    def apply(self, traversers, ctx):
        from repro.index.oracle import bfs_descendants  # local import to avoid cycle

        for traverser in traversers:
            for vertex in bfs_descendants(ctx.graph, traverser.obj, self.label):
                yield traverser.spawn(vertex, kind="vertex")

    def describe(self) -> str:
        return f"descendants(label={self.label!r})"


@dataclass
class IndexedDescendantsStep(Step):
    """``descendants()`` answered through the structural interval index."""

    label: str | None = None
    name = "descendants(indexed)"

    def apply(self, traversers, ctx):
        for traverser in traversers:
            for vertex in ctx.graph.descendants(traverser.obj, self.label):
                yield traverser.spawn(vertex, kind="vertex")

    def describe(self) -> str:
        return f"descendants(label={self.label!r}) [interval index]"


def build_loop_section(steps: list[Step], loop_step: LoopStep) -> list[Step]:
    """Extract the body of ``loop_step`` from ``steps``.

    Returns the pipeline with the body steps (everything after the matching
    ``as`` marker) moved inside ``loop_step.body_steps``.  Raises
    :class:`QueryError` if the marker is missing.
    """
    for position in range(len(steps) - 1, -1, -1):
        step = steps[position]
        if isinstance(step, AsStep) and step.label == loop_step.label:
            loop_step.body_steps = steps[position + 1 :]
            return steps[: position + 1] + [loop_step]
    raise QueryError(f"loop({loop_step.label!r}) has no matching as({loop_step.label!r}) step")
