"""The fluent Gremlin-style traversal builder.

:class:`GraphTraversal` is the public query surface of the library: it mimics
the Gremlin 2.6 syntax used in the paper's Table 2 closely enough that each
test query reads almost identically to its Gremlin original, e.g.::

    g.traversal().V().filter(lambda graph, v: graph.degree(v) >= 10).count()
    g.traversal().V(v).as_("i").both().except_(seen).store(seen).loop("i", depth(3)).to_list()

A traversal is lazily built as a list of steps and only executed by a
terminal call (``to_list``, ``count``, ``next`` ...), at which point the
:class:`~repro.gremlin.machine.TraversalMachine` runs it against the bound
engine, applying the step-conflation optimizer when the engine supports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.exceptions import QueryError
from repro.gremlin import steps as S
from repro.model.elements import Direction
from repro.model.graph import GraphDatabase


@dataclass(frozen=True, slots=True)
class Traverser:
    """A single walker flowing through the step pipeline.

    Attributes
    ----------
    obj:
        The current object: a vertex id, an edge id, or a computed value.
    kind:
        ``"vertex"``, ``"edge"``, ``"value"``, or ``"start"``.
    path:
        The sequence of objects visited so far (used by ``path()``), or
        ``None`` when the pre-execution pipeline analysis decided that no
        step needs paths — path-free pipelines never allocate path tuples.
    loops:
        Number of loop iterations survived (used by ``loop()``).
    bulk:
        How many identical walkers this traverser stands for.  The machine
        merges traversers positioned at the same object, so reducing steps
        (``count``, ``groupCount``, ``dedup``) operate on multiplicities
        instead of O(result) Python objects.
    """

    obj: Any
    kind: str = "start"
    path: tuple[Any, ...] | None = ()
    loops: int = 0
    bulk: int = 1

    def spawn(self, obj: Any, kind: str) -> "Traverser":
        """Create a child traverser positioned at ``obj``."""
        path = self.path
        if path is not None:
            path = path + (obj,)
        child = object.__new__(Traverser)
        _set = object.__setattr__
        _set(child, "obj", obj)
        _set(child, "kind", kind)
        _set(child, "path", path)
        _set(child, "loops", self.loops)
        _set(child, "bulk", self.bulk)
        return child

    def with_loops(self, loops: int) -> "Traverser":
        child = object.__new__(Traverser)
        _set = object.__setattr__
        _set(child, "obj", self.obj)
        _set(child, "kind", self.kind)
        _set(child, "path", self.path)
        _set(child, "loops", loops)
        _set(child, "bulk", self.bulk)
        return child

    def with_bulk(self, bulk: int) -> "Traverser":
        child = object.__new__(Traverser)
        _set = object.__setattr__
        _set(child, "obj", self.obj)
        _set(child, "kind", self.kind)
        _set(child, "path", self.path)
        _set(child, "loops", self.loops)
        _set(child, "bulk", bulk)
        return child

    def previous_vertex(self) -> Any:
        """Return the last vertex visited before the current object."""
        if not self.path:
            return None
        for element in reversed(self.path[:-1]):
            return element
        return None


class GraphTraversal:
    """Fluent builder for Gremlin-style traversals over one engine."""

    def __init__(self, graph: GraphDatabase, steps: list[S.Step] | None = None) -> None:
        self.graph = graph
        self._steps: list[S.Step] = steps or []

    # -- plumbing ------------------------------------------------------------

    def _append(self, step: S.Step) -> "GraphTraversal":
        self._steps.append(step)
        return self

    @property
    def steps(self) -> list[S.Step]:
        """The step pipeline built so far."""
        return list(self._steps)

    def explain(self) -> str:
        """Return a one-line description of the (unoptimised) pipeline."""
        return " -> ".join(step.describe() for step in self._steps)

    def at_version(self, ref: Any = "HEAD") -> "GraphTraversal":
        """Re-root this traversal at a named version of the bound graph.

        Must be called before any step is added: the whole pipeline runs
        against the historical view, and mixing live and as-of steps in
        one pipeline has no coherent snapshot.  The view mirrors the
        engine's planner surface, so the optimizer builds the same plan
        it would for the live graph — the as-of differential contract
        depends on that.
        """
        if self._steps:
            raise QueryError(
                "at_version() must come before any traversal step; "
                "call it directly on g.traversal()"
            )
        return GraphTraversal(self.graph.at_version(ref))

    # -- start steps ------------------------------------------------------------

    def V(self, *ids: Any) -> "GraphTraversal":  # noqa: N802 - Gremlin naming
        """Start from every vertex, or from the given vertex ids."""
        return self._append(S.VStep(ids=tuple(ids)))

    def E(self, *ids: Any) -> "GraphTraversal":  # noqa: N802 - Gremlin naming
        """Start from every edge, or from the given edge ids."""
        return self._append(S.EStep(ids=tuple(ids)))

    # -- filters --------------------------------------------------------------

    def has(self, key: str, value: Any) -> "GraphTraversal":
        """Keep elements whose property (or label, via key='label') equals ``value``."""
        return self._append(S.HasStep(key=key, value=value))

    def has_label(self, label: str) -> "GraphTraversal":
        """Keep elements with the given label."""
        return self.has("label", label)

    def filter(self, predicate: Callable[[Any, Any], bool], label: str = "lambda") -> "GraphTraversal":
        """Keep elements for which ``predicate(graph, element_id)`` is true."""
        return self._append(S.FilterStep(predicate=predicate, label=label))

    def dedup(self) -> "GraphTraversal":
        """Drop duplicate elements."""
        return self._append(S.DedupStep())

    def limit(self, count: int) -> "GraphTraversal":
        """Keep only the first ``count`` results."""
        return self._append(S.LimitStep(count=count))

    def order(self, key: Callable[[Any, Any], Any] | None = None, reverse: bool = False) -> "GraphTraversal":
        """Sort the stream (materialising it) by ``key(graph, obj)``."""
        return self._append(S.OrderStep(key=key, reverse=reverse))

    def except_(self, collection: Iterable[Any]) -> "GraphTraversal":
        """Drop elements contained in ``collection`` (evaluated lazily)."""
        return self._append(S.ExceptStep(collection=collection))

    def retain(self, collection: Iterable[Any]) -> "GraphTraversal":
        """Keep only elements contained in ``collection``."""
        return self._append(S.RetainStep(collection=collection))

    # -- traversal steps -----------------------------------------------------------

    def out(self, *labels: str) -> "GraphTraversal":
        """Move to vertices reachable over outgoing edges."""
        return self._append(S.TraversalStep(direction=Direction.OUT, labels=labels))

    def in_(self, *labels: str) -> "GraphTraversal":
        """Move to vertices reachable over incoming edges."""
        return self._append(S.TraversalStep(direction=Direction.IN, labels=labels))

    def both(self, *labels: str) -> "GraphTraversal":
        """Move to vertices adjacent in either direction."""
        return self._append(S.TraversalStep(direction=Direction.BOTH, labels=labels))

    def out_e(self, *labels: str) -> "GraphTraversal":
        """Move to outgoing incident edges."""
        return self._append(S.IncidentEdgesStep(direction=Direction.OUT, labels=labels))

    def in_e(self, *labels: str) -> "GraphTraversal":
        """Move to incoming incident edges."""
        return self._append(S.IncidentEdgesStep(direction=Direction.IN, labels=labels))

    def both_e(self, *labels: str) -> "GraphTraversal":
        """Move to incident edges in either direction."""
        return self._append(S.IncidentEdgesStep(direction=Direction.BOTH, labels=labels))

    def out_v(self) -> "GraphTraversal":
        """Move from edges to their source vertices."""
        return self._append(S.EdgeVertexStep(which="out"))

    def in_v(self) -> "GraphTraversal":
        """Move from edges to their target vertices."""
        return self._append(S.EdgeVertexStep(which="in"))

    def other_v(self) -> "GraphTraversal":
        """Move from edges to the endpoint not visited last."""
        return self._append(S.EdgeVertexStep(which="other"))

    def reachable(self, target: Any, label: str | None = None) -> "GraphTraversal":
        """Map each vertex to whether it reaches ``target`` over out-edges.

        Optionally restricted to edges with ``label``.  Runs the charged
        BFS unless the optimizer routes it to a fresh structural index
        (see :meth:`~repro.model.graph.GraphDatabase.structural_index`).
        """
        return self._append(S.ReachableStep(target=target, label=label))

    def descendants(self, label: str | None = None) -> "GraphTraversal":
        """Expand each vertex to every vertex it reaches over out-edges."""
        return self._append(S.DescendantsStep(label=label))

    # -- element projections -----------------------------------------------------------

    def label(self) -> "GraphTraversal":
        """Map elements to their label."""
        return self._append(S.LabelStep())

    def values(self, key: str) -> "GraphTraversal":
        """Map elements to the value of property ``key`` (dropping misses)."""
        return self._append(S.ValuesStep(key=key))

    def id(self) -> "GraphTraversal":
        """Map elements to their identifier."""
        return self._append(S.IdStep())

    def path(self) -> "GraphTraversal":
        """Map each traverser to the path of objects it visited."""
        return self._append(S.PathStep())

    # -- side effects & loops -----------------------------------------------------------

    def as_(self, name: str) -> "GraphTraversal":
        """Label the current position for a later ``loop(name)``."""
        return self._append(S.AsStep(label=name))

    def store(self, collection: set) -> "GraphTraversal":
        """Add every element passing through to ``collection`` (a set)."""
        return self._append(S.SideEffectStoreStep(collection=collection))

    def loop(
        self,
        name: str,
        while_condition: Callable[[int, Any, Any], bool],
        emit_all: bool = False,
        max_loops: int = 64,
    ) -> "GraphTraversal":
        """Repeat the section starting at ``as_(name)`` while the condition holds.

        ``while_condition`` receives ``(loops, current_object, graph)``.  With
        ``emit_all`` every intermediate traverser is emitted (breadth-first
        collection); otherwise only traversers that stop looping are emitted.
        """
        loop_step = S.LoopStep(
            label=name,
            while_condition=while_condition,
            emit_all=emit_all,
            max_loops=max_loops,
        )
        self._steps = S.build_loop_section(self._steps, loop_step)
        return self

    def group_count(self) -> "GraphTraversal":
        """Reduce the stream to a ``{object: occurrences}`` dictionary."""
        return self._append(S.GroupCountStep())

    # -- terminals -----------------------------------------------------------

    def _run(self, require_paths: bool = False) -> Iterator[Traverser]:
        from repro.gremlin.machine import TraversalMachine

        machine = TraversalMachine(self.graph)
        return machine.run(self._steps, require_paths=require_paths)

    def traversers(self) -> Iterator[Traverser]:
        """Execute the pipeline and yield raw (possibly bulked) traversers."""
        return self._run()

    def __iter__(self) -> Iterator[Any]:
        for traverser in self._run():
            if traverser.bulk == 1:
                yield traverser.obj
            else:
                # A bulked traverser stands for `bulk` identical results.
                obj = traverser.obj
                for _ in range(traverser.bulk):
                    yield obj

    def to_list(self) -> list[Any]:
        """Execute the pipeline and return the resulting objects as a list."""
        return list(self)

    def to_set(self) -> set[Any]:
        """Execute the pipeline and return the distinct resulting objects."""
        return set(self)

    def count(self) -> int:
        """Execute the pipeline and return the number of results.

        Runs through :class:`~repro.gremlin.steps.CountStep`, so the
        optimizer can push whole-stream counts down to native engine
        operations (``V().count()`` -> ``vertex_count()`` and friends).
        """
        counted = GraphTraversal(self.graph, self._steps + [S.CountStep()])
        return counted.next()

    def next(self) -> Any:
        """Execute the pipeline and return the first result.

        Raises :class:`QueryError` when the traversal produces nothing.
        """
        for obj in self:
            return obj
        raise QueryError("traversal produced no results")

    def first(self, default: Any = None) -> Any:
        """Execute the pipeline and return the first result or ``default``."""
        for obj in self:
            return obj
        return default

    def iterate(self) -> None:
        """Execute the pipeline purely for its side effects."""
        for _obj in self:
            pass

    def paths(self) -> list[tuple[Any, ...]]:
        """Execute the pipeline and return the visited path of each result."""
        return [traverser.path for traverser in self._run(require_paths=True)]
