"""Step-conflation optimizer.

The paper notes that most systems translate Gremlin one step at a time with
no cross-step optimisation, while the relational engine (Sqlg) conflates
adjacent steps into a single SQL statement and thereby wins on selection
queries, and that engines exploit attribute indexes only when the lookup can
be pushed down (Section 6.4).  :func:`optimize` reproduces exactly those two
rewrites and nothing more:

* ``V() + has(key, value)`` becomes a single engine-level property lookup
  when the engine conflates steps (``optimizes_steps``) or when the engine
  has an attribute index on ``key``;
* ``E() + has('label', l)`` becomes a single label lookup for step-conflating
  engines (a per-label edge table scan in the relational engine);
* **count pushdown** — a whole-stream ``count()`` over a bare scan becomes
  one native operation (``V().count()`` -> ``vertex_count()``, ``E().count()``
  -> ``edge_count()``, ``E().has('label', l).count()`` -> a label-scan
  count) for step-conflating engines and for engines that answer counts from
  native structures (``conflates_counts``, the bitmap engine's population
  counts);
* **structural-index routing** — ``reachable()`` / ``descendants()`` steps
  are answered through the interval reachability index
  (:mod:`repro.index`) when — and only when — the graph already holds a
  fresh index over the step's label.  The rewrite never builds an index as
  a query side effect.

Engines that, like the paper's Neo4j/Sparksee/BlazeGraph adapters, evaluate
steps one by one keep the naive pipeline.
"""

from __future__ import annotations

from repro.gremlin import steps as S
from repro.model.graph import GraphDatabase

#: Engine attribute consulted to decide whether steps may be conflated.
_OPTIMIZES_ATTR = "optimizes_steps"


def engine_optimizes(graph: GraphDatabase) -> bool:
    """True if the engine translates step chains into native queries."""
    if getattr(graph, _OPTIMIZES_ATTR, False):
        return True
    query_execution = getattr(getattr(graph, "info", None), "query_execution", "")
    return "optimized" in query_execution.lower() and "non-optimized" not in query_execution.lower()


def engine_conflates_counts(graph: GraphDatabase) -> bool:
    """True if whole-stream counts may be pushed down to native operations."""
    return engine_optimizes(graph) or bool(getattr(graph, "conflates_counts", False))


def _index_routable(graph: GraphDatabase, label: str | None) -> bool:
    """True if the graph holds a *fresh* structural index over ``label``.

    The routing predicate never builds an index: queries only benefit after
    someone explicitly called ``graph.structural_index(label)``, so baseline
    and unindexed runs keep their full BFS charges.
    """
    predicate = getattr(graph, "has_structural_index", None)
    return predicate is not None and predicate(label)


def optimize(
    graph: GraphDatabase,
    steps: list[S.Step],
    baseline: bool = False,
) -> list[S.Step]:
    """Return the (possibly rewritten) step pipeline for ``graph``.

    ``baseline`` disables the count rewrite and the structural-index
    rewrite (the baseline executor's before/after benchmarking); step
    conflation and attribute-index lookups stay.
    """
    conflating = engine_optimizes(graph)
    rewritten: list[S.Step] = []
    position = 0
    while position < len(steps):
        step = steps[position]
        if not baseline and isinstance(step, S.ReachableStep) and _index_routable(graph, step.label):
            rewritten.append(S.IndexedReachableStep(target=step.target, label=step.label))
            position += 1
            continue
        if not baseline and isinstance(step, S.DescendantsStep) and _index_routable(graph, step.label):
            rewritten.append(S.IndexedDescendantsStep(label=step.label))
            position += 1
            continue
        following = steps[position + 1] if position + 1 < len(steps) else None
        if (
            isinstance(step, S.VStep)
            and not step.ids
            and isinstance(following, S.HasStep)
            and following.key != "label"
            and (conflating or graph.has_vertex_index(following.key))
        ):
            rewritten.append(S.IndexedVertexLookupStep(key=following.key, value=following.value))
            position += 2
            continue
        if (
            isinstance(step, S.EStep)
            and not step.ids
            and isinstance(following, S.HasStep)
            and following.key == "label"
            and conflating
        ):
            rewritten.append(S.EdgeLabelLookupStep(label=following.value))
            position += 2
            continue
        rewritten.append(step)
        position += 1
    if not baseline and engine_conflates_counts(graph):
        rewritten = _push_down_counts(rewritten)
    return rewritten


def _push_down_counts(steps: list[S.Step]) -> list[S.Step]:
    """Rewrite whole-stream counts over bare scans into native count steps."""
    if len(steps) == 2 and isinstance(steps[1], S.CountStep):
        head = steps[0]
        if isinstance(head, S.VStep) and not head.ids:
            return [S.NativeCountStep(source="V")]
        if isinstance(head, S.EStep) and not head.ids:
            return [S.NativeCountStep(source="E")]
        if isinstance(head, S.EdgeLabelLookupStep):
            return [S.NativeCountStep(source="E-label", label=head.label)]
    if (
        len(steps) == 3
        and isinstance(steps[2], S.CountStep)
        and isinstance(steps[0], S.EStep)
        and not steps[0].ids
        and isinstance(steps[1], S.HasStep)
        and steps[1].key == "label"
    ):
        # Engines with conflates_counts but no step conflation (the bitmap
        # engine) still see the raw E().has('label', l) pair here.
        return [S.NativeCountStep(source="E-label", label=steps[1].value)]
    return steps
