"""The traversal evaluation machine.

The machine takes a step pipeline built by
:class:`~repro.gremlin.traversal.GraphTraversal`, optionally rewrites it with
the :mod:`~repro.gremlin.optimizer` (step conflation and count pushdown for
engines that translate step chains into native queries), and then streams
traversers through the steps.

Execution model
---------------

The machine borrows two TinkerPop-style optimisations that the paper's fast
systems apply natively and the slow ones do not:

* **Lazy path tracking** — before execution, :func:`requires_path` analyses
  the pipeline; only pipelines containing ``path()`` / ``otherV()`` (or run
  through the ``paths()`` terminal) extend the per-walker ``path`` tuple.
  Everything else runs path-free: at BFS depth *d* this removes the O(d**2)
  tuple allocations per walker that path copying would otherwise cost.
* **Bulking** — for path-free pipelines the machine merges traversers
  positioned at the same object into one traverser with a ``bulk``
  multiplicity (:class:`~repro.gremlin.steps.BulkMergeStep` after expanding
  steps, plus per-round frontier merging inside ``loop()``), and adjacency
  steps expand whole frontier batches through the engine's bulk primitives
  (``neighbors_many`` / ``edges_for_many``).  Merging is suppressed when a
  downstream ``except``/``store`` pair would observe different multiplicity
  (the lazy BFS dedup idiom), so results are always the same multiset the
  per-walker machine produces.

Bulk-primitive semantics the machine relies on
----------------------------------------------

Adjacency steps hand the engine a frontier chunk of *unique* vertex ids
(``_unique_chunks`` closes a chunk on the first repeat) and expect
``neighbors_many`` / ``edges_for_many`` to yield ``(source, result)``
pairs **grouped by source in input order**.  Two machine behaviours
depend on that ordering:

* expanded walkers are matched back to their parent by ``source``, so an
  interleaved or re-grouped stream would attach results to the wrong
  walker (wrong paths, wrong loop counters);
* the fused BFS body (``both().except_(x).store(x)`` →
  :class:`~repro.gremlin.steps.FusedExpandExceptStoreStep`) applies its
  except/store pair *while the engine generator is live* — which source
  gets credited with discovering a node, and therefore the whole BFS
  tree, is determined by the pair order.  The per-id fallback defines the
  reference sequence; every override must reproduce it.

Cost-model contract: the bulk *primitives* charge exactly the logical I/O
of the equivalent per-id calls — charge parity, enforced counter-for-
counter by ``tests/engines/test_bulk_primitives.py`` (frontier batching
removes interpreter overhead, never simulated disk work) — and memory
materialisations are charged per *represented* walker (``count=bulk``),
so queries building huge intermediate results still fail the way they did
in the paper.  Bulk
*merging*, however, is a genuine plan optimisation: once duplicate walkers
collapse into one multiplicity, a later adjacency step expands each
position once instead of once per duplicate — duplicate-heavy path-free
pipelines therefore charge *less* I/O than the per-walker executor, exactly
as TinkerPop bulking and the paper's step-conflating systems do.  Pipelines
without merged duplicates (including every plan the optimizer leaves
untouched on a single-hop or BFS dedup shape) charge identically.

For before/after measurements, :func:`baseline_execution` switches the
machine back to the pre-bulking executor (paths always tracked, per-walker
expansion, no count pushdown); ``graphbench traversal`` uses it to emit
``BENCH_traversal.json``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

from repro.gremlin import steps as S
from repro.gremlin.optimizer import optimize
from repro.gremlin.traversal import Traverser
from repro.model.graph import GraphDatabase

#: Module-level switch used by the traversal A/B benchmark to time the legacy
#: (pre-bulking) executor against the optimized one.
_BASELINE_MODE = False


@contextmanager
def baseline_execution():
    """Run every traversal with the legacy per-walker executor.

    Inside this context the machine always tracks paths, never bulks or
    batches frontiers, and skips count pushdown — reproducing the seed
    executor for A/B benchmarking.
    """
    global _BASELINE_MODE
    previous = _BASELINE_MODE
    _BASELINE_MODE = True
    try:
        yield
    finally:
        _BASELINE_MODE = previous


def requires_path(steps: list[S.Step]) -> bool:
    """True if any step in the pipeline (or a loop body) needs walker paths."""
    for step in steps:
        if isinstance(step, S.PathStep):
            return True
        if isinstance(step, S.EdgeVertexStep) and step.which == "other":
            return True
        if isinstance(step, S.LoopStep) and requires_path(step.body_steps):
            return True
    return False


#: Steps whose semantics depend on observing each duplicate separately when
#: paired (the lazy ``except``/``store`` BFS dedup): merging upstream of them
#: would change result multiplicity, so bulking is suppressed.
_MERGE_HAZARDS = (S.SideEffectStoreStep, S.ExceptStep)


def _contains_merge_hazard(steps: list[S.Step]) -> bool:
    for step in steps:
        if isinstance(step, _MERGE_HAZARDS):
            return True
        if isinstance(step, S.LoopStep) and _contains_merge_hazard(step.body_steps):
            return True
    return False


#: Steps that expand the stream (one input walker -> many outputs); bulking
#: after them collapses the fan-out.
_EXPANDING_STEPS = (S.TraversalStep, S.IncidentEdgesStep, S.EdgeVertexStep)


def batching_is_safe(steps: list[S.Step]) -> bool:
    """True if adjacency steps may gather frontier chunks before expanding.

    Batching defers upstream side effects by one bounded chunk.  That is
    only observable when a ``store()`` feeds walkers *into* an expanding
    step whose output is later filtered by ``except()`` against the same
    (still growing) collection — the chunk would see more stored objects
    than the per-walker stream.  The common BFS idiom
    (``both().except_(x).store(x)``) keeps ``store`` downstream of the
    expansion and stays safe.

    A loop materialises its input before the first round, so a store
    *upstream* of it is fully drained either way; but a store *inside* the
    body keeps growing while the loop emits, so for the rest of the
    enclosing segment the loop counts as a live store.
    """
    return _scan_segment(steps)[0]


def _scan_segment(steps: list[S.Step]) -> tuple[bool, bool]:
    """Return ``(safe, contains_store)`` for one pipeline segment."""
    store_seen = False
    expanded_after_store = False
    for step in steps:
        if isinstance(step, S.LoopStep):
            body_safe, body_store = _scan_segment(step.body_steps)
            if not body_safe:
                return False, True
            if body_store:
                store_seen = True
        elif isinstance(step, S.SideEffectStoreStep):
            store_seen = True
        elif isinstance(step, _EXPANDING_STEPS):
            expanded_after_store = store_seen
        elif isinstance(step, S.ExceptStep) and expanded_after_store:
            return False, store_seen
    return True, store_seen

#: Steps that profit from receiving a merged stream: they do per-traverser
#: graph work or further expansion, so fewer traversers means fewer calls.
_MERGE_CONSUMERS = (
    S.TraversalStep,
    S.IncidentEdgesStep,
    S.EdgeVertexStep,
    S.HasStep,
    S.FilterStep,
    S.ValuesStep,
    S.LabelStep,
)


def _fuse_loop_body(body: list[S.Step]) -> list[S.Step]:
    """Conflate the BFS body ``adjacent -> except -> store`` into one step."""
    if (
        len(body) == 3
        and isinstance(body[0], S.TraversalStep)
        and len(body[0].labels) <= 1
        and isinstance(body[1], S.ExceptStep)
        and isinstance(body[2], S.SideEffectStoreStep)
    ):
        expand = body[0]
        return [
            S.FusedExpandExceptStoreStep(
                direction=expand.direction,
                label=expand.labels[0] if expand.labels else None,
                except_collection=body[1].collection,
                store_collection=body[2].collection,
            )
        ]
    return body


def plan_pipeline(pipeline: list[S.Step], tracking: bool, batching: bool) -> list[S.Step]:
    """Plan the executable pipeline: fuse loop bodies, insert frontier merges.

    Loop steps are shallow-copied (the builder's step list is never
    mutated).  Fusion applies whenever batching is allowed; bulk merges
    apply only to path-free pipelines, and only where no downstream
    ``except``/``store`` pair could observe the changed multiplicity — a
    :class:`~repro.gremlin.steps.BulkMergeStep` goes after each expanding
    step whose successor performs per-traverser work, and loops merge their
    round frontiers under the same hazard rule (a hazard *inside* the body
    already deduplicates the frontier, so round merging stays safe there).
    """
    planned: list[S.Step] = []
    for position, step in enumerate(pipeline):
        suffix = pipeline[position + 1 :]
        if isinstance(step, S.LoopStep):
            step = replace(
                step,
                body_steps=_fuse_loop_body(step.body_steps) if batching else step.body_steps,
                merge_frontiers=not tracking and not _contains_merge_hazard(suffix),
            )
        planned.append(step)
        if (
            not tracking
            and isinstance(step, _EXPANDING_STEPS)
            and suffix
            and isinstance(suffix[0], _MERGE_CONSUMERS)
            and not _contains_merge_hazard(suffix)
        ):
            planned.append(S.BulkMergeStep())
    return planned


@dataclass
class TraversalContext:
    """Execution context handed to every step."""

    graph: GraphDatabase
    #: Whether walkers extend their ``path`` tuple (decided per pipeline).
    path_tracking: bool = True
    #: Whether steps may batch frontiers through the engine bulk primitives.
    batching: bool = True
    #: Cached ``graph.metrics`` (None for engines without metrics).
    metrics: Any = None

    def __post_init__(self) -> None:
        self.metrics = getattr(self.graph, "metrics", None)

    def charge_materialization(self, obj: Any, count: int = 1) -> None:
        """Charge an intermediate object against the engine's memory budget.

        ``count`` charges one object on behalf of ``count`` merged walkers,
        keeping memory accounting identical to the unbulked stream.
        """
        if self.metrics is not None:
            size = sys.getsizeof(obj, 64)
            self.metrics.allocate(count * (size if size > 16 else 16))


class TraversalMachine:
    """Evaluates a step pipeline against one engine."""

    def __init__(self, graph: GraphDatabase) -> None:
        self.graph = graph
        self.context = TraversalContext(graph=graph)

    def run(self, steps: list[S.Step], require_paths: bool = False) -> Iterator[Traverser]:
        """Optimize (when the engine supports it) and execute ``steps``.

        ``require_paths`` forces path tracking on (used by the ``paths()``
        terminal, which reads walker paths without a ``path()`` step).
        """
        baseline = _BASELINE_MODE
        pipeline = optimize(
            self.graph, steps, count_pushdown=not baseline, index_routing=not baseline
        )
        tracking = baseline or require_paths or requires_path(pipeline)
        batching = not baseline and batching_is_safe(pipeline)
        self.context.path_tracking = tracking
        self.context.batching = batching
        if not baseline:
            pipeline = plan_pipeline(pipeline, tracking, batching)
        start = Traverser(obj=None, kind="start", path=() if tracking else None)
        stream: Iterator[Traverser] = iter([start])
        for step in pipeline:
            stream = step.apply(stream, self.context)
        return stream
