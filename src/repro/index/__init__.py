"""Structural reachability indexing (the XPath-accelerator trick).

The paper's query classes pay a full charged BFS for every reachability
question.  This package adds an *interval-labelled* structural index over
the label-induced subgraph: a pre/post-order DFS labelling of every
tree-shaped weakly-connected component, so ``reachable(src, dst)`` inside a
tree answers with one interval containment and ``descendants(src)`` with
one slice of the preorder array.  Non-tree regions (shared children,
cycles) keep the charged BFS as a correctness-preserving fallback, and any
structural mutation invalidates the index through the engine's structure
version.

Modules
-------

``oracle``
    The charged BFS reference implementation — the ground truth the index
    is differentially tested against, and its own fallback path.
``interval``
    :class:`IntervalReachabilityIndex`: the charged build pass, the
    interval queries, and staleness detection.
``manager``
    :class:`StructuralIndexManager`: per-database cache with lazy rebuild,
    reached through ``GraphDatabase.structural_index()``.
``generators``
    Seeded graph-shape generators (tree, dag, cyclic, disconnected) shared
    by the oracle test suite and the reachability benchmark.
``bench`` / ``report``
    ``graphbench reachability`` → ``BENCH_reachability.json`` + fig14.
"""

from repro.index.interval import IndexStats, IntervalReachabilityIndex
from repro.index.manager import StructuralIndexManager
from repro.index.oracle import bfs_descendants, bfs_reachable

__all__ = [
    "IndexStats",
    "IntervalReachabilityIndex",
    "StructuralIndexManager",
    "bfs_descendants",
    "bfs_reachable",
    "format_reachability_report",
    "run_reachability_benchmark",
]


def __getattr__(name: str):
    # Bench/report symbols import lazily so `repro.index` stays cheap for
    # the query path (the bench pulls in dataset loading and the CLI stack).
    if name in __all__:
        from repro.index import bench, report

        for module in (bench, report):
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
