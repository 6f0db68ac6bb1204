"""Time travel and graph versioning over the MVCC store.

Public surface:

* :class:`VersionCatalog` — commits, tags, retention, diff (one per
  engine, via :meth:`~repro.model.graph.GraphDatabase.versions`);
* :meth:`~repro.model.graph.GraphDatabase.at_version` — a read-only
  :class:`HistoricalView` any existing query or traversal runs against;
* :func:`structural_diff` / :class:`VersionDiff` — charged structural
  diff between two retained commits;
* :func:`run_versions_benchmark` / :func:`format_versions_report` — the
  ``graphbench versions`` sweep (chain depth × query mix × retention).
"""

from repro.versions.catalog import (
    HEAD,
    RETENTION_POLICIES,
    Commit,
    HistoricalView,
    RefStore,
    VersionCatalog,
)
from repro.versions.diff import CHANGES, DiffEntry, VersionDiff, structural_diff

__all__ = [
    "HEAD",
    "RETENTION_POLICIES",
    "CHANGES",
    "Commit",
    "HistoricalView",
    "RefStore",
    "VersionCatalog",
    "DiffEntry",
    "VersionDiff",
    "structural_diff",
    "run_versions_benchmark",
    "format_versions_report",
]


def __getattr__(name: str):
    # The bench module imports engines/report machinery; load it lazily so
    # `import repro.versions` stays cheap for library users.
    if name == "run_versions_benchmark":
        from repro.versions.bench import run_versions_benchmark

        return run_versions_benchmark
    if name == "format_versions_report":
        from repro.versions.report import format_versions_report

        return format_versions_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
