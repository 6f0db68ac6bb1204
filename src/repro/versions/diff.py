"""Structural diff between two commits of the same graph.

The walk never scans either full graph.  A key's state at snapshot
``lo`` can only differ from its state at snapshot ``hi`` if some version
mark — a commit/create/remove timestamp or an undo entry — landed in the
window ``(lo, hi]``, so the candidate set is exactly
``VersionStore.keys_touched_between(lo, hi)`` — one pass over the
store's mark maps, and no pass at all when both commits share a snapshot.
Both endpoints stay pinned for the duration (``catalog.view`` refuses
released commits), which is what guarantees the window's marks were
captured and not yet reclaimed.

Charging: the walk charges one record read per candidate visited to its
own ``version-diff`` metrics sink, and additionally reports the engine
I/O the two as-of views charged while materialising element states
(undo-chain states come from RAM and charge nothing; current states cost
whatever the live engine charges).  ``VersionDiff.charge`` is the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ElementNotFoundError
from repro.storage.metrics import StorageMetrics
from repro.versions.catalog import Commit, HistoricalView, VersionCatalog

#: Classification values a :class:`DiffEntry` can carry.
CHANGES = ("added", "removed", "changed")


@dataclass
class DiffEntry:
    """One element that differs between the two commits."""

    kind: str  # "vertex" | "edge"
    obj_id: Any
    change: str  # one of CHANGES
    before: dict[str, Any] | None  # None when added
    after: dict[str, Any] | None  # None when removed

    def key(self) -> tuple[str, str]:
        return (self.kind, self.change)


@dataclass
class VersionDiff:
    """The result of a structural diff walk (entries plus walk accounting)."""

    base_id: int
    target_id: int
    base_ts: int
    target_ts: int
    entries: list[DiffEntry] = field(default_factory=list)
    candidates: int = 0
    visited: int = 0
    walk_charge: int = 0
    engine_charge: int = 0

    @property
    def charge(self) -> int:
        """Total logical I/O the diff cost (walk sink + engine materialisation)."""
        return self.walk_charge + self.engine_charge

    def count(self, kind: str, change: str) -> int:
        return sum(1 for entry in self.entries if entry.key() == (kind, change))

    def summary(self) -> dict[str, Any]:
        """Deterministic counters for reports and regression gates."""
        out: dict[str, Any] = {
            "base": self.base_id,
            "target": self.target_id,
            "entries": len(self.entries),
            "candidates": self.candidates,
            "visited": self.visited,
            "walk_charge": self.walk_charge,
            "engine_charge": self.engine_charge,
            "charge": self.charge,
        }
        for kind in ("vertex", "edge"):
            for change in CHANGES:
                out[f"{kind}_{change}"] = self.count(kind, change)
        return out


def _materialize(view: HistoricalView, kind: str, obj_id: Any) -> dict[str, Any] | None:
    """The element's full state as-of the view, or None if absent there."""
    try:
        if kind == "vertex":
            vertex = view.vertex(obj_id)
            return {"label": vertex.label, "properties": dict(vertex.properties)}
        edge = view.edge(obj_id)
        return {
            "label": edge.label,
            "source": edge.source,
            "target": edge.target,
            "properties": dict(edge.properties),
        }
    except ElementNotFoundError:
        return None


def structural_diff(catalog: VersionCatalog, base_ref: Any, target_ref: Any) -> VersionDiff:
    """Diff two retained commits; see the module docstring for the contract.

    ``before``/``after`` states are oriented by commit order (``base`` →
    ``target``), regardless of which side is passed first.
    """
    base = catalog.resolve(base_ref)
    target = catalog.resolve(target_ref)
    base_view = catalog.view(base)
    target_view = catalog.view(target)
    lo, hi = sorted((base.snapshot_ts, target.snapshot_ts))
    candidates = catalog.manager.store.keys_touched_between(lo, hi)
    metrics = StorageMetrics(owner="version-diff")
    engine_before = catalog.engine.io_cost()
    diff = VersionDiff(
        base_id=base.id,
        target_id=target.id,
        base_ts=base.snapshot_ts,
        target_ts=target.snapshot_ts,
        candidates=len(candidates),
    )
    for kind, obj_id in candidates:
        diff.visited += 1
        metrics.charge_record_read(1)
        before = _materialize(base_view, kind, obj_id)
        after = _materialize(target_view, kind, obj_id)
        if before == after:
            # A mark in the window does not force a visible difference
            # (e.g. the endpoint vertex of an added edge, or a value set
            # back to itself); honest walks still pay the visit.
            continue
        if before is None:
            change = "added"
        elif after is None:
            change = "removed"
        else:
            change = "changed"
        diff.entries.append(DiffEntry(kind, obj_id, change, before, after))
    diff.walk_charge = metrics.logical_io
    diff.engine_charge = catalog.engine.io_cost() - engine_before
    return diff
