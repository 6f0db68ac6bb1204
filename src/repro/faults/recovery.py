"""Per-shard durability: WAL + charged checkpoints + degraded snapshot reads.

Every shard in a chaos run owns a :class:`ShardJournal`: a synchronous
:class:`~repro.storage.wal.WriteAheadLog` that records the shard's progress,
plus a periodically refreshed :class:`ShardSnapshot` (the charged
checkpoint).  Graph queries in this suite are read-only, so the shard's
graph is always its load payload, which the coordinator keeps: a snapshot
is a version stamp over that payload, and recovery is always *possible*.
The journal decides how much it *costs*:

* **crash-restart** — replay the checksum-verified WAL prefix, discard the
  torn suffix (never resurrect half-written records), re-append the
  records past the verified prefix (a tear corrupts a record's checksum,
  not its content), and rebuild a fresh engine from the payload.  Every
  step is charged: snapshot pages read, log records replayed, repairs
  re-appended, the engine reloaded.
* **degraded reads** — when a shard is down past its retry budget, the
  coordinator answers frontier expansions from the payload's adjacency
  lists instead, at a page-read + record-read charge, with staleness
  measured as virtual time since the snapshot's version.
* **snapshot loss** — the one fault with no cheap answer: degraded reads
  become impossible and the executor fails fast with
  :class:`~repro.exceptions.ShardUnavailableError`.  (Recovery proper still
  works — it reads the payload, as it always does.)

"Stale" is a labelled time bound, not wrong data.  The machinery still
matters: it prices exactly what a real system would pay, and the WAL path
is exercised for real — progress records are appended every attempt, torn
by crashes, and verified on replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.model.graph import GraphDatabase
from repro.storage.metrics import StorageMetrics
from repro.storage.wal import DurabilityMode, WriteAheadLog

#: Rows folded into one simulated snapshot page (checkpoint write / read).
SNAPSHOT_ROWS_PER_PAGE = 16


def _pages(rows: int) -> int:
    """Simulated page count for ``rows`` snapshot rows (at least one)."""
    return 1 + rows // SNAPSHOT_ROWS_PER_PAGE


@dataclass
class ShardSnapshot:
    """A charged checkpoint: the version stamp over the shard's payload."""

    #: Virtual time (makespan charge units) at which the checkpoint ran.
    version: int


@dataclass
class RecoveryReport:
    """What one crash-restart produced and what it cost."""

    engine: GraphDatabase
    id_map: dict[Any, Any]
    #: Total charged recovery work (journal reads/writes + engine rebuild).
    charge: int
    #: WAL records whose physical write was torn by the crash (discarded).
    torn_records: int
    #: Records past the verified WAL prefix, re-appended after the truncation.
    repaired_records: int


class ShardJournal:
    """One shard's durability state: WAL, snapshot, and recovery costs."""

    def __init__(self, index: int, payload: dict[str, list[dict[str, Any]]]) -> None:
        self.index = index
        #: The coordinator's copy of the shard's load payload.
        self.payload = payload
        #: Payload rows: what a checkpoint writes and a recovery reads.
        self.rows = len(payload["vertices"]) + len(payload["edges"])
        #: External id -> neighbour external ids in BOTH directions, edge
        #: order: what degraded reads serve while a snapshot exists.
        self.adjacency: dict[Any, list[Any]] = {}
        for row in payload["edges"]:
            self.adjacency.setdefault(row["source"], []).append(row["target"])
            self.adjacency.setdefault(row["target"], []).append(row["source"])
        self.metrics = StorageMetrics(owner=f"shard{index}-journal")
        self.wal = WriteAheadLog(
            name=f"shard{index}-wal", mode=DurabilityMode.SYNC, metrics=self.metrics
        )
        self.snapshot: ShardSnapshot | None = None
        self.checkpoints = 0
        self.recoveries = 0
        self.snapshots_dropped = 0
        # The initial checkpoint is the chaos build cost: a shard is not
        # survivable until its first snapshot exists.
        self.build_charge = self.checkpoint(version=0)

    # -- normal operation --------------------------------------------------

    def record(self, operation: str, payload: dict[str, Any]) -> int:
        """Append one progress record (SYNC: charged now); return the charge."""
        before = self.metrics.logical_io
        self.wal.append(operation, payload)
        return self.metrics.logical_io - before

    def checkpoint(self, version: int) -> int:
        """Refresh the snapshot and truncate the WAL; return the charge.

        Also the path that *restores* a dropped snapshot: the next periodic
        checkpoint makes the shard degraded-servable again.
        """
        before = self.metrics.logical_io
        self.metrics.charge_page_write(_pages(self.rows), self.rows * 64)
        self.wal.truncate()
        self.snapshot = ShardSnapshot(version)
        self.checkpoints += 1
        return self.metrics.logical_io - before

    # -- fault hooks -------------------------------------------------------

    def crash(self, torn: bool) -> int:
        """A crash strikes: optionally tear the last WAL record's write."""
        if torn:
            return self.wal.tear_tail(1)
        return 0

    def drop_snapshot(self) -> None:
        """The snapshot-loss fault: degraded reads now fail fast."""
        if self.snapshot is not None:
            self.snapshot = None
            self.snapshots_dropped += 1

    # -- recovery ----------------------------------------------------------

    def recover(self, engine_factory: Callable[[], GraphDatabase]) -> RecoveryReport:
        """Crash-restart: replay, repair, rebuild.  Everything is charged.

        Replays the checksum-verified WAL prefix, discards the torn suffix,
        re-appends the records past the verified prefix, and rebuilds a
        fresh engine from the payload.  The rebuilt engine's metrics are
        reset after the rebuild so subsequent successful work charges
        exactly like a never-crashed shard — the exactness invariant's
        foundation.
        """
        before = self.metrics.logical_io
        replayed = self.wal.replay()
        lost = self.wal.unverified()
        # Read the base image + the surviving log.
        self.metrics.charge_page_read(_pages(self.rows), self.rows * 64)
        self.metrics.charge_page_read(len(replayed), len(replayed) * 64)

        torn_before = self.wal.torn_discarded
        self.wal.truncate()  # discards the torn suffix, drops the replayed prefix
        torn = self.wal.torn_discarded - torn_before
        for record in lost:
            self.wal.append(record.operation, record.payload)

        engine = engine_factory()
        id_map = engine.load(self.payload["vertices"], self.payload["edges"])
        rebuild_charge = engine.io_cost()
        engine.reset_metrics()

        self.recoveries += 1
        charge = (self.metrics.logical_io - before) + rebuild_charge
        return RecoveryReport(
            engine=engine,
            id_map=id_map,
            charge=charge,
            torn_records=torn,
            repaired_records=len(lost),
        )

    # -- degraded service --------------------------------------------------

    def degraded_neighbors(self, frontier: list[Any]) -> tuple[list[Any], int]:
        """Serve a frontier expansion from the payload's adjacency lists.

        Returns neighbour external ids (duplicates included, caller dedups
        against its distance map — same contract as the live expansion) and
        the charge.  Callers must check :attr:`snapshot` is not ``None``
        first and raise the typed unavailability error if it is.
        """
        assert self.snapshot is not None, "degraded read without a snapshot"
        before = self.metrics.logical_io
        self.metrics.charge_page_read(len(frontier))
        neighbors: list[Any] = []
        for external in frontier:
            adjacent = self.adjacency.get(external, ())
            self.metrics.charge_record_read(len(adjacent))
            neighbors.extend(adjacent)
        return neighbors, self.metrics.logical_io - before

    def staleness(self, now: int) -> int:
        """Virtual time elapsed since the snapshot's checkpoint version."""
        assert self.snapshot is not None, "staleness without a snapshot"
        return max(0, now - self.snapshot.version)
