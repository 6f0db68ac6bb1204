"""The charged replication log: commits become shippable, applyable records.

Every mutating commit on a primary appends one
:class:`ReplicationRecord` carrying the commit timestamp, the virtual
time it happened at (:class:`~repro.concurrency.scheduler.StalenessClock`
reading), the cache keys it dirtied, and its operation count.  Replicas
consume the log in batches: shipping and applying are charged at the
prices below (:func:`batch_apply_cost`), and the *age of the oldest unapplied
record* is the replica's staleness — the quantity the routing tier
compares against the staleness bound.

The log is pure RAM bookkeeping plus explicit charges; it never touches
the engine, so base CUD charges on the replicated path stay byte-identical
to the primary-only path (the differential harness's contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


# Charge prices for feeding replicas, mirroring NetworkCostModel.  All
# integers, all reported in the benchmark payload via :func:`params` —
# changing any of them shows up in the byte-exact CI gate as a deliberate
# diff, never as noise.

#: Primary-side charge to append one commit's record to the log.
APPEND_PER_RECORD = 1
#: Per-batch latency a replica pays to fetch pending records.
SHIP_LATENCY_PER_BATCH = 8
#: Per-record wire charge within a shipped batch.
SHIP_PER_RECORD = 2
#: Per-operation charge to apply a record into the replica's snapshot
#: (moving the pin and dropping dirty cache entries is the real work; the
#: MVCC overlay itself needs no data copy).
APPLY_PER_OP = 1


def batch_apply_cost(records: list["ReplicationRecord"]) -> int:
    """Ship + apply charge for one fetched batch of pending records."""
    if not records:
        return 0
    ops = sum(record.ops for record in records)
    return SHIP_LATENCY_PER_BATCH + SHIP_PER_RECORD * len(records) + APPLY_PER_OP * ops


def params() -> dict[str, int]:
    """The prices, as the ``"replication"`` block of a payload."""
    return {
        "append_per_record": APPEND_PER_RECORD,
        "ship_latency_per_batch": SHIP_LATENCY_PER_BATCH,
        "ship_per_record": SHIP_PER_RECORD,
        "apply_per_op": APPLY_PER_OP,
    }


@dataclass(frozen=True)
class ReplicationRecord:
    """One committed transaction as the replica tier sees it."""

    #: The commit's MVCC timestamp (replicas pin this after applying).
    commit_ts: int
    #: StalenessClock reading when the commit published.
    commit_time: int
    #: Cache keys the commit dirtied (engine-id terms, sorted by repr).
    keys: tuple[tuple[str, Any], ...]
    #: Operations the commit applied (sizes the apply charge).
    ops: int


class ReplicationLog:
    """Append-only feed from one primary to its replicas."""

    def __init__(self) -> None:
        self.records: list[ReplicationRecord] = []
        #: Total primary-side append charge (overhead ledger).
        self.append_charge = 0

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: ReplicationRecord) -> int:
        """Append a commit's record; returns the charged append cost."""
        if self.records and record.commit_ts <= self.records[-1].commit_ts:
            raise ValueError(
                f"replication log timestamps must ascend: "
                f"{record.commit_ts} after {self.records[-1].commit_ts}"
            )
        self.records.append(record)
        self.append_charge += APPEND_PER_RECORD
        return APPEND_PER_RECORD

    def pending_after(self, applied_index: int) -> list[ReplicationRecord]:
        """Records a replica that has applied ``applied_index`` still owes."""
        return self.records[applied_index:]
