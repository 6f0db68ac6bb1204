"""Fault injection & shard recovery: the chaos plane over the scale-out layer.

The paper's microbenchmark methodology assumes every run completes; the
PR 5 distributed executor inherited that assumption — a BSP superstep had
no way to lose a message, crash a shard, or recover one.  This package
makes failure a first-class, *deterministic* benchmark dimension:

* :mod:`~repro.faults.plan` — a seeded :class:`FaultPlan` schedules fault
  events (shard crash/stall, message loss/duplication/reordering, WAL torn
  tails, snapshot loss) in virtual time; the same seed reproduces the same
  faults anywhere, which is what lets CI gate ``BENCH_chaos.json`` exactly.
* :mod:`~repro.faults.recovery` — per-shard WAL + periodic charged
  checkpoints (:class:`ShardJournal`), so a crashed shard replays to its
  pre-crash state and rejoins at the next barrier; the retained snapshot
  serves degraded reads when a shard is down past its retry budget.
* :mod:`~repro.faults.chaos` — :class:`FaultPlane`, composed around the
  one BSP loop (``DistributedExecutor(..., faults=plane)``;
  :class:`ChaosExecutor` is that constructor): per-superstep timeout +
  deterministic retry, straggler abandonment, staleness labelling.  A query
  completes exactly, completes with a labelled staleness bound, or fails
  fast with a typed error — never hangs.
* :mod:`~repro.faults.bench` / :mod:`~repro.faults.report` — the fault rate
  × query mix × K availability sweep behind ``graphbench chaos``
  (``BENCH_chaos.json`` + fig11).

The exactness invariant, pinned by ``tests/faults/``: under any seeded
fault plan, a query labelled ``"exact"`` returns byte-identical results and
byte-identical *base* charges (compute + network) to the fault-free run;
every fault-recovery cost is accounted separately as overhead.
"""

from repro.faults.chaos import (
    ChaosExecutor,
    ChaosResult,
    EXACT,
    FAILED,
    FaultPlane,
    STALE,
    build_chaos,
)
from repro.faults.plan import (
    CRASH,
    FaultEvent,
    FaultPlan,
    MSG_DUP,
    MSG_LOSS,
    MSG_REORDER,
    SNAPSHOT_LOSS,
    STALL,
    canned_three_event_plan,
)
from repro.faults.recovery import ShardJournal, ShardSnapshot
from repro.faults.txn_faults import (
    COORDINATOR_CRASH,
    PARTICIPANT_CRASH_AFTER_VOTE,
    PARTICIPANT_CRASH_BEFORE_VOTE,
    TORN_DECISION,
    TXN_FAULT_KINDS,
    TxnFaultEvent,
    TxnFaultPlan,
)
from repro.faults.bench import CHAOS_MIXES, run_chaos_benchmark
from repro.faults.report import format_chaos_report

__all__ = [
    "CHAOS_MIXES",
    "COORDINATOR_CRASH",
    "CRASH",
    "ChaosExecutor",
    "ChaosResult",
    "EXACT",
    "FAILED",
    "FaultEvent",
    "FaultPlan",
    "FaultPlane",
    "MSG_DUP",
    "MSG_LOSS",
    "MSG_REORDER",
    "PARTICIPANT_CRASH_AFTER_VOTE",
    "PARTICIPANT_CRASH_BEFORE_VOTE",
    "SNAPSHOT_LOSS",
    "STALE",
    "STALL",
    "TORN_DECISION",
    "TXN_FAULT_KINDS",
    "ShardJournal",
    "ShardSnapshot",
    "TxnFaultEvent",
    "TxnFaultPlan",
    "build_chaos",
    "canned_three_event_plan",
    "format_chaos_report",
    "run_chaos_benchmark",
]
