"""Distributed transactions: per-shard WAL + charged 2PC + SSI sessions.

The paper benchmarks every engine single-node and single-client; PR 5-7
scaled *reads* out (BSP traversal, chaos recovery, replicas).  This package
scales **writes** out.  A :class:`DistributedSession` spans the shard
engines of a partitioned graph; its commit runs a charged two-phase commit
through the same :class:`~repro.partition.messages.NetworkCostModel` the
query plane uses, so commit latency and abort rate land on the same clock
as traversal charges:

* :mod:`~repro.txn.distributed` — :class:`TxnShard` (per-shard
  key/value-separated transaction WAL, BVLSM-style), the
  :class:`DistributedSessionManager` coordinator (journaled decisions,
  presumed abort, deterministic crash recovery), and
  :class:`DistributedSession`.
* :mod:`~repro.txn.bench` / :mod:`~repro.txn.report` — the commit
  latency + abort rate vs cut-ratio sweep behind ``graphbench txn``
  (``BENCH_txn.json`` + fig13), including the SI-vs-SSI write-skew ledger.

Parity contract: a transaction whose writes all land on one shard commits
in one phase — no messages, no decision record, no journal traffic — and
is charge- and result-identical to the same commit on an unpartitioned
engine.  ``tests/txn/test_parity.py`` pins this for every engine.
"""

from repro.txn.distributed import (
    DistributedSession,
    DistributedSessionManager,
    TxnResult,
    TxnShard,
    TxnStats,
)
from repro.txn.bench import run_txn_benchmark
from repro.txn.report import format_txn_report

__all__ = [
    "DistributedSession",
    "DistributedSessionManager",
    "TxnResult",
    "TxnShard",
    "TxnStats",
    "format_txn_report",
    "run_txn_benchmark",
]
