"""Multi-client concurrency layer: MVCC sessions, scheduling, benchmarks.

The paper measures every query in single-client isolation; this package
adds the missing dimension.  ``versioning`` implements snapshot isolation
as an engine-agnostic overlay, ``sessions`` the begin/commit/abort API with
group commit through the engine WAL, ``scheduler`` a deterministic
virtual-time interleaver of client streams (with deterministic retry
backoff), and ``driver``/``report`` the mixed-workload benchmark behind
``graphbench concurrent``.  ``saturation`` steps open-loop arrival rates
until throughput collapses (``graphbench saturate``).  The version store
is one flat map set, garbage-collected at the active-session low-water
mark.
"""

from repro.concurrency.driver import (
    DURABILITY_MODES,
    MIXES,
    MixSpec,
    RetryPolicy,
    run_concurrent_benchmark,
    run_engine_mode,
)
from repro.concurrency.report import (
    format_concurrency_report,
    format_loop_comparison,
    format_saturation_report,
)
from repro.concurrency.saturation import (
    run_loop_comparison,
    run_saturation_sweep,
    sweep_engine,
)
from repro.concurrency.scheduler import (
    BarrierClock,
    ClientOp,
    OpTrace,
    ScheduleResult,
    StalenessClock,
    VirtualTimeScheduler,
    percentile,
)
from repro.concurrency.sessions import (
    ISOLATION_LEVELS,
    CommitResult,
    ConcurrencyStats,
    Session,
    SessionManager,
    SnapshotPin,
)
from repro.concurrency.versioning import (
    GCStats,
    ProvisionalId,
    SnapshotView,
    VersionStore,
    VersionedGraph,
    WriteSet,
)

__all__ = [
    "BarrierClock",
    "ClientOp",
    "CommitResult",
    "ConcurrencyStats",
    "DURABILITY_MODES",
    "GCStats",
    "ISOLATION_LEVELS",
    "MIXES",
    "MixSpec",
    "OpTrace",
    "ProvisionalId",
    "RetryPolicy",
    "ScheduleResult",
    "Session",
    "SessionManager",
    "SnapshotPin",
    "SnapshotView",
    "StalenessClock",
    "VersionStore",
    "VersionedGraph",
    "VirtualTimeScheduler",
    "WriteSet",
    "format_concurrency_report",
    "format_loop_comparison",
    "format_saturation_report",
    "percentile",
    "run_concurrent_benchmark",
    "run_engine_mode",
    "run_loop_comparison",
    "run_saturation_sweep",
    "sweep_engine",
]
