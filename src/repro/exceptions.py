"""Exception hierarchy for the graph microbenchmark suite.

Every error raised by the library derives from :class:`GraphBenchError` so
that callers can catch a single base class.  The more specific subclasses
mirror the failure modes discussed in the paper: queries that time out,
engines that exhaust their memory budget, and malformed data or queries.
"""

from __future__ import annotations


class GraphBenchError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class StorageError(GraphBenchError):
    """A storage substrate was used incorrectly or reached an invalid state."""


class ElementNotFoundError(GraphBenchError):
    """A vertex, edge, or property lookup by identifier failed."""

    def __init__(self, kind: str, identifier: object) -> None:
        super().__init__(f"{kind} with id {identifier!r} does not exist")
        self.kind = kind
        self.identifier = identifier


class DuplicateElementError(GraphBenchError):
    """An element with the same identifier already exists."""


class SchemaError(GraphBenchError):
    """A label or property violates the engine's schema constraints."""


class QueryError(GraphBenchError):
    """A query was malformed or referenced unknown parameters."""


class UnsupportedOperationError(GraphBenchError):
    """The engine does not support the requested operation.

    Mirrors the paper's observations that some systems lack user-controlled
    indexes or cannot complete certain operations.
    """


class MemoryBudgetExceededError(GraphBenchError):
    """An engine exhausted its simulated memory budget.

    Reproduces the paper's Sparksee failure on the degree-filter queries
    (Q28-Q31), which exhausted RAM and swap on the Freebase samples.
    """

    def __init__(self, engine: str, used: int, budget: int) -> None:
        super().__init__(
            f"engine {engine!r} exceeded its memory budget: {used} > {budget} bytes"
        )
        self.engine = engine
        self.used = used
        self.budget = budget


class TransactionError(GraphBenchError):
    """A transactional operation could not be completed."""


class WriteConflictError(TransactionError):
    """A commit lost a first-committer-wins write-write conflict.

    Snapshot isolation aborts a transaction when another transaction
    committed a write to one of its write-set objects after this
    transaction took its snapshot (:mod:`repro.concurrency.sessions`).
    """

    def __init__(self, session_id: int, key: object, committed_at: int, snapshot: int) -> None:
        super().__init__(
            f"session {session_id} aborted: {key!r} was committed at "
            f"timestamp {committed_at}, after this session's snapshot {snapshot}"
        )
        self.session_id = session_id
        self.key = key
        self.committed_at = committed_at
        self.snapshot = snapshot


class SerializationFailureError(TransactionError):
    """An SSI session aborted on a read/write (rw) antidependency.

    Snapshot isolation's first-committer-wins rule only inspects *write*
    keys, which is why write skew slips through it.  In SSI mode the
    session also tracks what it read — object keys, adjacency, and
    property predicates — and aborts at commit when a concurrent
    transaction committed a write that intersects that read set (a
    conservative single-edge form of rw-antidependency detection: every
    dangerous structure contains such an edge, so none survive).  Distinct
    from :class:`WriteConflictError` so callers and benchmarks can count
    the two abort reasons separately.
    """

    def __init__(self, session_id: int, reason: str, conflict: object, committed_at: int, snapshot: int) -> None:
        super().__init__(
            f"session {session_id} aborted (serialization failure): {reason} "
            f"{conflict!r} was written at timestamp {committed_at}, after "
            f"this session's snapshot {snapshot}"
        )
        self.session_id = session_id
        self.reason = reason
        self.conflict = conflict
        self.committed_at = committed_at
        self.snapshot = snapshot


class SessionStateError(TransactionError):
    """A session was used after it was committed or aborted, or while its
    coordinator awaits recovery."""


class ParticipantUnavailableError(TransactionError):
    """A two-phase commit aborted because a participant shard crashed.

    Raised by the distributed commit coordinator when a participant dies
    before voting: the coordinator charges the timeout probe, journals an
    ABORT decision, and rolls the surviving participants back — the
    transaction fails, the system does not hang.
    """

    def __init__(self, txn_id: int, shard: int, phase: str) -> None:
        super().__init__(
            f"transaction {txn_id} aborted: participant shard {shard} "
            f"crashed during {phase}"
        )
        self.txn_id = txn_id
        self.shard = shard
        self.phase = phase


class TransactionInDoubtError(TransactionError):
    """The 2PC coordinator crashed mid-protocol; resolution needs recovery.

    The transaction's outcome is *defined* — it is whatever the verified
    durable prefix of the coordinator's decision journal says (presumed
    abort when no intact decision record survives) — but only
    crash-restart recovery can act on it.  Callers catch this, run the
    manager's ``recover()``, and observe the deterministic resolution.
    """

    def __init__(self, txn_id: int, point: str) -> None:
        super().__init__(
            f"transaction {txn_id} is in doubt: coordinator crashed at {point}; "
            "run recover() to resolve it from the decision journal"
        )
        self.txn_id = txn_id
        self.point = point


class StaleIndexError(GraphBenchError):
    """A structural index was queried after the graph mutated underneath it.

    Interval labels are only valid for the structure version they were
    built against; any vertex or edge mutation bumps the engine's
    structure version and invalidates the index.  The raw index raises
    this error instead of answering wrong; the ``GraphDatabase`` facade
    catches staleness up front by rebuilding lazily.
    """

    def __init__(self, label: object, built_version: int, current_version: int) -> None:
        super().__init__(
            f"structural index over label {label!r} is stale: built at "
            f"structure version {built_version}, graph is at {current_version}; "
            "rebuild it (or query through GraphDatabase.reachable)"
        )
        self.label = label
        self.built_version = built_version
        self.current_version = current_version


class VersionError(GraphBenchError):
    """A version-catalog operation was invalid (released commit, bad ref)."""


class UnknownVersionError(VersionError):
    """A version ref did not resolve to any commit.

    Raised by :meth:`~repro.versions.VersionCatalog.resolve` (and therefore
    :meth:`~repro.model.graph.GraphDatabase.at_version`) for a tag name the
    ref store has never seen, a commit id the catalog does not hold, or a
    ``HEAD`` lookup on a catalog with no commits yet.
    """

    def __init__(self, ref: object) -> None:
        super().__init__(f"unknown version ref {ref!r}")
        self.ref = ref


class DatasetError(GraphBenchError):
    """A dataset could not be generated, loaded, or parsed."""


class BenchmarkError(GraphBenchError):
    """The benchmark harness was configured or used incorrectly."""


class ShardUnavailableError(GraphBenchError):
    """A shard is down past its retry budget and no snapshot can serve it.

    The chaos layer's fail-fast contract: a distributed query either
    completes exactly, completes with a labelled staleness bound, or raises
    this typed error — it never hangs waiting for a dead shard.
    """

    def __init__(self, shard: int, superstep: int, reason: str) -> None:
        super().__init__(
            f"shard {shard} unavailable at superstep {superstep}: {reason}"
        )
        self.shard = shard
        self.superstep = superstep
        self.reason = reason
