"""Transactional sessions: begin / commit / abort with group commit.

A :class:`SessionManager` owns one engine, one shared
:class:`~repro.concurrency.versioning.VersionStore`, and the set of active
sessions.  Each :class:`Session` buffers its writes in a
:class:`~repro.concurrency.versioning.WriteSet` and exposes a
:class:`~repro.concurrency.versioning.VersionedGraph` through which every
existing query runs unchanged.

Commit protocol (snapshot isolation, first-committer-wins):

1. **Validate** — for every key in the session's write set, abort with
   :class:`~repro.exceptions.WriteConflictError` if another transaction
   committed a write to that key after this session's snapshot.
2. **Capture** — if any *other* session is currently active (and could
   therefore hold an older snapshot), read and store the pre-commit state
   of every written object in the version store's undo chains.  These
   version-maintenance reads are charged to the engine like any other read;
   an uncontended commit skips them entirely, which is what makes a single
   session charge-identical to direct execution.
3. **Apply** — check the whole operation log against the engine (every
   id it names must be live or created earlier in the log; the check books
   nothing), then replay it in call order through the op codec
   (:data:`~repro.model.graph.OPS`).  The check runs before capture, so a
   commit that fails leaves the engine, its WAL and the version store as
   they were.  Every applied operation charges the engine's storage
   structures and appends to the engine's write-ahead log exactly as a
   direct call would.
4. **Publish** — bump the commit clock and mark every written key.

Group commit (the paper's Section 6.4 effect, made measurable): in SYNC
durability every applied operation's WAL append is charged at apply time,
so the committing client pays for durability inside its commit latency.
In ASYNC durability the appends accumulate and
:meth:`SessionManager.maybe_group_flush` flushes them in one batch once
``group_commit_size`` commits (possibly from *different* sessions) are
pending — the scheduler runs that flush off the client path, exactly like
ArangoDB's background WAL flusher flattering client-side CUD latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import (
    ElementNotFoundError,
    GraphBenchError,
    SerializationFailureError,
    SessionStateError,
    TransactionError,
    WriteConflictError,
)
from repro.model.elements import Direction
from repro.model.graph import OPS, GraphDatabase, replay
from repro.storage.wal import DurabilityMode
from repro.concurrency.versioning import (
    EdgeState,
    ProvisionalId,
    SnapshotView,
    VersionStore,
    VersionedGraph,
    VertexState,
    WriteSet,
    edge_key,
    vertex_key,
)


#: Op-log markers for a draft created and removed inside one transaction.
_DROP_MARKERS = ("drop_provisional_vertex", "drop_provisional_edge")


#: Isolation levels a session can be opened at.  ``"si"`` is snapshot
#: isolation with first-committer-wins (the historical default); ``"ssi"``
#: layers serializable validation on top: the session tracks its reads
#: (object keys, adjacency, scan predicates) and the commit aborts with
#: :class:`~repro.exceptions.SerializationFailureError` when a concurrent
#: transaction committed a write intersecting that read set — the
#: conservative single-rw-edge form of SSI's dangerous-structure rule,
#: which flips write skew from permitted to prevented.
ISOLATION_LEVELS = ("si", "ssi")


@dataclass
class CommitResult:
    """What a successful commit returns to the client."""

    commit_ts: int
    applied_ops: int
    #: Provisional id -> engine id for objects created by the transaction.
    id_map: dict[ProvisionalId, Any] = field(default_factory=dict)
    read_only: bool = False
    #: Engine charge spent capturing before-images for the undo chains.
    #: Zero on an uncontended, unpinned commit — which is exactly the
    #: charge-parity contract; under replication it is the measurable
    #: price of keeping lagging snapshots servable, and the replication
    #: tier books it in its overhead ledger, never in base charges.
    capture_charge: int = 0
    #: Every cache key this commit dirtied, in engine-id terms: the keys
    #: written or cascaded plus ``vertex_key`` entries for each endpoint
    #: of a created or removed edge (adjacency payloads cached under the
    #: endpoint must drop too).  Sorted by ``repr`` for determinism.
    #: Populated only when before-images were captured — without pins or
    #: concurrent sessions nobody can hold a cache to invalidate.
    invalidation_keys: tuple[tuple[str, Any], ...] = ()


@dataclass
class ConcurrencyStats:
    """Counters the benchmark driver reports per engine."""

    begun: int = 0
    commits: int = 0
    read_only_commits: int = 0
    conflict_aborts: int = 0
    explicit_aborts: int = 0
    group_flushes: int = 0
    flushed_records: int = 0
    #: Conflict aborts the driver re-enqueued with backoff (a retry is
    #: *also* counted as a conflict abort — retries never hide aborts).
    retries: int = 0
    #: Transactions dropped after exhausting their retry budget.
    giveups: int = 0
    #: SSI serialization-failure aborts (rw-antidependency detected at
    #: commit).  Counted apart from ``conflict_aborts`` so the two abort
    #: reasons stay distinguishable; deliberately not part of
    #: :meth:`snapshot` — the SI benchmark payloads predate SSI and must
    #: stay byte-identical, and the txn benchmark reports its own ledger.
    ssi_aborts: int = 0
    #: Commits that failed at apply time for a non-conflict reason (e.g. a
    #: blind write on an id whose tombstone GC already reclaimed).  Not
    #: retryable — replaying would fail identically — and counted so that
    #: ``commits + conflict_aborts + commit_failures == planned + retries``
    #: stays a checkable invariant.
    commit_failures: int = 0

    @property
    def aborts(self) -> int:
        return self.conflict_aborts + self.explicit_aborts

    @property
    def abort_rate(self) -> float:
        attempts = self.commits + self.conflict_aborts
        return self.conflict_aborts / attempts if attempts else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "begun": self.begun,
            "commits": self.commits,
            "read_only_commits": self.read_only_commits,
            "conflict_aborts": self.conflict_aborts,
            "explicit_aborts": self.explicit_aborts,
            "abort_rate": round(self.abort_rate, 6),
            "group_flushes": self.group_flushes,
            "flushed_records": self.flushed_records,
            "retries": self.retries,
            "giveups": self.giveups,
            "commit_failures": self.commit_failures,
        }


class Session:
    """One client transaction: a snapshot, a write set, and a graph view."""

    def __init__(
        self,
        manager: "SessionManager",
        session_id: int,
        snapshot_ts: int,
        isolation: str = "si",
    ) -> None:
        if isolation not in ISOLATION_LEVELS:
            raise TransactionError(
                f"unknown isolation level {isolation!r}; choose from {ISOLATION_LEVELS}"
            )
        self.manager = manager
        self.id = session_id
        self.snapshot_ts = snapshot_ts
        self.isolation = isolation
        self.state = "open"
        #: Set by :meth:`SessionManager.prepare` (2PC phase 1); plain
        #: commits pass through the same prepared state internally.
        self.prepared = False
        self.write_set = WriteSet(session_id)
        self.write_set.track_reads = isolation == "ssi"
        self.graph = VersionedGraph(manager.engine, manager.store, self)

    @property
    def is_open(self) -> bool:
        return self.state == "open"

    def commit(self) -> CommitResult:
        """Publish this session's writes; raises on write-write conflict."""
        return self.manager.commit(self)

    def prepare(self) -> bool:
        """2PC phase 1: validate without publishing (see SessionManager.prepare)."""
        return self.manager.prepare(self)

    def commit_prepared(self) -> CommitResult:
        """2PC phase 2: publish a previously prepared session."""
        return self.manager.commit_prepared(self)

    def abort(self) -> None:
        """Discard this session's writes."""
        self.manager.abort(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if self.is_open:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Session {self.id} snapshot={self.snapshot_ts} {self.state}>"


class SnapshotPin:
    """A standing claim on a historical snapshot.

    A pin behaves like a session that never writes and never closes: it
    holds the garbage-collection low-water mark at its timestamp so that
    the undo chains a lagging reader needs stay resurrectable, and it
    forces commits to capture before-images (somebody downstream *will*
    read the past).  Unlike a session's snapshot, a pin **moves**: the
    replication tier advances it monotonically as the replica applies log
    records, releasing retained versions the moment no replica can still
    observe them.

    Pins are also *reference counted* for the versioning tier: a commit
    object and every tag ref pointing at it share one pin via
    :meth:`retain`, and the pin only leaves the manager (raising the
    low-water mark) when the last reference calls :meth:`release`.  A pin
    held by more than one reference refuses to move — a shared snapshot
    is a promise to every holder that the timestamp stays put.
    """

    __slots__ = ("manager", "id", "snapshot_ts", "released", "refs")

    def __init__(self, manager: "SessionManager", pin_id: int, snapshot_ts: int) -> None:
        self.manager = manager
        self.id = pin_id
        self.snapshot_ts = snapshot_ts
        self.released = False
        #: Reference count; the pin is released from the manager (and GC
        #: runs) only when the count reaches zero.
        self.refs = 1

    def retain(self) -> "SnapshotPin":
        """Add a reference; the pin survives until every holder releases."""
        if self.released:
            raise SessionStateError(f"pin {self.id} is already released")
        self.refs += 1
        return self

    def move(self, snapshot_ts: int) -> None:
        """Advance the pin (monotonic); triggers GC at the new low-water mark."""
        if self.refs > 1:
            raise GraphBenchError(
                f"pin {self.id} is shared by {self.refs} references and cannot move"
            )
        self.manager._move_pin(self, snapshot_ts)

    def release(self) -> None:
        """Drop one reference; at zero, retained versions become collectable."""
        if self.released:
            # Preserve the loud double-release error path.
            self.manager._release_pin(self)
            return
        self.refs -= 1
        if self.refs <= 0:
            self.manager._release_pin(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "released" if self.released else f"held refs={self.refs}"
        return f"<SnapshotPin {self.id} @{self.snapshot_ts} {state}>"


class _PinnedSession:
    """The session-shaped stub a :class:`SnapshotPin`'s read view runs on.

    ``VersionedGraph`` only needs a snapshot timestamp, an open/closed
    flag, and an (always empty) write set; tracking the pin's moving
    ``snapshot_ts`` by reference is what makes one view follow a replica
    through every applied batch without being rebuilt.
    """

    def __init__(self, pin: SnapshotPin) -> None:
        self.pin = pin
        self.id = f"pin-{pin.id}"
        self.write_set = WriteSet(-pin.id)

    @property
    def snapshot_ts(self) -> int:
        return self.pin.snapshot_ts

    @property
    def is_open(self) -> bool:
        return not self.pin.released

    @property
    def state(self) -> str:
        return "pin-released" if self.pin.released else "open"


class SessionManager:
    """Factory and commit coordinator for sessions over one engine."""

    def __init__(
        self,
        engine: GraphDatabase,
        group_commit_size: int = 4,
    ) -> None:
        self.engine = engine
        self.store = VersionStore()
        #: ASYNC durability flushes the engine WAL once this many mutating
        #: commits are pending (across all sessions).
        self.group_commit_size = group_commit_size
        self.stats = ConcurrencyStats()
        self._active: dict[int, Session] = {}
        self._next_session_id = 1
        self._unflushed_commits = 0
        self._pins: dict[int, SnapshotPin] = {}
        self._next_pin_id = 1

    # -- session lifecycle --------------------------------------------------

    def begin(self, isolation: str = "si") -> Session:
        """Open a session whose snapshot is the current commit clock."""
        session = Session(self, self._next_session_id, self.store.clock, isolation=isolation)
        self._next_session_id += 1
        self._active[session.id] = session
        self.stats.begun += 1
        return session

    @property
    def active_sessions(self) -> int:
        return len(self._active)

    def low_water_mark(self) -> int:
        """The oldest snapshot any active session *or pin* holds.

        Every version with a timestamp at or below this mark is invisible
        to all current sessions and to any session that can still be
        opened (new snapshots start at the clock), so it is garbage.
        Replica pins participate exactly like sessions: the slowest
        replica bounds what the store may reclaim.
        """
        marks = [session.snapshot_ts for session in self._active.values()]
        marks.extend(pin.snapshot_ts for pin in self._pins.values())
        if marks:
            return min(marks)
        return self.store.clock

    # -- snapshot pins (the replica tier's feed) ----------------------------

    def pin(self, snapshot_ts: int | None = None) -> SnapshotPin:
        """Pin a snapshot (default: the current clock) against GC.

        While any pin is held, every mutating commit captures before-images
        — the replication tier's lagging readers are exactly the "older
        active snapshot" the capture rule exists for.  The capture work is
        charged to the engine and surfaced via
        :attr:`CommitResult.capture_charge` so callers can ledger it as
        replication overhead rather than base cost.
        """
        if snapshot_ts is None:
            snapshot_ts = self.store.clock
        if not 0 <= snapshot_ts <= self.store.clock:
            raise GraphBenchError(
                f"cannot pin snapshot {snapshot_ts}: clock is {self.store.clock}"
            )
        pin = SnapshotPin(self, self._next_pin_id, snapshot_ts)
        self._next_pin_id += 1
        self._pins[pin.id] = pin
        return pin

    @property
    def active_pins(self) -> int:
        return len(self._pins)

    def _move_pin(self, pin: SnapshotPin, snapshot_ts: int) -> None:
        if pin.released or pin.id not in self._pins:
            raise SessionStateError(f"pin {pin.id} is already released")
        if snapshot_ts < pin.snapshot_ts:
            raise GraphBenchError(
                f"pins move forward only: {snapshot_ts} < {pin.snapshot_ts}"
            )
        if snapshot_ts > self.store.clock:
            raise GraphBenchError(
                f"cannot pin snapshot {snapshot_ts}: clock is {self.store.clock}"
            )
        pin.snapshot_ts = snapshot_ts
        self.store.collect_garbage(self.low_water_mark())

    def _release_pin(self, pin: SnapshotPin) -> None:
        if pin.released or pin.id not in self._pins:
            raise SessionStateError(f"pin {pin.id} is already released")
        pin.released = True
        del self._pins[pin.id]
        self.store.collect_garbage(self.low_water_mark())

    def snapshot_view(self, pin: SnapshotPin) -> "SnapshotView":
        """A read-only graph view that tracks ``pin``'s moving snapshot."""
        return SnapshotView(self.engine, self.store, _PinnedSession(pin))

    def _finish(self, session: Session, state: str) -> None:
        """Close a session and let the store reclaim newly-dead versions.

        Closing a session is the only event that can raise the low-water
        mark, so this is the one deterministic GC trigger; the sweep is
        pure RAM bookkeeping and charges no simulated I/O.
        """
        session.state = state
        self._active.pop(session.id, None)
        self.store.collect_garbage(self.low_water_mark())

    def abort(self, session: Session) -> None:
        if not session.is_open:
            raise SessionStateError(f"session {session.id} is already {session.state}")
        self._finish(session, "aborted")
        self.stats.explicit_aborts += 1

    # -- commit -------------------------------------------------------------

    def commit(self, session: Session) -> CommitResult:
        """Validate and publish in one call (prepare + commit-prepared).

        The split exists for two-phase commit: a distributed coordinator
        calls :meth:`prepare` on every participant first and only then
        :meth:`commit_prepared`.  A plain local commit runs the same two
        steps back to back, so the charge sequence — and therefore the
        charge-parity contract — is exactly what it was before the split.
        Nothing runs between the two steps here, so the log prepare checked
        is applied without :meth:`commit_prepared`'s defensive re-check.
        """
        return self._commit_prepared(session, self._prepare(session))

    def prepare(self, session: Session) -> bool:
        """2PC phase 1: validate the session; it stays open but *prepared*.

        Runs first-committer-wins validation (free RAM bookkeeping), for
        SSI sessions read-set and predicate validation (the predicate
        probes charge engine reads — SSI's measurable abort cost), and then
        the whole-log check (:meth:`_checked_ops`: every id live; books
        nothing), so a log that cannot apply is refused before the vote.
        Labels need no check here: the overlay admitted each one when it
        buffered the write.  On success the session is marked
        prepared and the manager promises that :meth:`commit_prepared` will
        succeed as long as nothing else changes the engine in between —
        which the (single-threaded) 2PC coordinator guarantees by
        serialising its decision phase.
        """
        self._prepare(session)
        return True

    def _prepare(self, session: Session) -> list[tuple[str, Any, list[Any]]]:
        """:meth:`prepare`, returning the checked op log."""
        if not session.is_open:
            raise SessionStateError(f"session {session.id} is already {session.state}")
        ws = session.write_set
        if not ws.ops:
            # A locally read-only SSI session still validates its reads: in
            # a distributed transaction this session may be the *read* half
            # of a cross-shard write skew (the writes live on another
            # shard), and its stale read is exactly the rw-antidependency
            # that must abort the whole transaction.
            if session.isolation == "ssi":
                self._validate_ssi(session)
            session.prepared = True
            return []

        # 1. Validate: first committer wins (charge-free RAM bookkeeping:
        # one dict lookup per written key).  Runs before SSI validation so
        # a write-write conflict always surfaces as WriteConflictError, not
        # as a serialization failure — the two abort reasons are counted
        # (and tested) separately.
        self._validate_first_committer(session)
        if session.isolation == "ssi":
            self._validate_ssi(session)
        # 2. Check the whole log against the engine (books nothing).
        # Buffering rejects writes on objects the session (or any overlay
        # commit it can see) already removed, and the conflict check covers
        # objects removed after the snapshot, so what this catches is a
        # write on an id removed directly on the engine.  Refused here, a
        # 2PC participant votes NO before the coordinator can log COMMIT.
        try:
            ops = self._checked_ops(session)
        except GraphBenchError as exc:
            raise self._failed_log(session, exc) from exc
        session.prepared = True
        return ops

    def commit_prepared(self, session: Session) -> CommitResult:
        """2PC phase 2: apply and publish a session prepared by :meth:`prepare`."""
        if not session.is_open:
            raise SessionStateError(f"session {session.id} is already {session.state}")
        if not session.prepared:
            raise SessionStateError(
                f"session {session.id} has not been prepared; call prepare() first"
            )
        return self._commit_prepared(session, None)

    def _commit_prepared(
        self, session: Session, ops: list[tuple[str, Any, list[Any]]] | None
    ) -> CommitResult:
        """Apply and publish a prepared session: ``ops`` is the log
        :meth:`_prepare` checked, or None to check it again."""
        ws = session.write_set
        if not ws.ops:
            self._finish(session, "committed")
            self.stats.commits += 1
            self.stats.read_only_commits += 1
            return CommitResult(session.snapshot_ts, 0, read_only=True)

        # Defensive re-validation (free, RAM-only): the prepare promise
        # holds because the coordinator serialises the decision phase, but
        # a caller driving prepare/commit_prepared by hand could let
        # another commit slip in between — catch that instead of
        # publishing a lost update.  Never re-runs SSI validation: its
        # predicate probes charge engine reads and prepare already paid
        # them once.
        self._validate_first_committer(session)

        commit_ts = self.store.clock + 1
        # A held pin is a promise that some replica will read this commit's
        # past, so it forces capture exactly as a concurrent session does.
        capture = bool(self._pins) or any(
            other_id != session.id for other_id in self._active
        )
        removed_edge_states: dict[Any, EdgeState] = {}
        cascade_keys: set[tuple[str, Any]] = set()
        capture_charge = 0
        id_map: dict[ProvisionalId, Any] = {}
        # 3. Check, then apply the operation log in call order.  The check
        # is prepare's, re-run as defensively as the conflict check above
        # when the phases were driven apart: only a caller that changes the
        # engine between them can make it fail here.  It raises before
        # capture and before the first op, so the failed commit leaves
        # nothing behind.
        try:
            if ops is None:
                ops = self._checked_ops(session)
            if capture:
                capture_start = self.engine.io_cost()
                cascade_keys = self._capture_before_images(
                    session, commit_ts, removed_edge_states
                )
                capture_charge = self.engine.io_cost() - capture_start
            self._apply(ops, id_map)
        except GraphBenchError as exc:
            raise self._failed_log(session, exc) from exc

        # 4. Publish timestamps and structural bookkeeping, then close the
        # session (which also garbage-collects versions that just became
        # unobservable, including this commit's own marks when it ran
        # uncontended).
        self._publish(session, commit_ts, id_map, removed_edge_states, cascade_keys, capture)

        invalidation_keys: tuple[tuple[str, Any], ...] = ()
        if capture:
            invalidation_keys = self._invalidation_keys(
                ws, id_map, removed_edge_states, cascade_keys
            )

        self._finish(session, "committed")
        self.stats.commits += 1
        if self.engine_wal_mode is DurabilityMode.ASYNC:
            self._unflushed_commits += 1
        return CommitResult(
            commit_ts,
            len(ops),
            id_map=id_map,
            capture_charge=capture_charge,
            invalidation_keys=invalidation_keys,
        )

    # -- group commit -------------------------------------------------------

    @property
    def engine_wal_mode(self) -> DurabilityMode:
        wal = getattr(self.engine, "wal", None)
        return wal.mode if wal is not None else DurabilityMode.SYNC

    def maybe_group_flush(self) -> int:
        """Flush the engine WAL if a full commit group is pending.

        Returns the number of records flushed (0 when the group is not yet
        full or durability is SYNC).  The scheduler calls this *after*
        recording a commit's latency: the flush is background work that
        delays the server, not the committing client.
        """
        if self.engine_wal_mode is not DurabilityMode.ASYNC:
            return 0
        if self._unflushed_commits < self.group_commit_size:
            return 0
        return self.flush()

    def flush(self) -> int:
        """Force all pending WAL records to stable storage."""
        wal = getattr(self.engine, "wal", None)
        if wal is None:
            return 0
        flushed = wal.flush()
        self._unflushed_commits = 0
        if flushed:
            self.stats.group_flushes += 1
            self.stats.flushed_records += flushed
        return flushed

    # -- commit internals ---------------------------------------------------

    def _validate_first_committer(self, session: Session) -> None:
        """Abort with :class:`WriteConflictError` on a lost first-committer race."""
        for key in session.write_set.write_keys:
            committed = self.store.committed_ts(key)
            if committed > session.snapshot_ts:
                self._finish(session, "aborted")
                self.stats.conflict_aborts += 1
                raise WriteConflictError(session.id, key, committed, session.snapshot_ts)

    def _ssi_abort(
        self, session: Session, reason: str, conflict: Any, committed_at: int
    ) -> None:
        self._finish(session, "aborted")
        self.stats.ssi_aborts += 1
        raise SerializationFailureError(
            session.id, reason, conflict, committed_at, session.snapshot_ts
        )

    def _validate_ssi(self, session: Session) -> None:
        """Abort when a concurrent commit wrote something this session read.

        The conservative single-rw-edge rule: every dangerous structure in
        SSI's theory contains an rw-antidependency from a committed writer
        into this transaction's read set, so aborting on *any* such edge
        admits no write skew (at the price of some false-positive aborts —
        the trade the txn benchmark measures).  Object and adjacency checks
        are free RAM lookups against the version store; the predicate check
        (phantoms) probes the engine and charges reads.
        """
        ws = session.write_set
        store = self.store
        # Keys also written by this session are skipped: first-committer-
        # wins already validated them, and the abort reason must stay
        # WriteConflictError for a write-write race.
        for key in sorted(ws.read_keys, key=repr):
            if key in ws.write_keys:
                continue
            committed = store.committed_ts(key)
            if committed > session.snapshot_ts:
                self._ssi_abort(session, "read object", key, committed)
        for vertex_id in sorted(ws.read_adjacency, key=repr):
            changed = store.adj_changed_ts(vertex_id)
            if changed > session.snapshot_ts:
                self._ssi_abort(session, "read adjacency of vertex", vertex_id, changed)
        self._validate_predicates(session)

    def _validate_predicates(self, session: Session) -> None:
        """Phantom protection: re-probe scanned predicates against new writes.

        A concurrent commit can make an object *newly* match a predicate
        this session scanned (insert, or an update flipping the property);
        the scan never saw the object, so object-level read validation
        cannot catch it.  Objects that *stopped* matching (or were removed)
        were yielded by the scan and therefore sit in ``read_keys`` — the
        object check covers those.  Candidates are every key of the right
        kind committed after the snapshot, sorted by ``repr`` before any
        engine probe so the charge sequence is deterministic; each probe
        charges the engine like any client read.
        """
        ws = session.write_set
        preds = ws.read_predicates
        if not preds:
            return
        engine = self.engine
        store = self.store
        snapshot = session.snapshot_ts
        vertex_preds = sorted(p for p in preds if p[0] == "vertex")
        edge_preds = sorted(p for p in preds if p[0] == "edge")
        label_preds = sorted(p for p in preds if p[0] == "edge-label")

        def candidates(kind: str) -> list[tuple[str, Any]]:
            recent = {
                key
                for key, ts in store.iter_committed(kind)
                if ts > snapshot and key not in ws.write_keys
            }
            return sorted(recent, key=repr)

        if vertex_preds:
            for key in candidates("vertex"):
                vid = key[1]
                if not engine.vertex_exists(vid):
                    continue
                for _kind, prop, rvalue in vertex_preds:
                    if repr(engine.vertex_property(vid, prop)) == rvalue:
                        self._ssi_abort(
                            session,
                            f"scanned predicate vertex.{prop} now matches",
                            key,
                            store.committed_ts(key),
                        )
        if edge_preds or label_preds:
            for key in candidates("edge"):
                eid = key[1]
                if not engine.edge_exists(eid):
                    continue
                for _kind, prop, rvalue in edge_preds:
                    if repr(engine.edge_property(eid, prop)) == rvalue:
                        self._ssi_abort(
                            session,
                            f"scanned predicate edge.{prop} now matches",
                            key,
                            store.committed_ts(key),
                        )
                for _kind, _prop, rlabel in label_preds:
                    if repr(engine.edge_label(eid)) == rlabel:
                        self._ssi_abort(
                            session,
                            "scanned edge label now matches",
                            key,
                            store.committed_ts(key),
                        )

    def _capture_before_images(
        self,
        session: Session,
        commit_ts: int,
        removed_edge_states: dict[Any, EdgeState],
    ) -> set[tuple[str, Any]]:
        """Record undo states for every key this commit will overwrite.

        Also expands ``remove_vertex`` cascades: the incident edges the
        engine will delete alongside the vertex are captured (and later
        published) so that older snapshots can resurrect them and later
        writers conflict on them.  All reads here charge the engine.
        """
        engine = self.engine
        store = self.store
        ws = session.write_set
        cascade_keys: set[tuple[str, Any]] = set()

        def capture(key: tuple[str, Any]) -> None:
            if store.has_undo_at(key, commit_ts):
                return
            kind, obj_id = key
            state: Any = None
            if kind == "vertex":
                if engine.vertex_exists(obj_id):
                    base = engine.vertex(obj_id)
                    state = VertexState(base.label, dict(base.properties))
            else:
                if engine.edge_exists(obj_id):
                    base = engine.edge(obj_id)
                    state = EdgeState(base.label, base.source, base.target, dict(base.properties))
                    removed_edge_states.setdefault(obj_id, state)
            store.push_undo(key, commit_ts, state)

        for key in sorted(ws.write_keys, key=repr):
            capture(key)
        for vertex_id in sorted(ws.removed_vertices, key=repr):
            for eid in engine.edges_for(vertex_id, Direction.BOTH):
                key = edge_key(eid)
                if key in ws.write_keys or key in cascade_keys:
                    continue
                cascade_keys.add(key)
                capture(key)
        return cascade_keys

    def _invalidation_keys(
        self,
        ws: WriteSet,
        id_map: dict[ProvisionalId, Any],
        removed_edge_states: dict[Any, EdgeState],
        cascade_keys: set[tuple[str, Any]],
    ) -> tuple[tuple[str, Any], ...]:
        """Cache keys this commit dirtied, resolved to engine ids.

        Beyond the written and cascaded keys themselves, the *endpoints* of
        every created or removed edge are included: an adjacency payload
        cached under an endpoint goes stale the moment an incident edge
        appears or disappears, even though the endpoint object itself was
        never written (and so never conflicts).
        """

        def resolve(obj_id: Any) -> Any:
            return id_map.get(obj_id, obj_id)

        keys: set[tuple[str, Any]] = set()
        for kind, obj_id in ws.write_keys | cascade_keys:
            resolved = resolve(obj_id)
            if isinstance(resolved, ProvisionalId):
                continue  # dropped before commit; nothing downstream saw it
            keys.add((kind, resolved))
        for pid, engine_id in id_map.items():
            keys.add(
                vertex_key(engine_id) if pid.kind == "vertex" else edge_key(engine_id)
            )
        for pid, state in ws.created_edges.items():
            if id_map.get(pid) is None:
                continue
            for endpoint in (state.source, state.target):
                resolved = resolve(endpoint)
                if not isinstance(resolved, ProvisionalId):
                    keys.add(vertex_key(resolved))
        for state in removed_edge_states.values():
            keys.add(vertex_key(state.source))
            keys.add(vertex_key(state.target))
        return tuple(sorted(keys, key=repr))

    def _failed_log(self, session: Session, exc: GraphBenchError) -> TransactionError:
        """Abort ``session`` for a log that cannot apply; returns the error to raise."""
        self._finish(session, "aborted")
        self.stats.explicit_aborts += 1
        return TransactionError(f"session {session.id} cannot apply its operation log: {exc}")

    def _checked_ops(self, session: Session) -> list[tuple[str, Any, list[Any]]]:
        """The op log as ``(name, id, codec arguments)``, checked against
        the engine before anything is applied.

        A draft dropped before commit never reaches the engine: neither its
        creation, nor the ops on it, nor the marker itself.  Every id field
        (:data:`~repro.model.graph.OPS`) must name an element an earlier op
        created, or one the engine holds that no earlier op removed.  The
        engine is asked through ``_live``, which books nothing.  Labels
        were admitted through ``_check_label`` when the writes were
        buffered.
        """
        ops = session.write_set.ops
        dropped = {op[1] for op in ops if op[0] in _DROP_MARKERS}
        live = self.engine._live
        created: set[Any] = set()
        removed: set[tuple[Any, Any]] = set()
        checked = []
        for name, obj_id, *rest in ops:
            if obj_id in dropped:
                continue
            op = OPS.get(name)
            if op is None:
                raise TransactionError(f"unknown buffered operation {name!r}")
            # A creation's log entry leads with its provisional id.
            arguments = rest if op.creates else [obj_id, *rest]
            for position, kind in op.ids:
                element = arguments[position]
                if element not in created and (
                    (kind, element) in removed or not live(kind, element)
                ):
                    raise ElementNotFoundError(kind.name, element)
            if op.creates:
                created.add(obj_id)
            elif op.removes:
                removed.add((op.removes, obj_id))
            checked.append((name, obj_id, arguments))
        return checked

    def _apply(
        self, ops: list[tuple[str, Any, list[Any]]], id_map: dict[ProvisionalId, Any]
    ) -> None:
        """Replay checked ops against the engine, mapping provisional ids."""
        engine = self.engine

        def resolve(obj_id: Any) -> Any:
            return id_map.get(obj_id, obj_id)

        for name, obj_id, arguments in ops:
            result = replay(engine, name, arguments, resolve)
            if OPS[name].creates:
                id_map[obj_id] = result

    def _publish(
        self,
        session: Session,
        commit_ts: int,
        id_map: dict[ProvisionalId, Any],
        removed_edge_states: dict[Any, EdgeState],
        cascade_keys: set[tuple[str, Any]],
        capture: bool = False,
    ) -> None:
        store = self.store
        ws = session.write_set

        # Sets are iterated in sorted order so that the version store's
        # dict insertion order — and therefore every overlay iteration
        # downstream — is identical across processes (hash seeds vary).
        for key in sorted(ws.write_keys, key=repr):
            store.mark_committed(key, commit_ts)
        for key in sorted(cascade_keys, key=repr):
            store.mark_committed(key, commit_ts)
            store.mark_removed(key, commit_ts)

        # Objects created by this commit.  Under capture, each creation
        # also records a lifetime boundary in the undo chain — readers at
        # older snapshots reconstruct ``None`` ("did not exist yet") even
        # if the engine handed out a freed id an older incarnation used
        # (capture ran pre-apply, so the boundary lands after any
        # before-image this commit captured for the old incarnation).
        for pid, engine_id in id_map.items():
            key = vertex_key(engine_id) if pid.kind == "vertex" else edge_key(engine_id)
            store.mark_committed(key, commit_ts)
            store.mark_created(key, commit_ts)
            if capture and not store.has_undo_at(key, commit_ts):
                store.push_undo(key, commit_ts, None)
        for pid, state in ws.created_edges.items():
            engine_id = id_map.get(pid)
            if engine_id is None:
                continue
            for endpoint in (state.source, state.target):
                store.mark_adj_changed(id_map.get(endpoint, endpoint), commit_ts)

        # Objects removed by this commit.
        for vertex_id in sorted(ws.removed_vertices, key=repr):
            store.mark_removed(vertex_key(vertex_id), commit_ts)
            store.mark_adj_changed(vertex_id, commit_ts)
        for edge_id in sorted(ws.removed_edges, key=repr):
            if isinstance(edge_id, ProvisionalId):
                continue
            store.mark_removed(edge_key(edge_id), commit_ts)
            self._index_removed_edge(edge_id, removed_edge_states, commit_ts)
        for _kind, edge_id in sorted(cascade_keys, key=repr):
            self._index_removed_edge(edge_id, removed_edge_states, commit_ts)

        store.clock = commit_ts

    def _index_removed_edge(
        self, edge_id: Any, removed_edge_states: dict[Any, EdgeState], commit_ts: int
    ) -> None:
        """Register a removed edge for resurrection by older snapshots."""
        state = removed_edge_states.get(edge_id)
        if state is None:
            # No before-image was captured (uncontended commit): no active
            # session can hold an older snapshot, so resurrection metadata
            # is unnecessary.
            return
        self.store.register_removed_edge(edge_id, state, commit_ts)
