"""Charged two-phase commit over shard engines, with journaled recovery.

Protocol
--------

A :class:`DistributedSession` buffers writes in ordinary per-shard MVCC
sessions (:mod:`repro.concurrency.sessions`).  At commit time the
coordinator counts the *writer* shards:

* **one writer (or none)** — one-phase fast path: the writer commits
  locally, read-only participants close for free, and nothing touches the
  network or any journal.  This is the classic read-only 2PC optimisation
  taken to its limit, and it is what makes a K=1 distributed commit
  charge- and result-identical to a plain local commit (the parity
  contract pinned by ``tests/txn/test_parity.py``).
* **two or more writers** — full 2PC.  Phase 1 (PREPARE): the coordinator
  sends each writer its operation batch (charged
  ``network.batch_cost(ops)``), the participant journals every operation
  plus a ``prepare`` marker in its shard transaction WAL — large values
  split into the shard's charged value log, BVLSM-style — validates its
  session (first-committer-wins, and rw-antidependency checks under SSI),
  and votes (charged ``batch_cost(1)``).  Phase 2 (DECIDE+COMMIT): the
  coordinator journals its decision in a SYNC decision log **before**
  sending anything — a torn decision record therefore implies no COMMIT
  message was ever sent, which is what makes presumed abort globally
  consistent — then sends the decision (charged), participants apply via
  ``commit_prepared`` and ack (charged).

Phase latencies run on a :class:`~repro.concurrency.scheduler.BarrierClock`:
the prepare phase costs what its *slowest* participant costs, ditto the
commit phase — so a transaction touching more shards has a longer
snapshot-to-publish window, which is exactly why the benchmark's abort
rate climbs with the partitioner's cut ratio.

Every abort of either commit path — read-only validation, one-phase
failure, crash before vote, vote NO — leaves through one exit,
:meth:`DistributedSessionManager._unwind`; and what a writer journals at
PREPARE and how recovery replays it is one table, ``_OPS`` (whose keys are
:data:`LOGGED_OPS`).

Recovery
--------

Crash points are scripted by :class:`~repro.faults.txn_faults.TxnFaultPlan`
and resolved by :meth:`DistributedSessionManager.recover`, which is
deterministic: it reads the verified durable prefix of the decision log
(presumed abort for anything absent or torn), rolls back still-prepared
sessions of undecided transactions, and re-applies the journaled
operations of committed transactions whose participant crashed after
voting — dereferencing value-log pointers with charged reads, translating
external ids through the shard's id map, and replaying each record with
its op-table callable through a fresh session so every version-store
invariant is rebuilt rather than patched.  A crashed participant refuses
new sessions (:class:`~repro.exceptions.ParticipantUnavailableError`)
until recovery has restarted it.
Running recovery twice is a no-op: resolutions are journaled as they are
made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.concurrency.scheduler import BarrierClock
from repro.concurrency.sessions import Session
from repro.exceptions import (
    BenchmarkError,
    ParticipantUnavailableError,
    SerializationFailureError,
    SessionStateError,
    TransactionError,
    TransactionInDoubtError,
    WriteConflictError,
)
from repro.faults.txn_faults import (
    COORDINATOR_CRASH,
    PARTICIPANT_CRASH_AFTER_VOTE,
    PARTICIPANT_CRASH_BEFORE_VOTE,
    TORN_DECISION,
    TxnFaultPlan,
)
from repro.partition.executor import ShardRuntime
from repro.partition.messages import MessageBatch, NetworkCostModel, NetworkStats
from repro.storage.metrics import StorageMetrics
from repro.storage.wal import DurabilityMode, ValueLog, WriteAheadLog

#: The coordinator's pseudo shard index in message accounting.
COORDINATOR = -1

class _LoggedOp(NamedTuple):
    """How one write operation is journaled at PREPARE and replayed at recovery."""

    #: Payload field names for the recorded op's arguments (after ``txn``).
    fields: tuple[str, ...]
    #: ``replay(graph, runtime, owner, payload)`` re-applies a resolved record.
    replay: Callable[[Any, ShardRuntime, dict[Any, int], dict[str, Any]], None]


_EDGE_FIELDS = ("source", "target", "label", "properties")

#: The single definition of what a shard transaction WAL journals and how
#: recovery re-applies it.  The distributed write surface is deliberately
#: small — property updates and edge inserts, mirroring the paper's CUD
#: microbenchmarks.  ``add_cut_edge`` is a cross-shard insert: both endpoint
#: owners journal it, and applying it updates the shard's cut routing table
#: rather than its engine.
_OPS = {
    "set_vertex_property": _LoggedOp(
        ("vertex", "key", "value"),
        lambda graph, runtime, _owner, payload: graph.set_vertex_property(
            runtime.id_map[payload["vertex"]], payload["key"], payload["value"]
        ),
    ),
    "remove_vertex_property": _LoggedOp(
        ("vertex", "key"),
        lambda graph, runtime, _owner, payload: graph.remove_vertex_property(
            runtime.id_map[payload["vertex"]], payload["key"]
        ),
    ),
    "add_edge": _LoggedOp(
        _EDGE_FIELDS,
        lambda graph, runtime, _owner, payload: graph.add_edge(
            runtime.id_map[payload["source"]],
            runtime.id_map[payload["target"]],
            payload["label"],
            properties=dict(payload["properties"]),
        ),
    ),
    "add_cut_edge": _LoggedOp(
        _EDGE_FIELDS,
        lambda _graph, runtime, owner, payload: _install_cut_edge(
            runtime, owner, payload["source"], payload["target"]
        ),
    ),
}

#: Operation kinds a shard transaction WAL can journal (and recovery can
#: re-apply).
LOGGED_OPS = tuple(_OPS)


def _install_cut_edge(
    runtime: ShardRuntime, owner: dict[Any, int], source: Any, target: Any
) -> None:
    """Install ``runtime``'s halves of one cut-edge insert.

    The cut table is coordinator-RAM routing state (uncharged, exactly like
    the one built at partition time); each owner installs only the half it
    routes for, and the install is idempotent so recovery can re-run it
    after a crash-restart (or after a survivor's phase-2 install).
    """
    for local, remote in ((source, target), (target, source)):
        if owner[local] != runtime.index:
            continue
        entry = (remote, owner[remote])
        routes = runtime.remote.setdefault(local, [])
        if entry not in routes:
            routes.append(entry)


def _message(phase: int, source: int, target: int, *items: Any) -> MessageBatch:
    """One protocol message; only its item count is ever charged."""
    return MessageBatch(
        superstep=phase,
        source_shard=source,
        target_shard=target,
        items=[(item, 0) for item in items],
    )


class TxnShard:
    """One shard's transactional runtime: sessions plus a 2PC journal.

    The journal is a SYNC :class:`~repro.storage.wal.WriteAheadLog` with
    key/value separation into a charged :class:`~repro.storage.wal.ValueLog`
    (its own metrics — journal traffic never pollutes engine charges, so
    the parity contract stays observable).  It records, per distributed
    transaction, every operation plus a ``prepare`` marker; recovery
    replays the verified durable prefix.
    """

    def __init__(self, runtime: ShardRuntime) -> None:
        self.runtime = runtime
        self.index = runtime.index
        self.manager = runtime.engine.transactions()
        self.value_log = ValueLog(name=f"shard{runtime.index}-vlog")
        self.journal = WriteAheadLog(
            name=f"shard{runtime.index}-txn-wal",
            mode=DurabilityMode.SYNC,
            value_log=self.value_log,
        )
        #: Simulated liveness: a crashed participant lost its in-memory
        #: prepared session (its durable journal survives, of course).
        self.crashed = False

    @property
    def engine(self):
        return self.runtime.engine

    def journal_charge(self) -> int:
        """Total charged logical I/O on the journal and its value log."""
        return self.journal.metrics.logical_io + self.value_log.metrics.logical_io


@dataclass
class TxnResult:
    """What one distributed commit returned, with its full accounting."""

    txn_id: int
    outcome: str
    #: ``"local"`` (one-phase fast path) or ``"2pc"``.
    mode: str
    #: Writer shard indexes, ascending.
    writers: tuple[int, ...]
    network_charge: int = 0
    messages: int = 0
    #: Slowest-participant cost of phase 1 (send + journal + vote).
    prepare_latency: int = 0
    #: Decision-journal write plus slowest participant's apply + ack.
    commit_latency: int = 0
    #: Participants that voted yes and then crashed: the global commit
    #: stands, but these shards apply only at :meth:`recover` time.
    in_doubt_shards: tuple[int, ...] = ()

    @property
    def total_latency(self) -> int:
        return self.prepare_latency + self.commit_latency


@dataclass
class TxnStats:
    """Coordinator-level counters the txn benchmark reports."""

    begun: int = 0
    committed: int = 0
    one_phase: int = 0
    two_phase: int = 0
    #: First-committer-wins (write-write) aborts.
    conflict_aborts: int = 0
    #: SSI serialization-failure aborts.
    ssi_aborts: int = 0
    #: Aborts forced by a participant crash before its vote.
    participant_aborts: int = 0
    explicit_aborts: int = 0
    in_doubt: int = 0
    recovered_commits: int = 0
    recovered_aborts: int = 0
    network: NetworkStats = field(default_factory=NetworkStats)

    @property
    def abort_rate(self) -> float:
        attempts = self.committed + self.conflict_aborts + self.ssi_aborts
        failures = self.conflict_aborts + self.ssi_aborts
        return failures / attempts if attempts else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "begun": self.begun,
            "committed": self.committed,
            "one_phase": self.one_phase,
            "two_phase": self.two_phase,
            "conflict_aborts": self.conflict_aborts,
            "ssi_aborts": self.ssi_aborts,
            "participant_aborts": self.participant_aborts,
            "explicit_aborts": self.explicit_aborts,
            "abort_rate": round(self.abort_rate, 6),
            "in_doubt": self.in_doubt,
            "recovered_commits": self.recovered_commits,
            "recovered_aborts": self.recovered_aborts,
            "messages": self.network.messages,
            "network_charge": self.network.charge,
        }


class DistributedSession:
    """One client transaction spanning shard engines, in external-id space.

    Reads and writes route to the owning shard's MVCC session (opened
    lazily, all at the same isolation level).  Writes are additionally
    recorded as external-id operations — the exact records the shard
    journals at PREPARE and recovery replays after a crash.
    """

    def __init__(self, manager: "DistributedSessionManager", txn_id: int) -> None:
        self.manager = manager
        self.id = txn_id
        self.state = "open"
        self._sessions: dict[int, Session] = {}
        self._ops: dict[int, list[tuple[Any, ...]]] = {}
        #: External id → cut edges this transaction has buffered for it
        #: (read-your-writes for :meth:`degree` before the install lands).
        self._pending_cut: dict[Any, int] = {}

    @property
    def is_open(self) -> bool:
        return self.state == "open"

    # -- routing ----------------------------------------------------------

    def _shard_of(self, vertex_id: Any) -> TxnShard:
        try:
            index = self.manager.owner[vertex_id]
        except KeyError:
            raise BenchmarkError(f"vertex {vertex_id!r} is not a known vertex") from None
        return self.manager.txn_shards[index]

    def _session(self, shard: TxnShard) -> Session:
        if not self.is_open:
            raise SessionStateError(f"transaction {self.id} is already {self.state}")
        session = self._sessions.get(shard.index)
        if session is None:
            if shard.crashed:
                raise ParticipantUnavailableError(self.id, shard.index, "begin")
            session = shard.manager.begin(isolation=self.manager.isolation)
            self._sessions[shard.index] = session
        return session

    def _record(self, shard: TxnShard, op: tuple[Any, ...]) -> None:
        self._ops.setdefault(shard.index, []).append(op)

    @property
    def touched_shards(self) -> tuple[int, ...]:
        return tuple(sorted(self._sessions))

    @property
    def writer_shards(self) -> tuple[int, ...]:
        return tuple(sorted(self._ops))

    # -- reads ------------------------------------------------------------

    def vertex_property(self, vertex_id: Any, key: str) -> Any:
        shard = self._shard_of(vertex_id)
        return self._session(shard).graph.vertex_property(
            shard.runtime.id_map[vertex_id], key
        )

    def vertex_exists(self, vertex_id: Any) -> bool:
        shard = self._shard_of(vertex_id)
        return self._session(shard).graph.vertex_exists(
            shard.runtime.id_map[vertex_id]
        )

    def degree(self, vertex_id: Any) -> int:
        """Global degree: shard-local edges plus this vertex's cut edges."""
        shard = self._shard_of(vertex_id)
        local = self._session(shard).graph.degree(shard.runtime.id_map[vertex_id])
        remote = len(shard.runtime.remote.get(vertex_id, ()))
        return local + remote + self._pending_cut.get(vertex_id, 0)

    # -- writes -----------------------------------------------------------

    def set_vertex_property(self, vertex_id: Any, key: str, value: Any) -> None:
        shard = self._shard_of(vertex_id)
        self._session(shard).graph.set_vertex_property(
            shard.runtime.id_map[vertex_id], key, value
        )
        self._record(shard, ("set_vertex_property", vertex_id, key, value))

    def remove_vertex_property(self, vertex_id: Any, key: str) -> None:
        shard = self._shard_of(vertex_id)
        self._session(shard).graph.remove_vertex_property(
            shard.runtime.id_map[vertex_id], key
        )
        self._record(shard, ("remove_vertex_property", vertex_id, key))

    def add_edge(
        self,
        source: Any,
        target: Any,
        label: str = "related",
        properties: dict[str, Any] | None = None,
    ) -> None:
        """Insert an edge; endpoints may live on different shards.

        Same-shard inserts go to the owner's MVCC session like any other
        write.  A *cross-shard* edge lives in the cut routing tables, not
        in either engine, so both endpoint owners become 2PC writers:
        each journals the ``add_cut_edge`` at PREPARE, and each installs
        its half of the routing entry only after the coordinator's COMMIT
        (or at :meth:`DistributedSessionManager.recover` if it crashed
        after voting).  The two halves therefore appear atomically with
        the transaction, never singly.
        """
        src_shard = self._shard_of(source)
        dst_shard = self._shard_of(target)
        if src_shard.index != dst_shard.index:
            op = ("add_cut_edge", source, target, label, dict(properties or {}))
            # Open both sessions so both shards participate in 2PC (the
            # recorded op is what makes each a writer).
            self._session(src_shard)
            self._session(dst_shard)
            self._record(src_shard, op)
            self._record(dst_shard, op)
            self._pending_cut[source] = self._pending_cut.get(source, 0) + 1
            self._pending_cut[target] = self._pending_cut.get(target, 0) + 1
            return
        self._session(src_shard).graph.add_edge(
            src_shard.runtime.id_map[source],
            src_shard.runtime.id_map[target],
            label,
            properties=dict(properties or {}),
        )
        self._record(
            src_shard, ("add_edge", source, target, label, dict(properties or {}))
        )

    # -- lifecycle --------------------------------------------------------

    def commit(self) -> TxnResult:
        return self.manager.commit(self)

    def abort(self) -> None:
        self.manager.abort(self)

    def __enter__(self) -> "DistributedSession":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if self.is_open:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<DistributedSession {self.id} shards={self.touched_shards} {self.state}>"


class DistributedSessionManager:
    """Coordinator for transactions spanning the shards of one partition."""

    def __init__(
        self,
        shards: list[ShardRuntime],
        owner: dict[Any, int],
        network: NetworkCostModel | None = None,
        isolation: str = "si",
        fault_plan: TxnFaultPlan | None = None,
    ) -> None:
        if not shards:
            raise BenchmarkError("a distributed session manager needs at least one shard")
        self.txn_shards = [TxnShard(runtime) for runtime in shards]
        self.owner = owner
        self.network = network or NetworkCostModel()
        self.isolation = isolation
        self.fault_plan = fault_plan or TxnFaultPlan()
        self.stats = TxnStats()
        #: SYNC log of coordinator decisions; its verified durable prefix
        #: *is* the outcome of every distributed transaction (presumed
        #: abort for anything it does not contain).
        self.decision_log = WriteAheadLog(
            name="txn-decisions",
            mode=DurabilityMode.SYNC,
            metrics=StorageMetrics(owner="txn-coordinator"),
        )
        self._next_txn_id = 1
        #: Count of commits that entered the full 2PC protocol — the
        #: coordinate :class:`TxnFaultPlan` events match against.
        self._distributed_count = 0
        #: txn id -> [(shard index, prepared session, recorded ops)] for
        #: transactions orphaned by a coordinator crash; resolved by
        #: :meth:`recover`.
        self._in_doubt: dict[int, list[tuple[int, Session, list[tuple[Any, ...]]]]] = {}
        #: (txn id, shard index) pairs whose participant crashed after
        #: voting on a committed transaction; re-applied by :meth:`recover`.
        self._pending: list[tuple[int, int]] = []

    # -- session lifecycle -------------------------------------------------

    def begin(self) -> DistributedSession:
        txn = DistributedSession(self, self._next_txn_id)
        self._next_txn_id += 1
        self.stats.begun += 1
        return txn

    def abort(self, txn: DistributedSession) -> None:
        if not txn.is_open:
            raise SessionStateError(f"transaction {txn.id} is already {txn.state}")
        for index in sorted(txn._sessions):
            session = txn._sessions[index]
            if session.is_open:
                session.abort()
        txn.state = "aborted"
        self.stats.explicit_aborts += 1

    # -- commit ------------------------------------------------------------

    def commit(self, txn: DistributedSession) -> TxnResult:
        if not txn.is_open:
            raise SessionStateError(f"transaction {txn.id} is already {txn.state}")
        writers = txn.writer_shards
        if len(writers) <= 1:
            return self._commit_one_phase(txn, writers)
        return self._commit_two_phase(txn, writers)

    def _commit_one_phase(
        self, txn: DistributedSession, writers: tuple[int, ...]
    ) -> TxnResult:
        """Single-writer fast path: a plain local commit, nothing charged.

        Read-only participants validate and close first (free under SI;
        under SSI their read sets are validated so a cross-shard
        rw-antidependency still aborts the transaction), then the one
        writer commits exactly as an undistributed session would — which
        is the parity contract.
        """
        try:
            for index in sorted(txn._sessions):
                if index in writers:
                    continue
                txn._sessions[index].commit()
            for index in writers:
                txn._sessions[index].commit()
        except TransactionError as exc:
            raise self._unwind(txn, exc)
        txn.state = "committed"
        self.stats.committed += 1
        self.stats.one_phase += 1
        return TxnResult(txn.id, "committed", "local", writers)

    def _commit_two_phase(
        self, txn: DistributedSession, writers: tuple[int, ...]
    ) -> TxnResult:
        plan = self.fault_plan
        txn_index = self._distributed_count
        self._distributed_count += 1
        clock = BarrierClock()
        net = self.stats.network
        charge_before = net.charge
        messages_before = net.messages

        # Read-only participants validate first: free RAM checks (their
        # 2PC vote is the classic read-only optimisation — they drop out
        # before any message is owed), but under SSI a stale read set
        # aborts the whole transaction here, before anything is journaled.
        try:
            for index in sorted(txn._sessions):
                if index not in writers:
                    txn._sessions[index].prepare()
        except TransactionError as exc:
            raise self._unwind(txn, exc)

        # ---- Phase 1: PREPARE -------------------------------------------
        prepared: list[int] = []
        after_vote_crashes: list[int] = []
        step_costs: list[int] = []
        batches: list[MessageBatch] = []
        for index in writers:
            shard = self.txn_shards[index]
            ops = txn._ops[index]
            if plan.fires(PARTICIPANT_CRASH_BEFORE_VOTE, txn_index, index):
                # The participant never answers: the coordinator pays the
                # timeout-detection round, decides ABORT, and unwinds.
                shard.crashed = True
                if batches:
                    net.record_step(batches, self.network)
                probe = self.network.retransmit_cost(0)
                net.charge += probe
                net.per_step_charge.append(probe)
                raise self._unwind(
                    txn, ParticipantUnavailableError(txn.id, index, "prepare"), prepared
                )

            # PREPARE message: the operation batch travels to the shard.
            send = _message(1, COORDINATOR, index, *(op[0] for op in ops))
            # The shard journals every operation (values separated into its
            # value log) plus the prepare marker, all SYNC-charged.
            journal_before = shard.journal_charge()
            for name, *arguments in ops:
                payload = {"txn": txn.id, **dict(zip(_OPS[name].fields, arguments))}
                shard.journal.append(name, payload)
            shard.journal.append("prepare", {"txn": txn.id, "ops": len(ops)})
            journal_charge = shard.journal_charge() - journal_before

            try:
                txn._sessions[index].prepare()
            except TransactionError as exc:
                # The participant votes NO: decision is ABORT, survivors
                # roll back, and the abort reason propagates untranslated
                # (WriteConflictError vs SerializationFailureError stay
                # distinct all the way up).
                batches.extend([send, _message(1, index, COORDINATOR, "vote-no")])
                net.record_step(batches, self.network)
                raise self._unwind(txn, exc, prepared)
            batches.extend([send, _message(1, index, COORDINATOR, "vote-yes")])
            step_costs.append(
                self.network.batch_cost(len(send))
                + journal_charge
                + self.network.batch_cost(1)
            )
            prepared.append(index)

            if plan.fires(PARTICIPANT_CRASH_AFTER_VOTE, txn_index, index):
                # The vote was a durable promise (ops + prepare marker are
                # journaled); the crash only loses the in-memory session.
                shard.crashed = True
                session = txn._sessions[index]
                session.state = "crashed"
                shard.manager._active.pop(session.id, None)
                after_vote_crashes.append(index)

        net.record_step(batches, self.network)
        clock.advance(step_costs)
        prepare_latency = clock.elapsed

        # ---- Decision ----------------------------------------------------
        if plan.fires(COORDINATOR_CRASH, txn_index):
            # Crash after votes, before the decision record: nothing
            # durable says COMMIT, so recovery must presume abort.
            self._orphan(txn, prepared)
            raise TransactionInDoubtError(txn.id, "after votes, before decision record")

        decision_before = self.decision_log.metrics.logical_io
        self._decide(txn.id, "committed")
        decision_charge = self.decision_log.metrics.logical_io - decision_before

        if plan.fires(TORN_DECISION, txn_index):
            # The decision record's physical write tears and the
            # coordinator dies with it.  Because nothing was sent yet, the
            # torn record is equivalent to no record: presumed abort, at
            # every participant consistently.
            self.decision_log.tear_tail(1)
            self._orphan(txn, prepared)
            raise TransactionInDoubtError(txn.id, "torn decision record")

        # ---- Phase 2: COMMIT ---------------------------------------------
        step_costs = []
        batches = []
        for index in prepared:
            shard = self.txn_shards[index]
            decide = _message(2, COORDINATOR, index, "commit")
            if index in after_vote_crashes:
                # Delivery will succeed only after the shard restarts; the
                # send is still charged (the coordinator cannot know) and
                # the apply is deferred to recover().
                batches.append(decide)
                step_costs.append(self.network.batch_cost(1))
                self._pending.append((txn.id, index))
                continue
            engine_before = shard.engine.io_cost()
            txn._sessions[index].commit_prepared()
            self._install_cut_edges(shard, txn._ops[index])
            apply_charge = shard.engine.io_cost() - engine_before
            batches.extend([decide, _message(2, index, COORDINATOR, "ack")])
            step_costs.append(
                self.network.batch_cost(1) + apply_charge + self.network.batch_cost(1)
            )

        net.record_step(batches, self.network)
        clock.advance(step_costs)
        commit_latency = decision_charge + (clock.elapsed - prepare_latency)

        # Read-only participants close for free.
        for index in sorted(txn._sessions):
            session = txn._sessions[index]
            if session.is_open:
                session.commit()
        txn.state = "committed"
        self.stats.committed += 1
        self.stats.two_phase += 1
        if after_vote_crashes:
            self.stats.in_doubt += len(after_vote_crashes)
        return TxnResult(
            txn.id,
            "committed",
            "2pc",
            writers,
            network_charge=net.charge - charge_before,
            messages=net.messages - messages_before,
            prepare_latency=prepare_latency,
            commit_latency=commit_latency,
            in_doubt_shards=tuple(after_vote_crashes),
        )

    # -- commit internals --------------------------------------------------

    def _install_cut_edges(self, shard: TxnShard, ops: list[tuple[Any, ...]]) -> None:
        """Install ``shard``'s halves of a transaction's cut-edge inserts."""
        for op in ops:
            if op[0] == "add_cut_edge":
                _install_cut_edge(shard.runtime, self.owner, op[1], op[2])

    def _decide(self, txn_id: int, outcome: str) -> None:
        """Journal the coordinator's decision (SYNC, charged)."""
        self.decision_log.append("decision", {"txn": txn_id, "outcome": outcome})

    def _unwind(
        self,
        txn: DistributedSession,
        exc: TransactionError,
        prepared: list[int] | None = None,
    ) -> TransactionError:
        """The one abort exit of both commit paths; returns ``exc`` to raise.

        ``prepared`` is ``None`` before the 2PC protocol is entered
        (read-only validation, the one-phase path): nothing was journaled
        or sent, so only the sessions roll back.  Once PREPARE has begun it
        lists the participants that already voted yes: the ABORT decision
        is journaled, each of them is sent ABORT (charged) and journals it.
        """
        if prepared is not None:
            self._decide(txn.id, "aborted")
            for index in prepared:
                self.txn_shards[index].journal.append("abort", {"txn": txn.id})
            if prepared:
                self.stats.network.record_step(
                    [_message(1, COORDINATOR, index, "abort") for index in prepared],
                    self.network,
                )
        for index in sorted(txn._sessions):
            session = txn._sessions[index]
            if session.is_open:
                session.abort()
        txn.state = "aborted"
        if isinstance(exc, SerializationFailureError):
            self.stats.ssi_aborts += 1
        elif isinstance(exc, WriteConflictError):
            self.stats.conflict_aborts += 1
        elif isinstance(exc, ParticipantUnavailableError):
            self.stats.participant_aborts += 1
        else:
            self.stats.explicit_aborts += 1
        return exc

    def _orphan(self, txn: DistributedSession, prepared: list[int]) -> None:
        """Park a transaction whose coordinator crashed mid-protocol."""
        self._in_doubt[txn.id] = [
            (index, txn._sessions[index], list(txn._ops.get(index, ())))
            for index in prepared
        ]
        txn.state = "in-doubt"
        self.stats.in_doubt += 1

    # -- recovery ----------------------------------------------------------

    def recover(self) -> dict[int, str]:
        """Crash-restart resolution of every unresolved transaction.

        Deterministic by construction: outcomes come only from the
        verified durable prefix of the decision log (presumed abort
        otherwise), shards are processed in index order, transactions in
        id order, and journaled operations re-apply in their logged order
        through a fresh session — value-log pointers dereferenced with
        charged reads that verify each value's own checksum.
        """
        decisions: dict[int, str] = {}
        for record in self.decision_log.replay():
            if record.operation == "decision":
                decisions[record.payload["txn"]] = record.payload["outcome"]

        resolutions: dict[int, str] = {}

        # 1. Transactions orphaned by a coordinator crash: their prepared
        # sessions are still parked in memory.  No intact decision record
        # means presumed abort — roll them back and journal the abort so a
        # re-run of recover() (or a later reader of the log) agrees.
        for txn_id in sorted(self._in_doubt):
            outcome = decisions.get(txn_id, "aborted")
            for index, session, ops in self._in_doubt[txn_id]:
                if not session.is_open:
                    continue
                if outcome == "committed":
                    session.commit_prepared()
                    self._install_cut_edges(self.txn_shards[index], ops)
                else:
                    session.abort()
                    self.txn_shards[index].journal.append("abort", {"txn": txn_id})
            if outcome == "aborted" and txn_id not in decisions:
                self._decide(txn_id, "aborted")
            resolutions[txn_id] = outcome
            if outcome == "committed":
                self.stats.recovered_commits += 1
            else:
                self.stats.recovered_aborts += 1
        self._in_doubt.clear()

        # 2. Participants that crashed after voting on a transaction the
        # coordinator committed: replay their journaled operations.
        for txn_id, index in sorted(self._pending):
            outcome = decisions.get(txn_id, "aborted")
            resolutions[txn_id] = outcome
            shard = self.txn_shards[index]
            shard.crashed = False
            if outcome != "committed":
                shard.journal.append("abort", {"txn": txn_id})
                self.stats.recovered_aborts += 1
                continue
            self._reapply(shard, txn_id)
            shard.journal.append("applied", {"txn": txn_id})
            self.stats.recovered_commits += 1
        self._pending.clear()

        # Any shard marked crashed with nothing pending simply restarts.
        for shard in self.txn_shards:
            shard.crashed = False
        return resolutions

    def _reapply(self, shard: TxnShard, txn_id: int) -> None:
        """Re-apply one committed transaction's journaled ops on ``shard``.

        The replay runs through a *fresh* session and the ordinary graph
        API — external ids translate through the shard's id map, edge
        inserts mint new provisional ids — so every write-set and
        version-store invariant is rebuilt exactly as a live commit would
        have built it, instead of being patched behind the MVCC layer's
        back.
        """
        # Charged value-log dereferences first; a torn value write raises
        # StorageError here instead of resurrecting half a blob.
        ops = [
            (record.operation, shard.journal.resolve_payload(record.payload))
            for record in shard.journal.replay()
            if record.payload.get("txn") == txn_id and record.operation in _OPS
        ]
        session = shard.manager.begin()
        for name, payload in ops:
            _OPS[name].replay(session.graph, shard.runtime, self.owner, payload)
        session.commit()
