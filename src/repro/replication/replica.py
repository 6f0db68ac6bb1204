"""Read replicas as lagging MVCC snapshots over one primary engine.

The concurrency layer already models time-travel: a
:class:`~repro.concurrency.versioning.VersionedGraph` can answer any read
at any retained snapshot.  A read replica is therefore *not* a second
engine — it is a :class:`~repro.concurrency.sessions.SnapshotPin` plus a
read-only :class:`~repro.concurrency.versioning.SnapshotView`, fed by the
charged :class:`~repro.replication.log.ReplicationLog` and advanced in
batches on its own apply interval.  Three consequences the tests pin:

* a fully caught-up replica's reads take the view's full-delegation fast
  path — **byte-identical answers and charges** to reading the primary
  engine directly;
* a lagging replica serves exactly the primary's state at its pinned
  timestamp (the undo chains are retained because the pin holds the GC
  low-water mark), so a "replica read" equals "a primary read at the same
  snapshot timestamp" by construction *and* by assertion;
* staleness is virtual time, measured exactly like the PR 6 degraded-read
  plumbing (``ShardJournal.staleness``: now minus the served snapshot's
  origin): here, ``now`` minus the commit time of the oldest unapplied log
  record, zero when caught up.

Charging follows the chaos layer's two-ledger rule: base read/CUD charges
are byte-identical to the unreplicated path; everything replication adds —
before-image capture, log append, ship+apply, cache invalidation fan-out —
is booked separately as overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.concurrency.scheduler import StalenessClock
from repro.concurrency.sessions import CommitResult, SessionManager
from repro.exceptions import BenchmarkError
from repro.model.elements import Direction
from repro.replication.cache import ChargedCache, cache_keys_for
from repro.replication.log import ReplicationLog, ReplicationRecord, batch_apply_cost

#: Default virtual-time staleness bound (charge units a replica may lag).
DEFAULT_STALENESS_BOUND = 4096
#: Default virtual-time gap between a replica's apply batches.
DEFAULT_APPLY_INTERVAL = 256


@dataclass
class ReadOutcome:
    """One served read: the answer plus where and how it was served."""

    value: Any
    #: ``"primary"`` or ``"replica"``.
    served_by: str
    #: Replica index within its cluster (None for primary serves).
    replica: int | None
    #: MVCC timestamp the answer reflects.
    snapshot_ts: int
    #: Virtual-time staleness at serve (0 for primary serves).
    staleness: int
    #: Engine charge the serve paid (0 on a cache hit).
    charge: int
    cache_hit: bool
    #: Modelled charge a cache hit skipped (the entry's cold-read charge).
    saved_charge: int


@dataclass
class WriteReceipt:
    """One write-through commit: base cost vs replication overhead."""

    commit_ts: int
    result: Any
    #: Provisional id → engine id for objects the commit created.
    id_map: dict[Any, Any]
    #: Engine charge a direct, unreplicated execution would pay.
    base_charge: int
    #: MVCC before-image capture reads (replication overhead).
    capture_charge: int
    #: Replication-log append (overhead).
    log_charge: int
    #: Eager primary-side cache invalidation fan-out (overhead).
    invalidation_charge: int
    invalidation_keys: tuple[tuple[str, Any], ...]
    read_only: bool = False


class ReadReplica:
    """One lagging replica: a moving pin, a charged apply loop, a hot cache."""

    def __init__(
        self,
        index: int,
        manager: SessionManager,
        log: ReplicationLog,
        clock: StalenessClock,
        apply_interval: int,
        cache: ChargedCache,
    ) -> None:
        if apply_interval <= 0:
            raise BenchmarkError("a replica's apply interval must be positive")
        self.index = index
        self.manager = manager
        self.log = log
        self.clock = clock
        self.apply_interval = apply_interval
        self.cache = cache
        self.pin = manager.pin()
        self.view = manager.snapshot_view(self.pin)
        #: Log records applied so far (replicas start fully caught up).
        self.applied_index = len(log.records)
        self.last_apply_time = clock.now
        # Ledgers (all overhead; base read charges live on the cluster).
        self.apply_charge = 0
        self.apply_batches = 0
        self.records_applied = 0
        self.reads_served = 0
        #: Virtual busy time of this replica server (serves + applies).
        self.busy = 0

    @property
    def applied_ts(self) -> int:
        """The MVCC snapshot this replica advertises (its pin)."""
        return self.pin.snapshot_ts

    def staleness(self, now: int) -> int:
        """Age of the oldest unapplied commit, in virtual time (0 if none).

        Same accounting as the PR 6 degraded-read plumbing: the served
        snapshot's distance from ``now``, floored at zero.
        """
        pending = self.log.pending_after(self.applied_index)
        if not pending:
            return 0
        return max(0, now - pending[0].commit_time)

    def poll(self, now: int) -> int:
        """Apply pending log records if the apply interval elapsed.

        Returns the charged apply + invalidation work (0 when the replica
        is between intervals or has nothing pending).  Applying moves the
        pin — releasing retained MVCC versions — and drops every cached
        entry the applied commits dirtied.  Invalidation happens *at apply
        time*, not commit time: dropping a replica-cached entry before the
        replica's snapshot advances past the write would let a re-admitted
        pre-write payload survive the apply and go stale.
        """
        if now - self.last_apply_time < self.apply_interval:
            return 0
        self.last_apply_time = now
        pending = self.log.pending_after(self.applied_index)
        if not pending:
            return 0
        charge = batch_apply_cost(pending)
        for record in pending:
            for key in record.keys:
                for cache_key in cache_keys_for(key):
                    charge += self.cache.invalidate(cache_key)
        self.applied_index += len(pending)
        self.pin.move(pending[-1].commit_ts)
        self.apply_charge += charge
        self.apply_batches += 1
        self.records_applied += len(pending)
        self.busy += charge
        return charge

    def close(self) -> None:
        if not self.pin.released:
            self.pin.release()


class ReplicatedCluster:
    """One primary engine, its session manager, and R read replicas.

    Writes go through the primary (write-through) and publish a replication
    record; reads are routed round-robin to the first replica within the
    staleness bound, falling back to the primary — charged and counted —
    when every replica violates it.
    """

    def __init__(
        self,
        name: str,
        manager: SessionManager,
        clock: StalenessClock,
        replicas: int = 0,
        apply_interval: int = DEFAULT_APPLY_INTERVAL,
        cache_capacity: int = 0,
        staleness_bound: int = DEFAULT_STALENESS_BOUND,
        force_capture: bool = False,
    ) -> None:
        if replicas < 0:
            raise BenchmarkError("replica count cannot be negative")
        self.name = name
        self.manager = manager
        self.engine = manager.engine
        self.clock = clock
        self.staleness_bound = staleness_bound
        self.log = ReplicationLog()
        self.primary_cache = ChargedCache(f"{name}-primary-hot", cache_capacity)
        self.replicas = [
            ReadReplica(
                index=index,
                manager=manager,
                log=self.log,
                clock=clock,
                # Staggered intervals: replica 0 applies most eagerly, the
                # last replica lags the most — a deterministic spread of
                # staleness instead of R clones of one replica.
                apply_interval=apply_interval * (index + 1),
                cache=ChargedCache(f"{name}-replica{index}-hot", cache_capacity),
            )
            for index in range(replicas)
        ]
        self._rotation = 0
        # A cache is a reader of the past: its entries must be invalidated
        # by key, and commits only compute invalidation keys when a pin (or
        # concurrent session) forces before-image capture.  With replicas
        # the pins exist anyway; a replica-less cluster that caches (or
        # whose deployment runs ghost caches — ``force_capture``) holds one
        # *coherence pin* kept at the clock, paying the capture charge as
        # explicit coherence overhead.  Cache-off, replica-less clusters
        # hold nothing and stay charge-identical to direct execution.
        self._coherence_pin = (
            manager.pin()
            if not self.replicas and (cache_capacity > 0 or force_capture)
            else None
        )
        # Ledgers.
        self.writes = 0
        self.base_write_charge = 0
        self.capture_charge = 0
        self.primary_invalidation_charge = 0
        self.primary_reads = 0
        self.replica_reads = 0
        self.fallbacks = 0
        self.base_read_charge = 0
        self.staleness_samples: list[int] = []
        #: Virtual busy time of the primary server.
        self.primary_busy = 0

    # -- writes -------------------------------------------------------------

    def execute_write(self, mutate: Callable[[Any], Any]) -> WriteReceipt:
        """Run ``mutate`` on a fresh session and commit write-through.

        ``mutate`` receives the session's transactional graph view.  Base
        charge is exactly what a direct execution pays: the engine I/O
        delta minus the measured before-image capture (which only exists
        because replicas pin history).
        """
        session = self.manager.begin()
        before = self.engine.io_cost()
        try:
            result = mutate(session.graph)
            commit: CommitResult = session.commit()
        except Exception:
            if session.is_open:
                session.abort()
            raise
        total = self.engine.io_cost() - before
        base = total - commit.capture_charge
        if self._coherence_pin is not None and not commit.read_only:
            self._coherence_pin.move(self.manager.store.clock)
        self.clock.tick(total)
        self.writes += 1
        self.base_write_charge += base
        self.capture_charge += commit.capture_charge
        self.primary_busy += total

        log_charge = 0
        invalidation_charge = 0
        if not commit.read_only:
            if self.replicas:
                # With no subscribers there is nothing to ship, so a
                # replica-less cluster stays log-transparent.
                record = ReplicationRecord(
                    commit_ts=commit.commit_ts,
                    commit_time=self.clock.now,
                    keys=commit.invalidation_keys,
                    ops=commit.applied_ops,
                )
                log_charge = self.log.append(record)
            # Eager coherence on the primary: its cache serves *current*
            # state, so dirty entries drop at commit time.  Replica caches
            # drop later, when each replica applies this record.
            for key in commit.invalidation_keys:
                for cache_key in cache_keys_for(key):
                    invalidation_charge += self.primary_cache.invalidate(cache_key)
            self.clock.tick(log_charge + invalidation_charge)
            self.primary_invalidation_charge += invalidation_charge
            self.primary_busy += log_charge + invalidation_charge

        return WriteReceipt(
            commit_ts=commit.commit_ts,
            result=result,
            id_map=dict(commit.id_map),
            base_charge=base,
            capture_charge=commit.capture_charge,
            log_charge=log_charge,
            invalidation_charge=invalidation_charge,
            invalidation_keys=commit.invalidation_keys,
            read_only=commit.read_only,
        )

    # -- reads --------------------------------------------------------------

    def read_record(self, vertex_id: Any, bound: int | None = None) -> ReadOutcome:
        """Serve a vertex's label + properties (hot-vertex cacheable)."""
        return self._read(("record", vertex_id), bound, _fetch_record, (vertex_id,))

    def read_adjacency(self, vertex_id: Any, bound: int | None = None) -> ReadOutcome:
        """Serve a vertex's BOTH-direction neighbour list (cacheable)."""
        return self._read(("adj", vertex_id), bound, _fetch_adjacency, (vertex_id,))

    def _read(
        self,
        cache_key: tuple[str, Any],
        bound: int | None,
        fetch: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> ReadOutcome:
        replica = self._route(bound)
        if replica is None:
            graph: Any = self.engine
            cache = self.primary_cache
            snapshot_ts = self.manager.store.clock
            staleness = 0
            self.primary_reads += 1
        else:
            graph = replica.view
            cache = replica.cache
            snapshot_ts = replica.applied_ts
            staleness = replica.staleness(self.clock.now)
            self.replica_reads += 1
            self.staleness_samples.append(staleness)
            replica.reads_served += 1

        entry = cache.lookup(cache_key) if cache.capacity > 0 else None
        if entry is not None:
            value = entry.payload
            charge = 0
            cache_hit = True
            saved = entry.charge
        else:
            before = self.engine.io_cost()
            value = fetch(graph, *args)
            charge = self.engine.io_cost() - before
            cache.admit(cache_key, value, charge, snapshot_ts)
            cache_hit = False
            saved = 0

        self.clock.tick(charge)
        self.base_read_charge += charge
        if replica is None:
            self.primary_busy += charge
        else:
            replica.busy += charge
        return ReadOutcome(
            value=value,
            served_by="primary" if replica is None else "replica",
            replica=None if replica is None else replica.index,
            snapshot_ts=snapshot_ts,
            staleness=staleness,
            charge=charge,
            cache_hit=cache_hit,
            saved_charge=saved,
        )

    def _route(self, bound: int | None) -> ReadReplica | None:
        """Pick the serving replica (round-robin) or fall back to primary.

        Every candidate considered gets a :meth:`ReadReplica.poll` first —
        the read is the event that gives a replica CPU, exactly like the
        scheduler's "charges are time" convention — so a replica behind
        its apply interval catches up before its staleness is judged.
        """
        if not self.replicas:
            return None
        if bound is None:
            bound = self.staleness_bound
        count = len(self.replicas)
        start = self._rotation
        self._rotation = (self._rotation + 1) % count
        for offset in range(count):
            replica = self.replicas[(start + offset) % count]
            apply_charge = replica.poll(self.clock.now)
            if apply_charge:
                self.clock.tick(apply_charge)
            if replica.staleness(self.clock.now) <= bound:
                return replica
        self.fallbacks += 1
        return None

    # -- bookkeeping --------------------------------------------------------

    def catch_up(self) -> int:
        """Force every replica to apply everything pending (charged)."""
        charge = 0
        for replica in self.replicas:
            replica.last_apply_time = self.clock.now - replica.apply_interval
            applied = replica.poll(self.clock.now)
            if applied:
                self.clock.tick(applied)
            charge += applied
        return charge

    def server_busy(self) -> list[int]:
        """Busy virtual time per server: primary first, then each replica."""
        return [self.primary_busy] + [replica.busy for replica in self.replicas]

    def ledger(self) -> dict[str, Any]:
        hot = self.primary_cache.stats.__class__()
        hot.merge(self.primary_cache.stats)
        for replica in self.replicas:
            hot.merge(replica.cache.stats)
        return {
            "writes": self.writes,
            "base_write_charge": self.base_write_charge,
            "base_read_charge": self.base_read_charge,
            "reads_primary": self.primary_reads,
            "reads_replica": self.replica_reads,
            "fallbacks": self.fallbacks,
            "capture_charge": self.capture_charge,
            "log_append_charge": self.log.append_charge,
            "apply_charge": sum(replica.apply_charge for replica in self.replicas),
            "records_applied": sum(replica.records_applied for replica in self.replicas),
            "invalidation_charge": self.primary_invalidation_charge
            + sum(replica.cache.stats.invalidation_charge for replica in self.replicas),
            "hot_cache": hot.ledger(),
        }

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()
        if self._coherence_pin is not None and not self._coherence_pin.released:
            self._coherence_pin.release()


def _fetch_record(graph: Any, vertex_id: Any) -> tuple[Any, ...]:
    vertex = graph.vertex(vertex_id)
    return (vertex.label, tuple(sorted(vertex.properties.items())))


def _fetch_adjacency(graph: Any, vertex_id: Any) -> tuple[Any, ...]:
    return tuple(graph.neighbors(vertex_id, Direction.BOTH))
