"""The fault-aware BSP executor: retries, rejoins, degrades — never hangs.

:class:`ChaosExecutor` subclasses the PR 5
:class:`~repro.partition.executor.DistributedExecutor` and re-implements its
superstep loop with the fault plan consulted at every decision point:

* **per-attempt**: a shard's expansion can stall (wait out the superstep
  timeout) or crash (work lost, WAL tail optionally torn).  Both retry
  deterministically under the configured policy — fixed exponential
  backoff, or the adaptive EWMA policy whose waits track observed charge.
* **per-shard**: a shard that faults past its retry budget is *abandoned*
  for the rest of the query; its frontiers are served from the journal's
  snapshot (degraded reads, staleness counted) and the query's label drops
  from ``"exact"`` to ``"stale"``.  No snapshot either → the query fails
  fast with :class:`~repro.exceptions.ShardUnavailableError`.
* **per-batch**: first transmissions can be lost (detected + retransmitted
  within the barrier window, at a charged premium) or duplicated; a whole
  superstep's deliveries can arrive reordered.  The receiver restores
  canonical order from per-query sequence numbers and drops duplicate
  sequences idempotently.
* **per-barrier**: crashed shards rejoin through
  :meth:`~repro.concurrency.scheduler.BarrierClock.rejoin_at` (monotonic,
  never a sealed barrier), and every ``checkpoint_interval`` barriers the
  live shards take a charged checkpoint that refreshes their snapshots.

Charge accounting is two-ledger.  *Base* charges — ``compute_charge`` for
the successful attempt of every expansion, ``network_charge`` for every
delivered batch — are byte-identical to the fault-free run by construction:
recovery restores the exact pre-crash engine, retransmission happens within
the same barrier, reordering is undone before delivery.  Everything faults
cost extra — wasted attempts, backoff waits, retransmit premiums, recovery
replays, checkpoints, journal appends — lands in separate *overhead*
counters.  ``tests/faults/test_differential.py`` pins the invariant for
every engine × partitioner.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.concurrency.driver import AdaptiveRetryPolicy, RetryPolicy
from repro.concurrency.scheduler import BarrierClock
from repro.exceptions import BenchmarkError, ShardUnavailableError
from repro.faults.plan import FaultPlan
from repro.faults.recovery import ShardJournal
from repro.model.graph import GraphDatabase
from repro.partition.executor import (
    BuildReport,
    DistributedExecutor,
    DistributedResult,
    ShardRuntime,
    build_distributed,
)
from repro.partition.messages import MessageBatch, NetworkCostModel, NetworkStats
from repro.partition.partitioners import PartitionPlan

#: Query outcome labels (the chaos contract: always exactly one of these).
EXACT = "exact"
STALE = "stale"
FAILED = "failed"

#: Faulted attempts (crashes + stalls) a shard may consume per *query*
#: before it is abandoned — the budget is cumulative across supersteps, so
#: a shard that keeps dying eventually stops being retried.
DEFAULT_MAX_RESTARTS = 2

#: Fixed-policy straggler timeout, in charge units.  Deliberately generous —
#: the cost of a constant threshold is exactly what the adaptive policy's
#: A/B column in fig11 measures.
DEFAULT_SUPERSTEP_TIMEOUT = 2048

#: Barriers between charged snapshot refreshes.
DEFAULT_CHECKPOINT_INTERVAL = 4


@dataclass
class ChaosResult(DistributedResult):
    """A distributed result plus the fault ledger.

    The inherited fields (``compute_charge``, ``network_charge``, …) are
    *base* charges: for an ``"exact"`` query they equal the fault-free run
    byte for byte.  Every fault-induced cost is in the fields below.
    """

    #: ``"exact"`` or ``"stale"`` (``"failed"`` results are never returned —
    #: the executor raises — but benchmarks record the label for failures).
    label: str = EXACT
    #: Worst staleness bound across degraded reads (virtual-time units).
    staleness: int = 0
    #: Frontier entries served from snapshots instead of live engines.
    degraded_reads: int = 0
    #: Charge of those snapshot reads (useful work, but not base compute).
    degraded_charge: int = 0
    crashes: int = 0
    restarts: int = 0
    stalls: int = 0
    #: Shards abandoned past their retry budget this query.
    abandoned: int = 0
    rejoins: int = 0
    torn_records: int = 0
    repaired_records: int = 0
    messages_lost: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    # -- the overhead ledger ------------------------------------------------
    #: Expansion work performed by attempts that crashed, plus timeouts
    #: waited out on stalled attempts.
    wasted_compute_charge: int = 0
    #: Retry backoff waits.
    backoff_charge: int = 0
    #: Wasted sends + detection premiums + duplicate transmissions.
    retransmit_charge: int = 0
    #: Replay + repair + engine-rebuild work across crash recoveries.
    recovery_charge: int = 0
    #: Periodic snapshot refreshes.
    checkpoint_charge: int = 0
    #: Per-attempt WAL progress records.
    journal_charge: int = 0

    @property
    def overhead_charge(self) -> int:
        """Everything the faults cost on top of the base charges."""
        return (
            self.wasted_compute_charge
            + self.backoff_charge
            + self.retransmit_charge
            + self.recovery_charge
            + self.checkpoint_charge
            + self.journal_charge
        )

    @property
    def grand_total_charge(self) -> int:
        """Base + overhead + degraded service: all charged work."""
        return self.total_charge + self.overhead_charge + self.degraded_charge


@dataclass
class _QueryLedger:
    """Mutable fault counters for one query (folded into the result)."""

    compute_charge: int = 0
    staleness: int = 0
    degraded_reads: int = 0
    degraded_charge: int = 0
    crashes: int = 0
    restarts: int = 0
    stalls: int = 0
    rejoins: int = 0
    torn_records: int = 0
    repaired_records: int = 0
    wasted_compute: int = 0
    backoff_charge: int = 0
    recovery_charge: int = 0
    checkpoint_charge: int = 0
    journal_charge: int = 0
    down: set[int] = field(default_factory=set)
    #: Faults each shard has consumed this query (the retry budget's meter).
    faults_by_shard: dict[int, int] = field(default_factory=dict)
    sequence: int = 0


class ChaosExecutor(DistributedExecutor):
    """A distributed executor that survives a :class:`FaultPlan`."""

    def __init__(
        self,
        shards: list[ShardRuntime],
        owner: dict[Any, int],
        engine_factory: Callable[[], GraphDatabase],
        fault_plan: FaultPlan | None = None,
        network: NetworkCostModel | None = None,
        retry: RetryPolicy | None = None,
        retry_policy: str = "fixed",
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        superstep_timeout: int = DEFAULT_SUPERSTEP_TIMEOUT,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        plan: PartitionPlan | None = None,
    ) -> None:
        super().__init__(shards, owner, network, plan)
        if max_restarts < 0:
            raise BenchmarkError(f"max_restarts must be >= 0, got {max_restarts}")
        if checkpoint_interval < 1:
            raise BenchmarkError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if superstep_timeout < 1:
            raise BenchmarkError(
                f"superstep_timeout must be >= 1, got {superstep_timeout}"
            )
        for shard in shards:
            if shard.payload is None:
                raise BenchmarkError(
                    f"shard {shard.index} has no retained payload; build the "
                    "executor through build_chaos/build_distributed"
                )
        self.engine_factory = engine_factory
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.retry = retry if retry is not None else RetryPolicy()
        self.retry_policy = retry_policy
        self.max_restarts = max_restarts
        self.superstep_timeout = superstep_timeout
        self.checkpoint_interval = checkpoint_interval
        #: Per-shard journals: WAL + snapshot (the initial checkpoint is the
        #: chaos build cost, reported via :attr:`build_charge`).
        self.journals = {
            shard.index: ShardJournal(shard.index, shard.payload) for shard in shards
        }
        self.build_charge = sum(j.build_charge for j in self.journals.values())
        #: Per-shard latency estimators, persistent across queries so the
        #: adaptive policy genuinely *learns* (fed on every successful
        #: attempt, consulted for backoff and straggler timeouts).
        self.estimators: dict[int, AdaptiveRetryPolicy] = (
            {shard.index: AdaptiveRetryPolicy(base=self.retry) for shard in shards}
            if retry_policy == "adaptive"
            else {}
        )
        self.queries_run = 0

    # -- deterministic helpers --------------------------------------------

    def _rng(self, query: int, hop: int, shard: int, attempt: int) -> random.Random:
        """Seeded jitter source: a pure function of the fault coordinates."""
        key = f"{self.fault_plan.seed}|backoff|{query}|{hop}|{shard}|{attempt}"
        return random.Random(zlib.crc32(key.encode("utf-8")))

    def _backoff(self, query: int, hop: int, shard: int, attempt: int) -> int:
        rng = self._rng(query, hop, shard, attempt)
        policy = self.estimators.get(shard, self.retry)
        return policy.backoff_for(attempt, rng)

    def _timeout(self, shard: int) -> int:
        estimator = self.estimators.get(shard)
        if estimator is None:
            return self.superstep_timeout
        return estimator.timeout(self.superstep_timeout)

    # -- the fault-aware superstep loop -----------------------------------

    def _run(self, source: Any, depth: int, target: Any | None) -> ChaosResult:
        try:
            home = self.owner[source]
        except KeyError:
            raise BenchmarkError(f"source vertex {source!r} is not a known vertex") from None
        query = self.queries_run
        self.queries_run += 1

        clock = BarrierClock()
        stats = NetworkStats()
        ledger = _QueryLedger()
        distances: dict[Any, int] = {source: 0}
        frontiers: dict[int, list[Any]] = {home: [source]}
        sent: list[set[Any]] = [set() for _shard in self.shards]

        if target is not None and target in distances:
            frontiers = {}
        hop = 0
        while frontiers and hop < depth:
            hop += 1
            step_costs: dict[int, int] = {}
            outboxes: list[MessageBatch] = []
            duplicates: list[MessageBatch] = []
            for shard in self.shards:
                frontier = frontiers.get(shard.index)
                if not frontier:
                    continue
                cost, discovered = self._expand_with_faults(
                    shard, frontier, distances, query, hop, clock, ledger
                )
                frontiers[shard.index] = discovered

                batches = self._collect_batches(shard, frontier, hop, sent[shard.index])
                for batch in batches:
                    batch.sequence = ledger.sequence
                    ledger.sequence += 1
                cost += sum(self.network.batch_cost(len(batch)) for batch in batches)
                cost += self._fault_batches(batches, duplicates, stats, query, hop)
                outboxes.extend(batches)
                step_costs[shard.index] = cost

            if hop % self.checkpoint_interval == 0:
                for shard in self.shards:
                    if shard.index in ledger.down:
                        continue
                    charge = self.journals[shard.index].checkpoint(version=clock.elapsed)
                    ledger.checkpoint_charge += charge
                    step_costs[shard.index] = step_costs.get(shard.index, 0) + charge

            stats.record_step(outboxes, self.network)
            clock.advance(list(step_costs.values()))

            self._deliver(outboxes, duplicates, frontiers, distances, stats, query, hop)
            frontiers = {
                index: frontier for index, frontier in frontiers.items() if frontier
            }
            if target is not None and target in distances:
                break

        label = STALE if ledger.degraded_reads else EXACT
        return ChaosResult(
            distances=distances,
            makespan_charge=clock.elapsed,
            busy_charge=clock.busy,
            compute_charge=ledger.compute_charge,
            network_charge=stats.charge,
            supersteps=clock.steps,
            messages=stats.messages,
            message_items=stats.items,
            label=label,
            staleness=ledger.staleness,
            degraded_reads=ledger.degraded_reads,
            degraded_charge=ledger.degraded_charge,
            crashes=ledger.crashes,
            restarts=ledger.restarts,
            stalls=ledger.stalls,
            abandoned=len(ledger.down),
            rejoins=ledger.rejoins,
            torn_records=ledger.torn_records,
            repaired_records=ledger.repaired_records,
            messages_lost=stats.lost,
            messages_duplicated=stats.duplicated,
            messages_reordered=stats.reordered,
            wasted_compute_charge=ledger.wasted_compute,
            backoff_charge=ledger.backoff_charge,
            retransmit_charge=stats.fault_charge,
            recovery_charge=ledger.recovery_charge,
            checkpoint_charge=ledger.checkpoint_charge,
            journal_charge=ledger.journal_charge,
        )

    # -- per-shard expansion with retry ------------------------------------

    def _expand_with_faults(
        self,
        shard: ShardRuntime,
        frontier: list[Any],
        distances: dict[Any, int],
        query: int,
        hop: int,
        clock: BarrierClock,
        ledger: _QueryLedger,
    ) -> tuple[int, list[Any]]:
        """Expand one shard's frontier under the fault plan.

        Returns ``(this shard's step cost, newly discovered externals)``
        and updates ``distances`` and the ledger.  Exhausting the retry
        budget abandons the shard and serves the frontier degraded; raising
        :class:`ShardUnavailableError` is the only other exit.
        """
        journal = self.journals[shard.index]
        if shard.index in ledger.down:
            return self._degrade(shard, frontier, distances, query, hop, clock, ledger)

        cost = 0
        attempt = 0
        site_faults = 0
        while True:
            attempt += 1
            charge = journal.record(
                "superstep", {"query": query, "superstep": hop, "attempt": attempt}
            )
            ledger.journal_charge += charge
            cost += charge  # the progress record's page write, on the clock

            if self.fault_plan.stall(query, hop, shard.index, attempt, site_faults):
                site_faults += 1
                ledger.stalls += 1
                used = ledger.faults_by_shard.get(shard.index, 0) + 1
                ledger.faults_by_shard[shard.index] = used
                timeout = self._timeout(shard.index)
                cost += timeout
                ledger.wasted_compute += timeout
                if used > self.max_restarts:
                    return self._abandon(
                        shard, frontier, distances, query, hop, clock, ledger, cost
                    )
                backoff = self._backoff(query, hop, shard.index, attempt)
                cost += backoff
                ledger.backoff_charge += backoff
                continue

            neighbors, compute = self._expand_local(shard, frontier)
            crashed, torn = self.fault_plan.crash(
                query, hop, shard.index, attempt, site_faults
            )
            if crashed:
                site_faults += 1
                ledger.crashes += 1
                used = ledger.faults_by_shard.get(shard.index, 0) + 1
                ledger.faults_by_shard[shard.index] = used
                # The attempt's work was done, then lost: charged as waste.
                cost += compute
                ledger.wasted_compute += compute
                journal.crash(torn)
                if used > self.max_restarts:
                    return self._abandon(
                        shard, frontier, distances, query, hop, clock, ledger, cost
                    )
                report = journal.recover(self.engine_factory)
                shard.rebind(report.engine, report.id_map)
                ledger.restarts += 1
                ledger.recovery_charge += report.charge
                ledger.torn_records += report.torn_records
                ledger.repaired_records += report.repaired_records
                cost += report.charge
                clock.rejoin_at(clock.steps)  # the barrier currently forming
                ledger.rejoins += 1
                backoff = self._backoff(query, hop, shard.index, attempt)
                cost += backoff
                ledger.backoff_charge += backoff
                continue

            # Success: this attempt's expansion is the base compute — by
            # construction identical to what a never-faulted run charges.
            cost += compute
            ledger.compute_charge += compute
            estimator = self.estimators.get(shard.index)
            if estimator is not None:
                estimator.observe(compute)
            return cost, _discover(neighbors, distances, hop)

    # -- degraded service --------------------------------------------------

    def _abandon(
        self,
        shard: ShardRuntime,
        frontier: list[Any],
        distances: dict[Any, int],
        query: int,
        hop: int,
        clock: BarrierClock,
        ledger: _QueryLedger,
        cost: int,
    ) -> tuple[int, list[Any]]:
        """Retry budget exhausted: the shard is down for the rest of the query."""
        ledger.down.add(shard.index)
        extra, discovered = self._degrade(
            shard, frontier, distances, query, hop, clock, ledger
        )
        return cost + extra, discovered

    def _degrade(
        self,
        shard: ShardRuntime,
        frontier: list[Any],
        distances: dict[Any, int],
        query: int,
        hop: int,
        clock: BarrierClock,
        ledger: _QueryLedger,
    ) -> tuple[int, list[Any]]:
        """Serve a down shard's frontier from its journal's snapshot."""
        journal = self.journals[shard.index]
        if self.fault_plan.snapshot_lost(query, shard.index, hop):
            journal.drop_snapshot()
        if journal.snapshot is None:
            raise ShardUnavailableError(
                shard.index, hop, "retry budget exhausted and no retained snapshot"
            )
        neighbors, charge = journal.degraded_neighbors(frontier)
        ledger.degraded_reads += len(frontier)
        ledger.degraded_charge += charge
        ledger.staleness = max(ledger.staleness, journal.staleness(clock.elapsed))
        return charge, _discover(neighbors, distances, hop)

    # -- the message fault plane -------------------------------------------

    def _fault_batches(
        self,
        batches: list[MessageBatch],
        duplicates: list[MessageBatch],
        stats: NetworkStats,
        query: int,
        hop: int,
    ) -> int:
        """Apply loss/duplication to a sender's batches; return extra charge.

        A lost batch costs its sender the wasted first transmission plus the
        detection premium — the retransmission lands within the same barrier
        window, so delivery content is unchanged.  A duplicated batch is
        transmitted twice; the receiver drops the second by sequence.
        """
        extra = 0
        for batch in batches:
            fault = self.fault_plan.message_fault(
                query, hop, batch.source_shard, batch.sequence
            )
            if fault == "loss":
                extra += stats.record_loss(batch, self.network)
            elif fault == "dup":
                extra += stats.record_duplicate(batch, self.network)
                duplicates.append(batch)
        return extra

    def _deliver(
        self,
        outboxes: list[MessageBatch],
        duplicates: list[MessageBatch],
        frontiers: dict[int, list[Any]],
        distances: dict[Any, int],
        stats: NetworkStats,
        query: int,
        hop: int,
    ) -> None:
        """Barrier delivery: reorder-buffer by sequence, dedup, apply."""
        deliveries = list(outboxes) + list(duplicates)
        if len(deliveries) >= 2 and self.fault_plan.reorder(query, hop):
            order = self.fault_plan.permutation(query, hop, len(deliveries))
            stats.record_reorder(sum(1 for i, j in enumerate(order) if i != j))
            deliveries = [deliveries[i] for i in order]
        applied: set[int] = set()
        # The reorder buffer: apply in sequence order regardless of arrival
        # order, and drop re-deliveries of an already-applied sequence.
        for batch in sorted(deliveries, key=lambda b: b.sequence):
            if batch.sequence in applied:
                continue
            applied.add(batch.sequence)
            receiver_frontier = frontiers.setdefault(batch.target_shard, [])
            for external, distance in batch.items:
                if external not in distances:
                    distances[external] = distance
                    receiver_frontier.append(external)


def _discover(neighbors: list[Any], distances: dict[Any, int], hop: int) -> list[Any]:
    """Fold an expansion into the distance map; return the new frontier."""
    discovered: list[Any] = []
    for external in neighbors:
        if external not in distances:
            distances[external] = hop
            discovered.append(external)
    return discovered


# ----------------------------------------------------------------------
# Building a chaos executor
# ----------------------------------------------------------------------


def build_chaos(
    source_engine: GraphDatabase,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    engine_factory: Callable[[], GraphDatabase],
    fault_plan: FaultPlan | None = None,
    network: NetworkCostModel | None = None,
    retry: RetryPolicy | None = None,
    retry_policy: str = "fixed",
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    superstep_timeout: int = DEFAULT_SUPERSTEP_TIMEOUT,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> tuple[ChaosExecutor, BuildReport]:
    """Shard an engine per ``plan`` and wrap the shards in a chaos executor.

    Same contract as :func:`~repro.partition.executor.build_distributed`
    (whose shard construction this reuses), plus per-shard journals seeded
    with an initial checkpoint — that one-off durability cost is reported
    on :attr:`ChaosExecutor.build_charge`, not charged to any query.
    """
    base, report = build_distributed(
        source_engine, vertex_map, plan, engine_factory, network=network
    )
    executor = ChaosExecutor(
        base.shards,
        base.owner,
        engine_factory,
        fault_plan=fault_plan,
        network=base.network,
        retry=retry,
        retry_policy=retry_policy,
        max_restarts=max_restarts,
        superstep_timeout=superstep_timeout,
        checkpoint_interval=checkpoint_interval,
        plan=base.plan,
    )
    return executor, report
