"""The fault plane: what the one BSP loop asks when failures are possible.

There is exactly one superstep loop —
:meth:`DistributedExecutor._run <repro.partition.executor.DistributedExecutor._run>`
— and faults are *composed around* its boundaries, not forked from it.
A :class:`FaultPlane` owns everything a faulted run needs (the
:class:`~repro.faults.plan.FaultPlan`, per-shard journals, latency
estimators, retry policy, the three validated knobs) and the loop asks it
at four points:

* **the expansion attempt** (:meth:`FaultPlane.attempt`): a shard's
  expansion can stall (wait out the superstep timeout) or crash (work
  lost, WAL tail optionally torn).  Both retry deterministically under the
  configured policy — fixed exponential backoff, or the adaptive EWMA
  policy whose waits track observed charge; a crashed shard recovers from
  its journal and rejoins through
  :meth:`~repro.concurrency.scheduler.BarrierClock.rejoin_at` (monotonic,
  never a sealed barrier).  A shard that faults past its retry budget is
  *abandoned* for the rest of the query; its frontiers are served from the
  journal's snapshot (degraded reads, staleness counted) and the query's
  label drops from ``"exact"`` to ``"stale"``.  No snapshot either → the
  query fails fast with :class:`~repro.exceptions.ShardUnavailableError`.
* **the send** (:meth:`FaultPlane.send`): every batch gets a per-query
  sequence number; first transmissions can be lost (detected +
  retransmitted within the barrier window, at a charged premium) or
  duplicated.
* **the checkpoint** (:meth:`FaultPlane.checkpoint`): every
  ``checkpoint_interval`` barriers the live shards take a charged
  checkpoint that refreshes their snapshots.
* **the arrivals** (:meth:`FaultPlane.arrivals`): a whole superstep's
  deliveries can arrive reordered; the receiver restores canonical order
  from the sequence numbers and drops duplicate sequences idempotently.

``faults=None`` and a plane with an empty :class:`FaultPlan` are different
runs: a plane appends one SYNC progress record per attempt and puts its
charge on the barrier clock, so even with zero faults its makespan and
overhead ledger differ from the fault-free run (the rate-0 cells of
``BENCH_chaos.json`` are that durability tax).

Charge accounting is two-ledger.  *Base* charges — ``compute_charge`` for
the successful attempt of every expansion, ``network_charge`` for every
delivered batch — are byte-identical to the fault-free run by construction:
they are booked by the same loop, recovery restores the exact pre-crash
engine, retransmission happens within the same barrier, reordering is
undone before delivery.  Everything faults cost extra — wasted attempts,
backoff waits, retransmit premiums, recovery replays, checkpoints, journal
appends — lands in the *overhead* counters of the :class:`ChaosResult`
being built, which is the query's ledger.
``tests/faults/test_differential.py`` pins the invariant for every engine ×
partitioner.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
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
    expand_local,
)
from repro.partition.messages import MessageBatch, NetworkCostModel
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


class FaultPlane:
    """Everything a faulted run owns, asked by the one BSP loop at four points.

    :meth:`begin` opens a query and returns the :class:`ChaosResult` that
    doubles as its ledger; the loop then calls :meth:`attempt`,
    :meth:`send`, :meth:`checkpoint` and :meth:`arrivals` (module docstring).
    """

    def __init__(
        self,
        shards: list[ShardRuntime],
        engine_factory: Callable[[], GraphDatabase],
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        retry_policy: str = "fixed",
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        superstep_timeout: int = DEFAULT_SUPERSTEP_TIMEOUT,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
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

    # -- the query in flight ------------------------------------------------

    def begin(
        self, distances: dict[Any, int], clock: BarrierClock, network: NetworkCostModel
    ) -> ChaosResult:
        """Open the next query; the returned result is its fault ledger."""
        self._query = self.queries_run
        self.queries_run += 1
        self._clock = clock
        self._network = network
        self._result = ChaosResult(distances)
        #: Faults each shard has consumed this query (the retry budget's
        #: meter); past ``max_restarts`` the shard is down for the query.
        self._faults_used: dict[int, int] = {}
        self._sequence = 0
        #: Duplicate transmissions of the superstep being sent.
        self._duplicates: list[MessageBatch] = []
        return self._result

    def _down(self, shard: int) -> bool:
        return self._faults_used.get(shard, 0) > self.max_restarts

    def _backoff(self, hop: int, shard: int, attempt: int) -> int:
        """Seeded jitter: a pure function of the fault coordinates."""
        key = f"{self.fault_plan.seed}|backoff|{self._query}|{hop}|{shard}|{attempt}"
        rng = random.Random(zlib.crc32(key.encode("utf-8")))
        wait = self.estimators.get(shard, self.retry).backoff_for(attempt, rng)
        self._result.backoff_charge += wait
        return wait

    # -- boundary 1: the per-shard expansion attempt --------------------------

    def attempt(
        self, shard: ShardRuntime, frontier: list[Any], hop: int
    ) -> tuple[list[Any], int]:
        """Expand one shard's frontier under the fault plan, with retry.

        Returns ``(neighbour externals, this shard's step cost)``.
        Exhausting the retry budget abandons the shard and serves the
        frontier degraded; raising :class:`ShardUnavailableError` is the
        only other exit.
        """
        if self._down(shard.index):
            return self._degrade(shard, frontier, hop)
        plan, result, query = self.fault_plan, self._result, self._query
        journal = self.journals[shard.index]
        estimator = self.estimators.get(shard.index)
        cost = 0
        attempt = 0
        site_faults = 0
        while True:
            attempt += 1
            charge = journal.record(
                "superstep", {"query": query, "superstep": hop, "attempt": attempt}
            )
            result.journal_charge += charge
            cost += charge  # the progress record's page write, on the clock

            crashed = False
            if plan.stall(query, hop, shard.index, attempt, site_faults):
                result.stalls += 1
                wasted = (
                    self.superstep_timeout
                    if estimator is None
                    else estimator.timeout(self.superstep_timeout)
                )
            else:
                neighbors, compute = expand_local(shard, frontier)
                crashed, torn = plan.crash(query, hop, shard.index, attempt, site_faults)
                if not crashed:
                    # Success: this attempt's expansion is the base compute —
                    # by construction what a never-faulted run charges.
                    result.compute_charge += compute
                    if estimator is not None:
                        estimator.observe(compute)
                    return neighbors, cost + compute
                # The attempt's work was done, then lost: charged as waste.
                result.crashes += 1
                wasted = compute
                journal.crash(torn)

            site_faults += 1
            cost += wasted
            result.wasted_compute_charge += wasted
            self._faults_used[shard.index] = self._faults_used.get(shard.index, 0) + 1
            if self._down(shard.index):
                # Retry budget exhausted: abandoned for the rest of the query.
                result.abandoned += 1
                neighbors, charge = self._degrade(shard, frontier, hop)
                return neighbors, cost + charge
            if crashed:
                report = journal.recover(self.engine_factory)
                shard.rebind(report.engine, report.id_map)
                result.restarts += 1
                result.recovery_charge += report.charge
                result.torn_records += report.torn_records
                result.repaired_records += report.repaired_records
                cost += report.charge
                # Rejoin at the barrier currently forming.
                self._clock.rejoin_at(self._clock.steps)
                result.rejoins += 1
            cost += self._backoff(hop, shard.index, attempt)

    def _degrade(
        self, shard: ShardRuntime, frontier: list[Any], hop: int
    ) -> tuple[list[Any], int]:
        """Serve a down shard's frontier from its journal's snapshot."""
        journal = self.journals[shard.index]
        if self.fault_plan.snapshot_lost(self._query, shard.index, hop):
            journal.drop_snapshot()
        if journal.snapshot is None:
            raise ShardUnavailableError(
                shard.index, hop, "retry budget exhausted and no retained snapshot"
            )
        neighbors, charge = journal.degraded_neighbors(frontier)
        result = self._result
        result.label = STALE
        result.degraded_reads += len(frontier)
        result.degraded_charge += charge
        result.staleness = max(result.staleness, journal.staleness(self._clock.elapsed))
        return neighbors, charge

    # -- boundary 2: the per-sender send ------------------------------------------

    def send(self, batches: list[MessageBatch], hop: int) -> int:
        """Number a sender's batches, apply loss/duplication; return extra charge.

        A lost batch costs its sender the wasted first transmission plus the
        detection premium — the retransmission lands within the same barrier
        window, so delivery content is unchanged.  A duplicated batch is
        transmitted twice; the receiver drops the second by sequence.
        """
        result = self._result
        extra = 0
        for batch in batches:
            batch.sequence = self._sequence
            self._sequence += 1
            fault = self.fault_plan.message_fault(
                self._query, hop, batch.source_shard, batch.sequence
            )
            if fault == "loss":
                result.messages_lost += 1
                extra += self._network.retransmit_cost(len(batch))
            elif fault == "dup":
                result.messages_duplicated += 1
                extra += self._network.batch_cost(len(batch))
                self._duplicates.append(batch)
        result.retransmit_charge += extra
        return extra

    # -- boundary 3: the per-barrier checkpoint ---------------------------------

    def checkpoint(
        self, shards: list[ShardRuntime], hop: int, step_costs: dict[int, int]
    ) -> None:
        """Every ``checkpoint_interval`` barriers, refresh live shards' snapshots."""
        if hop % self.checkpoint_interval:
            return
        for shard in shards:
            if self._down(shard.index):
                continue
            charge = self.journals[shard.index].checkpoint(version=self._clock.elapsed)
            self._result.checkpoint_charge += charge
            step_costs[shard.index] = step_costs.get(shard.index, 0) + charge

    # -- boundary 4: the barrier arrivals ---------------------------------------

    def arrivals(self, outboxes: list[MessageBatch], hop: int) -> list[MessageBatch]:
        """What the receivers apply: reorder-buffered by sequence, deduplicated."""
        deliveries = outboxes + self._duplicates
        self._duplicates = []
        if len(deliveries) >= 2 and self.fault_plan.reorder(self._query, hop):
            order = self.fault_plan.permutation(self._query, hop, len(deliveries))
            self._result.messages_reordered += sum(
                1 for i, j in enumerate(order) if i != j
            )
            deliveries = [deliveries[i] for i in order]
        # The reorder buffer: apply in sequence order regardless of arrival
        # order, and drop re-deliveries of an already-applied sequence.
        applied: dict[int, MessageBatch] = {}
        for batch in sorted(deliveries, key=lambda b: b.sequence):
            applied.setdefault(batch.sequence, batch)
        return list(applied.values())


def build_chaos(
    source_engine: GraphDatabase,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    engine_factory: Callable[[], GraphDatabase],
    fault_plan: FaultPlan | None = None,
    network: NetworkCostModel | None = None,
    **plane_options: Any,
) -> tuple[DistributedExecutor, BuildReport]:
    """Shard an engine per ``plan`` and put the shards under a fault plane.

    Same contract as :func:`~repro.partition.executor.build_distributed`
    (whose shard construction this reuses), plus per-shard journals seeded
    with an initial checkpoint — that one-off durability cost is reported
    on :attr:`FaultPlane.build_charge`, not charged to any query.
    ``plane_options`` are :class:`FaultPlane`'s keywords.
    """
    base, report = build_distributed(
        source_engine, vertex_map, plan, engine_factory, network=network
    )
    faults = FaultPlane(base.shards, engine_factory, fault_plan, **plane_options)
    executor = DistributedExecutor(base.shards, base.owner, base.network, base.plan, faults=faults)
    return executor, report
