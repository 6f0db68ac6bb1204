"""ChaosExecutor: fault-free parity, retry, degradation, fail-fast, dedup."""

from __future__ import annotations

import pytest

from repro.bench.workload import load_dataset_into
from repro.engines import create_engine
from repro.exceptions import BenchmarkError, ShardUnavailableError
from repro.faults.chaos import EXACT, STALE, ChaosExecutor, build_chaos
from repro.faults.plan import (
    CRASH,
    MSG_DUP,
    MSG_LOSS,
    MSG_REORDER,
    SNAPSHOT_LOSS,
    STALL,
    FaultEvent,
    FaultPlan,
)
from repro.faults.chaos import DEFAULT_CHECKPOINT_INTERVAL
from repro.partition import DistributedExecutor, build_distributed, partition_dataset
from repro.partition.executor import DistributedResult

ENGINE = "nativelinked-1.9"
#: A source whose BFS over the 2-shard tiny graph takes four supersteps.
FAR_SOURCE = "n3"


def _chaos(dataset, shards, fault_plan=None, **kwargs):
    engine = create_engine(ENGINE)
    loaded = load_dataset_into(engine, dataset)
    engine.reset_metrics()
    plan = partition_dataset(dataset, shards, "hash")
    executor, _build = build_chaos(
        engine,
        loaded.vertex_map,
        plan,
        lambda: create_engine(ENGINE),
        fault_plan=fault_plan,
        **kwargs,
    )
    return executor


def _plain(dataset, shards):
    engine = create_engine(ENGINE)
    loaded = load_dataset_into(engine, dataset)
    engine.reset_metrics()
    plan = partition_dataset(dataset, shards, "hash")
    executor, _build = build_distributed(
        engine, loaded.vertex_map, plan, lambda: create_engine(ENGINE)
    )
    return executor


class TestFaultFreeParity:
    """No faults → the chaos executor is the distributed executor."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bfs_matches_plain_distributed(self, shards, small_dataset):
        source = small_dataset.vertices[0]["id"]
        plain = _plain(small_dataset, shards).bfs(source, 3)
        chaos = _chaos(small_dataset, shards).bfs(source, 3)
        assert chaos.distances == plain.distances
        assert chaos.compute_charge == plain.compute_charge
        assert chaos.network_charge == plain.network_charge
        assert chaos.label == EXACT
        assert chaos.overhead_charge == chaos.journal_charge + chaos.checkpoint_charge
        assert chaos.crashes == 0
        assert chaos.degraded_reads == 0

    def test_shortest_path_matches_plain_distributed(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        target = small_dataset.vertices[4]["id"]
        plain = _plain(small_dataset, 2).shortest_path(source, target)
        chaos = _chaos(small_dataset, 2).shortest_path(source, target)
        assert chaos.distances[target] == plain.distances[target]
        assert chaos.compute_charge == plain.compute_charge

    def test_an_empty_plan_is_not_the_fault_free_run(self, small_dataset):
        """``faults=None`` and a plane with no faults agree on the answer and
        the base charges; the plane still journals every attempt, on the
        barrier clock (what ``BENCH_chaos.json``'s rate-0 cells measure)."""
        chaos = _chaos(small_dataset, 2, FaultPlan())
        bare = DistributedExecutor(chaos.shards, chaos.owner, chaos.network, faults=None)
        plain = bare.bfs(FAR_SOURCE, 8)
        planed = chaos.bfs(FAR_SOURCE, 8)
        assert type(plain) is DistributedResult
        base = ("distances", "compute_charge", "network_charge", "supersteps", "messages")
        for field in base:
            assert getattr(planed, field) == getattr(plain, field), field
        assert planed.journal_charge > 0
        assert planed.makespan_charge > plain.makespan_charge

    def test_source_equal_to_target_returns_without_journaling(self, small_dataset):
        executor = _chaos(small_dataset, 2)
        result = executor.shortest_path(FAR_SOURCE, FAR_SOURCE)
        assert result.distances == {FAR_SOURCE: 0}
        assert result.supersteps == 0
        assert result.grand_total_charge == 0
        journals = executor.faults.journals.values()
        assert all(len(journal.wal) == 0 for journal in journals)
        assert executor.faults.queries_run == 1

    def test_build_charge_covers_every_initial_snapshot(self, small_dataset):
        plane = _chaos(small_dataset, 2).faults
        assert plane.build_charge == sum(
            journal.build_charge for journal in plane.journals.values()
        )
        assert plane.build_charge > 0


class TestCrashRecovery:
    def test_single_crash_retries_to_an_exact_answer(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        fault_plan = FaultPlan.explicit(
            FaultEvent(CRASH, query=0, superstep=1, attempt=1, torn=True)
        )
        baseline = _chaos(small_dataset, 2).bfs(source, 3)
        result = _chaos(small_dataset, 2, fault_plan).bfs(source, 3)
        assert result.label == EXACT
        assert result.distances == baseline.distances
        assert result.compute_charge == baseline.compute_charge
        assert result.network_charge == baseline.network_charge
        assert result.crashes == 1
        assert result.restarts == 1
        assert result.rejoins == 1
        assert result.torn_records == 1
        assert result.repaired_records == 1
        assert result.recovery_charge > 0
        assert result.wasted_compute_charge > 0
        assert result.backoff_charge > 0

    def test_clean_crash_tears_nothing(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        fault_plan = FaultPlan.explicit(
            FaultEvent(CRASH, query=0, superstep=1, attempt=1, torn=False)
        )
        result = _chaos(small_dataset, 2, fault_plan).bfs(source, 3)
        assert result.crashes == 1
        assert result.torn_records == 0

    def test_stall_waits_out_the_timeout_then_retries(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        fault_plan = FaultPlan.explicit(
            FaultEvent(STALL, query=0, superstep=1, shard=None, attempt=1)
        )
        baseline = _chaos(small_dataset, 2).bfs(source, 3)
        result = _chaos(small_dataset, 2, fault_plan, superstep_timeout=500).bfs(source, 3)
        assert result.label == EXACT
        assert result.distances == baseline.distances
        assert result.stalls >= 1
        assert result.wasted_compute_charge >= 500
        assert result.crashes == 0


    def test_stalls_alone_exhaust_the_retry_budget(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        home = _chaos(small_dataset, 2).owner[source]
        fault_plan = FaultPlan.explicit(FaultEvent(STALL, query=0, shard=home))
        baseline = _chaos(small_dataset, 2).bfs(source, 3)
        result = _chaos(
            small_dataset, 2, fault_plan, max_restarts=2, superstep_timeout=100
        ).bfs(source, 3)
        assert result.label == STALE
        assert result.abandoned == 1
        assert (result.stalls, result.crashes, result.restarts) == (3, 0, 0)
        assert result.wasted_compute_charge == 3 * 100
        assert result.distances == baseline.distances


class TestPeriodicCheckpoint:
    def test_a_long_query_checkpoints_every_live_shard(self, small_dataset):
        executor = _chaos(small_dataset, 2)
        result = executor.bfs(FAR_SOURCE, 8)
        assert result.supersteps >= DEFAULT_CHECKPOINT_INTERVAL
        journals = executor.faults.journals.values()
        # The initial (build) checkpoint plus the periodic one.
        assert [journal.checkpoints for journal in journals] == [2, 2]
        assert result.checkpoint_charge == sum(j.build_charge for j in journals)
        assert result.overhead_charge == result.journal_charge + result.checkpoint_charge

    def test_an_abandoned_shard_is_not_checkpointed(self, small_dataset):
        home = _chaos(small_dataset, 2).owner[FAR_SOURCE]
        fault_plan = FaultPlan.explicit(FaultEvent(CRASH, query=0, shard=home))
        executor = _chaos(small_dataset, 2, fault_plan)
        result = executor.bfs(FAR_SOURCE, 8)
        assert result.abandoned == 1
        assert result.supersteps >= DEFAULT_CHECKPOINT_INTERVAL
        journals = executor.faults.journals
        assert journals[home].checkpoints == 1
        assert journals[1 - home].checkpoints == 2
        assert result.checkpoint_charge == journals[1 - home].build_charge

    def test_the_next_checkpoint_recreates_a_dropped_snapshot(self, small_dataset):
        executor = _chaos(small_dataset, 2)
        journal = executor.faults.journals[0]
        journal.drop_snapshot()
        executor.bfs(FAR_SOURCE, 8)
        assert journal.snapshot is not None
        assert journal.snapshot.version > 0


class TestDegradedService:
    def test_budget_exhaustion_serves_stale_from_the_snapshot(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        home = _chaos(small_dataset, 2).owner[source]
        # The home shard crashes on every attempt: budget must exhaust.
        fault_plan = FaultPlan.explicit(FaultEvent(CRASH, query=0, shard=home))
        baseline = _chaos(small_dataset, 2).bfs(source, 3)
        result = _chaos(small_dataset, 2, fault_plan, max_restarts=2).bfs(source, 3)
        assert result.label == STALE
        assert result.abandoned == 1
        assert result.degraded_reads > 0
        assert result.degraded_charge > 0
        # Read-only graph: the stale answer is still the right answer.
        assert result.distances == baseline.distances

    def test_snapshot_loss_fails_fast_with_the_typed_error(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        home = _chaos(small_dataset, 2).owner[source]
        fault_plan = FaultPlan.explicit(
            FaultEvent(CRASH, query=0, shard=home),
            FaultEvent(SNAPSHOT_LOSS, query=0, shard=home),
        )
        with pytest.raises(ShardUnavailableError, match="no retained snapshot"):
            _chaos(small_dataset, 2, fault_plan).bfs(source, 3)

    def test_zero_restart_budget_abandons_on_the_first_fault(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        home = _chaos(small_dataset, 2).owner[source]
        fault_plan = FaultPlan.explicit(
            FaultEvent(CRASH, query=0, superstep=1, shard=home, attempt=1)
        )
        result = _chaos(small_dataset, 2, fault_plan, max_restarts=0).bfs(source, 3)
        assert result.label == STALE
        assert result.restarts == 0


class TestMessageFaults:
    def test_loss_is_retransmitted_within_the_barrier(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        fault_plan = FaultPlan.explicit(FaultEvent(MSG_LOSS, query=0, superstep=2))
        baseline = _chaos(small_dataset, 2).bfs(source, 3)
        result = _chaos(small_dataset, 2, fault_plan).bfs(source, 3)
        assert result.label == EXACT
        assert result.distances == baseline.distances
        assert result.network_charge == baseline.network_charge
        assert result.messages_lost > 0
        assert result.retransmit_charge > 0

    def test_duplicate_delivery_is_idempotent(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        fault_plan = FaultPlan.explicit(FaultEvent(MSG_DUP, query=0, superstep=2))
        baseline = _chaos(small_dataset, 2).bfs(source, 3)
        result = _chaos(small_dataset, 2, fault_plan).bfs(source, 3)
        assert result.distances == baseline.distances
        assert result.compute_charge == baseline.compute_charge
        assert result.messages_duplicated > 0
        assert result.retransmit_charge > 0

    def test_reordered_delivery_is_restored_by_sequence(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        fault_plan = FaultPlan.explicit(FaultEvent(MSG_REORDER, query=0))
        baseline = _chaos(small_dataset, 4).bfs(source, 3)
        result = _chaos(small_dataset, 4, fault_plan).bfs(source, 3)
        assert result.distances == baseline.distances
        assert result.compute_charge == baseline.compute_charge
        assert result.network_charge == baseline.network_charge
        assert result.messages_reordered > 0
        # Reordering is undone charge-free: no overhead beyond the
        # durability tax every chaos run pays.
        assert result.retransmit_charge == 0


class TestAdaptivePolicy:
    def test_estimators_learn_from_successful_attempts(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        executor = _chaos(small_dataset, 2, retry_policy="adaptive")
        executor.bfs(source, 3)
        assert any(
            estimator.observations > 0 for estimator in executor.faults.estimators.values()
        )

    def test_adaptive_timeout_tracks_observed_charge(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        executor = _chaos(small_dataset, 2, retry_policy="adaptive")
        executor.bfs(source, 3)
        learned = [
            estimator
            for estimator in executor.faults.estimators.values()
            if estimator.observations > 0
        ]
        assert learned
        for estimator in learned:
            assert estimator.timeout(2048) == max(
                1, estimator.ewma * estimator.straggler_factor
            )

    def test_a_stall_waits_out_the_learned_timeout(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        fault_plan = FaultPlan.explicit(
            FaultEvent(STALL, query=1, superstep=1, attempt=1)
        )
        executor = _chaos(small_dataset, 2, fault_plan, retry_policy="adaptive")
        executor.bfs(source, 3)  # query 0: fault-free, the estimators learn
        learned = executor.faults.estimators[executor.owner[source]].timeout(2048)
        assert learned < 2048
        result = executor.bfs(source, 3)
        assert result.stalls == 1
        assert result.wasted_compute_charge == learned

    def test_fixed_policy_keeps_no_estimators(self, small_dataset):
        executor = _chaos(small_dataset, 2, retry_policy="fixed")
        assert executor.faults.estimators == {}


class TestValidation:
    def test_negative_restart_budget_rejected(self, small_dataset):
        with pytest.raises(BenchmarkError, match="max_restarts"):
            _chaos(small_dataset, 2, max_restarts=-1)

    def test_checkpoint_interval_must_be_positive(self, small_dataset):
        with pytest.raises(BenchmarkError, match="checkpoint_interval"):
            _chaos(small_dataset, 2, checkpoint_interval=0)

    def test_shards_without_payloads_rejected(self, small_dataset):
        plain = _plain(small_dataset, 2)
        for shard in plain.shards:
            shard.payload = None
        with pytest.raises(BenchmarkError, match="no retained payload"):
            ChaosExecutor(plain.shards, plain.owner, lambda: create_engine(ENGINE))

    def test_unknown_source_rejected(self, small_dataset):
        with pytest.raises(BenchmarkError, match="not a known vertex"):
            _chaos(small_dataset, 2).bfs("nope", 2)


class TestDeterminism:
    def test_identical_seeded_runs_are_identical(self, small_dataset):
        source = small_dataset.vertices[0]["id"]
        results = []
        for _round in range(2):
            executor = _chaos(small_dataset, 2, FaultPlan.seeded(20181204, 40))
            outcome = executor.bfs(source, 3)
            results.append(
                (
                    outcome.distances,
                    outcome.compute_charge,
                    outcome.network_charge,
                    outcome.overhead_charge,
                    outcome.label,
                    outcome.crashes,
                    outcome.stalls,
                )
            )
        assert results[0] == results[1]
