"""Charged-cache units: deterministic LRU, exactly-once invalidation,
byte-reproducible storm ledgers."""

from __future__ import annotations

import pytest

from repro.engines import create_engine
from repro.partition.messages import NetworkCostModel
from repro.replication.bench import plan_workload, run_readscale_cell
from repro.replication.cache import (
    DEFAULT_INVALIDATION_CHARGE,
    CacheStats,
    ChargedCache,
    cache_keys_for,
)


class TestLRU:
    def test_eviction_order_is_deterministic_lru(self):
        cache = ChargedCache("t", 3)
        for key in ("a", "b", "c"):
            cache.admit(key, key.upper(), 10, 1)
        assert cache.keys() == ["a", "b", "c"]
        cache.lookup("a")  # refresh: "b" becomes the victim
        cache.admit("d", "D", 10, 1)
        assert cache.keys() == ["c", "a", "d"]
        assert cache.stats.evictions == 1
        cache.admit("e", "E", 10, 1)
        assert cache.keys() == ["a", "d", "e"]
        assert cache.stats.evictions == 2

    def test_readmission_refreshes_without_double_counting(self):
        cache = ChargedCache("t", 2)
        cache.admit("a", 1, 5, 1)
        cache.admit("a", 2, 7, 2)
        assert cache.stats.admissions == 1
        assert len(cache) == 1
        assert cache.lookup("a").payload == 2

    def test_hit_ledgers_the_recorded_cold_charge(self):
        cache = ChargedCache("t", 4)
        cache.admit("a", "A", 13, 1)
        entry = cache.lookup("a")
        assert entry.charge == 13
        assert cache.stats.saved_charge == 13
        cache.lookup("a")
        assert cache.stats.saved_charge == 26
        assert cache.stats.hit_rate == 1.0

    def test_capacity_zero_disables_everything(self):
        cache = ChargedCache("t", 0)
        cache.admit("a", "A", 10, 1)
        assert len(cache) == 0
        assert cache.lookup("a") is None
        assert cache.invalidate("a") == 0
        assert cache.stats.misses == 1
        assert cache.stats.admissions == 0


class TestInvalidation:
    def test_charged_exactly_once_per_resident_entry(self):
        cache = ChargedCache("t", 4)
        cache.admit("a", "A", 10, 1)
        first = cache.invalidate("a")
        second = cache.invalidate("a")
        assert first == DEFAULT_INVALIDATION_CHARGE
        assert second == 0
        assert cache.stats.invalidations == 1
        assert cache.stats.invalidation_charge == DEFAULT_INVALIDATION_CHARGE

    def test_absent_key_is_free(self):
        cache = ChargedCache("t", 4)
        assert cache.invalidate("ghost") == 0
        assert cache.stats.invalidations == 0

    def test_custom_charge_is_honoured(self):
        cache = ChargedCache("t", 4, invalidation_charge_per_entry=9)
        cache.admit("a", "A", 10, 1)
        assert cache.invalidate("a") == 9

    def test_clear_is_uncharged(self):
        cache = ChargedCache("t", 4)
        cache.admit("a", "A", 10, 1)
        assert cache.clear() == 1
        assert cache.stats.invalidation_charge == 0

    def test_vertex_keys_dirty_record_and_adjacency(self):
        assert cache_keys_for(("vertex", 7)) == (("record", 7), ("adj", 7))
        assert cache_keys_for(("edge", 7)) == ()


class TestStats:
    def test_merge_sums_every_counter(self):
        left = CacheStats(hits=1, misses=2, admissions=3, saved_charge=10)
        right = CacheStats(hits=4, misses=1, invalidations=2, invalidation_charge=8)
        left.merge(right)
        assert left.hits == 5
        assert left.misses == 3
        assert left.invalidations == 2
        assert left.saved_charge == 10
        assert left.invalidation_charge == 8
        assert left.ledger()["hit_rate"] == round(5 / 8, 6)


@pytest.mark.parametrize("engine_id", ["nativelinked-1.9"])
def test_storm_ledgers_are_byte_reproducible(engine_id, small_dataset):
    """The same cell run twice leaves byte-identical ledgers end to end."""
    from repro.bench.workload import load_dataset_into
    from repro.partition import partition_dataset

    plan = partition_dataset(small_dataset, 2, "hash")
    workload = plan_workload(
        small_dataset, plan, seed=20181204, steady_ops=30, hot_set_size=8
    )

    def run():
        engine = create_engine(engine_id)
        loaded = load_dataset_into(engine, small_dataset)
        row = run_readscale_cell(
            engine_id,
            engine,
            loaded.vertex_map,
            plan,
            workload,
            replicas=2,
            staleness_bound=50,
            cache_capacity=4,
            apply_interval=30,
            network=NetworkCostModel(),
            storm_rounds=2,
        )
        engine.close()
        return row

    first, second = run(), run()
    assert first == second
    assert first["storm"]["invalidation_charge"] > 0
    assert first["hot_cache"]["hits"] > 0
