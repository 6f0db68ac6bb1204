"""ShardJournal: charged checkpoints, torn-tail recovery, degraded reads."""

from __future__ import annotations

import pytest

from repro.engines import create_engine
from repro.faults.recovery import ShardJournal, _pages


@pytest.fixture
def payload():
    vertices = [
        {"id": f"n{i}", "label": "person", "properties": {"rank": i}} for i in range(4)
    ]
    edges = [
        {"source": "n0", "target": "n1", "label": "knows", "properties": {}},
        {"source": "n1", "target": "n2", "label": "knows", "properties": {}},
        {"source": "n2", "target": "n3", "label": "knows", "properties": {}},
    ]
    return {"vertices": vertices, "edges": edges}


@pytest.fixture
def journal(payload):
    return ShardJournal(0, payload)


def _factory():
    return create_engine("nativelinked-1.9")


class TestCheckpoint:
    def test_build_creates_the_initial_snapshot_and_charges_it(self, journal):
        assert journal.snapshot is not None
        assert journal.snapshot.version == 0
        assert journal.build_charge > 0
        assert journal.checkpoints == 1

    def test_adjacency_covers_both_directions_in_edge_order(self, journal):
        assert journal.adjacency["n1"] == ["n0", "n2"]
        assert journal.adjacency["n0"] == ["n1"]

    def test_checkpoint_truncates_the_wal(self, journal):
        journal.record("superstep", {"attempt": 1})
        assert len(journal.wal) == 1
        journal.checkpoint(version=100)
        assert len(journal.wal) == 0
        assert journal.snapshot.version == 100

    def test_checkpoint_restores_a_dropped_snapshot(self, journal):
        journal.drop_snapshot()
        assert journal.snapshot is None
        assert journal.snapshots_dropped == 1
        journal.checkpoint(version=50)
        assert journal.snapshot is not None

    def test_drop_without_snapshot_is_a_noop(self, journal):
        journal.drop_snapshot()
        journal.drop_snapshot()
        assert journal.snapshots_dropped == 1


class TestRecord:
    def test_sync_append_is_charged_immediately(self, journal):
        charge = journal.record("superstep", {"query": 0, "attempt": 1})
        assert charge > 0
        assert [(r.operation, r.payload) for r in journal.wal.replay()] == [
            ("superstep", {"query": 0, "attempt": 1})
        ]


class TestRecovery:
    def test_clean_crash_replays_everything(self, journal):
        journal.record("superstep", {"attempt": 1})
        journal.record("superstep", {"attempt": 2})
        journal.crash(torn=False)
        report = journal.recover(_factory)
        assert report.torn_records == 0
        assert report.repaired_records == 0
        assert report.charge > 0
        assert journal.recoveries == 1
        report.engine.close()

    def test_torn_tail_is_discarded_and_repaired_not_resurrected(self, journal):
        journal.record("superstep", {"attempt": 1})
        journal.record("superstep", {"attempt": 2})
        journal.crash(torn=True)
        report = journal.recover(_factory)
        # The torn record never replays; its content, which the tear left
        # whole, is re-appended as a fresh, intact record instead.
        assert report.torn_records == 1
        assert report.repaired_records == 1
        replayable = journal.wal.replay()
        assert [(r.operation, r.payload) for r in replayable] == [("superstep", {"attempt": 2})]
        assert all(record.intact for record in replayable)
        report.engine.close()

    def test_rebuilt_engine_contains_the_shard_graph_with_fresh_metrics(
        self, journal, payload
    ):
        journal.crash(torn=False)
        report = journal.recover(_factory)
        assert report.engine.io_cost() == 0  # reset after the charged rebuild
        assert len(report.id_map) == len(payload["vertices"])
        report.engine.close()

    def test_recovery_without_snapshot_falls_back_to_the_payload(self, journal):
        journal.drop_snapshot()
        report = journal.recover(_factory)
        assert len(report.id_map) == 4
        report.engine.close()


class TestDegradedReads:
    def test_neighbors_match_the_snapshot_adjacency(self, journal):
        neighbors, charge = journal.degraded_neighbors(["n1", "n3"])
        assert neighbors == ["n0", "n2", "n2"]
        assert charge > 0

    def test_charge_scales_with_frontier_and_adjacency(self, journal):
        _, small = journal.degraded_neighbors(["n0"])
        _, large = journal.degraded_neighbors(["n0", "n1", "n2"])
        assert large > small

    def test_staleness_is_virtual_time_since_the_checkpoint(self, journal):
        journal.checkpoint(version=100)
        assert journal.staleness(140) == 40
        assert journal.staleness(90) == 0


def test_pages_is_one_plus_row_pages():
    assert _pages(0) == 1
    assert _pages(15) == 1
    assert _pages(16) == 2
