"""MVCC garbage collection: reclamation timing, pinning, and read stability.

The version store must be *bounded*: undo chains, tombstones, and conflict
keys are reclaimed exactly when the last snapshot that could observe them
closes (the low-water mark rises past their commit timestamp), a
long-lived reader pins everything newer than its snapshot, and — the
safety property — collecting garbage never changes any read result.
"""

from __future__ import annotations

import pytest

from repro.bench.workload import load_dataset_into
from repro.concurrency.driver import MIXES, run_engine_mode
from repro.concurrency.sessions import SessionManager
from repro.concurrency.versioning import VersionStore, vertex_key
from repro.datasets import get_dataset
from repro.engines import create_engine


@pytest.fixture
def loaded_native(small_dataset):
    return load_dataset_into(create_engine("nativelinked-1.9"), small_dataset)


class TestReclamationTiming:
    def test_undo_reclaimed_exactly_when_last_observer_closes(self, loaded_native):
        engine = loaded_native.engine
        manager = engine.transactions()
        vid = loaded_native.vertex_map["n1"]
        reader = engine.begin_session()
        writer = engine.begin_session()
        writer.graph.set_vertex_property(vid, "rank", 111)
        writer.commit()
        # The reader's snapshot pins the before-image: nothing reclaimed.
        assert manager.store.retained_undo_entries() == 1
        assert manager.store.gc.reclaimed_undo == 0
        assert reader.graph.vertex_property(vid, "rank") == 1
        reader.commit()
        # The last observing snapshot closed: the chain is reclaimed *now*.
        assert manager.store.retained_undo_entries() == 0
        assert manager.store.gc.reclaimed_undo == 1
        assert manager.store.retained_entries() == 0

    def test_uncontended_commits_leave_no_residue(self, loaded_native):
        """Sequential sessions never accumulate version state at all."""
        engine = loaded_native.engine
        manager = engine.transactions()
        for index in range(5):
            session = engine.begin_session()
            session.graph.set_vertex_property(
                loaded_native.vertex_map["n2"], "rank", index
            )
            session.commit()
            assert manager.store.retained_entries() == 0
        assert manager.store.gc.runs == 5

    def test_long_lived_reader_pins_versions(self, loaded_native):
        engine = loaded_native.engine
        manager = engine.transactions()
        vid = loaded_native.vertex_map["n2"]
        reader = engine.begin_session()
        for value in range(4):
            writer = engine.begin_session()
            writer.graph.set_vertex_property(vid, "rank", value)
            writer.commit()
        # One before-image per commit, all pinned by the reader.
        assert manager.store.retained_undo_entries() == 4
        # The reader keeps seeing its snapshot through the whole chain.
        assert reader.graph.vertex_property(vid, "rank") == 2
        reader.commit()
        assert manager.store.retained_undo_entries() == 0
        assert manager.store.gc.reclaimed_undo == 4
        late = engine.begin_session()
        assert late.graph.vertex_property(vid, "rank") == 3
        late.commit()

    def test_tombstones_reclaimed_with_the_pin(self, loaded_native):
        engine = loaded_native.engine
        manager = engine.transactions()
        pin = engine.begin_session()
        remover = engine.begin_session()
        remover.graph.remove_edge(loaded_native.edge_map[0])
        remover.commit()
        assert manager.store.gc.reclaimed_tombstones == 0
        pin.commit()
        assert manager.store.gc.reclaimed_tombstones > 0
        assert manager.store.retained_entries() == 0


class TestGCReadStability:
    def test_gc_never_changes_read_results(self, loaded_native):
        """Replaying a snapshot's queries across a GC run is invisible.

        An old pin holds versions from three commits; a mid-age reader
        records its query results; closing the pin raises the low-water
        mark to the reader's snapshot and reclaims the old versions while
        a *newer* commit's before-images (which the reader still needs)
        survive.  The replay must match exactly.
        """
        engine = loaded_native.engine
        manager = engine.transactions()
        vmap, emap = loaded_native.vertex_map, loaded_native.edge_map
        pin = engine.begin_session()  # snapshot 0

        for value in (10, 20, 30):  # commits ts 1..3, pinned by `pin`
            writer = engine.begin_session()
            writer.graph.set_vertex_property(vmap["n1"], "rank", value)
            writer.commit()

        reader = engine.begin_session()  # snapshot 3

        # A newer commit the reader must keep seeing *through* its undo.
        late = engine.begin_session()
        late.graph.set_vertex_property(vmap["n1"], "rank", 99)
        late.graph.remove_edge(emap[0])
        late.commit()  # ts 4, captured for pin and reader

        def observe():
            return (
                reader.graph.vertex_property(vmap["n1"], "rank"),
                sorted(reader.graph.out_edges(vmap["n0"]), key=repr),
                sorted(reader.graph.out_neighbors(vmap["n0"]), key=repr),
                reader.graph.edge_exists(emap[0]),
                reader.graph.vertex_count(),
                reader.graph.edge_count(),
            )

        before = observe()
        retained_before = manager.store.retained_undo_entries()
        pin.commit()  # low-water mark rises 0 -> 3: ts<=3 reclaimed
        assert manager.store.gc.reclaimed_undo > 0
        assert manager.store.retained_undo_entries() < retained_before
        assert manager.store.retained_undo_entries() > 0  # ts-4 images pinned
        assert observe() == before
        assert before[0] == 30  # the reader's snapshot value, not 99
        assert before[3] is True  # the removed edge still resurrects
        reader.commit()
        assert manager.store.retained_entries() == 0


class TestShardedStore:
    def test_shard_assignment_is_stable_and_spreads(self):
        store = VersionStore(8)
        keys = [("vertex", index) for index in range(64)]
        assignment = {key: store.shard_of(key).index for key in keys}
        # Re-asking gives the same shard (pure function of the key).
        assert assignment == {key: store.shard_of(key).index for key in keys}
        assert len(set(assignment.values())) > 1

    def test_single_shard_store_is_valid(self):
        store = VersionStore(1)
        store.mark_committed(("vertex", 1), 3)
        assert store.committed_ts(("vertex", 1)) == 3
        with pytest.raises(ValueError):
            VersionStore(0)

    def test_gc_skips_shards_with_no_old_entries(self):
        store = VersionStore(4)
        store.mark_committed(("vertex", 1), 5)
        assert store.collect_garbage(4) == 0
        assert store.gc.runs == 0  # no shard was eligible, no sweep ran
        assert store.collect_garbage(5) == 1
        assert store.gc.runs == 1
        assert store.retained_entries() == 0

    def test_visibility_semantics_identical_across_shard_counts(self):
        def populate(store: VersionStore) -> None:
            for index in range(10):
                key = ("vertex", index)
                store.mark_committed(key, index + 1)
                store.push_undo(key, index + 1, f"before-{index}")
            store.mark_removed(("edge", 3), 4)
            store.mark_committed(("edge", 9), 9)  # a creation stamps both marks
            store.mark_created(("edge", 9), 9)

        one, many = VersionStore(1), VersionStore(16)
        populate(one)
        populate(many)
        for snapshot in (0, 4, 9):
            for index in range(10):
                key = ("vertex", index)
                assert one.visible(key, snapshot) == many.visible(key, snapshot)
            assert one.removed_as_of(("edge", 3), snapshot) == many.removed_as_of(
                ("edge", 3), snapshot
            )
            assert one.visible(("edge", 9), snapshot) is many.visible(("edge", 9), snapshot)
            assert sorted(one.overlaid_keys("vertex", snapshot)) == sorted(
                many.overlaid_keys("vertex", snapshot)
            )
            assert sorted(one.removed_object_ids("edge", snapshot)) == sorted(
                many.removed_object_ids("edge", snapshot)
            )
        assert one.retained_entries() == many.retained_entries()
        one.collect_garbage(5)
        many.collect_garbage(5)
        assert one.retained_entries() == many.retained_entries()
        assert one.gc.reclaimed_total == many.gc.reclaimed_total


class TestBoundedUnderContention:
    def test_contended_write_heavy_run_is_bounded(self):
        """The acceptance criterion: a contended write-heavy run reclaims
        (stats > 0) and ends with the version store empty — where the
        GC-less design grew one entry per written key forever."""
        dataset = get_dataset("yeast", scale=0.2, seed=11)
        row = run_engine_mode(
            "nativelinked-1.9",
            "sync",
            dataset,
            MIXES["write-heavy"],
            clients=8,
            txns=12,
            seed=20181204,
            group_commit=4,
        )
        assert row["gc_runs"] > 0
        assert row["gc_reclaimed_undo"] > 0
        assert row["gc_reclaimed_tombstones"] >= 0
        # Every session has closed, so nothing may survive the final sweep.
        assert row["retained_entries"] == 0
        assert row["retained_undo"] == 0

    def test_manager_low_water_mark_tracks_active_sessions(self, loaded_native):
        engine = loaded_native.engine
        manager = engine.transactions()
        assert manager.low_water_mark() == 0
        first = engine.begin_session()
        writer = engine.begin_session()
        writer.graph.set_vertex_property(loaded_native.vertex_map["n3"], "rank", 5)
        writer.commit()
        assert manager.low_water_mark() == 0  # pinned by `first`
        second = engine.begin_session()
        first.commit()
        assert manager.low_water_mark() == second.snapshot_ts == 1
        second.commit()
        assert manager.low_water_mark() == manager.store.clock == 1

    def test_explicit_shard_count_flows_through_manager(self, small_dataset):
        loaded = load_dataset_into(create_engine("nativelinked-1.9"), small_dataset)
        manager = SessionManager(loaded.engine, shards=3)
        assert manager.store.n_shards == 3
        assert len(manager.store.shards) == 3


class TestPinnedTags:
    """Version-catalog refs hold the GC low-water mark (PR: time travel)."""

    def test_tagged_commit_keeps_undo_chains_alive(self, loaded_native):
        engine = loaded_native.engine
        manager = engine.transactions()
        vid = loaded_native.vertex_map["n1"]
        catalog = engine.versions()
        catalog.commit(tag="release", message="before the churn")
        for value in range(3):
            writer = engine.begin_session()
            writer.graph.set_vertex_property(vid, "rank", value)
            writer.commit()
        # No session is open, yet every before-image survives: the tag's
        # pin holds the low-water mark at the tagged snapshot.
        assert manager.store.retained_undo_entries() == 3
        assert manager.store.gc.reclaimed_undo == 0
        # And the tagged version still reads its own world.
        assert engine.at_version("release").vertex_property(vid, "rank") == 1

    def test_deleting_last_ref_releases_on_next_collect(self, loaded_native):
        engine = loaded_native.engine
        manager = engine.transactions()
        vid = loaded_native.vertex_map["n2"]
        catalog = engine.versions()
        commit = catalog.commit(tag="keep", message="pinned by one ref")
        catalog.apply_retention("depth-1")  # head keeps its own base ref
        writer = engine.begin_session()
        writer.graph.set_vertex_property(vid, "rank", 99)
        writer.commit()
        later = catalog.commit()  # new head; old commit now lives on refs
        catalog.apply_retention("depth-1")
        assert manager.store.retained_undo_entries() == 1  # tag still pins
        assert commit.retained

        catalog.delete_tag("keep")
        # The pin hit zero: the release triggers collection immediately and
        # the chain the tag was protecting is reclaimed.
        assert not commit.retained
        assert manager.store.retained_undo_entries() == 0
        assert manager.store.gc.reclaimed_undo == 1
        # The released commit refuses reads; the retained head still works.
        from repro.exceptions import VersionError

        with pytest.raises(VersionError):
            catalog.view(commit.id)
        assert catalog.view(later.id).vertex_property(vid, "rank") == 99

    def test_retag_never_lets_the_pin_transiently_drop(self, loaded_native):
        engine = loaded_native.engine
        catalog = engine.versions()
        first = catalog.commit(tag="stable")
        writer = engine.begin_session()
        writer.graph.set_vertex_property(loaded_native.vertex_map["n3"], "rank", 7)
        writer.commit()
        second = catalog.commit()
        catalog.tag("stable", second)  # move the ref
        assert first.retained  # base ref still held
        assert second.retained
        assert "stable" in second.tags and "stable" not in first.tags
