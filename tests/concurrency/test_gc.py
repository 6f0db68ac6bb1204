"""MVCC garbage collection: reclamation timing, pinning, and read stability.

The version store must be *bounded*: undo chains, tombstones, and conflict
keys are reclaimed exactly when the last snapshot that could observe them
closes (the low-water mark rises past their commit timestamp), a
long-lived reader pins everything newer than its snapshot, and — the
safety property — collecting garbage never changes any read result.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.workload import load_dataset_into
from repro.concurrency.driver import MIXES, run_engine_mode
from repro.concurrency.versioning import VersionStore
from repro.concurrency.visibility import CURRENT
from repro.datasets import get_dataset
from repro.engines import create_engine
from repro.model.elements import Direction


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
                sorted(reader.graph.neighbors(vmap["n0"], Direction.OUT), key=repr),
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


class TestFlatStore:
    def test_marks_are_point_lookups(self):
        store = VersionStore()
        assert store.committed_ts(("vertex", 1)) == 0
        store.mark_committed(("vertex", 1), 3)
        assert store.committed_ts(("vertex", 1)) == 3
        assert store.oldest_ts == 3

    def test_gc_is_a_noop_below_the_oldest_entry(self):
        store = VersionStore()
        assert store.collect_garbage(7) == 0  # empty store
        store.mark_committed(("vertex", 1), 5)
        assert store.collect_garbage(4) == 0
        assert store.gc.runs == 0  # nothing at or below the mark: no sweep ran
        assert store.gc.last_low_water_mark == 4
        assert store.collect_garbage(5) == 1
        assert store.gc.runs == 1
        assert store.retained_entries() == 0
        assert store.oldest_ts is None

    def test_lookups_scans_and_reclaim_counts(self):
        store = VersionStore()
        for index in range(10):
            key = ("vertex", index)
            store.mark_committed(key, index + 1)
            store.push_undo(key, index + 1, f"before-{index}")
        store.mark_removed(("edge", 3), 4)
        store.mark_committed(("edge", 9), 9)  # a creation stamps both marks
        store.mark_created(("edge", 9), 9)

        for snapshot in (0, 4, 9):
            for index in range(10):
                expected = f"before-{index}" if index + 1 > snapshot else CURRENT
                assert store.visible(("vertex", index), snapshot) == expected
            assert store.removed_as_of(("edge", 3), snapshot) == (snapshot >= 4)
            assert store.visible(("edge", 9), snapshot) is (CURRENT if snapshot == 9 else None)
            # Scans come back in commit order.
            assert store.overlaid_keys("vertex", snapshot) == list(range(snapshot, 10))
            assert list(store.removed_object_ids("edge", snapshot)) == (
                [3] if snapshot < 4 else []
            )
        assert store.retained_entries() == 23
        # Five conflict keys, five before-images and the tombstone die at 5.
        assert store.collect_garbage(5) == 11
        assert (store.gc.reclaimed_keys, store.gc.reclaimed_undo) == (5, 5)
        assert store.gc.reclaimed_tombstones == 1
        assert store.retained_entries() == 12
        assert store.oldest_ts == 6


def _commit(engine, mutate):
    """Run ``mutate(graph)`` in its own session; return the engine id of
    whatever it created."""
    session = engine.begin_session()
    created = mutate(session.graph)
    return session.commit().id_map.get(created)


def _assert_drained(store: VersionStore, history: str) -> None:
    assert store.retained_entries() == 0, history
    assert store.retained_bytes() == 0, history
    assert store.removed_edges_by_vertex == {}, history
    assert store.oldest_ts is None, history


#: Engines that hand a freed edge id out again (LIFO free list), so one
#: resurrection-index entry can outlive the incarnation it was made for.
ID_REUSING_ENGINES = ("nativelinked-1.9", "nativelinked-3.0")


class TestStoreDrains:
    """Aim 3's invariant: nothing observes the store => the store is empty."""

    @pytest.mark.parametrize("first, second", [((0, 1), (1, 2)), ((0, 1), (2, 3)), ((5, 2), (7, 5))])
    def test_freed_edge_id_reused_under_two_pins(self, first, second):
        """The resurrection entry of a removed edge must die with the *last*
        tombstone its (reused) id carries, whoever's adjacency marks went
        first.  The hash-partitioned store kept ``{endpoint: [e]}`` forever
        in a partition that no longer held any timestamp."""
        engine = create_engine("nativelinked-1.9")
        vertices = [engine.add_vertex({"i": index}) for index in range(8)]
        edge = engine.add_edge(vertices[first[0]], vertices[first[1]], "l")
        manager = engine.transactions()
        p1 = manager.pin()
        _commit(engine, lambda graph: graph.remove_edge(edge))
        p2 = manager.pin()
        reused = _commit(
            engine,
            lambda graph: graph.add_edge(vertices[second[0]], vertices[second[1]], "l"),
        )
        assert reused == edge  # the engine handed the freed id back
        _commit(engine, lambda graph: graph.remove_edge(reused))
        assert manager.store.retained_entries() > 0
        p1.release()
        p2.release()
        _assert_drained(manager.store, f"{first} then {second}")

    @pytest.mark.parametrize("engine_id", ID_REUSING_ENGINES)
    def test_random_pin_and_edge_histories_drain(self, engine_id):
        """200 seeded histories of pin / release / add-edge / remove-edge
        commits; closing every pin must leave nothing behind."""
        for seed in range(200):
            rng = random.Random(seed)
            engine = create_engine(engine_id)
            vertices = [engine.add_vertex({"i": index}) for index in range(5)]
            edges = [
                engine.add_edge(*rng.sample(vertices, 2), "l") for _index in range(3)
            ]
            manager = engine.transactions()
            pins = [manager.pin()]
            for _step in range(8):
                action = rng.choice(("pin", "release", "add", "add", "remove", "remove"))
                if action == "pin":
                    pins.append(manager.pin())
                elif action == "release" and pins:
                    pins.pop(rng.randrange(len(pins))).release()
                elif action == "add":
                    source, target = rng.sample(vertices, 2)
                    edges.append(
                        _commit(engine, lambda graph: graph.add_edge(source, target, "l"))
                    )
                elif action == "remove" and edges:
                    edge = edges.pop(rng.randrange(len(edges)))
                    _commit(engine, lambda graph: graph.remove_edge(edge))
            for pin in pins:
                pin.release()
            assert manager.active_pins == manager.active_sessions == 0
            _assert_drained(manager.store, f"seed {seed}")


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
