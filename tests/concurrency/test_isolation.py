"""Isolation semantics of the MVCC session layer.

Every engine gets the same four guarantees through the
:class:`~repro.concurrency.versioning.VersionedGraph` overlay:

* no dirty reads — uncommitted writes are invisible to other sessions;
* repeatable snapshot reads — a session keeps seeing the state as of its
  snapshot, property-wise *and* structurally, across other commits;
* first-committer-wins — overlapping write sets abort the later committer;
* charge parity — an uncontended session charges exactly what direct
  engine execution charges (the concurrency layer's analogue of the
  bulk-primitive contract in ``tests/engines/test_bulk_primitives.py``).
"""

from __future__ import annotations

import pytest

from repro.bench.workload import load_dataset_into
from repro.concurrency import ProvisionalId
from repro.engines import ALL_ENGINES, create_engine
from repro.exceptions import (
    ElementNotFoundError,
    SessionStateError,
    TransactionError,
    WriteConflictError,
)
from repro.model.elements import Direction
from repro.queries import query_by_id


@pytest.fixture
def any_loaded(any_engine, small_dataset):
    return load_dataset_into(any_engine, small_dataset)


class TestSnapshotIsolation:
    def test_no_dirty_reads(self, any_loaded):
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n1"]
        writer = engine.begin_session()
        writer.graph.set_vertex_property(vid, "name", "dirty")
        reader = engine.begin_session()
        assert reader.graph.vertex_property(vid, "name") == "node-1"
        assert reader.graph.vertex(vid).properties["name"] == "node-1"
        writer.abort()
        reader.commit()

    def test_read_your_writes(self, any_loaded):
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n1"]
        session = engine.begin_session()
        session.graph.set_vertex_property(vid, "name", "mine")
        assert session.graph.vertex_property(vid, "name") == "mine"
        assert session.graph.vertex(vid).properties["name"] == "mine"
        session.abort()
        assert engine.vertex_property(vid, "name") == "node-1"

    def test_repeatable_property_reads(self, any_loaded):
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n2"]
        reader = engine.begin_session()
        assert reader.graph.vertex_property(vid, "rank") == 2
        writer = engine.begin_session()
        writer.graph.set_vertex_property(vid, "rank", 777)
        writer.commit()
        # The overlay keeps serving the snapshot version...
        assert reader.graph.vertex_property(vid, "rank") == 2
        assert reader.graph.vertex(vid).properties["rank"] == 2
        reader.commit()
        # ...while new sessions see the committed value.
        late = engine.begin_session()
        assert late.graph.vertex_property(vid, "rank") == 777
        late.commit()

    def test_repeatable_structural_reads_edge_addition(self, any_loaded):
        engine = any_loaded.engine
        vmap = any_loaded.vertex_map
        reader = engine.begin_session()
        before = list(reader.graph.out_neighbors(vmap["n0"]))
        writer = engine.begin_session()
        writer.graph.add_edge(vmap["n0"], vmap["n4"], "knows")
        writer.commit()
        assert list(reader.graph.out_neighbors(vmap["n0"])) == before
        reader.commit()
        late = engine.begin_session()
        assert vmap["n4"] in list(late.graph.out_neighbors(vmap["n0"]))
        late.commit()

    def test_repeatable_structural_reads_edge_removal(self, any_loaded):
        engine = any_loaded.engine
        vmap, emap = any_loaded.vertex_map, any_loaded.edge_map
        reader = engine.begin_session()
        before_edges = list(reader.graph.out_edges(vmap["n0"]))
        before_neighbors = list(reader.graph.out_neighbors(vmap["n0"]))
        writer = engine.begin_session()
        writer.graph.remove_edge(emap[0])  # n0 -> n1
        writer.commit()
        # The removed edge resurrects for the older snapshot: same ids, same
        # neighbours, and the edge itself stays readable.  (Resurrected
        # edges append after the engine's survivors — the in-place removal
        # loses the chain position — so the guarantee is set-level.)
        assert sorted(reader.graph.out_edges(vmap["n0"]), key=repr) == sorted(
            before_edges, key=repr
        )
        assert sorted(reader.graph.out_neighbors(vmap["n0"]), key=repr) == sorted(
            before_neighbors, key=repr
        )
        resurrected = reader.graph.edge(emap[0])
        assert resurrected.label == "knows"
        assert reader.graph.edge_exists(emap[0])
        reader.commit()
        late = engine.begin_session()
        assert not late.graph.edge_exists(emap[0])
        late.commit()

    def test_remove_vertex_hides_incident_edges_in_session(self, any_loaded):
        """Read-your-writes covers the cascade the engine applies at commit."""
        engine = any_loaded.engine
        vmap, emap = any_loaded.vertex_map, any_loaded.edge_map
        edge = emap[0]  # n0 -> n1
        session = engine.begin_session()
        session.graph.remove_vertex(vmap["n1"])
        assert not session.graph.edge_exists(edge)
        assert edge not in list(session.graph.edge_ids())
        assert edge not in list(session.graph.out_edges(vmap["n0"]))
        assert vmap["n1"] not in list(session.graph.out_neighbors(vmap["n0"]))
        expected_edges = session.graph.edge_count()
        expected_vertices = session.graph.vertex_count()
        session.commit()
        # The in-session view predicted exactly what the commit produced.
        assert engine.edge_count() == expected_edges
        assert engine.vertex_count() == expected_vertices
        assert not engine.edge_exists(edge)

    def test_resurrected_self_loop_keeps_both_semantics(self, any_loaded):
        """A self-loop yields twice under BOTH, resurrected or not."""
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n3"]
        setup = engine.begin_session()
        loop_pid = setup.graph.add_edge(vid, vid, "knows")
        loop_id = setup.commit().id_map[loop_pid]
        reader = engine.begin_session()
        before_both = list(reader.graph.both_edges(vid))
        before_degree = reader.graph.degree(vid)
        assert before_both.count(loop_id) == 2
        remover = engine.begin_session()
        remover.graph.remove_edge(loop_id)
        remover.commit()
        assert list(reader.graph.both_edges(vid)).count(loop_id) == 2
        if before_degree == len(before_both):
            # Engines whose degree equals the incidence count keep it
            # repeatable; the bitmap engine's cardinality-based override
            # counts a self-loop once, a documented overlay boundary.
            assert reader.graph.degree(vid) == before_degree
        reader.commit()

    def test_snapshot_hides_vertices_created_later(self, any_loaded):
        engine = any_loaded.engine
        reader = engine.begin_session()
        count = reader.graph.vertex_count()
        writer = engine.begin_session()
        writer.graph.add_vertex({"bench_name": "late"}, label="bench")
        result = writer.commit()
        (new_id,) = result.id_map.values()
        assert reader.graph.vertex_count() == count
        assert not reader.graph.vertex_exists(new_id)
        assert new_id not in list(reader.graph.vertex_ids())
        reader.commit()

    def test_provisional_ids_map_to_engine_ids_at_commit(self, any_loaded):
        engine = any_loaded.engine
        session = engine.begin_session()
        pid = session.graph.add_vertex({"bench_name": "draft"}, label="bench")
        assert isinstance(pid, ProvisionalId)
        eid = session.graph.add_edge(pid, any_loaded.vertex_map["n0"], "knows")
        assert session.graph.vertex(pid).properties["bench_name"] == "draft"
        assert session.graph.edge(eid).target == any_loaded.vertex_map["n0"]
        result = session.commit()
        real_vertex = result.id_map[pid]
        real_edge = result.id_map[eid]
        assert engine.vertex(real_vertex).properties["bench_name"] == "draft"
        assert engine.edge(real_edge).source == real_vertex


class TestFirstCommitterWins:
    def test_write_write_conflict_aborts_second_committer(self, any_loaded):
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n3"]
        first = engine.begin_session()
        second = engine.begin_session()
        first.graph.set_vertex_property(vid, "rank", 1)
        second.graph.set_vertex_property(vid, "rank", 2)
        first.commit()
        with pytest.raises(WriteConflictError):
            second.commit()
        manager = engine.transactions()
        assert manager.stats.conflict_aborts == 1
        assert engine.vertex_property(vid, "rank") == 1
        assert second.state == "aborted"

    def test_no_conflict_on_disjoint_writes(self, any_loaded):
        engine = any_loaded.engine
        first = engine.begin_session()
        second = engine.begin_session()
        first.graph.set_vertex_property(any_loaded.vertex_map["n1"], "rank", 1)
        second.graph.set_vertex_property(any_loaded.vertex_map["n2"], "rank", 2)
        first.commit()
        second.commit()
        assert engine.transactions().stats.conflict_aborts == 0

    def test_remove_edge_conflicts_with_property_write(self, any_loaded):
        engine = any_loaded.engine
        eid = any_loaded.edge_map[1]
        remover = engine.begin_session()
        writer = engine.begin_session()
        remover.graph.remove_edge(eid)
        writer.graph.set_edge_property(eid, "weight", 42)
        remover.commit()
        with pytest.raises(WriteConflictError):
            writer.commit()

    def test_session_begun_after_commit_does_not_conflict(self, any_loaded):
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n5"]
        first = engine.begin_session()
        first.graph.set_vertex_property(vid, "rank", 10)
        first.commit()
        later = engine.begin_session()
        later.graph.set_vertex_property(vid, "rank", 11)
        later.commit()
        assert engine.vertex_property(vid, "rank") == 11

    def test_read_only_sessions_never_conflict_and_keep_the_clock(self, any_loaded):
        engine = any_loaded.engine
        manager = engine.transactions()
        clock = manager.store.clock
        session = engine.begin_session()
        session.graph.vertex(any_loaded.vertex_map["n0"])
        result = session.commit()
        assert result.read_only
        assert manager.store.clock == clock


class TestSessionLifecycle:
    def test_graph_unusable_after_commit(self, any_loaded):
        session = any_loaded.engine.begin_session()
        session.commit()
        with pytest.raises(SessionStateError):
            session.graph.vertex(any_loaded.vertex_map["n0"])
        with pytest.raises(SessionStateError):
            any_loaded.engine.transactions().commit(session)

    def test_context_manager_commits_and_aborts(self, any_loaded):
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n6"]
        with engine.begin_session() as session:
            session.graph.set_vertex_property(vid, "rank", 66)
        assert engine.vertex_property(vid, "rank") == 66
        with pytest.raises(ElementNotFoundError):
            with engine.begin_session() as session:
                session.graph.set_vertex_property(vid, "rank", 67)
                raise ElementNotFoundError("vertex", "boom")
        assert engine.vertex_property(vid, "rank") == 66

    def test_writes_on_session_removed_objects_raise_at_buffer_time(self, any_loaded):
        """The session-visible view guards mutators, keeping commits atomic."""
        engine = any_loaded.engine
        vmap, emap = any_loaded.vertex_map, any_loaded.edge_map
        session = engine.begin_session()
        session.graph.remove_edge(emap[2])
        with pytest.raises(ElementNotFoundError):
            session.graph.remove_edge(emap[2])
        with pytest.raises(ElementNotFoundError):
            session.graph.set_edge_property(emap[2], "weight", 1)
        session.graph.remove_vertex(vmap["n7"])
        with pytest.raises(ElementNotFoundError):
            session.graph.remove_vertex(vmap["n7"])
        with pytest.raises(ElementNotFoundError):
            session.graph.set_vertex_property(vmap["n7"], "rank", 1)
        with pytest.raises(ElementNotFoundError):
            session.graph.add_edge(vmap["n0"], vmap["n7"], "knows")
        # The buffered transaction still commits cleanly after the rejected calls.
        session.commit()
        assert not engine.edge_exists(emap[2])
        assert not engine.vertex_exists(vmap["n7"])

    def test_writes_on_overlay_removed_objects_raise_at_buffer_time(self, any_loaded):
        """A commit never partially applies because of a stale-id write.

        Objects removed by a commit this snapshot already observed are
        rejected when the write is buffered (a free version-store lookup),
        exactly like the immediate error a direct engine call gives — for
        as long as the tombstone is retained, i.e. while any session that
        could still observe the object is active (here: a pinning reader).
        """
        engine = any_loaded.engine
        vmap, emap = any_loaded.vertex_map, any_loaded.edge_map
        pin = engine.begin_session()  # keeps the low-water mark at 0
        remover = engine.begin_session()
        remover.graph.remove_edge(emap[4])
        remover.graph.remove_vertex(vmap["n7"])
        remover.commit()
        session = engine.begin_session()
        session.graph.set_vertex_property(vmap["n0"], "rank", 42)
        with pytest.raises(ElementNotFoundError):
            session.graph.set_edge_property(emap[4], "weight", 1)
        with pytest.raises(ElementNotFoundError):
            session.graph.remove_edge(emap[4])
        with pytest.raises(ElementNotFoundError):
            session.graph.set_vertex_property(vmap["n7"], "rank", 1)
        with pytest.raises(ElementNotFoundError):
            session.graph.remove_vertex(vmap["n7"])
        with pytest.raises(ElementNotFoundError):
            session.graph.add_edge(vmap["n0"], vmap["n7"], "knows")
        session.commit()  # the valid write survives the rejected ones
        pin.commit()
        assert engine.vertex_property(vmap["n0"], "rank") == 42

    def test_writes_on_gc_reclaimed_objects_fail_at_apply_time(self, any_loaded):
        """After GC a dead id is indistinguishable from one that never existed.

        With no observer pinning them, an uncontended removal's tombstones
        are reclaimed the moment the remover closes; a later blind write on
        the dead id is then a caller bug that surfaces at apply time (the
        documented behaviour for ids that never went through the overlay).
        """
        engine = any_loaded.engine
        vmap, emap = any_loaded.vertex_map, any_loaded.edge_map
        remover = engine.begin_session()
        remover.graph.remove_edge(emap[4])
        remover.commit()  # uncontended: GC reclaims the tombstone here
        manager = engine.transactions()
        assert manager.store.gc.reclaimed_tombstones > 0
        assert manager.store.retained_entries() == 0
        session = engine.begin_session()
        session.graph.set_edge_property(emap[4], "weight", 1)  # buffers freely
        with pytest.raises(TransactionError):
            session.commit()
        assert session.state == "aborted"

    def test_unknown_buffered_operation_aborts_the_commit(self, any_loaded):
        session = any_loaded.engine.begin_session()
        session.write_set.ops.append(("truncate_graph", any_loaded.vertex_map["n0"]))
        with pytest.raises(TransactionError, match="unknown buffered operation 'truncate_graph'"):
            session.commit()
        assert session.state == "aborted"

    def test_removing_a_draft_vertex_drops_its_draft_edges(self, any_loaded):
        """Created and removed inside one transaction nets out — including
        the edges created on the draft, whose creations must not replay
        against an endpoint that never reached the engine."""
        engine = any_loaded.engine
        anchor = any_loaded.vertex_map["n0"]
        before = (engine.vertex_count(), engine.edge_count())
        session = engine.begin_session()
        draft = session.graph.add_vertex({"name": "draft"})
        session.graph.add_edge(draft, anchor, "knows")
        session.graph.add_edge(anchor, draft, "knows")
        session.graph.set_vertex_property(draft, "rank", 1)
        session.graph.remove_vertex(draft)
        assert session.graph.edge_count() == before[1]
        result = session.commit()
        assert (result.applied_ops, result.id_map) == (0, {})
        assert (engine.vertex_count(), engine.edge_count()) == before

    def test_transactions_refuses_to_reconfigure_a_live_manager(self, any_loaded):
        engine = any_loaded.engine
        manager = engine.transactions(group_commit_size=2)
        assert manager.group_commit_size == 2
        assert engine.transactions() is manager
        with pytest.raises(TransactionError, match="already has a session manager"):
            engine.transactions(group_commit_size=8)
        assert manager.group_commit_size == 2

    def test_session_removal_of_resurrected_objects_is_read_your_writes(self, any_loaded):
        """Removing an object another commit already removed stays consistent."""
        engine = any_loaded.engine
        vmap, emap = any_loaded.vertex_map, any_loaded.edge_map
        edge = emap[0]  # n0 -> n1, label "knows"
        reader = engine.begin_session()  # holds a snapshot with the edge alive
        other = engine.begin_session()
        other.graph.remove_edge(edge)
        other.commit()
        # `reader` still sees the edge (resurrected) and removes it itself.
        assert reader.graph.edge_exists(edge)
        reader.graph.remove_edge(edge)
        assert not reader.graph.edge_exists(edge)
        assert edge not in list(reader.graph.edge_ids())
        assert edge not in list(reader.graph.edges_by_label("knows"))
        assert edge not in list(reader.graph.out_edges(vmap["n0"]))
        reader.graph.distinct_edge_labels()  # must not touch the gone edge
        with pytest.raises(WriteConflictError):
            reader.commit()  # first committer (the other session) still wins

    def test_hidden_vertex_is_consistently_invisible(self, any_loaded):
        """Existence checks and adjacency reads agree about hidden vertices."""
        engine = any_loaded.engine
        reader = engine.begin_session()
        writer = engine.begin_session()
        pid = writer.graph.add_vertex({"bench_name": "late"}, label="bench")
        writer.graph.add_edge(pid, any_loaded.vertex_map["n0"], "knows")
        result = writer.commit()
        new_id = result.id_map[pid]
        assert not reader.graph.vertex_exists(new_id)
        with pytest.raises(ElementNotFoundError):
            reader.graph.vertex(new_id)
        with pytest.raises(ElementNotFoundError):
            list(reader.graph.neighbors(new_id, Direction.BOTH))
        with pytest.raises(ElementNotFoundError):
            reader.graph.degree(new_id)
        reader.commit()

    def test_abort_discards_everything(self, any_loaded):
        engine = any_loaded.engine
        before = engine.vertex_count()
        session = engine.begin_session()
        session.graph.add_vertex({"bench_name": "ghost"})
        session.graph.set_vertex_property(any_loaded.vertex_map["n0"], "rank", -1)
        session.abort()
        assert engine.vertex_count() == before
        assert engine.vertex_property(any_loaded.vertex_map["n0"], "rank") == 0


class TestChargeParity:
    """An uncontended session must charge exactly like direct execution.

    Buffered writes are free until commit, the commit replays the op log
    call-for-call, and no before-images are captured when no concurrent
    session could observe them — so the combined metrics snapshots must be
    *identical*, every counter included (the overlay analogue of
    ``TestChargeParity`` in the bulk-primitive suite).
    """

    @staticmethod
    def _mixed_ops(graph, vmap):
        query_by_id("Q32")(graph, {"vertex": vmap["n0"], "depth": 2})
        list(graph.out_neighbors(vmap["n0"]))
        list(graph.both_edges(vmap["n5"], "knows"))
        graph.vertex(vmap["n2"])
        graph.vertex_label(vmap["n3"])
        graph.degree_at_least(vmap["n0"], 2)
        graph.set_vertex_property(vmap["n1"], "rank", 99)
        graph.add_edge(vmap["n3"], vmap["n4"], "knows")
        new_vertex = graph.add_vertex({"bench_name": "x"}, label="person")
        graph.set_vertex_property(new_vertex, "extra", 1)
        list(graph.out_neighbors(vmap["n6"]))  # read after buffered writes

    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_uncontended_session_matches_direct_execution(self, identifier, small_dataset):
        direct = load_dataset_into(create_engine(identifier), small_dataset)
        transacted = load_dataset_into(create_engine(identifier), small_dataset)

        direct.engine.reset_metrics()
        self._mixed_ops(direct.engine, direct.vertex_map)
        expected = direct.engine.combined_metrics().snapshot()

        transacted.engine.reset_metrics()
        session = transacted.engine.begin_session()
        self._mixed_ops(session.graph, transacted.vertex_map)
        session.commit()
        assert transacted.engine.combined_metrics().snapshot() == expected

    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_pure_read_session_matches_direct_execution(self, identifier, small_dataset):
        direct = load_dataset_into(create_engine(identifier), small_dataset)
        transacted = load_dataset_into(create_engine(identifier), small_dataset)

        def reads(graph, vmap):
            query_by_id("Q32")(graph, {"vertex": vmap["n0"], "depth": 3})
            query_by_id("Q23")(graph, {"vertex": vmap["n1"]})
            graph.vertex_count()
            list(graph.vertices_by_property("rank", 3))
            list(graph.edges_by_label("knows"))

        direct.engine.reset_metrics()
        reads(direct.engine, direct.vertex_map)
        expected = direct.engine.combined_metrics().snapshot()

        transacted.engine.reset_metrics()
        session = transacted.engine.begin_session()
        reads(session.graph, transacted.vertex_map)
        session.commit()
        assert transacted.engine.combined_metrics().snapshot() == expected


class TestResultConformance:
    """Session reads must return what direct execution returns."""

    def test_traversals_match_direct_execution(self, any_loaded):
        engine = any_loaded.engine
        vmap = any_loaded.vertex_map
        session = engine.begin_session()
        for query_id, params in (
            ("Q32", {"vertex": vmap["n0"], "depth": 3}),
            ("Q23", {"vertex": vmap["n0"]}),
            ("Q22", {"vertex": vmap["n1"]}),
            ("Q27", {"vertex": vmap["n5"]}),
        ):
            query = query_by_id(query_id)
            assert query(session.graph, dict(params)) == query(engine, dict(params))
        session.commit()

    def test_search_primitives_see_session_writes(self, any_loaded):
        engine = any_loaded.engine
        vid = any_loaded.vertex_map["n4"]
        session = engine.begin_session()
        session.graph.set_vertex_property(vid, "rank", 12345)
        assert vid in list(session.graph.vertices_by_property("rank", 12345))
        assert vid not in list(session.graph.vertices_by_property("rank", 4))
        pid = session.graph.add_vertex({"rank": 12345})
        assert pid in list(session.graph.vertices_by_property("rank", 12345))
        session.abort()
