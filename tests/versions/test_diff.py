"""Structural diff between retained commits: classification and charges."""

from __future__ import annotations

import pytest

from repro.engines import create_engine
from repro.versions import structural_diff


@pytest.fixture
def engine():
    engine = create_engine("nativelinked-1.9")
    yield engine
    engine.close()


def _seed(engine, count=6):
    session = engine.begin_session()
    provisional = [
        session.graph.add_vertex({"name": f"d{index}", "rank": index}, label="person")
        for index in range(count)
    ]
    edges = [
        session.graph.add_edge(provisional[index], provisional[index + 1], "knows", {})
        for index in range(count - 1)
    ]
    result = session.commit()
    return (
        [result.id_map[p] for p in provisional],
        [result.id_map[e] for e in edges],
    )


class TestClassification:
    def test_added_removed_changed_all_detected(self, engine):
        vids, eids = _seed(engine)
        catalog = engine.versions()
        base = catalog.commit(tag="base")

        session = engine.begin_session()
        added = session.graph.add_vertex({"name": "fresh"}, label="person")
        session.graph.set_vertex_property(vids[1], "rank", 99)
        session.graph.remove_edge(eids[0])
        result = session.commit()
        added_id = result.id_map[added]
        target = catalog.commit(tag="target")

        diff = catalog.diff(base, target)
        by_id = {(entry.kind, entry.obj_id): entry for entry in diff.entries}
        assert by_id[("vertex", added_id)].change == "added"
        assert by_id[("vertex", vids[1])].change == "changed"
        assert by_id[("edge", eids[0])].change == "removed"
        assert diff.count("vertex", "added") == 1
        assert diff.count("vertex", "changed") == 1
        assert diff.count("edge", "removed") == 1
        assert len(diff.entries) == 3

    def test_before_and_after_states_are_materialized(self, engine):
        vids, _eids = _seed(engine)
        catalog = engine.versions()
        base = catalog.commit()
        session = engine.begin_session()
        session.graph.set_vertex_property(vids[0], "rank", 42)
        session.commit()
        target = catalog.commit()
        diff = catalog.diff(base, target)
        (entry,) = diff.entries
        assert entry.before["properties"]["rank"] == 0
        assert entry.after["properties"]["rank"] == 42
        assert entry.before["label"] == "person"

    def test_identical_commits_diff_empty(self, engine):
        _seed(engine)
        catalog = engine.versions()
        base = catalog.commit()
        target = catalog.commit()
        diff = catalog.diff(base, target)
        assert diff.entries == []
        assert diff.candidates == 0
        assert diff.walk_charge == 0


class TestChargesAndSkipping:
    def test_every_candidate_visit_is_charged(self, engine):
        vids, _eids = _seed(engine)
        catalog = engine.versions()
        base = catalog.commit()
        session = engine.begin_session()
        for vid in vids[:3]:
            session.graph.set_vertex_property(vid, "rank", 7)
        session.commit()
        target = catalog.commit()
        diff = catalog.diff(base, target)
        assert diff.visited == diff.candidates == len(diff.entries) == 3
        assert diff.walk_charge >= diff.visited  # one record read per visit
        assert diff.charge == diff.walk_charge + diff.engine_charge

    def test_only_marks_inside_the_window_are_candidates(self, engine):
        vids, _eids = _seed(engine)
        catalog = engine.versions()
        base = catalog.commit()

        def write_then_commit(vid):
            session = engine.begin_session()
            session.graph.set_vertex_property(vid, "rank", 9)
            session.commit()
            return catalog.commit()

        middle = write_then_commit(vids[0])
        middle_again = catalog.commit()  # same snapshot, new commit id
        target = write_then_commit(vids[1])
        store = engine.transactions().store
        assert store.retained_entries() > 0  # both writes left pinned marks
        # Same snapshot on both sides: nothing is scanned, visited or charged.
        same = catalog.diff(middle, middle_again)
        assert (same.candidates, same.visited, same.charge) == (0, 0, 0)
        # The first write lies outside (middle, target]; only the second counts.
        later = catalog.diff(middle, target)
        assert [entry.obj_id for entry in later.entries] == [vids[1]]
        assert later.candidates == 1
        assert catalog.diff(base, target).candidates == 2

    def test_diff_charge_lands_on_its_own_sink_not_the_walk(self, engine):
        vids, _eids = _seed(engine)
        catalog = engine.versions()
        base = catalog.commit()
        session = engine.begin_session()
        session.graph.set_vertex_property(vids[2], "rank", 3)
        session.commit()
        target = catalog.commit()
        engine.reset_metrics()
        diff = structural_diff(catalog, base, target)
        # Engine charges from materialization are reported, never hidden.
        assert diff.engine_charge == engine.io_cost()
        summary = diff.summary()
        assert summary["charge"] == diff.charge
        assert summary["entries"] == 1
