"""The MVCC visibility rule, enumerated.

``repro.concurrency.visibility`` is the one place that decides what a
snapshot sees of a key.  It is pure, so it can be checked exhaustively:
every history of up to four commits over one key, a reader pinned at
every timestamp, against a timeline written out literally.  The same
histories then run through real sessions on an engine that reuses freed
ids, and a regression pins that every reader of a session agrees when an
object is invisible to it.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest

from repro.concurrency import visibility
from repro.concurrency.visibility import CURRENT, removed_as_of, visible_state
from repro.engines import ALL_ENGINES, create_engine
from repro.exceptions import ElementNotFoundError, WriteConflictError

MAX_EVENTS = 4
CREATE, OVERWRITE, REMOVE, REPLACE = "create", "overwrite", "remove", "remove+recreate"


def histories(initially_present: bool):
    """Every valid event sequence of length <= MAX_EVENTS for one key."""
    for length in range(MAX_EVENTS + 1):
        for events in itertools.product((CREATE, OVERWRITE, REMOVE, REPLACE), repeat=length):
            present = initially_present
            for event in events:
                if (event == CREATE) == present:
                    break  # create needs an absent key, the rest a present one
                present = event != REMOVE
            else:
                yield events


ALL_HISTORIES = [
    pytest.param(
        present, events, id=f"{'present' if present else 'absent'}:{'-'.join(events) or 'none'}"
    )
    for present in (False, True)
    for events in histories(present)
]


def timeline(initially_present: bool, events) -> list:
    """``timeline[t]``: the key's value once commit ``t`` is applied.

    Commit ``t`` (1-based) is ``events[t - 1]``; a value is the number of
    the commit that wrote it (0 for the loaded baseline), ``None`` while
    the key names no object.
    """
    values = [0 if initially_present else None]
    for ts, event in enumerate(events, start=1):
        values.append(None if event == REMOVE else ts)
    return values


def test_history_enumeration_is_complete():
    # From an absent key only `create` applies; from a present one the
    # other three do.  Counting sequences of each length by end state:
    absent, present, total = {False: 1, True: 0}, {False: 0, True: 1}, {False: 1, True: 1}
    for _length in range(MAX_EVENTS):
        for start in (False, True):
            a, p = absent[start], present[start]
            absent[start], present[start] = p, a + 2 * p
            total[start] += absent[start] + present[start]
    assert len(list(histories(False))) == total[False] == 29
    assert len(list(histories(True))) == total[True] == 69


# -- (a) the pure rule ---------------------------------------------------------


class Marks:
    """One key's marks, stamped the way a captured commit stamps them.

    Mirrors ``SessionManager._capture_before_images`` (before-image of a
    written or removed key, pushed before apply) and ``_publish`` (commit
    mark always; creation and removal marks; a ``None`` lifetime boundary
    for a creation that pushed no before-image).  Readers are pinned at
    every timestamp, so every commit captures.
    """

    def __init__(self) -> None:
        self.created_ts = self.committed_ts = self.removed_ts = 0
        self.undo: list[tuple[int, object]] = []

    def commit(self, ts: int, event: str, before: object) -> None:
        if event != CREATE:
            self.undo.append((ts, before))
        self.committed_ts = ts
        if event in (CREATE, REPLACE):
            self.created_ts = ts
            if event == CREATE:
                self.undo.append((ts, None))
        if event in (REMOVE, REPLACE):
            self.removed_ts = ts

    def collected(self, low_water_mark: int) -> "Marks":
        """These marks after ``VersionStore.collect_garbage(low_water_mark)``."""
        swept = Marks()
        swept.created_ts, swept.committed_ts, swept.removed_ts = (
            ts if ts > low_water_mark else 0
            for ts in (self.created_ts, self.committed_ts, self.removed_ts)
        )
        swept.undo = [(ts, state) for ts, state in self.undo if ts > low_water_mark]
        return swept


@pytest.mark.parametrize("initially_present, events", ALL_HISTORIES)
def test_pure_rule_matches_the_timeline(initially_present, events):
    values = timeline(initially_present, events)
    marks = Marks()
    for applied in range(len(events) + 1):
        if applied:
            marks.commit(applied, events[applied - 1], values[applied - 1])
        # Every reader that exists once `applied` commits are in, under
        # every garbage collection its pin allows.
        for snapshot in range(applied + 1):
            for low_water_mark in range(snapshot + 1):
                kept = marks.collected(low_water_mark)
                seen = visible_state(kept.created_ts, kept.committed_ts, kept.undo, snapshot)
                if seen is CURRENT:
                    seen = values[applied]  # what the engine holds in place
                assert seen == values[snapshot], (applied, snapshot, low_water_mark)

                rejected = removed_as_of(kept.created_ts, kept.removed_ts, snapshot)
                # Sound at every reader: only absent objects are rejected.
                assert not (rejected and values[snapshot] is not None)
                if snapshot == applied and low_water_mark == 0:
                    # Exact at the newest snapshot: absent *because removed*
                    # (a key that never existed leaves no tombstone).
                    was_removed = values[snapshot] is None and any(
                        value is not None for value in values[:snapshot]
                    )
                    assert rejected == was_removed, (applied, snapshot)


def test_uncaptured_commits_hide_new_keys_and_fall_back_to_the_engine():
    # No older reader existed at commit time, so no undo entry was pushed:
    # a creation after the snapshot stays hidden, an overwrite falls back.
    assert visible_state(created_ts=3, committed_ts=3, undo_chain=(), snapshot=2) is None
    assert visible_state(created_ts=0, committed_ts=3, undo_chain=(), snapshot=2) is CURRENT
    assert visible_state(created_ts=3, committed_ts=3, undo_chain=(), snapshot=3) is CURRENT


def test_visibility_module_imports_nothing_from_repro():
    tree = ast.parse(Path(visibility.__file__).read_text())
    imported = [
        name
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else ["." * node.level + (node.module or "")] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    assert imported  # the scan sees the module's imports at all
    assert not [name for name in imported if name.startswith((".", "repro"))], imported


# -- (b) the same histories through real sessions ---------------------------------

#: Freed ids are handed out again (LIFO), so one id really does name
#: several objects over a history.
ID_REUSING_ENGINE = "nativelinked-1.9"


class VertexKey:
    kind = "vertex"

    def __init__(self, engine, initially_present: bool) -> None:
        self.id = engine.add_vertex({"val": 0}, label="key") if initially_present else None

    def create(self, graph, value):
        return graph.add_vertex({"val": value}, label="key")

    def overwrite(self, graph, value):
        graph.set_vertex_property(self.id, "val", value)

    def remove(self, graph):
        graph.remove_vertex(self.id)

    def observe(self, graph):
        try:
            value = graph.vertex_property(self.id, "val")
        except ElementNotFoundError:
            value = None
        assert graph.vertex_exists(self.id) == (value is not None)
        assert list(graph.vertex_ids()).count(self.id) == (value is not None)
        return value, graph.vertex_count()


class EdgeKey:
    kind = "edge"

    def __init__(self, engine, initially_present: bool) -> None:
        self.source = engine.add_vertex({}, label="end")
        self.target = engine.add_vertex({}, label="end")
        self.id = (
            engine.add_edge(self.source, self.target, "key", {"val": 0})
            if initially_present
            else None
        )

    def create(self, graph, value):
        return graph.add_edge(self.source, self.target, "key", {"val": value})

    def overwrite(self, graph, value):
        graph.set_edge_property(self.id, "val", value)

    def remove(self, graph):
        graph.remove_edge(self.id)

    def observe(self, graph):
        try:
            value = graph.edge_property(self.id, "val")
        except ElementNotFoundError:
            value = None
        assert graph.edge_exists(self.id) == (value is not None)
        assert list(graph.edge_ids()).count(self.id) == (value is not None)
        assert list(graph.out_edges(self.source)).count(self.id) == (value is not None)
        return value, graph.edge_count()


@pytest.mark.parametrize("key_type", [VertexKey, EdgeKey])
@pytest.mark.parametrize("initially_present, events", ALL_HISTORIES)
def test_sessions_on_an_id_reusing_engine_match_the_timeline(key_type, initially_present, events):
    engine = create_engine(ID_REUSING_ENGINE)
    engine.add_vertex({}, label="bystander")
    key = key_type(engine, initially_present)
    values = timeline(initially_present, events)
    others = engine.vertex_count() if key.kind == "vertex" else engine.edge_count()
    others -= initially_present

    readers = [engine.begin_session()]  # pinned at timestamp 0
    for ts, event in enumerate(events, start=1):
        writer = engine.begin_session()
        if event in (REMOVE, REPLACE):
            key.remove(writer.graph)
        if event == OVERWRITE:
            key.overwrite(writer.graph, ts)
        created = key.create(writer.graph, ts) if event in (CREATE, REPLACE) else None
        result = writer.commit()
        assert result.commit_ts == ts
        if created is not None:
            new_id = result.id_map[created]
            assert key.id in (None, new_id), "the engine did not reuse the freed id"
            key.id = new_id
        readers.append(engine.begin_session())
        if key.id is None:
            continue
        for snapshot, reader in enumerate(readers):
            assert key.observe(reader.graph) == (
                values[snapshot],
                others + (values[snapshot] is not None),
            ), (ts, snapshot)
    for reader in readers:
        reader.commit()
    assert engine.transactions().store.retained_entries() == 0


# -- regression: every reader agrees an invisible object is invisible ---------------


@pytest.mark.parametrize("kind", ["vertex", "edge"])
@pytest.mark.parametrize("engine_id", ALL_ENGINES)
def test_buffered_write_does_not_reveal_an_object_created_after_the_snapshot(engine_id, kind):
    """Session A buffers a write on an object B created after A's snapshot.

    The write set used to be consulted before visibility by the property
    readers only, so A saw the object through ``*_property`` and
    ``*_by_property`` while ``*_exists`` and ``vertex()/edge()`` denied
    it.  The write itself is left to first-committer-wins.
    """
    engine = create_engine(engine_id)
    source = engine.add_vertex({"name": "s"}, label="end")
    target = engine.add_vertex({"name": "t"}, label="end")
    a = engine.begin_session()
    b = engine.begin_session()
    if kind == "vertex":
        pid = b.graph.add_vertex({"y": 1}, label="late")
    else:
        pid = b.graph.add_edge(source, target, "late", {"y": 1})
    new_id = b.commit().id_map[pid]

    graph = a.graph
    read = {
        "vertex": (graph.vertex_exists, graph.vertex, graph.vertex_property,
                   graph.vertices_by_property, graph.set_vertex_property),
        "edge": (graph.edge_exists, graph.edge, graph.edge_property,
                 graph.edges_by_property, graph.set_edge_property),
    }[kind]
    exists, fetch, get_property, by_property, set_property = read

    set_property(new_id, "x", 99)
    assert not exists(new_id)
    with pytest.raises(ElementNotFoundError):
        fetch(new_id)
    for prop in ("x", "y"):
        with pytest.raises(ElementNotFoundError):
            get_property(new_id, prop)
    assert list(by_property("x", 99)) == []
    assert list(by_property("y", 1)) == []
    with pytest.raises(WriteConflictError):
        a.commit()
    # The retry's fresh snapshot sees the object and the write lands.
    retry = engine.begin_session()
    (retry.graph.set_vertex_property if kind == "vertex" else retry.graph.set_edge_property)(
        new_id, "x", 99
    )
    retry.commit()
    assert (engine.vertex_property if kind == "vertex" else engine.edge_property)(new_id, "x") == 99
