"""A commit that fails leaves nothing behind.

``SessionManager.prepare`` checks the whole operation log against the
engine (``commit_prepared`` re-checks it before it captures a before-image
or applies the first op), and the check books nothing.  A log that names an id the engine no longer holds
— here, one removed directly on the engine while the session was open —
therefore raises ``TransactionError`` with the engine, its WAL, its charges
and the version store exactly as they were, and a concurrent snapshot still
reads the pre-transaction values.

The property test splices one such write into a random valid log over the
eight ops of the codec; its run length comes from the hypothesis profile
loaded in ``tests/conftest.py`` (``HYPOTHESIS_PROFILE=ci`` digs deeper).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engines import ALL_ENGINES, create_engine
from repro.exceptions import SchemaError, TransactionError
from repro.model.graph import OPS


def _digest(engine) -> tuple:
    """Every vertex and edge with its label, endpoints and properties."""
    vertices = sorted(
        (repr(v.id), v.label, sorted(v.properties.items(), key=repr)) for v in engine.vertices()
    )
    edges = sorted(
        (repr(e.id), e.label, repr(e.source), repr(e.target),
         sorted(e.properties.items(), key=repr))
        for e in engine.edges()
    )
    return vertices, edges


def _assert_failed_commit_leaves_nothing(engine, session) -> None:
    store = engine.transactions().store
    digest = _digest(engine)
    counters = (len(engine.wal), engine.io_cost(), store.clock, store.retained_entries())
    with pytest.raises(TransactionError):
        session.commit()
    assert session.state == "aborted"
    assert (len(engine.wal), engine.io_cost(), store.clock, store.retained_entries()) == counters
    assert _digest(engine) == digest


@pytest.mark.parametrize("concurrent", [False, True], ids=["uncontended", "concurrent"])
@pytest.mark.parametrize("engine_id", ALL_ENGINES)
def test_a_write_to_a_removed_id_fails_the_whole_commit(engine_id, concurrent):
    engine = create_engine(engine_id)
    a = engine.add_vertex({"name": "a"}, label="person")
    doomed = engine.add_vertex({"name": "doomed"}, label="person")
    other = engine.begin_session() if concurrent else None
    session = engine.begin_session()
    session.graph.set_vertex_property(a, "name", "changed")
    session.graph.set_vertex_property(doomed, "name", "x")
    engine.remove_vertex(doomed)  # outside any session
    _assert_failed_commit_leaves_nothing(engine, session)
    assert engine.vertex_property(a, "name") == "a"
    if other is not None:
        assert other.graph.vertex_property(a, "name") == "a"
        other.commit()


@pytest.mark.parametrize("kind", ["vertex", "edge"])
@pytest.mark.parametrize(
    "engine_id", [engine_id for engine_id in ALL_ENGINES if engine_id.startswith("relational")]
)
def test_an_unstorable_label_is_refused_at_the_buffered_write(engine_id, kind):
    """The relational engine's label limit is checked when the session
    buffers the write, so a commit never applies half of a log."""
    engine = create_engine(engine_id)
    a = engine.add_vertex({"name": "a"}, label="person")
    b = engine.add_vertex({"name": "b"}, label="person")
    session = engine.begin_session()
    session.graph.set_vertex_property(a, "name", "changed")
    with pytest.raises(SchemaError):
        if kind == "vertex":
            session.graph.add_vertex({"name": "c"}, label="x" * 70)
        else:
            session.graph.add_edge(a, b, "y" * 70)
    assert [op[0] for op in session.write_set.ops] == ["set_vertex_property"]
    assert engine.vertex_property(a, "name") == "a"
    assert (engine.vertex_count(), engine.edge_count()) == (2, 0)
    session.commit()
    assert engine.vertex_property(a, "name") == "changed"
    assert (engine.vertex_count(), engine.edge_count()) == (2, 0)
    assert len(engine.schema.vertex_labels) == 1 and not engine.schema.edge_labels


#: Writes naming the doomed vertex ``d`` (removed directly on the engine
#: before the commit) or the doomed edge ``e`` (removed with it).
_SPLICES = (
    lambda graph, d, e, spare: graph.set_vertex_property(d, "name", "x"),
    lambda graph, d, e, spare: graph.remove_vertex_property(d, "name"),
    lambda graph, d, e, spare: graph.remove_vertex(d),
    lambda graph, d, e, spare: graph.add_edge(d, spare, "knows"),
    lambda graph, d, e, spare: graph.add_edge(spare, d, "knows"),
    lambda graph, d, e, spare: graph.set_edge_property(e, "w", 9),
    lambda graph, d, e, spare: graph.remove_edge_property(e, "w"),
    lambda graph, d, e, spare: graph.remove_edge(e),
)


def _valid_write(data, graph, vertices: list, edges: dict) -> None:
    """Buffer one random valid op of the codec, keeping the model current."""
    names = ["add_vertex"]
    if vertices:
        names += ["add_edge", "remove_vertex", "set_vertex_property", "remove_vertex_property"]
    if edges:
        names += ["remove_edge", "set_edge_property", "remove_edge_property"]
    name = data.draw(st.sampled_from(names))
    assert name in OPS
    if name == "add_vertex":
        label = data.draw(st.sampled_from(["person", None]))
        vertices.append(graph.add_vertex({"name": "new"}, label=label))
    elif name == "add_edge":
        source, target = data.draw(st.sampled_from(vertices)), data.draw(st.sampled_from(vertices))
        edges[graph.add_edge(source, target, "knows", {"w": 1})] = (source, target)
    elif name == "remove_vertex":
        vertex = data.draw(st.sampled_from(vertices))
        graph.remove_vertex(vertex)
        vertices.remove(vertex)
        for edge in [edge for edge, ends in edges.items() if vertex in ends]:
            del edges[edge]
    elif name == "remove_edge":
        edge = data.draw(st.sampled_from(sorted(edges, key=repr)))
        graph.remove_edge(edge)
        del edges[edge]
    elif name.endswith("vertex_property"):
        vertex = data.draw(st.sampled_from(vertices))
        getattr(graph, name)(vertex, "name", *(["set"] if name.startswith("set") else []))
    else:
        edge = data.draw(st.sampled_from(sorted(edges, key=repr)))
        getattr(graph, name)(edge, "w", *([2] if name.startswith("set") else []))


@pytest.mark.parametrize("engine_id", ALL_ENGINES)
@given(data=st.data())
def test_a_spliced_missing_id_fails_a_random_log_whole(engine_id, data):
    engine = create_engine(engine_id)
    vertices = [engine.add_vertex({"name": f"v{i}"}, label="person") for i in range(3)]
    edges = {
        engine.add_edge(vertices[i], vertices[(i + 1) % 3], "knows", {"w": i}): (
            vertices[i], vertices[(i + 1) % 3]
        )
        for i in range(3)
    }
    first = vertices[0]
    doomed, spare = engine.add_vertex({"name": "d"}), engine.add_vertex({"name": "s"})
    doomed_edge = engine.add_edge(doomed, spare, "knows", {"w": 0})
    other = engine.begin_session() if data.draw(st.booleans(), label="concurrent") else None
    session = engine.begin_session()
    length = data.draw(st.integers(0, 6), label="length")
    splice_at = data.draw(st.integers(0, length), label="splice at")
    for position in range(length + 1):
        if position == splice_at:
            splice = data.draw(st.sampled_from(_SPLICES))
            splice(session.graph, doomed, doomed_edge, spare)
        if position < length:
            _valid_write(data, session.graph, vertices, edges)
    engine.remove_vertex(doomed)  # outside any session, with its edge
    _assert_failed_commit_leaves_nothing(engine, session)
    if other is not None:
        assert other.graph.vertex_property(first, "name") == "v0"
        other.commit()
