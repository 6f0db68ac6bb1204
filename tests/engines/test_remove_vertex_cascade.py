"""``remove_vertex`` cascades: same answers on every engine, same booked cost.

Differential: seeded random multigraphs (self-loops, parallel edges, in-
and out-edges under different labels) on all nine engines against a dict
of edges — after the victim is removed, the counts, the surviving edge set
and every neighbour's adjacency are what the dict says.

Charge pin (relational): how the engine *finds* a vertex's incident edge
rows is not part of the cost model — only deleting them is.  The booked
cost of a cascade is therefore one ``Table.delete`` per doomed edge row,
the vertex row's delete and one WAL page, however many edge tables the
catalog holds and however many unrelated rows sit in them.  This fails the
day someone books the discovery, or deletes a self-loop row twice.
"""

from __future__ import annotations

import random

import pytest

from repro.engines import create_engine

_VERTEX_LABELS = ("person", "place", "thing")
_EDGE_LABELS = ("knows", "likes", "visits", "owns", "rates")
_RELATIONAL = "relationalgraph-1.2"


def _build(engine, seed: int, isolated_victim: bool):
    """Load a random multigraph; returns ``(vertex ids, victim, edge dict)``.

    The victim (unless isolated) gets self-loops, parallel edges, and in-
    and out-edges under at least three labels, on top of the random edges.
    """
    rng = random.Random(seed)
    vertices = [
        engine.add_vertex({"rank": index}, label=rng.choice(_VERTEX_LABELS))
        for index in range(12)
    ]
    victim = vertices[rng.randrange(len(vertices))]
    others = [vertex for vertex in vertices if vertex != victim]
    edges: dict[object, tuple[object, object, str]] = {}

    def connect(source, target, label):
        edges[engine.add_edge(source, target, label, {"w": len(edges)})] = (source, target, label)

    for _ in range(40):
        connect(rng.choice(others), rng.choice(others), rng.choice(_EDGE_LABELS))
    if not isolated_victim:
        neighbour = rng.choice(others)
        connect(victim, victim, "knows")  # self-loop: one row, both endpoint indexes
        connect(victim, victim, "knows")
        connect(victim, neighbour, "likes")  # parallel edges
        connect(victim, neighbour, "likes")
        connect(neighbour, victim, "visits")  # in-edge under another label
        for _ in range(6):
            source, target = rng.choice([(victim, rng.choice(others)), (rng.choice(others), victim)])
            connect(source, target, rng.choice(_EDGE_LABELS))
    return vertices, victim, edges


def _incident(edges, victim):
    return {edge for edge, (source, target, _label) in edges.items() if victim in (source, target)}


@pytest.mark.parametrize("isolated_victim", [False, True], ids=["connected", "isolated"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cascade_matches_the_dict_reference(any_engine, seed, isolated_victim):
    vertices, victim, edges = _build(any_engine, seed, isolated_victim)
    doomed = _incident(edges, victim)
    if isolated_victim:
        assert not doomed
    else:
        assert len({edges[edge][2] for edge in doomed}) >= 3

    any_engine.remove_vertex(victim)

    surviving = {edge: ends for edge, ends in edges.items() if edge not in doomed}
    assert not any_engine.vertex_exists(victim)
    assert any_engine.vertex_count() == len(vertices) - 1
    assert any_engine.edge_count() == len(surviving)
    assert set(any_engine.edge_ids()) == set(surviving)
    for vertex in vertices:
        if vertex == victim:
            continue
        out = {edge for edge, (source, _t, _l) in surviving.items() if source == vertex}
        into = {edge for edge, (_s, target, _l) in surviving.items() if target == vertex}
        assert set(any_engine.out_edges(vertex)) == out
        assert set(any_engine.in_edges(vertex)) == into
        assert len(list(any_engine.out_edges(vertex))) == len(out)
        assert len(list(any_engine.in_edges(vertex))) == len(into)


def _row_deletes_cost(engine, victim, doomed) -> int:
    """What deleting exactly these rows books, one ``Table.delete`` each."""
    before = engine.io_cost()
    for element in sorted(doomed, key=str) + [victim]:
        table_name, _, row = str(element).rpartition(":")
        engine.database.table(table_name).delete(int(row))
    return engine.io_cost() - before


def _padded(engine, vertices, victim):
    """Unrelated rows: many more edge tables, and more rows in the tables
    the victim's edges live in (too few to grow an index level)."""
    others = [vertex for vertex in vertices if vertex != victim]
    for index in range(30):
        engine.add_edge(others[index % len(others)], others[(index + 1) % len(others)], f"pad{index}")
    for label in _EDGE_LABELS:
        for index in range(5):
            engine.add_edge(others[index], others[index + 1], label)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relational_cascade_books_only_the_deletes(seed):
    costs = []
    for padded in (False, True):
        engine, twin = create_engine(_RELATIONAL), create_engine(_RELATIONAL)
        for instance in (engine, twin):
            vertices, victim, edges = _build(instance, seed, isolated_victim=False)
            if padded:
                _padded(instance, vertices, victim)
        doomed = _incident(edges, victim)
        wal_length, before = len(engine.wal), engine.io_cost()
        engine.remove_vertex(victim)
        cost = engine.io_cost() - before
        assert len(engine.wal) == wal_length + 1
        assert cost == _row_deletes_cost(twin, victim, doomed) + 1  # + the WAL page
        costs.append(cost)
    # Neither the 30 extra edge tables nor the unrelated rows cost anything.
    assert costs[0] == costs[1]


def test_relational_isolated_vertex_costs_one_row_delete():
    engine, twin = create_engine(_RELATIONAL), create_engine(_RELATIONAL)
    for instance in (engine, twin):
        _vertices, victim, _edges = _build(instance, seed=4, isolated_victim=True)
    before = engine.io_cost()
    engine.remove_vertex(victim)
    assert engine.io_cost() - before == _row_deletes_cost(twin, victim, set()) + 1


def test_relational_self_loop_row_is_deleted_once():
    engine, twin = create_engine(_RELATIONAL), create_engine(_RELATIONAL)
    for instance in (engine, twin):
        victim = instance.add_vertex(label="person")
        other = instance.add_vertex(label="person")
        loop = instance.add_edge(victim, victim, "knows")
        kept = instance.add_edge(other, other, "knows")
    before = engine.io_cost()
    engine.remove_vertex(victim)
    assert engine.io_cost() - before == _row_deletes_cost(twin, victim, {loop}) + 1
    assert list(engine.edge_ids()) == [kept]
