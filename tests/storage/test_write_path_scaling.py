"""Host work on the write path is proportional to booked work — no wall clock.

The cost model books a write's *logical* work; the interpreter's work for
the same write must not grow with anything the model does not book.  These
guards count Python function-call events (``sys.setprofile``) and assert
equality between two runs of the same code at different data sizes, so
they are deterministic on any machine: red means a scan crept back in.

The relational cascade is the cautionary tale — it once ran a Python
predicate over every row of every edge table (13 million calls per
benchmark run) while booking nothing for it.
"""

from __future__ import annotations

import random

from callcount import python_calls
from repro.engines import create_engine
from repro.storage.btree import BPlusTree
from repro.storage.wal import WriteAheadLog


def _cascade_calls(unrelated_edges: int) -> int:
    """Calls made removing a degree-3 vertex next to ``unrelated_edges`` rows
    in the same two edge tables."""
    engine = create_engine("relationalgraph-1.2")
    crowd = [engine.add_vertex({"rank": index}, label="person") for index in range(40)]
    victim = engine.add_vertex(label="person")
    rng = random.Random(unrelated_edges)
    for index in range(unrelated_edges):
        engine.add_edge(rng.choice(crowd), rng.choice(crowd), ("knows", "likes")[index % 2])
    engine.add_edge(victim, crowd[0], "knows")
    engine.add_edge(crowd[1], victim, "likes")
    engine.add_edge(victim, victim, "knows")
    calls = python_calls(lambda: engine.remove_vertex(victim))
    assert engine.edge_count() == unrelated_edges
    return calls


def test_relational_cascade_calls_do_not_grow_with_unrelated_rows():
    assert _cascade_calls(200) == _cascade_calls(5000)


def test_wal_append_calls_do_not_grow_with_the_log():
    wal = WriteAheadLog("guard")
    counts = set()
    for index in range(3000):
        payload = {"id": f"V_person:{index}", "key": "name"}
        if index % 500 == 0:
            counts.add(python_calls(lambda: wal.append("set_vertex_property", payload)))
        else:
            wal.append("set_vertex_property", payload)
    assert len(counts) == 1


def test_btree_insert_calls_depend_only_on_height_and_splits():
    rng = random.Random(20)
    tree = BPlusTree("guard", order=4)
    calls_by_shape: dict[tuple[int, int], set[int]] = {}
    for _ in range(600):
        key = (rng.randrange(400),)
        height, splits = tree.height, tree.rebalance_count
        calls = python_calls(lambda: tree.insert(key, key))
        shape = (height, tree.rebalance_count - splits)
        calls_by_shape.setdefault(shape, set()).add(calls)
    assert tree.height >= 4
    assert all(len(counts) == 1 for counts in calls_by_shape.values()), calls_by_shape
    # A descent is one call however tall the tree; only splits add frames.
    assert {counts.pop() for (_height, splits), counts in calls_by_shape.items() if not splits} == {1}
