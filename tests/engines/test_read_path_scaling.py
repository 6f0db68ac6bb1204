"""Host work on the read path is proportional to the work that finds rows — no wall clock.

The read-side twin of ``tests/storage/test_write_path_scaling.py``.  An
unlabelled relational expansion books one index descent per edge table per
direction (the union over every edge table is the architecture's modelled
weak spot), but the interpreter descends only the tables whose endpoint
index holds the vertex: the catalog's holder map, kept exact by every write,
proves the others empty, and their descents are booked from their heights.
So a warm expansion of an edgeless vertex costs the same beside 10 or 100
edge tables, and a vertex held by ``h`` tables costs ``h`` ``search`` frames
per pass.  Resolving the catalog — sorting and filtering table names,
looking tables, indexes and heights up — books nothing and is done once per
catalog version, not once per expansion.  A triple-store expansion books
several B+Tree probes per reified edge; its host work per edge is a fixed
number of frames under a budget, with both endpoint statements found from
one shared descent.

Counts are ``sys.setprofile`` call events of the package's own functions,
compared between runs of the same code: red means per-table work crept back
into the probe loop.
"""

from __future__ import annotations

import inspect
from collections import Counter

import pytest
from callcount import python_call_profile, python_calls

from repro.engines import create_engine
from repro.model.elements import Direction

_TABLES = (10, 50, 100)


def _engine(tables: int, crowd_size: int = 4, rows_per_table: int = 1):
    """``tables`` edge tables over a crowd, beside one edgeless vertex."""
    engine = create_engine("relationalgraph-1.2")
    crowd = [engine.add_vertex(label="person") for _ in range(crowd_size)]
    loner = engine.add_vertex(label="person")
    for table in range(tables):
        for row in range(rows_per_table):
            source, target = crowd[row % crowd_size], crowd[(row + 1) % crowd_size]
            engine.add_edge(source, target, f"label{table:03d}")
    return engine, crowd, loner


_EXPANSIONS = {
    "neighbors_many": lambda engine, vertex, direction: list(
        engine.neighbors_many([vertex], direction, None)
    ),
    "edges_for_many": lambda engine, vertex, direction: list(
        engine.edges_for_many([vertex], direction, None)
    ),
    "degree_at_least": lambda engine, vertex, direction: engine.degree_at_least(
        vertex, 3, direction
    ),
}


def _warm_calls(expansion: str, tables: int, direction: Direction, **shape: int) -> int:
    engine, _crowd, loner = _engine(tables, **shape)
    expand = _EXPANSIONS[expansion]
    expand(engine, loner, direction)
    return python_calls(lambda: expand(engine, loner, direction))


@pytest.mark.parametrize("direction", [Direction.OUT, Direction.BOTH], ids=["out", "both"])
@pytest.mark.parametrize("expansion", _EXPANSIONS)
def test_a_warm_expansion_of_an_edgeless_vertex_costs_the_same_beside_any_number_of_tables(
    expansion, direction
):
    assert len({_warm_calls(expansion, tables, direction) for tables in _TABLES}) == 1


def _searches(engine, expand) -> int:
    profile = python_call_profile(expand)
    return sum(n for code, n in profile.items() if code.co_name == "search")


@pytest.mark.parametrize("held", [1, 3, 7])
def test_a_vertex_held_by_h_tables_makes_h_searches_per_pass(held):
    engine, crowd, _loner = _engine(100)
    hub = engine.add_vertex(label="person")
    for table in range(held):
        engine.add_edge(hub, crowd[0], f"label{table * 13:03d}")  # h source indexes
    engine.add_edge(crowd[1], hub, "label099")  # and one target index
    for expansion, expand in _EXPANSIONS.items():
        for direction, searches in ((Direction.OUT, held), (Direction.BOTH, held + 1)):
            run = lambda: expand(engine, hub, direction)
            run()
            if expansion == "degree_at_least":
                # It stops at its third row: with h >= 3 out-tables, inside the out pass.
                searches = min(searches, 3)
            assert _searches(engine, run) == searches, (expansion, direction)


def test_every_warm_expansion_costs_the_same():
    engine, _crowd, loner = _engine(20)
    expand = lambda: list(engine.neighbors_many([loner], Direction.OUT, None))
    counts = [python_calls(expand) for _ in range(100)]
    assert counts[0] > counts[1]  # the first one prepares the plan
    assert len(set(counts[1:])) == 1


def test_expansion_calls_do_not_grow_with_rows_in_the_probed_tables():
    sparse = _warm_calls("neighbors_many", 10, Direction.BOTH)
    # 300 rows over 100 distinct endpoints: the endpoint indexes split.
    crowded = _warm_calls("neighbors_many", 10, Direction.BOTH, crowd_size=100, rows_per_table=300)
    assert sparse == crowded


def test_a_new_edge_label_prepares_the_plan_again_and_costs_a_stranger_nothing():
    engine, crowd, loner = _engine(10)
    expand = lambda: list(engine.neighbors_many([loner], Direction.OUT, None))
    expand()
    before = python_calls(expand)
    engine.add_edge(crowd[0], crowd[1], "brand-new")
    assert python_calls(expand) > before  # the plan is prepared again
    assert python_calls(expand) == before
    # ...and the new table is probed for a vertex it holds.
    assert len(list(engine.neighbors_many([crowd[0]], Direction.OUT, None))) == 11


def test_a_warm_expansion_resolves_no_catalog_and_resumes_no_generator_per_table():
    profiles = {}
    for tables in (10, 100):
        engine, _crowd, loner = _engine(tables)
        expand = lambda: list(engine.neighbors_many([loner], Direction.BOTH, None))
        expand()
        profiles[tables] = python_call_profile(expand)
    by_name: Counter[str] = Counter()
    for code, calls in profiles[100].items():
        by_name[code.co_name] += calls
    assert not {"table_names", "_edge_tables", "has_index", "_find_leaf", "holders"} & set(by_name)
    assert by_name["index_key"] == 1  # the probe key: rendered per vertex, not per table

    def generator_resumes(profile) -> int:
        return sum(n for code, n in profile.items() if code.co_flags & inspect.CO_GENERATOR)

    assert generator_resumes(profiles[10]) == generator_resumes(profiles[100])


def _triple_hub(degree: int):
    """A triple-store hub with ``degree`` out-edges to fresh vertices."""
    engine = create_engine("triplegraph-2.1")
    hub = engine.add_vertex(label="person")
    for _ in range(degree):
        engine.add_edge(hub, engine.add_vertex(label="person"), "knows")
    return engine, hub


#: Per triple expansion: the call events one more edge costs, and the
#: ``_find_leaf`` descents among them.  A per-pattern ``match`` composition
#: pays 10, 18 and 5 events: a generator resume per layer of nested
#: streams, a stream per label check and a frame per endpoint key.  The
#: walk pays one walk resume and one POS run resume per edge, plus a
#: ``scan_prefixes`` frame for both endpoints (its descents inlined), plus a
#: lazy scan with its one descent frame for a label check.
_TRIPLE_BUDGETS = {
    "neighbours": (lambda engine, hub: engine.neighbors_many([hub], Direction.BOTH, None), 4, 0),
    "labelled-neighbours": (
        lambda engine, hub: engine.neighbors_many([hub], Direction.BOTH, "knows"),
        7,
        1,
    ),
    "edge-ids": (lambda engine, hub: engine.edges_for_many([hub], Direction.BOTH, None), 2, 0),
}


@pytest.mark.parametrize("expansion", _TRIPLE_BUDGETS)
def test_a_warm_triple_expansion_makes_a_fixed_number_of_calls_per_edge(expansion):
    walk, budget, descents = _TRIPLE_BUDGETS[expansion]
    degrees = (10, 20, 40)
    profiles = []
    for degree in degrees:
        engine, hub = _triple_hub(degree)
        expand = lambda: list(walk(engine, hub))
        assert len(expand()) == degree
        profiles.append(python_call_profile(expand))

    def per_edge(counts: list[int]) -> int:
        low, mid, high = counts
        step, remainder = divmod(high - mid, degrees[2] - degrees[1])
        assert remainder == 0 and mid - low == step * (degrees[1] - degrees[0]), counts
        return step

    assert per_edge([sum(profile.values()) for profile in profiles]) <= budget
    # Both endpoint statements of an edge resolve in one scan_prefixes frame
    # with its descents inlined: no _find_leaf frame per edge beyond the
    # label check's.
    find_leaf = [
        sum(n for code, n in profile.items() if code.co_name == "_find_leaf")
        for profile in profiles
    ]
    assert per_edge(find_leaf) == descents
