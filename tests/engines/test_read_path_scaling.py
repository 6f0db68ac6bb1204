"""Host work on the read path is proportional to booked work — no wall clock.

The read-side twin of ``tests/storage/test_write_path_scaling.py``.  An
unlabelled relational expansion books one index descent per edge table per
direction (the union over every edge table is the architecture's modelled
weak spot), so that is what the interpreter may do per table: the probe and
the descent, two frames.  Resolving the catalog — sorting and filtering
table names, looking tables and indexes up — books nothing and is therefore
done once per catalog version, not once per expansion.

Counts are ``sys.setprofile`` call events of the package's own functions,
compared between runs of the same code: red means per-table bookkeeping
crept back into the probe loop.
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


def _slope(expansion: str, direction: Direction) -> int:
    """Calls per edge table of a warm expansion; asserts they grow linearly."""
    low, mid, high = (_warm_calls(expansion, tables, direction) for tables in _TABLES)
    slope, remainder = divmod(high - mid, _TABLES[2] - _TABLES[1])
    assert remainder == 0 and mid - low == slope * (_TABLES[1] - _TABLES[0]), (low, mid, high)
    return slope


@pytest.mark.parametrize("expansion", _EXPANSIONS)
def test_a_warm_expansion_makes_two_calls_per_booked_descent(expansion):
    out, both = _slope(expansion, Direction.OUT), _slope(expansion, Direction.BOTH)
    assert 0 < out <= 2
    assert both == 2 * out


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


def test_a_new_edge_label_costs_exactly_one_more_table():
    engine, crowd, loner = _engine(10)
    expand = lambda: list(engine.neighbors_many([loner], Direction.OUT, None))
    expand()
    before = python_calls(expand)
    engine.add_edge(crowd[0], crowd[1], "brand-new")
    one_table = _slope("neighbors_many", Direction.OUT)
    assert python_calls(expand) > before + one_table  # the plan is prepared again
    assert python_calls(expand) == before + one_table
    # ...and the new table is probed, not only counted.
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
    assert not {"table_names", "_edge_tables", "has_index", "_find_leaf"} & set(by_name)
    assert by_name["index_key"] == 1  # the probe key: rendered per vertex, not per table

    def generator_resumes(profile) -> int:
        return sum(n for code, n in profile.items() if code.co_flags & inspect.CO_GENERATOR)

    assert generator_resumes(profiles[10]) == generator_resumes(profiles[100])
