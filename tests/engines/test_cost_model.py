"""The adjacency walk books what :mod:`cost_model` says, on random graphs.

Each example grows a random graph — the small dataset (or its first
three vertices, small enough that the triple store's trees stay one
level), then a seeded create/update/delete workload from the session
differential harness (vertex removals and their cascades included)
replayed directly on the engine, sometimes with a burst of new edges that
grows an index a level — and walks every live vertex with ``edges_for`` or
``neighbors`` in one direction, with or without a label, on all nine
engines.  The counter delta of each walk must equal the engine's formula.
Four known ways to get a charge wrong must fail it.

The run length comes from the hypothesis profile loaded in
``tests/conftest.py`` (``HYPOTHESIS_PROFILE=ci`` digs deeper).
"""

from __future__ import annotations

import random
from typing import Any

import cost_model
import pytest
from concurrency.test_differential import Runner, generate_workload
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.workload import load_dataset_into
from repro.datasets.base import Dataset
from repro.engines import create_engine
from repro.engines.native_linked import NativeLinkedEngine
from repro.engines.relational_engine import RelationalEngine
from repro.model.elements import Direction
from repro.storage.btree import BPlusTree
from repro.storage.document_store import DocumentCollection

LABELS = (None, "knows", "visits", "never-seen")
#: New vertices in a burst: past a B+Tree leaf's order of distinct keys.
BURST = 65


def mismatches(
    identifier: str, dataset: Any, seed: int, direction: Direction, label: str | None,
    endpoints: bool, burst: bool = False, tiny: bool = False,
) -> list[tuple[Any, dict[str, int], dict[str, int]]]:
    """``(vertex, booked, formula)`` for every live vertex whose walk booked
    other than its formula, on the graph grown from ``seed``.

    ``tiny`` keeps the dataset's first three vertices and the edges among
    them.  A ``burst`` then hangs ``BURST`` new vertices off the graph,
    each with one edge of one label into it, which grows that label's
    relational source index a level.
    """
    if tiny:
        kept = {vertex["id"] for vertex in dataset.vertices[:3]}
        dataset = Dataset(
            name=f"{dataset.name}-tiny",
            vertices=dataset.vertices[:3],
            edges=[e for e in dataset.edges if e["source"] in kept and e["target"] in kept],
            description="the first three vertices",
        )
    loaded = load_dataset_into(create_engine(identifier), dataset)
    engine = loaded.engine
    workload = generate_workload(
        dataset, seed=seed, txns=4, ops_per_txn=6, allow_remove_vertex=True,
        reads_first=False, allow_property_search=False,
    )
    Runner(engine, loaded, use_sessions=False).run(workload)
    if burst:
        rng = random.Random(seed)
        label_of_burst = rng.choice(LABELS[1:3])
        anchors = list(engine.vertex_ids()) or [engine.add_vertex({}, "person")]
        for _ in range(BURST):
            engine.add_edge(engine.add_vertex({}, "person"), rng.choice(anchors), label_of_burst)
    edges = [(edge.source, edge.target, edge.label) for edge in engine.edges()]
    walk = engine.neighbors if endpoints else engine.edges_for
    formula = cost_model.FORMULAS[identifier]
    wrong = []
    for vertex in list(engine.vertex_ids()):
        expected = formula(cost_model.observe(engine, edges, vertex, direction, label), endpoints)
        before = engine.combined_metrics().snapshot()
        for _result in walk(vertex, direction, label):
            pass
        after = engine.combined_metrics().snapshot()
        booked = {name: after[name] - before[name] for name in cost_model.COUNTERS}
        if booked != expected:
            wrong.append((vertex, booked, expected))
    return wrong


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    identifier=st.sampled_from(sorted(cost_model.FORMULAS)),
    seed=st.integers(0, 2**16),
    direction=st.sampled_from(Direction),
    label=st.sampled_from(LABELS),
    endpoints=st.booleans(),
    burst=st.booleans(),
    tiny=st.booleans(),
)
def test_every_walk_books_its_formula(
    small_dataset, identifier, seed, direction, label, endpoints, burst, tiny
):
    assert mismatches(
        identifier, small_dataset, seed, direction, label, endpoints, burst, tiny
    ) == []


def _found_by_the_model(identifier: str, dataset: Any, endpoints: bool) -> bool:
    """Whether a fixed sweep of graphs, directions and labels sees a
    mismatch: the teeth run without hypothesis, so a broken booking fails
    them deterministically."""
    return any(
        mismatches(identifier, dataset, seed, direction, label, endpoints, tiny=tiny)
        for seed, tiny in ((0, False), (1, False), (2, True))
        for direction in Direction
        for label in LABELS
    )


def test_teeth_a_dropped_matched_edge_read_on_native_linked(monkeypatch, small_dataset):
    """The far endpoint of a kept edge is a second relationship-record read."""
    walk = NativeLinkedEngine._bulk_incident

    def unbooked(self, vertex_ids, direction, label, endpoints):
        for pair in walk(self, vertex_ids, direction, label, endpoints):
            if endpoints:
                self.metrics.records_read -= 1
            yield pair

    monkeypatch.setattr(NativeLinkedEngine, "_bulk_incident", unbooked)
    assert _found_by_the_model("nativelinked-1.9", small_dataset, True)


def test_teeth_a_height_prefix_sum_off_by_one_table(monkeypatch, small_dataset):
    """Tables the holder map skips book their heights from the prefix sums."""
    prepare = RelationalEngine._probe_plan

    def shifted(self, label):
        return {
            column: probes._replace(before=[0, *probes.before[:-1]])
            for column, probes in prepare(self, label).items()
        }

    monkeypatch.setattr(RelationalEngine, "_probe_plan", shifted)
    assert _found_by_the_model("relationalgraph-1.2", small_dataset, False)


def test_teeth_a_skipped_document_recharge(monkeypatch, small_dataset):
    """The document walk re-fetches a kept edge's block after the label
    check and inside ``edge_endpoints``: both reads are recharged."""
    monkeypatch.setattr(DocumentCollection, "recharge_read", lambda self, key: None)
    assert _found_by_the_model("documentgraph-2.8", small_dataset, True)


def test_teeth_the_shared_endpoint_descent_booked_once(monkeypatch, small_dataset):
    """The triple walk's two endpoint scans share one SPO descent on the
    host but book two, as two ``match`` streams would."""
    scan = BPlusTree.scan_prefixes

    def shared(self, prefixes):
        runs = scan(self, prefixes)
        self.metrics.index_probes -= self.height * (len(runs) - 1)
        return runs

    monkeypatch.setattr(BPlusTree, "scan_prefixes", shared)
    assert _found_by_the_model("triplegraph-2.1", small_dataset, True)


@pytest.mark.parametrize("identifier", sorted(cost_model.FORMULAS))
def test_the_sweep_is_clean_without_a_fault(identifier, small_dataset):
    """The teeth's sweep passes on the engines as they are."""
    assert not _found_by_the_model(identifier, small_dataset, True)
