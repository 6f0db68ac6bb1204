"""Vectorized frontier kernels vs the scalar reference: results and charges.

The vectorized kernels (``repro.kernels``) are pure interpreter
optimisations — numpy decodes bitmaps and gathers endpoints, but every
simulated charge and every yield order must be *byte-identical* to the
scalar loop.  These tests A/B the two paths directly on the engines that
carry vectorized kernels (bitmap and both columnar versions) and on the
machine's bulk-merge step, on graphs large enough to cross the vectorized
cutoffs.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.bench.workload import load_dataset_into
from repro.engines import bitmap_engine, create_engine
from repro.gremlin.traversal import Traverser
from repro.index.generators import generate_shape
from repro.model.elements import Direction

requires_numpy = pytest.mark.skipif(
    not kernels.NUMPY_AVAILABLE, reason="numpy unavailable; vectorized path cannot run"
)

#: Engines with dedicated vectorized frontier kernels.
VECTOR_ENGINES = ("bitmapgraph-5.1", "columnargraph-0.5", "columnargraph-1.0")
DIRECTIONS = (Direction.OUT, Direction.IN, Direction.BOTH)
#: Each per-id adjacency method, as ``call(engine, vertex, label)``.
PER_ID_CALLS = {
    "out_edges": lambda engine, vertex, label: engine.out_edges(vertex, label),
    "in_edges": lambda engine, vertex, label: engine.in_edges(vertex, label),
    **{
        f"{name}({direction.name})": (
            lambda engine, vertex, label, name=name, direction=direction:
            getattr(engine, name)(vertex, direction, label)
        )
        for name in ("edges_for", "neighbors")
        for direction in DIRECTIONS
    },
}


@pytest.fixture(scope="module")
def big_dataset():
    """Enough vertices that frontier expansion spans many incidence rows."""
    return generate_shape("dag", 300, seed=13)


@pytest.fixture(autouse=True)
def force_vector_gate(monkeypatch):
    """Drop the bitmap profitability gate so every row takes the numpy path.

    The gate is a pure performance heuristic (sparse bitmaps decode faster
    with scalar bit isolation); parity must hold wherever the cut lands, so
    the tests pin the vectorized branch itself rather than the heuristic.
    """
    monkeypatch.setattr(bitmap_engine, "_VECTOR_MIN_BITS", 1)
    monkeypatch.setattr(bitmap_engine, "_VECTOR_MAX_BYTES_PER_BIT", 1 << 40)


def _ab(identifier, dataset, run):
    """Run ``run(engine, frontier)`` under both kernels; return both sides."""
    outputs = []
    for mode in (kernels.scalar_kernels, kernels.vectorized_kernels):
        loaded = load_dataset_into(create_engine(identifier), dataset)
        frontier = list(loaded.vertex_map.values())
        loaded.engine.reset_metrics()
        with mode():
            result = run(loaded.engine, frontier)
        outputs.append((result, loaded.engine.combined_metrics().snapshot()))
    return outputs


@requires_numpy
class TestFrontierKernelParity:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "link", "missing-label"])
    @pytest.mark.parametrize("identifier", VECTOR_ENGINES)
    def test_neighbors_many_results_and_charges(self, identifier, big_dataset, direction, label):
        (scalar, scalar_charges), (vectorized, vectorized_charges) = _ab(
            identifier,
            big_dataset,
            lambda engine, frontier: list(engine.neighbors_many(frontier, direction, label)),
        )
        assert vectorized == scalar  # same pairs, same order
        assert vectorized_charges == scalar_charges

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("identifier", VECTOR_ENGINES)
    def test_edges_for_many_results_and_charges(self, identifier, big_dataset, direction):
        (scalar, scalar_charges), (vectorized, vectorized_charges) = _ab(
            identifier,
            big_dataset,
            lambda engine, frontier: list(engine.edges_for_many(frontier, direction, None)),
        )
        assert vectorized == scalar
        assert vectorized_charges == scalar_charges

    @pytest.mark.parametrize("call", sorted(PER_ID_CALLS))
    @pytest.mark.parametrize("label", [None, "link"])
    @pytest.mark.parametrize("identifier", VECTOR_ENGINES)
    def test_per_id_methods_results_and_charges(self, identifier, big_dataset, label, call):
        """The per-id methods are one-vertex frontiers of the same walk, so
        they reach the kernels too: drained and abandoned streams alike."""
        expand = PER_ID_CALLS[call]

        def one_vertex_at_a_time(engine, frontier):
            drained = [list(expand(engine, vertex, label)) for vertex in frontier]
            stream = expand(engine, frontier[0], label)
            first = next(stream, None)
            stream.close()
            return drained, first

        (scalar, scalar_charges), (vectorized, vectorized_charges) = _ab(
            identifier, big_dataset, one_vertex_at_a_time
        )
        assert vectorized == scalar
        assert vectorized_charges == scalar_charges

    @pytest.mark.parametrize("identifier", VECTOR_ENGINES)
    def test_lazy_charging_survives_vectorization(self, identifier, big_dataset):
        """Abandoning the stream early must not overcharge (per-pair accrual)."""

        def early_abandon(engine, frontier):
            stream = engine.neighbors_many(frontier, Direction.BOTH)
            first = next(stream)
            stream.close()
            return first

        (scalar, scalar_charges), (vectorized, vectorized_charges) = _ab(
            identifier, big_dataset, early_abandon
        )
        assert vectorized == scalar
        assert vectorized_charges == scalar_charges

    @pytest.mark.parametrize("identifier", VECTOR_ENGINES)
    def test_mutation_between_calls_is_visible(self, identifier, big_dataset):
        """Cached columns/arrays must be invalidated by structural writes."""
        loaded = load_dataset_into(create_engine(identifier), big_dataset)
        engine = loaded.engine
        ids = list(loaded.vertex_map.values())
        with kernels.vectorized_kernels():
            before = list(engine.neighbors_many([ids[0]], Direction.OUT))
            edge = engine.add_edge(ids[0], ids[-1], "link")
            after = list(engine.neighbors_many([ids[0]], Direction.OUT))
            assert len(after) == len(before) + 1
            engine.remove_edge(edge)
            assert list(engine.neighbors_many([ids[0]], Direction.OUT)) == before


class TestKernelSwitch:
    def test_scalar_context_disables(self):
        with kernels.scalar_kernels():
            assert not kernels.vectorized_enabled()

    @requires_numpy
    def test_vectorized_context_enables_and_restores(self):
        with kernels.scalar_kernels():
            with kernels.vectorized_kernels():
                assert kernels.vectorized_enabled()
            assert not kernels.vectorized_enabled()

    def test_environment_variable_forces_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        assert not kernels.vectorized_enabled()

    def test_default_follows_numpy_availability(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALAR_KERNELS", raising=False)
        assert kernels.vectorized_enabled() is kernels.NUMPY_AVAILABLE


@requires_numpy
class TestBulkMergeKernelParity:
    def _traverser(self, obj, kind="vertex", loops=0, bulk=1):
        return Traverser(obj=obj, kind=kind, path=None, loops=loops, bulk=bulk)

    def _merge(self, traversers, capacity=1024):
        from repro.gremlin.steps import BulkMergeStep

        return list(BulkMergeStep(capacity=capacity).apply(iter(traversers), ctx=None))

    def test_duplicates_merge_in_first_occurrence_order(self):
        walkers = [self._traverser(obj) for obj in (5, 3, 5, 9, 3, 5)]
        with kernels.scalar_kernels():
            scalar = self._merge(walkers)
        with kernels.vectorized_kernels():
            vectorized = self._merge(walkers)
        assert [(t.obj, t.bulk) for t in vectorized] == [(5, 3), (3, 2), (9, 1)]
        assert [(t.obj, t.bulk) for t in scalar] == [(t.obj, t.bulk) for t in vectorized]

    def test_mixed_kind_chunks_fall_back_to_scalar_merge(self):
        walkers = [
            self._traverser("v1", kind="vertex"),
            self._traverser("v1", kind="edge"),
            self._traverser("v1", kind="vertex"),
        ]
        with kernels.vectorized_kernels():
            merged = self._merge(walkers)
        assert [(t.obj, t.kind, t.bulk) for t in merged] == [
            ("v1", "vertex", 2),
            ("v1", "edge", 1),
        ]

    def test_capacity_flush_timing_matches_scalar(self):
        walkers = [self._traverser(obj % 4, bulk=2) for obj in range(25)]
        with kernels.scalar_kernels():
            scalar = self._merge(list(walkers), capacity=8)
        with kernels.vectorized_kernels():
            vectorized = self._merge(list(walkers), capacity=8)
        assert [(t.obj, t.bulk) for t in vectorized] == [(t.obj, t.bulk) for t in scalar]

    def test_huge_ints_fall_back_without_corruption(self):
        huge = 2**80
        walkers = [self._traverser(huge), self._traverser(1), self._traverser(huge)]
        with kernels.vectorized_kernels():
            merged = self._merge(walkers)
        assert [(t.obj, t.bulk) for t in merged] == [(huge, 2), (1, 1)]

    @pytest.mark.parametrize("identifier", VECTOR_ENGINES)
    def test_bulked_query_parity_end_to_end(self, identifier, big_dataset):
        """A bulk-heavy traversal answers identically under both kernels."""
        results = []
        for mode in (kernels.scalar_kernels, kernels.vectorized_kernels):
            loaded = load_dataset_into(create_engine(identifier), big_dataset)
            root = loaded.vertex_map["r0"]
            loaded.engine.reset_metrics()
            with mode():
                count = loaded.engine.traversal().V(root).out().out().out().count()
            results.append((count, loaded.engine.combined_metrics().snapshot()))
        assert results[0] == results[1]
