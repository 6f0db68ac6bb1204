"""Engine-specific behaviours: the architectural traits the paper calls out."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.engines import (
    BitmapEngine,
    ColumnarEngine,
    ColumnarV1Engine,
    DocumentEngine,
    NativeIndirectEngine,
    NativeLinkedEngine,
    NativeLinkedV3Engine,
    RelationalEngine,
    TripleEngine,
    available_engines,
    create_engine,
    engine_info,
)
from repro.exceptions import (
    BenchmarkError,
    MemoryBudgetExceededError,
    SchemaError,
    UnsupportedOperationError,
)
from repro.model.elements import Direction


def _chain(engine, length=5, label="knows"):
    ids = [engine.add_vertex({"rank": index}) for index in range(length)]
    for left, right in zip(ids, ids[1:]):
        engine.add_edge(left, right, label)
    return ids


class TestRegistry:
    def test_all_engines_creatable(self):
        for identifier in available_engines():
            engine = create_engine(identifier)
            assert engine.vertex_count() == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(BenchmarkError):
            create_engine("no-such-engine")

    def test_engine_info_rows(self):
        for identifier in available_engines():
            row = engine_info(identifier).as_row()
            assert row["System"] and row["Type"]

    def test_override_configuration(self):
        engine = create_engine("nativelinked-1.9", memory_budget=123)
        assert engine.config.memory_budget == 123


class TestNativeLinkedVersions:
    def test_v3_wrapper_adds_probes_on_cud(self):
        old = NativeLinkedEngine()
        new = NativeLinkedV3Engine()
        for engine in (old, new):
            engine.add_vertex({"a": 1})
        assert new.metrics.index_probes > old.metrics.index_probes

    def test_v3_label_filtered_traversal_uses_typed_chains(self):
        engine = NativeLinkedV3Engine()
        hub = engine.add_vertex()
        red = engine.add_vertex()
        blue = engine.add_vertex()
        engine.add_edge(hub, red, "red")
        engine.add_edge(hub, blue, "blue")
        assert set(engine.neighbors(hub, Direction.OUT, "red")) == {red}
        assert set(engine.neighbors(hub, Direction.OUT)) == {red, blue}

    def test_v3_remove_edge_updates_typed_chains(self):
        engine = NativeLinkedV3Engine()
        a, b = engine.add_vertex(), engine.add_vertex()
        edge_id = engine.add_edge(a, b, "knows")
        engine.remove_edge(edge_id)
        assert list(engine.out_edges(a, "knows")) == []

    def test_chain_order_is_lifo_in_old_version(self):
        engine = NativeLinkedEngine()
        hub = engine.add_vertex()
        others = [engine.add_vertex() for _ in range(3)]
        for other in others:
            engine.add_edge(hub, other, "knows")
        # Fixed-size records prepend to the chain, so the newest edge is first.
        assert list(engine.neighbors(hub, Direction.OUT)) == list(reversed(others))


class TestNativeIndirect:
    def test_space_grows_with_label_count(self):
        few = NativeIndirectEngine()
        many = NativeIndirectEngine()
        for engine, labels in ((few, 1), (many, 20)):
            ids = [engine.add_vertex() for _ in range(21)]
            for index in range(20):
                engine.add_edge(ids[index], ids[index + 1], f"label-{index % labels}")
        assert many.space_breakdown()["edgeclusters"] > few.space_breakdown()["edgeclusters"]

    def test_indirection_probe_per_access(self):
        engine = NativeIndirectEngine()
        vertex_id = engine.add_vertex()
        before = engine.metrics.index_probes
        engine.vertex(vertex_id)
        assert engine.metrics.index_probes > before


class TestBitmapEngine:
    def test_counts_use_bitmaps(self):
        engine = BitmapEngine()
        _chain(engine, 6)
        engine.reset_metrics()
        assert engine.vertex_count() == 6
        assert engine.edge_count() == 5
        # Counting is a population count, not a scan of records.
        assert engine.metrics.records_read == 0

    def test_degree_filter_exhausts_small_memory_budget(self):
        engine = BitmapEngine(EngineConfig(memory_budget=200))
        ids = _chain(engine, 40)
        engine.reset_metrics()
        with pytest.raises(MemoryBudgetExceededError):
            for vertex_id in ids:
                engine.degree(vertex_id, Direction.BOTH)

    def test_attribute_index_is_noop_but_supported(self):
        engine = BitmapEngine()
        engine.create_vertex_index("name")
        assert engine.has_vertex_index("name")
        vertex_id = engine.add_vertex({"name": "alice"})
        assert list(engine.vertices_by_property("name", "alice")) == [vertex_id]


class TestDocumentEngine:
    def test_round_trips_charged(self):
        engine = DocumentEngine()
        engine.add_vertex({"a": 1})
        assert engine.metrics.network_round_trips >= 1

    def test_async_durability_by_default(self):
        engine = DocumentEngine()
        engine.add_vertex()
        assert engine.wal.pending > 0
        engine.flush()
        assert engine.wal.pending == 0

    def test_edge_scan_materialises_documents(self):
        engine = DocumentEngine()
        _chain(engine, 5)
        engine.reset_metrics()
        engine.edge_count()
        assert engine.metrics.records_read >= 4

    def test_string_identifiers(self):
        engine = DocumentEngine()
        vertex_id = engine.add_vertex()
        assert isinstance(vertex_id, str) and vertex_id.startswith("v/")


class TestTripleEngine:
    def test_no_user_indexes(self):
        engine = TripleEngine()
        assert not engine.supports_vertex_index
        with pytest.raises(UnsupportedOperationError):
            engine.create_vertex_index("name")

    def test_edge_reification_costs_multiple_statements(self):
        engine = TripleEngine()
        a = engine.add_vertex()
        b = engine.add_vertex()
        statements_before = len(engine._triples)
        engine.add_edge(a, b, "knows", {"since": 2010})
        assert len(engine._triples) - statements_before >= 5

    def test_bulk_load_matches_item_by_item_writes(self, small_dataset):
        loaded = TripleEngine()
        loaded.load(small_dataset.vertices, small_dataset.edges)
        assert loaded.vertex_count() == small_dataset.vertex_count
        written = TripleEngine()
        ids = {v["id"]: written.add_vertex(v.get("properties", {}), v.get("label"))
               for v in small_dataset.vertices}
        for edge in small_dataset.edges:
            written.add_edge(ids[edge["source"]], ids[edge["target"]], edge["label"],
                             edge.get("properties", {}))
        assert len(loaded._triples) == len(written._triples)
        assert loaded.edge_count() == written.edge_count()

    def test_space_includes_journal_preallocation(self):
        engine = TripleEngine()
        engine.add_vertex()
        assert engine.size_in_bytes > 1024 * 1024


class TestColumnarEngine:
    def test_tombstone_delete_keeps_row_space(self):
        engine = ColumnarEngine()
        a, b = engine.add_vertex(), engine.add_vertex()
        edge_id = engine.add_edge(a, b, "knows")
        before = engine.space_breakdown()["adjacency-rows"]
        engine.remove_edge(edge_id)
        assert not engine.edge_exists(edge_id)
        assert engine.space_breakdown()["adjacency-rows"] <= before

    def test_v1_skips_consistency_reread(self):
        old, new = ColumnarEngine(), ColumnarV1Engine()
        for engine in (old, new):
            a, b = engine.add_vertex(), engine.add_vertex()
            engine.add_edge(a, b, "knows")
        assert new.metrics.records_read < old.metrics.records_read

    def test_row_key_index_consulted_per_hop(self):
        engine = ColumnarEngine()
        ids = _chain(engine, 4)
        engine.reset_metrics()
        list(engine.neighbors(ids[0], Direction.OUT))
        assert engine.metrics.index_probes >= 1

    def test_edge_id_survives_property_updates(self):
        engine = ColumnarEngine()
        a, b = engine.add_vertex(), engine.add_vertex()
        edge_id = engine.add_edge(a, b, "knows")
        engine.set_edge_property(edge_id, "w", 1)
        assert engine.edge(edge_id).properties["w"] == 1


class TestRelationalEngine:
    def test_one_table_per_label(self):
        engine = RelationalEngine()
        engine.add_vertex(label="person")
        engine.add_vertex(label="city")
        a = engine.add_vertex(label="person")
        b = engine.add_vertex(label="city")
        engine.add_edge(a, b, "livesIn")
        names = engine.database.table_names()
        assert "V_person" in names and "V_city" in names and "E_livesIn" in names

    def test_new_property_key_alters_table(self):
        engine = RelationalEngine()
        vertex_id = engine.add_vertex({"name": "a"}, label="person")
        engine.set_vertex_property(vertex_id, "brand_new_key", 1)
        assert engine.database.table("V_person").schema.has_column("brand_new_key")

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_label_length_limit(self, kind):
        engine = RelationalEngine()
        a = engine.add_vertex({"name": "a"}, label="person")
        b = engine.add_vertex({"name": "b"})
        engine.add_edge(a, b, "knows", {"w": 1})

        def counters():
            return (
                engine.database.table_names(), engine.io_cost(),
                engine.combined_metrics().snapshot(), len(engine.wal),
            )

        def digest():  # reads charge, so taken outside the counted window
            vertices = [(repr(v.id), v.label, sorted(v.properties.items()))
                        for v in engine.vertices()]
            edges = [(repr(e.id), e.label, repr(e.source), repr(e.target)) for e in engine.edges()]
            return sorted(vertices), sorted(edges)

        contents = digest()
        before = counters()
        with pytest.raises(SchemaError):
            if kind == "vertex":
                engine.add_vertex({"name": "c"}, label="x" * 100)
            else:
                engine.add_edge(a, b, "y" * 100)
        assert counters() == before
        assert digest() == contents
        # A label at the limit is stored; None is the default vertex table.
        engine.add_vertex(label="x" * 63)
        engine.add_vertex(label=None)

    def test_endpoint_indexes_created(self):
        engine = RelationalEngine()
        a, b = engine.add_vertex(), engine.add_vertex()
        engine.add_edge(a, b, "knows")
        table = engine.database.table("E_knows")
        assert table.has_index("source") and table.has_index("target")

    def test_unfiltered_traversal_unions_all_edge_tables(self):
        engine = RelationalEngine()
        a, b, c = (engine.add_vertex() for _ in range(3))
        engine.add_edge(a, b, "l1")
        engine.add_edge(a, c, "l2")
        assert set(engine.neighbors(a, Direction.OUT)) == {b, c}

    def test_vertex_index_applies_to_label_tables(self):
        engine = RelationalEngine(EngineConfig(auto_index_properties=("name",)))
        engine.add_vertex({"name": "alice"}, label="person")
        assert engine.database.table("V_person").has_index("name")


class TestAttributeIndexes:
    @pytest.mark.parametrize(
        "engine_id",
        [e for e in available_engines() if e not in ("triplegraph-2.1",)],
    )
    def test_index_accelerated_lookup_is_correct(self, engine_id):
        engine = create_engine(engine_id)
        ids = [engine.add_vertex({"name": f"node-{index}"}) for index in range(10)]
        engine.create_vertex_index("name")
        assert engine.has_vertex_index("name")
        assert list(engine.vertices_by_property("name", "node-4")) == [ids[4]]

    @pytest.mark.parametrize(
        "engine_id",
        [e for e in available_engines() if e not in ("triplegraph-2.1",)],
    )
    def test_index_built_before_data_stays_consistent(self, engine_id):
        engine = create_engine(engine_id, config=EngineConfig(auto_index_properties=("name",)))
        vertex_id = engine.add_vertex({"name": "early"})
        engine.set_vertex_property(vertex_id, "name", "late")
        assert list(engine.vertices_by_property("name", "late")) == [vertex_id]
        assert list(engine.vertices_by_property("name", "early")) == []

    @pytest.mark.parametrize(
        "engine_id",
        [e for e in available_engines() if e not in ("triplegraph-2.1",)],
    )
    def test_removed_vertex_leaves_no_index_entry(self, engine_id):
        # Native engines reuse the freed id: a stale entry would name the
        # new vertex, whose name is not the one looked up.
        engine = create_engine(engine_id)
        engine.create_vertex_index("name")
        gone = engine.add_vertex({"name": "a"})
        engine.remove_vertex(gone)
        kept = engine.add_vertex({"name": "c"})
        for graph in (engine, engine.begin_session().graph):
            assert list(graph.vertices_by_property("name", "a")) == []
            assert list(graph.vertices_by_property("name", "c")) == [kept]
