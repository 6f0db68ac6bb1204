"""The ``subgraph_for`` / ``export_partition`` bulk-extraction contract.

``subgraph_for`` hands back, per member vertex, the row its per-id reads
give and the rows of its out-edges in ``out_edges`` order (whether an
engine override books and answers like the default is the override
audit's question, ``tests/engines/test_overrides.py``), and
``export_partition`` must cover every vertex and edge exactly once with cut
edges split out correctly.
"""

from __future__ import annotations

import pytest

from repro.bench.workload import load_dataset_into
from repro.engines import ALL_ENGINES, create_engine
from repro.partition import partition_dataset


class TestSubgraphParity:
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_rows_are_the_per_id_reads_in_out_edge_order(self, identifier, small_dataset):
        engine = load_dataset_into(create_engine(identifier), small_dataset).engine
        members = list(engine.vertex_ids())[::2]
        expected_vertices, expected_edges = [], []
        for vertex_id in members:
            vertex = engine.vertex(vertex_id)
            expected_vertices.append(
                {"id": vertex_id, "label": vertex.label, "properties": vertex.properties}
            )
            for edge_id in engine.out_edges(vertex_id):
                edge = engine.edge(edge_id)
                expected_edges.append(
                    {"id": edge_id, "source": edge.source, "target": edge.target,
                     "label": edge.label, "properties": edge.properties}
                )
        assert engine.subgraph_for(members) == (expected_vertices, expected_edges)

    def test_rows_are_loadable_into_a_fresh_engine(self, loaded, small_dataset):
        engine = loaded.engine
        vertices, edges = engine.subgraph_for(list(loaded.vertex_map.values()))
        assert len(vertices) == small_dataset.vertex_count
        assert len(edges) == small_dataset.edge_count
        twin = create_engine("nativelinked-1.9")
        id_map = twin.load(vertices, edges)
        assert twin.vertex_count() == small_dataset.vertex_count
        assert twin.edge_count() == small_dataset.edge_count
        assert set(id_map) == {row["id"] for row in vertices}

    def test_subgraph_preserves_labels_and_properties(self, loaded, small_dataset):
        engine = loaded.engine
        vertices, edges = engine.subgraph_for(list(loaded.vertex_map.values()))
        by_external = {
            internal: external for external, internal in loaded.vertex_map.items()
        }
        source_rows = {vertex["id"]: vertex for vertex in small_dataset.vertices}
        for row in vertices:
            original = source_rows[by_external[row["id"]]]
            assert row["label"] == original.get("label")
            assert row["properties"] == (original.get("properties") or {})
        weights = sorted(
            row["properties"].get("weight", 0) for row in edges if row["properties"]
        )
        expected_weights = sorted(
            edge["properties"].get("weight", 0)
            for edge in small_dataset.edges
            if edge.get("properties")
        )
        assert weights == expected_weights


class TestExportPartition:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_every_vertex_and_edge_exported_exactly_once(
        self, loaded, small_dataset, shards
    ):
        engine = loaded.engine
        plan = partition_dataset(small_dataset, shards, "hash")
        assignment = {
            loaded.vertex_map[external]: shard
            for external, shard in plan.assignment.items()
        }
        payloads = engine.export_partition(assignment, shards)
        assert len(payloads) == shards
        exported_vertices = [
            row["id"] for payload in payloads for row in payload["vertices"]
        ]
        assert sorted(map(repr, exported_vertices)) == sorted(
            map(repr, assignment)
        )
        intra = sum(len(payload["edges"]) for payload in payloads)
        cut = sum(len(payload["cut_edges"]) for payload in payloads)
        assert intra + cut == small_dataset.edge_count
        assert cut == plan.cut_edges

    def test_cut_edges_are_annotated_with_the_foreign_shard(self, loaded, small_dataset):
        engine = loaded.engine
        plan = partition_dataset(small_dataset, 3, "hash")
        assignment = {
            loaded.vertex_map[external]: shard
            for external, shard in plan.assignment.items()
        }
        payloads = engine.export_partition(assignment, 3)
        for shard, payload in enumerate(payloads):
            for row in payload["vertices"]:
                assert assignment[row["id"]] == shard
            for row in payload["edges"]:
                assert assignment[row["source"]] == shard
                assert assignment[row["target"]] == shard
            for row in payload["cut_edges"]:
                assert assignment[row["source"]] == shard
                assert row["target_shard"] == assignment[row["target"]]
                assert row["target_shard"] != shard
