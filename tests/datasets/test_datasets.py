"""Dataset generators, Table 3 statistics, and GraphSON round trips."""

from __future__ import annotations

import pytest

from repro.datasets import (
    available_datasets,
    compute_statistics,
    frb_o,
    frb_s,
    get_dataset,
    ldbc_social,
    mico,
    yeast,
)
from repro.datasets.base import Dataset
from repro.datasets.statistics import connected_components, estimate_diameter, modularity
from repro.exceptions import DatasetError
from repro.graphson import dumps_graphson, loads_graphson, read_graphson, write_graphson

networkx = pytest.importorskip("networkx")

_SCALE = 0.15


class TestRegistry:
    def test_all_paper_datasets_registered(self):
        names = set(available_datasets())
        assert {"frb-s", "frb-o", "frb-m", "frb-l", "ldbc", "mico", "yeast"} <= names

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            get_dataset("nope")

    @pytest.mark.parametrize("name", ["frb-s", "frb-o", "frb-m", "frb-l", "ldbc", "mico", "yeast"])
    def test_every_dataset_generates_and_validates(self, name):
        dataset = get_dataset(name, scale=_SCALE)
        dataset.validate()
        assert dataset.vertex_count > 0
        assert dataset.edge_count > 0

    @pytest.mark.parametrize("name", ["frb-s", "ldbc", "mico"])
    def test_generation_is_deterministic(self, name):
        first = get_dataset(name, scale=_SCALE, seed=3)
        second = get_dataset(name, scale=_SCALE, seed=3)
        assert first.vertices == second.vertices
        assert first.edges == second.edges

    def test_different_seeds_differ(self):
        assert get_dataset("mico", scale=_SCALE, seed=1).edges != get_dataset(
            "mico", scale=_SCALE, seed=2
        ).edges

    def test_scale_grows_dataset(self):
        small = get_dataset("frb-o", scale=0.1)
        large = get_dataset("frb-o", scale=0.3)
        assert large.vertex_count > small.vertex_count
        assert large.edge_count > small.edge_count


class TestDatasetShapes:
    def test_freebase_samples_keep_published_ratios(self):
        small = frb_s(scale=0.5)
        other = frb_o(scale=0.5)
        # Frb-O has an order of magnitude more edges than Frb-S but far fewer
        # distinct edge labels (Table 3).
        assert other.edge_count > 5 * small.edge_count
        assert len(small.edge_labels()) > len(other.edge_labels())

    def test_freebase_is_fragmented(self):
        dataset = frb_s(scale=0.5)
        stats = compute_statistics(dataset)
        assert stats.component_count > 10

    def test_ldbc_is_single_component_with_edge_properties(self):
        dataset = ldbc_social(scale=0.3)
        stats = compute_statistics(dataset)
        assert stats.component_count == 1
        assert any(edge["properties"] for edge in dataset.edges)

    def test_mico_is_dense_with_hubs(self):
        stats = compute_statistics(mico(scale=0.3))
        assert stats.average_degree > 10
        assert stats.max_degree > 3 * stats.average_degree

    def test_yeast_labels_are_class_pairs(self):
        dataset = yeast(scale=0.2)
        assert all("-" in label for label in dataset.edge_labels())

    def test_only_ldbc_has_edge_properties(self):
        assert not any(edge["properties"] for edge in frb_o(scale=0.2).edges)
        assert any(edge["properties"] for edge in ldbc_social(scale=0.2).edges)


class TestStatisticsAgainstNetworkx:
    @pytest.fixture(scope="class")
    def dataset(self) -> Dataset:
        return get_dataset("frb-o", scale=0.2, seed=9)

    @pytest.fixture(scope="class")
    def nx_graph(self, dataset):
        graph = networkx.Graph()
        graph.add_nodes_from(vertex["id"] for vertex in dataset.vertices)
        graph.add_edges_from(
            (edge["source"], edge["target"]) for edge in dataset.edges if edge["source"] != edge["target"]
        )
        return graph

    def test_component_count_matches(self, dataset, nx_graph):
        from repro.datasets.statistics import _build_adjacency

        ours = connected_components(_build_adjacency(dataset))
        theirs = list(networkx.connected_components(nx_graph))
        assert len(ours) == len(theirs)
        assert max(len(c) for c in ours) == max(len(c) for c in theirs)

    def test_degree_statistics_match(self, dataset, nx_graph):
        stats = compute_statistics(dataset)
        degrees = [degree for _node, degree in nx_graph.degree()]
        assert stats.max_degree == max(degrees)

    def test_diameter_estimate_is_sound(self, dataset, nx_graph):
        from repro.datasets.statistics import _build_adjacency

        largest = max(networkx.connected_components(nx_graph), key=len)
        exact = networkx.diameter(nx_graph.subgraph(largest))
        estimate = estimate_diameter(_build_adjacency(dataset), samples=8)
        assert estimate <= exact
        assert estimate >= exact / 2

    def test_modularity_close_to_networkx(self, dataset, nx_graph):
        from repro.datasets.statistics import _build_adjacency, _vertex_communities

        adjacency = _build_adjacency(dataset)
        communities = _vertex_communities(dataset, adjacency)
        groups: dict = {}
        for vertex, community in communities.items():
            groups.setdefault(community, set()).add(vertex)
        simple_edges = {
            tuple(sorted((edge["source"], edge["target"])))
            for edge in dataset.edges
            if edge["source"] != edge["target"]
        }
        simple_graph = networkx.Graph()
        simple_graph.add_nodes_from(adjacency)
        simple_graph.add_edges_from(simple_edges)
        ours = modularity(
            Dataset(name="simple", vertices=dataset.vertices, edges=[
                {"source": s, "target": t, "label": "e", "properties": {}} for s, t in simple_edges
            ]),
            adjacency,
            communities,
        )
        theirs = networkx.algorithms.community.modularity(simple_graph, groups.values())
        assert ours == pytest.approx(theirs, abs=0.05)

    def test_table3_row_has_all_columns(self, dataset):
        row = compute_statistics(dataset).as_row()
        for column in ("|V|", "|E|", "|L|", "#", "Maxim", "Density", "Modularity", "Avg", "Max", "Delta"):
            assert column in row


class TestGraphson:
    def test_round_trip_preserves_structure(self, small_dataset):
        text = dumps_graphson(small_dataset)
        loaded = loads_graphson(text, name="tiny")
        assert loaded.vertex_count == small_dataset.vertex_count
        assert loaded.edge_count == small_dataset.edge_count
        assert loaded.edge_labels() == small_dataset.edge_labels()

    def test_round_trip_preserves_properties(self, small_dataset):
        loaded = loads_graphson(dumps_graphson(small_dataset))
        by_id = {vertex["id"]: vertex for vertex in loaded.vertices}
        assert by_id["n3"]["properties"]["name"] == "node-3"

    def test_file_round_trip(self, small_dataset, tmp_path):
        path = write_graphson(small_dataset, tmp_path / "tiny.json")
        loaded = read_graphson(path)
        assert loaded.name == "tiny"
        assert loaded.vertex_count == small_dataset.vertex_count

    def test_invalid_json_rejected(self):
        with pytest.raises(DatasetError):
            loads_graphson("{not json")

    def test_missing_sections_rejected(self):
        with pytest.raises(DatasetError):
            loads_graphson('{"vertices": []}')

    def test_dangling_edge_rejected(self):
        text = (
            '{"graph": {"vertices": [{"_id": "a", "_type": "vertex"}],'
            ' "edges": [{"_id": 0, "_outV": "a", "_inV": "missing", "_label": "x"}]}}'
        )
        with pytest.raises(DatasetError):
            loads_graphson(text)

    def test_validate_catches_duplicates(self):
        dataset = Dataset(
            name="dup",
            vertices=[{"id": "a", "properties": {}}, {"id": "a", "properties": {}}],
            edges=[],
        )
        with pytest.raises(DatasetError):
            dataset.validate()
