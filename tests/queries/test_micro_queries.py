"""The 35 microbenchmark operations: registry, per-engine execution, consistency."""

from __future__ import annotations

import inspect

import pytest

from repro.bench.workload import ParameterPlan
from repro.exceptions import QueryError
from repro.model.elements import Direction
from repro.model.graph import ID_FIELDS, OPS, GraphDatabase
from repro.queries import MICRO_QUERIES, QueryCategory, queries_by_category, query_by_id
from repro.queries.registry import TABLE_2, query_ids

#: The create, update and delete rows of Table 2.
_CUD_IDS = [
    query.id for query in MICRO_QUERIES.values()
    if query.category in (QueryCategory.CREATE, QueryCategory.UPDATE, QueryCategory.DELETE)
]
#: The CUD rows whose result is the id of the element they create.
_CREATING_IDS = ("Q2", "Q3", "Q4", "Q7")


class TestRegistry:
    def test_exactly_35_queries(self):
        assert len(MICRO_QUERIES) == 35
        assert query_ids() == tuple(f"Q{number}" for number in range(1, 36))

    def test_numbers_match_ids(self):
        for query_id, query in MICRO_QUERIES.items():
            assert query_id == f"Q{query.number}"

    def test_category_sizes_match_table2(self):
        assert len(queries_by_category(QueryCategory.LOAD)) == 1
        assert len(queries_by_category(QueryCategory.CREATE)) == 6
        assert len(queries_by_category(QueryCategory.READ)) == 8
        assert len(queries_by_category(QueryCategory.UPDATE)) == 2
        assert len(queries_by_category(QueryCategory.DELETE)) == 4
        assert len(queries_by_category(QueryCategory.TRAVERSAL)) == 14

    def test_every_query_documents_gremlin(self):
        assert all(query.gremlin for query in MICRO_QUERIES.values())
        assert all(query.description for query in MICRO_QUERIES.values())

    def test_mutating_flags(self):
        mutating = {qid for qid, query in MICRO_QUERIES.items() if query.mutates}
        assert mutating == {
            "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7",
            "Q16", "Q17", "Q18", "Q19", "Q20", "Q21",
        }

    def test_unknown_query_rejected(self):
        with pytest.raises(QueryError):
            query_by_id("Q99")

    @pytest.mark.parametrize("query_id", query_ids())
    def test_missing_parameters_rejected(self, loaded, query_id):
        query = query_by_id(query_id)
        params = loaded.bind_params(ParameterPlan(loaded.dataset).params_for(query_id, 1)[0])
        for name in query.parameters:
            before = loaded.engine.io_cost()
            with pytest.raises(QueryError):
                query(loaded.engine, {key: value for key, value in params.items() if key != name})
            assert loaded.engine.io_cost() == before


class _Recorder:
    """Stands in for a graph: records each method call it is asked for."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def record(*args):
            self.calls.append((name, args))
            return "created"

        return record


class TestCatalogue:
    """Table 2 agrees with the generator that binds it and the codec it names."""

    def test_generator_binds_exactly_the_declared_parameters(self, small_dataset):
        plan = ParameterPlan(small_dataset)
        for query_id, query in MICRO_QUERIES.items():
            bound = plan.params_for(query_id, 1)[0]
            assert sorted(bound) == sorted(query.parameters), query_id

    def test_cud_rows_name_codec_ops_in_field_order(self):
        rows = {row[0]: row for row in TABLE_2}
        for query_id in _CUD_IDS:
            *_, parameters, body = rows[query_id]
            if query_id == "Q7":  # a vertex plus its edges: two ops, one body
                assert callable(body)
                continue
            assert body in OPS, query_id
            fields = OPS[body].fields
            assert len(parameters) <= len(fields), query_id
            for parameter, field in zip(parameters, fields):
                if field in ID_FIELDS:  # an id field takes "vertex"/"vertex2" or "edge"
                    assert parameter.rstrip("2") == ID_FIELDS[field].name, query_id
                else:
                    assert parameter == field, query_id

    @pytest.mark.parametrize("query_id", [qid for qid in _CUD_IDS if qid != "Q7"])
    def test_cud_rows_pass_every_field_of_their_op(self, small_dataset, query_id):
        params = ParameterPlan(small_dataset).params_for(query_id, 1)[0]
        graph = _Recorder()
        query_by_id(query_id)(graph, params)
        [(name, args)] = graph.calls
        signature = inspect.signature(getattr(GraphDatabase, name))
        bound = signature.bind(graph, *args)
        bound.apply_defaults()
        assert len(bound.arguments) - 1 == len(OPS[name].fields)
        if "properties" in params:  # one tape feeds every engine: each gets a copy
            assert args[-1] == params["properties"] and args[-1] is not params["properties"]

    @pytest.mark.parametrize("query_id", _CUD_IDS)
    def test_cud_rows_return_the_created_or_written_id(self, loaded, query_id):
        query = query_by_id(query_id)
        params = loaded.bind_params(ParameterPlan(loaded.dataset).params_for(query_id, 1)[0])
        ids = loaded.engine.edge_ids if query_id in ("Q3", "Q4") else loaded.engine.vertex_ids
        before = set(ids())
        result = query(loaded.engine, params)
        if query_id in _CREATING_IDS:
            assert set(ids()) - before == {result}
        else:
            assert result == params[query.parameters[0]]


class TestCreateReadUpdateDelete:
    def test_q1_load(self, engine, small_dataset):
        id_map = query_by_id("Q1")(engine, {"dataset": small_dataset})
        assert len(id_map) == small_dataset.vertex_count
        assert engine.edge_count() == small_dataset.edge_count

    def test_q2_add_vertex(self, loaded):
        before = loaded.engine.vertex_count()
        query_by_id("Q2")(loaded.engine, {"properties": {"name": "new"}})
        assert loaded.engine.vertex_count() == before + 1

    def test_q3_q4_add_edges(self, loaded):
        params = {"vertex": loaded.vertex_map["n0"], "vertex2": loaded.vertex_map["n4"], "label": "knows"}
        edge_id = query_by_id("Q3")(loaded.engine, params)
        assert loaded.engine.edge_label(edge_id) == "knows"
        edge_id = query_by_id("Q4")(loaded.engine, {**params, "properties": {"w": 2}})
        assert loaded.engine.edge_property(edge_id, "w") == 2

    def test_q5_q6_set_properties(self, loaded):
        vertex = loaded.vertex_map["n1"]
        query_by_id("Q5")(loaded.engine, {"vertex": vertex, "key": "new_key", "value": 9})
        assert loaded.engine.vertex_property(vertex, "new_key") == 9
        edge = loaded.edge_map[1]
        query_by_id("Q6")(loaded.engine, {"edge": edge, "key": "new_key", "value": 8})
        assert loaded.engine.edge_property(edge, "new_key") == 8

    def test_q7_vertex_with_edges(self, loaded):
        neighbors = [loaded.vertex_map["n1"], loaded.vertex_map["n2"]]
        vertex_id = query_by_id("Q7")(
            loaded.engine, {"properties": {"name": "hub"}, "neighbors": neighbors, "label": "knows"}
        )
        assert set(loaded.engine.neighbors(vertex_id, Direction.OUT)) == set(neighbors)

    def test_q8_q9_counts(self, loaded):
        assert query_by_id("Q8")(loaded.engine, {}) == loaded.dataset.vertex_count
        assert query_by_id("Q9")(loaded.engine, {}) == loaded.dataset.edge_count

    def test_q10_distinct_labels(self, loaded):
        assert set(query_by_id("Q10")(loaded.engine, {})) == {"knows", "visits"}

    def test_q11_vertices_by_property(self, loaded):
        result = query_by_id("Q11")(loaded.engine, {"key": "name", "value": "node-5"})
        assert result == [loaded.vertex_map["n5"]]

    def test_q12_edges_by_property(self, loaded):
        result = query_by_id("Q12")(loaded.engine, {"key": "weight", "value": 3})
        assert result == [loaded.edge_map[3]]

    def test_q13_edges_by_label(self, loaded):
        assert len(query_by_id("Q13")(loaded.engine, {"label": "visits"})) == 3

    def test_q14_q15_lookup_by_id(self, loaded):
        vertex = query_by_id("Q14")(loaded.engine, {"vertex": loaded.vertex_map["n6"]})
        assert vertex.properties["name"] == "node-6"
        edge = query_by_id("Q15")(loaded.engine, {"edge": loaded.edge_map[0]})
        assert edge.label == "knows"

    def test_q16_q17_updates(self, loaded):
        vertex = loaded.vertex_map["n2"]
        query_by_id("Q16")(loaded.engine, {"vertex": vertex, "key": "rank", "value": 99})
        assert loaded.engine.vertex_property(vertex, "rank") == 99
        edge = loaded.edge_map[0]
        query_by_id("Q17")(loaded.engine, {"edge": edge, "key": "weight", "value": 42})
        assert loaded.engine.edge_property(edge, "weight") == 42

    def test_q18_remove_vertex(self, loaded):
        vertex = loaded.vertex_map["n7"]
        query_by_id("Q18")(loaded.engine, {"vertex": vertex})
        assert not loaded.engine.vertex_exists(vertex)

    def test_q19_remove_edge(self, loaded):
        edge = loaded.edge_map[2]
        query_by_id("Q19")(loaded.engine, {"edge": edge})
        assert not loaded.engine.edge_exists(edge)

    def test_q20_q21_remove_properties(self, loaded):
        vertex = loaded.vertex_map["n3"]
        query_by_id("Q20")(loaded.engine, {"vertex": vertex, "key": "rank"})
        assert loaded.engine.vertex_property(vertex, "rank") is None
        edge = loaded.edge_map[3]
        query_by_id("Q21")(loaded.engine, {"edge": edge, "key": "weight"})
        assert loaded.engine.edge_property(edge, "weight") is None


class TestTraversalQueries:
    def test_q22_q23_neighbours(self, loaded):
        n5 = loaded.vertex_map["n5"]
        incoming = query_by_id("Q22")(loaded.engine, {"vertex": n5})
        assert set(incoming) == {loaded.vertex_map["n4"], loaded.vertex_map["n0"]}
        outgoing = query_by_id("Q23")(loaded.engine, {"vertex": n5})
        assert set(outgoing) == {loaded.vertex_map["n6"]}

    def test_q24_neighbours_by_label(self, loaded):
        n0 = loaded.vertex_map["n0"]
        result = query_by_id("Q24")(loaded.engine, {"vertex": n0, "label": "visits"})
        assert set(result) == {loaded.vertex_map["n5"]}

    def test_q25_q26_q27_edge_labels(self, loaded):
        n5 = loaded.vertex_map["n5"]
        assert set(query_by_id("Q25")(loaded.engine, {"vertex": n5})) == {"visits"}
        assert set(query_by_id("Q26")(loaded.engine, {"vertex": n5})) == {"knows"}
        assert set(query_by_id("Q27")(loaded.engine, {"vertex": n5})) == {"knows", "visits"}

    def test_q28_q29_q30_degree_filters(self, loaded):
        n0 = loaded.vertex_map["n0"]
        at_least_two_out = query_by_id("Q29")(loaded.engine, {"k": 2})
        assert n0 in at_least_two_out
        at_least_two_in = query_by_id("Q28")(loaded.engine, {"k": 2})
        assert loaded.vertex_map["n5"] in at_least_two_in
        at_least_three_both = query_by_id("Q30")(loaded.engine, {"k": 3})
        assert n0 in at_least_three_both

    def test_q31_nodes_with_incoming_edge(self, loaded):
        result = set(query_by_id("Q31")(loaded.engine, {}))
        # Every vertex except n0 has an incoming edge... n0 also has one (from n2).
        assert len(result) == 8

    def test_q32_bfs_depths(self, loaded):
        n0 = loaded.vertex_map["n0"]
        depth1 = set(query_by_id("Q32")(loaded.engine, {"vertex": n0, "depth": 1}))
        depth2 = set(query_by_id("Q32")(loaded.engine, {"vertex": n0, "depth": 2}))
        assert depth1 <= depth2
        assert len(depth1) == 4

    def test_q33_bfs_by_label(self, loaded):
        n0 = loaded.vertex_map["n0"]
        reached = query_by_id("Q33")(loaded.engine, {"vertex": n0, "depth": 3, "label": "knows"})
        names = {loaded.engine.vertex(v).properties["name"] for v in reached}
        assert "node-1" in names
        assert "node-5" not in names or "node-5" in names  # label-restricted reachability

    def test_q34_shortest_path(self, loaded):
        paths = query_by_id("Q34")(
            loaded.engine,
            {"vertex": loaded.vertex_map["n0"], "vertex2": loaded.vertex_map["n3"]},
        )
        assert paths
        # n0 <- n2 -> n3 is the shortest route in the undirected view: 3 nodes.
        assert min(len(path) for path in paths) == 3

    def test_q35_shortest_path_by_label(self, loaded):
        paths = query_by_id("Q35")(
            loaded.engine,
            {"vertex": loaded.vertex_map["n0"], "vertex2": loaded.vertex_map["n6"], "label": "knows"},
        )
        assert paths
        for path in paths:
            assert path[0] == loaded.vertex_map["n0"]
            assert path[-1] == loaded.vertex_map["n6"]

    def test_q34_unreachable_returns_empty(self, engine):
        a = engine.add_vertex()
        b = engine.add_vertex()
        paths = query_by_id("Q34")(engine, {"vertex": a, "vertex2": b})
        assert paths == []


class TestCrossEngineConsistency:
    """All engines must return the same answers for read-only queries."""

    _READ_ONLY_CASES = [
        ("Q8", {}),
        ("Q9", {}),
        ("Q10", {}),
        ("Q11", {"key": "name", "value": "node-4"}),
        ("Q13", {"label": "knows"}),
        ("Q28", {"k": 2}),
        ("Q29", {"k": 2}),
        ("Q30", {"k": 3}),
        ("Q31", {}),
    ]

    @pytest.mark.parametrize("query_id,params", _READ_ONLY_CASES)
    def test_results_agree_across_engines(self, small_dataset, query_id, params):
        from repro.bench.workload import load_dataset_into
        from repro.engines import DEFAULT_ENGINES, create_engine

        reference_size = None
        for engine_id in DEFAULT_ENGINES:
            loaded = load_dataset_into(create_engine(engine_id), small_dataset)
            result = query_by_id(query_id)(loaded.engine, params)
            size = result if isinstance(result, int) else len(result)
            if reference_size is None:
                reference_size = size
            assert size == reference_size, f"{query_id} differs on {engine_id}"
