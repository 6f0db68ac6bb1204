"""The one superstep loop on every default engine: answers, charges, guards.

``DistributedExecutor._run`` serves ``bfs``, ``neighbourhood`` and
``shortest_path``.  ``test_executor.py`` pins K=1 charge parity per engine
and K>1 behaviour on one engine; this suite pins, for every default engine:

* at K=2 and K=3 the answers equal the direct search on the unpartitioned
  engine, from every source;
* the compute charge is exactly the I/O the shard engines were charged,
  and busy work is compute plus network;
* a depth-0 query, and a depth-1 query from a vertex with no cut edges,
  move no messages; a delivered message costs its receiver nothing;
* unknown sources and targets are refused.
"""

from __future__ import annotations

import pytest

from repro.engines import create_engine
from repro.exceptions import BenchmarkError
from repro.partition import build_distributed, direct_bfs, direct_shortest_path


def _distributed(sharded, identifier, shards, strategy="hash"):
    engine, loaded, plan = sharded(identifier, shards, strategy)
    executor, _build = build_distributed(
        engine,
        loaded.vertex_map,
        plan,
        lambda: create_engine(identifier),
    )
    return executor


def _io(executor):
    return [shard.engine.io_cost() for shard in executor.shards]


@pytest.mark.parametrize("shards", [2, 3])
class TestAnswersMatchDirect:
    def test_bfs_distances_match_the_direct_search(
        self, identifier, sharded, fresh_loaded, small_dataset, shards
    ):
        executor = _distributed(sharded, identifier, shards)
        engine, loaded = fresh_loaded(identifier)
        reverse = {internal: external for external, internal in loaded.vertex_map.items()}
        for vertex in small_dataset.vertices:
            source = vertex["id"]
            direct = direct_bfs(engine, loaded.vertex_map[source], 3)
            expected = {reverse[vid]: distance for vid, distance in direct.items()}
            assert executor.bfs(source, 3).distances == expected, source

    def test_shortest_path_matches_the_direct_search(
        self, identifier, sharded, fresh_loaded, small_dataset, shards
    ):
        executor = _distributed(sharded, identifier, shards)
        engine, loaded = fresh_loaded(identifier)
        source = small_dataset.vertices[3]["id"]
        for vertex in small_dataset.vertices:
            target = vertex["id"]
            expected = direct_shortest_path(
                engine, loaded.vertex_map[source], loaded.vertex_map[target]
            )
            result = executor.shortest_path(source, target)
            assert result.distances.get(target, -1) == expected, target


class TestChargeAccounting:
    def test_compute_charge_is_the_shard_engines_io(
        self, identifier, sharded, small_dataset
    ):
        executor = _distributed(sharded, identifier, 3)
        before = _io(executor)
        result = executor.bfs(small_dataset.vertices[0]["id"], 3)
        after = _io(executor)
        assert result.messages > 0
        assert result.compute_charge == sum(after) - sum(before)
        assert result.busy_charge == result.compute_charge + result.network_charge
        assert result.makespan_charge <= result.busy_charge

    def test_depth_zero_moves_nothing(self, identifier, sharded, small_dataset):
        executor = _distributed(sharded, identifier, 3)
        source = small_dataset.vertices[0]["id"]
        before = _io(executor)
        result = executor.bfs(source, 0)
        assert result.distances == {source: 0}
        assert result.supersteps == 0
        assert result.messages == 0
        assert result.total_charge == 0
        assert _io(executor) == before

    def test_source_without_cut_edges_moves_no_messages(
        self, identifier, sharded, fresh_loaded
    ):
        """Greedy K=2 keeps every neighbour of some vertex on its shard."""
        executor = _distributed(sharded, identifier, 2, "greedy")
        home_only = [
            external
            for shard in executor.shards
            for external in shard.id_map
            if not shard.remote.get(external)
        ]
        assert home_only, "the plan cut every vertex"
        source = sorted(home_only)[0]
        engine, loaded = fresh_loaded(identifier)
        reverse = {internal: external for external, internal in loaded.vertex_map.items()}
        direct = direct_bfs(engine, loaded.vertex_map[source], 1)
        home = executor.owner[source]
        before = _io(executor)

        result = executor.bfs(source, 1)
        assert result.distances == {reverse[vid]: hop for vid, hop in direct.items()}
        assert result.messages == 0
        assert result.network_charge == 0
        # Only the home shard works.  Its charge need not equal the direct
        # search's: it holds part of the graph, and some engines' probes
        # cost more on a larger store.
        assert result.makespan_charge == result.busy_charge == result.compute_charge
        assert result.compute_charge == _io(executor)[home] - before[home] > 0

    def test_delivered_messages_cost_the_receiver_nothing(
        self, identifier, sharded, small_dataset
    ):
        """At depth 1 only the home shard expands: the cut-edge neighbours
        arrive at their owners through the RAM routing table, and the
        receiving engines are never touched."""
        executor = _distributed(sharded, identifier, 3)
        source = small_dataset.vertices[0]["id"]
        home = executor.owner[source]
        before = _io(executor)
        result = executor.bfs(source, 1)
        after = _io(executor)
        assert result.messages > 0
        assert {executor.owner[v] for v in result.distances} - {home}
        for index, (old, new) in enumerate(zip(before, after)):
            assert (new > old) == (index == home), index
        assert result.compute_charge == after[home] - before[home]

    def test_neighbourhood_is_the_bfs(self, identifier, sharded, small_dataset):
        source = small_dataset.vertices[2]["id"]
        by_bfs = _distributed(sharded, identifier, 3).bfs(source, 2)
        by_neighbourhood = _distributed(sharded, identifier, 3).neighbourhood(source, 2)
        assert by_neighbourhood == by_bfs


class TestGuards:
    def test_unknown_source_is_refused(self, identifier, sharded):
        executor = _distributed(sharded, identifier, 2)
        before = _io(executor)
        with pytest.raises(BenchmarkError, match="source vertex"):
            executor.bfs("missing", 2)
        assert _io(executor) == before

    def test_unknown_target_is_refused(self, identifier, sharded, small_dataset):
        executor = _distributed(sharded, identifier, 2)
        before = _io(executor)
        with pytest.raises(BenchmarkError, match="target"):
            executor.shortest_path(small_dataset.vertices[0]["id"], "missing")
        assert _io(executor) == before
