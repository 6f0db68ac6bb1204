"""The read-scale deployment's wiring: one manager per engine, typed refusals."""

from __future__ import annotations

import pytest

from repro.engines import create_engine
from repro.exceptions import BenchmarkError
from repro.replication.routing import build_readscale

ENGINE = "nativelinked-1.9"


@pytest.fixture
def deployment(sharded):
    engine, loaded, plan = sharded(ENGINE, 2)
    built, _report = build_readscale(
        engine, loaded.vertex_map, plan, lambda: create_engine(ENGINE), replicas=1
    )
    yield built
    built.close()
    engine.close()


def test_every_cluster_runs_on_its_engines_own_session_manager(deployment):
    for shard in deployment.shards:
        assert shard.cluster.manager is shard.runtime.engine.transactions()


def test_engine_session_keeps_its_snapshot_across_a_deployment_write(deployment):
    """A private manager per cluster meant a second version store: a session
    opened on the engine itself then read the deployment's later write."""
    vertex = next(iter(deployment.owner))
    shard = deployment.shards[deployment.owner[vertex]]
    internal = shard.runtime.id_map[vertex]
    before = shard.runtime.engine.begin_session()
    deployment.set_vertex_property(vertex, "stamp", 7)
    assert before.graph.vertex_property(internal, "stamp") is None
    before.abort()
    after = shard.runtime.engine.begin_session()
    assert after.graph.vertex_property(internal, "stamp") == 7
    after.abort()


def test_cross_shard_edge_write_is_refused_with_the_typed_error(deployment):
    source = next(iter(deployment.owner))
    target = next(
        vertex
        for vertex in deployment.owner
        if deployment.owner[vertex] != deployment.owner[source]
    )
    with pytest.raises(BenchmarkError, match="co-located endpoints"):
        deployment.add_intra_edge(source, target, "crosses")
