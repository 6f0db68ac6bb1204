"""Shared builders for the distributed-transaction tests."""

from __future__ import annotations

import pytest

from repro.engines import create_engine
from repro.faults.txn_faults import TxnFaultPlan
from repro.partition.executor import build_distributed
from repro.partition.messages import NetworkCostModel
from repro.txn import DistributedSessionManager


class TxnHarness:
    """A partitioned engine with a distributed session manager on top.

    ``sharded`` is the shared conftest factory (engine + loaded dataset +
    partition plan); the harness layers the BSP executor and the
    distributed session manager on top of that prefix.
    """

    def __init__(
        self,
        engine_id: str,
        sharded,
        shards: int = 2,
        strategy: str = "hash",
        isolation: str = "si",
        fault_plan: TxnFaultPlan | None = None,
    ) -> None:
        self.engine_id = engine_id
        self.network = NetworkCostModel()
        source, loaded, plan = sharded(engine_id, shards, strategy)
        self.executor, _build = build_distributed(
            source,
            loaded.vertex_map,
            plan,
            lambda: create_engine(engine_id),
            network=self.network,
        )
        source.close()
        self.manager = DistributedSessionManager(
            self.executor.shards,
            self.executor.owner,
            network=self.network,
            isolation=isolation,
        )
        if fault_plan is not None:
            self.manager.fault_plan = fault_plan

    def vertices_by_shard(self) -> dict[int, list]:
        """External ids grouped by owning shard, repr-sorted for stability."""
        grouped: dict[int, list] = {}
        for external in sorted(self.manager.owner, key=repr):
            grouped.setdefault(self.manager.owner[external], []).append(external)
        return grouped

    def one_per_shard(self) -> list:
        """The first external id of every shard, in shard order."""
        grouped = self.vertices_by_shard()
        return [grouped[index][0] for index in sorted(grouped)]

    def two_shard_pair(self) -> tuple:
        """One external id from each of the two busiest shards."""
        grouped = sorted(
            self.vertices_by_shard().items(), key=lambda item: -len(item[1])
        )
        assert len(grouped) >= 2, "dataset did not spread over 2+ shards"
        return grouped[0][1][0], grouped[1][1][0]

    def read_committed(self, external, key):
        """Read a property outside any transaction (committed state)."""
        shard = self.manager.txn_shards[self.manager.owner[external]]
        return shard.engine.vertex_property(shard.runtime.id_map[external], key)


@pytest.fixture
def make_harness(sharded):
    """Factory for harnesses with custom engine/isolation/fault plans."""

    def build(engine_id: str = "nativelinked-1.9", **kwargs) -> TxnHarness:
        return TxnHarness(engine_id, sharded, **kwargs)

    return build


@pytest.fixture
def harness(make_harness):
    """A 2-shard hash-partitioned harness on the reference engine."""
    return make_harness()
