"""Routing distributed reads to replicas under a staleness budget.

A :class:`ReadScaleDeployment` composes the PR 5 partition layer with the
replica tier: :func:`~repro.partition.executor.build_distributed` carves
the loaded graph into K shard engines with cut-edge routing tables, and
each shard becomes a :class:`~repro.replication.replica.ReplicatedCluster`
(primary + R lagging replicas + hot-vertex caches) plus one shard-local
**ghost-adjacency cache** holding remote vertices' neighbour lists so a
friends-of-friends hop does not cross the wire twice.

Coherence protocol (pinned by the property tests):

* hot-vertex caches on the **primary** drop dirty entries eagerly at
  commit time — the primary serves current state;
* hot-vertex caches on a **replica** drop dirty entries when the replica
  *applies* the dirtying record — dropping earlier would let a re-admitted
  pre-write payload survive the apply;
* **ghost caches** drop eagerly at commit time (charged fan-out to every
  other shard), and re-admission is guarded: a ghost payload served by a
  still-lagging remote replica is *not* admitted, because its invalidation
  already fired and will never fire again.  ``invalidated_at`` remembers,
  per external id, the owning shard's newest fanned-out commit timestamp.

Writes are deliberately intra-shard (property writes anywhere, edge
create/remove only between vertices on one shard): cross-shard
transactions are ROADMAP item 2, and keeping CUD off the cut tables is
what lets replica-served first hops compose with the (static) cut-edge
routing table without mixing snapshots.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.concurrency.scheduler import StalenessClock
from repro.exceptions import BenchmarkError
from repro.model.graph import GraphDatabase
from repro.partition.executor import BuildReport, ShardRuntime, build_distributed
from repro.partition.messages import NetworkCostModel
from repro.partition.partitioners import PartitionPlan
from repro.replication.cache import ChargedCache
from repro.replication.replica import (
    DEFAULT_APPLY_INTERVAL,
    DEFAULT_STALENESS_BOUND,
    ReadOutcome,
    ReplicatedCluster,
    WriteReceipt,
)


#: Second hops a friends-of-friends read follows.
FOAF_FANOUT = 4


class ReplicatedShard:
    """One shard of the deployment: runtime, cluster, ghost cache."""

    def __init__(
        self,
        runtime: ShardRuntime,
        cluster: ReplicatedCluster,
        ghost_cache: ChargedCache,
    ) -> None:
        self.runtime = runtime
        self.cluster = cluster
        self.ghost_cache = ghost_cache
        self.index = runtime.index


class ReadScaleDeployment:
    """K replicated shards behind one deterministic read router."""

    def __init__(
        self,
        shards: list[ReplicatedShard],
        owner: dict[Any, int],
        clock: StalenessClock,
        network: NetworkCostModel | None = None,
        staleness_bound: int = DEFAULT_STALENESS_BOUND,
    ) -> None:
        if not shards:
            raise BenchmarkError("a read-scale deployment needs at least one shard")
        self.shards = shards
        self.owner = owner
        self.clock = clock
        self.network = network or NetworkCostModel()
        self.staleness_bound = staleness_bound
        #: External id → owning shard's newest fanned-out commit_ts (the
        #: ghost re-admission guard; see module docstring).
        self.invalidated_at: dict[Any, int] = {}
        # Deployment-level ledgers.
        self.ghost_invalidation_charge = 0
        self.network_charge = 0
        self.remote_fetches = 0

    # -- id plumbing --------------------------------------------------------

    def _shard_of(self, external: Any) -> ReplicatedShard:
        try:
            return self.shards[self.owner[external]]
        except KeyError:
            raise BenchmarkError(f"vertex {external!r} is not a known vertex") from None

    def _internal(self, shard: ReplicatedShard, external: Any) -> Any:
        return shard.runtime.id_map[external]

    # -- writes (write-through to the owning primary) -----------------------

    def set_vertex_property(self, external: Any, key: str, value: Any) -> WriteReceipt:
        shard = self._shard_of(external)
        internal = self._internal(shard, external)
        receipt = shard.cluster.execute_write(
            lambda graph: graph.set_vertex_property(internal, key, value)
        )
        self._fan_out(shard, receipt)
        return receipt

    def add_intra_edge(
        self,
        source: Any,
        target: Any,
        label: str,
    ) -> tuple[WriteReceipt, tuple[int, Any]]:
        """Create a property-less edge between two vertices of one shard.

        Returns the receipt plus a ``(shard index, engine edge id)`` handle
        usable with :meth:`remove_edge`.  Cross-shard pairs are rejected:
        a cut-edge write is a distributed transaction (ROADMAP item 2).
        """
        shard = self._shard_of(source)
        if self.owner.get(target) != shard.index:
            raise BenchmarkError(
                f"add_intra_edge needs co-located endpoints; {source!r} is on "
                f"shard {shard.index}, {target!r} on {self.owner.get(target)!r}"
            )
        src = self._internal(shard, source)
        dst = self._internal(shard, target)
        receipt = shard.cluster.execute_write(
            lambda graph: graph.add_edge(src, dst, label)
        )
        self._fan_out(shard, receipt)
        edge_id = receipt.id_map.get(receipt.result, receipt.result)
        return receipt, (shard.index, edge_id)

    def remove_edge(self, handle: tuple[int, Any]) -> WriteReceipt:
        """Remove an edge previously created via :meth:`add_intra_edge`."""
        shard_index, edge_id = handle
        shard = self.shards[shard_index]
        receipt = shard.cluster.execute_write(lambda graph: graph.remove_edge(edge_id))
        self._fan_out(shard, receipt)
        return receipt

    def _fan_out(self, shard: ReplicatedShard, receipt: WriteReceipt) -> None:
        """Charged eager invalidation of every *other* shard's ghost cache."""
        if receipt.read_only:
            return
        charge = 0
        for kind, internal in receipt.invalidation_keys:
            if kind != "vertex":
                continue
            external = shard.runtime.reverse.get(internal)
            if external is None:
                continue
            self.invalidated_at[external] = receipt.commit_ts
            for other in self.shards:
                if other.index == shard.index:
                    continue
                charge += other.ghost_cache.invalidate(("ghost-adj", external))
        if charge:
            self.ghost_invalidation_charge += charge
            self.clock.tick(charge)

    # -- reads --------------------------------------------------------------

    def read_record(self, external: Any, bound: int | None = None) -> ReadOutcome:
        """Vertex label + properties, served by the owning shard's tier."""
        shard = self._shard_of(external)
        return shard.cluster.read_record(
            self._internal(shard, external), self._bound(bound)
        )

    def adjacency(self, external: Any) -> ReadOutcome:
        """Full neighbour list of a vertex, in external ids, within the
        deployment's staleness bound.

        Local (intra-shard) neighbours come from the owning shard's
        replica/cache tier; cut-edge neighbours are appended from the
        build-time routing table (a charge-free RAM lookup, as in the BSP
        executor).  The order is deterministic: engine adjacency order,
        then cut-table build order, first-seen dedup.
        """
        shard = self._shard_of(external)
        outcome = shard.cluster.read_adjacency(
            self._internal(shard, external), self.staleness_bound
        )
        reverse = shard.runtime.reverse
        merged: dict[Any, None] = {}
        for internal in outcome.value:
            merged[reverse[internal]] = None
        for remote_external, _remote_shard in shard.runtime.remote.get(external, ()):
            merged[remote_external] = None
        outcome.value = tuple(merged)
        return outcome

    def foaf(self, external: Any) -> dict[str, Any]:
        """Friends-of-friends: one first hop, up to :data:`FOAF_FANOUT` second hops.

        Second hops on the home shard are served locally; remote second
        hops go through the home shard's ghost-adjacency cache, paying the
        remote tier's serve charge plus batched network transfer on a miss
        and nothing on a hit.
        """
        home = self._shard_of(external)
        first = self.adjacency(external)
        second: dict[Any, None] = {}
        ghost_hits = 0
        remote_fetches = 0
        for neighbor in first.value[:FOAF_FANOUT]:
            owner = self.owner.get(neighbor)
            if owner is None:
                continue
            if owner == home.index:
                hop = self.adjacency(neighbor)
                neighbors = hop.value
            else:
                neighbors, hit = self._ghost_adjacency(home, neighbor)
                ghost_hits += int(hit)
                remote_fetches += int(not hit)
            for second_hop in neighbors:
                if second_hop != external:
                    second[second_hop] = None
        return {
            "source": external,
            "first_hop": first,
            "second_hops": tuple(second),
            "ghost_hits": ghost_hits,
            "remote_fetches": remote_fetches,
        }

    def _ghost_adjacency(
        self, home: ReplicatedShard, external: Any
    ) -> tuple[tuple[Any, ...], bool]:
        """A remote vertex's adjacency via the home shard's ghost cache."""
        key = ("ghost-adj", external)
        ghost = home.ghost_cache
        if ghost.capacity > 0:
            entry = ghost.lookup(key)
            if entry is not None:
                return entry.payload, True
        outcome = self.adjacency(external)
        transfer = self.network.batch_cost(max(1, len(outcome.value)))
        self.network_charge += transfer
        self.remote_fetches += 1
        self.clock.tick(transfer)
        # Re-admission guard: only a payload at least as new as the last
        # fanned-out invalidation for this id may be cached — a lagging
        # replica's answer is valid to *serve* (it is a bounded-staleness
        # read) but poisonous to *cache* (its invalidation already fired).
        if outcome.snapshot_ts >= self.invalidated_at.get(external, 0):
            ghost.admit(key, outcome.value, outcome.charge + transfer, outcome.snapshot_ts)
        return outcome.value, False

    def _bound(self, bound: int | None) -> int:
        return self.staleness_bound if bound is None else bound

    # -- bookkeeping --------------------------------------------------------

    def catch_up(self) -> int:
        """Drain every shard's replication log (end-of-run barrier)."""
        return sum(shard.cluster.catch_up() for shard in self.shards)

    def server_busy(self) -> list[int]:
        """Busy virtual time of every server across all shards."""
        busy: list[int] = []
        for shard in self.shards:
            busy.extend(shard.cluster.server_busy())
        return busy

    def ledger(self) -> dict[str, Any]:
        ghost = ChargedCache("merged", 0).stats
        for shard in self.shards:
            ghost.merge(shard.ghost_cache.stats)
        clusters = [shard.cluster.ledger() for shard in self.shards]
        totals: dict[str, int] = {}
        for cluster in clusters:
            for key, value in cluster.items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        hot = ChargedCache("merged", 0).stats
        for shard in self.shards:
            hot.merge(shard.cluster.primary_cache.stats)
            for replica in shard.cluster.replicas:
                hot.merge(replica.cache.stats)
        staleness: list[int] = []
        for shard in self.shards:
            staleness.extend(shard.cluster.staleness_samples)
        return {
            "clusters": totals,
            "hot_cache": hot.ledger(),
            "ghost_cache": ghost.ledger(),
            "ghost_invalidation_charge": self.ghost_invalidation_charge,
            "network_charge": self.network_charge,
            "remote_fetches": self.remote_fetches,
            "staleness_samples": staleness,
            "server_busy": self.server_busy(),
        }

    def close(self) -> None:
        for shard in self.shards:
            shard.cluster.close()
            shard.runtime.engine.close()


def build_readscale(
    source_engine: GraphDatabase,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    engine_factory: Callable[[], GraphDatabase],
    replicas: int = 0,
    apply_interval: int = DEFAULT_APPLY_INTERVAL,
    cache_capacity: int = 0,
    staleness_bound: int = DEFAULT_STALENESS_BOUND,
    network: NetworkCostModel | None = None,
) -> tuple[ReadScaleDeployment, BuildReport]:
    """Carve a loaded engine into a replicated read-scale deployment.

    Reuses :func:`~repro.partition.executor.build_distributed` for the
    sharding itself (same extraction charges, same cut tables), then wraps
    every shard engine in a session manager + replica tier.  Shard engines
    arrive with reset metrics, so each cluster's ledgers start at zero.
    """
    executor, report = build_distributed(
        source_engine, vertex_map, plan, engine_factory, network=network
    )
    clock = StalenessClock()
    shards: list[ReplicatedShard] = []
    for runtime in executor.shards:
        cluster = ReplicatedCluster(
            name=f"shard{runtime.index}",
            # The engine's own singleton: a second manager would be a second
            # version store, invisible to sessions opened on the engine.
            manager=runtime.engine.transactions(),
            clock=clock,
            replicas=replicas,
            apply_interval=apply_interval,
            cache_capacity=cache_capacity,
            staleness_bound=staleness_bound,
            # Ghost fan-out needs each commit's invalidation keys even when
            # the shard itself runs no hot cache and no replicas.
            force_capture=cache_capacity > 0,
        )
        ghost = ChargedCache(f"shard{runtime.index}-ghost", cache_capacity)
        shards.append(ReplicatedShard(runtime, cluster, ghost))
    deployment = ReadScaleDeployment(
        shards,
        owner=executor.owner,
        clock=clock,
        network=network or executor.network,
        staleness_bound=staleness_bound,
    )
    return deployment, report
