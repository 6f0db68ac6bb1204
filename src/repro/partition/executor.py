"""The distributed charged executor: K shard engines under one clock.

Each shard of a partitioned graph is a full engine instance holding only
its own vertices and intra-shard edges; cross-shard adjacency lives in a
RAM routing table built from the cut edges at partition time.  Traversal
runs as BSP supersteps:

1. every shard with a non-empty frontier expands it *locally* through the
   PR 1 bulk primitive (``neighbors_many``), charging its own engine's
   logical I/O;
2. frontier entries with cut-edge neighbours produce **batched messages**
   to the owning shards, charged by the
   :class:`~repro.partition.messages.NetworkCostModel` (per-message latency
   + per-item cost); a shard never re-sends a remote vertex it has already
   messaged (the sender-side dedup filter real BSP engines keep);
3. the shards synchronise on a
   :class:`~repro.concurrency.scheduler.BarrierClock`: virtual time
   advances by the *slowest* shard's compute+send charge — stragglers are
   first-class — while the busy sum records the serial-equivalent work;
4. delivered messages seed the receivers' next frontiers (receive is free:
   its cost is accounted at the sender, once per item crossing the wire).

This is the only superstep loop.  Failures are composed around it: an
executor built with ``faults=`` (a :class:`repro.faults.chaos.FaultPlane`)
asks the plane at four boundaries — the expansion *attempt* (step 1), the
*send* (step 2), the per-barrier *checkpoint* (before step 3) and the
barrier *arrivals* (step 4) — and with ``faults=None`` takes none of them.

Determinism contract
--------------------

Every number is a pure function of ``(dataset, partition plan, engine,
query, network model)``: shards expand in index order, frontiers keep
discovery order, batches are emitted in destination order, and ownership
hashing is ``zlib.crc32``-stable — so a scale-out run reproduces
byte-for-byte anywhere, which is what lets CI gate ``BENCH_partition.json``
exactly.

Charge parity at K=1
--------------------

With one shard there are no cut edges, no messages, and one executor
draining the clock, so ``makespan == busy == the engine's I/O delta`` and
the result set equals :func:`direct_bfs` on the unpartitioned engine —
the distributed machinery costs *nothing* until the graph actually spans
shards.  ``tests/partition/test_executor.py`` pins this for every engine ×
partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.concurrency.scheduler import BarrierClock
from repro.exceptions import BenchmarkError
from repro.model.elements import Direction
from repro.model.graph import GraphDatabase
from repro.partition.messages import MessageBatch, NetworkCostModel, NetworkStats
from repro.partition.partitioners import PartitionPlan

if TYPE_CHECKING:  # repro.faults builds on this module, not the reverse
    from repro.faults.chaos import FaultPlane


def _direct_search(
    engine: GraphDatabase, source: Any, depth: int, target: Any | None
) -> dict[Any, int]:
    """The one reference search: BFS, optionally stopping at ``target``.

    Frontier-at-a-time over ``neighbors_many`` in BOTH directions with
    discovery-order dedup — exactly the expansion each shard runs locally,
    which is what makes the K=1 charge-parity contract hold by
    construction (and testable by assertion).  A discovered ``target`` ends
    the search after its hop (the whole frontier was already expanded),
    mirroring the distributed barrier early-exit.
    """
    distances = {source: 0}
    frontier = [source]
    for hop in range(1, depth + 1):
        if not frontier or (target is not None and target in distances):
            break
        next_frontier: list[Any] = []
        for _origin, neighbor in engine.neighbors_many(frontier, Direction.BOTH):
            if neighbor not in distances:
                distances[neighbor] = hop
                next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


def direct_bfs(
    engine: GraphDatabase, source: Any, depth: int
) -> dict[Any, int]:
    """Reference BFS on an unpartitioned engine (internal ids → distance)."""
    return _direct_search(engine, source, depth, None)


#: Hop limit of a shortest-path search (the distributed one and its reference).
SHORTEST_PATH_DEPTH = 32


def direct_shortest_path(engine: GraphDatabase, source: Any, target: Any) -> int:
    """Reference unweighted shortest-path distance (-1 when unreachable)."""
    return _direct_search(engine, source, SHORTEST_PATH_DEPTH, target).get(target, -1)


@dataclass
class ShardRuntime:
    """One shard: its engine, id translation, and cut-edge routing table."""

    index: int
    engine: GraphDatabase
    #: External id → this shard engine's internal id.
    id_map: dict[Any, Any]
    #: Internal id → external id (derived).
    reverse: dict[Any, Any] = field(init=False)
    #: External id → ``((remote external id, remote shard), ...)`` for every
    #: cut edge incident to the local vertex, in cut-table build order.
    remote: dict[Any, list[tuple[Any, int]]] = field(default_factory=dict, init=False)
    #: The external-id load payload this shard's engine was built from
    #: (``{"vertices": [...], "edges": [...]}``).  The coordinator keeps it
    #: as the authoritative copy a crashed shard recovers from (the chaos
    #: layer's per-shard WAL + checkpoint are seeded with it).
    payload: dict[str, list[dict[str, Any]]] | None = None

    def __post_init__(self) -> None:
        self.reverse = {internal: external for external, internal in self.id_map.items()}

    def rebind(self, engine: GraphDatabase, id_map: dict[Any, Any]) -> None:
        """Swap in a recovered engine (crash-restart), refreshing id maps."""
        self.engine = engine
        self.id_map = id_map
        self.reverse = {internal: external for external, internal in id_map.items()}


@dataclass
class DistributedResult:
    """One distributed query's answer plus its full charge accounting."""

    #: External vertex id → BFS distance (shortest-path runs leave only
    #: the vertices discovered before the early exit).
    distances: dict[Any, int]
    #: Virtual time: sum over supersteps of the slowest shard (compute+send).
    makespan_charge: int = 0
    #: Serial-equivalent work: every shard's compute+send summed.
    busy_charge: int = 0
    #: Local engine I/O across all shards.
    compute_charge: int = 0
    #: Batched-message charge (latency + per-item).
    network_charge: int = 0
    supersteps: int = 0
    messages: int = 0
    message_items: int = 0

    @property
    def total_charge(self) -> int:
        """All charged work: local compute + network (== busy)."""
        return self.compute_charge + self.network_charge


def expand_local(shard: ShardRuntime, frontier: list[Any]) -> tuple[list[Any], int]:
    """Expand one shard's frontier on its live engine.

    Returns the neighbour external ids in discovery order (duplicates
    included — the caller owns the dedup against ``distances``) and the
    engine I/O the expansion charged.  It mutates no coordinator state, so
    the fault plane can re-run an expansion after a crash-restart.
    """
    local_frontier = [shard.id_map[external] for external in frontier]
    before = shard.engine.io_cost()
    neighbors = [
        shard.reverse[neighbor]
        for _origin, neighbor in shard.engine.neighbors_many(
            local_frontier, Direction.BOTH
        )
    ]
    return neighbors, shard.engine.io_cost() - before


class DistributedExecutor:
    """Run traversal queries over K shard engines in deterministic supersteps."""

    def __init__(
        self,
        shards: list[ShardRuntime],
        owner: dict[Any, int],
        network: NetworkCostModel | None = None,
        plan: PartitionPlan | None = None,
        faults: FaultPlane | None = None,
    ) -> None:
        if not shards:
            raise BenchmarkError("a distributed executor needs at least one shard")
        self.shards = shards
        self.owner = owner
        self.network = network or NetworkCostModel()
        #: The partition plan the routing was built from.
        self.plan = plan
        #: The fault plane the superstep loop consults at its four
        #: boundaries; ``None`` is the fault-free run — no journal record,
        #: no sequence numbers.
        self.faults = faults

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def bfs(self, source: Any, depth: int) -> DistributedResult:
        """Distances of every vertex within ``depth`` hops of ``source``."""
        return self._run(source, depth, target=None)

    def neighbourhood(self, source: Any, depth: int = 1) -> DistributedResult:
        """The ``depth``-hop neighbourhood of ``source`` (Q22-Q27 flavour)."""
        return self._run(source, depth, target=None)

    def shortest_path(self, source: Any, target: Any) -> DistributedResult:
        """BFS with barrier early-exit once ``target`` is discovered.

        ``result.distances.get(target, -1)`` is the path length; the run
        stops at the end of the superstep that discovered the target (the
        in-flight frontier was already expanded and charged, exactly like
        :func:`direct_shortest_path`).
        """
        if target not in self.owner:
            raise BenchmarkError(f"shortest-path target {target!r} is not a known vertex")
        return self._run(source, SHORTEST_PATH_DEPTH, target=target)

    # ------------------------------------------------------------------
    # The superstep engine
    # ------------------------------------------------------------------

    def _run(self, source: Any, depth: int, target: Any | None) -> DistributedResult:
        """The one BSP loop; ``self.faults`` is asked at four boundaries."""
        try:
            home = self.owner[source]
        except KeyError:
            raise BenchmarkError(f"source vertex {source!r} is not a known vertex") from None
        faults = self.faults
        clock = BarrierClock()
        stats = NetworkStats()
        distances: dict[Any, int] = {source: 0}
        result = (
            DistributedResult(distances)
            if faults is None
            else faults.begin(distances, clock, self.network)
        )
        frontiers: dict[int, list[Any]] = {home: [source]}
        #: Remote external ids each shard has already messaged (sender dedup).
        sent: list[set[Any]] = [set() for _shard in self.shards]

        if target is not None and target in distances:
            # source == target: answered without expanding anything, like
            # the direct reference.
            frontiers = {}
        hop = 0
        while frontiers and hop < depth:
            hop += 1
            #: Keyed by shard index: a checkpoint also charges live shards
            #: that had no frontier this superstep.
            step_costs: dict[int, int] = {}
            outboxes: list[MessageBatch] = []
            for shard in self.shards:
                frontier = frontiers.get(shard.index)
                if not frontier:
                    continue
                # Boundary 1, the expansion attempt: may stall, crash and
                # recover, or be served degraded from a snapshot.
                if faults is None:
                    neighbors, cost = expand_local(shard, frontier)
                    result.compute_charge += cost
                else:
                    neighbors, cost = faults.attempt(shard, frontier, hop)
                discovered: list[Any] = []
                for external in neighbors:
                    if external not in distances:
                        distances[external] = hop
                        discovered.append(external)
                frontiers[shard.index] = discovered

                batches = self._collect_batches(shard, frontier, hop, sent[shard.index])
                cost += sum(self.network.batch_cost(len(batch)) for batch in batches)
                if faults is not None:
                    # Boundary 2, the send: sequence numbers, loss, duplication.
                    cost += faults.send(batches, hop)
                outboxes.extend(batches)
                step_costs[shard.index] = cost

            if faults is not None:
                # Boundary 3, the periodic checkpoint of every live shard.
                faults.checkpoint(self.shards, hop, step_costs)
            stats.record_step(outboxes, self.network)
            clock.advance(list(step_costs.values()))

            # Boundary 4, the barrier arrivals (reorder buffer + dedup),
            # delivered into the receivers' frontiers.
            arrivals = outboxes if faults is None else faults.arrivals(outboxes, hop)
            for batch in arrivals:
                receiver_frontier = frontiers.setdefault(batch.target_shard, [])
                for external, distance in batch.items:
                    if external not in distances:
                        distances[external] = distance
                        receiver_frontier.append(external)
            frontiers = {
                index: frontier for index, frontier in frontiers.items() if frontier
            }
            if target is not None and target in distances:
                break

        result.makespan_charge = clock.elapsed
        result.busy_charge = clock.busy
        result.network_charge = stats.charge
        result.supersteps = clock.steps
        result.messages = stats.messages
        result.message_items = stats.items
        return result

    def _collect_batches(
        self,
        shard: ShardRuntime,
        frontier: list[Any],
        hop: int,
        already_sent: set[Any],
    ) -> list[MessageBatch]:
        """Batch this shard's cut-edge crossings by destination shard."""
        outbox: dict[int, list[tuple[Any, int]]] = {}
        for external in frontier:
            for remote_external, remote_shard in shard.remote.get(external, ()):
                if remote_external in already_sent:
                    continue
                already_sent.add(remote_external)
                outbox.setdefault(remote_shard, []).append((remote_external, hop))
        return [
            MessageBatch(
                superstep=hop,
                source_shard=shard.index,
                target_shard=destination,
                items=outbox[destination],
            )
            for destination in sorted(outbox)
        ]


# ----------------------------------------------------------------------
# Building an executor from a loaded engine and a partition plan
# ----------------------------------------------------------------------


@dataclass
class BuildReport:
    """What it cost to carve a loaded engine into shard engines."""

    #: Source-engine I/O charged by ``export_partition``.
    extract_charge: int
    #: Vertices per shard actually loaded.
    shard_sizes: list[int]
    #: Cut-edge rows exported (each cut edge counted once, at its source).
    cut_edges: int


def build_distributed(
    source_engine: GraphDatabase,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    engine_factory: Callable[[], GraphDatabase],
    network: NetworkCostModel | None = None,
) -> tuple[DistributedExecutor, BuildReport]:
    """Shard ``source_engine`` per ``plan`` into fresh engines from the factory.

    ``vertex_map`` is the external→internal id map captured when the source
    engine was loaded (:class:`~repro.bench.workload.LoadedGraph`).  The
    extraction runs through the engine's
    :meth:`~repro.model.graph.GraphDatabase.export_partition` bulk primitive
    and its I/O is reported separately (it is a one-off resharding cost, not
    part of any query's charge).  Cut edges become the executor's routing
    table in both directions — BFS expands over ``Direction.BOTH``, so a cut
    edge must be crossable from either endpoint.
    """
    assignment_internal = {
        vertex_map[external]: shard for external, shard in plan.assignment.items()
    }
    reverse = {internal: external for external, internal in vertex_map.items()}

    before = source_engine.io_cost()
    payloads = source_engine.export_partition(assignment_internal, plan.shards)
    extract_charge = source_engine.io_cost() - before

    shards: list[ShardRuntime] = []
    for index, payload in enumerate(payloads):
        vertices = [
            {
                "id": reverse[row["id"]],
                "label": row["label"],
                "properties": row["properties"],
            }
            for row in payload["vertices"]
        ]
        edges = [
            {
                "source": reverse[row["source"]],
                "target": reverse[row["target"]],
                "label": row["label"],
                "properties": row["properties"],
            }
            for row in payload["edges"]
        ]
        engine = engine_factory()
        id_map = engine.load(vertices, edges)
        engine.reset_metrics()
        shards.append(
            ShardRuntime(
                index=index,
                engine=engine,
                id_map=id_map,
                payload={"vertices": vertices, "edges": edges},
            )
        )

    cut_rows = 0
    for index, payload in enumerate(payloads):
        for row in payload["cut_edges"]:
            cut_rows += 1
            source_external = reverse[row["source"]]
            target_external = reverse[row["target"]]
            target_shard = row["target_shard"]
            shards[index].remote.setdefault(source_external, []).append(
                (target_external, target_shard)
            )
            shards[target_shard].remote.setdefault(target_external, []).append(
                (source_external, index)
            )

    executor = DistributedExecutor(shards, dict(plan.assignment), network=network, plan=plan)
    report = BuildReport(
        extract_charge=extract_charge,
        shard_sizes=[len(shard.id_map) for shard in shards],
        cut_edges=cut_rows,
    )
    return executor, report
