"""Cross-engine differential harness for the MVCC session layer.

Extends the model-based pattern of ``tests/storage/test_property_based.py``
to the concurrency layer: a seeded random CUD + traversal workload is
executed twice against every engine — once through snapshot-isolated
sessions (buffer, commit, replay-at-commit) and once replayed directly on a
fresh engine — and the two executions must converge to the **identical
final graph state**, and, for workloads within the charge-parity contract,
to **identical logical charges**.

Both runners resolve object *handles* (dataset names, creation ordinals)
to concrete ids at execution time, so the same abstract workload drives
the provisional-id machinery on the session side and plain engine ids on
the direct side.  Because a commit replays its operation log call-for-call
in buffer order, engine id allocation is identical on both sides, which
lets the final-state comparison be exact (ids included).

Charge parity holds under two documented restrictions, which the
charge-asserting generator respects:

* reads come before writes inside a transaction (a read *after* a buffered
  structural write takes the overlay-aware path, whose bookkeeping is free
  but whose engine access pattern legitimately differs);
* no ``remove_vertex`` (a buffered vertex removal pays one extra adjacency
  scan to know its cascade early — a documented overlay cost).

A second, state-only workload lifts both restrictions and additionally
exercises property search and vertex removal cascades.
"""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.bench.workload import load_dataset_into
from repro.engines import ALL_ENGINES, create_engine
from repro.model.elements import Direction
from repro.queries import query_by_id

#: Handle kinds: dataset vertices/edges exist before the workload starts;
#: created vertices/edges are addressed by creation ordinal.
DV, DE, CV, CE = "dv", "de", "cv", "ce"


def generate_workload(
    dataset,
    seed: int,
    txns: int,
    ops_per_txn: int,
    allow_remove_vertex: bool,
    reads_first: bool,
    allow_property_search: bool,
) -> list[list[tuple]]:
    """Plan a seeded workload over abstract handles with liveness tracking."""
    rng = random.Random(seed)
    dataset_vertices = [v["id"] for v in dataset.vertices]
    # Dataset edge endpoints, needed to model remove_vertex cascades.
    dataset_edges = {
        index: (edge["source"], edge["target"])
        for index, edge in enumerate(dataset.edges)
    }
    labels = sorted({edge["label"] for edge in dataset.edges}) or ["edge"]

    live_vertices: dict[tuple, int] = {(DV, name): -1 for name in dataset_vertices}
    # handle -> (source_handle, target_handle, created_txn)
    live_edges: dict[tuple, tuple] = {
        (DE, index): ((DV, src), (DV, dst), -1)
        for index, (src, dst) in dataset_edges.items()
    }
    created_v = created_e = 0

    read_kinds = ["vertex", "out-neighbors", "both-edges", "degree", "bfs", "count"]
    if allow_property_search:
        read_kinds.append("by-property")
    write_kinds = ["add-vertex", "add-edge", "set-vprop", "set-eprop", "remove-edge"]
    if allow_remove_vertex:
        write_kinds.append("remove-vertex")

    txn_list: list[list[tuple]] = []
    for txn_index in range(txns):
        reads: list[tuple] = []
        writes: list[tuple] = []
        # Reads only target vertices alive when the transaction starts:
        # with reads-first ordering they execute before this txn's writes,
        # and same-txn creations must not be read before they exist.
        read_pool = sorted(live_vertices, key=repr)
        for _slot in range(ops_per_txn):
            as_read = rng.random() < 0.45
            if as_read:
                kind = rng.choice(read_kinds)
                if not read_pool:
                    continue  # every vertex is gone: nothing to read
                target = rng.choice(read_pool)
                if kind == "vertex":
                    reads.append(("vertex", target))
                elif kind == "out-neighbors":
                    reads.append(("out-neighbors", target))
                elif kind == "both-edges":
                    reads.append(("both-edges", target, rng.choice(labels + [None])))
                elif kind == "degree":
                    reads.append(("degree", target))
                elif kind == "bfs":
                    reads.append(("bfs", target, rng.choice((1, 2))))
                elif kind == "count":
                    reads.append(("count",))
                else:
                    reads.append(("by-property", "drank", rng.randrange(5)))
            else:
                kind = rng.choice(write_kinds)
                if kind in ("add-edge", "set-vprop") and not live_vertices:
                    continue  # no endpoint or owner left to pick
                if kind == "add-vertex":
                    handle = (CV, created_v)
                    created_v += 1
                    writes.append(
                        ("add-vertex", handle, {"dname": f"c{handle[1]}", "drank": rng.randrange(5)})
                    )
                    live_vertices[handle] = txn_index
                elif kind == "add-edge":
                    source = rng.choice(sorted(live_vertices, key=repr))
                    target = rng.choice(sorted(live_vertices, key=repr))
                    handle = (CE, created_e)
                    created_e += 1
                    writes.append(("add-edge", handle, source, target, rng.choice(labels)))
                    live_edges[handle] = (source, target, txn_index)
                elif kind == "set-vprop":
                    target = rng.choice(sorted(live_vertices, key=repr))
                    writes.append(("set-vprop", target, "drank", rng.randrange(100)))
                elif kind == "set-eprop":
                    # Only edges from earlier transactions: a same-txn
                    # buffered edge is fine for the session but keeps the
                    # op stream simpler to reason about either way.
                    pool = [h for h, (_s, _t, t) in live_edges.items() if t < txn_index]
                    if not pool:
                        continue
                    writes.append(("set-eprop", rng.choice(sorted(pool, key=repr)), "w", rng.randrange(100)))
                elif kind == "remove-edge":
                    # Never remove an object created in the *same* txn: the
                    # session would net the pair out (no engine calls, no id
                    # consumed) while direct execution creates-then-removes,
                    # desynchronising id allocation.
                    pool = [h for h, (_s, _t, t) in live_edges.items() if t < txn_index]
                    if not pool:
                        continue
                    victim = rng.choice(sorted(pool, key=repr))
                    del live_edges[victim]
                    writes.append(("remove-edge", victim))
                else:  # remove-vertex
                    pool = [h for h, t in live_vertices.items() if t < txn_index]
                    if not pool:
                        continue
                    victim = rng.choice(sorted(pool, key=repr))
                    del live_vertices[victim]
                    # Cascade: every incident edge dies with the vertex.
                    for eh, (src, dst, _t) in list(live_edges.items()):
                        if src == victim or dst == victim:
                            del live_edges[eh]
                    writes.append(("remove-vertex", victim))
        if reads_first:
            txn_list.append(reads + writes)
        else:
            # Reads run after the writes here, so drop any read whose
            # target this transaction (or its cascades) removed.
            targeted = {"vertex", "out-neighbors", "both-edges", "degree", "bfs"}
            reads = [
                op
                for op in reads
                if op[0] not in targeted or op[1] in live_vertices
            ]
            txn_list.append(writes + reads)
    return txn_list


class Runner:
    """Executes a handle-based workload directly or through sessions."""

    def __init__(self, engine, loaded, use_sessions: bool) -> None:
        self.engine = engine
        self.use_sessions = use_sessions
        self.ids: dict[tuple, Any] = {}
        for name, vid in loaded.vertex_map.items():
            self.ids[(DV, name)] = vid
        for index, eid in loaded.edge_map.items():
            self.ids[(DE, index)] = eid

    def run(self, txns: list[list[tuple]]) -> None:
        for txn in txns:
            if self.use_sessions:
                session = self.engine.begin_session()
                self._run_ops(session.graph, txn)
                result = session.commit()
                # Remap provisional ids to the engine ids that replaced them.
                for handle, obj_id in list(self.ids.items()):
                    if obj_id in result.id_map:
                        self.ids[handle] = result.id_map[obj_id]
            else:
                self._run_ops(self.engine, txn)

    def _run_ops(self, graph, txn: list[tuple]) -> None:
        for op in txn:
            kind = op[0]
            if kind == "vertex":
                graph.vertex(self.ids[op[1]])
            elif kind == "out-neighbors":
                list(graph.neighbors(self.ids[op[1]], Direction.OUT))
            elif kind == "both-edges":
                list(graph.edges_for(self.ids[op[1]], Direction.BOTH, op[2]))
            elif kind == "degree":
                graph.degree(self.ids[op[1]])
            elif kind == "bfs":
                query_by_id("Q32")(graph, {"vertex": self.ids[op[1]], "depth": op[2]})
            elif kind == "count":
                graph.vertex_count()
            elif kind == "by-property":
                list(graph.vertices_by_property(op[1], op[2]))
            elif kind == "add-vertex":
                self.ids[op[1]] = graph.add_vertex(dict(op[2]), label="bench")
            elif kind == "add-edge":
                self.ids[op[1]] = graph.add_edge(
                    self.ids[op[2]], self.ids[op[3]], op[4]
                )
            elif kind == "set-vprop":
                graph.set_vertex_property(self.ids[op[1]], op[2], op[3])
            elif kind == "set-eprop":
                graph.set_edge_property(self.ids[op[1]], op[2], op[3])
            elif kind == "remove-edge":
                graph.remove_edge(self.ids[op[1]])
            elif kind == "remove-vertex":
                graph.remove_vertex(self.ids[op[1]])
            else:  # pragma: no cover - generator and runner move together
                raise AssertionError(f"unknown op {kind!r}")


def graph_fingerprint(engine) -> dict[str, list]:
    """A canonical, id-exact serialisation of the engine's final state."""
    vertices = []
    for vid in engine.vertex_ids():
        vertex = engine.vertex(vid)
        vertices.append(
            (repr(vid), vertex.label, sorted(vertex.properties.items(), key=repr))
        )
    edges = []
    for eid in engine.edge_ids():
        edge = engine.edge(eid)
        edges.append(
            (
                repr(eid),
                edge.label,
                repr(edge.source),
                repr(edge.target),
                sorted(edge.properties.items(), key=repr),
            )
        )
    return {"vertices": sorted(vertices), "edges": sorted(edges)}


def _run_both(identifier: str, small_dataset, workload) -> tuple:
    direct = load_dataset_into(create_engine(identifier), small_dataset)
    direct.engine.reset_metrics()
    Runner(direct.engine, direct, use_sessions=False).run(workload)
    direct_charges = direct.engine.combined_metrics().snapshot()
    direct_state = graph_fingerprint(direct.engine)

    transacted = load_dataset_into(create_engine(identifier), small_dataset)
    transacted.engine.reset_metrics()
    Runner(transacted.engine, transacted, use_sessions=True).run(workload)
    session_charges = transacted.engine.combined_metrics().snapshot()
    session_state = graph_fingerprint(transacted.engine)
    return direct_state, session_state, direct_charges, session_charges


@pytest.mark.parametrize("identifier", ALL_ENGINES)
@pytest.mark.parametrize("seed", (7, 20181204))
def test_session_equals_direct_state_and_charges(identifier, seed, small_dataset):
    """Charge-parity workload: identical final state AND identical charges."""
    workload = generate_workload(
        small_dataset,
        seed=seed,
        txns=6,
        ops_per_txn=5,
        allow_remove_vertex=False,
        reads_first=True,
        allow_property_search=False,
    )
    direct_state, session_state, direct_charges, session_charges = _run_both(
        identifier, small_dataset, workload
    )
    assert session_state == direct_state
    assert session_charges == direct_charges


@pytest.mark.parametrize("identifier", ALL_ENGINES)
def test_session_equals_direct_state_with_cascades(identifier, small_dataset):
    """Full CUD workload (vertex removal cascades, interleaved reads,
    property search): the final state must still match exactly; charges are
    exempt (the overlay's documented extra cascade scan)."""
    workload = generate_workload(
        small_dataset,
        seed=31337,
        txns=8,
        ops_per_txn=5,
        allow_remove_vertex=True,
        reads_first=False,
        allow_property_search=True,
    )
    direct_state, session_state, _direct_charges, _session_charges = _run_both(
        identifier, small_dataset, workload
    )
    assert session_state == direct_state


def test_contended_run_equals_direct_replay_and_drains(small_dataset):
    """An open reader forces before-image capture on every commit (undo
    chains, tombstones and resurrection entries actually form); the
    committed state must still equal the direct replay, and once the
    reader closes the version store holds nothing."""
    workload = generate_workload(
        small_dataset,
        seed=99,
        txns=5,
        ops_per_txn=4,
        allow_remove_vertex=True,
        reads_first=False,
        allow_property_search=True,
    )
    direct = load_dataset_into(create_engine("nativelinked-1.9"), small_dataset)
    Runner(direct.engine, direct, use_sessions=False).run(workload)

    loaded = load_dataset_into(create_engine("nativelinked-1.9"), small_dataset)
    engine = loaded.engine
    store = engine.transactions().store
    reader = engine.begin_session()
    Runner(engine, loaded, use_sessions=True).run(workload)
    assert store.retained_undo_entries() > 0
    reader.commit()
    assert graph_fingerprint(engine) == graph_fingerprint(direct.engine)
    assert store.retained_entries() == 0


def test_a_workload_that_removes_every_vertex_still_plans_and_replays(small_dataset):
    """A long removal-heavy workload drains the 8-vertex graph: the planner
    skips a read or a write with nothing left to pick instead of raising,
    and the sessions still converge to the direct replay."""
    workload = generate_workload(
        small_dataset,
        seed=0,
        txns=120,
        ops_per_txn=10,
        allow_remove_vertex=True,
        reads_first=False,
        allow_property_search=False,
    )
    direct_state, session_state, _direct, _session = _run_both(
        "nativelinked-1.9", small_dataset, workload
    )
    assert session_state == direct_state
