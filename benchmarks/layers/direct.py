"""The three direct workloads: ``point-read``, ``traverse``, ``write-cud``.

Each replays one engine-independent op tape (the paper's Table 2 queries
with seeded parameters in *external* ids) straight on every default
engine — no sessions, no shards.  Read tapes are replayed for every round;
the write tape is cut into one slice per round.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bench.workload import ExternalVertex, LoadedGraph, ParameterPlan, load_dataset_into
from repro.datasets import get_dataset
from repro.engines import DEFAULT_ENGINES, create_engine
from repro.exceptions import GraphBenchError
from repro.queries import query_by_id

from benchmarks.layers.harness import ROUNDS, WARMUP_SHARE, Context, Recorder
from benchmarks.layers.reference import Canonicalizer, Reference, digest


@dataclass(frozen=True)
class Created:
    """A parameter naming an object an earlier op of the same tape created."""

    slot: int


@dataclass
class Op:
    cls: str
    query_id: str
    #: Parameters in external terms (``ExternalVertex`` / ``ExternalEdge`` /
    #: ``Created`` placeholders).
    params: dict[str, Any]
    #: Slot the op's returned id is remembered under (create ops only).
    store: int | None = None


@dataclass(frozen=True)
class DirectSpec:
    name: str
    dataset: str
    scale: float
    smoke_scale: float
    #: Frozen tape rate: ops per engine per requested second (÷ rounds).
    ops_per_second: float
    #: ``(class, query ids, share of the tape)``; shares sum to 1.
    mix: tuple[tuple[str, tuple[str, ...], float], ...] = ()
    mutating: bool = False
    #: Build an attribute index on the most selective vertex property.
    vertex_index: bool = False
    depth: int = 3


POINT_READ = DirectSpec(
    name="point-read",
    dataset="frb-l",
    scale=0.3,
    smoke_scale=0.02,
    ops_per_second=1700.0,
    vertex_index=True,
    # ``search`` scans are ~1000x a point op: a handful per tape is already a
    # third of the wall.  ``local`` is sized so the pooled p95 sits inside
    # the relational engine's 1-hop plateau, not on its edge.
    mix=(
        ("point", ("Q14", "Q15"), 0.368),
        ("search", ("Q11", "Q12", "Q13"), 0.002),
        ("local", ("Q22", "Q23", "Q24", "Q25", "Q26", "Q27"), 0.63),
    ),
)

TRAVERSE = DirectSpec(
    name="traverse",
    dataset="mico",
    scale=0.25,
    smoke_scale=0.02,
    ops_per_second=20.0,
    # The unlabelled BFS / shortest path are the expensive, variable ops (a
    # path search stops as soon as it finds its target): listed twice, so a
    # tape averages over enough of them to be steady across seeds.  The
    # whole-graph degree filters are 40 % so the pooled median sits inside
    # their block, not on the cliff between label-filtered and full searches.
    mix=(
        ("degree", ("Q28", "Q29", "Q30", "Q31"), 0.4),
        ("bfs", ("Q32", "Q32", "Q33"), 0.3),
        ("path", ("Q34", "Q34", "Q35"), 0.3),
    ),
)

WRITE_CUD = DirectSpec(
    name="write-cud",
    dataset="frb-l",
    scale=0.3,
    smoke_scale=0.02,
    ops_per_second=2000.0,
    mutating=True,
)


# ----------------------------------------------------------------------
# Tape planning
# ----------------------------------------------------------------------


def plan_read_tape(spec: DirectSpec, dataset: Any, plan: ParameterPlan, length: int,
                   seed: int) -> list[Op]:
    """A seeded shuffle of ``length`` read ops in the spec's class mix."""
    rng = random.Random(seed * 1_000_003 + zlib.crc32(spec.name.encode()))
    ops: list[Op] = []
    for cls, query_ids, share in spec.mix:
        count = max(len(query_ids), round(length * share))
        if cls == "search":
            ops.extend(_plan_search(dataset, rng, count))
            continue
        # A query id listed twice gets twice the ops (distinct parameters).
        per_listing = -(-count // len(query_ids))
        for query_id in dict.fromkeys(query_ids):
            for params in plan.params_for(query_id, count=per_listing * query_ids.count(query_id)):
                params = dict(params)
                if "depth" in params:
                    params["depth"] = spec.depth
                ops.append(Op(cls, query_id, params))
    rng.shuffle(ops)
    return ops


def index_key(dataset: Any) -> str:
    """The vertex property an attribute index goes on: the most selective one."""
    distinct: dict[str, set[str]] = {}
    for vertex in dataset.vertices:
        for key, value in (vertex.get("properties") or {}).items():
            distinct.setdefault(key, set()).add(repr(value))
    return max(sorted(distinct), key=lambda key: len(distinct[key]))


def _plan_search(dataset: Any, rng: random.Random, count: int) -> list[Op]:
    """Whole-graph searches, in a fixed rotation so every seed pays for the
    same scans: Q11 through the attribute index, Q11 on an unindexed key,
    Q12 (no edge carries the property: a pure scan), Q13 on the commonest
    label.  Only the looked-up vertex is drawn at random."""
    indexed = index_key(dataset)
    labels: dict[str, int] = {}
    for edge in dataset.edges:
        labels[edge.get("label", "edge")] = labels.get(edge.get("label", "edge"), 0) + 1
    top_label = max(sorted(labels), key=lambda label: labels[label])
    ops = []
    for index in range(count):
        row = rng.choice(dataset.vertices)["properties"]
        kind = index % 4
        if kind == 0:
            params = {"key": indexed, "value": row[indexed]}
        elif kind == 1:
            key = rng.choice(sorted(k for k in row if k != indexed))
            params = {"key": key, "value": row[key]}
        elif kind == 2:
            params = {"key": "creationDate", "value": -1}
        else:
            params = {"label": top_label}
        ops.append(Op("search", ("Q11", "Q11", "Q12", "Q13")[kind], params))
    return ops


def plan_write_slice(dataset: Any, rng: random.Random, length: int, slot_base: int) -> list[Op]:
    """One slice of the CUD tape: self-contained create → update → delete chains.

    Every deletion victim is an object an earlier op *of the same chain*
    created, and no other chain ever names it — so no op can fail, the
    graph returns to its loaded size at the end of every slice, and slices
    are comparable.  Updates additionally touch loaded vertices, which no
    chain deletes.  Chains are interleaved uniformly at random, keeping
    each chain's own order.
    """
    vertex_ids = [vertex["id"] for vertex in dataset.vertices]
    labels = sorted(dataset.edge_labels()) or ["edge"]
    with_props = [v for v in dataset.vertices if v.get("properties")]

    def vertex() -> ExternalVertex:
        return ExternalVertex(rng.choice(vertex_ids))

    def props(tag: str) -> dict[str, Any]:
        return {"bench_name": tag, "bench_score": rng.randint(0, 1000),
                "bench_flag": bool(rng.getrandbits(1))}

    chains: list[list[Op]] = []
    slot = slot_base
    for unit in range(max(1, length // 16)):
        v, e = Created(slot), Created(slot + 1)
        chains.append([
            Op("create", "Q2", {"properties": props(f"v{slot}")}, store=slot),
            Op("create", "Q5", {"vertex": v, "key": "bench_extra", "value": rng.randint(0, 9999)}),
            Op("update", "Q16", {"vertex": v, "key": "bench_extra", "value": f"u{rng.randint(0, 9999)}"}),
            Op("delete", "Q20", {"vertex": v, "key": "bench_extra"}),
            Op("delete", "Q18", {"vertex": v}),
        ])
        edge = {"vertex": vertex(), "vertex2": vertex(), "label": rng.choice(labels)}
        if unit % 2:
            edge["properties"] = {"weight": rng.random(), "batch": unit}
        chains.append([
            Op("create", "Q4" if unit % 2 else "Q3", edge, store=slot + 1),
            Op("create", "Q6", {"edge": e, "key": "bench_extra", "value": rng.randint(0, 9999)}),
            Op("update", "Q17", {"edge": e, "key": "bench_extra", "value": rng.randint(0, 9999)}),
            Op("delete", "Q21", {"edge": e, "key": "bench_extra"}),
            Op("delete", "Q19", {"edge": e}),
        ])
        for extra in (2, 3):
            chains.append([
                Op("create", "Q7", {"properties": props(f"w{slot}"), "label": rng.choice(labels),
                                    "neighbors": [vertex() for _ in range(3)]}, store=slot + extra),
                Op("delete", "Q18", {"vertex": Created(slot + extra)}),
            ])
            row = rng.choice(with_props)
            key = rng.choice(sorted(row["properties"]))
            chains.append([Op("update", "Q16", {
                "vertex": ExternalVertex(row["id"]), "key": key,
                "value": f"updated-{rng.randint(0, 9999)}"})])
        slot += 4
    order = [index for index, chain in enumerate(chains) for _ in chain]
    rng.shuffle(order)
    cursors = [0] * len(chains)
    tape: list[Op] = []
    for index in order:
        tape.append(chains[index][cursors[index]])
        cursors[index] += 1
    return tape


# ----------------------------------------------------------------------
# State
# ----------------------------------------------------------------------


@dataclass
class Cell:
    engine_id: str
    engine: Any
    #: What queries are handed: the engine, or its traced proxy.
    graph: Any
    loaded: LoadedGraph
    canon: Canonicalizer
    created: dict[int, Any] = field(default_factory=dict)
    #: Parameters of a read-only tape, bound once at set-up (a write tape
    #: names objects that exist only at run time and binds per op).
    bound: list[dict[str, Any]] = field(default_factory=list)
    round0_charge: int | None = None

    def bind_params(self, params: dict[str, Any]) -> dict[str, Any]:
        return {
            key: self.created[value.slot] if isinstance(value, Created) else self.loaded.bind(value)
            for key, value in params.items()
        }


@dataclass
class DirectState:
    spec: DirectSpec
    dataset: Any
    #: One tape per round for a mutating spec, the same tape otherwise.
    tapes: list[list[Op]]
    cells: list[Cell]
    #: Query id -> query callable (traced or not).
    queries: dict[str, Callable[..., Any]]
    timings: dict[str, float]
    #: Reference digest per op of a read-only tape.
    expected: list[int] = field(default_factory=list)


class DirectWorkload:
    """Runs one :class:`DirectSpec`; see the module docstring."""

    engines = DEFAULT_ENGINES

    def __init__(self, spec: DirectSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.mutating = spec.mutating

    # -- set-up (timed as setup_s) -------------------------------------------

    def setup(self, ctx: Context) -> DirectState:
        spec = self.spec
        started = time.perf_counter()
        dataset = get_dataset(
            spec.dataset, scale=spec.smoke_scale if ctx.smoke else spec.scale, seed=ctx.seed
        )
        generated = time.perf_counter()
        length = ctx.scaled(spec.ops_per_second, minimum=28, smoke=12)
        if spec.mutating:
            rng = random.Random(ctx.seed * 1_000_003 + zlib.crc32(spec.name.encode()))
            tapes = [
                plan_write_slice(dataset, rng, length, slot_base=index * length)
                for index in range(ROUNDS)
            ]
        else:
            plan = ParameterPlan(dataset, seed=ctx.seed, depth=spec.depth)
            tapes = [plan_read_tape(spec, dataset, plan, length, ctx.seed)] * ROUNDS
        indexed = index_key(dataset) if spec.vertex_index else None
        planned = time.perf_counter()

        queries = {
            query_id: ctx.traced(query_by_id(query_id), f"query.{query_id}", "queries")
            for tape in tapes for query_id in {op.query_id for op in tape}
        }
        cells: list[Cell] = []
        timings = {"generate_s": generated - started, "plan_s": planned - generated}
        for engine_id in self.engines:
            load_started = time.perf_counter()
            engine = create_engine(engine_id, durability="sync")
            graph = ctx.graph(engine)
            loaded = load_dataset_into(graph, dataset)
            if indexed is not None and engine.supports_vertex_index:
                graph.create_vertex_index(indexed)
            cell = Cell(engine_id, engine, graph, loaded, Canonicalizer(loaded))
            if not spec.mutating:
                cell.bound = [cell.bind_params(op.params) for op in tapes[0]]
            cells.append(cell)
            timings[f"load_s.{engine_id}"] = time.perf_counter() - load_started
        state = DirectState(spec, dataset, tapes, cells, queries, timings)
        self._warm_up(state)
        return state

    def _warm_up(self, state: DirectState) -> None:
        """Replay 5 % of the tape, unmeasured, to fill lazily built structures."""
        if state.spec.mutating:
            # A prefix of a write tape would strand half-finished chains; the
            # write path has no lazily built structure to fill anyway.
            return
        count = max(1, int(len(state.tapes[0]) * WARMUP_SHARE))
        for cell in state.cells:
            for op, params in zip(state.tapes[0][:count], cell.bound):
                state.queries[op.query_id](cell.graph, params)

    # -- checks prepared once, outside setup_s ---------------------------------

    def prepare_checks(self, state: DirectState) -> None:
        if state.spec.mutating:
            return
        reference = Reference(state.dataset)
        state.expected = [
            digest(reference.answer(op.query_id, op.params)) for op in state.tapes[0]
        ]

    # -- one round ---------------------------------------------------------------

    def run_round(self, state: DirectState, round_index: int, checked: bool,
                  rec: Recorder, ctx: Context) -> None:
        for cell in state.cells:
            self._replay(state, cell, state.tapes[round_index], round_index, checked, rec, ctx)

    def _replay(self, state: DirectState, cell: Cell, tape: list[Op],
                round_index: int, checked: bool, rec: Recorder, ctx: Context) -> None:
        clock = time.perf_counter
        io_cost = cell.engine.io_cost
        graph = cell.graph
        mutating = state.spec.mutating
        tracer = ctx.tracer
        seconds: list[float] = []
        charges: list[int] = []
        digests: list[int] = []
        round_start = before = io_cost()
        queries = state.queries
        for index, op in enumerate(tape):
            fn = queries[op.query_id]
            if not mutating:
                params = cell.bound[index]
            else:
                try:
                    params = cell.bind_params(op.params)
                except KeyError:
                    rec.fail(f"{cell.engine_id}: {op.query_id} names an object that was never created")
                    seconds.append(0.0)
                    charges.append(0)
                    continue
            if tracer is not None:
                tracer.op_id = index
            result = None
            started = clock()
            try:
                result = fn(graph, params)
                stopped = clock()
            except GraphBenchError as error:
                stopped = clock()
                rec.fail(f"{cell.engine_id}: {op.query_id} raised {type(error).__name__}: {error}")
            seconds.append(stopped - started)
            if op.store is not None:
                cell.created[op.store] = result
            if checked:
                after = io_cost()
                charges.append(after - before)
                before = after
                if not mutating and result is not None:
                    digests.append(digest(cell.canon.canonical(op.query_id, result)))
        by_class: dict[str, list[int]] = {}
        for index, op in enumerate(tape):
            by_class.setdefault(op.cls, []).append(index)
        for cls, indexes in by_class.items():
            rec.time_ops(round_index, cell.engine_id, cls, [seconds[i] for i in indexes])
            if checked:
                rec.charge_ops(cell.engine_id, cls, [charges[i] for i in indexes])
        total = io_cost() - round_start
        if mutating:
            return
        if cell.round0_charge is None:
            cell.round0_charge = total
        elif total != cell.round0_charge:
            rec.fail(f"{cell.engine_id}: round {round_index} charged {total}, "
                     f"round 0 charged {cell.round0_charge}")
        if checked:
            self._check_digests(state, cell, digests, rec)

    def _check_digests(self, state: DirectState, cell: Cell, digests: list[int],
                       rec: Recorder) -> None:
        """Against the dict reference, then against every other engine."""
        known = rec.digests.setdefault(cell.engine_id, digests)
        if known != digests:
            rec.fail(f"{cell.engine_id}: result digests changed between checked rounds")
        if len(digests) != len(state.expected):
            return  # an op raised; already counted
        for index, (got, want) in enumerate(zip(digests, state.expected)):
            if got != want:
                op = state.tapes[0][index]
                rec.fail(f"{cell.engine_id}: {op.query_id} op {index} differs from the reference")

    # -- after the last round ------------------------------------------------------

    def live_engines(self, state: DirectState) -> list[Any]:
        return [cell.engine for cell in state.cells]

    def finish(self, state: DirectState, rec: Recorder, ctx: Context) -> dict[str, float]:
        mismatches = 0
        baseline = rec.digests.get(state.cells[0].engine_id, [])
        for cell in state.cells[1:]:
            other = rec.digests.get(cell.engine_id, [])
            mismatches += sum(1 for a, b in zip(baseline, other) if a != b)
        if state.spec.mutating:
            self._check_final_state(state, rec)
        return {"engines.digest_mismatches": float(mismatches),
                "storage.user_bytes": float(self._user_bytes(state))}

    def _check_final_state(self, state: DirectState, rec: Recorder) -> None:
        """Every chain deleted what it created; updates hold their last value."""
        last: dict[tuple[Any, str], Any] = {}
        for tape in state.tapes:
            for op in tape:
                target = op.params.get("vertex")
                if op.query_id == "Q16" and isinstance(target, ExternalVertex):
                    last[(target.id, op.params["key"])] = op.params["value"]
        for cell in state.cells:
            vertices, edges = cell.engine.vertex_count(), cell.engine.edge_count()
            if (vertices, edges) != (state.dataset.vertex_count, state.dataset.edge_count):
                rec.fail(f"{cell.engine_id}: ended with {vertices} vertices / {edges} edges, "
                         f"loaded {state.dataset.vertex_count} / {state.dataset.edge_count}")
            for (external, key), value in last.items():
                got = cell.engine.vertex_property(cell.loaded.vertex_map[external], key)
                if got != value:
                    rec.fail(f"{cell.engine_id}: {external!r}.{key} is {got!r}, last write was {value!r}")

    @staticmethod
    def _user_bytes(state: DirectState) -> int:
        """Bytes of user payload the write tape handed to one engine."""
        if not state.spec.mutating:
            return 0
        total = 0
        for tape in state.tapes:
            for op in tape:
                payload = [op.params.get(key) for key in ("properties", "value", "label", "key")]
                total += sum(len(repr(item)) for item in payload if item is not None)
        return total
