"""Multi-version concurrency control over the engine-agnostic graph surface.

The paper benchmarks every system in single-client isolation; this module is
the foundation of the multi-client layer.  Instead of forking seven engines
to add transactions, a :class:`VersionedGraph` *overlay* implements snapshot
isolation on top of any :class:`~repro.model.graph.GraphDatabase`:

* **newest version in place** — committed writes are applied directly to the
  underlying engine (charging the engine's own storage structures, exactly
  as a direct call would), so the engine always holds the newest version;
* **undo chains for older snapshots** — when a commit could be observed by a
  still-active older snapshot, the :class:`VersionStore` captures the
  pre-commit state of every written object.  What a snapshot then sees of
  a key is decided by one pure rule, :mod:`repro.concurrency.visibility`;
  the store only looks the key's marks up (:meth:`VersionStore.visible`);
* **read-your-writes** — each session buffers its writes in a
  :class:`WriteSet`; :meth:`VersionedGraph._resolve` consults it before
  the snapshot rule.  Buffered writes charge nothing until commit (the
  write set is client RAM), which is also what makes group commit
  measurable.

Charging rules
--------------

The overlay never invents or hides simulated I/O:

* reads of *overlay-clean* objects delegate straight to the engine method a
  direct caller would hit, so they charge the engine's own per-architecture
  pattern (adjacency vertex by vertex through the engine's per-id methods,
  one-vertex frontiers of its walk, on the globally-clean fast path);
* reads answered from the version cache (undo states, the session write
  set) charge nothing — those versions live in RAM by construction;
* version *maintenance* is charged honestly: capturing before-images at
  commit time performs real engine reads, but only when another active
  session could observe them.  An uncontended session therefore charges
  exactly what direct execution charges (enforced by
  ``tests/concurrency/test_isolation.py::TestChargeParity``).

Version state lives in one flat :class:`VersionStore` (a point lookup is
a ``dict.get``) and is *bounded*: the session manager feeds
:meth:`VersionStore.collect_garbage` the low-water-mark snapshot whenever
a session closes, reclaiming every undo chain and tombstone no active or
future snapshot can observe — once nothing observes the store it is empty
(``tests/concurrency/test_gc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple

from repro.concurrency.visibility import CURRENT, removed_as_of, visible_state
from repro.exceptions import ElementNotFoundError, SessionStateError
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.model.graph import GraphDatabase, check_property_keys

#: Sentinel marking a property key as deleted inside a write set.
TOMBSTONE = object()


@dataclass(frozen=True)
class ProvisionalId:
    """A session-local identifier for an object created inside a transaction.

    Engines hand out their ids at :meth:`add_vertex`/:meth:`add_edge` time,
    but a buffered creation only reaches the engine at commit.  Until then
    the session addresses the object through a provisional id; the commit
    result maps provisional ids to the engine ids that replaced them.
    """

    kind: str
    session_id: int
    sequence: int

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<provisional {self.kind} s{self.session_id}#{self.sequence}>"


@dataclass
class VertexState:
    """A reconstructed (or draft) vertex: label plus properties."""

    label: str | None
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class EdgeState:
    """A reconstructed (or draft) edge: label, endpoints, properties."""

    label: str
    source: Any
    target: Any
    properties: dict[str, Any] = field(default_factory=dict)


def vertex_key(vertex_id: Any) -> tuple[str, Any]:
    return ("vertex", vertex_id)


def edge_key(edge_id: Any) -> tuple[str, Any]:
    return ("edge", edge_id)


@dataclass
class GCStats:
    """Cumulative reclaim counters for one :class:`VersionStore`."""

    runs: int = 0
    reclaimed_undo: int = 0
    reclaimed_tombstones: int = 0
    reclaimed_keys: int = 0
    reclaimed_resurrections: int = 0
    last_low_water_mark: int = 0

    @property
    def reclaimed_total(self) -> int:
        return (
            self.reclaimed_undo
            + self.reclaimed_tombstones
            + self.reclaimed_keys
            + self.reclaimed_resurrections
        )


def _sweep(marks: dict[Any, int], low_water_mark: int) -> int:
    """Drop every mark at or below ``low_water_mark``; return how many."""
    dead = [key for key, ts in marks.items() if ts <= low_water_mark]
    for key in dead:
        del marks[key]
    return len(dead)


class VersionStore:
    """Commit-timestamp bookkeeping for one underlying engine.

    One store exists per :class:`~repro.concurrency.sessions.SessionManager`
    and is consulted by every :class:`VersionedGraph` bound to it.  All six
    structures are plain dicts keyed by ``("vertex"|"edge", id)`` (the two
    adjacency maps by vertex id) and maintained in commit order, so every
    iteration is deterministic across processes and a point lookup is one
    ``dict.get``.

    Garbage collection: :meth:`collect_garbage` takes the low-water mark —
    the oldest snapshot any active session holds (or the clock when no
    session is active) — and reclaims every undo-chain entry, tombstone,
    conflict key, and adjacency mark with a timestamp at or below it.  No
    snapshot that exists now or can ever be opened (new snapshots start at
    the clock) observes those versions, so reclaiming them never changes a
    read result.  All of this is plain-dict RAM bookkeeping: GC charges no
    simulated I/O, keeping the uncontended charge-parity contract intact.
    """

    def __init__(self) -> None:
        #: Timestamp of the latest mutating commit (0 = the loaded baseline).
        self.clock: int = 0
        #: Last commit timestamp that wrote each key (conflict detection).
        self.committed_at: dict[tuple[str, Any], int] = {}
        #: Before-images: ``key -> [(commit_ts, state_before_commit)]`` in
        #: ascending commit order; ``None`` means the object did not exist.
        self.undo: dict[tuple[str, Any], list[tuple[int, Any]]] = {}
        #: Commit timestamp at which overlay-created objects appeared.
        self.created_at: dict[tuple[str, Any], int] = {}
        #: Commit timestamp at which overlay-removed objects disappeared.
        self.removed_at: dict[tuple[str, Any], int] = {}
        #: Resurrection index: vertex id -> removed incident edge ids (in
        #: commit order).  Populated only when before-images are captured;
        #: every id in it has a live ``removed_at`` tombstone.
        self.removed_edges_by_vertex: dict[Any, list[Any]] = {}
        #: Timestamp of the most recent structural change (edge added or
        #: removed) touching each vertex; readers with an older snapshot
        #: must take the overlay-aware adjacency path.
        self.adj_changed_at: dict[Any, int] = {}
        #: Smallest timestamp held by any entry, or None when empty: a GC
        #: call whose low-water mark is below it is one comparison.
        self.oldest_ts: int | None = None
        self.gc = GCStats()

    def _note(self, ts: int) -> None:
        """Record that an entry with timestamp ``ts`` entered the store."""
        if self.oldest_ts is None or ts < self.oldest_ts:
            self.oldest_ts = ts

    # -- point lookups ------------------------------------------------------

    def committed_ts(self, key: tuple[str, Any]) -> int:
        return self.committed_at.get(key, 0)

    def created_ts(self, key: tuple[str, Any]) -> int:
        return self.created_at.get(key, 0)

    def removed_ts(self, key: tuple[str, Any]) -> int:
        return self.removed_at.get(key, 0)

    def adj_changed_ts(self, vertex_id: Any) -> int:
        return self.adj_changed_at.get(vertex_id, 0)

    def undo_chain(self, key: tuple[str, Any]) -> tuple[tuple[int, Any], ...]:
        return tuple(self.undo.get(key, ()))

    def has_undo_at(self, key: tuple[str, Any], commit_ts: int) -> bool:
        return any(ts == commit_ts for ts, _state in self.undo.get(key, ()))

    # -- writes (publish/capture time) --------------------------------------

    def mark_committed(self, key: tuple[str, Any], commit_ts: int) -> None:
        self.committed_at[key] = commit_ts
        self._note(commit_ts)

    def mark_created(self, key: tuple[str, Any], commit_ts: int) -> None:
        self.created_at[key] = commit_ts
        self._note(commit_ts)

    def mark_removed(self, key: tuple[str, Any], commit_ts: int) -> None:
        self.removed_at[key] = commit_ts
        self._note(commit_ts)

    def mark_adj_changed(self, vertex_id: Any, commit_ts: int) -> None:
        self.adj_changed_at[vertex_id] = commit_ts
        self._note(commit_ts)

    def push_undo(self, key: tuple[str, Any], commit_ts: int, state: Any) -> None:
        self.undo.setdefault(key, []).append((commit_ts, state))
        self._note(commit_ts)

    def register_removed_edge(self, edge_id: Any, state: EdgeState, commit_ts: int) -> None:
        """Index a removed edge for resurrection by older snapshots."""
        for endpoint in dict.fromkeys((state.source, state.target)):
            edges = self.removed_edges_by_vertex.setdefault(endpoint, [])
            if edge_id not in edges:
                edges.append(edge_id)
            self.mark_adj_changed(endpoint, commit_ts)

    # -- visibility (the rule itself lives in ``visibility.py``) -------------

    def visible(self, key: tuple[str, Any], snapshot: int) -> Any:
        """What a reader at ``snapshot`` sees for ``key``: three dict lookups,
        then :func:`~repro.concurrency.visibility.visible_state` decides.

        ``CURRENT`` means the engine's in-place state is the visible one;
        ``None`` means the object did not exist at the snapshot; anything
        else is a reconstructed :class:`VertexState` / :class:`EdgeState`.
        """
        return visible_state(
            self.created_at.get(key, 0),
            self.committed_at.get(key, 0),
            self.undo.get(key, ()),
            snapshot,
        )

    def removed_as_of(self, key: tuple[str, Any], snapshot: int) -> bool:
        """True if ``key`` was overlay-removed at/before ``snapshot`` (and not re-created).

        Lets write buffering reject operations on objects that no session
        could see anymore *without* touching the engine — a free dict
        lookup, so charge parity is unaffected.  Objects that never went
        through the overlay are not covered (a blind write on an id that
        never existed still fails at apply time), and neither are removals
        whose tombstone the garbage collector already reclaimed — once no
        snapshot can observe a removal it is indistinguishable from an id
        that never existed, and the engine raises at apply time instead.
        """
        return removed_as_of(
            self.created_at.get(key, 0), self.removed_at.get(key, 0), snapshot
        )

    def resurrected_edges(self, vertex_id: Any, snapshot: int) -> Iterator[tuple[Any, EdgeState]]:
        """Edges incident to ``vertex_id`` removed after ``snapshot``.

        Yields ``(edge_id, state)`` for edges that existed at the snapshot
        but were removed by a newer commit, in commit order.
        """
        for eid in self.removed_edges_by_vertex.get(vertex_id, ()):
            key = edge_key(eid)
            if self.removed_at.get(key, 0) <= snapshot:
                continue
            state = self.visible(key, snapshot)
            if state is not None and state is not CURRENT:
                yield eid, state

    def removed_object_ids(self, kind: str, snapshot: int) -> Iterator[Any]:
        """Ids of ``kind`` objects removed after ``snapshot`` but visible at
        it, in commit order."""
        for (obj_kind, obj_id), removed_ts in self.removed_at.items():
            if obj_kind != kind or removed_ts <= snapshot:
                continue
            if self.visible((obj_kind, obj_id), snapshot) is not None:
                yield obj_id

    def overlaid_keys(self, kind: str, snapshot: int) -> list[Any]:
        """Ids of ``kind`` objects whose visible state differs from in-place."""
        return [
            obj_id
            for (obj_kind, obj_id), ts in self.committed_at.items()
            if obj_kind == kind and ts > snapshot
        ]

    def iter_created(self, kind: str) -> Iterator[tuple[tuple[str, Any], int]]:
        """Every ``(key, created_ts)`` of ``kind``, in commit order."""
        return ((key, ts) for key, ts in self.created_at.items() if key[0] == kind)

    def iter_committed(self, kind: str) -> Iterator[tuple[tuple[str, Any], int]]:
        """Every ``(key, committed_ts)`` of ``kind``, in commit order.

        SSI predicate validation scans this to find objects written after a
        session's snapshot that might newly match a scanned predicate.
        """
        return ((key, ts) for key, ts in self.committed_at.items() if key[0] == kind)

    # -- garbage collection -------------------------------------------------

    def collect_garbage(self, low_water_mark: int) -> int:
        """Reclaim every version no active (or future) snapshot can observe.

        ``low_water_mark`` is the oldest snapshot held by any active
        session, or the commit clock when none is active.  An undo entry
        recorded at commit ``ts`` is only ever read by a snapshot older
        than ``ts``, so entries with ``ts <= low_water_mark`` are dead; the
        same argument covers tombstones, conflict keys, creation marks, and
        adjacency marks, and a resurrection entry dies with its tombstone.
        When the store's ``oldest_ts`` is above the mark nothing can be
        reclaimed and the call is a no-op (``gc.runs`` does not move).
        Returns the number of entries reclaimed.
        """
        gc = self.gc
        gc.last_low_water_mark = low_water_mark
        if self.oldest_ts is None or self.oldest_ts > low_water_mark:
            return 0
        before = gc.reclaimed_total
        gc.reclaimed_keys += _sweep(self.committed_at, low_water_mark)
        for key, chain in list(self.undo.items()):
            survivors = [(ts, state) for ts, state in chain if ts > low_water_mark]
            gc.reclaimed_undo += len(chain) - len(survivors)
            if survivors:
                self.undo[key] = survivors
            else:
                del self.undo[key]
        gc.reclaimed_keys += _sweep(self.created_at, low_water_mark)
        gc.reclaimed_tombstones += _sweep(self.removed_at, low_water_mark)
        gc.reclaimed_keys += _sweep(self.adj_changed_at, low_water_mark)
        # Freed edge ids are reused, so an entry survives as long as *any*
        # incarnation of its id still has a tombstone.
        for vid, edge_ids in list(self.removed_edges_by_vertex.items()):
            survivors = [eid for eid in edge_ids if edge_key(eid) in self.removed_at]
            gc.reclaimed_resurrections += len(edge_ids) - len(survivors)
            if survivors:
                self.removed_edges_by_vertex[vid] = survivors
            else:
                del self.removed_edges_by_vertex[vid]
        timestamps = [ts for chain in self.undo.values() for ts, _state in chain]
        for marks in (self.committed_at, self.created_at, self.removed_at, self.adj_changed_at):
            timestamps.extend(marks.values())
        self.oldest_ts = min(timestamps, default=None)
        gc.runs += 1
        return gc.reclaimed_total - before

    # -- version windows (the structural diff's candidate scan) -------------

    def keys_touched_between(self, lo: int, hi: int) -> list[tuple[str, Any]]:
        """Object keys that *may* differ between snapshots ``lo`` and ``hi``.

        A key's state at two snapshots can only differ if some commit with
        timestamp in ``(lo, hi]`` touched it, and every such commit leaves
        a mark: a committed/created/removed entry, or — ``committed_at``
        only remembers a key's latest commit, so for a key rewritten again
        after ``hi`` — the undo entry its in-window commit pushed (which
        exists whenever the window's low end was pinned at commit time, the
        versioning tier's invariant).  An empty window scans nothing.
        Returns the candidate keys sorted by ``repr`` (cross-process
        deterministic).  All of this is RAM bookkeeping and charges
        nothing; the diff walk charges per candidate it actually visits.
        """
        if hi < lo:
            lo, hi = hi, lo
        if hi == lo:
            return []
        candidates: set[tuple[str, Any]] = set()
        for marks in (self.committed_at, self.created_at, self.removed_at):
            candidates.update(key for key, ts in marks.items() if lo < ts <= hi)
        candidates.update(
            key
            for key, chain in self.undo.items()
            if any(lo < ts <= hi for ts, _state in chain)
        )
        return sorted(candidates, key=repr)

    # -- introspection ------------------------------------------------------

    def retained_bytes(self) -> int:
        """Deterministic estimate of the retained version state's footprint.

        16 bytes per entry (key-pointer plus int, the dict-entry shape)
        plus the ``repr`` length of every retained undo state — stable
        across processes (dataclass reprs follow insertion order), unlike
        ``sys.getsizeof``, so benchmark payloads can gate on it.
        """
        return 16 * self.retained_entries() + sum(
            len(repr(state)) for chain in self.undo.values() for _ts, state in chain
        )

    def retained_undo_entries(self) -> int:
        return sum(len(chain) for chain in self.undo.values())

    def retained_entries(self) -> int:
        """Every live entry in the store (its RAM footprint)."""
        return (
            len(self.committed_at)
            + len(self.created_at)
            + len(self.removed_at)
            + len(self.adj_changed_at)
            + self.retained_undo_entries()
            + sum(len(edges) for edges in self.removed_edges_by_vertex.values())
        )

    def gc_snapshot(self) -> dict[str, int]:
        """Reclaim/retention counters for benchmark rows (all deterministic)."""
        return {
            "gc_runs": self.gc.runs,
            "gc_reclaimed_undo": self.gc.reclaimed_undo,
            "gc_reclaimed_tombstones": self.gc.reclaimed_tombstones,
            "gc_reclaimed_keys": self.gc.reclaimed_keys,
            "gc_reclaimed_resurrections": self.gc.reclaimed_resurrections,
            "retained_undo": self.retained_undo_entries(),
            "retained_entries": self.retained_entries(),
        }


class WriteSet:
    """The buffered, uncommitted writes of one session.

    Doubles as the session's read-your-writes overlay (merged views) and as
    the faithful operation log replayed against the engine at commit —
    the two are kept separate so that the applied operations charge exactly
    what the equivalent direct calls would (e.g. a vertex created with two
    properties and then given a third applies as ``add_vertex`` + one
    ``set_vertex_property``, not as one three-property ``add_vertex``).
    """

    def __init__(self, session_id: int) -> None:
        self.session_id = session_id
        #: Faithful operation log: ``(op_name, *args)`` tuples in call order.
        self.ops: list[tuple[Any, ...]] = []
        #: Conflict-detection keys for writes touching *existing* objects.
        self.write_keys: set[tuple[str, Any]] = set()
        self.created_vertices: dict[ProvisionalId, VertexState] = {}
        self.created_edges: dict[ProvisionalId, EdgeState] = {}
        self.removed_vertices: set[Any] = set()
        self.removed_edges: set[Any] = set()
        #: Property overlays for existing objects: ``id -> {key: value|TOMBSTONE}``.
        self.vertex_props: dict[Any, dict[str, Any]] = {}
        self.edge_props: dict[Any, dict[str, Any]] = {}
        #: Session-created adjacency: endpoint id -> created edge ids.
        self.out_added: dict[Any, list[ProvisionalId]] = {}
        self.in_added: dict[Any, list[ProvisionalId]] = {}
        self._sequence = 0
        #: SSI read tracking, populated by :class:`VersionedGraph` only when
        #: the owning session opted into serializable mode (``track_reads``
        #: stays False for plain-SI sessions and pins, so SI read paths are
        #: bookkeeping-identical to before SSI existed).
        self.track_reads = False
        #: Object keys this session read (point lookups).
        self.read_keys: set[tuple[str, Any]] = set()
        #: Vertex ids whose adjacency this session observed.
        self.read_adjacency: set[Any] = set()
        #: Property predicates scanned: ``(kind, property, repr(value))``.
        self.read_predicates: set[tuple[str, str, str]] = set()

    # -- SSI read tracking (free RAM bookkeeping; no simulated I/O) ---------

    def note_read(self, key: tuple[str, Any]) -> None:
        if self.track_reads and not isinstance(key[1], ProvisionalId):
            self.read_keys.add(key)

    def note_adjacency(self, vertex_id: Any) -> None:
        if self.track_reads and not isinstance(vertex_id, ProvisionalId):
            self.read_adjacency.add(vertex_id)

    def note_predicate(self, kind: str, prop: str, value: Any) -> None:
        if self.track_reads:
            self.read_predicates.add((kind, prop, repr(value)))

    @property
    def dirty(self) -> bool:
        return bool(self.ops)

    def next_id(self, kind: str) -> ProvisionalId:
        self._sequence += 1
        return ProvisionalId(kind, self.session_id, self._sequence)

    def touches_adjacency_of(self, vertex_id: Any) -> bool:
        """True if this session structurally changed ``vertex_id``'s adjacency.

        Session-removed edges are tracked by id only (their endpoints are
        unknown until commit), so any buffered edge removal conservatively
        forces the overlay-aware adjacency path.
        """
        return (
            vertex_id in self.out_added
            or vertex_id in self.in_added
            or bool(self.removed_edges)
            or vertex_id in self.created_vertices
            or vertex_id in self.removed_vertices
        )


class _Kind(NamedTuple):
    """The overlay's names for one element kind, bound once.

    The kind-level primitives receive an :class:`ElementKind` and look its
    instance up in ``_KINDS``; the helpers below them take the instance,
    so no call builds a method or field name.
    """

    kind: str
    #: :class:`WriteSet` fields: drafts, session-removed ids, property overlays.
    created: str
    removed: str
    props: str
    #: Engine methods.
    exists: str
    ids: str
    count: str
    get_property: str
    by_property: str


_VERTEX = _Kind(
    "vertex", "created_vertices", "removed_vertices", "vertex_props",
    "vertex_exists", "vertex_ids", "vertex_count", "vertex_property", "vertices_by_property",
)
_EDGE = _Kind(
    "edge", "created_edges", "removed_edges", "edge_props",
    "edge_exists", "edge_ids", "edge_count", "edge_property", "edges_by_property",
)
_KINDS = {VERTEX: _VERTEX, EDGE: _EDGE}


#: Per pass: (the :class:`EdgeState` endpoint that is the walked vertex, the
#: :class:`WriteSet` index of session-created edges by that endpoint).
_PASSES = pass_table(
    {Direction.OUT: ("source", "out_added"), Direction.IN: ("target", "in_added")}
)


def _incidences(state: EdgeState, vertex_id: Any, direction: Direction) -> int:
    """How often the passes of ``direction`` meet an edge in ``state`` at
    ``vertex_id`` — a self-loop twice under BOTH, as in the engines."""
    return sum(getattr(state, near) == vertex_id for near, _added in _PASSES[direction])


class VersionedGraph(GraphDatabase):
    """A session's transactional view of an engine.

    Implements the full :class:`~repro.model.graph.GraphDatabase` surface so
    that every existing query — including the Gremlin traversal machine —
    runs unchanged inside a transaction.  :meth:`_resolve` is the only place
    the session's view of an object is decided; see the module docstring
    for the charging rules.
    """

    def __init__(self, engine: GraphDatabase, store: VersionStore, session: Any) -> None:
        self._engine = engine
        self._store = store
        self._session = session
        # Mirror the metadata the optimizer and reports consult, and the
        # metrics object the traversal machine charges materialisations to
        # (frontier memory obeys the engine's budget inside a transaction).
        self.name = f"txn:{engine.name}"
        self.version = engine.version
        self.kind = engine.kind
        self.conflates_counts = engine.conflates_counts
        self.supports_vertex_index = engine.supports_vertex_index
        self.metrics = getattr(engine, "metrics", None)

    # -- session plumbing ---------------------------------------------------

    @property
    def _ws(self) -> WriteSet:
        return self._session.write_set

    @property
    def _snapshot(self) -> int:
        if not self._session.is_open:
            raise SessionStateError(
                f"session {self._session.id} is {self._session.state}; begin a new one"
            )
        return self._session.snapshot_ts

    def _fast(self) -> bool:
        """True when no overlay exists at all: delegate everything."""
        return self._store.clock == self._snapshot and not self._ws.ops

    # -- the session's view of one object -----------------------------------

    def _resolve(self, k: _Kind, obj_id: Any) -> Any:
        """What this session sees for ``(kind, id)``: write set first, then
        the store's rule for the snapshot.

        Returns the draft of an object the session created, ``None`` for
        one it removed or cannot see, ``CURRENT`` when the engine's
        in-place object is the visible one, else the captured state.
        Property overlays on existing objects are merged by the readers.
        Charges nothing (write set and version store are RAM).  Filters
        over ids the engine listed (never drafts) apply the same
        removed-then-``store.visible`` test inline, once per item.
        """
        snapshot = self._snapshot
        ws = self._ws
        draft = getattr(ws, k.created).get(obj_id)
        if draft is not None:
            return draft
        if obj_id in getattr(ws, k.removed):
            return None
        return self._store.visible((k.kind, obj_id), snapshot)

    def _read(self, k: _Kind, obj_id: Any) -> Any:
        """:meth:`_resolve` for a point read: tracked for SSI, never ``None``."""
        state = self._resolve(k, obj_id)
        self._ws.note_read((k.kind, obj_id))
        if state is None:
            raise ElementNotFoundError(k.kind, obj_id)
        return state

    def _check_writable(self, k: _Kind, obj_id: Any) -> None:
        """Reject a buffered write on an object removed in this session or
        by a commit its snapshot observed (a free RAM lookup).

        An object a *newer* commit created or removed is not rejected here:
        the write conflicts at commit (first committer wins), and the
        retry's fresh snapshot sees the object as it then is.
        """
        snapshot = self._snapshot
        if obj_id in getattr(self._ws, k.removed) or self._store.removed_as_of(
            (k.kind, obj_id), snapshot
        ):
            raise ElementNotFoundError(k.kind, obj_id)

    def _merged_properties(
        self, k: _Kind, obj_id: Any, properties: dict[str, Any]
    ) -> dict[str, Any]:
        """A copy of ``properties`` under the session's buffered overlay."""
        merged = dict(properties)
        overlay = getattr(self._ws, k.props).get(obj_id)
        if overlay:
            for key, value in overlay.items():
                if value is TOMBSTONE:
                    merged.pop(key, None)
                else:
                    merged[key] = value
        return merged

    def _vertex_clean(self, vertex_id: Any, snapshot: int) -> bool:
        """True when ``vertex_id``'s adjacency has no overlay at ``snapshot``.

        A vertex created by a commit newer than the snapshot is *not*
        clean even though it has no structural-change entry: delegating
        would let the engine answer for an object this snapshot must not
        see (the overlay path raises ``ElementNotFoundError`` instead).
        """
        return (
            self._store.adj_changed_ts(vertex_id) <= snapshot
            and not self._ws.touches_adjacency_of(vertex_id)
            and self._store.visible(vertex_key(vertex_id), snapshot) is not None
        )

    # -- kind-level primitives (the public vertex/edge names dispatch here) --

    def _exists(self, kind: ElementKind, obj_id: Any) -> bool:
        k = _KINDS[kind]
        state = self._resolve(k, obj_id)
        self._ws.note_read((k.kind, obj_id))
        if state is CURRENT:
            return getattr(self._engine, k.exists)(obj_id)
        return state is not None

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        k = _KINDS[kind]
        snapshot = self._snapshot
        if self._fast():
            yield from getattr(self._engine, k.ids)()
            return
        removed = getattr(self._ws, k.removed)
        visible = self._store.visible
        seen: set[Any] = set()
        for obj_id in getattr(self._engine, k.ids)():
            if obj_id not in removed and visible((k.kind, obj_id), snapshot) is not None:
                seen.add(obj_id)
                yield obj_id
        # Engines reuse freed ids, so an id the scan above already yielded
        # (its snapshot incarnation reconstructed from the undo chain) can
        # also sit in the removed-object index for an *older* incarnation;
        # one id names one visible object per snapshot, so dedup here.
        for obj_id in self._store.removed_object_ids(k.kind, snapshot):
            if obj_id not in removed and obj_id not in seen:
                yield obj_id
        yield from getattr(self._ws, k.created)

    def _count(self, k: _Kind) -> int:
        snapshot = self._snapshot
        count = getattr(self._engine, k.count)()
        if self._fast():
            return count
        for key, created_ts in self._store.iter_created(k.kind):
            # Exists in place (not removed since; an equal stamp is a freed
            # id re-created by the same commit) but invisible at the snapshot.
            if created_ts > snapshot and self._store.removed_ts(key) <= created_ts:
                count -= 1
        count += sum(1 for _id in self._store.removed_object_ids(k.kind, snapshot))
        # Drafts the session removed again were never in the engine's count.
        count -= sum(
            1 for obj_id in getattr(self._ws, k.removed) if not isinstance(obj_id, ProvisionalId)
        )
        return count + len(getattr(self._ws, k.created))

    def _property(self, kind: ElementKind, obj_id: Any, key: str) -> Any:
        k = _KINDS[kind]
        state = self._read(k, obj_id)
        overlay = getattr(self._ws, k.props).get(obj_id)
        if overlay and key in overlay:
            value = overlay[key]
            return None if value is TOMBSTONE else value
        if state is CURRENT:
            return getattr(self._engine, k.get_property)(obj_id, key)
        return state.properties.get(key)

    def _set_property(self, kind: ElementKind, obj_id: Any, key: str, value: Any) -> None:
        self._buffer_property(_KINDS[kind], obj_id, key, value)
        self._ws.ops.append((kind.set_op, obj_id, key, value))

    def _remove_property(self, kind: ElementKind, obj_id: Any, key: str) -> None:
        self._buffer_property(_KINDS[kind], obj_id, key, TOMBSTONE)
        self._ws.ops.append((kind.remove_op, obj_id, key))

    def _buffer_property(self, k: _Kind, obj_id: Any, key: str, value: Any) -> None:
        """Overlay ``key = value`` (``TOMBSTONE``: removed); the caller logs the op."""
        self._check_writable(k, obj_id)
        ws = self._ws
        draft = getattr(ws, k.created).get(obj_id)
        if draft is None:
            getattr(ws, k.props).setdefault(obj_id, {})[key] = value
            ws.write_keys.add((k.kind, obj_id))
        elif value is TOMBSTONE:
            draft.properties.pop(key, None)
        else:
            draft.properties[key] = value

    def _by_property(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        k = _KINDS[kind]
        snapshot = self._snapshot
        ws = self._ws
        ws.note_predicate(k.kind, key, value)
        if self._fast():
            for obj_id in getattr(self._engine, k.by_property)(key, value):
                ws.note_read((k.kind, obj_id))
                yield obj_id
            return
        # Objects whose visible value may differ from the engine's index:
        # overwritten after the snapshot, or written/removed by this
        # session (ordered, deduplicated).  They are re-read one by one.
        suspects = dict.fromkeys(self._store.overlaid_keys(k.kind, snapshot))
        suspects.update(dict.fromkeys(getattr(ws, k.props)))
        suspects.update(dict.fromkeys(getattr(ws, k.removed)))
        visible = self._store.visible
        for obj_id in getattr(self._engine, k.by_property)(key, value):
            if obj_id not in suspects and visible((k.kind, obj_id), snapshot) is not None:
                ws.note_read((k.kind, obj_id))
                yield obj_id
        for obj_id in suspects:
            try:
                found = self._property(kind, obj_id, key)
            except ElementNotFoundError:
                continue
            if found == value:
                yield obj_id
        for pid, draft in getattr(ws, k.created).items():
            if draft.properties.get(key) == value:
                yield pid

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        check_property_keys(properties)
        self._snapshot  # state guard
        self._engine._check_label(label)
        ws = self._ws
        pid = ws.next_id("vertex")
        ws.created_vertices[pid] = VertexState(label, dict(properties or {}))
        ws.ops.append(("add_vertex", pid, dict(properties or {}), label))
        return pid

    def vertex(self, vertex_id: Any) -> Vertex:
        state = self._read(_VERTEX, vertex_id)
        if state is CURRENT:
            state = self._engine.vertex(vertex_id)
        return Vertex(
            vertex_id, state.label, self._merged_properties(_VERTEX, vertex_id, state.properties)
        )

    def remove_vertex(self, vertex_id: Any) -> None:
        self._snapshot
        ws = self._ws
        if vertex_id in ws.created_vertices:
            # Creating and removing inside one transaction nets out; drop
            # the draft and any session edges attached to it (through
            # ``remove_edge``, so their creations are not replayed either).
            del ws.created_vertices[vertex_id]
            for eid, state in list(ws.created_edges.items()):
                if state.source == vertex_id or state.target == vertex_id:
                    self.remove_edge(eid)
            ws.ops.append(("drop_provisional_vertex", vertex_id))
            return
        self._check_writable(_VERTEX, vertex_id)
        # Read-your-writes for the cascade: the engine will delete the
        # incident edges at apply time, so this session must stop seeing
        # them now.  The visible-adjacency scan here charges like the scan
        # the engine itself performs inside ``remove_vertex`` — a buffered
        # vertex removal therefore pays one extra adjacency scan compared
        # to direct execution (the price of knowing the cascade early);
        # the cascaded edge keys also join the conflict set.
        for eid in list(self._incident_edges(vertex_id, Direction.BOTH, None)):
            if eid in ws.created_edges:
                self._drop_created_edge(eid)
            else:
                ws.write_keys.add(edge_key(eid))
            ws.removed_edges.add(eid)
        ws.removed_vertices.add(vertex_id)
        ws.write_keys.add(vertex_key(vertex_id))
        ws.ops.append(("remove_vertex", vertex_id))

    def vertex_label(self, vertex_id: Any) -> str | None:
        state = self._read(_VERTEX, vertex_id)
        return self._engine.vertex_label(vertex_id) if state is CURRENT else state.label

    # ------------------------------------------------------------------
    # Edge CRUD
    # ------------------------------------------------------------------

    def add_edge(
        self,
        source_id: Any,
        target_id: Any,
        label: str,
        properties: dict[str, Any] | None = None,
    ) -> Any:
        check_property_keys(properties)
        self._engine._check_label(label)
        ws = self._ws
        for endpoint in (source_id, target_id):
            self._check_writable(_VERTEX, endpoint)
        pid = ws.next_id("edge")
        ws.created_edges[pid] = EdgeState(label, source_id, target_id, dict(properties or {}))
        ws.out_added.setdefault(source_id, []).append(pid)
        ws.in_added.setdefault(target_id, []).append(pid)
        # Adding an edge rewrites both endpoints' adjacency structures
        # (chain heads, adjacency rows), so it conflicts with concurrent
        # writes to those records — record-level first-committer-wins.
        for endpoint in (source_id, target_id):
            if endpoint not in ws.created_vertices:
                ws.write_keys.add(vertex_key(endpoint))
        ws.ops.append(("add_edge", pid, source_id, target_id, label, dict(properties or {})))
        return pid

    def _drop_created_edge(self, pid: ProvisionalId) -> None:
        ws = self._ws
        state = ws.created_edges.pop(pid, None)
        if state is None:
            return
        for index in (ws.out_added.get(state.source), ws.in_added.get(state.target)):
            if index and pid in index:
                index.remove(pid)

    def edge(self, edge_id: Any) -> Edge:
        state = self._read(_EDGE, edge_id)
        if state is CURRENT:
            state = self._engine.edge(edge_id)
        return Edge(
            edge_id,
            state.label,
            state.source,
            state.target,
            self._merged_properties(_EDGE, edge_id, state.properties),
        )

    def remove_edge(self, edge_id: Any) -> None:
        self._snapshot
        ws = self._ws
        if edge_id in ws.created_edges:
            self._drop_created_edge(edge_id)
            ws.removed_edges.add(edge_id)
            ws.ops.append(("drop_provisional_edge", edge_id))
            return
        # Already removed inside this transaction or by a commit this
        # snapshot observed: the visible view has no such edge, exactly
        # like a direct double removal.
        self._check_writable(_EDGE, edge_id)
        ws.removed_edges.add(edge_id)
        ws.write_keys.add(edge_key(edge_id))
        ws.ops.append(("remove_edge", edge_id))

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        state = self._read(_EDGE, edge_id)
        if state is CURRENT:
            return self._engine.edge_endpoints(edge_id)
        return state.source, state.target

    def edge_label(self, edge_id: Any) -> str:
        state = self._read(_EDGE, edge_id)
        return self._engine.edge_label(edge_id) if state is CURRENT else state.label

    # ------------------------------------------------------------------
    # Structural traversal primitives
    # ------------------------------------------------------------------

    def _overlay_incident(
        self, vertex_id: Any, direction: Direction, label: str | None, snapshot: int
    ) -> Iterator[Any]:
        """Resurrected + session-created edges incident to ``vertex_id``."""
        ws = self._ws
        for eid, state in self._store.resurrected_edges(vertex_id, snapshot):
            if eid not in ws.removed_edges and (label is None or state.label == label):
                for _pass in range(_incidences(state, vertex_id, direction)):
                    yield eid
        # One pass each: a session-created self-loop yields twice under
        # BOTH, out first, like a resurrected one.
        for _near, added in _PASSES[direction]:
            for pid in getattr(ws, added).get(vertex_id, ()):
                state = ws.created_edges.get(pid)
                if state is not None and (label is None or state.label == label):
                    yield pid

    def _incident_edges(
        self, vertex_id: Any, direction: Direction, label: str | None
    ) -> Iterator[Any]:
        snapshot = self._snapshot
        ws = self._ws
        ws.note_adjacency(vertex_id)
        if vertex_id in ws.created_vertices:
            yield from self._overlay_incident(vertex_id, direction, label, snapshot)
            return
        if self._resolve(_VERTEX, vertex_id) is None:
            raise ElementNotFoundError("vertex", vertex_id)
        if self._store.removed_ts(vertex_key(vertex_id)) > snapshot:
            # The vertex was removed in place after our snapshot; its
            # adjacency survives only in the resurrection index.
            yield from self._overlay_incident(vertex_id, direction, label, snapshot)
            return
        visible = self._store.visible
        for edge_id in self._engine.edges_for(vertex_id, direction, label):
            if edge_id in ws.removed_edges:
                continue
            state = visible(edge_key(edge_id), snapshot)
            if state is CURRENT:
                yield edge_id
                continue
            if state is None:
                continue
            # The engine listed this id from its *current* adjacency, but
            # the snapshot sees a reconstructed state — after freed-id
            # reuse that can be a different edge entirely.  If the old
            # incarnation was removed after the snapshot, the resurrection
            # index below owns it (skip here to avoid double-yield);
            # otherwise this is the same edge with older properties — same
            # endpoints, so the engine already listed it once per pass.
            if self._store.removed_ts(edge_key(edge_id)) > snapshot:
                continue
            if label is None or state.label == label:
                yield edge_id
        yield from self._overlay_incident(vertex_id, direction, label, snapshot)

    def _neighbors(self, vertex_id: Any, direction: Direction, label: str | None) -> Iterator[Any]:
        """Far endpoints of ``vertex_id``'s visible incident edges."""
        snapshot = self._snapshot
        self._ws.note_adjacency(vertex_id)
        if self._vertex_clean(vertex_id, snapshot):
            # Overlay-clean vertex: the engine's own (possibly bulk-charged)
            # neighbour expansion is exactly what a direct caller sees.
            yield from self._engine.neighbors(vertex_id, direction, label)
            return
        for edge_id in self._incident_edges(vertex_id, direction, label):
            source, target = self.edge_endpoints(edge_id)
            if direction is Direction.OUT:
                yield target
            elif direction is Direction.IN:
                yield source
            else:
                yield target if source == vertex_id else source

    def degree(self, vertex_id: Any, direction: Direction = Direction.BOTH) -> int:
        """Incident-edge count, overlay-aware.

        The overlay-dirty path counts incident edges (self-loops twice
        under BOTH, the :class:`GraphDatabase` default); engines that
        override ``degree`` with structure-specific counting (the bitmap
        engine's cardinalities count a self-loop once) keep their own
        semantics only on the overlay-clean path.
        """
        snapshot = self._snapshot
        self._ws.note_adjacency(vertex_id)
        if self._vertex_clean(vertex_id, snapshot):
            return self._engine.degree(vertex_id, direction)
        return GraphDatabase.degree(self, vertex_id, direction)

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        snapshot = self._snapshot
        self._ws.note_adjacency(vertex_id)
        if self._vertex_clean(vertex_id, snapshot):
            return self._engine.degree_at_least(vertex_id, k, direction)
        return GraphDatabase.degree_at_least(self, vertex_id, k, direction)

    # ------------------------------------------------------------------
    # Bulk structural primitives
    # ------------------------------------------------------------------

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Vertex by vertex: overlay-free, through the engine's per-id
        methods; else through the overlay.

        The engine's per-id methods are one-vertex frontiers of its walk, so
        the charges are the walk's.  Asking per vertex keeps a session's
        per-id reads reaching the engine as per-id calls, which is what a
        trace counts, for one generator per vertex of host work on a
        session frontier.
        """
        if self._fast():
            if self._ws.track_reads:
                vertex_ids = list(vertex_ids)
                for vertex_id in vertex_ids:
                    self._ws.note_adjacency(vertex_id)
            expand = self._engine.neighbors if endpoints else self._engine.edges_for
        else:
            expand = self._neighbors if endpoints else self._incident_edges
        for vertex_id in vertex_ids:
            for result in expand(vertex_id, direction, label):
                yield vertex_id, result

    # ------------------------------------------------------------------
    # Search primitives
    # ------------------------------------------------------------------

    def edges_by_label(self, label: str) -> Iterator[Any]:
        snapshot = self._snapshot
        self._ws.note_predicate("edge-label", "label", label)
        if self._fast():
            for edge_id in self._engine.edges_by_label(label):
                self._ws.note_read(edge_key(edge_id))
                yield edge_id
            return
        ws = self._ws
        for edge_id in self._engine.edges_by_label(label):
            if edge_id not in ws.removed_edges and (
                self._store.visible(edge_key(edge_id), snapshot) is not None
            ):
                yield edge_id
        for edge_id in self._store.removed_object_ids("edge", snapshot):
            state = self._resolve(_EDGE, edge_id)
            if state is not None and state is not CURRENT and state.label == label:
                yield edge_id
        for pid, draft in ws.created_edges.items():
            if draft.label == label:
                yield pid

    # ------------------------------------------------------------------
    # Whole-graph statistics
    # ------------------------------------------------------------------

    def vertex_count(self) -> int:
        return self._count(_VERTEX)

    def edge_count(self) -> int:
        return self._count(_EDGE)

    def distinct_edge_labels(self) -> set[str]:
        if self._fast():
            return self._engine.distinct_edge_labels()
        return {self.edge_label(edge_id) for edge_id in self.edge_ids()}

    # ------------------------------------------------------------------
    # Indexes, space, misc (non-transactional; delegated)
    # ------------------------------------------------------------------

    def create_vertex_index(self, key: str) -> None:
        # DDL is not versioned: it takes effect immediately, like the
        # paper's index-creation experiments (Section 6.4).
        self._engine.create_vertex_index(key)

    def has_vertex_index(self, key: str) -> bool:
        return self._engine.has_vertex_index(key)

    def structure_version(self) -> int:
        """Delegate to the engine's structural counter.

        Without this a view would report the :class:`GraphDatabase`
        default of 0 forever, so a structural index built through a
        session could never detect engine-side shape changes.  Historical
        views override this again with the *captured* version of their
        commit — their root is immutable by construction.
        """
        return self._engine.structure_version()

    def space_breakdown(self) -> dict[str, int]:
        return self._engine.space_breakdown()

    def close(self) -> None:  # pragma: no cover - sessions close via commit/abort
        pass


class SnapshotView(VersionedGraph):
    """A strictly read-only :class:`VersionedGraph` over a snapshot pin.

    Replicas serve reads through this view.  Two properties matter:

    * the backing session stub tracks a moving
      :class:`~repro.concurrency.sessions.SnapshotPin`, so one view follows
      a replica through every applied log batch without being rebuilt; and
    * when the pin is fully caught up (``store.clock == snapshot`` and the
      write set is by construction empty), every read takes the ``_fast``
      delegation path — byte-identical answers *and* charges to a direct
      engine read, which is the replication differential harness's
      strongest assertion.

    Mutations are rejected before buffering anything: a replica that
    accepted writes would silently fork the primary's history.
    """

    @property
    def pin(self):
        """The :class:`~repro.concurrency.sessions.SnapshotPin` backing this view."""
        return self._session.pin

    def _read_only(self, operation: str) -> None:
        raise SessionStateError(
            f"snapshot views are read-only: {operation} must run on the primary"
        )

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        self._read_only("add_vertex")

    def remove_vertex(self, vertex_id: Any) -> None:
        self._read_only("remove_vertex")

    def _set_property(self, kind: ElementKind, obj_id: Any, key: str, value: Any) -> None:
        self._read_only(kind.set_op)

    def _remove_property(self, kind: ElementKind, obj_id: Any, key: str) -> None:
        self._read_only(kind.remove_op)

    def add_edge(
        self,
        source_id: Any,
        target_id: Any,
        label: str,
        properties: dict[str, Any] | None = None,
    ) -> Any:
        self._read_only("add_edge")

    def remove_edge(self, edge_id: Any) -> None:
        self._read_only("remove_edge")

    def create_vertex_index(self, key: str) -> None:
        self._read_only("create_vertex_index")
