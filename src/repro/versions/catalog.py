"""Commits, tags, retention, and as-of views: named versions of one graph.

A :class:`VersionCatalog` promotes the history the MVCC layer already
retains into first-class, queryable versions — the git-for-datasets
surface ROADMAP item 1 asks for:

* :meth:`VersionCatalog.commit` seals the current committed state as a
  :class:`Commit`: an immutable root identified by the version store's
  commit clock, holding a refcounted
  :class:`~repro.concurrency.sessions.SnapshotPin` so the garbage
  collector keeps every undo chain the commit's snapshot needs;
* :meth:`VersionCatalog.tag` binds a name to a commit in a *charged*
  :class:`RefStore` and retains the commit's pin — a tagged commit
  survives any retention policy until its last ref is deleted;
* :meth:`VersionCatalog.apply_retention` drops the catalog's own pin
  references per policy (``keep-all`` / ``keep-tagged`` / ``depth-N``),
  trading as-of reach for GC reclaim — the fig15 axis;
* :meth:`VersionCatalog.view` (surfaced as
  :meth:`~repro.model.graph.GraphDatabase.at_version`) returns a
  :class:`HistoricalView` — a read-only graph fixed at the commit that
  routes through the session machinery, so **any** existing query or
  traversal runs as-of that version unchanged.

The as-of differential contract (``tests/versions/``): a query against
``at_version(v)`` is identical in results to the same query run live at
the moment ``v`` was committed, on all nine engines, under CUD churn
between commits; at the *head* commit the view takes the overlay's
``_fast`` delegation path, so results **and base charges** are
byte-identical to direct execution.

Writes must go through the session layer (``engine.begin_session()``):
a direct engine write bypasses the version store, silently mutating
every retained snapshot.  The same rule already governs replication.
"""

from __future__ import annotations

from typing import Any

from repro.concurrency.sessions import SessionManager, SnapshotPin, _PinnedSession
from repro.concurrency.versioning import SnapshotView
from repro.exceptions import UnknownVersionError, VersionError
from repro.model.graph import GraphDatabase
from repro.storage.metrics import StorageMetrics

#: Retention policies :meth:`VersionCatalog.apply_retention` understands
#: (``depth-N`` for any positive integer N, e.g. ``"depth-4"``).
RETENTION_POLICIES = ("keep-all", "keep-tagged", "depth-N")

#: The reserved ref name resolving to the newest commit.
HEAD = "HEAD"


class Commit:
    """One immutable point in a graph's history.

    A commit is metadata plus a shared :class:`SnapshotPin`: the pin's
    reference count is one (the catalog's own *base* reference, dropped
    by retention policies) plus one per tag ref pointing here.  While any
    reference holds the pin, the GC low-water mark cannot pass the
    commit's snapshot and every before-image its readers need stays
    resurrectable.  Once the last reference releases, the commit stays in
    the catalog as history metadata but can no longer be read —
    :meth:`VersionCatalog.view` refuses with :class:`VersionError`.

    ``structure_version`` is captured from the engine at commit time so a
    structural index built over a :class:`HistoricalView` validates
    against the *historical* root forever, regardless of how the live
    engine's shape moves on.
    """

    __slots__ = (
        "id",
        "snapshot_ts",
        "parent_id",
        "message",
        "structure_version",
        "tags",
        "pin",
        "base_retained",
    )

    def __init__(
        self,
        commit_id: int,
        snapshot_ts: int,
        parent_id: int | None,
        message: str,
        structure_version: int,
        pin: SnapshotPin,
    ) -> None:
        self.id = commit_id
        self.snapshot_ts = snapshot_ts
        self.parent_id = parent_id
        self.message = message
        self.structure_version = structure_version
        #: Names currently pointing at this commit (mirrors the ref store).
        self.tags: set[str] = set()
        self.pin = pin
        #: True while the catalog's own pin reference is held; retention
        #: policies drop it, leaving only tag references (if any).
        self.base_retained = True

    @property
    def retained(self) -> bool:
        """True while the commit's snapshot is still pinned (readable)."""
        return not self.pin.released

    @property
    def state(self) -> str:
        return "retained" if self.retained else "released"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        tags = f" tags={sorted(self.tags)}" if self.tags else ""
        return f"<Commit {self.id} @{self.snapshot_ts} {self.state}{tags}>"


class RefStore:
    """Charged name → commit-id table: the catalog's durable metadata.

    Refs are the only versioning state clients address by name, so they
    are modelled as a real storage structure with their own
    :class:`StorageMetrics`: a write charges an index update plus a
    record write, a resolve charges an index probe (plus a record read on
    a hit), a delete charges an index update.  The charges land on the
    ref store's own sink, never on the engine — version-metadata traffic
    must not pollute the as-of charge-parity contract.
    """

    def __init__(self) -> None:
        self.metrics = StorageMetrics(owner="version-refs")
        self._refs: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._refs)

    def set(self, name: str, commit_id: int) -> None:
        self.metrics.charge_index_update()
        self.metrics.charge_record_write(1, nbytes=len(repr((name, commit_id))))
        self._refs[name] = commit_id

    def get(self, name: str) -> int | None:
        self.metrics.charge_index_probe()
        commit_id = self._refs.get(name)
        if commit_id is not None:
            self.metrics.charge_record_read(1, nbytes=len(repr((name, commit_id))))
        return commit_id

    def delete(self, name: str) -> int | None:
        self.metrics.charge_index_update()
        return self._refs.pop(name, None)

    def names(self) -> list[str]:
        """Every ref name in creation order (a charged scan)."""
        self.metrics.charge_index_probe(max(1, len(self._refs)))
        return list(self._refs)

    @property
    def charge(self) -> int:
        """Total logical I/O the ref store has charged."""
        return self.metrics.logical_io


class HistoricalView(SnapshotView):
    """A read-only graph fixed at a :class:`Commit`.

    Three things distinguish it from the replication tier's moving
    :class:`~repro.concurrency.versioning.SnapshotView`:

    * the backing pin never moves, so the view answers for one instant
      forever (or until retention releases the commit, after which reads
      raise :class:`~repro.exceptions.SessionStateError`);
    * it mirrors the engine's planner surface (``info`` /
      ``optimizes_steps``), so the Gremlin optimizer builds the *same
      plan* for an as-of traversal as for the live one — step conflation
      and count pushdown route to the view's overlay-aware methods, which
      is what makes head-commit as-of runs charge-identical to direct
      execution;
    * :meth:`structure_version` returns the version captured at commit
      time, so a structural index built over the view validates against
      the historical root and never goes stale as the live engine moves.
    """

    def __init__(self, engine: GraphDatabase, store: Any, commit: Commit) -> None:
        super().__init__(engine, store, _PinnedSession(commit.pin))
        self.commit = commit
        self.name = f"asof:{engine.name}@{commit.id}"
        self.info = getattr(engine, "info", None)
        self.optimizes_steps = getattr(engine, "optimizes_steps", False)

    def structure_version(self) -> int:
        return self.commit.structure_version


class VersionCatalog:
    """Commit/tag/retention coordinator for one engine's history.

    One catalog exists per engine instance
    (:meth:`~repro.model.graph.GraphDatabase.versions` caches it, like
    ``transactions()``); it shares the engine's
    :class:`~repro.concurrency.sessions.SessionManager`, whose version
    store is the single source of history truth.
    """

    def __init__(self, engine: GraphDatabase, manager: SessionManager | None = None) -> None:
        self.engine = engine
        self.manager = manager if manager is not None else engine.transactions()
        self.refs = RefStore()
        #: Commit id → commit, in commit order (metadata survives release).
        self.commits: dict[int, Commit] = {}
        self.head_id: int | None = None
        self._next_commit_id = 1

    # -- commits ------------------------------------------------------------

    def commit(self, tag: str | None = None, message: str = "") -> Commit:
        """Seal the currently *committed* state as a new version.

        Pins the version store's clock (open sessions' uncommitted writes
        are invisible to the pin, exactly as they are to any reader) and
        captures the engine's structure version.  Pinning is what forces
        every later mutating commit to capture before-images, so the
        sealed state stays reconstructable.
        """
        snapshot_ts = self.manager.store.clock
        pin = self.manager.pin(snapshot_ts)
        commit = Commit(
            self._next_commit_id,
            snapshot_ts,
            self.head_id,
            message,
            self.engine.structure_version(),
            pin,
        )
        self._next_commit_id += 1
        self.commits[commit.id] = commit
        self.head_id = commit.id
        if tag is not None:
            self.tag(tag, commit)
        return commit

    @property
    def head(self) -> Commit | None:
        return self.commits.get(self.head_id) if self.head_id is not None else None

    def resolve(self, ref: Any) -> Commit:
        """Resolve a ref — a :class:`Commit`, a commit id, ``"HEAD"``, or a
        tag name (a charged ref-store lookup) — to its commit."""
        if isinstance(ref, Commit):
            if self.commits.get(ref.id) is not ref:
                raise UnknownVersionError(ref)
            return ref
        if isinstance(ref, int) and not isinstance(ref, bool):
            commit = self.commits.get(ref)
            if commit is None:
                raise UnknownVersionError(ref)
            return commit
        if ref == HEAD:
            head = self.head
            if head is None:
                raise UnknownVersionError(ref)
            return head
        if isinstance(ref, str):
            commit_id = self.refs.get(ref)
            if commit_id is None:
                raise UnknownVersionError(ref)
            return self.commits[commit_id]
        raise UnknownVersionError(ref)

    # -- tags ---------------------------------------------------------------

    def tag(self, name: str, ref: Any = HEAD) -> Commit:
        """Bind ``name`` to a commit; the ref retains the commit's pin.

        Retagging an existing name moves it: the new target gains a pin
        reference before the old target loses one, so a name can never
        transiently leave its old commit collectable.
        """
        if name == HEAD:
            raise VersionError(f"{HEAD!r} is a reserved ref name")
        commit = self.resolve(ref)
        if not commit.retained:
            raise VersionError(
                f"commit {commit.id} was released by retention and cannot be tagged"
            )
        previous_id = self.refs.get(name)
        if previous_id == commit.id:
            return commit
        commit.pin.retain()
        commit.tags.add(name)
        self.refs.set(name, commit.id)
        if previous_id is not None:
            previous = self.commits[previous_id]
            previous.tags.discard(name)
            previous.pin.release()
        return commit

    def delete_tag(self, name: str) -> Commit:
        """Delete a ref; dropping a commit's last reference lets the next
        garbage collection reclaim its undo chains."""
        commit_id = self.refs.get(name)
        if commit_id is None:
            raise UnknownVersionError(name)
        self.refs.delete(name)
        commit = self.commits[commit_id]
        commit.tags.discard(name)
        commit.pin.release()
        return commit

    # -- retention ----------------------------------------------------------

    def apply_retention(self, policy: str) -> list[int]:
        """Drop the catalog's *base* pin references per ``policy``.

        ``keep-all`` drops nothing; ``keep-tagged`` keeps the head and
        every tagged commit; ``depth-N`` keeps the head's most recent N
        ancestors (inclusive).  Tag references are never touched — a tag
        is explicit user intent and outranks any policy — so under
        ``keep-tagged`` a commit dies exactly when its last tag does.
        Returns the ids whose base reference was dropped this pass; pins
        reaching zero trigger garbage collection immediately.
        """
        if policy == "keep-all":
            return []
        if policy == "keep-tagged":
            def keeps(commit: Commit) -> bool:
                return bool(commit.tags)
        elif policy.startswith("depth-"):
            try:
                depth = int(policy[len("depth-"):])
            except ValueError:
                raise VersionError(
                    f"bad retention policy {policy!r}: depth-N needs an integer N"
                ) from None
            if depth < 1:
                raise VersionError(f"bad retention policy {policy!r}: N must be >= 1")
            recent: set[int] = set()
            commit_id = self.head_id
            while commit_id is not None and len(recent) < depth:
                recent.add(commit_id)
                commit_id = self.commits[commit_id].parent_id

            def keeps(commit: Commit) -> bool:
                return commit.id in recent
        else:
            raise VersionError(
                f"unknown retention policy {policy!r}; choose from {RETENTION_POLICIES}"
            )
        dropped: list[int] = []
        for commit_id in sorted(self.commits):
            commit = self.commits[commit_id]
            if not commit.base_retained or commit_id == self.head_id:
                continue
            if keeps(commit):
                continue
            commit.base_retained = False
            commit.pin.release()
            dropped.append(commit_id)
        return dropped

    # -- as-of views and diff -----------------------------------------------

    def view(self, ref: Any = HEAD) -> HistoricalView:
        """A read-only graph fixed at ``ref`` (any query runs against it)."""
        commit = self.resolve(ref)
        if not commit.retained:
            raise VersionError(
                f"commit {commit.id} (snapshot {commit.snapshot_ts}) was released "
                "by retention; its undo chains may already be garbage-collected"
            )
        return HistoricalView(self.engine, self.manager.store, commit)

    def diff(self, base: Any, target: Any) -> "VersionDiff":
        """Structural diff between two retained commits (see :mod:`.diff`)."""
        from repro.versions.diff import structural_diff

        return structural_diff(self, base, target)

    # -- introspection ------------------------------------------------------

    def retained_commits(self) -> list[Commit]:
        return [self.commits[cid] for cid in sorted(self.commits) if self.commits[cid].retained]

    def snapshot(self) -> dict[str, Any]:
        """Deterministic catalog counters for benchmark rows."""
        store = self.manager.store
        retained = len(self.retained_commits())
        return {
            "commits": len(self.commits),
            "retained_commits": retained,
            "released_commits": len(self.commits) - retained,
            "refs": len(self.refs),
            "ref_charge": self.refs.charge,
            "retained_bytes": store.retained_bytes(),
            **store.gc_snapshot(),
        }
