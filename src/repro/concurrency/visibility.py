"""The MVCC visibility rule: what one snapshot sees of one key's history.

Pure functions over the marks a single ``(kind, id)`` key carries in the
version store — no engine, store or session is imported here, so
the rule can be enumerated exhaustively
(``tests/concurrency/test_visibility.py``).  The store looks the marks up
and delegates; the session overlay layers its write set on top.

How the marks are written (``SessionManager._publish`` /
``_capture_before_images``): every commit that writes, creates or removes
a key stamps ``committed_ts`` with its timestamp; a creation also stamps
``created_ts``, a removal ``removed_ts``.  When an older snapshot could
observe the commit it additionally pushes one undo entry
``(commit_ts, state_before)`` per key — ``None`` when the key named no
object before the commit.  A commit that removes an object and creates a
new one under the reused id pushes the *old* object's state (capture runs
before apply), so each entry is exactly what the key held just before its
commit.
"""

from __future__ import annotations

from typing import Any, Iterable

#: Returned by :func:`visible_state` when the engine's current (in-place)
#: state is the one visible at the snapshot.
CURRENT = object()


def visible_state(
    created_ts: int,
    committed_ts: int,
    undo_chain: Iterable[tuple[int, Any]],
    snapshot: int,
) -> Any:
    """What a reader at ``snapshot`` sees for one key.

    ``CURRENT`` — ask the engine, its in-place state is the visible one
    (which may be "no such object"); ``None`` — the key named no object at
    the snapshot; anything else — the captured state to serve instead.

    Every other mark is stamped together with ``committed_ts``, so
    ``committed_ts <= snapshot`` means no commit after the snapshot touched
    the key.  ``undo_chain`` is in ascending commit order.  The first entry
    after the snapshot is the state just before the first commit the
    reader must not see, i.e. the state *at* the snapshot — a real state
    for an old incarnation of a reused id, ``None`` for a creation boundary
    or the gap between a removal and a re-creation.  ``created_ts`` only
    remembers the key's latest creation, so it decides alone only when no
    entry was captured: that happens when no older reader existed at
    commit time, and then hiding a key created after the snapshot (or
    falling back to the engine for one overwritten after it) cannot be
    observed by anyone.
    """
    if committed_ts <= snapshot:
        return CURRENT
    for commit_ts, state in undo_chain:
        if commit_ts > snapshot:
            return state
    return None if created_ts > snapshot else CURRENT


def removed_as_of(created_ts: int, removed_ts: int, snapshot: int) -> bool:
    """True if the key was removed at/before ``snapshot`` and not re-created.

    ``0`` means "no such mark".  Strict ``<``: equal timestamps mean one
    commit removed the old object and created a new one that the engine
    assigned the same id — the id exists after that commit, so it is not
    removed.  (Creation followed by removal inside one session never
    leaves marks at all: the provisional object is dropped before apply.)
    """
    return 0 < removed_ts <= snapshot and created_ts < removed_ts
