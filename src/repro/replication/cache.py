"""Charged hot-vertex / ghost-adjacency caches with explicit invalidation.

A :class:`ChargedCache` is a deterministic LRU whose every effect is
either charged or ledgered:

* a **miss** costs nothing by itself — the caller pays the cold read and
  then admits the payload together with the charge it paid, so the cache
  knows exactly what a future hit is worth;
* a **hit** charges zero engine I/O and books the entry's recorded cold
  charge into ``saved_charge`` — "cache-hit reads are charge-identical to
  cold reads minus the modelled saved I/O" is therefore an exact ledger
  identity, not an approximation;
* an **invalidation** (one per CUD per cached entry, driven by the commit's
  :attr:`~repro.concurrency.sessions.CommitResult.invalidation_keys`)
  charges :attr:`ChargedCache.invalidation_charge_per_entry` — the
  cache-coherence traffic real replicated stores pay on every write.

Eviction is strict LRU over an insertion-ordered dict: hits move entries
to the back, overflow pops from the front.  No randomness, no wall clock —
a storm replayed with the same seed leaves byte-identical ledgers, which
the cache unit tests pin run-to-run.

BVLSM (PAPERS.md, arXiv:2506.04678) motivates the shape: cache keys are
small ``(kind, id)`` tuples kept separate from the (potentially large)
payloads, so invalidation fan-out never touches payload bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

#: Charge per cached entry dropped by a CUD's invalidation fan-out: one
#: coherence message decoded plus one index probe to find the entry.
DEFAULT_INVALIDATION_CHARGE = 4


@dataclass(frozen=True)
class CacheEntry:
    """One cached payload plus the provenance a hit must reproduce."""

    payload: Any
    #: Engine/network charge the cold read paid — exactly what a hit saves.
    charge: int
    #: Snapshot timestamp the payload was read at (coherence witness).
    version: int


@dataclass
class CacheStats:
    """Ledger of everything a cache did, in deterministic integers."""

    hits: int = 0
    misses: int = 0
    admissions: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Charge units hits skipped (sum of hit entries' recorded cold charges).
    saved_charge: int = 0
    #: Charge units paid to drop entries on CUD fan-out.
    invalidation_charge: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def ledger(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "saved_charge": self.saved_charge,
            "invalidation_charge": self.invalidation_charge,
            "hit_rate": round(self.hit_rate, 6),
        }

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.admissions += other.admissions
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        self.saved_charge += other.saved_charge
        self.invalidation_charge += other.invalidation_charge


@dataclass
class ChargedCache:
    """Deterministic LRU cache with charged invalidation.

    ``capacity == 0`` disables the cache entirely: lookups miss, admissions
    are dropped, invalidations are free no-ops — the cache-off benchmark
    cells run through the same code path with zero ledger noise.
    """

    name: str
    capacity: int
    invalidation_charge_per_entry: int = DEFAULT_INVALIDATION_CHARGE
    stats: CacheStats = field(default_factory=CacheStats, init=False)
    _entries: "OrderedDict[Any, CacheEntry]" = field(default_factory=OrderedDict, init=False)

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[Any]:
        """Current keys in LRU order (front = next eviction victim)."""
        return list(self._entries)

    def lookup(self, key: Any) -> CacheEntry | None:
        """Return the entry for ``key`` (refreshing recency) or record a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.saved_charge += entry.charge
        return entry

    def admit(self, key: Any, payload: Any, charge: int, version: int) -> None:
        """Install a payload a cold read just paid ``charge`` for."""
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            self.stats.admissions += 1
        self._entries[key] = CacheEntry(payload=payload, charge=charge, version=version)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: Any) -> int:
        """Drop ``key`` if cached; returns the charge the drop cost.

        Exactly one charge per resident entry: invalidating an absent key
        is free (nothing was cached, no coherence work happened), and a key
        cannot be dropped twice for one CUD because the first drop removes
        it.
        """
        if key not in self._entries:
            return 0
        del self._entries[key]
        self.stats.invalidations += 1
        charge = self.invalidation_charge_per_entry
        self.stats.invalidation_charge += charge
        return charge

    def clear(self) -> int:
        """Drop everything without charging (shutdown, not coherence)."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped


def cache_keys_for(invalidation_key: tuple[str, Any]) -> tuple[tuple[str, Any], ...]:
    """The cache keys a commit's invalidation key dirties.

    A written vertex dirties both its cached record and its cached
    adjacency row.  A written edge dirties nothing *directly* — adjacency
    payloads are cached under the endpoint vertices, and
    :meth:`SessionManager._invalidation_keys` already expanded created and
    removed edges into endpoint vertex keys; an edge-property write leaves
    every cached vertex payload valid.
    """
    kind, obj_id = invalidation_key
    if kind == "vertex":
        return (("record", obj_id), ("adj", obj_id))
    return ()
