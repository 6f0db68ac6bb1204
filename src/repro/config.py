"""Configuration objects shared by engines and the benchmark harness.

The paper runs every system inside a Docker container on a fixed machine
with vendor-recommended settings, a two-hour query timeout, and all the RAM
the machine offers.  The equivalents here are plain dataclasses: an
:class:`EngineConfig` describing the per-engine knobs that matter for the
simulated architectures, and a :class:`BenchConfig` describing how the
harness executes queries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


#: Default simulated memory budget, in bytes of tracked payload.  The real
#: testbed had 128 GB of RAM; engines here track the bytes of materialised
#: intermediate state and fail with ``MemoryBudgetExceededError`` once the
#: budget is crossed, which is how the paper's out-of-memory failures
#: (Sparksee on Q28-Q31) are reproduced at laptop scale.
DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024


@dataclass
class EngineConfig:
    """Tunable parameters of a simulated graph database engine.

    Attributes
    ----------
    memory_budget:
        Maximum bytes of materialised intermediate state the engine may hold
        before raising :class:`~repro.exceptions.MemoryBudgetExceededError`.
    bulk_load:
        When true, engines skip per-item index maintenance during
        :meth:`~repro.model.graph.GraphDatabase.load` and rebuild indexes at
        the end (the paper's "bulk loading" switch for BlazeGraph, schema
        pre-declaration for Titan, and native loader scripts for ArangoDB /
        OrientDB).
    auto_index_properties:
        Property keys for which the engine should maintain an attribute
        index from the start (Section 6.4, "Effect of Indexing").
    durability:
        ``"sync"`` flushes every write through the WAL immediately;
        ``"async"`` defers flushing (ArangoDB's client-visible behaviour).
    """

    memory_budget: int = DEFAULT_MEMORY_BUDGET
    bulk_load: bool = True
    auto_index_properties: tuple[str, ...] = ()
    durability: str = "sync"

    def with_overrides(self, **overrides: object) -> "EngineConfig":
        """Return a copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass
class BenchConfig:
    """Execution parameters of the benchmark harness.

    Attributes
    ----------
    timeout:
        Per-query wall-clock limit in seconds (the paper used 2 hours; the
        default here is scaled down so the suite completes on a laptop).
    batch_size:
        Number of repetitions used for batch mode (the paper used 10).
    seed:
        Random seed used to pick query parameters.  The same seed is reused
        for every engine so that all systems answer exactly the same
        queries, as required by the paper's fairness principle.
    """

    timeout: float = 10.0
    batch_size: int = 10
    seed: int = 20181204
