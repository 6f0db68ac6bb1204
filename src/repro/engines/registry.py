"""Engine registry: system identifiers to engine classes.

The benchmark harness, reports, and examples refer to engines by the string
identifiers listed in :data:`ALL_ENGINES`.  The mapping mirrors the paper's
system/version matrix: two versions of the native linked-record engine and
of the columnar engine, one version of everything else.
"""

from __future__ import annotations

from typing import Callable

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.engines.bitmap_engine import BitmapEngine
from repro.engines.columnar_engine import ColumnarEngine, ColumnarV1Engine
from repro.engines.document_engine import DocumentEngine
from repro.engines.native_indirect import NativeIndirectEngine
from repro.engines.native_linked import NativeLinkedEngine, NativeLinkedV3Engine
from repro.engines.relational_engine import RelationalEngine
from repro.engines.triple_engine import TripleEngine
from repro.exceptions import BenchmarkError

_REGISTRY: dict[str, type[BaseEngine]] = {
    "nativelinked-1.9": NativeLinkedEngine,
    "nativelinked-3.0": NativeLinkedV3Engine,
    "nativeindirect-2.2": NativeIndirectEngine,
    "bitmapgraph-5.1": BitmapEngine,
    "columnargraph-0.5": ColumnarEngine,
    "columnargraph-1.0": ColumnarV1Engine,
    "documentgraph-2.8": DocumentEngine,
    "triplegraph-2.1": TripleEngine,
    "relationalgraph-1.2": RelationalEngine,
}

#: Every registered system identifier, in report order.
ALL_ENGINES: tuple[str, ...] = tuple(_REGISTRY)

#: The subset used by default in tests and examples: one version per system.
DEFAULT_ENGINES: tuple[str, ...] = (
    "nativelinked-1.9",
    "nativeindirect-2.2",
    "bitmapgraph-5.1",
    "columnargraph-1.0",
    "documentgraph-2.8",
    "triplegraph-2.1",
    "relationalgraph-1.2",
)


def available_engines() -> tuple[str, ...]:
    """Return every registered engine identifier."""
    return tuple(_REGISTRY)


def resolve_engine_id(name: str) -> str:
    """Resolve ``name`` to a registered identifier, accepting short aliases.

    Exact identifiers pass through; otherwise ``name`` matches by prefix
    (``"triple"`` → ``"triplegraph-2.1"``).  A prefix matching several
    identifiers (``"nativelinked"``, ``"columnar"``, ``"native"``) is an
    error that lists every match: silently preferring one version would
    make a benchmark run measure a different engine than the one the user
    thought they named.
    """
    if name in _REGISTRY:
        return name
    matches = sorted(identifier for identifier in _REGISTRY if identifier.startswith(name))
    if not matches:
        known = ", ".join(sorted(_REGISTRY))
        raise BenchmarkError(f"unknown engine {name!r}; known engines: {known}")
    if len(matches) == 1:
        return matches[0]
    raise BenchmarkError(
        f"ambiguous engine prefix {name!r}: matches {', '.join(matches)}; "
        "use one of those exact identifiers"
    )


def create_engine(
    identifier: str,
    config: EngineConfig | None = None,
    **overrides: object,
) -> BaseEngine:
    """Instantiate the engine registered under ``identifier``.

    ``overrides`` are applied on top of ``config`` (or the engine defaults),
    e.g. ``create_engine("nativelinked-1.9", memory_budget=10_000_000)``.
    """
    try:
        engine_class = _REGISTRY[identifier]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BenchmarkError(f"unknown engine {identifier!r}; known engines: {known}") from None
    if overrides:
        config = (config or EngineConfig()).with_overrides(**overrides)
    return engine_class(config)


def engine_info(identifier: str) -> EngineInfo:
    """Return the Table 1 metadata of the engine registered under ``identifier``."""
    try:
        return _REGISTRY[identifier].info
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BenchmarkError(f"unknown engine {identifier!r}; known engines: {known}") from None


def engine_factory(identifier: str) -> Callable[[], BaseEngine]:
    """Return a zero-argument factory for ``identifier`` (used by the harness)."""

    def factory() -> BaseEngine:
        return create_engine(identifier)

    return factory
