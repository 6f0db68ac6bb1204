"""Simulated graph database engines.

Each module implements one of the architectures evaluated by the paper
(Table 1) on top of the substrates in :mod:`repro.storage`.  Engines are
created through :func:`repro.engines.registry.create_engine` using the same
system identifiers the benchmark reports use (``"nativelinked-1.9"``,
``"columnar-1.0"``, and so on).
"""

from repro.engines.base import BaseEngine, EngineInfo
from repro.engines.registry import (
    ALL_ENGINES,
    DEFAULT_ENGINES,
    available_engines,
    create_engine,
    engine_info,
    resolve_engine_id,
)
from repro.engines.native_linked import NativeLinkedEngine, NativeLinkedV3Engine
from repro.engines.native_indirect import NativeIndirectEngine
from repro.engines.bitmap_engine import BitmapEngine
from repro.engines.columnar_engine import ColumnarEngine, ColumnarV1Engine
from repro.engines.document_engine import DocumentEngine
from repro.engines.triple_engine import TripleEngine
from repro.engines.relational_engine import RelationalEngine

__all__ = [
    "BaseEngine",
    "EngineInfo",
    "ALL_ENGINES",
    "DEFAULT_ENGINES",
    "available_engines",
    "create_engine",
    "engine_info",
    "resolve_engine_id",
    "NativeLinkedEngine",
    "NativeLinkedV3Engine",
    "NativeIndirectEngine",
    "BitmapEngine",
    "ColumnarEngine",
    "ColumnarV1Engine",
    "DocumentEngine",
    "TripleEngine",
    "RelationalEngine",
]
