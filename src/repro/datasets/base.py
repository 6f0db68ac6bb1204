"""Dataset containers and the dataset registry.

A :class:`Dataset` is the engine-independent exchange format: plain lists of
vertex and edge dictionaries, exactly what
:meth:`repro.model.graph.GraphDatabase.load` accepts and what the GraphSON
reader and writer produce and consume.  Generators register themselves under
the names used throughout the paper (``"frb-s"``, ``"ldbc"``, ...), so the
benchmark harness and the CLI can refer to datasets by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import DatasetError


@dataclass
class Dataset:
    """An in-memory property graph in exchange format.

    Attributes
    ----------
    name:
        Dataset identifier (e.g. ``"frb-o"``).
    vertices:
        List of ``{"id", "label", "properties"}`` dictionaries with
        dataset-local (external) ids.
    edges:
        List of ``{"source", "target", "label", "properties"}`` dictionaries
        referring to the external vertex ids.
    description:
        One-line description used in reports.
    """

    name: str
    vertices: list[dict[str, Any]] = field(default_factory=list)
    edges: list[dict[str, Any]] = field(default_factory=list)
    description: str = ""

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertex_ids(self) -> list[Any]:
        """Return the external ids of every vertex."""
        return [vertex["id"] for vertex in self.vertices]

    def edge_labels(self) -> set[str]:
        """Return the distinct edge labels."""
        return {edge.get("label", "edge") for edge in self.edges}

    def validate(self) -> None:
        """Check referential integrity; raise :class:`DatasetError` on problems."""
        ids = set()
        for vertex in self.vertices:
            if "id" not in vertex:
                raise DatasetError(f"dataset {self.name!r}: vertex without an id: {vertex!r}")
            if vertex["id"] in ids:
                raise DatasetError(f"dataset {self.name!r}: duplicate vertex id {vertex['id']!r}")
            ids.add(vertex["id"])
        for edge in self.edges:
            if edge.get("source") not in ids or edge.get("target") not in ids:
                raise DatasetError(
                    f"dataset {self.name!r}: edge {edge!r} references an unknown vertex"
                )


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: a named generator plus its descriptive metadata."""

    name: str
    generator: Callable[..., Dataset]
    description: str


_REGISTRY: dict[str, DatasetSpec] = {}


def register_dataset(name: str, generator: Callable[..., Dataset], description: str) -> None:
    """Register ``generator`` under ``name`` (used by the built-in datasets)."""
    _REGISTRY[name] = DatasetSpec(name=name, generator=generator, description=description)


def available_datasets() -> tuple[str, ...]:
    """Return the names of every registered dataset, in registration order."""
    _ensure_builtin_datasets()
    return tuple(_REGISTRY)


def get_dataset(name: str, scale: float = 1.0, seed: int | None = None) -> Dataset:
    """Generate the dataset registered under ``name``.

    ``scale`` multiplies the default (already laptop-sized) node and edge
    counts; ``seed`` overrides the generator's default seed.
    """
    _ensure_builtin_datasets()
    try:
        spec = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise DatasetError(f"unknown dataset {name!r}; known datasets: {known}") from None
    kwargs: dict[str, Any] = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return spec.generator(**kwargs)


def _ensure_builtin_datasets() -> None:
    """Import the built-in generator modules so they self-register."""
    if _REGISTRY:
        return
    # Imported lazily to avoid circular imports at package load time.
    from repro.datasets import freebase, ldbc, mico, yeast  # noqa: F401
