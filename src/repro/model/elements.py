"""Vertices, edges, and traversal directions of the attributed graph model.

Graph databases adopt the attributed (property) graph model: nodes and edges
are first-class citizens with internal identifiers, edges carry a label, and
both nodes and edges carry a set of name/value properties (paper, Section 3).
The classes here are *views* returned by engines — immutable snapshots of an
element's identity, label, and properties at read time.  Mutations always go
through the owning :class:`~repro.model.graph.GraphDatabase` so that the
engine's storage structures are charged for the work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, TypeVar

_T = TypeVar("_T")


class Direction(enum.Enum):
    """Direction of edge incidence used by traversal primitives."""

    OUT = "out"
    IN = "in"
    BOTH = "both"

    def reverse(self) -> "Direction":
        """Return the opposite direction (BOTH is its own reverse)."""
        if self is Direction.OUT:
            return Direction.IN
        if self is Direction.IN:
            return Direction.OUT
        return Direction.BOTH

    #: Members are singletons compared by identity, so the identity hash
    #: (in C) is exact; ``Enum``'s hashes the name in Python, and a
    #: walk may look its pass table up once per vertex.
    __hash__ = object.__hash__


def pass_table(one_way: Mapping[Direction, _T]) -> dict[Direction, tuple[_T, ...]]:
    """Extend a per-pass table ``{OUT: x, IN: y}`` to every direction.

    This is the one place the pass order is written: BOTH is the out pass,
    then the in pass, so a self-loop is met twice, out first.  Every
    adjacency walk — each engine's and the overlay's — iterates a table
    built here.
    """
    out, in_ = one_way[Direction.OUT], one_way[Direction.IN]
    return {Direction.OUT: (out,), Direction.IN: (in_,), Direction.BOTH: (out, in_)}


@dataclass(frozen=True, eq=False)
class ElementKind:
    """One of the two element kinds, with the names that differ between them.

    Both kinds carry properties, so every property primitive is one body
    taking a kind (:data:`VERTEX` or :data:`EDGE`); the names it needs are
    read from here, never built.  Kinds compare and hash by identity.
    """

    #: The kind an :class:`~repro.exceptions.ElementNotFoundError` reports.
    name: str
    #: WAL operations of a property write and a property removal.
    set_op: str
    remove_op: str


VERTEX = ElementKind("vertex", "set_vertex_property", "remove_vertex_property")
EDGE = ElementKind("edge", "set_edge_property", "remove_edge_property")


#: Sentinel meaning "no value constraint" in :meth:`Vertex.has`.
_ANY_VALUE = object()


@dataclass(frozen=True)
class Vertex:
    """A read-time snapshot of a vertex."""

    id: Any
    label: str | None = None
    properties: Mapping[str, Any] = field(default_factory=dict)

    def value(self, key: str) -> Any:
        """Return the value of property ``key``, or None if it is unset."""
        return self.properties.get(key)

    def has(self, key: str, value: Any = _ANY_VALUE) -> bool:
        """True if the vertex has property ``key`` (optionally equal to ``value``)."""
        if key not in self.properties:
            return False
        if value is _ANY_VALUE:
            return True
        return self.properties[key] == value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Vertex(id={self.id!r}, label={self.label!r})"


@dataclass(frozen=True)
class Edge:
    """A read-time snapshot of an edge."""

    id: Any
    label: str
    source: Any
    target: Any
    properties: Mapping[str, Any] = field(default_factory=dict)

    def value(self, key: str) -> Any:
        """Return the value of property ``key``, or None if it is unset."""
        return self.properties.get(key)

    def other(self, vertex_id: Any) -> Any:
        """Return the endpoint on the other side of ``vertex_id``."""
        return self.target if vertex_id == self.source else self.source

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Edge(id={self.id!r}, label={self.label!r}, "
            f"source={self.source!r}, target={self.target!r})"
        )
