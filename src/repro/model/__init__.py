"""The attributed property-graph model shared by every engine."""

from repro.model.elements import Edge, Vertex, Direction
from repro.model.graph import GraphDatabase

__all__ = ["Vertex", "Edge", "Direction", "GraphDatabase"]
