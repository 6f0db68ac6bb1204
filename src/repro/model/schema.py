"""Lightweight schema tracking for labels and property keys.

The engines in the paper differ in how much schema they require: Titan is
fastest when the schema is declared before loading, Sqlg materialises one
table per label, OrientDB keeps per-label clusters with a configurable cap
on the number of edge labels (Section 6.1).  :class:`GraphSchema` gives every
engine a common place to track the labels and property keys it has seen, to
validate declared schemas, and to expose label statistics to the benchmark
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SchemaError


@dataclass
class GraphSchema:
    """Observed (or declared) labels and property keys of a graph.

    Attributes
    ----------
    max_edge_labels:
        Optional cap on the number of distinct edge labels the engine
        supports (OrientDB's default cap is modelled through this).
    strict:
        When true, labels must be declared with :meth:`declare_edge_label` /
        :meth:`declare_vertex_label` before use (Titan with automatic schema
        inference disabled).
    """

    max_edge_labels: int | None = None
    strict: bool = False
    vertex_labels: set[str] = field(default_factory=set)
    edge_labels: set[str] = field(default_factory=set)
    vertex_property_keys: set[str] = field(default_factory=set)
    edge_property_keys: set[str] = field(default_factory=set)

    # -- declaration -------------------------------------------------------

    def declare_vertex_label(self, label: str) -> None:
        self.vertex_labels.add(label)

    def declare_edge_label(self, label: str) -> None:
        self._check_edge_label_capacity(label)
        self.edge_labels.add(label)

    # -- observation --------------------------------------------------------

    def observe_vertex(self, label: str | None, property_keys: set[str] | None = None) -> None:
        """Record a vertex with ``label`` and ``property_keys`` passing through."""
        if label is not None:
            if self.strict and label not in self.vertex_labels:
                raise SchemaError(f"vertex label {label!r} was not declared")
            self.vertex_labels.add(label)
        if property_keys:
            self.vertex_property_keys.update(property_keys)

    def observe_edge(self, label: str, property_keys: set[str] | None = None) -> None:
        """Record an edge with ``label`` and ``property_keys`` passing through."""
        if self.strict and label not in self.edge_labels:
            raise SchemaError(f"edge label {label!r} was not declared")
        if label not in self.edge_labels:
            self._check_edge_label_capacity(label)
            self.edge_labels.add(label)
        if property_keys:
            self.edge_property_keys.update(property_keys)

    def _check_edge_label_capacity(self, label: str) -> None:
        if (
            self.max_edge_labels is not None
            and label not in self.edge_labels
            and len(self.edge_labels) >= self.max_edge_labels
        ):
            raise SchemaError(
                f"engine supports at most {self.max_edge_labels} edge labels; "
                f"cannot add {label!r}"
            )
