"""GraphSON reading: JSON text or files to :class:`~repro.datasets.base.Dataset`."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.datasets.base import Dataset
from repro.exceptions import DatasetError

_RESERVED_VERTEX_FIELDS = {"_id", "_type", "_label"}
_RESERVED_EDGE_FIELDS = {"_id", "_type", "_label", "_outV", "_inV"}


def loads_graphson(text: str, name: str = "graphson") -> Dataset:
    """Parse a GraphSON document from a string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise DatasetError(f"invalid GraphSON document: {error}") from error
    return _from_payload(payload, name)


def read_graphson(path: str | Path) -> Dataset:
    """Read a GraphSON document from ``path``, naming the dataset after its stem."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        return loads_graphson(handle.read(), name=path.stem)


def _from_payload(payload: dict[str, Any], name: str) -> Dataset:
    graph = payload.get("graph", payload)
    raw_vertices = graph.get("vertices")
    raw_edges = graph.get("edges")
    if raw_vertices is None or raw_edges is None:
        raise DatasetError("GraphSON document must contain 'vertices' and 'edges' arrays")
    vertices = []
    for raw in raw_vertices:
        if "_id" not in raw:
            raise DatasetError(f"GraphSON vertex without _id: {raw!r}")
        vertices.append(
            {
                "id": raw["_id"],
                "label": raw.get("_label"),
                "properties": {
                    key: value for key, value in raw.items() if key not in _RESERVED_VERTEX_FIELDS
                },
            }
        )
    edges = []
    for raw in raw_edges:
        if "_outV" not in raw or "_inV" not in raw:
            raise DatasetError(f"GraphSON edge without endpoints: {raw!r}")
        edges.append(
            {
                "source": raw["_outV"],
                "target": raw["_inV"],
                "label": raw.get("_label", "edge"),
                "properties": {
                    key: value for key, value in raw.items() if key not in _RESERVED_EDGE_FIELDS
                },
            }
        )
    dataset = Dataset(name=name, vertices=vertices, edges=edges, description="loaded from GraphSON")
    dataset.validate()
    return dataset
