"""GraphSON writing: :class:`~repro.datasets.base.Dataset` to JSON text or files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.datasets.base import Dataset


def dumps_graphson(dataset: Dataset) -> str:
    """Serialise ``dataset`` as a compact GraphSON 1.0-style JSON string."""
    vertices: list[dict[str, Any]] = []
    for vertex in dataset.vertices:
        record: dict[str, Any] = {"_id": vertex["id"], "_type": "vertex"}
        if vertex.get("label") is not None:
            record["_label"] = vertex["label"]
        record.update(vertex.get("properties") or {})
        vertices.append(record)
    edges: list[dict[str, Any]] = []
    for index, edge in enumerate(dataset.edges):
        record = {
            "_id": index,
            "_type": "edge",
            "_outV": edge["source"],
            "_inV": edge["target"],
            "_label": edge.get("label", "edge"),
        }
        record.update(edge.get("properties") or {})
        edges.append(record)
    payload = {"graph": {"mode": "NORMAL", "vertices": vertices, "edges": edges}}
    return json.dumps(payload, default=str)


def write_graphson(dataset: Dataset, path: str | Path) -> Path:
    """Write ``dataset`` to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_graphson(dataset))
    return path
