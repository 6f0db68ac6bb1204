"""MiCo-like co-authorship graph.

The paper's MiCo dataset is crawled from the Microsoft Academic portal:
nodes are authors (with a name and a field of study), edges are
co-authorships labelled by the number of co-authored papers (Table 3: 100K
nodes, 1.1M edges, 106 edge labels, sparse, average degree ~21 with hubs in
the thousands).  The generator reproduces the same shape at a reduced default
size.
"""

from __future__ import annotations

import random
from typing import Any

from repro.datasets.base import Dataset, register_dataset
from repro.datasets.generator import preferential_attachment_edges, scaled

_FIELDS = (
    "databases",
    "machine learning",
    "theory",
    "systems",
    "networks",
    "vision",
    "graphics",
    "security",
    "hci",
    "bioinformatics",
)


def mico(scale: float = 1.0, seed: int = 7) -> Dataset:
    """Generate a MiCo-like co-authorship network."""
    rng = random.Random(seed)
    vertex_count = scaled(1000, scale)
    edge_count = scaled(11000, scale)
    max_label = scaled(106, scale, minimum=10)

    vertices: list[dict[str, Any]] = []
    for index in range(vertex_count):
        vertices.append(
            {
                "id": f"author:{index}",
                "label": "author",
                "properties": {
                    "name": f"Author {index}",
                    "field": rng.choice(_FIELDS),
                    "papers": 1 + int(rng.expovariate(1 / 12.0)),
                },
            }
        )
    vertex_ids = [vertex["id"] for vertex in vertices]
    edges: list[dict[str, Any]] = []
    seen_pairs: set[tuple[str, str]] = set()
    for source, target in preferential_attachment_edges(rng, vertex_ids, edge_count):
        if (source, target) in seen_pairs:
            continue
        seen_pairs.add((source, target))
        # Co-authorship counts are heavily skewed: most pairs share one or two
        # papers, a few collaborate dozens of times.
        count = min(max_label, 1 + int(rng.expovariate(1 / 2.5)))
        edges.append(
            {
                "source": source,
                "target": target,
                "label": str(count),
                "properties": {},
            }
        )
    return Dataset(
        name="mico",
        vertices=vertices,
        edges=edges,
        description=(
            f"MiCo-like co-authorship graph ({vertex_count} authors, ~{len(edges)} "
            "co-authorship edges labelled by paper count)"
        ),
    )


register_dataset("mico", mico, "MiCo-like co-authorship network")
