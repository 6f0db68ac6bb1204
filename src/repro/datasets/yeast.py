"""Yeast-like protein-interaction network.

The paper's Yeast dataset is the budding-yeast protein-interaction network
(Table 3: 2.3K nodes, 7.1K edges, 167 edge labels, two orders of magnitude
denser than the Freebase samples, ~100 connected components).  Nodes carry a
short name, a long name, a description, and a putative function class;
edges are labelled by the interacting protein classes.

The generator keeps the original size by default (the real network is small
enough), reproducing the density and label structure.
"""

from __future__ import annotations

import random
from typing import Any

from repro.datasets.base import Dataset, register_dataset
from repro.datasets.generator import component_partition, connect_within_component, scaled

_FUNCTION_CLASSES = (
    "metabolism",
    "energy",
    "transcription",
    "protein synthesis",
    "protein fate",
    "cellular transport",
    "signal transduction",
    "cell rescue",
    "cell cycle",
    "cell fate",
    "transposable elements",
    "control of organization",
)


def yeast(scale: float = 1.0, seed: int = 11) -> Dataset:
    """Generate a Yeast-like protein interaction network."""
    rng = random.Random(seed)
    vertex_count = scaled(2300, scale)
    edge_count = scaled(7100, scale)
    component_count = scaled(101, scale, minimum=3)

    vertices: list[dict[str, Any]] = []
    for index in range(vertex_count):
        function_class = rng.choice(_FUNCTION_CLASSES)
        short_name = f"Y{chr(65 + index % 16)}L{index:04d}W"
        vertices.append(
            {
                "id": f"protein:{index}",
                "label": "protein",
                "properties": {
                    "short_name": short_name,
                    "long_name": f"protein {short_name} of S.cerevisiae",
                    "description": f"Budding yeast protein involved in {function_class}.",
                    "function_class": function_class,
                },
            }
        )
    vertex_ids = [vertex["id"] for vertex in vertices]
    components = component_partition(rng, vertex_ids, component_count)
    class_by_id = {
        vertex["id"]: vertex["properties"]["function_class"] for vertex in vertices
    }

    def interaction_properties(local_rng: random.Random, source: Any, target: Any) -> dict[str, Any]:
        del local_rng, source, target
        return {}

    edges: list[dict[str, Any]] = []
    total_members = sum(len(component) for component in components)
    for component in components:
        share = int(round(edge_count * len(component) / total_members)) if total_members else 0
        # Edge labels combine the two interacting protein classes; generate a
        # backbone + preferential edges, then relabel by endpoint classes.
        generic = connect_within_component(
            rng, component, share, labels=["interacts"], edge_properties=interaction_properties
        )
        for edge in generic:
            source_class = class_by_id[edge["source"]].split()[0]
            target_class = class_by_id[edge["target"]].split()[0]
            edge["label"] = f"{source_class}-{target_class}"
        edges.extend(generic)
    return Dataset(
        name="yeast",
        vertices=vertices,
        edges=edges,
        description=(
            f"Yeast-like protein interaction network ({vertex_count} proteins, "
            f"~{len(edges)} interactions labelled by protein classes)"
        ),
    )


register_dataset("yeast", yeast, "Yeast-like protein-protein interaction network")
