"""Shared random-graph machinery used by the dataset generators.

All generators are deterministic for a given seed and scale so that every
engine is handed exactly the same graph and the harness's random parameter
choices can be replayed — the fairness requirement of Section 5.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """Scale ``count`` by ``scale`` and clamp to at least ``minimum``."""
    return max(minimum, int(round(count * scale)))


def power_law_degrees(rng: random.Random, count: int, exponent: float, max_degree: int) -> list[int]:
    """Draw ``count`` degrees (at least 1) from a discrete power-law distribution.

    Uses inverse-transform sampling of a Pareto-like distribution truncated
    at ``max_degree`` — the heavy tail produces the hub vertices whose large
    neighbourhoods dominate traversal cost in the paper's datasets.
    """
    degrees = []
    for _ in range(count):
        value = (1.0 - rng.random()) ** (-1.0 / (exponent - 1.0))
        degrees.append(min(max_degree, max(1, int(value))))
    return degrees


def preferential_attachment_edges(
    rng: random.Random,
    vertex_ids: Sequence[Any],
    edge_count: int,
) -> list[tuple[Any, Any]]:
    """Generate up to ``edge_count`` edges, without self-loops, with
    preferential attachment.

    Endpoints are drawn from a repeated-endpoint pool so that vertices that
    already have edges are more likely to gain new ones, yielding the
    power-law degree distribution and large hubs of real co-authorship,
    knowledge-base, and social graphs.  A draw that keeps landing on its
    own source is skipped.
    """
    if not vertex_ids:
        return []
    pool: list[Any] = list(vertex_ids)
    edges: list[tuple[Any, Any]] = []
    for _ in range(edge_count):
        source = rng.choice(pool)
        target = rng.choice(pool)
        attempts = 0
        while target == source and attempts < 8:
            target = rng.choice(pool)
            attempts += 1
        if target == source:
            continue
        edges.append((source, target))
        pool.append(source)
        pool.append(target)
    return edges


def component_partition(rng: random.Random, vertex_ids: Sequence[Any], component_count: int) -> list[list[Any]]:
    """Partition ``vertex_ids`` into ``component_count`` groups of skewed sizes.

    The first group is by far the largest (the "Maxim" column of Table 3);
    the remaining groups share the tail, producing the highly fragmented
    structure of the Freebase samples.
    """
    ids = list(vertex_ids)
    rng.shuffle(ids)
    component_count = max(1, min(component_count, len(ids)))
    if component_count == 1:
        return [ids]
    main_share = max(component_count, int(len(ids) * 0.7))
    components = [ids[:main_share]]
    rest = ids[main_share:]
    remaining_groups = component_count - 1
    if remaining_groups <= 0 or not rest:
        return components
    chunk = max(1, len(rest) // remaining_groups)
    for start in range(0, len(rest), chunk):
        components.append(rest[start : start + chunk])
        if len(components) == component_count:
            # Fold whatever is left into the last component.
            components[-1].extend(rest[start + chunk :])
            break
    return [component for component in components if component]


def connect_within_component(
    rng: random.Random,
    component: Sequence[Any],
    edge_budget: int,
    labels: Sequence[str],
    label_weights: Sequence[float] | None = None,
    edge_properties: Callable[[random.Random, Any, Any], dict[str, Any]] | None = None,
) -> list[dict[str, Any]]:
    """Create ``edge_budget`` labelled edges whose endpoints stay inside ``component``.

    A spanning backbone (a random tree) is created first so the component is
    actually connected; the remaining budget is spent on preferential-
    attachment edges.
    """
    members = list(component)
    if len(members) < 2 or edge_budget <= 0:
        return []
    edges: list[dict[str, Any]] = []

    def make_edge(source: Any, target: Any) -> dict[str, Any]:
        label = rng.choices(list(labels), weights=label_weights, k=1)[0] if labels else "edge"
        properties = edge_properties(rng, source, target) if edge_properties else {}
        return {"source": source, "target": target, "label": label, "properties": properties}

    backbone = min(edge_budget, len(members) - 1)
    for position in range(backbone):
        target = members[position + 1]
        source = members[rng.randint(0, position)]
        edges.append(make_edge(source, target))
    remaining = edge_budget - backbone
    if remaining > 0:
        for source, target in preferential_attachment_edges(rng, members, remaining):
            edges.append(make_edge(source, target))
    return edges


def zipfian_labels(rng: random.Random, count: int, prefix: str) -> tuple[list[str], list[float]]:
    """Return ``count`` label names plus Zipf-like selection weights (exponent 1.2).

    Real edge-label distributions are heavily skewed: a few labels cover most
    edges while thousands of labels appear only a handful of times (the
    Freebase samples in Table 3).
    """
    labels = [f"{prefix}{index}" for index in range(count)]
    weights = [1.0 / ((rank + 1) ** 1.2) for rank in range(count)]
    del rng  # kept in the signature for symmetry with the other helpers
    return labels, weights
