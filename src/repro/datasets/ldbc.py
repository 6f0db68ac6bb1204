"""LDBC-SNB-like synthetic social network.

The paper generates its synthetic dataset with the LDBC Social Network
Benchmark data generator configured for 1000 persons over three years
(Table 3: 184K nodes, 1.5M edges, 15 edge labels, one single connected
component, power-law structure, and — uniquely among the datasets —
properties on the edges as well as on the nodes).

This module reproduces that generator's output shape: persons with profile
attributes, universities/companies/cities, tags, posts and comments, the 15
edge types of the interactive workload (knows, likes, hasCreator, hasTag,
studyAt, workAt, isLocatedIn, replyOf, ...), creation-date properties on the
social edges, and a power-law friendship graph kept in a single connected
component.
"""

from __future__ import annotations

import random
from typing import Any

from repro.datasets.base import Dataset, register_dataset
from repro.datasets.generator import power_law_degrees, scaled

_FIRST_NAMES = ("Ada", "Bela", "Carlos", "Dana", "Emil", "Farah", "Goran", "Hana", "Ivan", "Jun")
_LAST_NAMES = ("Garcia", "Ivanov", "Kim", "Lopez", "Mueller", "Nakamura", "Okafor", "Patel", "Rossi", "Sato")
_CITIES = ("Trento", "Aalborg", "Leipzig", "Porto", "Graz", "Uppsala", "Bergen", "Gent")
_COUNTRIES = ("Italy", "Denmark", "Germany", "Portugal", "Austria", "Sweden", "Norway", "Belgium")
_TAG_TOPICS = ("databases", "graphs", "benchmarks", "music", "football", "films", "travel", "cooking")
_BROWSERS = ("Firefox", "Chrome", "Safari")

#: Simulated activity window (the paper's generator covered three years).
_BASE_DATE = 2010 * 10000 + 101  # encoded as yyyymmdd integers


def _creation_date(rng: random.Random) -> int:
    """Return a pseudo date (yyyymmdd) within the three-year activity window."""
    year = 2010 + rng.randint(0, 2)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return year * 10000 + month * 100 + day


def ldbc_social(scale: float = 1.0, seed: int = 99) -> Dataset:
    """Generate an LDBC-like social network.

    The paper's generator was parameterised by the number of users; here
    the default of 120 persons is multiplied by ``scale``.
    """
    rng = random.Random(seed)
    person_count = scaled(120, scale)
    city_count = min(len(_CITIES), max(3, person_count // 20))
    university_count = max(3, person_count // 15)
    company_count = max(3, person_count // 12)
    tag_count = max(6, person_count // 6)
    posts_per_person = 4
    comments_per_person = 3

    vertices: list[dict[str, Any]] = []
    edges: list[dict[str, Any]] = []

    def add_vertex(external_id: str, label: str, properties: dict[str, Any]) -> str:
        vertices.append({"id": external_id, "label": label, "properties": properties})
        return external_id

    def add_edge(source: str, target: str, label: str, properties: dict[str, Any] | None = None) -> None:
        edges.append(
            {"source": source, "target": target, "label": label, "properties": properties or {}}
        )

    cities = [
        add_vertex(
            f"city:{index}",
            "place",
            {"name": _CITIES[index % len(_CITIES)], "type": "city", "country": _COUNTRIES[index % len(_COUNTRIES)]},
        )
        for index in range(city_count)
    ]
    universities = [
        add_vertex(f"university:{index}", "organisation", {"name": f"University {index}", "type": "university"})
        for index in range(university_count)
    ]
    companies = [
        add_vertex(f"company:{index}", "organisation", {"name": f"Company {index}", "type": "company"})
        for index in range(company_count)
    ]
    tags = [
        add_vertex(
            f"tag:{index}",
            "tag",
            {"name": f"{_TAG_TOPICS[index % len(_TAG_TOPICS)]}-{index}", "topic": _TAG_TOPICS[index % len(_TAG_TOPICS)]},
        )
        for index in range(tag_count)
    ]
    for index, university in enumerate(universities):
        add_edge(university, cities[index % len(cities)], "isLocatedIn")
    for index, company in enumerate(companies):
        add_edge(company, cities[index % len(cities)], "isLocatedIn")

    persons_ids: list[str] = []
    for index in range(person_count):
        person = add_vertex(
            f"person:{index}",
            "person",
            {
                "firstName": _FIRST_NAMES[index % len(_FIRST_NAMES)],
                "lastName": _LAST_NAMES[(index // len(_FIRST_NAMES)) % len(_LAST_NAMES)],
                "birthday": _BASE_DATE - rng.randint(18, 45) * 10000,
                "browserUsed": rng.choice(_BROWSERS),
                "locationIP": f"10.0.{index % 256}.{rng.randint(1, 254)}",
            },
        )
        persons_ids.append(person)
        add_edge(person, rng.choice(cities), "isLocatedIn")
        add_edge(person, rng.choice(universities), "studyAt", {"classYear": 2000 + rng.randint(0, 12)})
        if rng.random() < 0.7:
            add_edge(person, rng.choice(companies), "workAt", {"workFrom": 2005 + rng.randint(0, 10)})
        for _ in range(rng.randint(1, 3)):
            add_edge(person, rng.choice(tags), "hasInterest")

    # Power-law friendship graph kept in one connected component: a ring
    # backbone guarantees connectivity, preferential extra edges add the skew.
    friendship_targets = power_law_degrees(rng, person_count, exponent=2.3, max_degree=max(4, person_count // 3))
    seen_friendships: set[tuple[str, str]] = set()
    for index, person in enumerate(persons_ids):
        neighbour = persons_ids[(index + 1) % person_count]
        pair = (min(person, neighbour), max(person, neighbour))
        if person != neighbour and pair not in seen_friendships:
            seen_friendships.add(pair)
            add_edge(person, neighbour, "knows", {"creationDate": _creation_date(rng)})
    for index, person in enumerate(persons_ids):
        for _ in range(friendship_targets[index]):
            other = rng.choice(persons_ids)
            pair = (min(person, other), max(person, other))
            if other == person or pair in seen_friendships:
                continue
            seen_friendships.add(pair)
            add_edge(person, other, "knows", {"creationDate": _creation_date(rng)})

    # Posts, comments, likes, and tags: the message workload of the benchmark.
    post_ids: list[str] = []
    for index, person in enumerate(persons_ids):
        for post_number in range(posts_per_person):
            post = add_vertex(
                f"post:{index}:{post_number}",
                "post",
                {
                    "content": f"Post {post_number} by person {index}",
                    "length": rng.randint(20, 200),
                    "creationDate": _creation_date(rng),
                },
            )
            post_ids.append(post)
            add_edge(post, person, "hasCreator", {"creationDate": _creation_date(rng)})
            add_edge(post, rng.choice(tags), "hasTag")
            add_edge(post, rng.choice(cities), "isLocatedIn")
    for index, person in enumerate(persons_ids):
        for comment_number in range(comments_per_person):
            comment = add_vertex(
                f"comment:{index}:{comment_number}",
                "comment",
                {
                    "content": f"Comment {comment_number} by person {index}",
                    "length": rng.randint(5, 80),
                    "creationDate": _creation_date(rng),
                },
            )
            add_edge(comment, person, "hasCreator", {"creationDate": _creation_date(rng)})
            add_edge(comment, rng.choice(post_ids), "replyOf")
            if rng.random() < 0.5:
                add_edge(comment, rng.choice(tags), "hasTag")
    for person in persons_ids:
        for _ in range(rng.randint(0, 4)):
            add_edge(person, rng.choice(post_ids), "likes", {"creationDate": _creation_date(rng)})

    return Dataset(
        name="ldbc",
        vertices=vertices,
        edges=edges,
        description=(
            f"LDBC-SNB-like social network ({person_count} persons, {len(vertices)} nodes, "
            f"{len(edges)} edges, properties on nodes and edges)"
        ),
    )


register_dataset("ldbc", ldbc_social, "LDBC-SNB-like synthetic social network")
