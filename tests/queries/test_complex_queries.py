"""The 13 LDBC-style complex queries (Figure 2 workload)."""

from __future__ import annotations

import pytest

from repro.bench.workload import load_dataset_into
from repro.engines import create_engine
from repro.exceptions import QueryError
from repro.model.elements import Direction
from repro.queries import COMPLEX_QUERIES, complex_query_by_id

_FIGURE2_NAMES = [
    "max-iid", "max-oid", "create", "city", "company", "university",
    "friend1", "friend2", "friend-tags", "add-tags", "friend-of-friend",
    "triangle", "places",
]


@pytest.fixture(scope="module")
def social():
    """The LDBC-like dataset loaded into the reference native engine."""
    from repro.datasets import get_dataset

    dataset = get_dataset("ldbc", scale=0.3, seed=12)
    return load_dataset_into(create_engine("nativelinked-1.9"), dataset)


def _person(social):
    return next(
        internal
        for external, internal in social.vertex_map.items()
        if str(external).startswith("person:")
    )


class TestRegistry:
    def test_thirteen_queries_in_figure_order(self):
        assert list(COMPLEX_QUERIES) == _FIGURE2_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(QueryError):
            complex_query_by_id("nope")

    def test_descriptions_present(self):
        assert all(query.description for query in COMPLEX_QUERIES.values())


class TestReadQueries:
    def test_max_degree_queries(self, social):
        max_in = complex_query_by_id("max-iid")(social.engine, {})
        max_out = complex_query_by_id("max-oid")(social.engine, {})
        assert max_in["degree"] >= 1 and max_out["degree"] >= 1
        assert social.engine.vertex_exists(max_in["vertex"])

    def test_friend1_returns_people(self, social):
        person = _person(social)
        friends = complex_query_by_id("friend1")(social.engine, {"person": person})
        assert person not in friends

    def test_friend2_excludes_direct_friends(self, social):
        person = _person(social)
        direct = set(complex_query_by_id("friend1")(social.engine, {"person": person}))
        fof = set(complex_query_by_id("friend2")(social.engine, {"person": person}))
        assert not (fof & direct)
        assert person not in fof

    def test_friend_tags_are_tags(self, social):
        person = _person(social)
        tags = complex_query_by_id("friend-tags")(social.engine, {"person": person})
        for tag in tags:
            assert social.engine.vertex(tag).label == "tag"

    def test_recommendation_is_ranked_topk(self, social):
        person = _person(social)
        ranked = complex_query_by_id("friend-of-friend")(social.engine, {"person": person, "k": 3})
        assert len(ranked) <= 3
        scores = [score for _vertex, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_triangle_count_non_negative(self, social):
        person = _person(social)
        assert complex_query_by_id("triangle")(social.engine, {"person": person}) >= 0

    def test_places_ranked_topk(self, social):
        person = _person(social)
        ranked = complex_query_by_id("places")(social.engine, {"person": person, "k": 4})
        assert len(ranked) <= 4
        counts = [count for _place, count in ranked]
        assert counts == sorted(counts, reverse=True)


class TestWriteQueries:
    def test_account_creation_and_profile_fill(self, social):
        engine = social.engine
        account = complex_query_by_id("create")(engine, {"properties": {"firstName": "New", "lastName": "User"}})
        place = next(v for k, v in social.vertex_map.items() if str(k).startswith("city:"))
        organisation = next(v for k, v in social.vertex_map.items() if str(k).startswith("company:"))
        university = next(v for k, v in social.vertex_map.items() if str(k).startswith("university:"))
        complex_query_by_id("city")(engine, {"person": account, "place": place})
        complex_query_by_id("company")(engine, {"person": account, "organisation": organisation})
        complex_query_by_id("university")(engine, {"person": account, "organisation": university})
        assert set(engine.neighbors(account, Direction.OUT)) == {place, organisation, university}

    def test_add_tags_creates_interest_edges(self, social):
        engine = social.engine
        account = complex_query_by_id("create")(engine, {"properties": {"firstName": "Tagger"}})
        tags = [v for k, v in social.vertex_map.items() if str(k).startswith("tag:")][:3]
        created = complex_query_by_id("add-tags")(engine, {"person": account, "tags": tags})
        assert len(created) == 3
        assert set(engine.neighbors(account, Direction.OUT, "hasInterest")) == set(tags)


class TestAcrossEngines:
    @pytest.mark.parametrize("engine_id", ["relationalgraph-1.2", "documentgraph-2.8", "bitmapgraph-5.1"])
    def test_friend_queries_agree_with_reference(self, engine_id, social):
        from repro.datasets import get_dataset

        dataset = get_dataset("ldbc", scale=0.3, seed=12)
        other = load_dataset_into(create_engine(engine_id), dataset)
        person_external = next(k for k in social.vertex_map if str(k).startswith("person:"))
        reference = complex_query_by_id("friend1")(
            social.engine, {"person": social.vertex_map[person_external]}
        )
        candidate = complex_query_by_id("friend1")(
            other.engine, {"person": other.vertex_map[person_external]}
        )
        assert len(reference) == len(candidate)
