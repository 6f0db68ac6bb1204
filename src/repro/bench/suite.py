"""The end-to-end benchmark suite driver.

:class:`BenchmarkSuite` is the programmatic equivalent of the paper's test
suite: given a set of engines and datasets it loads every dataset into every
engine, runs the selected microbenchmark queries (single and batch mode),
runs the complex LDBC-style workload, and returns a
:class:`~repro.bench.results.ResultSet` the report module can render into
every figure of the evaluation section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.bench.results import ExecutionResult, ExecutionStatus, ResultSet
from repro.bench.runner import QueryRunner
from repro.bench.workload import LoadedGraph, ParameterPlan, load_dataset_into
from repro.config import BenchConfig, EngineConfig
from repro.datasets.base import Dataset, get_dataset
from repro.engines.registry import create_engine
from repro.queries.complex_ldbc import COMPLEX_QUERIES
from repro.queries.registry import MICRO_QUERIES

#: Query execution order: mutating deletions run last so that the elements
#: addressed by earlier read and traversal queries still exist.
_DEFAULT_QUERY_ORDER = (
    [f"Q{number}" for number in range(2, 18)]
    + [f"Q{number}" for number in range(20, 36)]
    + ["Q19", "Q18"]
)


@dataclass
class BenchmarkSuite:
    """Drives the full microbenchmark over a set of engines and datasets."""

    engine_ids: Sequence[str]
    dataset_names: Sequence[str] = ("frb-s", "frb-o", "frb-m", "frb-l")
    scale: float = 1.0
    bench_config: BenchConfig = field(default_factory=BenchConfig)
    query_ids: Sequence[str] | None = None

    def __post_init__(self) -> None:
        self.runner = QueryRunner(self.bench_config)
        self._datasets: dict[str, Dataset] = {}
        self._plans: dict[str, ParameterPlan] = {}

    # -- dataset/plan caching -------------------------------------------------------

    def dataset(self, name: str) -> Dataset:
        """Return (generating once) the dataset called ``name``."""
        if name not in self._datasets:
            self._datasets[name] = get_dataset(name, scale=self.scale, seed=self.bench_config.seed)
        return self._datasets[name]

    def plan(self, dataset_name: str) -> ParameterPlan:
        """Return (building once) the parameter plan for ``dataset_name``."""
        if dataset_name not in self._plans:
            self._plans[dataset_name] = ParameterPlan(
                dataset=self.dataset(dataset_name),
                seed=self.bench_config.seed,
                repetitions=self.bench_config.batch_size,
            )
        return self._plans[dataset_name]

    def load(self, engine_id: str, dataset_name: str) -> LoadedGraph:
        """Load one dataset into a fresh engine instance."""
        engine = create_engine(engine_id)
        return load_dataset_into(engine, self.dataset(dataset_name))

    # -- execution ----------------------------------------------------------------------

    def selected_queries(self) -> list[str]:
        """The query ids to execute, in dependency-safe order."""
        if self.query_ids is None:
            return list(_DEFAULT_QUERY_ORDER)
        order = [query_id for query_id in _DEFAULT_QUERY_ORDER if query_id in set(self.query_ids)]
        extras = [query_id for query_id in self.query_ids if query_id not in set(order)]
        return order + extras

    def run_micro(self) -> ResultSet:
        """Run the microbenchmark on every engine × dataset combination."""
        results = ResultSet()
        for dataset_name in self.dataset_names:
            plan = self.plan(dataset_name)
            for engine_id in self.engine_ids:
                loaded = self.load(engine_id, dataset_name)
                results.add(self._load_result(engine_id, loaded))
                results.extend(self._run_queries(loaded, plan, self.selected_queries()))
        return results

    def run_complex(self) -> ResultSet:
        """Run the 13 complex queries (Figure 2) on the social-network dataset."""
        results = ResultSet()
        plan = self.plan("ldbc")
        for engine_id in self.engine_ids:
            loaded = self.load(engine_id, "ldbc")
            for query_id, query in COMPLEX_QUERIES.items():
                params = plan.params_for(query_id, count=1)[0]
                results.add(self.runner.run_single(loaded, query, params))
        return results

    def run_indexed_micro(
        self, indexed_property: str, query_ids: Iterable[str] = ("Q11", "Q2", "Q5", "Q16", "Q18")
    ) -> ResultSet:
        """Section 6.4 "Effect of Indexing": rerun queries with an attribute index.

        Engines that do not support user-defined indexes report the affected
        queries as :attr:`ExecutionStatus.UNSUPPORTED`.
        """
        results = ResultSet()
        config = EngineConfig(auto_index_properties=(indexed_property,))
        for dataset_name in self.dataset_names:
            plan = self.plan(dataset_name)
            for engine_id in self.engine_ids:
                engine = create_engine(engine_id, config=config)
                if not engine.supports_vertex_index:
                    for query_id in query_ids:
                        results.add(
                            ExecutionResult(
                                engine=f"{engine.name}-{engine.version}",
                                dataset=dataset_name,
                                query_id=query_id,
                                mode="single",
                                status=ExecutionStatus.UNSUPPORTED,
                                elapsed=0.0,
                                detail="engine offers no user-defined attribute indexes",
                            )
                        )
                    continue
                loaded = load_dataset_into(engine, self.dataset(dataset_name))
                results.extend(self._run_queries(loaded, plan, list(query_ids)))
        return results

    # -- internals -----------------------------------------------------------------------

    def _load_result(self, engine_id: str, loaded: LoadedGraph) -> ExecutionResult:
        """Record the Q1 (loading) measurement captured by ``load_dataset_into``."""
        status = ExecutionStatus.OK
        if loaded.load_seconds > self.bench_config.timeout:
            status = ExecutionStatus.TIMEOUT
        return ExecutionResult(
            engine=f"{loaded.engine.name}-{loaded.engine.version}",
            dataset=loaded.dataset.name,
            query_id="Q1",
            mode="single",
            status=status,
            elapsed=loaded.load_seconds,
            # The engine is fresh, so its whole charge meter is the load.
            logical_io=loaded.engine.io_cost(),
            result_size=loaded.dataset.vertex_count + loaded.dataset.edge_count,
        )

    def _run_queries(
        self, loaded: LoadedGraph, plan: ParameterPlan, query_ids: Sequence[str]
    ) -> list[ExecutionResult]:
        results: list[ExecutionResult] = []
        for query_id in query_ids:
            if query_id == "Q1":
                continue
            query = MICRO_QUERIES[query_id]
            bindings = plan.params_for(query_id)
            results.append(self.runner.run_single(loaded, query, bindings[0]))
            batch_bindings = bindings[1:] if query.mutates else [bindings[0]] * (
                self.bench_config.batch_size - 1
            )
            if batch_bindings:
                results.append(self.runner.run_batch(loaded, query, batch_bindings))
        return results
