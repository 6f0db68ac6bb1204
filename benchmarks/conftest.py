"""Shared fixtures for the figure/table regeneration benchmarks.

The expensive work (running the microbenchmark over every engine and
dataset) is done once per pytest session and shared by the per-figure
benchmark modules.  Every module renders its figure as a text table, saves
it under ``benchmarks/reports/`` (``wallclock/`` when it carries timings),
and asserts the qualitative *shape* the paper reports (who wins, roughly by
how much) rather than absolute numbers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.runner import QueryRunner
from repro.bench.spaces import measure_space_matrix
from repro.bench.suite import BenchmarkSuite
from repro.bench.workload import ParameterPlan, load_dataset_into
from repro.config import BenchConfig
from repro.datasets import get_dataset
from repro.engines import ALL_ENGINES, create_engine

#: Engines under test: every registered version, as in the paper's Table 1.
ENGINES = list(ALL_ENGINES)
#: The Freebase-like sample sweep used by most figures.
FRB_DATASETS = ["frb-s", "frb-o", "frb-m", "frb-l"]
#: Scale factor applied to every generated dataset (laptop-sized).
SCALE = 0.15
#: Shared benchmark configuration (timeout in seconds, batch repetitions).
BENCH_CONFIG = BenchConfig(timeout=15.0, batch_size=3, seed=20181204)

_REPORT_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def save_report():
    """Persist a rendered figure/table under ``benchmarks/reports/``.

    Only charge-deterministic tables are ``tracked``; anything carrying
    wall-clock numbers lands in the git-ignored ``reports/wallclock/`` so a
    test run never dirties the tree.
    """

    def _save(name: str, text: str, tracked: bool = False) -> str:
        directory = _REPORT_DIR if tracked else _REPORT_DIR / "wallclock"
        directory.mkdir(exist_ok=True)
        path = directory / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to {path}]")
        return text

    return _save


@pytest.fixture(scope="session")
def suite() -> BenchmarkSuite:
    """The configured benchmark suite shared by every figure."""
    return BenchmarkSuite(
        engine_ids=ENGINES,
        dataset_names=FRB_DATASETS,
        scale=SCALE,
        bench_config=BENCH_CONFIG,
    )


@pytest.fixture(scope="session")
def micro_results(suite):
    """The full microbenchmark matrix: every engine x Frb dataset x query."""
    return suite.run_micro()


@pytest.fixture(scope="session")
def complex_results(suite):
    """The 13 complex queries on the LDBC-like dataset (Figure 2)."""
    return suite.run_complex()


@pytest.fixture(scope="session")
def space_measurements():
    """Space occupancy of every engine on the Figure 1 datasets."""
    datasets = [get_dataset(name, scale=SCALE, seed=BENCH_CONFIG.seed) for name in FRB_DATASETS + ["ldbc", "mico"]]
    return measure_space_matrix(ENGINES, datasets)


@pytest.fixture(scope="session")
def loaded_pool():
    """Lazily loaded (engine, dataset) graphs for the depth/label sweeps."""
    pool: dict[tuple[str, str], object] = {}
    datasets: dict[str, object] = {}

    def _get(engine_id: str, dataset_name: str):
        if dataset_name not in datasets:
            datasets[dataset_name] = get_dataset(dataset_name, scale=SCALE, seed=BENCH_CONFIG.seed)
        key = (engine_id, dataset_name)
        if key not in pool:
            pool[key] = load_dataset_into(create_engine(engine_id), datasets[dataset_name])
        return pool[key]

    return _get


@pytest.fixture(scope="session")
def runner() -> QueryRunner:
    return QueryRunner(BENCH_CONFIG)


@pytest.fixture(scope="session")
def plan_for():
    """Parameter plans per dataset name, built once and shared."""
    plans: dict[str, ParameterPlan] = {}

    def _get(dataset_name: str) -> ParameterPlan:
        if dataset_name not in plans:
            dataset = get_dataset(dataset_name, scale=SCALE, seed=BENCH_CONFIG.seed)
            plans[dataset_name] = ParameterPlan(dataset, seed=BENCH_CONFIG.seed, repetitions=BENCH_CONFIG.batch_size)
        return plans[dataset_name]

    return _get


def engine_mean(results, engine_substring: str, query_ids, datasets=None, metric="logical_io") -> float | None:
    """Mean logical charge of one engine over a set of queries.

    The shape checks assert *who wins, roughly by how much* — and the
    repo's logical-charge cost model is the quantity that carries those
    orderings deterministically.  Single-shot wall timings at the
    microsecond scale flip on any scheduling or page-fault spike; charges
    are byte-identical run to run, so the qualitative claims the figures
    pin never flake.  Pass ``metric="elapsed"`` for the few claims that are
    genuinely about wall behaviour rather than modelled work (e.g. the
    degree filters, where the charge model and the constant factors
    deliberately diverge).
    """
    datasets = datasets or FRB_DATASETS
    values = []
    for result in results:
        if (
            engine_substring in result.engine
            and result.query_id in query_ids
            and result.mode == "single"
            and result.ok
            and result.dataset in datasets
        ):
            values.append(getattr(result, metric))
    return sum(values) / len(values) if values else None
