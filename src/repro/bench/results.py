"""Result records and aggregation helpers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


class ExecutionStatus(enum.Enum):
    """Outcome of one query execution."""

    OK = "ok"
    TIMEOUT = "timeout"
    OUT_OF_MEMORY = "oom"
    ERROR = "error"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ExecutionResult:
    """One measured execution of one query on one engine and dataset."""

    engine: str
    dataset: str
    query_id: str
    mode: str  # "single" or "batch"
    status: ExecutionStatus
    elapsed: float
    logical_io: int = 0
    result_size: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status is ExecutionStatus.OK

    @property
    def failed(self) -> bool:
        return self.status in (
            ExecutionStatus.TIMEOUT,
            ExecutionStatus.OUT_OF_MEMORY,
            ExecutionStatus.ERROR,
        )


@dataclass
class ResultSet:
    """A collection of execution results with the aggregations reports need."""

    results: list[ExecutionResult] = field(default_factory=list)

    def add(self, result: ExecutionResult) -> None:
        self.results.append(result)

    def extend(self, results: Iterable[ExecutionResult]) -> None:
        self.results.extend(results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ExecutionResult]:
        return iter(self.results)

    # -- filtering ----------------------------------------------------------

    def filter(
        self,
        engine: str | None = None,
        dataset: str | None = None,
        query_id: str | None = None,
        mode: str | None = None,
        predicate: Callable[[ExecutionResult], bool] | None = None,
    ) -> "ResultSet":
        """Return the subset matching every given criterion."""
        selected = [
            result
            for result in self.results
            if (engine is None or result.engine == engine)
            and (dataset is None or result.dataset == dataset)
            and (query_id is None or result.query_id == query_id)
            and (mode is None or result.mode == mode)
            and (predicate is None or predicate(result))
        ]
        return ResultSet(selected)

    # -- dimension helpers --------------------------------------------------------

    def engines(self) -> list[str]:
        return sorted({result.engine for result in self.results})

    def datasets(self) -> list[str]:
        return sorted({result.dataset for result in self.results})

    def query_ids(self) -> list[str]:
        seen: list[str] = []
        for result in self.results:
            if result.query_id not in seen:
                seen.append(result.query_id)
        return seen

    # -- aggregations ----------------------------------------------------------------

    def elapsed(self, engine: str, dataset: str, query_id: str, mode: str = "single") -> float | None:
        """Mean elapsed seconds of successful executions, or None if all failed."""
        matching = [
            result
            for result in self.results
            if result.engine == engine
            and result.dataset == dataset
            and result.query_id == query_id
            and result.mode == mode
            and result.ok
        ]
        if not matching:
            return None
        return sum(result.elapsed for result in matching) / len(matching)

    def status_of(self, engine: str, dataset: str, query_id: str, mode: str = "single") -> ExecutionStatus | None:
        for result in self.results:
            if (
                result.engine == engine
                and result.dataset == dataset
                and result.query_id == query_id
                and result.mode == mode
            ):
                return result.status
        return None

    def total_elapsed(self, engine: str, dataset: str | None = None, mode: str = "single") -> float:
        """Sum of elapsed times of successful executions (Figure 7c/d)."""
        return sum(
            result.elapsed
            for result in self.results
            if result.engine == engine
            and result.mode == mode
            and result.ok
            and (dataset is None or result.dataset == dataset)
        )

    def timeout_count(self, engine: str, mode: str | None = None) -> int:
        """Number of failed executions (timeouts, OOM, errors) for Figure 1c."""
        return sum(
            1
            for result in self.results
            if result.engine == engine
            and result.failed
            and (mode is None or result.mode == mode)
        )

    def ranking(self, dataset: str, query_id: str, mode: str = "single") -> list[tuple[str, float]]:
        """Engines ordered from fastest to slowest for one cell."""
        pairs = []
        for engine in self.engines():
            value = self.elapsed(engine, dataset, query_id, mode)
            if value is not None:
                pairs.append((engine, value))
        return sorted(pairs, key=lambda pair: pair[1])
