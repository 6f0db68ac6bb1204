"""Query execution: isolation, batch mode, timeouts, and failure capture.

The paper executes every query in isolation with a two-hour timeout and also
in batches of ten repetitions (Section 5, Section 6.4 "Single vs Batch
Execution").  The runner reproduces both modes.  Because a cooperative,
in-process engine cannot be preempted safely, the timeout is enforced by
classification: a query always runs to completion (the scaled datasets keep
the worst case to seconds) and is marked :attr:`ExecutionStatus.TIMEOUT`
when its wall-clock time exceeds the configured limit, which is exactly the
information Figure 1(c) reports.  Engines that exhaust their simulated
memory budget surface as :attr:`ExecutionStatus.OUT_OF_MEMORY`, reproducing
the paper's Sparksee failures on the degree-filter queries.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.config import BenchConfig
from repro.bench.results import ExecutionResult, ExecutionStatus
from repro.bench.workload import LoadedGraph
from repro.exceptions import (
    GraphBenchError,
    MemoryBudgetExceededError,
    UnsupportedOperationError,
)
from repro.queries.base import Query

#: Re-exported for convenience; the enum lives with the result records.
QueryExecution = ExecutionResult


@contextlib.contextmanager
def _gc_paused():
    """Suppress cyclic GC inside timed regions, as :mod:`timeit` does.

    The figure tests assert relative orderings of microsecond-scale
    single-shot timings; a generational collection landing inside one
    measurement (its pause grows with everything else the process has
    loaded) is enough to flip them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class QueryRunner:
    """Runs queries against loaded graphs according to a :class:`BenchConfig`."""

    config: BenchConfig

    # -- single executions -------------------------------------------------------

    def run_single(
        self,
        loaded: LoadedGraph,
        query: Query,
        params: Mapping[str, Any],
    ) -> ExecutionResult:
        """Execute ``query`` once with externally-expressed ``params``."""
        engine = loaded.engine
        bound = loaded.bind_params(dict(params))
        engine.reset_metrics()
        status = ExecutionStatus.OK
        detail = ""
        result_size = 0
        with _gc_paused():
            started = time.perf_counter()
            try:
                value = query(engine, bound)
                result_size = _result_size(value)
            except MemoryBudgetExceededError as error:
                status = ExecutionStatus.OUT_OF_MEMORY
                detail = str(error)
            except UnsupportedOperationError as error:
                status = ExecutionStatus.UNSUPPORTED
                detail = str(error)
            except GraphBenchError as error:
                status = ExecutionStatus.ERROR
                detail = str(error)
            elapsed = time.perf_counter() - started
        if status is ExecutionStatus.OK and elapsed > self.config.timeout:
            status = ExecutionStatus.TIMEOUT
            detail = f"elapsed {elapsed:.3f}s > timeout {self.config.timeout:.3f}s"
        logical_io = engine.io_cost()
        return ExecutionResult(
            engine=f"{engine.name}-{engine.version}",
            dataset=loaded.dataset.name,
            query_id=query.id,
            mode="single",
            status=status,
            elapsed=elapsed,
            logical_io=logical_io,
            result_size=result_size,
            detail=detail,
        )

    # -- batch executions ------------------------------------------------------------

    def run_batch(
        self,
        loaded: LoadedGraph,
        query: Query,
        params_list: list[Mapping[str, Any]],
    ) -> ExecutionResult:
        """Execute ``query`` once per parameter binding and report the total.

        This is the paper's batch mode: the same operation repeated
        ``batch_size`` times (with different parameters for mutating
        operations), reported as a single cumulative measurement.
        """
        engine = loaded.engine
        engine.reset_metrics()
        status = ExecutionStatus.OK
        detail = ""
        total_elapsed = 0.0
        executed = 0
        with _gc_paused():
            for params in params_list:
                bound = loaded.bind_params(dict(params))
                started = time.perf_counter()
                try:
                    query(engine, bound)
                except MemoryBudgetExceededError as error:
                    status = ExecutionStatus.OUT_OF_MEMORY
                    detail = str(error)
                    break
                except UnsupportedOperationError as error:
                    status = ExecutionStatus.UNSUPPORTED
                    detail = str(error)
                    break
                except GraphBenchError as error:
                    status = ExecutionStatus.ERROR
                    detail = str(error)
                    break
                finally:
                    total_elapsed += time.perf_counter() - started
                executed += 1
                if total_elapsed > self.config.timeout:
                    status = ExecutionStatus.TIMEOUT
                    detail = f"batch exceeded timeout after {executed} executions"
                    break
        logical_io = engine.io_cost()
        return ExecutionResult(
            engine=f"{engine.name}-{engine.version}",
            dataset=loaded.dataset.name,
            query_id=query.id,
            mode="batch",
            status=status,
            elapsed=total_elapsed,
            logical_io=logical_io,
            result_size=executed,
            detail=detail,
        )


def _result_size(value: Any) -> int:
    """Best-effort size of a query result (list length, dict size, or 1)."""
    if value is None:
        return 0
    if isinstance(value, (list, tuple, set, dict)):
        return len(value)
    return 1
