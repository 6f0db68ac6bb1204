"""Figure 1(c) — failed executions (time-outs/OOM) in interactive and batch mode."""

from __future__ import annotations

from repro.bench.report import timeout_table


def test_fig1_completion_rate(benchmark, micro_results, save_report):
    """Regenerate the time-out figure and check the completion-rate ordering."""
    table = benchmark.pedantic(lambda: timeout_table(micro_results), rounds=1, iterations=1)
    save_report("fig1_timeouts", table, tracked=True)

    failures = {engine: micro_results.timeout_count(engine) for engine in micro_results.engines()}
    native_linked = [count for engine, count in failures.items() if engine.startswith("nativelinked")]
    triple = [count for engine, count in failures.items() if engine.startswith("triplegraph")]
    # The paper: Neo4J completes everything; BlazeGraph collects the most problems.
    assert min(native_linked) == 0
    assert max(triple) >= max(native_linked)
