"""Open-loop saturation sweeps: find each engine's throughput knee.

The closed-loop benchmark (``graphbench concurrent``) measures latency at
whatever throughput the clients happen to sustain; it cannot say *where the
server falls over*.  This module answers that question the way open-loop
load testing does: clients submit at a fixed arrival interval regardless of
completions, the sweep halves the interval step by step (doubling the
offered rate), and the measured throughput curve bends — first linear in
the offered load, then flat once the single charged server saturates while
queueing delay (and therefore p99 latency) grows without bound.  The step
where the curve stops improving is the **knee**.

Everything derives from seeded choices and logical charges, so the full
``BENCH_saturation.json`` payload is byte-identical across machines and CI
gates it on identity with ``graphbench gate saturate``, exactly like the
fig8 concurrency gate.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.bench import registry
from repro.concurrency.driver import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    GROUP_COMMIT,
    MIX,
    MIXES,
    run_engine_mode,
)
from repro.concurrency.report import format_loop_comparison, format_saturation_report
from repro.datasets import get_dataset
from repro.exceptions import BenchmarkError

#: A step must improve throughput by more than this fraction to count as
#: "still scaling"; the first step that fails the test is the collapse
#: point and ends the sweep for that engine.
KNEE_GAIN = 0.05

#: Fields copied from the per-run row into each sweep step.
_STEP_FIELDS = (
    "operations",
    "makespan_charge",
    "throughput_ops_per_kcharge",
    "p50_charge",
    "p95_charge",
    "p99_charge",
    "commit_p99_charge",
    "commits",
    "conflict_aborts",
    "abort_rate",
    "retries",
    "giveups",
    "gc_reclaimed_undo",
    "retained_entries",
)


def sweep_engine(
    engine_id: str,
    durability: str,
    dataset: Any,
    mix_name: str,
    clients: int,
    txns: int,
    seed: int,
    group_commit: int,
    start_interval: int,
    min_interval: int,
    max_steps: int,
    retries: int = DEFAULT_RETRIES,
    backoff: int = DEFAULT_BACKOFF,
) -> dict[str, Any]:
    """Sweep one engine's arrival rate until its throughput collapses.

    Returns ``{"steps": [...], "knee": {...}, "saturated": bool}`` where
    ``saturated`` records whether the sweep actually observed the collapse
    (as opposed to exhausting its step or interval budget first).
    """
    if start_interval < min_interval:
        raise BenchmarkError(
            f"start interval {start_interval} is below the minimum interval "
            f"{min_interval}: the sweep would take no steps"
        )
    mix = MIXES[mix_name]
    steps: list[dict[str, Any]] = []
    interval = start_interval
    previous_throughput: float | None = None
    saturated = False
    while interval >= min_interval and len(steps) < max_steps:
        row = run_engine_mode(
            engine_id,
            durability,
            dataset,
            mix,
            clients,
            txns,
            seed,
            group_commit,
            loop="open",
            arrival_interval=interval,
            retries=retries,
            backoff=backoff,
        )
        step: dict[str, Any] = {
            "arrival_interval": interval,
            # Each of the N clients offers one op per `interval` charges.
            "offered_ops_per_kcharge": round(clients * 1000 / interval, 4),
        }
        for field in _STEP_FIELDS:
            step[field] = row[field]
        steps.append(step)
        throughput = step["throughput_ops_per_kcharge"]
        if previous_throughput is not None and throughput <= previous_throughput * (
            1.0 + KNEE_GAIN
        ):
            # Doubling the offered load no longer buys throughput: the
            # server is saturated, and this step documents the collapse
            # (flat throughput, exploding queueing latency).
            saturated = True
            break
        previous_throughput = throughput
        interval //= 2
    knee = max(steps, key=lambda step: step["throughput_ops_per_kcharge"])
    return {
        "steps": steps,
        "knee": {
            "arrival_interval": knee["arrival_interval"],
            "offered_ops_per_kcharge": knee["offered_ops_per_kcharge"],
            "throughput_ops_per_kcharge": knee["throughput_ops_per_kcharge"],
            "p99_charge": knee["p99_charge"],
        },
        "saturated": saturated,
    }


#: Fields carried into each loop-comparison row.
_COMPARISON_FIELDS = (
    "throughput_ops_per_kcharge",
    "p50_charge",
    "p95_charge",
    "p99_charge",
    "abort_rate",
    "retries",
)


def run_loop_comparison(sweep_report: dict[str, Any]) -> dict[str, Any]:
    """Put a closed-loop run beside each engine's open-loop sweep (fig 9b).

    The closed loop answers "how fast do N clients go when each waits for
    its own completions"; the open loop at the knee answers "how much can
    the server be *offered* before queueing sets in"; the collapse row
    shows what the same server looks like past saturation.  All three use
    the identical seeded workload, so the contrast is purely the loop
    model — the classic closed-vs-open methodology distinction the
    benchmarking literature warns about.

    Derives every parameter from ``sweep_report`` (a
    :func:`run_saturation_sweep` payload), so the comparison is exactly
    the sweep's workload re-driven closed-loop — and just as
    deterministic.
    """
    dataset = get_dataset(
        sweep_report["dataset"]["name"],
        scale=sweep_report["dataset"]["scale"],
        seed=sweep_report["dataset"]["seed"],
    )
    mix = MIXES[sweep_report["mix"]]
    engines: dict[str, Any] = {}
    for engine_id, sweep in sweep_report["engines"].items():
        closed_row = run_engine_mode(
            engine_id,
            sweep_report["durability"],
            dataset,
            mix,
            sweep_report["clients"],
            sweep_report["txns_per_client"],
            sweep_report["seed"],
            sweep_report["group_commit"],
            loop="closed",
            retries=sweep_report["retries"],
            backoff=sweep_report["backoff"],
        )
        knee_interval = sweep["knee"]["arrival_interval"]
        knee_step = next(
            step
            for step in sweep["steps"]
            if step["arrival_interval"] == knee_interval
        )
        collapse_step = sweep["steps"][-1]

        def _row(source: dict[str, Any], interval: int) -> dict[str, Any]:
            row = {"arrival_interval": interval}
            for field in _COMPARISON_FIELDS:
                row[field] = source[field]
            return row

        engines[engine_id] = {
            # Closed loop has no arrival interval: submission == completion.
            "closed": _row(closed_row, 0),
            "open_knee": _row(knee_step, knee_interval),
            "open_collapse": _row(collapse_step, collapse_step["arrival_interval"]),
            # Whether the sweep actually observed the collapse; when it
            # exhausted its budget first, the last step is not past the
            # knee and the figure must not label it a collapse.
            "saturated": sweep["saturated"],
        }
    return {
        "benchmark": "loop-comparison",
        "dataset": dict(sweep_report["dataset"]),
        "clients": sweep_report["clients"],
        "mix": sweep_report["mix"],
        "txns_per_client": sweep_report["txns_per_client"],
        "seed": sweep_report["seed"],
        "durability": sweep_report["durability"],
        "engines": engines,
    }


def run_saturation_sweep(
    # The concurrency baseline's subset: one native engine, one
    # remote/async-flavoured one.
    engine_ids: Sequence[str] = ("nativelinked-1.9", "documentgraph-2.8"),
    clients: int = 4,
    mix_name: str = "write-heavy",
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    txns: int = 8,
    durability: str = "sync",
    group_commit: int = 4,
    # The interval starts comfortably above every engine's mean service
    # cost and halves until the knee (or the floor) is reached.
    start_interval: int = 1024,
    min_interval: int = 2,
    max_steps: int = 10,
    retries: int = DEFAULT_RETRIES,
    backoff: int = DEFAULT_BACKOFF,
) -> dict[str, Any]:
    """Sweep every engine and return the ``BENCH_saturation.json`` payload.

    Every field derives from seeded choices and logical charges, so the
    payload is byte-identical across runs with the same arguments (the
    saturation determinism test holds this).
    """
    registry.check_args(SPEC.args, locals())
    dataset, header = registry.seeded_dataset(dataset_name, scale, registry.DATASET_SEED)
    # Passed to every engine's sweep and echoed in the payload under the same names.
    sweep = {
        "start_interval": start_interval,
        "min_interval": min_interval,
        "max_steps": max_steps,
        "retries": retries,
        "backoff": backoff,
    }
    engines: dict[str, dict[str, Any]] = {
        engine_id: sweep_engine(
            engine_id, durability, dataset, mix_name, clients, txns, seed, group_commit, **sweep
        )
        for engine_id in engine_ids
    }
    return {
        "benchmark": "open-loop-saturation",
        "dataset": header,
        "clients": clients,
        "mix": mix_name,
        "txns_per_client": txns,
        "seed": seed,
        "durability": durability,
        "group_commit": group_commit,
        **sweep,
        "knee_gain": KNEE_GAIN,
        "engines": engines,
    }


def _compare_loops(payload: dict[str, Any], args: Any) -> list[Path]:
    """``saturate --compare-loops``: re-drive closed-loop, write Figure 9b."""
    if not args.compare_loops:
        return []
    comparison = run_loop_comparison(payload)
    text = format_loop_comparison(comparison)
    print()
    print(text)
    return registry.write_report(comparison, text, None, args.loop_report)


SPEC = registry.BenchmarkSpec(
    name="saturate",
    help="open-loop saturation sweep: step the arrival rate until "
    "throughput collapses and report the knee (Figure 9); "
    "--compare-loops adds the closed-vs-open Figure 9b",
    run=run_saturation_sweep,
    format=format_saturation_report,
    args=(
        registry.engines_arg("sweep"),
        registry.arg("--clients", "open-loop clients", minimum=1),
        MIX,
        registry.arg("--txns", "transactions per client", minimum=1),
        registry.DATASET,
        registry.SCALE,
        registry.SEED,
        registry.arg("--durability", "WAL durability mode", choices=["sync", "async"]),
        GROUP_COMMIT,
        registry.arg(
            "--start-interval",
            "first (slowest) per-client arrival interval, in charge units",
            minimum=1,
        ),
        registry.arg(
            "--min-interval", "stop stepping below this interval even without a knee", minimum=1
        ),
        registry.arg("--max-steps", "maximum sweep steps per engine", minimum=1),
        registry.arg("--retries", minimum=0),
        registry.arg("--backoff", minimum=0),
        registry.arg(
            "--compare-loops",
            "after the sweep, re-drive the same workload closed-loop and "
            "write the closed-vs-open comparison figure (Figure 9b)",
            kwarg=None,
            action="store_true",
        ),
        registry.arg(
            "--loop-report",
            "where --compare-loops writes the comparison figure ('' to skip)",
            kwarg=None,
            default="benchmarks/reports/fig9b_loop_comparison.txt",
        ),
    ),
    baseline="BENCH_saturation.json",
    report="benchmarks/reports/fig9_saturation.txt",
    gated_on="identity",
    after=_compare_loops,
)
