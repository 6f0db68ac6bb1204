"""Tier-1 checks of the layers benchmark itself (fast: tiny tapes only)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.layers import compare
from benchmarks.layers.harness import END_TO_END, PER_LAYER, ROUNDS, Recorder, geomean, spread
from benchmarks.layers.run import WORKLOADS, result_line, run_workload
from benchmarks.layers.trace import Tracer, self_times
from repro.concurrency.scheduler import percentile

ROOT = Path(__file__).resolve().parents[2]


# -- metric math -------------------------------------------------------------


def test_percentile_geomean_and_spread():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(list(range(1, 101)), 95) == 95
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0 and geomean([1.0, 0.0]) == 0.0
    # statistics.quantiles(n=4) of 1..10 gives quartiles 2.75 and 8.25.
    assert spread([float(v) for v in range(1, 11)]) == pytest.approx(5.5 / 5.5)
    assert spread([3.0]) == 0.0


def test_round_median_and_engine_balanced_throughput():
    rec = Recorder()
    # Two cells, three rounds; round 1 is slow on the fast cell only.
    for index, fast in enumerate((0.001, 0.004, 0.001)):
        rec.time_ops(index, "fast", "point", [fast] * 10)
        rec.time_ops(index, "slow", "point", [0.100] * 10)
    rec.charge_ops("fast", "point", [2] * 10)
    rec.charge_ops("slow", "point", [4] * 10)
    metrics = rec.end_to_end()
    # Per round the pooled p50 is the fast cell's latency; the median over
    # rounds ignores the one slow round.
    assert metrics["op_p50_us"] == pytest.approx(1000.0)
    assert metrics["op_p95_us"] == pytest.approx(100_000.0)
    # Geometric mean of 1000 ops/s (median round) and 10 ops/s.
    assert metrics["ops_per_s"] == pytest.approx(100.0)
    assert metrics["wall_s"] == pytest.approx(3.06)
    # Charges were booked for one round only; the ratio is per booked op.
    assert metrics["charge_per_op"] == pytest.approx(3.0)
    assert rec.attempted == 60 and rec.charged_ops == 20


def test_traced_round_is_left_out_of_end_to_end_numbers():
    rec = Recorder()
    rec.time_ops(0, "cell", "point", [0.001] * 4)
    rec.time_ops(1, "cell", "point", [0.009] * 4)
    rec.traced_rounds.add(1)
    assert rec.end_to_end()["wall_s"] == pytest.approx(0.004)
    assert rec.round_wall(1) == pytest.approx(0.036)


# -- tracing -----------------------------------------------------------------


def test_self_time_on_a_synthetic_nested_trace():
    # root(10) -> a(6) -> generator g(busy 3); root -> b(1)
    durations = [10.0, 6.0, 3.0, 1.0]
    parents = [-1, 0, 1, 0]
    assert self_times(durations, parents) == [3.0, 3.0, 3.0, 1.0]


def test_generator_span_is_timed_inside_next_only():
    tracer = Tracer()

    def leaf(value):
        return value * 2

    leaf = tracer.wrap(leaf, "leaf", "storage")

    def produce(count):
        for value in range(count):
            yield leaf(value)

    produce = tracer.wrap(produce, "produce", "engines")

    def consume():
        total = 0
        for value in produce(3):
            total += sum(range(2000))  # consumer work between resumes
            total += value
        return total

    consume = tracer.wrap(consume, "consume", "queries")
    tracer.enabled = True
    tracer.op_id = 7
    consume()
    tracer.enabled = False
    spans = tracer.spans()
    assert [name for name, *_rest in spans] == ["consume", "produce", "leaf", "leaf", "leaf"]
    names = {name: index for index, (name, *_rest) in enumerate(spans)}
    assert spans[names["produce"]][4] == names["consume"]  # parent: the consumer
    assert all(span[4] == names["produce"] for span in spans[2:])  # leaves: the generator
    assert all(span[5] == 7 for span in spans)
    summary = tracer.summary()
    assert summary["names"]["produce"]["yielded"] == 3
    produce_busy = spans[1][3] - spans[1][2]
    consume_total = spans[0][3] - spans[0][2]
    # The consumer's own loop work is not the generator's.
    assert produce_busy < consume_total / 2
    assert set(summary["layers"]) == {"queries", "engines", "storage"}


def test_class_patches_are_undone():
    from repro.storage.btree import BPlusTree

    original = BPlusTree.insert
    tracer = Tracer()
    tracer.patch_class(BPlusTree, "storage")
    assert BPlusTree.insert is not original
    tracer.close()
    assert BPlusTree.insert is original


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_names_and_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/layers"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for row in spec["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in spec["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"} and 0 < row["bound"] <= 0.25
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", row["unit"]), row
        assert row["better"] in ("lower", "higher")
    assert {row["name"]: row["unit"] for row in spec["end_to_end"]} == dict(END_TO_END)
    assert {row["name"]: row["unit"] for row in spec["per_layer"]} == dict(PER_LAYER)
    assert [row["name"] for row in spec["workloads"]] == list(WORKLOADS)
    setup = next(row for row in spec["end_to_end"] if row["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["bound"] == max(r["bound"] for r in spec["end_to_end"])


# -- every workload, tiny ------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric_and_tracing_changes_nothing(name, tmp_path):
    untraced = run_workload(name, seed=3, seconds=1, trace=False, smoke=True, output=tmp_path)
    traced = run_workload(name, seed=3, seconds=1, trace=True, smoke=True, output=tmp_path)
    for payload in (untraced, traced):
        assert payload["correct"], payload["check_failures"]
        assert payload["failed"] == 0 and payload["attempted"] > 0
    line = json.loads(result_line(untraced))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [metric for metric, _unit in END_TO_END]
    assert all(row["value"] > 0 for row in line["metrics"].values())
    layer_line = json.loads(result_line(traced))
    assert list(layer_line["metrics"]) == [metric for metric, _unit in PER_LAYER]
    sheet = traced["per_layer"]
    assert sheet["storage.self_s"] > 0 and sheet["engines.calls"] > 0
    assert sheet["engines.digest_mismatches"] == 0
    owner = {"session-mix": "concurrency.commits", "sharded": "txn.committed"}.get(name)
    if owner:
        assert sheet[owner] > 0
    # Byte-identical simulated currency with and without the tracer.
    for key in ("charge_per_op", "sim_p95_charge", "result_digest", "storage_per_round"):
        assert untraced["simulated"][key] == traced["simulated"][key], key
    assert len(untraced["rounds"]["wall_s"]) == ROUNDS
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"{name}-trace.json", f"{name}-traced.json", f"{name}-untraced.json",
    ]


def test_compare_gates_exact_metrics_and_marks_noise_unresolved(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        run_workload("write-cud", seed=5, seconds=1, trace=False, smoke=True, output=directory)
    rows, bad = compare.compare(a, b)
    verdicts = {row[1]: row[6] for row in rows}
    assert bad == 0, rows
    assert verdicts["charge_per_op"] == "identical" and verdicts["sim_p95_charge"] == "identical"
    # A different charge is a failure no matter how small.
    path = b / "write-cud-untraced.json"
    payload = json.loads(path.read_text())
    payload["end_to_end"]["charge_per_op"] += 0.001
    # A host metric twice as slow regresses; with noisy rounds it is unresolved.
    payload["end_to_end"]["op_p95_us"] *= 2
    payload["end_to_end"]["wall_s"] *= 2
    payload["rounds"]["wall_s"] = [1.0, 9.0, 1.0, 9.0, 1.0]
    payload["rounds"]["op_p95_us"] = [100.0] * ROUNDS
    path.write_text(json.dumps(payload))
    payload_a = json.loads((a / "write-cud-untraced.json").read_text())
    payload_a["rounds"]["op_p95_us"] = [100.0] * ROUNDS
    (a / "write-cud-untraced.json").write_text(json.dumps(payload_a))
    rows, bad = compare.compare(a, b)
    verdicts = {row[1]: row[6] for row in rows}
    assert verdicts["charge_per_op"] == "DIFFERS"
    assert verdicts["op_p95_us"] == "REGRESSED"
    assert verdicts["wall_s"] == "unresolved"
    assert bad == 2
