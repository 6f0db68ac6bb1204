"""The open-loop saturation sweep: knee detection, determinism, gating."""

from __future__ import annotations

import json

import pytest

from repro.bench.gates import comparable_payload
from repro.concurrency import (
    format_loop_comparison,
    run_loop_comparison,
    format_saturation_report,
    run_saturation_sweep,
)

_ARGS = dict(
    engine_ids=["nativelinked-1.9"],
    clients=4,
    mix_name="write-heavy",
    dataset_name="yeast",
    scale=0.15,
    txns=4,
    start_interval=512,
    min_interval=4,
)


@pytest.fixture(scope="module")
def sweep_report():
    return run_saturation_sweep(seed=20181204, **_ARGS)


class TestSweepShape:
    def test_intervals_halve_and_knee_is_max_throughput(self, sweep_report):
        sweep = sweep_report["engines"]["nativelinked-1.9"]
        intervals = [step["arrival_interval"] for step in sweep["steps"]]
        assert intervals[0] == 512
        assert all(b == a // 2 for a, b in zip(intervals, intervals[1:]))
        throughputs = [step["throughput_ops_per_kcharge"] for step in sweep["steps"]]
        assert sweep["knee"]["throughput_ops_per_kcharge"] == max(throughputs)
        assert sweep["knee"]["arrival_interval"] in intervals

    def test_collapse_shows_the_open_loop_tail(self, sweep_report):
        """Past the knee, throughput flattens while queueing delay blows up."""
        sweep = sweep_report["engines"]["nativelinked-1.9"]
        assert sweep["saturated"], "the sweep must actually observe the collapse"
        first, last = sweep["steps"][0], sweep["steps"][-1]
        # Offered load grew by orders of magnitude...
        assert last["offered_ops_per_kcharge"] > 10 * first["offered_ops_per_kcharge"]
        # ...but the last doubling no longer bought 5% more throughput,
        assert last["throughput_ops_per_kcharge"] <= sweep["steps"][-2][
            "throughput_ops_per_kcharge"
        ] * 1.05
        # ...while tail latency exploded (queueing, not service time).
        assert last["p99_charge"] > 3 * first["p99_charge"]

    def test_every_step_keeps_the_gc_bounded(self, sweep_report):
        for step in sweep_report["engines"]["nativelinked-1.9"]["steps"]:
            assert step["retained_entries"] == 0


class TestSweepEdgeCases:
    def test_single_step_sweep_knee_is_the_first_interval(self):
        """start == min interval: one step, knee == it, no collapse seen."""
        report = run_saturation_sweep(
            seed=20181204,
            **{**_ARGS, "start_interval": 512, "min_interval": 512},
        )
        sweep = report["engines"]["nativelinked-1.9"]
        assert len(sweep["steps"]) == 1
        assert sweep["knee"]["arrival_interval"] == 512
        assert not sweep["saturated"], (
            "a one-step sweep never observed a failed doubling, so it must "
            "report budget exhaustion, not collapse"
        )

    def test_sweep_that_never_improves_collapses_immediately(self):
        """Starting past saturation: the first doubling already fails the
        >5% gain rule, so the sweep stops at step two with the knee on the
        first interval."""
        report = run_saturation_sweep(
            seed=20181204,
            **{**_ARGS, "start_interval": 2, "min_interval": 1},
        )
        sweep = report["engines"]["nativelinked-1.9"]
        assert len(sweep["steps"]) == 2
        assert sweep["saturated"]
        assert sweep["knee"]["arrival_interval"] == 2
        first, second = sweep["steps"]
        assert second["throughput_ops_per_kcharge"] <= (
            first["throughput_ops_per_kcharge"] * 1.05
        )


class TestLoopComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        sweep_report = run_saturation_sweep(seed=20181204, **_ARGS)
        return run_loop_comparison(sweep_report), sweep_report

    def test_rows_cover_closed_knee_and_collapse(self, comparison):
        payload, sweep_report = comparison
        rows = payload["engines"]["nativelinked-1.9"]
        assert sorted(rows) == ["closed", "open_collapse", "open_knee", "saturated"]
        assert rows["saturated"] is True
        assert rows["closed"]["arrival_interval"] == 0
        sweep = sweep_report["engines"]["nativelinked-1.9"]
        assert (
            rows["open_knee"]["throughput_ops_per_kcharge"]
            == sweep["knee"]["throughput_ops_per_kcharge"]
        )
        assert (
            rows["open_collapse"]["arrival_interval"]
            == sweep["steps"][-1]["arrival_interval"]
        )

    def test_open_collapse_shows_the_queueing_tail(self, comparison):
        """The methodology point of fig9b: the same seeded workload has a
        far worse p99 open-loop past the knee than closed-loop, because
        closed-loop clients self-throttle."""
        payload, _sweep_report = comparison
        rows = payload["engines"]["nativelinked-1.9"]
        assert rows["open_collapse"]["p99_charge"] > rows["closed"]["p99_charge"]

    def test_comparison_is_deterministic(self, comparison):
        payload, sweep_report = comparison
        again = run_loop_comparison(sweep_report)
        assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_unsaturated_sweep_is_not_labelled_a_collapse(self):
        """A budget-exhausted sweep's last step is pre-knee evidence, so
        fig9b must not present it as the post-saturation row."""
        sweep_report = run_saturation_sweep(
            seed=20181204,
            **{**_ARGS, "start_interval": 512, "min_interval": 512},
        )
        assert not sweep_report["engines"]["nativelinked-1.9"]["saturated"]
        payload = run_loop_comparison(sweep_report)
        assert payload["engines"]["nativelinked-1.9"]["saturated"] is False
        rendered = format_loop_comparison(payload)
        assert "open @ last step" in rendered
        assert "open @ collapse" not in rendered

    def test_rendered_figure_names_both_loop_models(self, comparison):
        payload, _sweep_report = comparison
        rendered = format_loop_comparison(payload)
        assert rendered.startswith("Figure 9b")
        assert "closed loop" in rendered
        assert "open @ knee" in rendered


class TestSweepDeterminism:
    def test_different_seed_changes_the_sweep(self, sweep_report):
        other = run_saturation_sweep(seed=42, **_ARGS)
        assert comparable_payload(sweep_report) != comparable_payload(other)

    def test_rendered_figure_marks_the_knee(self, sweep_report):
        rendered = format_saturation_report(sweep_report)
        assert "Figure 9" in rendered
        assert "knee at interval" in rendered
        assert "*" in rendered
