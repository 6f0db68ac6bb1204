"""Payload shape and cross-policy gates of the versions bench."""

from __future__ import annotations

import copy

import pytest

from repro.bench.gates import check_versions_invariants
from repro.exceptions import BenchmarkError
from repro.versions import format_versions_report, run_versions_benchmark

SMALL = dict(
    engine_ids=["nativelinked-1.9"],
    depths=[3],
    mixes=["read"],
    retentions=["keep-all", "keep-tagged", "depth-2"],
    base_vertices=16,
    churn_ops=6,
    tag_every=2,
    seed=7,
)


@pytest.fixture(scope="module")
def payload():
    return run_versions_benchmark(**SMALL)


class TestDeterminism:
    def test_retention_does_not_perturb_the_churn(self, payload):
        """Cell seeds exclude retention, so every policy replays the same
        churn: the final graph shape must agree across the policy axis."""
        shapes = {cell["retention"]: cell["graph"] for cell in payload["cells"]}
        assert len(set(map(repr, shapes.values()))) == 1


class TestPayload:
    def test_envelope_and_cell_fields(self, payload):
        assert payload["benchmark"] == "graph-versions"
        assert len(payload["cells"]) == 3
        for cell in payload["cells"]:
            assert cell["asof"]["results_match"] is True
            assert cell["asof"]["head_overhead"] == 0
            assert cell["diff"]["charge"] >= 0
            assert cell["catalog"]["commits"] == SMALL["depths"][0] + 1

    def test_cross_policy_gates(self, payload):
        by_policy = {cell["retention"]: cell["catalog"] for cell in payload["cells"]}
        keep_all = by_policy["keep-all"]
        assert keep_all["gc_reclaimed_undo"] == 0
        for policy in ("keep-tagged", "depth-2"):
            pruned = by_policy[policy]
            assert pruned["retained_bytes"] <= keep_all["retained_bytes"]
            assert pruned["gc_reclaimed_undo"] >= keep_all["gc_reclaimed_undo"]
            assert pruned["released_commits"] > 0

    def test_gate_requires_pruning_to_prune(self, payload):
        assert check_versions_invariants(payload) == []
        broken = copy.deepcopy(payload)
        for cell in broken["cells"]:
            if cell["retention"] == "keep-tagged":
                cell["catalog"]["released_commits"] = 0
                cell["asof"]["head_overhead"] = 3
        failures = check_versions_invariants(broken)
        assert any("released no commits" in failure for failure in failures)
        assert any("head as-of charge overhead" in failure for failure in failures)

    def test_report_renders_every_cell(self, payload):
        report = format_versions_report(payload)
        assert "Figure 15" in report
        assert "nativelinked-1.9" in report
        for retention in SMALL["retentions"]:
            assert retention in report


class TestBadArgs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_vertices": 4},
            {"churn_ops": 0},
            {"tag_every": 0},
            {"depths": [0]},
        ],
    )
    def test_rejected_loudly(self, kwargs):
        with pytest.raises(BenchmarkError):
            run_versions_benchmark(**{**SMALL, **kwargs})
