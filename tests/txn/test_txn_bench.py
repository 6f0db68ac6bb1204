"""The txn benchmark: payload shape, seed sensitivity, rendering, gating."""

from __future__ import annotations

import copy

import pytest

from repro.bench.gates import check_txn_invariants, comparable_payload
from repro.exceptions import BenchmarkError
from repro.txn import format_txn_report, run_txn_benchmark

_ARGS = dict(
    engine_ids=["nativelinked-1.9"],
    partitioner_names=["hash"],
    shard_counts=[1, 2],
    dataset_name="yeast",
    scale=0.2,
    transactions=16,
    footprint=3,
)


@pytest.fixture(scope="module")
def txn_report():
    return run_txn_benchmark(seed=20181204, **_ARGS)


class TestPayloadShape:
    def test_matrix_covers_shards_and_isolation_levels(self, txn_report):
        sweep = txn_report["engines"]["nativelinked-1.9"]["hash"]
        cells = [(run["shards"], run["isolation"]) for run in sweep["runs"]]
        assert cells == [(1, "si"), (1, "ssi"), (2, "si"), (2, "ssi")]

    def test_k1_cells_are_all_one_phase(self, txn_report):
        for run in txn_report["engines"]["nativelinked-1.9"]["hash"]["runs"]:
            if run["shards"] == 1:
                assert run["two_phase"] == 0
                assert run["messages"] == 0
                assert run["network_charge"] == 0
                assert run["cut_ratio"] == 0.0

    def test_multi_shard_cells_pay_for_their_crossings(self, txn_report):
        for run in txn_report["engines"]["nativelinked-1.9"]["hash"]["runs"]:
            if run["shards"] > 1:
                assert run["two_phase"] > 0
                assert run["messages"] > 0
                assert run["network_charge"] > 0
                assert run["cut_ratio"] > 0.0
                # Wider commit windows: 2PC latency above the local baseline.
                assert run["mean_latency"] > 0

    def test_skew_ledger_separates_si_from_ssi(self, txn_report):
        modes = txn_report["write_skew"]["nativelinked-1.9"]
        assert modes["si"]["anomalies"] > 0
        assert modes["si"]["ssi_aborts"] == 0
        assert modes["ssi"]["anomalies"] == 0
        assert modes["ssi"]["ssi_aborts"] > 0

    def test_parity_block_is_identical(self, txn_report):
        cell = txn_report["parity"]["nativelinked-1.9"]
        assert cell["identical"] is True
        assert cell["distributed"]["messages"] == 0


class TestDeterminism:
    def test_different_seed_changes_the_wave(self, txn_report):
        other = run_txn_benchmark(seed=7, **_ARGS)
        assert comparable_payload(other) != comparable_payload(txn_report)


class TestRendering:
    def test_report_names_the_figure_and_both_ledgers(self, txn_report):
        text = format_txn_report(txn_report)
        assert "Figure 13" in text
        assert "write skew" in text
        assert "K=1 parity" in text
        assert "IDENTICAL" in text
        assert "prevented" in text


class TestGuards:
    def test_shard_counts_below_one_are_refused(self):
        with pytest.raises(BenchmarkError):
            run_txn_benchmark(
                engine_ids=["nativelinked-1.9"],
                partitioner_names=["hash"],
                shard_counts=[0],
                transactions=4,
            )


class TestRegressionGate:
    def test_clean_payload_passes(self, txn_report):
        assert check_txn_invariants(txn_report) == []

    def test_broken_parity_fails(self, txn_report):
        broken = copy.deepcopy(txn_report)
        broken["parity"]["nativelinked-1.9"]["identical"] = False
        failures = check_txn_invariants(broken)
        assert any("parity" in failure for failure in failures)

    def test_permitted_skew_under_ssi_fails(self, txn_report):
        broken = copy.deepcopy(txn_report)
        broken["write_skew"]["nativelinked-1.9"]["ssi"]["anomalies"] = 3
        failures = check_txn_invariants(broken)
        assert any("write-skew" in failure for failure in failures)

    def test_abort_ceiling_fails(self, txn_report):
        broken = copy.deepcopy(txn_report)
        broken["engines"]["nativelinked-1.9"]["hash"]["runs"][2]["abort_rate"] = 0.9
        failures = check_txn_invariants(broken)
        assert any("ceiling" in failure for failure in failures)

    def test_lost_cut_pressure_fails(self, txn_report):
        broken = copy.deepcopy(txn_report)
        for run in broken["engines"]["nativelinked-1.9"]["hash"]["runs"]:
            run["abort_rate"] = 0.2 if run["shards"] == 1 else 0.05
        failures = check_txn_invariants(broken)
        assert any("cut-ratio pressure" in failure for failure in failures)

    def test_si_booking_ssi_aborts_fails(self, txn_report):
        broken = copy.deepcopy(txn_report)
        broken["engines"]["nativelinked-1.9"]["hash"]["runs"][0]["ssi_aborts"] = 2
        failures = check_txn_invariants(broken)
        assert any("SI cell booked" in failure for failure in failures)
