"""The K=1 parity contract, differentially, on every registered engine.

A distributed commit whose writes land on a single shard takes the
one-phase fast path: no PREPARE/COMMIT messages, no decision record, no
journal traffic.  At K=1 *every* commit is single-shard, so an entire
wave of transactions driven through :class:`DistributedSessionManager`
must be indistinguishable — final state, engine charges, commit/abort
counts — from the same wave driven through plain local sessions on an
identically-built engine.  ``graphbench gate txn``
gates the benchmark-level restatement; this test pins the contract per
engine, including both versions of each system.
"""

from __future__ import annotations

import pytest

from repro.datasets import get_dataset
from repro.engines import ALL_ENGINES
from repro.partition.messages import NetworkCostModel
from repro.txn.bench import plan_transactions, run_parity_phase


@pytest.fixture(scope="module")
def parity_inputs():
    dataset = get_dataset("yeast", scale=0.1, seed=11)
    txn_plans = plan_transactions(dataset, seed=20181204, count=10, footprint=3)
    return dataset, txn_plans


@pytest.mark.parametrize("engine_id", ALL_ENGINES)
def test_k1_wave_is_identical_to_local_sessions(engine_id, parity_inputs):
    dataset, txn_plans = parity_inputs
    cell = run_parity_phase(
        engine_id,
        dataset,
        txn_plans,
        NetworkCostModel(),
        arrival_gap=32,
        base_duration=60,
    )
    distributed, direct = cell["distributed"], cell["direct"]
    assert cell["identical"], (
        f"{engine_id}: distributed {distributed} vs direct {direct}"
    )
    # Spell the contract out, so a partial regression names its axis.
    assert distributed["checksum"] == direct["checksum"]
    assert distributed["charge"] == direct["charge"]
    assert distributed["commits"] == direct["commits"]
    assert distributed["aborts"] == direct["aborts"]
    assert distributed["messages"] == 0
    assert distributed["network_charge"] == 0
