"""2PC mechanics: phases, journaling, KV separation, abort accounting.

Each test drives :class:`DistributedSessionManager` over a 2-shard
partition of the small conformance graph and pins one slice of the
protocol described in :mod:`repro.txn.distributed`'s docstring.
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    BenchmarkError,
    SerializationFailureError,
    SessionStateError,
    WriteConflictError,
)

class TestCommitModes:
    def test_multi_writer_commit_runs_two_phases(self, harness):
        a, b = harness.two_shard_pair()
        txn = harness.manager.begin()
        txn.set_vertex_property(a, "balance", 10)
        txn.set_vertex_property(b, "balance", 20)
        result = txn.commit()

        assert result.mode == "2pc"
        assert result.outcome == "committed"
        assert result.writers == tuple(sorted({harness.manager.owner[a], harness.manager.owner[b]}))
        # PREPARE (ops + vote) and COMMIT (decide + ack) both cross the wire.
        assert result.messages >= 4
        assert result.network_charge > 0
        assert result.prepare_latency > 0
        assert result.commit_latency > 0
        assert result.total_latency == result.prepare_latency + result.commit_latency
        assert harness.manager.stats.two_phase == 1
        assert harness.manager.stats.one_phase == 0
        # Both writes are durably visible.
        assert harness.read_committed(a, "balance") == 10
        assert harness.read_committed(b, "balance") == 20

    def test_each_writer_journals_ops_plus_prepare_marker(self, harness):
        a, b = harness.two_shard_pair()
        txn = harness.manager.begin()
        txn.set_vertex_property(a, "balance", 1)
        txn.set_vertex_property(b, "balance", 2)
        txn.commit()
        for external in (a, b):
            shard = harness.manager.txn_shards[harness.manager.owner[external]]
            operations = [record.operation for record in shard.journal.replay()]
            assert operations == ["set_vertex_property", "prepare"]
            assert shard.journal_charge() > 0

    def test_decision_is_journaled_before_commit_messages(self, harness):
        a, b = harness.two_shard_pair()
        txn = harness.manager.begin()
        txn.set_vertex_property(a, "x", 1)
        txn.set_vertex_property(b, "x", 2)
        txn.commit()
        decisions = [
            record.payload
            for record in harness.manager.decision_log.replay()
            if record.operation == "decision"
        ]
        assert decisions == [{"txn": txn.id, "outcome": "committed"}]

    def test_single_writer_takes_the_one_phase_fast_path(self, harness):
        a, b = harness.two_shard_pair()
        txn = harness.manager.begin()
        # A cross-shard *read* does not demote the fast path: the read-only
        # participant drops out (read-only 2PC optimisation).
        assert txn.vertex_property(b, "rank") is not None
        txn.set_vertex_property(a, "balance", 5)
        result = txn.commit()

        assert result.mode == "local"
        assert result.messages == 0
        assert result.network_charge == 0
        assert harness.manager.stats.one_phase == 1
        assert len(harness.manager.decision_log) == 0
        for shard in harness.manager.txn_shards:
            assert len(shard.journal) == 0
        assert harness.read_committed(a, "balance") == 5

    def test_read_only_transaction_commits_locally(self, harness):
        a, b = harness.two_shard_pair()
        txn = harness.manager.begin()
        txn.vertex_property(a, "rank")
        txn.vertex_property(b, "rank")
        result = txn.commit()
        assert result.mode == "local"
        assert result.writers == ()
        assert harness.manager.stats.committed == 1


class TestReadOnlyParticipant:
    """Two writers plus a third shard the transaction only read from."""

    def _footprint(self, harness):
        return (
            sum(shard.journal_charge() for shard in harness.manager.txn_shards),
            len(harness.manager.decision_log),
            harness.manager.stats.network.messages,
        )

    def _read_one_write_two(self, harness):
        a, b, c = harness.one_per_shard()
        txn = harness.manager.begin()
        assert txn.vertex_property(c, "rank") is not None
        txn.set_vertex_property(a, "x", 1)
        txn.set_vertex_property(b, "x", 1)
        return txn, c

    def test_reader_drops_out_of_the_protocol_for_free(self, make_harness):
        harness = make_harness(shards=3)
        txn, c = self._read_one_write_two(harness)
        result = txn.commit()

        reader = harness.manager.owner[c]
        assert result.mode == "2pc"
        assert reader not in result.writers
        # Two writers x (PREPARE, vote, COMMIT, ack); nothing for the reader.
        assert result.messages == 8
        assert len(harness.manager.txn_shards[reader].journal) == 0
        assert not txn._sessions[reader].is_open

    def test_stale_read_under_ssi_aborts_before_anything_is_journaled(self, make_harness):
        harness = make_harness(shards=3, isolation="ssi")
        txn, c = self._read_one_write_two(harness)
        with harness.manager.begin() as other:
            other.set_vertex_property(c, "rank", 99)  # one-phase: no footprint
        before = self._footprint(harness)
        with pytest.raises(SerializationFailureError):
            txn.commit()

        assert txn.state == "aborted"
        assert harness.manager.stats.ssi_aborts == 1
        assert self._footprint(harness) == before == (0, 0, 0)
        assert not any(session.is_open for session in txn._sessions.values())


class TestJournalSeparation:
    def test_oversized_values_split_into_the_shard_value_log(self, harness):
        a, b = harness.two_shard_pair()
        big = "v" * 200
        txn = harness.manager.begin()
        txn.set_vertex_property(a, "blob", big)
        txn.set_vertex_property(b, "marker", 1)
        txn.commit()

        shard = harness.manager.txn_shards[harness.manager.owner[a]]
        assert shard.journal.separated_values == 1
        assert len(shard.value_log) == 1
        # The journal record holds a pointer, and resolution round-trips.
        [op_record] = [
            record
            for record in shard.journal.replay()
            if record.operation == "set_vertex_property"
        ]
        resolved = shard.journal.resolve_payload(op_record.payload)
        assert resolved["value"] == big


class TestAborts:
    def test_distributed_fcw_conflict_aborts_with_write_conflict(self, harness):
        a, b = harness.two_shard_pair()
        first = harness.manager.begin()
        second = harness.manager.begin()
        first.set_vertex_property(a, "balance", 1)
        first.set_vertex_property(b, "balance", 1)
        second.set_vertex_property(a, "balance", 2)
        second.set_vertex_property(b, "balance", 2)
        first.commit()
        with pytest.raises(WriteConflictError):
            second.commit()

        assert harness.manager.stats.conflict_aborts == 1
        assert harness.manager.stats.ssi_aborts == 0
        assert second.state == "aborted"
        # First committer's values survive on both shards.
        assert harness.read_committed(a, "balance") == 1
        assert harness.read_committed(b, "balance") == 1

    def test_vote_no_journals_an_abort_decision(self, harness):
        a, b = harness.two_shard_pair()
        first = harness.manager.begin()
        second = harness.manager.begin()
        first.set_vertex_property(a, "x", 1)
        second.set_vertex_property(a, "x", 2)
        second.set_vertex_property(b, "x", 2)
        first.commit()  # single-writer fast path
        with pytest.raises(WriteConflictError):
            second.commit()
        decisions = [
            record.payload["outcome"]
            for record in harness.manager.decision_log.replay()
            if record.operation == "decision"
        ]
        assert decisions == ["aborted"]

    def test_explicit_abort_discards_everything(self, harness):
        a, b = harness.two_shard_pair()
        txn = harness.manager.begin()
        txn.set_vertex_property(a, "ghost", 1)
        txn.set_vertex_property(b, "ghost", 1)
        txn.abort()
        assert txn.state == "aborted"
        assert harness.manager.stats.explicit_aborts == 1
        assert harness.read_committed(a, "ghost") is None
        assert harness.read_committed(b, "ghost") is None

    def test_finished_transactions_refuse_further_use(self, harness):
        a, _b = harness.two_shard_pair()
        txn = harness.manager.begin()
        txn.set_vertex_property(a, "x", 1)
        txn.commit()
        with pytest.raises(SessionStateError):
            txn.commit()
        with pytest.raises(SessionStateError):
            txn.set_vertex_property(a, "x", 2)


class TestRoutingGuards:
    def test_unknown_vertex_is_refused(self, harness):
        txn = harness.manager.begin()
        with pytest.raises(BenchmarkError):
            txn.vertex_property("nope", "rank")

    def test_cross_shard_edge_insert_runs_two_writer_2pc(self, harness):
        a, b = harness.two_shard_pair()
        txn = harness.manager.begin()
        txn.add_edge(a, b, "crosses")
        result = txn.commit()
        assert result.mode == "2pc"
        assert result.writers == tuple(
            sorted({harness.manager.owner[a], harness.manager.owner[b]})
        )
        # Both owners route the new cut edge.
        shard_a = harness.manager.txn_shards[harness.manager.owner[a]]
        shard_b = harness.manager.txn_shards[harness.manager.owner[b]]
        assert (b, harness.manager.owner[b]) in shard_a.runtime.remote[a]
        assert (a, harness.manager.owner[a]) in shard_b.runtime.remote[b]

    def test_same_shard_edge_insert_commits(self, harness):
        grouped = harness.vertices_by_shard()
        shard_index, members = max(grouped.items(), key=lambda item: len(item[1]))
        assert len(members) >= 2
        a, b = members[0], members[1]
        txn = harness.manager.begin()
        txn.add_edge(a, b, "linked", properties={"w": 1})
        result = txn.commit()
        assert result.outcome == "committed"
        shard = harness.manager.txn_shards[shard_index]
        degree = shard.engine.degree(shard.runtime.id_map[a])
        assert degree >= 1

    def test_context_manager_commits_and_aborts(self, harness):
        a, _b = harness.two_shard_pair()
        with harness.manager.begin() as txn:
            txn.set_vertex_property(a, "cm", "yes")
        assert harness.read_committed(a, "cm") == "yes"
        with pytest.raises(RuntimeError):
            with harness.manager.begin() as txn:
                txn.set_vertex_property(a, "cm", "no")
                raise RuntimeError("client bug")
        assert harness.read_committed(a, "cm") == "yes"


class TestCrossShardSSI:
    def test_cross_shard_write_skew_prevented_under_ssi(self, make_harness):
        harness = make_harness(isolation="ssi")
        a, b = harness.two_shard_pair()
        setup = harness.manager.begin()
        setup.set_vertex_property(a, "on", 1)
        setup.set_vertex_property(b, "on", 1)
        setup.commit()

        first = harness.manager.begin()
        second = harness.manager.begin()
        assert first.vertex_property(a, "on") == 1
        assert first.vertex_property(b, "on") == 1
        first.set_vertex_property(a, "on", 0)
        assert second.vertex_property(a, "on") == 1
        assert second.vertex_property(b, "on") == 1
        second.set_vertex_property(b, "on", 0)
        first.commit()
        with pytest.raises(SerializationFailureError):
            second.commit()

        assert harness.manager.stats.ssi_aborts == 1
        # The constraint survives: not both flags were cleared.
        assert harness.read_committed(b, "on") == 1

    def test_cross_shard_write_skew_permitted_under_si(self, make_harness):
        harness = make_harness(isolation="si")
        a, b = harness.two_shard_pair()
        setup = harness.manager.begin()
        setup.set_vertex_property(a, "on", 1)
        setup.set_vertex_property(b, "on", 1)
        setup.commit()

        first = harness.manager.begin()
        second = harness.manager.begin()
        assert first.vertex_property(b, "on") == 1
        first.set_vertex_property(a, "on", 0)
        assert second.vertex_property(a, "on") == 1
        second.set_vertex_property(b, "on", 0)
        first.commit()
        second.commit()

        assert harness.manager.stats.ssi_aborts == 0
        assert harness.read_committed(a, "on") == 0
        assert harness.read_committed(b, "on") == 0
