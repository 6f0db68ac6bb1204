"""The 2PC fault matrix: every crash point recovers deterministically.

Fault points are scripted with :class:`~repro.faults.txn_faults.TxnFaultPlan`
(explicit events only — 2PC faults pin exact protocol states, they are not
random chaos).  Each scenario asserts three things: the failing commit
raises the documented error, no partial write is visible before recovery,
and :meth:`DistributedSessionManager.recover` resolves the transaction
from durable state alone — identically on a re-run (idempotence) and
across fresh replays of the same schedule (determinism).
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ParticipantUnavailableError,
    SessionStateError,
    TransactionInDoubtError,
)
from repro.faults.txn_faults import (
    COORDINATOR_CRASH,
    PARTICIPANT_CRASH_AFTER_VOTE,
    PARTICIPANT_CRASH_BEFORE_VOTE,
    TORN_DECISION,
    TxnFaultEvent,
    TxnFaultPlan,
)
from repro.txn.distributed import LOGGED_OPS


def _start_skewed_write(harness):
    """Open a transaction writing one vertex on each of two shards."""
    a, b = harness.two_shard_pair()
    txn = harness.manager.begin()
    txn.set_vertex_property(a, "balance", 111)
    txn.set_vertex_property(b, "balance", 222)
    return txn, a, b


class TestCoordinatorCrash:
    def test_crash_after_votes_recovers_to_presumed_abort(self, make_harness):
        plan = TxnFaultPlan.explicit(TxnFaultEvent(COORDINATOR_CRASH, txn=0))
        harness = make_harness(fault_plan=plan)
        txn, a, b = _start_skewed_write(harness)
        with pytest.raises(TransactionInDoubtError):
            txn.commit()

        assert txn.state == "in-doubt"
        assert harness.manager.stats.in_doubt == 1
        # Nothing decided, nothing visible.
        assert harness.read_committed(a, "balance") is None
        assert harness.read_committed(b, "balance") is None

        resolutions = harness.manager.recover()
        assert resolutions == {txn.id: "aborted"}
        assert harness.read_committed(a, "balance") is None
        assert harness.read_committed(b, "balance") is None
        assert harness.manager.stats.recovered_aborts == 1
        # The recovery decision is itself journaled, so the log now says
        # aborted and a second recovery has nothing left to do.
        outcomes = {
            record.payload["txn"]: record.payload["outcome"]
            for record in harness.manager.decision_log.replay()
            if record.operation == "decision"
        }
        assert outcomes == {txn.id: "aborted"}
        assert harness.manager.recover() == {}

    def test_torn_decision_record_means_presumed_abort(self, make_harness):
        plan = TxnFaultPlan.explicit(TxnFaultEvent(TORN_DECISION, txn=0))
        harness = make_harness(fault_plan=plan)
        txn, a, b = _start_skewed_write(harness)
        with pytest.raises(TransactionInDoubtError):
            txn.commit()

        # The torn record is invisible to replay: framing survived, content
        # did not — recovery must treat it as never written.
        assert len(harness.manager.decision_log) == 1
        assert harness.manager.decision_log.replay() == []

        resolutions = harness.manager.recover()
        assert resolutions == {txn.id: "aborted"}
        assert harness.read_committed(a, "balance") is None
        assert harness.read_committed(b, "balance") is None
        assert harness.manager.recover() == {}

    def test_decisions_after_a_torn_record_replay_once_recovered(self, make_harness):
        """Recovery cuts the log at the torn record: a later commit whose
        participant crashed after voting is still found committed."""
        plan = TxnFaultPlan.explicit(TxnFaultEvent(TORN_DECISION, txn=0))
        harness = make_harness(fault_plan=plan)
        torn, _a, _b = _start_skewed_write(harness)
        with pytest.raises(TransactionInDoubtError):
            torn.commit()
        assert harness.manager.recover() == {torn.id: "aborted"}

        harness.manager.fault_plan = TxnFaultPlan.explicit(
            TxnFaultEvent(PARTICIPANT_CRASH_AFTER_VOTE, txn=1)
        )
        txn, a, b = _start_skewed_write(harness)
        assert txn.commit().in_doubt_shards
        assert harness.manager.recover() == {txn.id: "committed"}
        assert harness.read_committed(a, "balance") == 111
        assert harness.read_committed(b, "balance") == 222
        outcomes = [
            (record.payload["txn"], record.payload["outcome"])
            for record in harness.manager.decision_log.replay()
        ]
        assert outcomes == [(torn.id, "aborted"), (txn.id, "committed")]

    @pytest.mark.parametrize("kind", [COORDINATOR_CRASH, TORN_DECISION])
    def test_a_crashed_coordinator_takes_no_commit_before_recovery(self, make_harness, kind):
        """A decision appended behind a torn record would be cut by the
        restart; so until recover() nothing begins or commits."""
        harness = make_harness(fault_plan=TxnFaultPlan.explicit(TxnFaultEvent(kind, txn=0)))
        crashed, a, b = _start_skewed_write(harness)
        waiting = harness.manager.begin()
        waiting.set_vertex_property(a, "marker", 1)
        waiting.set_vertex_property(b, "marker", 2)
        with pytest.raises(TransactionInDoubtError):
            crashed.commit()

        with pytest.raises(SessionStateError, match="recover"):
            harness.manager.begin()
        with pytest.raises(SessionStateError, match="recover"):
            waiting.commit()
        assert waiting.state == "open"
        assert harness.read_committed(a, "marker") is None

        assert harness.manager.recover() == {crashed.id: "aborted"}
        assert waiting.commit().mode == "2pc"
        assert (harness.read_committed(a, "marker"), harness.read_committed(b, "marker")) == (1, 2)
        outcomes = [
            (record.payload["txn"], record.payload["outcome"])
            for record in harness.manager.decision_log.replay()
        ]
        assert outcomes == [(crashed.id, "aborted"), (waiting.id, "committed")]


class TestParticipantCrashBeforeVote:
    def test_coordinator_times_out_and_aborts_everywhere(self, make_harness):
        plan = TxnFaultPlan.explicit(
            TxnFaultEvent(PARTICIPANT_CRASH_BEFORE_VOTE, txn=0)
        )
        harness = make_harness(fault_plan=plan)
        txn, a, b = _start_skewed_write(harness)
        charge_before = harness.manager.stats.network.charge
        with pytest.raises(ParticipantUnavailableError):
            txn.commit()

        assert txn.state == "aborted"
        assert harness.manager.stats.participant_aborts == 1
        # The timeout probe was charged — detection is not free.
        assert harness.manager.stats.network.charge > charge_before
        # The abort decision is durable; neither write is visible.
        outcomes = [
            record.payload["outcome"]
            for record in harness.manager.decision_log.replay()
            if record.operation == "decision"
        ]
        assert outcomes == ["aborted"]
        assert harness.read_committed(a, "balance") is None
        assert harness.read_committed(b, "balance") is None
        # Nothing is parked: the coordinator resolved everything in-line.
        assert harness.manager.recover() == {}
        assert all(not shard.crashed for shard in harness.manager.txn_shards)


class TestParticipantCrashAfterVote:
    def test_vote_is_a_durable_promise_replayed_at_recovery(self, make_harness):
        plan = TxnFaultPlan.explicit(
            TxnFaultEvent(PARTICIPANT_CRASH_AFTER_VOTE, txn=0)
        )
        harness = make_harness(fault_plan=plan)
        a, b = harness.two_shard_pair()
        big = "z" * 150  # exercises value-log replay on recovery
        txn = harness.manager.begin()
        txn.set_vertex_property(a, "balance", 111)
        txn.set_vertex_property(a, "blob", big)
        txn.set_vertex_property(b, "balance", 222)
        result = txn.commit()

        # The global commit STANDS: votes are promises.
        assert result.outcome == "committed"
        assert len(result.in_doubt_shards) >= 1
        crashed = set(result.in_doubt_shards)
        # Crashed shards' writes are invisible until recovery; survivors
        # (if any) applied in phase 2.
        for external, value in ((a, 111), (b, 222)):
            shard_index = harness.manager.owner[external]
            expected = None if shard_index in crashed else value
            assert harness.read_committed(external, "balance") == expected

        resolutions = harness.manager.recover()
        assert resolutions == {txn.id: "committed"}
        assert harness.read_committed(a, "balance") == 111
        assert harness.read_committed(a, "blob") == big
        assert harness.read_committed(b, "balance") == 222
        assert harness.manager.stats.recovered_commits >= 1
        assert harness.manager.recover() == {}


    def test_crashed_participant_refuses_new_sessions_until_recovery(self, make_harness):
        plan = TxnFaultPlan.explicit(
            TxnFaultEvent(PARTICIPANT_CRASH_AFTER_VOTE, txn=0)
        )
        harness = make_harness(fault_plan=plan)
        txn, a, b = _start_skewed_write(harness)
        crashed = txn.commit().in_doubt_shards
        victim = next(v for v in (a, b) if harness.manager.owner[v] in crashed)

        later = harness.manager.begin()
        with pytest.raises(ParticipantUnavailableError, match="during begin"):
            later.vertex_property(victim, "balance")
        later.abort()

        harness.manager.recover()
        with harness.manager.begin() as after:
            assert after.vertex_property(victim, "balance") in (111, 222)


def _replay_set(harness, txn, a, b):
    txn.set_vertex_property(a, "balance", 7)
    return lambda: harness.read_committed(a, "balance") == 7


def _replay_remove(harness, txn, a, b):
    with harness.manager.begin() as setup:  # one-phase: not a 2PC coordinate
        setup.set_vertex_property(a, "doomed", 1)
    txn.remove_vertex_property(a, "doomed")
    return lambda: harness.read_committed(a, "doomed") is None


def _replay_edge(harness, txn, a, b):
    shard = harness.manager.txn_shards[harness.manager.owner[a]]
    peer = next(v for v in harness.vertices_by_shard()[shard.index] if v != a)
    txn.add_edge(a, peer, "replayed")
    degree = shard.engine.degree(shard.runtime.id_map[a])
    return lambda: shard.engine.degree(shard.runtime.id_map[a]) == degree + 1


def _replay_cut_edge(harness, txn, a, b):
    shard = harness.manager.txn_shards[harness.manager.owner[a]]
    far = harness.manager.owner[b]
    routed = shard.runtime.remote.get(a, ())
    fresh = next(v for v in harness.vertices_by_shard()[far] if (v, far) not in routed)
    txn.add_edge(a, fresh, "replayed")
    return lambda: (fresh, far) in shard.runtime.remote.get(a, ())


#: One scenario per journaled op: buffer it on ``a``'s shard (the one that
#: will crash) and return the check that its effect is committed there.
REPLAY_SCENARIOS = {
    "set_vertex_property": _replay_set,
    "remove_vertex_property": _replay_remove,
    "add_edge": _replay_edge,
    "add_cut_edge": _replay_cut_edge,
}


class TestReplayEveryLoggedOp:
    def test_every_logged_op_has_a_scenario(self):
        assert tuple(REPLAY_SCENARIOS) == LOGGED_OPS

    @pytest.mark.parametrize("name", LOGGED_OPS)
    def test_crash_after_vote_replays_the_op_from_the_journal(self, make_harness, name):
        harness = make_harness()
        a, b = harness.two_shard_pair()
        victim = harness.manager.owner[a]
        harness.manager.fault_plan = TxnFaultPlan.explicit(
            TxnFaultEvent(PARTICIPANT_CRASH_AFTER_VOTE, txn=0, shard=victim)
        )
        txn = harness.manager.begin()
        applied = REPLAY_SCENARIOS[name](harness, txn, a, b)
        txn.set_vertex_property(b, "marker", 1)  # the surviving second writer
        result = txn.commit()

        assert result.in_doubt_shards == (victim,)
        assert not applied()
        journaled = [
            record.operation
            for record in harness.manager.txn_shards[victim].journal.replay()
        ]
        assert journaled[0] == name
        assert harness.manager.recover() == {txn.id: "committed"}
        assert applied()
        assert harness.read_committed(b, "marker") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "kind",
        [COORDINATOR_CRASH, TORN_DECISION, PARTICIPANT_CRASH_AFTER_VOTE],
    )
    def test_identical_schedules_recover_identically(self, make_harness, kind):
        """Same fault schedule, fresh harness → same resolutions and state."""

        def run():
            plan = TxnFaultPlan.explicit(TxnFaultEvent(kind, txn=0))
            harness = make_harness(fault_plan=plan)
            txn, a, b = _start_skewed_write(harness)
            try:
                txn.commit()
            except (TransactionInDoubtError, ParticipantUnavailableError):
                pass
            resolutions = harness.manager.recover()
            state = tuple(
                (repr(external), repr(harness.read_committed(external, "balance")))
                for external in sorted(harness.manager.owner, key=repr)
            )
            return resolutions, state, harness.manager.stats.snapshot()

        assert run() == run()
