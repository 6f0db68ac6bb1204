"""A YES vote is a promise: a log that cannot apply votes NO.

``SessionManager.prepare`` checks a participant's whole operation log
(every id live) before the vote, so a transaction
whose log names an id removed directly on its shard aborts whole in phase
1: the coordinator never logs COMMIT, no shard publishes anything, and the
abort is counted once.  Each case runs at K=2 with the doomed write on
either shard, since which participant the coordinator reaches first depends
on shard order.
"""

from __future__ import annotations

import pytest

from repro.engines import ALL_ENGINES
from repro.exceptions import SchemaError, TransactionError

_RELATIONAL = [engine_id for engine_id in ALL_ENGINES if engine_id.startswith("relational")]


def _digest(engine) -> tuple:
    """Every vertex and edge with its label, endpoints and properties."""
    vertices = sorted(
        (repr(v.id), v.label, sorted(v.properties.items(), key=repr)) for v in engine.vertices()
    )
    edges = sorted(
        (repr(e.id), e.label, repr(e.source), repr(e.target), sorted(e.properties.items(), key=repr))
        for e in engine.edges()
    )
    return vertices, edges


def _counters(harness) -> list:
    """Per shard: WAL length and ``io_cost``."""
    return [(len(shard.engine.wal), shard.engine.io_cost()) for shard in harness.manager.txn_shards]


def _commits_logged(harness) -> list:
    return [
        record.payload["txn"]
        for record in harness.manager.decision_log.replay()
        if record.payload.get("outcome") == "committed"
    ]


_OTHER_OUTCOMES = ("committed", "one_phase", "two_phase", "conflict_aborts", "ssi_aborts",
                   "participant_aborts", "in_doubt")


def _assert_aborted_whole(harness, txn, raised: type[Exception], body) -> None:
    """Run ``body`` (which ends the transaction) and check it left nothing:
    no COMMIT logged, every shard's digest, WAL length and ``io_cost`` as
    they were, the transaction aborted and counted once."""
    digests = [_digest(shard.engine) for shard in harness.manager.txn_shards]
    counters = _counters(harness)  # after the digest reads, which are charged
    stats = harness.manager.stats.snapshot()
    with pytest.raises(raised):
        body()
    assert txn.state == "aborted"
    assert not _commits_logged(harness)
    assert _counters(harness) == counters
    assert [_digest(shard.engine) for shard in harness.manager.txn_shards] == digests
    after = harness.manager.stats.snapshot()
    assert after["explicit_aborts"] == stats["explicit_aborts"] + 1
    assert [after[key] for key in _OTHER_OUTCOMES] == [stats[key] for key in _OTHER_OUTCOMES]


def _per_shard(harness, count: int) -> list[list]:
    """The first ``count`` external ids of each of the two shards."""
    grouped = harness.vertices_by_shard()
    assert sorted(grouped) == [0, 1]
    return [grouped[index][:count] for index in (0, 1)]


@pytest.mark.parametrize("doomed_shard", [0, 1])
@pytest.mark.parametrize("engine_id", ALL_ENGINES)
def test_a_write_to_an_id_removed_on_its_shard_votes_no(make_harness, engine_id, doomed_shard):
    harness = make_harness(engine_id)
    [a], [b] = _per_shard(harness, 1)
    doomed = (a, b)[doomed_shard]
    txn = harness.manager.begin()
    txn.set_vertex_property(a, "name", "changed-a")
    txn.set_vertex_property(b, "name", "changed-b")
    shard = harness.manager.txn_shards[doomed_shard]
    shard.engine.remove_vertex(shard.runtime.id_map[doomed])  # outside any session
    _assert_aborted_whole(harness, txn, TransactionError, txn.commit)
    survivor, value = (b, "changed-b") if doomed == a else (a, "changed-a")
    assert harness.read_committed(survivor, "name") != value
    # The shard's vote was NO: the ABORT decision is the only one logged.
    outcomes = [record.payload["outcome"] for record in harness.manager.decision_log.replay()]
    assert outcomes == ["aborted"]


@pytest.mark.parametrize("engine_id", _RELATIONAL)
def test_an_unstorable_label_aborts_the_two_phase_transaction_whole(make_harness, engine_id):
    """The relational label limit refuses the write itself; leaving the
    transaction's ``with`` block on that error aborts it whole."""
    harness = make_harness(engine_id)
    (a, _), (b, c) = _per_shard(harness, 2)
    txn = harness.manager.begin()

    def body():
        with txn:
            txn.set_vertex_property(a, "name", "changed-a")
            txn.set_vertex_property(b, "name", "changed-b")
            txn.add_edge(b, c, "x" * 70)

    _assert_aborted_whole(harness, txn, SchemaError, body)


def test_a_phase_two_failure_is_a_broken_promise_not_a_silent_tear(harness, monkeypatch):
    """Unreachable through the API; if a participant ever failed after its
    YES vote, the coordinator says so instead of returning a torn commit."""
    a, b = harness.two_shard_pair()
    txn = harness.manager.begin()
    txn.set_vertex_property(a, "name", "changed-a")
    txn.set_vertex_property(b, "name", "changed-b")
    manager = harness.manager.txn_shards[harness.manager.owner[b]].manager

    def refuse(session):
        raise TransactionError("refused after the vote")

    monkeypatch.setattr(manager, "commit_prepared", refuse)
    with pytest.raises(AssertionError, match="broke its YES vote"):
        txn.commit()
