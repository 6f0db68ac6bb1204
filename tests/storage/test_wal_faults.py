"""Torn-tail crash semantics of the WAL: checksums, replay, checkpointing.

The chaos layer (PR 6) crashes shards whose recovery replays their WAL; a
crash can tear the physical write of the last record, so replay must trust
record *checksums*, not framing.  These tests pin the fault contract:

* :meth:`WriteAheadLog.replay` stops at the first checksum mismatch and
  drops the torn suffix;
* :meth:`WriteAheadLog.truncate` (a checkpoint) never resurrects a
  half-written record — torn records are discarded, not checkpointed and
  not left pending;
* a crash *during commit* (tear mid-commit-batch) loses exactly the torn
  commit and nothing before it, with LSNs staying monotonic.
"""

from __future__ import annotations

from repro.storage.wal import DurabilityMode, WriteAheadLog, record_checksum


def _wal(mode: DurabilityMode = DurabilityMode.SYNC) -> WriteAheadLog:
    return WriteAheadLog(name="test", mode=mode)


class TestChecksums:
    def test_appended_records_are_intact(self):
        wal = _wal()
        record = wal.append("put", {"key": "a", "value": 1})
        assert record.intact
        assert record.checksum == record_checksum(1, "put", {"key": "a", "value": 1})

    def test_checksum_covers_payload_content(self):
        record = _wal().append("put", {"key": "a"})
        assert record.intact
        record.payload["key"] = "tampered"
        assert not record.intact

    def test_checksum_is_payload_order_independent(self):
        assert record_checksum(1, "op", {"a": 1, "b": 2}) == record_checksum(
            1, "op", {"b": 2, "a": 1}
        )
        # ``"a" < "a b"`` but ``repr(("a b", 2)) < repr(("a", 1))``: ordering
        # by key and ordering by repr disagree here, either must be stable.
        assert sorted(["a", "a b"]) != sorted(["a", "a b"], key=lambda key: repr((key, 0)))
        assert record_checksum(1, "op", {"a": 1, "a b": 2}) == record_checksum(
            1, "op", {"a b": 2, "a": 1}
        )

    def test_checksum_covers_sequence_operation_every_key_and_value(self):
        base = record_checksum(1, "op", {"a": 1, "b": 2})
        changed = [
            record_checksum(2, "op", {"a": 1, "b": 2}),
            record_checksum(1, "po", {"a": 1, "b": 2}),
            record_checksum(1, "op", {"a": 1, "c": 2}),
            record_checksum(1, "op", {"a": 1, "b": 3}),
            record_checksum(1, "op", {"a": 1, "b": "2"}),
            record_checksum(1, "op", {"a": 1}),
        ]
        assert base not in changed and len(set(changed)) == len(changed)

    def test_keys_that_do_not_order_fall_back_to_repr_order(self):
        # Field names are strings; anything else still frames — never raises —
        # and is still insertion-order independent.
        mixed = record_checksum(1, "op", {1: "x", "a": 2, (3,): None})
        assert mixed == record_checksum(1, "op", {(3,): None, "a": 2, 1: "x"})
        assert record_checksum(1, "op", {2: "x", 10: "y"}) == record_checksum(
            1, "op", {10: "y", 2: "x"}
        )
        wal = _wal()
        assert wal.append("op", {1: "x", "a": 2}).intact


class TestTornTailReplay:
    def test_replay_drops_the_torn_suffix(self):
        wal = _wal()
        for index in range(5):
            wal.append("put", {"index": index})
        assert wal.tear_tail(2) == 2
        replayed = wal.replay()
        assert [record.payload["index"] for record in replayed] == [0, 1, 2]

    def test_replay_stops_at_the_first_torn_record(self):
        # A torn record in the middle hides everything after it: replay
        # cannot trust ordering past a corrupt point.
        wal = _wal()
        records = [wal.append("put", {"index": index}) for index in range(4)]
        records[1].checksum ^= 0xFFFFFFFF
        assert [record.payload["index"] for record in wal.replay()] == [0]

    def test_tear_is_bounded_by_durable_records(self):
        wal = _wal(DurabilityMode.ASYNC)
        wal.append("put", {"index": 0})
        wal.flush()
        wal.append("put", {"index": 1})  # pending: lost on crash, never torn
        assert wal.tear_tail(5) == 1
        assert wal.replay() == []

    def test_untorn_log_replays_fully(self):
        wal = _wal()
        for index in range(3):
            wal.append("put", {"index": index})
        assert len(wal.replay()) == 3
        assert wal.unverified() == []

    def test_unverified_is_the_durable_rest_with_its_content_whole(self):
        # Everything replay drops, torn or not, in order; a pending ASYNC
        # record is not durable, so it is not among them.
        wal = _wal(DurabilityMode.ASYNC)
        records = [wal.append("put", {"index": index}) for index in range(4)]
        wal.flush()
        wal.append("put", {"index": 4})
        records[1].checksum ^= 0xFFFFFFFF
        rest = wal.unverified()
        assert rest == records[1:]
        assert [record.payload["index"] for record in rest] == [1, 2, 3]
        assert len(wal.replay()) + len(rest) == 4


class TestTruncateDoesNotResurrect:
    def test_torn_records_are_discarded_not_checkpointed(self):
        wal = _wal()
        for index in range(4):
            wal.append("put", {"index": index})
        wal.tear_tail(1)
        dropped = wal.truncate()
        # Only the verified prefix counts as checkpointed; the torn record
        # is discarded outright instead of resurfacing as durable state.
        assert dropped == 3
        assert wal.torn_discarded == 1
        assert len(wal) == 0
        assert wal.replay() == []

    def test_torn_records_do_not_survive_as_pending(self):
        wal = _wal()
        wal.append("put", {"index": 0})
        wal.tear_tail(1)
        wal.truncate()
        assert wal.pending == 0
        # The next append keeps strictly monotonic LSNs past the discard.
        record = wal.append("put", {"index": 1})
        assert record.sequence == 2

    def test_async_pending_records_still_survive_truncate(self):
        wal = _wal(DurabilityMode.ASYNC)
        wal.append("put", {"index": 0})
        wal.flush()
        wal.append("put", {"index": 1})  # pending
        wal.tear_tail(1)  # tears the *durable* record, not the pending one
        dropped = wal.truncate()
        assert dropped == 0
        assert wal.torn_discarded == 1
        assert wal.pending == 1
        assert wal.flush() == 1
        assert [record.payload["index"] for record in wal.replay()] == [1]


class TestCrashDuringCommit:
    def test_torn_commit_loses_only_itself(self):
        # Commit A fully durable; commit B torn mid-write.  Recovery must
        # see all of A and none of B.
        wal = _wal()
        wal.append("begin", {"txn": "A"})
        wal.append("put", {"txn": "A", "key": "x"})
        wal.append("commit", {"txn": "A"})
        wal.append("begin", {"txn": "B"})
        wal.append("put", {"txn": "B", "key": "y"})
        wal.tear_tail(1)  # the crash interrupts B's last record
        replayed = wal.replay()
        assert [record.operation for record in replayed] == [
            "begin",
            "put",
            "commit",
            "begin",
        ]
        committed = {
            record.payload["txn"] for record in replayed if record.operation == "commit"
        }
        assert committed == {"A"}

    def test_recovery_after_crash_checkpoint_keeps_lsns_monotonic(self):
        wal = _wal()
        for index in range(3):
            wal.append("put", {"index": index})
        wal.tear_tail(1)
        before = wal.last_sequence
        wal.truncate()
        assert wal.last_sequence == before  # LSNs never rewind
        record = wal.append("put", {"index": 99})
        assert record.sequence == before + 1
