"""The composed stack against a dict model: hash shards, sessions, 2PC, faults.

One ``RuleBasedStateMachine`` drives K ∈ {1, 2} hash shards of three
engines through everything a client, a crash or an operator can do to the
distributed transaction layer:

* a local session on one shard engine (create a vertex, set or remove a
  property, add an edge), committed at once;
* a distributed transaction that sets or removes properties and adds
  same-shard and cross-shard edges, then commits or aborts;
* a direct engine write outside any session, including a remove that dooms
  an id an open transaction has logged;
* each of the four :class:`~repro.faults.txn_faults.TxnFaultPlan` crash
  points, installed through ``manager.fault_plan``, and ``recover()``.

The model is plain dicts of committed state.  It does not predict whether a
commit wins; it applies a transaction's writes exactly when the commit (or,
for an in-doubt one, ``recover()``) says it committed, so every check below
is an all-or-nothing check:

* every pool vertex's property, every shard's vertex count and test-edge
  count, and the cut routing tables equal the model whenever no transaction
  is in doubt;
* a commit that raises leaves its transaction not ``open``;
* a crashed coordinator begins nothing until ``recover()``;
* the decision log agrees with what the shards hold: a two-phase
  transaction reads ``committed`` in the log's verified prefix exactly when
  its writes are visible;
* at K=1 every commit is ``"local"`` and the stack books no network charge.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.concurrency.sessions import _DROP_MARKERS, SessionManager
from repro.exceptions import (
    ParticipantUnavailableError,
    SessionStateError,
    TransactionError,
    TransactionInDoubtError,
)
from repro.faults.txn_faults import TXN_FAULT_KINDS, TxnFaultEvent, TxnFaultPlan
from repro.model.graph import OPS

ENGINES = ("nativelinked-1.9", "relationalgraph-1.2", "columnargraph-1.0")
KEY = "model"
EDGE_LABEL = "model-edge"
_VALUES = st.integers(0, 3)


class ComposedStack(RuleBasedStateMachine):
    """Set :attr:`make` (the ``make_harness`` fixture) before running."""

    make = None

    @initialize(engine_id=st.sampled_from(ENGINES), shards=st.sampled_from([1, 2]))
    def build(self, engine_id, shards):
        self.shards = shards
        self.harness = type(self).make(engine_id, shards=shards)
        self.manager = self.harness.manager
        self.pool = sorted(self.manager.owner, key=repr)
        self.props = {vid: None for vid in self.pool}
        self.removed: set = set()
        #: Per shard: (source, target) of every committed test edge.
        self.edges = {index: [] for index in range(shards)}
        self.vertex_counts = [shard.engine.vertex_count() for shard in self.manager.txn_shards]
        self.routes = self._routes()
        #: Two-phase transactions that ended: id -> "committed" / "aborted".
        self.outcomes: dict[int, str] = {}
        self.txn = None
        self.txn_ops: list[tuple] = []
        #: Set while a crash awaits recover(): (txn id or None, outcome, ops).
        self.in_doubt = None

    # -- helpers -----------------------------------------------------------

    def _shard(self, vid):
        return self.manager.txn_shards[self.manager.owner[vid]]

    def _internal(self, vid):
        return self._shard(vid).runtime.id_map[vid]

    def _live(self, data, count=1, shard=None):
        """``count`` draws from the live pool, the first on ``shard`` if given."""
        live = [vid for vid in self.pool if vid not in self.removed]
        first = [vid for vid in live if shard is None or self.manager.owner[vid] == shard]
        if not first or len(live) < count:
            return None
        return [data.draw(st.sampled_from(first))] + [
            data.draw(st.sampled_from(live)) for _ in range(count - 1)
        ]

    def _routes(self) -> set:
        return {
            (local, entry)
            for shard in self.manager.txn_shards
            for local, entries in shard.runtime.remote.items()
            for entry in entries
        }

    def _apply(self, ops) -> None:
        for op in ops:
            if op[0] == "set":
                self.props[op[1]] = op[2]
            elif op[0] == "unset":
                self.props[op[1]] = None
            elif op[0] == "edge":
                self.edges[self.manager.owner[op[1]]].append((op[1], op[2]))
            else:  # cut edge: each owner routes to the other
                source, target = op[1], op[2]
                self.routes.add((source, (target, self.manager.owner[target])))
                self.routes.add((target, (source, self.manager.owner[source])))

    def _remove(self, vid) -> None:
        self.removed.add(vid)
        self.props[vid] = None
        index = self.manager.owner[vid]
        self.vertex_counts[index] -= 1
        self.edges[index] = [edge for edge in self.edges[index] if vid not in edge]

    # -- local sessions and direct writes -----------------------------------

    @precondition(lambda self: self.in_doubt is None)
    @rule(data=st.data(), action=st.sampled_from(["set", "unset", "edge", "vertex"]))
    def local_session(self, data, action):
        picked = self._live(data, 2)
        if picked is None:
            return
        vid, other = picked
        shard = self._shard(vid)
        if action == "edge" and self.manager.owner[other] != shard.index:
            action = "vertex"
        session = shard.manager.begin()
        graph = session.graph
        if action == "set":
            value = data.draw(_VALUES)
            graph.set_vertex_property(self._internal(vid), KEY, value)
            ops = [("set", vid, value)]
        elif action == "unset":
            graph.remove_vertex_property(self._internal(vid), KEY)
            ops = [("unset", vid)]
        elif action == "edge":
            graph.add_edge(self._internal(vid), self._internal(other), EDGE_LABEL)
            ops = [("edge", vid, other)]
        else:
            graph.add_vertex({KEY: 0}, label="model")
            ops = []
        try:
            session.commit()
        except TransactionError:
            assert not session.is_open
            return
        self._apply(ops)
        if action == "vertex":
            self.vertex_counts[shard.index] += 1

    @precondition(lambda self: self.in_doubt is None)
    @rule(data=st.data(), remove=st.booleans())
    def direct_write(self, data, remove):
        logged = sorted(
            {op[1] for op in self.txn_ops if op[1] not in self.removed} if self.txn else (),
            key=repr,
        )
        if logged and data.draw(st.booleans()):
            vid = data.draw(st.sampled_from(logged))  # dooms an id the open transaction logged
        else:
            picked = self._live(data)
            if picked is None:
                return
            [vid] = picked
        engine = self._shard(vid).engine
        if remove:
            engine.remove_vertex(self._internal(vid))
            self._remove(vid)
        else:
            value = data.draw(_VALUES)
            engine.set_vertex_property(self._internal(vid), KEY, value)
            self.props[vid] = value

    # -- distributed transactions -------------------------------------------

    @precondition(lambda self: self.in_doubt is None)
    @rule(
        data=st.data(),
        actions=st.lists(st.sampled_from(["set", "unset", "edge"]), min_size=1, max_size=3),
    )
    def distributed_writes(self, data, actions):
        """Write through the open transaction, beginning one if none is open."""
        if self.txn is None:
            self.txn = self.manager.begin()
            self.txn_ops = []
        start = data.draw(st.integers(0, self.shards - 1))
        for step, action in enumerate(actions):
            # Consecutive writes land on alternating shards: at K=2 most
            # transactions have two writers and commit through 2PC.
            home = (start + step) % self.shards
            picked = self._live(data, 2, shard=home)
            if picked is None:
                return
            vid, other = picked
            if action == "set":
                value = data.draw(_VALUES)
                self.txn.set_vertex_property(vid, KEY, value)
                self.txn_ops.append(("set", vid, value))
            elif action == "unset":
                self.txn.remove_vertex_property(vid, KEY)
                self.txn_ops.append(("unset", vid))
            elif vid != other:
                self.txn.add_edge(vid, other, EDGE_LABEL)
                same = self.manager.owner[vid] == self.manager.owner[other]
                self.txn_ops.append(("edge" if same else "cut", vid, other))

    @precondition(lambda self: self.txn is not None)
    @rule()
    def abort(self):
        self.txn.abort()
        assert self.txn.state == "aborted"
        self.txn = None

    @precondition(lambda self: self.txn is not None)
    @rule()
    def commit(self):
        txn, ops = self.txn, self.txn_ops
        self.txn = None
        two_phase = len(txn.writer_shards) > 1
        try:
            result = txn.commit()
        except TransactionInDoubtError:
            assert txn.state == "in-doubt"
            self.in_doubt = (txn.id, "aborted", [])  # presumed abort
        except ParticipantUnavailableError:
            assert txn.state == "aborted"
            self.outcomes[txn.id] = "aborted"
            self.in_doubt = (None, None, [])  # the crashed shard must restart
        except TransactionError:
            assert txn.state == "aborted", txn.state
            if two_phase:
                self.outcomes[txn.id] = "aborted"
        else:
            assert txn.state == "committed"
            if self.shards == 1:
                assert result.mode == "local"
            if result.mode == "2pc":
                self.outcomes[txn.id] = "committed"
            if result.in_doubt_shards:
                self.in_doubt = (txn.id, "committed", ops)
            else:
                self._apply(ops)
        if self.in_doubt is None and any(shard.crashed for shard in self.manager.txn_shards):
            self.in_doubt = (None, None, [])  # a crashed shard must restart first
        if two_phase:
            self.manager.fault_plan = TxnFaultPlan()  # each installed fault fires once

    # -- faults and recovery -------------------------------------------------

    @precondition(lambda self: self.in_doubt is None and not self.manager.fault_plan.events)
    @rule(kind=st.sampled_from(TXN_FAULT_KINDS), shard=st.sampled_from([0, 1]))
    def install_fault(self, kind, shard):
        self.manager.fault_plan = TxnFaultPlan.explicit(TxnFaultEvent(kind, shard=shard))

    @rule()
    def recover(self):
        if self.in_doubt is not None and self.in_doubt[1] == "aborted":
            # A crashed coordinator takes no new transaction until recovered.
            with pytest.raises(SessionStateError, match="recover"):
                self.manager.begin()
        resolutions = self.manager.recover()
        if self.in_doubt is not None:
            txn_id, outcome, ops = self.in_doubt
            if txn_id is not None:
                assert resolutions[txn_id] == outcome
                self.outcomes[txn_id] = outcome
                self._apply(ops)
            self.in_doubt = None
        assert self.manager.recover() == {}

    # -- invariants ------------------------------------------------------------

    @invariant()
    def shards_hold_exactly_the_committed_state(self):
        if self.in_doubt is not None:
            return
        for vid in self.pool:
            if vid not in self.removed:  # a removed id may be reused: the counts cover it
                engine = self._shard(vid).engine
                assert engine.vertex_property(self._internal(vid), KEY) == self.props[vid]
        for shard in self.manager.txn_shards:
            assert shard.engine.vertex_count() == self.vertex_counts[shard.index]
            edges = [edge for edge in shard.engine.edges() if edge.label == EDGE_LABEL]
            assert len(edges) == len(self.edges[shard.index])
        assert self._routes() == self.routes

    @invariant()
    def decision_log_agrees_with_the_shards(self):
        decisions = {
            record.payload["txn"]: record.payload["outcome"]
            for record in self.manager.decision_log.replay()
            if record.operation == "decision"
        }
        for txn_id, outcome in self.outcomes.items():
            assert decisions.get(txn_id, "aborted") == outcome, (txn_id, decisions)

    @invariant()
    def one_shard_books_no_network(self):
        if self.shards == 1:
            stats = self.manager.stats
            assert stats.two_phase == 0 and stats.network.charge == 0
            assert stats.network.messages == 0


def _run(make_harness, **overrides) -> None:
    ComposedStack.make = staticmethod(make_harness)
    # A history needs several rules in a row to reach 2PC and a crash, so
    # the machine runs five times the profile's examples (about 3 s under
    # ``tier1``).
    profile = settings()
    budget = settings(profile, database=None, max_examples=5 * profile.max_examples, **overrides)
    run_state_machine_as_test(ComposedStack, settings=budget)


def test_the_composed_stack_matches_the_model(make_harness):
    _run(make_harness)


# -- teeth: each reintroduced bug is found within budget ------------------------


def _prepare_without_the_log_check(self, session):
    """``SessionManager._prepare`` before the 2PC tear was fixed: it
    validated conflicts but voted YES without checking the log."""
    if not session.is_open:
        raise SessionStateError(f"session {session.id} is already {session.state}")
    if session.write_set.ops:
        self._validate_first_committer(session)
    session.prepared = True
    return None


def _unchecked_ops(self, session):
    """``SessionManager._checked_ops`` without its liveness check: the log
    is applied op by op and fails half-way on a removed id."""
    dropped = {op[1] for op in session.write_set.ops if op[0] in _DROP_MARKERS}
    return [
        (name, obj_id, rest if OPS[name].creates else [obj_id, *rest])
        for name, obj_id, *rest in session.write_set.ops
        if obj_id not in dropped
    ]


_TEETH_BUDGET = dict(derandomize=True, phases=(Phase.generate,))


@pytest.mark.parametrize(
    "method, broken, found",
    [
        # The coordinator's phase-2 guard reports the broken promise.
        ("_prepare", _prepare_without_the_log_check, "broke its YES vote"),
        # The model sees the half of a local log that was applied, or the
        # phase-2 guard the half of a prepared one.
        ("_checked_ops", _unchecked_ops, "assert|broke its YES vote"),
    ],
    ids=["torn-2pc", "half-applied-commit"],
)
def test_a_reintroduced_bug_is_found(make_harness, monkeypatch, method, broken, found):
    monkeypatch.setattr(SessionManager, method, broken)
    with pytest.raises(AssertionError, match=found):
        _run(make_harness, **_TEETH_BUDGET)
