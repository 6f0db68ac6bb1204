"""Stateful model test of the attribute-index rule.

``BaseEngine`` maintains the per-key attribute indexes for the engines that
use them, and bitmap and relational keep their own structures.  On every
index-supporting engine, ``vertices_by_property`` must agree with a dict model
at every point of every history.  The histories are built from vertices added
with or without the indexed key, the key set and removed, and vertices removed
(the native engines then reuse the freed ids).  ``create_vertex_index``
arrives at any point.  Each engine runs twice: one copy gets the index when
that rule fires and the other never does, so the index lookup and the scan are
both held to the model.  Writes go directly or through a committed session,
and reads go directly and through a fresh session's ``VersionedGraph``.

The run length comes from the hypothesis profile loaded in
``tests/conftest.py`` (``HYPOTHESIS_PROFILE=ci`` digs deeper).
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.engines import ALL_ENGINES, create_engine
from repro.engines.base import BaseEngine

_ENGINES = tuple(
    identifier for identifier in ALL_ENGINES if create_engine(identifier).supports_vertex_index
)
_KEY = "name"
_VALUES = ("a", "b", "c")

_live = st.runner().flatmap(lambda machine: st.sampled_from(sorted(machine.model)))


class AttributeIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        #: (engine, gets the index when the rule fires, logical vertex -> engine id)
        self.copies: list[tuple[Any, bool, dict[int, Any]]] = [
            (create_engine(identifier), indexed, {})
            for identifier in _ENGINES
            for indexed in (True, False)
        ]
        #: logical vertex -> its name (None: it has none)
        self.model: dict[int, str | None] = {}
        self.handles = 0
        self.indexed = False

    def _write(self, via_session: bool, write) -> None:
        for engine, _indexed, ids in self.copies:
            if via_session:
                session = engine.begin_session()
                write(session.graph, ids)
                session.commit()
            else:
                write(engine, ids)

    # -- rules -------------------------------------------------------------

    @rule(name=st.sampled_from((None, *_VALUES)))
    def add_vertex(self, name):
        handle = self.handles = self.handles + 1
        for engine, _indexed, ids in self.copies:
            ids[handle] = engine.add_vertex({} if name is None else {_KEY: name})
        self.model[handle] = name

    @precondition(lambda self: self.model)
    @rule(handle=_live, name=st.sampled_from(_VALUES), via_session=st.booleans())
    def set_name(self, handle, name, via_session):
        self._write(via_session, lambda graph, ids: graph.set_vertex_property(ids[handle], _KEY, name))
        self.model[handle] = name

    @precondition(lambda self: self.model)
    @rule(handle=_live, via_session=st.booleans())
    def remove_name(self, handle, via_session):
        self._write(via_session, lambda graph, ids: graph.remove_vertex_property(ids[handle], _KEY))
        self.model[handle] = None

    @precondition(lambda self: self.model)
    @rule(handle=_live, via_session=st.booleans())
    def remove_vertex(self, handle, via_session):
        self._write(via_session, lambda graph, ids: graph.remove_vertex(ids.pop(handle)))
        del self.model[handle]

    @rule()
    def create_vertex_index(self):
        for engine, indexed, _ids in self.copies:
            if indexed:
                engine.create_vertex_index(_KEY)
        self.indexed = True

    # -- the invariant -----------------------------------------------------

    @invariant()
    def lookups_match_the_model(self):
        for engine, indexed, ids in self.copies:
            assert engine.has_vertex_index(_KEY) == (indexed and self.indexed)
            session = engine.begin_session()
            for value in _VALUES:
                expected = sorted(repr(ids[h]) for h, name in self.model.items() if name == value)
                for graph in (engine, session.graph):
                    found = sorted(map(repr, graph.vertices_by_property(_KEY, value)))
                    assert found == expected, (engine.name, indexed, value)
            session.abort()


TestAttributeIndexMachine = AttributeIndexMachine.TestCase


def test_the_machine_finds_a_stale_index_entry(monkeypatch):
    """Teeth: if removing a vertex left its index entries behind, the
    machine must notice inside its budget."""
    monkeypatch.setattr(BaseEngine, "_index_delete", lambda self, vertex_id, read: None)
    budget = settings(AttributeIndexMachine.TestCase.settings, phases=(Phase.generate,), database=None)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(AttributeIndexMachine, settings=budget)
