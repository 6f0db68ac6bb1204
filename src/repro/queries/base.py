"""The one query value shared by the microbenchmark and complex query sets.

A :class:`Query` couples the metadata the reports need (identifier, category,
the original Gremlin text from the paper's Table 2) with an executable
``body(graph, params)``.  Parameters are bound by the workload generator
(:mod:`repro.bench.workload`) from the *same* seeded random choices for every
engine, satisfying the paper's fairness requirement that any random selection
is kept identical across systems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.exceptions import QueryError
from repro.model.graph import GraphDatabase

#: A query body: the bound graph and parameters in, the result out.
Body = Callable[[GraphDatabase, Mapping[str, Any]], Any]


class QueryCategory(enum.Enum):
    """The paper's query categories (Table 2, column "Cat")."""

    LOAD = "L"
    CREATE = "C"
    READ = "R"
    UPDATE = "U"
    DELETE = "D"
    TRAVERSAL = "T"


@dataclass(frozen=True)
class Query:
    """One benchmark operation: a row of Table 2 or of the complex set."""

    #: Short identifier, e.g. ``"Q22"``.
    id: str
    #: Position in Table 2 (1-35); complex queries use 100+.
    number: int
    #: Category the query belongs to.
    category: QueryCategory
    #: One-line description (Table 2, column "Description").
    description: str
    #: The original Gremlin 2.6 text from the paper.
    gremlin: str
    #: Names of the parameters :attr:`body` expects in ``params``.
    parameters: tuple[str, ...]
    #: The operation itself, called with the graph and the bound parameters.
    body: Body
    #: Whether the query modifies the graph (the harness reloads or undoes
    #: state between repetitions of mutating queries).
    mutates: bool = False

    def __call__(self, graph: GraphDatabase, params: Mapping[str, Any] | None = None) -> Any:
        params = params or {}
        # A loop, not a comprehension: the usual, complete call builds nothing.
        for name in self.parameters:
            if name not in params:
                missing = [name for name in self.parameters if name not in params]
                raise QueryError(f"{self.id}: missing parameters {missing!r}")
        return self.body(graph, params)


def lookup(queries: Mapping[str, Query], query_id: str, unknown: str, known: str) -> Query:
    """Return ``queries[query_id]``, or raise :class:`QueryError` naming the
    ``unknown`` kind of query and listing the ``known`` ones."""
    try:
        return queries[query_id]
    except KeyError:
        raise QueryError(f"unknown {unknown} {query_id!r}; {known}: {', '.join(queries)}") from None
