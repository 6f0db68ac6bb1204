"""The benchmark query suite, as data.

Every operation is one :class:`Query` value: metadata plus a body.
:mod:`repro.queries.registry` holds the paper's Table 2 as one table of 35
rows (Load, Create, Read, Update, Delete, and Traversal categories); a
create, update or delete row names its op in the codec
(:data:`~repro.model.graph.OPS`) and the parameters it passes, every other
row a one-line body or a small factory.  :mod:`repro.queries.complex_ldbc`
is a second table, the 13 LDBC-inspired complex queries used for the
macro/micro comparison of Figure 2.  To add a query, add a row to the table
and its parameter binding to :class:`repro.bench.workload.ParameterPlan`.
"""

from repro.queries.base import Query, QueryCategory
from repro.queries.registry import (
    MICRO_QUERIES,
    queries_by_category,
    query_by_id,
    query_ids,
)
from repro.queries.complex_ldbc import COMPLEX_QUERIES, complex_query_by_id

__all__ = [
    "Query",
    "QueryCategory",
    "MICRO_QUERIES",
    "queries_by_category",
    "query_by_id",
    "query_ids",
    "COMPLEX_QUERIES",
    "complex_query_by_id",
]
