"""Mini SQL engine over MaxCompute tables.

Speaks exactly the dialect the T+1 backfill issues: ``SELECT`` of columns and
``COUNT`` / ``COUNT(DISTINCT)`` / ``SUM`` / ``MAX`` aggregates from one table,
a ``WHERE`` that is a conjunction of ``column op number`` comparisons, and
``GROUP BY``.  Statements are parsed into a small AST
(:mod:`repro.maxcompute.sql.parser`) and executed against the columnar tables
(:mod:`repro.maxcompute.sql.executor`).
"""

from repro.maxcompute.sql.parser import parse_sql, SelectStatement
from repro.maxcompute.sql.executor import QueryStats, SQLExecutor

__all__ = [
    "parse_sql",
    "SelectStatement",
    "QueryStats",
    "SQLExecutor",
]
