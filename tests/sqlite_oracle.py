"""A ``sqlite3`` executor for :class:`repro.analytics.Query`: the test
suite's independent oracle for :class:`repro.analytics.StdlibBackend`.

Registered tables spill into a temporary sqlite database and queries compile
to SQL, so filtering, joining, grouping and ordering share no code with the
stdlib executor.  Two things are shared on purpose:

* query validation (``repro.analytics.backends._resolve``): the oracle
  checks execution semantics, not error messages;
* aggregate arithmetic: aggregates run as Python UDFs that accumulate
  ``(row, value)`` pairs and re-sort by source row before delegating to
  :func:`repro.analytics.aggregate_values`, so float accumulation order —
  and therefore every output bit — matches by construction.

A hidden ``__row__`` column makes every ordering decision (plain scans,
first-seen group order, left-major joins, top-k ties) reproduce the stdlib
executor's.  Results come back in the engine's canonical value domain:
booleans become ``0``/``1`` and ``NaN`` becomes ``None`` (sqlite has
neither).

Integers must fit sqlite's signed 64-bit INTEGER; ``register_table`` rejects
anything larger so the two executors can never silently diverge.
Non-scalar payload values (lists, dicts, ...) round-trip through the spill
as tagged JSON text — opaque data valid in select positions, unspecified as
filter/group/order/join keys.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.analytics import (
    Aggregate,
    Filter,
    Query,
    aggregate_values,
    as_query,
    canonical_value,
)
from repro.analytics.backends import _resolve, _Source
from repro.tracedb.table import Table

_INT64_MAX = 2 ** 63
_ROW_COLUMN = "__row__"
# Non-scalar payload values spill as JSON text behind this tag and are
# decoded on the way out.
_OPAQUE_TAG = "\x00json\x00"
# Join rows are ordered by (left __row__, right __row__); the composite
# fits int64 as long as each side stays under 2**31 rows.
_ROW_STRIDE = 2 ** 32


def _make_sqlite_aggregate(func: str) -> type:
    """Build a sqlite UDF aggregate class for ``func``.

    The UDF receives ``(source_row, value[, q])`` per row, re-sorts by
    source row in ``finalize`` (sqlite feeds GROUP BY rows in an unspecified
    order, and float accumulation is order-sensitive), then delegates to
    :func:`aggregate_values` — the same code path the stdlib executor uses.
    """

    class _Aggregate:
        def __init__(self) -> None:
            self.pairs: List[Tuple[int, Any]] = []
            self.q: Optional[float] = None

        def step(self, row: int, value: Any, q: Optional[float] = None) -> None:
            self.q = q
            self.pairs.append((row, value))

        def finalize(self) -> Any:
            self.pairs.sort(key=lambda pair: pair[0])
            values = [value for _, value in self.pairs]
            if func == "first":
                return values[0] if values else None
            return aggregate_values(func, values, self.q)

    _Aggregate.__name__ = f"_SqliteAgg_{func}"
    return _Aggregate


class SqliteOracle:
    """Registered tables spill to a temporary sqlite database file (or
    ``path``) and :meth:`execute` compiles each :class:`Query` to SQL.
    Use as a context manager, or call :meth:`close`, to remove the file."""

    def __init__(self, path: Optional[str] = None):
        self._schemas: Dict[str, Tuple[str, ...]] = {}
        self._closed = False
        self._owns_file = False
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-oracle-", suffix=".sqlite3")
            os.close(handle)
            self._owns_file = True
        self.path = path
        self._connection = sqlite3.connect(path)
        for func in ("sum", "mean", "min", "max", "median", "std", "first"):
            self._connection.create_aggregate(f"cm_{func}", 2, _make_sqlite_aggregate(func))
        self._connection.create_aggregate("cm_percentile", 3, _make_sqlite_aggregate("percentile"))

    # -- registration --------------------------------------------------

    def register_table(self, name: str, table: Table) -> None:
        """Spill (or replace) ``table`` under ``name``."""
        self._check_open()
        name = str(name)
        if _ROW_COLUMN in table.columns:
            raise ValueError(f"column name {_ROW_COLUMN!r} is reserved by the oracle")
        quoted = _quote(name)
        cols = ", ".join(_quote(col) for col in table.columns)
        with self._connection:
            self._connection.execute(f"DROP TABLE IF EXISTS {quoted}")
            self._connection.execute(
                f"CREATE TABLE {quoted} ({_quote(_ROW_COLUMN)} INTEGER PRIMARY KEY"
                + (f", {cols}" if cols else "")
                + ")"
            )
            placeholders = ", ".join("?" for _ in range(len(table.columns) + 1))
            column_values = [table[col].values for col in table.columns]
            rows = (
                (i,) + tuple(_spill_value(name, col, values[i])
                             for col, values in zip(table.columns, column_values))
                for i in range(len(table))
            )
            self._connection.executemany(
                f"INSERT INTO {quoted} VALUES ({placeholders})", rows
            )
        self._schemas[name] = tuple(table.columns)

    def list_tables(self) -> List[str]:
        """Sorted names of the registered tables."""
        return sorted(self._schemas)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("SqliteOracle is closed")

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the database and delete an owned temporary file; any
        further use raises :class:`RuntimeError`.  Idempotent."""
        self._closed = True
        self._connection.close()
        self._schemas.clear()
        if self._owns_file:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self._owns_file = False

    def __enter__(self) -> "SqliteOracle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- execution -----------------------------------------------------

    def execute(self, query: Union[Query, Mapping[str, Any]]) -> Table:
        """Run ``query`` as SQL and return its result as a new :class:`Table`."""
        self._check_open()
        query = as_query(query)
        sources: List[_Source] = _resolve(query, self._schemas)
        exprs = {
            source.name: f'{"l" if source.side == "l" else "r"}.{_quote(source.column)}'
            for source in sources
        }
        params: List[Any] = []
        if query.join is not None:
            row_expr = f'(l.{_quote(_ROW_COLUMN)} * {_ROW_STRIDE} + r.{_quote(_ROW_COLUMN)})'
        else:
            row_expr = f"l.{_quote(_ROW_COLUMN)}"

        if query.aggregates:
            names = list(query.group_by) + [agg.output_name for agg in query.aggregates]
            select_parts = [
                f"cm_first({row_expr}, {exprs[name]}) AS {_quote(name)}"
                for name in query.group_by
            ]
            agg_sql: Dict[str, Tuple[str, List[Any]]] = {}
            for agg in query.aggregates:
                sql, sql_params = _aggregate_sql(agg, exprs, row_expr)
                agg_sql[agg.output_name] = (sql, sql_params)
                select_parts.append(f"{sql} AS {_quote(agg.output_name)}")
                params.extend(sql_params)
        else:
            names = list(query.select or tuple(source.name for source in sources))
            select_parts = [f"{exprs[name]} AS {_quote(name)}" for name in names]
            agg_sql = {}

        sql = [f"SELECT {', '.join(select_parts)}"]
        sql.append(f"FROM {_quote(query.table)} AS l")
        if query.join is not None:
            on = " AND ".join(
                f"l.{_quote(left)} = r.{_quote(right)}" for left, right in query.join.on
            )
            sql.append(f"JOIN {_quote(query.join.table)} AS r ON {on}")
        if query.filters:
            clauses = []
            for item in query.filters:
                clause, clause_params = _filter_sql(item, exprs[item.column])
                clauses.append(clause)
                params.extend(clause_params)
            sql.append("WHERE " + " AND ".join(clauses))
        if query.group_by:
            sql.append("GROUP BY " + ", ".join(exprs[name] for name in query.group_by))

        order_parts: List[str] = []
        for spec in query.order_by:
            if query.aggregates and spec.column in agg_sql:
                expr, expr_params = agg_sql[spec.column]
                order_parts.extend(_order_sql(expr, spec.descending))
                # the ORDER BY fragment repeats the aggregate expression
                # (and thus its bound parameters) three times
                for _ in range(3):
                    params.extend(expr_params)
            else:
                order_parts.extend(_order_sql(exprs[spec.column], spec.descending))
        if query.aggregates:
            order_parts.append(f"MIN({row_expr}) ASC")
        else:
            order_parts.append(f"{row_expr} ASC")
        sql.append("ORDER BY " + ", ".join(order_parts))
        if query.limit is not None:
            sql.append("LIMIT ?")
            params.append(query.limit)

        cursor = self._connection.execute("\n".join(sql), params)
        fetched = cursor.fetchall()
        return Table.from_columns(
            {name: [_unspill_value(row[idx]) for row in fetched]
             for idx, name in enumerate(names)}
        )


def run_oracle(query: Union[Query, Mapping[str, Any]], tables: Mapping[str, Table]) -> Table:
    """:func:`repro.analytics.run_query`, executed by a transient oracle."""
    with SqliteOracle() as oracle:
        for name, table in tables.items():
            oracle.register_table(name, table)
        return oracle.execute(query)


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _spill_value(table: str, column: str, value: Any) -> Any:
    value = canonical_value(value)
    if isinstance(value, str):
        # Escape real strings that collide with the opaque-value tag so the
        # decode in _unspill_value stays unambiguous.
        if value.startswith(_OPAQUE_TAG):
            return _OPAQUE_TAG + json.dumps(value)
        return value
    if value is None or isinstance(value, float):
        return value
    if isinstance(value, int):
        if not -_INT64_MAX <= value < _INT64_MAX:
            raise ValueError(
                f"table {table!r} column {column!r}: integer {value} overflows "
                "sqlite's signed 64-bit storage"
            )
        return value
    # Opaque payload (lists, dicts, ...): spill as tagged JSON text so it
    # survives select passthrough.
    try:
        return _OPAQUE_TAG + json.dumps(value, separators=(",", ":"))
    except (TypeError, ValueError):
        raise TypeError(
            f"table {table!r} column {column!r}: cannot spill "
            f"{type(value).__name__} values to sqlite (scalars and "
            "JSON-serialisable payloads only)"
        ) from None


def _unspill_value(value: Any) -> Any:
    if isinstance(value, str) and value.startswith(_OPAQUE_TAG):
        return json.loads(value[len(_OPAQUE_TAG):])
    return value


def _aggregate_sql(
    agg: Aggregate, exprs: Mapping[str, str], row_expr: str
) -> Tuple[str, List[Any]]:
    if agg.func == "count":
        return "COUNT(*)", []
    expr = exprs[agg.column]
    if agg.func == "percentile":
        return f"cm_percentile({row_expr}, {expr}, ?)", [agg.q]
    if agg.func == "sum":
        # Over zero rows sqlite3 never instantiates a UDF aggregate and the
        # result is NULL; cm_sum itself never returns NULL (the empty and
        # the all-null sum are both 0), so COALESCE only fires there.
        return f"COALESCE(cm_sum({row_expr}, {expr}), 0)", []
    return f"cm_{agg.func}({row_expr}, {expr})", []


def _filter_sql(item: Filter, expr: str) -> Tuple[str, List[Any]]:
    op = item.op
    if op == "is_null":
        return f"{expr} IS NULL", []
    if op == "not_null":
        return f"{expr} IS NOT NULL", []
    if op in ("in", "not_in"):
        literals = [canonical_value(part) for part in item.value]
        if not literals:
            # SQL has no empty IN list; `x IN ()` is always false and
            # `x NOT IN ()` matches every non-NULL x.
            return ("0", []) if op == "in" else (f"{expr} IS NOT NULL", [])
        placeholders = ", ".join("?" for _ in literals)
        keyword = "IN" if op == "in" else "NOT IN"
        return f"{expr} {keyword} ({placeholders})", literals
    literal = canonical_value(item.value)
    if op == "eq":
        return f"{expr} = ?", [literal]
    if op == "ne":
        return f"{expr} != ?", [literal]
    symbol = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}[op]
    if isinstance(literal, str):
        guard = f"typeof({expr}) = 'text'"
    else:
        guard = f"typeof({expr}) IN ('integer', 'real')"
    return f"({guard} AND {expr} {symbol} ?)", [literal]


def _order_sql(expr: str, descending: bool) -> List[str]:
    direction = "DESC" if descending else "ASC"
    return [
        f"({expr} IS NULL) ASC",
        f"(CASE WHEN typeof({expr}) = 'text' THEN 1 ELSE 0 END) {direction}",
        f"{expr} {direction}",
    ]

