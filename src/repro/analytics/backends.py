"""The analytics executor: runs :class:`~repro.analytics.query.Query` objects.

:class:`StdlibBackend` holds registered :class:`~repro.tracedb.table.Table`
objects by reference and executes queries directly over their column lists
— no row dicts are materialised, so filtering/grouping large tables stays
O(columns touched), not O(rows × columns).

Results are in the engine's canonical value domain: booleans become
``0``/``1`` and ``NaN`` becomes ``None``, and every query result carries a
deterministic total row order (source row order is the final tie-break).
The test suite holds this executor to an independent SQL executor over the
same :class:`Query` objects, bit for bit.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import UnknownNameError
from ..tracedb.table import Column, Table
from .query import Query, as_query


# ----------------------------------------------------------------------
# shared value / aggregate semantics
# ----------------------------------------------------------------------

def canonical_value(value: Any) -> Any:
    """Map a cell into the engine's canonical value domain.

    ``bool`` → ``int`` and ``NaN`` → ``None``, so equal keys group, join
    and compare equal whatever their Python spelling.  Everything else
    passes through.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def aggregate_values(func: str, values: Sequence[Any], q: Optional[float] = None) -> Any:
    """Apply one aggregate function to raw cell values.

    Delegates to :class:`Column` so aggregate semantics exist in exactly one
    place.
    """
    column = Column("", values)
    if func == "count":
        return column.count()
    if func == "sum":
        return column.sum()
    if func == "mean":
        return column.mean()
    if func == "min":
        return column.min()
    if func == "max":
        return column.max()
    if func == "median":
        return column.median()
    if func == "std":
        return column.std()
    if func == "percentile":
        return column.percentile(q if q is not None else 0.5)
    raise ValueError(f"unsupported aggregate {func!r}")


def _matches(op: str, cell: Any, literal: Any) -> bool:
    """Evaluate one filter predicate on a canonical cell value.

    Implements SQL comparison semantics: NULL never matches anything except
    ``is_null``, and ordered comparisons are type-guarded so a numeric
    literal only matches numeric cells and a string literal only string
    cells (instead of Python's ``TypeError``).
    """
    if op == "is_null":
        return cell is None
    if op == "not_null":
        return cell is not None
    if cell is None:
        return False
    if op == "eq":
        return cell == literal
    if op == "ne":
        return cell != literal
    if op == "in":
        return cell in literal
    if op == "not_in":
        return cell not in literal
    if isinstance(literal, str):
        if not isinstance(cell, str):
            return False
    else:
        if not isinstance(cell, (int, float)):
            return False
    if op == "lt":
        return cell < literal
    if op == "le":
        return cell <= literal
    if op == "gt":
        return cell > literal
    if op == "ge":
        return cell >= literal
    raise ValueError(f"unsupported filter op {op!r}")


def _order_comparator(
    keys: Sequence[Tuple[List[Any], bool]],
) -> Callable[[int], Any]:
    """Build a sort key comparing row positions by ``(values, descending)``
    order specs, with NULLs last in both directions and numbers before
    strings (direction applies to kind rank and value)."""

    def compare(i: int, j: int) -> int:
        for values, descending in keys:
            a, b = values[i], values[j]
            if a is None or b is None:
                if a is None and b is None:
                    continue
                return 1 if a is None else -1
            a_kind = 1 if isinstance(a, str) else 0
            b_kind = 1 if isinstance(b, str) else 0
            if a_kind != b_kind:
                result = -1 if a_kind < b_kind else 1
            elif a == b:
                continue
            else:
                result = -1 if a < b else 1
            return -result if descending else result
        return 0

    return cmp_to_key(compare)


# ----------------------------------------------------------------------
# query resolution (validation)
# ----------------------------------------------------------------------

class _Source:
    """One resolved output-namespace column: where it comes from."""

    __slots__ = ("name", "side", "column")

    def __init__(self, name: str, side: str, column: str):
        self.name = name          # output name
        self.side = side          # "l" or "r"
        self.column = column      # source column in that table


def _resolve(query: Query, schemas: Mapping[str, Sequence[str]]) -> List[_Source]:
    """Validate ``query`` against the registered tables' column names and
    return the source namespace (left columns followed by joined right
    columns) the query executes over."""

    if query.table not in schemas:
        raise UnknownNameError(
            f"unknown table {query.table!r}; registered: {', '.join(sorted(schemas)) or '(none)'}"
        )
    left_cols = schemas[query.table]
    sources = [_Source(name, "l", name) for name in left_cols]
    if query.join is not None:
        join = query.join
        if join.table not in schemas:
            raise UnknownNameError(
                f"unknown join table {join.table!r}; registered: "
                f"{', '.join(sorted(schemas)) or '(none)'}"
            )
        right_cols = schemas[join.table]
        for left, right in join.on:
            if left not in left_cols:
                raise UnknownNameError(f"join key {left!r} not in table {query.table!r}")
            if right not in right_cols:
                raise UnknownNameError(f"join key {right!r} not in table {join.table!r}")
        picked = join.select
        if not picked:
            key_cols = {right for _, right in join.on}
            taken = set(left_cols)
            picked = tuple(
                (name, name if name not in taken else f"{join.table}.{name}")
                for name in right_cols
                if name not in key_cols
            )
        for column, alias in picked:
            if column not in right_cols:
                raise UnknownNameError(f"join select {column!r} not in table {join.table!r}")
            sources.append(_Source(alias, "r", column))
    names = [source.name for source in sources]
    if len(set(names)) != len(names):
        duplicate = next(name for name in names if names.count(name) > 1)
        raise ValueError(f"duplicate output column {duplicate!r} after join")
    namespace = set(names)

    def check(column: str, what: str) -> None:
        if column not in namespace:
            raise UnknownNameError(
                f"{what} column {column!r} not available; columns: {', '.join(names)}"
            )

    for item in query.filters:
        check(item.column, "filter")
    for name in query.group_by:
        check(name, "group_by")
    for agg in query.aggregates:
        if agg.column is not None:
            check(agg.column, "aggregate")
    for name in query.select:
        check(name, "select")
    if query.aggregates:
        valid = set(query.group_by) | {agg.output_name for agg in query.aggregates}
        for spec in query.order_by:
            if spec.column not in valid:
                raise UnknownNameError(
                    f"order_by column {spec.column!r} must be a group key or "
                    f"aggregate output; available: {', '.join(sorted(valid))}"
                )
    else:
        for spec in query.order_by:
            check(spec.column, "order_by")
    return sources


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

class StdlibBackend:
    """Pure-stdlib columnar executor: register :class:`Table` objects by
    name, then :meth:`execute` declarative :class:`Query` objects against
    them, honouring the execution contract documented on the
    :mod:`repro.analytics.query` dataclasses.

    Tables are registered by reference (registration is O(1)); mutating a
    table after registering it is visible to later queries.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def register_table(self, name: str, table: Table) -> None:
        """Register (or replace) ``table`` under ``name``."""
        self._tables[str(name)] = table

    def list_tables(self) -> List[str]:
        """Sorted names of the registered tables."""
        return sorted(self._tables)

    def execute(self, query: Union[Query, Mapping[str, Any]]) -> Table:
        """Run ``query`` and return its result as a new :class:`Table`."""
        query = as_query(query)
        sources = _resolve(query, {name: table.columns
                                   for name, table in self._tables.items()})
        left = self._tables[query.table]
        if query.join is not None:
            data, count = self._joined_columns(query, sources, left)
        else:
            data = {source.name: left[source.column].values for source in sources}
            count = len(left)

        indices = self._filter_indices(query, data, count)

        if query.aggregates:
            names, columns = self._aggregate(query, data, indices)
            order_positions = self._order_output(query, names, columns)
            if query.limit is not None:
                order_positions = order_positions[: query.limit]
            return Table.from_columns(
                {name: [values[pos] for pos in order_positions]
                 for name, values in zip(names, columns)}
            )

        if query.order_by:
            keys = [
                ([canonical_value(v) for v in data[spec.column]], spec.descending)
                for spec in query.order_by
            ]
            indices.sort(key=_order_comparator(keys))
        if query.limit is not None:
            indices = indices[: query.limit]
        chosen = query.select or tuple(source.name for source in sources)
        return Table.from_columns(
            {name: [canonical_value(data[name][i]) for i in indices] for name in chosen}
        )

    def _joined_columns(
        self, query: Query, sources: List[_Source], left: Table
    ) -> Tuple[Dict[str, List[Any]], int]:
        """Materialise the inner-joined namespace columns (hash join on the
        right side, output in left-major order; NULL keys never match)."""
        join = query.join
        right = self._tables[join.table]
        right_keys: Dict[Tuple[Any, ...], List[int]] = {}
        right_key_cols = [right[col].values for _, col in join.on]
        for j in range(len(right)):
            key = tuple(canonical_value(values[j]) for values in right_key_cols)
            if any(part is None for part in key):
                continue
            right_keys.setdefault(key, []).append(j)
        pairs: List[Tuple[int, int]] = []
        left_key_cols = [left[col].values for col, _ in join.on]
        for i in range(len(left)):
            key = tuple(canonical_value(values[i]) for values in left_key_cols)
            if any(part is None for part in key):
                continue
            for j in right_keys.get(key, ()):
                pairs.append((i, j))
        data: Dict[str, List[Any]] = {}
        for source in sources:
            values = (left if source.side == "l" else right)[source.column].values
            picker = 0 if source.side == "l" else 1
            data[source.name] = [values[pair[picker]] for pair in pairs]
        return data, len(pairs)

    def _filter_indices(
        self, query: Query, data: Mapping[str, Sequence[Any]], count: int
    ) -> List[int]:
        indices = list(range(count))
        for item in query.filters:
            literal = canonical_value(item.value) if not isinstance(item.value, tuple) else tuple(
                canonical_value(part) for part in item.value
            )
            values = data[item.column]
            indices = [
                i for i in indices if _matches(item.op, canonical_value(values[i]), literal)
            ]
        return indices

    def _aggregate(
        self, query: Query, data: Mapping[str, Sequence[Any]], indices: List[int]
    ) -> Tuple[List[str], List[List[Any]]]:
        """Group surviving rows (first-seen key order) and compute aggregate
        outputs; returns parallel (names, column values) lists."""
        if query.group_by:
            groups: Dict[Tuple[Any, ...], List[int]] = {}
            key_cols = [data[name] for name in query.group_by]
            for i in indices:
                key = tuple(canonical_value(values[i]) for values in key_cols)
                groups.setdefault(key, []).append(i)
            buckets = list(groups.items())
        else:
            buckets = [((), indices)]
        names = list(query.group_by) + [agg.output_name for agg in query.aggregates]
        columns: List[List[Any]] = [[] for _ in names]
        for key, members in buckets:
            for pos, part in enumerate(key):
                columns[pos].append(part)
            for offset, agg in enumerate(query.aggregates):
                if agg.func == "count":
                    value = len(members)
                else:
                    raw = data[agg.column]
                    value = aggregate_values(agg.func, [raw[i] for i in members], agg.q)
                columns[len(query.group_by) + offset].append(value)
        return names, columns

    def _order_output(
        self, query: Query, names: List[str], columns: List[List[Any]]
    ) -> List[int]:
        positions = list(range(len(columns[0]) if columns else 0))
        if not query.order_by:
            return positions
        by_name = dict(zip(names, columns))
        keys = [(by_name[spec.column], spec.descending) for spec in query.order_by]
        positions.sort(key=_order_comparator(keys))
        return positions


def run_query(query: Union[Query, Mapping[str, Any]], tables: Mapping[str, Table]) -> Table:
    """One-shot helper: register ``tables`` into a fresh
    :class:`StdlibBackend` and execute ``query``."""
    store = StdlibBackend()
    for name, table in tables.items():
        store.register_table(name, table)
    return store.execute(query)
