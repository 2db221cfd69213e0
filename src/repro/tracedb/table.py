"""A small columnar table used as the external trace store.

The paper stores each trace as a pandas ``DataFrame``; pandas is not available
in this environment, so :class:`Table` provides the subset of DataFrame
behaviour the retrievers and the Ranger-generated code rely on:

* column access and row access,
* boolean filtering (``where`` / ``filter_rows``),
* group-by with aggregation,
* sorting, head/tail slicing,
* numeric aggregations (mean, sum, min, max, count),
* value counting and unique extraction.

The implementation keeps data as plain Python lists per column: trace values
are a mix of ints, floats and strings, and the table sizes used in this
reproduction (tens of thousands of rows) do not need vectorisation.  A
column may instead be a :class:`LazyColumn`, whose cells are built on first
read: the trace table's four policy-snapshot columns stay packed in the
access log until a row is read.  Row access (``row``), row selection
(``take``, ``where``, ``head``, ``tail``) and the analytics executor build
only the cells they return; a whole-column or whole-table read
(``table[name]``, ``rows``, ``iter_rows``, ``to_dict``, pickling) first
swaps each lazy column for the list of its cells.

Equality lookups (``where`` and the analytics executor's ``eq``/``in``
filters) read a per-column index, built on the column's first lookup: each
distinct cell maps to its row positions in ascending order, so a lookup
keeps row order.  ``add_column`` drops the index of the column it replaces,
and pickles and copies carry none.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

#: Marks a :class:`LazyColumn` cell that has not been built yet.
_UNBUILT = object()


class LazyColumn:
    """A read-only column whose cell ``i`` is ``build(i)``, built on first
    read and memoised.

    :meth:`take` returns a view of some rows that shares the memo, so a cell
    is built at most once however many views read it.  ``build`` must be a
    pure function of the row: two threads that race on one cell then only
    build it twice, never disagree on its value.  The analytics executor
    passes lazy cells through as they are, so they must already be
    canonical values (never ``bool`` or ``NaN``).
    """

    __slots__ = ("_build", "_memo", "_positions")

    def __init__(self, build: Callable[[int], Any], size: int):
        self._build = build
        self._memo: List[Any] = [_UNBUILT] * size
        # Row ``i`` of this column is cell ``_positions[i]`` of the memo.
        self._positions: Sequence[int] = range(size)

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index: int) -> Any:
        position = self._positions[index]
        cell = self._memo[position]
        if cell is _UNBUILT:
            cell = self._memo[position] = self._build(position)
        return cell

    def __iter__(self) -> Iterator[Any]:
        return iter(self.tolist())

    def take(self, indices: Sequence[int]) -> "LazyColumn":
        """A view of the rows at ``indices``, sharing this column's memo."""
        view = LazyColumn.__new__(LazyColumn)
        view._build = self._build
        view._memo = self._memo
        view._positions = [self._positions[i] for i in indices]
        return view

    def tolist(self) -> List[Any]:
        """Every cell, building the ones not read yet."""
        return [self[i] for i in range(len(self._positions))]


#: What a :class:`Table` holds per column.
ColumnValues = Union[List[Any], LazyColumn]


def _equality_index(values: Sequence[Any]) -> Optional[Dict[Any, List[int]]]:
    """Each distinct cell of ``values`` -> its positions, ascending; ``None``
    when a cell is unhashable.  ``True``, ``1`` and ``1.0`` share a key, as
    they compare equal."""
    index: Dict[Any, List[int]] = {}
    try:
        for position, cell in enumerate(values):
            found = index.get(cell)
            if found is None:
                index[cell] = [position]
            else:
                found.append(position)
    except TypeError:
        return None
    return index


def take_values(values: ColumnValues, indices: Sequence[int]) -> ColumnValues:
    """The cells of ``values`` at ``indices``: a view of a lazy column, a new
    list otherwise."""
    if isinstance(values, LazyColumn):
        return values.take(indices)
    return [values[i] for i in indices]


class Column:
    """A named, ordered collection of values belonging to a :class:`Table`."""

    def __init__(self, name: str, values: Sequence[Any]):
        self.name = name
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, Column):
            return self.values == other.values
        return [value == other for value in self.values]

    def __repr__(self) -> str:
        preview = ", ".join(repr(value) for value in self.values[:5])
        suffix = ", ..." if len(self.values) > 5 else ""
        return f"Column({self.name!r}, [{preview}{suffix}])"

    def unique(self) -> List[Any]:
        """Return unique values preserving first-seen order."""
        seen = set()
        ordered = []
        for value in self.values:
            if value not in seen:
                seen.add(value)
                ordered.append(value)
        return ordered

    def value_counts(self) -> Dict[Any, int]:
        """Return a mapping of value -> number of occurrences."""
        counts: Dict[Any, int] = {}
        for value in self.values:
            counts[value] = counts.get(value, 0) + 1
        return counts

    def _numeric_values(self) -> List[float]:
        numeric = []
        for value in self.values:
            if value is None:
                continue
            if isinstance(value, bool):
                numeric.append(float(value))
            elif isinstance(value, (int, float)):
                if isinstance(value, float) and math.isnan(value):
                    continue
                numeric.append(float(value))
        return numeric

    def mean(self) -> Optional[float]:
        numeric = self._numeric_values()
        if not numeric:
            return None
        return sum(numeric) / len(numeric)

    def sum(self) -> float:
        return sum(self._numeric_values())

    def min(self) -> Optional[float]:
        numeric = self._numeric_values()
        return min(numeric) if numeric else None

    def max(self) -> Optional[float]:
        numeric = self._numeric_values()
        return max(numeric) if numeric else None

    def std(self) -> Optional[float]:
        """Population standard deviation (ddof=0) of the numeric values.

        The divisor is ``n``, not ``n - 1`` — the convention shared with the
        ``std`` aggregate in :mod:`repro.analytics`, so engine results and
        direct ``Column`` calls always agree.  Returns ``None`` when the
        column holds no numeric values.
        """
        numeric = self._numeric_values()
        if len(numeric) < 1:
            return None
        mean = sum(numeric) / len(numeric)
        variance = sum((value - mean) ** 2 for value in numeric) / len(numeric)
        return math.sqrt(variance)

    def percentile(self, q: float) -> Optional[float]:
        """Percentile of the numeric values with linear interpolation.

        ``q`` is a fraction in [0, 1] (``0.5`` is the median).  The value at
        fractional rank ``q * (n - 1)`` is interpolated linearly between the
        neighbouring order statistics, matching ``numpy.percentile``'s
        default method.  Returns ``None`` when the column holds no numeric
        values.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
        numeric = sorted(self._numeric_values())
        if not numeric:
            return None
        position = q * (len(numeric) - 1)
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return numeric[low]
        fraction = position - low
        return numeric[low] * (1.0 - fraction) + numeric[high] * fraction

    def median(self) -> Optional[float]:
        """Median of the numeric values (``percentile(0.5)``)."""
        return self.percentile(0.5)

    def count(self) -> int:
        return len(self.values)

    def tolist(self) -> List[Any]:
        return list(self.values)


class Table:
    """A columnar table with pandas-flavoured filtering and aggregation."""

    def __init__(self, columns: Optional[Mapping[str, Sequence[Any]]] = None):
        self._columns: Dict[str, ColumnValues] = {}
        self._length = 0
        # Column name -> equality index (see equal_positions); None marks a
        # column whose cells cannot all be dict keys.
        self._indexes: Dict[str, Optional[Dict[Any, List[int]]]] = {}
        if columns:
            lengths = {len(values) for values in columns.values()}
            if len(lengths) > 1:
                raise ValueError(
                    f"all columns must have the same length, got lengths {sorted(lengths)}"
                )
            self._length = lengths.pop() if lengths else 0
            for name, values in columns.items():
                # A lazy column is read-only, so tables may share it.
                self._columns[name] = (values if isinstance(values, LazyColumn)
                                       else list(values))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]],
                  columns: Optional[Sequence[str]] = None) -> "Table":
        """Build a table from a sequence of row dictionaries.

        ``columns`` fixes the column order and fills missing keys with
        ``None``; when omitted, the union of keys in first-seen order is used.
        """
        if columns is None:
            ordered: List[str] = []
            seen = set()
            for row in rows:
                for key in row:
                    if key not in seen:
                        seen.add(key)
                        ordered.append(key)
            columns = ordered
        data = {name: [row.get(name) for row in rows] for name in columns}
        return cls(data)

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Table":
        """Return a zero-row table with the given column names."""
        return cls({name: [] for name in columns})

    @classmethod
    def from_columns(cls, columns: Mapping[str, ColumnValues]) -> "Table":
        """Adopt ready-made column lists without copying them.

        The normal constructor defensively copies every column; this is the
        zero-copy path for producers (the simulation engine's columnar
        access log) that build fresh lists purpose-made for the table and
        hand over ownership.  Each value must be a ``list`` or a
        :class:`LazyColumn`; lengths must agree.  Column semantics are
        unchanged — ``table[name]`` wraps the same list in a
        :class:`Column`.
        """
        table = cls()
        lengths = set()
        for name, values in columns.items():
            if not isinstance(values, (list, LazyColumn)):
                raise TypeError(
                    f"from_columns adopts lists; column {name!r} is "
                    f"{type(values).__name__} (use Table(...) to copy)")
            lengths.add(len(values))
        if len(lengths) > 1:
            raise ValueError(
                f"all columns must have the same length, got lengths {sorted(lengths)}"
            )
        table._length = lengths.pop() if lengths else 0
        for name, values in columns.items():
            table._columns[name] = values
        return table

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return Column(name, self._listed(name))

    def __getstate__(self) -> Dict[str, Any]:
        # Pickles and deep copies carry plain lists and no index: a copy
        # builds its own on first lookup.
        self._materialise()
        return {**self.__dict__, "_indexes": {}}

    def sequence(self, name: str) -> ColumnValues:
        """Column ``name``'s own sequence, uncopied and read-only: a list,
        or a :class:`LazyColumn` that builds only the cells read."""
        if name not in self._columns:
            raise KeyError(f"unknown column {name!r}; available: {sorted(self._columns)}")
        return self._columns[name]

    def _listed(self, name: str) -> List[Any]:
        """Column ``name`` as a list, swapping a lazy column for its cells."""
        values = self.sequence(name)
        if isinstance(values, LazyColumn):
            values = self._columns[name] = values.tolist()
        return values

    def _materialise(self) -> None:
        """Swap every lazy column for its cells (before whole-table reads)."""
        for name in self._columns:
            self._listed(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __repr__(self) -> str:
        return f"Table(rows={self._length}, columns={list(self._columns)})"

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> List[Any]:
        """Return the raw list of values for a column."""
        return list(self[name].values)

    def row(self, index: int) -> Dict[str, Any]:
        """Return row ``index`` as a dictionary."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"row index {index} out of range for {self._length} rows")
        return {name: values[index] for name, values in self._columns.items()}

    def rows(self) -> List[Dict[str, Any]]:
        """Return all rows as dictionaries."""
        self._materialise()
        return [self.row(i) for i in range(self._length)]

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        self._materialise()
        for i in range(self._length):
            yield self.row(i)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_column(self, name: str, values: Sequence[Any]) -> None:
        values = list(values)
        if self._columns and len(values) != self._length:
            raise ValueError(
                f"column {name!r} has {len(values)} values, table has {self._length} rows"
            )
        if not self._columns:
            self._length = len(values)
        self._columns[name] = values
        self._indexes.pop(name, None)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a copy with columns renamed according to ``mapping``."""
        return Table({mapping.get(name, name): values
                      for name, values in self._columns.items()})

    def copy(self) -> "Table":
        return Table(self._columns)

    # ------------------------------------------------------------------
    # selection / filtering
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "Table":
        """Return a table restricted to the given columns."""
        missing = [name for name in names if name not in self._columns]
        if missing:
            raise KeyError(f"unknown columns {missing}; available: {sorted(self._columns)}")
        return Table({name: self._columns[name] for name in names})

    def take(self, indices: Sequence[int]) -> "Table":
        """Return a table with the rows at the given positions (lazy
        columns stay lazy)."""
        return Table.from_columns({
            name: take_values(values, indices)
            for name, values in self._columns.items()
        })

    def head(self, count: int = 5) -> "Table":
        return self.take(range(min(count, self._length)))

    def tail(self, count: int = 5) -> "Table":
        start = max(0, self._length - count)
        return self.take(range(start, self._length))

    def equal_positions(self, name: str, value: Any) -> Optional[Sequence[int]]:
        """Ascending positions of the rows whose ``name`` cell ``== value``,
        from the column's equality index (read-only); ``None`` when the
        index cannot answer, so the caller scans: a lazy column (indexing it
        would build every cell), an unhashable cell or ``value``."""
        try:
            hash(value)
        except TypeError:
            return None
        index = self._indexes.get(name, _UNBUILT)
        if index is _UNBUILT:
            values = self.sequence(name)
            if isinstance(values, LazyColumn):
                return None
            index = _equality_index(values)
            self._indexes[name] = index  # published whole, never partial
        if index is None:
            return None
        # NaN equals nothing, though a dict finds a NaN cell by identity.
        return () if value != value else index.get(value, ())

    def where(self, **conditions: Any) -> "Table":
        """Filter rows by exact equality on one or more columns, keeping
        row order; the first condition's rows come from its column's
        index when it can answer (see :meth:`equal_positions`).

        Example::

            table.where(program_counter=0x401e31, workload="lbm")
        """
        for name in conditions:
            if name not in self._columns:
                raise KeyError(f"unknown column {name!r}; available: {sorted(self._columns)}")
        checks = list(conditions.items())
        indices = self.equal_positions(*checks[0]) if checks else None
        if indices is None:
            indices = range(self._length)
        else:
            del checks[0]
        if checks:
            indices = [i for i in indices
                       if all(self._columns[name][i] == expected
                              for name, expected in checks)]
        return self.take(indices)

    def filter_rows(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Table":
        """Filter rows by an arbitrary predicate over row dictionaries."""
        indices = [i for i, row in enumerate(self.iter_rows()) if predicate(row)]
        return self.take(indices)

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def sort_by(self, name: str, descending: bool = False,
                key: Optional[Callable[[Any], Any]] = None) -> "Table":
        """Return a copy sorted by the given column."""
        values = self[name].values

        def sort_key(index: int) -> Any:
            value = values[index]
            if key is not None:
                value = key(value)
            # Sort None values last regardless of direction.
            return (value is None, value)

        order = sorted(range(self._length), key=sort_key, reverse=descending)
        return self.take(order)

    # ------------------------------------------------------------------
    # grouping / aggregation
    # ------------------------------------------------------------------
    def groupby(self, name: str) -> Dict[Any, "Table"]:
        """Group rows by the values of a column, preserving first-seen order."""
        groups: Dict[Any, List[int]] = {}
        for i, value in enumerate(self[name].values):
            groups.setdefault(value, []).append(i)
        return {value: self.take(indices) for value, indices in groups.items()}

    def aggregate(self, group_column: str,
                  aggregations: Mapping[str, Tuple[str, str]]) -> "Table":
        """Group by ``group_column`` and aggregate other columns.

        ``aggregations`` maps output column name to ``(input column, func)``
        where ``func`` is one of ``mean``, ``sum``, ``min``, ``max``,
        ``count``, ``std``, ``median``.  (``std`` is population std, ddof=0;
        for parameterised percentiles use the :mod:`repro.analytics` engine.)
        """
        rows = []
        for value, group in self.groupby(group_column).items():
            row: Dict[str, Any] = {group_column: value}
            for out_name, (in_name, func) in aggregations.items():
                column = group[in_name]
                if func == "count":
                    row[out_name] = column.count()
                elif func == "mean":
                    row[out_name] = column.mean()
                elif func == "sum":
                    row[out_name] = column.sum()
                elif func == "min":
                    row[out_name] = column.min()
                elif func == "max":
                    row[out_name] = column.max()
                elif func == "std":
                    row[out_name] = column.std()
                elif func == "median":
                    row[out_name] = column.median()
                else:
                    raise ValueError(f"unsupported aggregation {func!r}")
            rows.append(row)
        columns = [group_column] + list(aggregations)
        return Table.from_rows(rows, columns=columns)

    # ------------------------------------------------------------------
    # conversions / display
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, List[Any]]:
        self._materialise()
        return {name: list(values) for name, values in self._columns.items()}

    def to_csv(self, separator: str = ",") -> str:
        """Render the table as CSV text (no quoting; values must be simple)."""
        lines = [separator.join(self._columns)]
        for row in self.iter_rows():
            lines.append(separator.join(str(row[name]) for name in self._columns))
        return "\n".join(lines)

    def format(self, max_rows: int = 10) -> str:
        """Render a human-readable fixed-width preview of the table."""
        names = list(self._columns)
        if not names:
            return "(empty table)"
        shown = list(self.head(max_rows).iter_rows())
        widths = {name: len(name) for name in names}
        for row in shown:
            for name in names:
                widths[name] = max(widths[name], len(str(row[name])))
        header = "  ".join(name.ljust(widths[name]) for name in names)
        divider = "  ".join("-" * widths[name] for name in names)
        body = [
            "  ".join(str(row[name]).ljust(widths[name]) for name in names)
            for row in shown
        ]
        lines = [header, divider] + body
        if self._length > max_rows:
            lines.append(f"... ({self._length - max_rows} more rows)")
        return "\n".join(lines)
