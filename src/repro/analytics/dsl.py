"""A tiny textual query language for the CLI's ``--query`` flag.

Grammar (clauses optional, in this order; keywords case-insensitive)::

    select col[, col ...]
    where col OP value [and col OP value ...]
    group by col[, col ...]
    agg func(col)[ as name][, func(col) ...]
    order by col [asc|desc][, col [asc|desc] ...]
    limit N

Operators: ``=`` ``!=`` ``<`` ``<=`` ``>`` ``>=``, ``in (v1, v2, ...)``,
``not in (...)``, ``is null``, ``is not null``.  Values are numbers,
``null``/``true``/``false``, quoted strings (``'x'`` or ``"x"``) or bare
words (treated as strings).  Aggregate functions are those of
:data:`repro.analytics.query.AGGREGATE_FUNCS`; ``count()`` takes no column
and ``percentile(col, q)`` takes the fraction as its second argument.

Examples::

    select workload, policy, miss_rate where config = 'tiny' \
        order by miss_rate desc limit 5
    group by workload agg mean(miss_rate) as mean_miss, count() \
        order by mean_miss
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Tuple

from .query import Aggregate, Filter, OrderBy, Query

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
      | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<op><=|>=|!=|=|<|>)
      | (?P<punct>[(),])
      | (?P<word>[A-Za-z_][A-Za-z0-9_.\-]*)
    )""",
    re.VERBOSE,
)

_CLAUSE_WORDS = {"select", "where", "group", "agg", "order", "limit"}


class QuerySyntaxError(ValueError):
    """The ``--query`` mini-DSL text failed to parse."""


class _Tokens:
    def __init__(self, text: str):
        self.items: List[Tuple[str, str]] = []
        position = 0
        while position < len(text):
            match = _TOKEN.match(text, position)
            if match is None:
                if text[position:].strip():
                    raise QuerySyntaxError(
                        f"cannot tokenize query near {text[position:position + 20]!r}"
                    )
                break
            position = match.end()
            for kind in ("string", "number", "op", "punct", "word"):
                value = match.group(kind)
                if value is not None:
                    self.items.append((kind, value))
                    break
        self.index = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.items[self.index] if self.index < len(self.items) else None

    def next(self) -> Tuple[str, str]:
        item = self.peek()
        if item is None:
            raise QuerySyntaxError("unexpected end of query")
        self.index += 1
        return item

    def at_keyword(self, *words: str) -> bool:
        item = self.peek()
        return item is not None and item[0] == "word" and item[1].lower() in words

    def expect_word(self, *words: str) -> str:
        kind, value = self.next()
        if kind != "word" or value.lower() not in words:
            raise QuerySyntaxError(f"expected {' or '.join(words)!s}, got {value!r}")
        return value.lower()

    def expect_punct(self, symbol: str) -> None:
        kind, value = self.next()
        if kind != "punct" or value != symbol:
            raise QuerySyntaxError(f"expected {symbol!r}, got {value!r}")


def _unquote(text: str) -> str:
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


def _literal(tokens: _Tokens) -> Any:
    kind, value = tokens.next()
    if kind == "string":
        return _unquote(value)
    if kind == "number":
        return float(value) if any(ch in value for ch in ".eE") else int(value)
    if kind == "word":
        lowered = value.lower()
        if lowered == "null":
            return None
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        return value
    raise QuerySyntaxError(f"expected a literal, got {value!r}")


def _column(tokens: _Tokens) -> str:
    kind, value = tokens.next()
    if kind not in ("word", "string"):
        raise QuerySyntaxError(f"expected a column name, got {value!r}")
    return _unquote(value) if kind == "string" else value


def _column_list(tokens: _Tokens) -> List[str]:
    names = [_column(tokens)]
    while tokens.peek() == ("punct", ","):
        tokens.next()
        names.append(_column(tokens))
    return names


def _parse_filter(tokens: _Tokens) -> Filter:
    try:
        return _parse_filter_inner(tokens)
    except QuerySyntaxError:
        raise
    except ValueError as exc:  # Filter validation (e.g. null/bool literals)
        raise QuerySyntaxError(str(exc)) from exc


def _parse_filter_inner(tokens: _Tokens) -> Filter:
    column = _column(tokens)
    item = tokens.peek()
    if item is not None and item[0] == "op":
        symbol = tokens.next()[1]
        op = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}[symbol]
        return Filter(column, op, _literal(tokens))
    if tokens.at_keyword("in"):
        tokens.next()
        return Filter(column, "in", _parse_value_list(tokens))
    if tokens.at_keyword("not"):
        tokens.next()
        tokens.expect_word("in")
        return Filter(column, "not_in", _parse_value_list(tokens))
    if tokens.at_keyword("is"):
        tokens.next()
        if tokens.at_keyword("not"):
            tokens.next()
            tokens.expect_word("null")
            return Filter(column, "not_null")
        tokens.expect_word("null")
        return Filter(column, "is_null")
    got = item[1] if item is not None else "end of query"
    raise QuerySyntaxError(f"expected an operator after {column!r}, got {got!r}")


def _parse_value_list(tokens: _Tokens) -> List[Any]:
    tokens.expect_punct("(")
    values = []
    if tokens.peek() != ("punct", ")"):
        values.append(_literal(tokens))
        while tokens.peek() == ("punct", ","):
            tokens.next()
            values.append(_literal(tokens))
    tokens.expect_punct(")")
    return values


def _parse_aggregate(tokens: _Tokens) -> Aggregate:
    kind, func = tokens.next()
    if kind != "word":
        raise QuerySyntaxError(f"expected an aggregate function, got {func!r}")
    func = func.lower()
    tokens.expect_punct("(")
    column = None
    q = None
    if tokens.peek() != ("punct", ")"):
        column = _column(tokens)
        if tokens.peek() == ("punct", ","):
            tokens.next()
            q = _literal(tokens)
    tokens.expect_punct(")")
    alias = None
    if tokens.at_keyword("as"):
        tokens.next()
        alias = _column(tokens)
    try:
        return Aggregate(func=func, column=column, alias=alias, q=q)
    except ValueError as exc:
        raise QuerySyntaxError(str(exc)) from exc


def parse_query(text: str, table: str = "cells") -> Query:
    """Parse mini-DSL ``text`` into a :class:`Query` over ``table``."""
    tokens = _Tokens(text)
    select: List[str] = []
    filters: List[Filter] = []
    group_by: List[str] = []
    aggregates: List[Aggregate] = []
    order_by: List[OrderBy] = []
    limit: Optional[int] = None

    while tokens.peek() is not None:
        clause = tokens.expect_word(*_CLAUSE_WORDS)
        if clause == "select":
            select = _column_list(tokens)
        elif clause == "where":
            filters.append(_parse_filter(tokens))
            while tokens.at_keyword("and"):
                tokens.next()
                filters.append(_parse_filter(tokens))
        elif clause == "group":
            tokens.expect_word("by")
            group_by = _column_list(tokens)
        elif clause == "agg":
            aggregates.append(_parse_aggregate(tokens))
            while tokens.peek() == ("punct", ","):
                tokens.next()
                aggregates.append(_parse_aggregate(tokens))
        elif clause == "order":
            tokens.expect_word("by")
            while True:
                column = _column(tokens)
                descending = False
                if tokens.at_keyword("asc", "desc"):
                    descending = tokens.next()[1].lower() == "desc"
                order_by.append(OrderBy(column, descending))
                if tokens.peek() == ("punct", ","):
                    tokens.next()
                    continue
                break
        elif clause == "limit":
            kind, value = tokens.next()
            if kind != "number" or not value.lstrip("-").isdigit() or int(value) < 0:
                raise QuerySyntaxError(f"limit requires a non-negative integer, got {value!r}")
            limit = int(value)

    try:
        return Query(
            table=table,
            select=tuple(select),
            filters=tuple(filters),
            group_by=tuple(group_by),
            aggregates=tuple(aggregates),
            order_by=tuple(order_by),
            limit=limit,
        )
    except ValueError as exc:
        raise QuerySyntaxError(str(exc)) from exc
