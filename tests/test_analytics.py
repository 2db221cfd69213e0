"""The analytics engine: Query objects, the stdlib executor, DSL, wiring.

The flagship acceptance test is the randomized differential suite: every
query in the matrix — NULLs, mixed types, empty groups, top-k ties, joins —
must return byte-identical tables from the stdlib executor and the SQL
oracle in ``sqlite_oracle.py``, as must every query the Sieve issues.
"""

import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analytics import (
    AGGREGATE_FUNCS,
    Aggregate,
    Filter,
    Join,
    OrderBy,
    Query,
    QuerySyntaxError,
    StdlibBackend,
    aggregate_values,
    as_query,
    canonical_value,
    parse_query,
    run_query,
)
from repro.errors import UnknownNameError
from repro.tracedb.table import Column, Table
from sqlite_oracle import SqliteOracle, run_oracle


def make_table(**columns) -> Table:
    return Table.from_columns({name: list(values)
                               for name, values in columns.items()})


@pytest.fixture(params=["stdlib", "sqlite"])
def backend(request):
    """The stdlib executor, and the SQL oracle that holds it to account."""
    if request.param == "stdlib":
        yield StdlibBackend()
    else:
        with SqliteOracle() as oracle:
            yield oracle


def via_oracle(monkeypatch):
    """Route ``repro.analytics.run_query`` — what ``ExperimentResult.query``
    and ``join`` call, in-process, behind the serve ``query`` op and the
    CLI — through the SQL oracle; returns the list of queries it ran."""
    executed = []

    def oracle_run_query(query, tables):
        executed.append(query)
        return run_oracle(query, tables)

    monkeypatch.setattr("repro.analytics.run_query", oracle_run_query)
    return executed


# ----------------------------------------------------------------------
# Query objects: validation, fluent helpers, wire forms
# ----------------------------------------------------------------------
def test_query_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Query(table="t", group_by=("a",))  # group_by without aggregates
    with pytest.raises(ValueError):
        Query(table="t", select=("a",), aggregates=(Aggregate("count"),))
    with pytest.raises(ValueError):
        Query(table="t", limit=-1)
    with pytest.raises(ValueError):
        Query(table="t", limit=2.5)
    with pytest.raises(ValueError):
        Query(table="t", select=("a", "a"))  # duplicate output column
    with pytest.raises(ValueError):
        Query(table="t", group_by=("a",),
              aggregates=(Aggregate("count", alias="a"),))


def test_filter_validation():
    with pytest.raises(ValueError):
        Filter("c", "like", "x")  # unknown op
    with pytest.raises(ValueError):
        Filter("c", "eq", float("nan"))  # NaN literal never matches anything
    with pytest.raises(ValueError):
        Filter("c", "lt", float("inf"))
    with pytest.raises(ValueError):
        Filter("c", "lt", None)
    with pytest.raises(ValueError):
        Filter("c", "ge", True)  # bool literals ambiguous under ordering
    with pytest.raises(ValueError):
        Filter("c", "in", 3)  # in/not_in require a sequence
    assert Filter("c", "in", [1, 2]).value == (1, 2)
    assert Filter("c", "is_null").value is None


def test_aggregate_validation_and_output_names():
    with pytest.raises(ValueError):
        Aggregate("variance")
    with pytest.raises(ValueError):
        Aggregate("sum")  # needs a column
    with pytest.raises(ValueError):
        Aggregate("count", column="c")  # count is rows-in-group, no column
    with pytest.raises(ValueError):
        Aggregate("percentile", column="c")  # needs q
    with pytest.raises(ValueError):
        Aggregate("percentile", column="c", q=1.5)
    assert Aggregate("count").output_name == "count"
    assert Aggregate("mean", column="x").output_name == "mean_x"
    assert Aggregate("percentile", column="x", q=0.95).output_name == "p0.95_x"
    assert Aggregate("sum", column="x", alias="total").output_name == "total"
    assert "percentile" in AGGREGATE_FUNCS


def test_fluent_helpers_build_new_queries():
    base = Query(table="t")
    query = base.where("a", "gt", 3).where("b", "is_null").order("a", descending=True).head(5)
    assert base.filters == () and base.limit is None  # frozen original
    assert query.filters == (Filter("a", "gt", 3), Filter("b", "is_null"))
    assert query.order_by == (OrderBy("a", True),)
    assert query.limit == 5


def test_output_columns():
    assert Query(table="t").output_columns() is None
    assert Query(table="t", select=("b", "a")).output_columns() == ("b", "a")
    grouped = Query(table="t", group_by=("g",),
                    aggregates=(Aggregate("count"), Aggregate("mean", column="x")))
    assert grouped.output_columns() == ("g", "count", "mean_x")


def test_wire_round_trip_is_lossless_and_json_safe():
    query = Query(
        table="cells",
        filters=(Filter("a", "gt", 1), Filter("b", "in", ["x", "y"]),
                 Filter("c", "is_null")),
        group_by=("g", "h"),
        aggregates=(Aggregate("count", alias="n"),
                    Aggregate("percentile", column="v", q=0.9)),
        order_by=(OrderBy("n", True), OrderBy("g")),
        limit=10,
    )
    payload = json.loads(json.dumps(query.to_dict()))
    assert Query.from_dict(payload) == query

    joined = Query(table="l", join=Join("r", on=(("k", "k2"),),
                                        select=(("v", "v_r"),)))
    assert Query.from_dict(json.loads(json.dumps(joined.to_dict()))) == joined

    plain = Query(table="t")
    assert plain.to_dict() == {"table": "t"}  # sparse wire form


def test_as_query_coercion():
    query = Query(table="t", limit=3)
    assert as_query(query) is query
    assert as_query(query.to_dict()) == query
    with pytest.raises(TypeError):
        as_query("select *")


# Wire forms the old from_dict misread instead of refusing.
MALFORMED_WIRE_QUERIES = {
    # read as a 1-row limit and re-emitted as `"limit": true`
    "bool-limit": {"table": "cells", "limit": True},
    # bool("false") is True: the client silently got descending order
    "string-descending": {"table": "cells", "order_by": [
        {"column": "miss_rate", "descending": "false"}]},
    # bare strings were split into one-character column names
    "string-select": {"table": "cells", "select": "ipc"},
    "string-group-by": {"table": "cells", "group_by": "policy",
                        "aggregates": [{"func": "count"}]},
    "string-join-pair": {"table": "cells", "join": {"table": "other",
                                                    "on": ["kk"]}},
    # True became q=1.0 with output column p1_v
    "bool-percentile-q": {"table": "cells", "aggregates": [
        {"func": "percentile", "column": "miss_rate", "q": True}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WIRE_QUERIES))
def test_malformed_wire_query_is_refused(case, stored_experiment, capsys):
    from repro.cli import main
    from repro.serve import CacheMindServer, CacheMindService

    wire = MALFORMED_WIRE_QUERIES[case]
    with pytest.raises(ValueError):
        Query.from_dict(wire)
    session, spec, _result, store_dir = stored_experiment
    service = CacheMindService(session=session)
    try:
        with CacheMindServer(service, host="127.0.0.1", port=0) as server:
            reply = server.dispatch_line(json.dumps(
                {"op": "query", "fingerprint": spec.fingerprint(),
                 "query": wire}).encode())
    finally:
        service.close()
    assert reply["ok"] is False and reply["kind"] == "bad_request", reply
    assert main(["experiment", "report", "--store-dir", store_dir,
                 "--fingerprint", spec.fingerprint(),
                 "--query", json.dumps(wire)]) == 2
    assert "bad --query" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Column.median / percentile / std (satellite 1)
# ----------------------------------------------------------------------
def test_column_percentile_linear_interpolation():
    column = Column("x", [10.0, 20.0, 30.0, 40.0])
    assert column.percentile(0.0) == 10.0
    assert column.percentile(1.0) == 40.0
    assert column.percentile(0.5) == 25.0  # interpolates between 20 and 30
    assert column.percentile(0.25) == pytest.approx(17.5)
    with pytest.raises(ValueError):
        column.percentile(1.5)
    assert Column("x", [None, "text"]).percentile(0.5) is None


def test_column_median_skips_nulls_and_non_numerics():
    assert Column("x", [3, None, 1, "junk", 2]).median() == 2
    assert Column("x", [4, 1, 2, 3]).median() == 2.5
    assert Column("x", []).median() is None


def test_column_std_is_population_std():
    column = Column("x", [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert column.std() == pytest.approx(2.0)  # ddof=0, not 2.138 (ddof=1)
    assert Column("x", [5.0]).std() == 0.0


def test_table_aggregate_median():
    table = make_table(g=["a", "a", "b"], v=[1, 3, 10])
    result = table.aggregate("g", {"v_median": ("v", "median")})
    assert result["v_median"].values == [2, 10]


# ----------------------------------------------------------------------
# executor semantics (parametrized over both backends)
# ----------------------------------------------------------------------
def test_filters_null_semantics(backend):
    backend.register_table("t", make_table(a=[1, 2, None, 3], b=["x", None, "y", "x"]))
    run = lambda q: backend.execute(q)["a"].values
    assert run(Query("t").where("a", "ne", 2)) == [1, 3]  # NULL excluded
    assert run(Query("t").where("a", "is_null")) == [None]
    assert run(Query("t").where("a", "not_null")) == [1, 2, 3]
    assert run(Query("t").where("a", "in", [1, 3, 99])) == [1, 3]
    assert run(Query("t").where("a", "not_in", [1])) == [2, 3]  # NULL excluded
    assert run(Query("t").where("a", "in", [])) == []
    assert run(Query("t").where("a", "not_in", [])) == [1, 2, 3]
    assert run(Query("t").where("b", "eq", "x")) == [1, 3]


def test_ordered_comparisons_are_type_guarded(backend):
    backend.register_table("t", make_table(v=[5, "10", 2.5, None, "abc", 7]))
    result = backend.execute(Query("t").where("v", "gt", 3))
    assert result["v"].values == [5, 7]  # strings never compare to numbers
    result = backend.execute(Query("t").where("v", "ge", "abc"))
    assert result["v"].values == ["abc"]  # and numbers never compare to strings


def test_ordering_nulls_last_and_numbers_before_strings(backend):
    backend.register_table("t", make_table(v=[None, "b", 2, "a", 1, None]))
    ascending = backend.execute(Query("t").order("v"))
    assert ascending["v"].values == [1, 2, "a", "b", None, None]
    descending = backend.execute(Query("t").order("v", descending=True))
    assert descending["v"].values == ["b", "a", 2, 1, None, None]


def test_ordering_ties_preserve_row_order(backend):
    backend.register_table("t", make_table(k=[1, 1, 0, 1, 0], tag=list("abcde")))
    result = backend.execute(Query("t").order("k", descending=True).head(3))
    assert result["tag"].values == ["a", "b", "d"]  # stable within the tie


def test_aggregates_without_group_by_always_one_row(backend):
    backend.register_table("t", make_table(v=[1.0, 2.0, 3.0]))
    query = Query("t", aggregates=(
        Aggregate("count", alias="n"), Aggregate("sum", column="v"),
        Aggregate("mean", column="v"), Aggregate("min", column="v"),
        Aggregate("max", column="v"), Aggregate("median", column="v"),
        Aggregate("std", column="v"),
        Aggregate("percentile", column="v", q=0.5, alias="p50")))
    result = backend.execute(query)
    assert len(result) == 1
    assert result["n"].values == [3]
    assert result["sum_v"].values == [6.0]
    assert result["median_v"].values == [2.0]
    assert result["p50"].values == [2.0]

    empty = backend.execute(query.where("v", "gt", 100))
    assert len(empty) == 1  # SQL semantics: aggregates never vanish
    assert empty["n"].values == [0]
    assert empty["sum_v"].values == [0]  # empty sum is 0
    assert empty["mean_v"].values == [None]  # but empty mean is NULL
    assert empty["min_v"].values == [None]
    assert empty["p50"].values == [None]


def test_group_by_first_seen_order_and_null_groups(backend):
    backend.register_table("t", make_table(
        g=["b", None, "a", "b", None], v=[1, 2, 3, 4, 5]))
    result = backend.execute(Query(
        "t", group_by=("g",),
        aggregates=(Aggregate("count", alias="n"), Aggregate("sum", column="v"))))
    assert result["g"].values == ["b", None, "a"]  # first-seen, NULL is a group
    assert result["n"].values == [2, 2, 1]
    assert result["sum_v"].values == [5, 7, 3]


def test_count_counts_rows_not_values(backend):
    backend.register_table("t", make_table(g=["a", "a"], v=[None, None]))
    result = backend.execute(Query(
        "t", group_by=("g",), aggregates=(Aggregate("count", alias="n"),)))
    assert result["n"].values == [2]  # COUNT(*), not COUNT(v)


def test_select_projection_and_limit(backend):
    backend.register_table("t", make_table(a=[1, 2, 3], b=[4, 5, 6], c=[7, 8, 9]))
    result = backend.execute(Query("t", select=("c", "a"), limit=2))
    assert result.columns == ["c", "a"]
    assert result["c"].values == [7, 8]
    assert len(backend.execute(Query("t", limit=0))) == 0


def test_join_inner_equality(backend):
    backend.register_table("runs", make_table(
        wl=["astar", "lbm", "mcf", None], miss=[0.5, 0.3, 0.9, 0.1]))
    backend.register_table("base", make_table(
        wl=["lbm", "astar", None], miss=[0.4, 0.6, 0.2]))
    query = Query("runs", join=Join("base", on=(("wl", "wl"),)))
    result = backend.execute(query)
    # left-major order; mcf unmatched; NULL keys never match
    assert result["wl"].values == ["astar", "lbm"]
    assert result["miss"].values == [0.5, 0.3]
    assert result["base.miss"].values == [0.6, 0.4]  # collision renamed

    picked = backend.execute(Query("runs", join=Join(
        "base", on=(("wl", "wl"),), select=(("miss", "baseline"),))))
    assert picked.columns == ["wl", "miss", "baseline"]


def test_join_duplicate_right_matches_fan_out(backend):
    backend.register_table("l", make_table(k=[1, 2], v=["a", "b"]))
    backend.register_table("r", make_table(k=[1, 1, 2], w=[10, 20, 30]))
    result = backend.execute(Query("l", join=Join("r", on=(("k", "k"),))))
    assert result["v"].values == ["a", "a", "b"]
    assert result["w"].values == [10, 20, 30]


def test_unknown_names_raise(backend):
    backend.register_table("t", make_table(a=[1]))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("missing"))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t").where("nope", "eq", 1))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t", select=("nope",)))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t").order("nope"))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t", join=Join("missing", on=(("a", "a"),))))


def test_store_table_management(backend):
    backend.register_table("t", make_table(a=[1, True, None], b=[2.5, "x", -3]))
    backend.register_table("u", make_table(c=[1]))
    assert backend.list_tables() == ["t", "u"]
    # execution canonicalises bools to ints
    result = backend.execute(Query("t"))
    assert result.to_dict() == {"a": [1, 1, None], "b": [2.5, "x", -3]}
    # re-registering a name replaces the table
    backend.register_table("t", make_table(a=[7]))
    assert backend.list_tables() == ["t", "u"]
    assert backend.execute(Query("t")).to_dict() == {"a": [7]}


def test_run_query():
    table = make_table(a=[3, 1, 2])
    result = run_query(Query("t").order("a"), {"t": table})
    assert result["a"].values == [1, 2, 3]
    assert run_query(Query("t").order("a").to_dict(), {"t": table}).to_dict() \
        == result.to_dict()  # the wire form runs too
    with pytest.raises(TypeError):  # there is one executor to choose from
        run_query(Query("t"), {"t": table}, backend="stdlib")


def test_analytics_exports_one_executor():
    import repro
    import repro.analytics

    for name in ("SqliteBackend", "BaseTabularStore", "BACKENDS",
                 "create_backend", "available_backends"):
        assert not hasattr(repro.analytics, name), name
    assert not hasattr(repro, "SqliteBackend")
    assert not hasattr(repro, "BaseTabularStore")


def test_canonical_value_and_aggregate_values():
    assert canonical_value(True) == 1 and canonical_value(True) is not True
    assert canonical_value(float("nan")) is None
    assert canonical_value("x") == "x"
    assert aggregate_values("sum", []) == 0
    assert aggregate_values("mean", []) is None
    assert aggregate_values("percentile", [1.0, 2.0], q=0.5) == 1.5
    with pytest.raises(ValueError):
        aggregate_values("nope", [1])


# ----------------------------------------------------------------------
# the SQL oracle's own guards
# ----------------------------------------------------------------------
def test_sqlite_spill_rejects_unspillable_values():
    with SqliteOracle() as store:
        with pytest.raises(ValueError):
            store.register_table("t", make_table(a=[2 ** 63]))  # int64 overflow
        with pytest.raises(TypeError):
            store.register_table("t", make_table(a=[{1, 2}]))  # not JSON-able
        with pytest.raises(ValueError):
            store.register_table("t", make_table(__row__=[1]))  # hidden column


def test_opaque_payloads_round_trip_both_backends(backend):
    # Non-scalar payload columns (the trace table's current_cache_lines)
    # survive select passthrough on either backend.
    backend.register_table("t", make_table(
        k=[1, 2, 3], lines=[[10, 20], {"a": 1}, None],
        s=["\x00json\x00not-a-payload", "plain", None]))
    result = backend.execute(Query("t").where("k", "le", 2))
    assert result["lines"].values == [[10, 20], {"a": 1}]
    assert result["s"].values == ["\x00json\x00not-a-payload", "plain"]
    assert backend.execute(Query("t"))["lines"].values == [[10, 20], {"a": 1}, None]


def test_sqlite_temp_database_cleaned_up():
    store = SqliteOracle()
    store.register_table("t", make_table(a=[1, 2]))
    assert store.execute(Query("t"))["a"].values == [1, 2]
    store.close()
    assert store.path is None or not os.path.exists(store.path)
    with pytest.raises(RuntimeError):
        store.register_table("u", make_table(a=[1]))


def test_sqlite_named_database_file(tmp_path):
    path = str(tmp_path / "spill.sqlite3")
    with SqliteOracle(path=path) as store:
        store.register_table("t", make_table(a=[1]))
        assert store.execute(Query("t"))["a"].values == [1]


# ----------------------------------------------------------------------
# the differential matrix: randomized stdlib-vs-oracle identity
# ----------------------------------------------------------------------
def random_table(rng: random.Random, rows: int) -> Table:
    """A messy table: NULLs everywhere, mixed types, heavy ties.

    Group keys draw from int/str/None pools only — 1 and 1.0 are the same
    group key in both engines by design, so float keys would only blur what
    the differential test is probing.
    """
    groups = ["red", "green", "blue", 1, 2, None]
    return make_table(
        g=[rng.choice(groups) for _ in range(rows)],
        k=[rng.choice([0, 1, 2, None]) for _ in range(rows)],
        v=[rng.choice([None, rng.randint(-5, 5), rng.random() * 10,
                       "stray", True]) for _ in range(rows)],
        w=[float(rng.randint(0, 3)) for _ in range(rows)],  # heavy ties
        # equal under `==` and one dict key: 1, True and 1.0
        m=[rng.choice([1, True, 1.0, 0, "x", None]) for _ in range(rows)],
    )


DIFFERENTIAL_QUERIES = [
    Query("t"),
    Query("t", select=("v", "g")),
    Query("t").where("v", "gt", 2).order("v", descending=True),
    Query("t").where("v", "ne", 1).where("g", "in", ["red", 1]),
    Query("t").where("v", "is_null").order("g"),
    Query("t").where("v", "not_in", [0, "stray"]),
    Query("t").order("v").order("g", descending=True).head(7),
    Query("t").order("w").head(5),  # top-k over heavy ties
    Query("t", group_by=("g",), aggregates=(
        Aggregate("count", alias="n"), Aggregate("sum", column="v"),
        Aggregate("mean", column="v"), Aggregate("std", column="w"),
        Aggregate("percentile", column="v", q=0.75, alias="p75"))),
    Query("t", group_by=("g", "k"), aggregates=(
        Aggregate("count", alias="n"), Aggregate("median", column="v"))
        ).order("n", descending=True).order("g").head(6),
    # empty groups: the filter leaves no rows at all
    Query("t", aggregates=(Aggregate("count", alias="n"),
                           Aggregate("sum", column="v"),
                           Aggregate("mean", column="v"))
          ).where("v", "gt", 10 ** 9),
    Query("t", group_by=("k",),
          aggregates=(Aggregate("max", column="v"),)
          ).where("g", "eq", "no-such-group"),
    # join on a messy key, then order the combined row set
    Query("t", join=Join("u", on=(("k", "k"),)),
          ).where("w", "ge", 1.0).order("v").head(20),
    Query("t", join=Join("u", on=(("g", "g"), ("k", "k")),
                         select=(("v", "v_right"),))).order("v_right"),
    # The first eq/in filter reads the table's equality index; the other
    # filters scan its rows.
    Query("t").where("m", "eq", 1),
    Query("t").where("m", "eq", True).order("w"),
    Query("t").where("m", "eq", 1.0).where("g", "eq", "red"),
    Query("t").where("m", "in", [1, True, 1.0, "x", "x"]),  # duplicate parts
    Query("t").where("v", "ne", 1).where("m", "eq", 0),
    Query("t").where("g", "eq", 1).where("v", "gt", 0),
    Query("t").where("k", "in", [2, 0]).where("m", "not_null").head(9),
    Query("t", group_by=("g",), aggregates=(Aggregate("count", alias="n"),)
          ).where("m", "in", ["x", 0]),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_stdlib_vs_sqlite(seed):
    rng = random.Random(seed)
    left = random_table(rng, 60)
    right = random_table(rng, 40)
    stdlib = StdlibBackend()
    with SqliteOracle() as sqlite:
        for store in (stdlib, sqlite):
            store.register_table("t", left)
            store.register_table("u", right)
        for query in DIFFERENTIAL_QUERIES:
            expected = stdlib.execute(query).to_dict()
            actual = sqlite.execute(query).to_dict()
            assert actual == expected, f"diverged from the oracle on {query.to_dict()}"
            # and the wire form reproduces the native result exactly
            rewired = stdlib.execute(Query.from_dict(query.to_dict())).to_dict()
            assert rewired == expected


def _unchecked(column, op, value):
    """A filter holding a literal that ``Filter`` refuses (``None``), as
    if built past its checks."""
    item = Filter(column, op, (0,) if op == "in" else 0)
    object.__setattr__(item, "value", value)
    return item


def test_index_path_keeps_the_null_rule_past_validation():
    # eq None matches nothing and `in` keeps the union of its non-None
    # parts, in the executor's index path as in its scan and in SQL.
    queries = [
        Query("t", filters=(_unchecked("m", "eq", None),)),
        Query("t", filters=(_unchecked("m", "in", (None, 1, 1, "x")),)),
        Query("t", filters=(_unchecked("m", "in", (None,)),)),
    ]
    table = random_table(random.Random(4), 60)
    stdlib = StdlibBackend()
    with SqliteOracle() as sqlite:
        for store in (stdlib, sqlite):
            store.register_table("t", table)
        for query in queries:
            assert stdlib.execute(query).to_dict() == sqlite.execute(query).to_dict()
    assert len(stdlib.execute(queries[0])) == 0
    assert len(stdlib.execute(queries[1])) > 0


def _where_by_scan(table, **conditions):
    return [row for row in table.rows()
            if all(row[name] == value for name, value in conditions.items())]


def test_table_where_equals_a_brute_force_scan():
    nan = math.nan
    table = make_table(
        g=["a", None, "b", "a", None, 1, True, 1.0, "a", "b"],
        f=[nan, 1.0, nan, float("nan"), None, 2.0, nan, 0.0, 1, nan],
        u=[[1], [2], [1], [], [2], [1], [3], [1], [2], []],  # unhashable
        k=[0, 1, 0, 1, 0, 1, 0, 1, 0, 0],
    )
    cases = [
        {"g": None},                  # `==` matches None cells
        {"f": nan},                   # NaN matches nothing, not even the
        {"f": float("nan")},          # math.nan cells a dict would find
        {"f": 1}, {"g": True}, {"g": 1.0}, {"g": "zzz"},
        {"u": 1}, {"u": [1]},         # unhashable cells: a scan
        {"g": [1]},                   # unhashable literal: a scan
        {"g": "a", "k": 0}, {"k": 0, "g": "a"}, {"k": 0, "u": []},
        {"g": "b", "f": nan}, {},
    ]
    for conditions in cases:
        assert table.where(**conditions).rows() == _where_by_scan(
            table, **conditions), conditions


def test_index_lookups_keep_row_order():
    table = make_table(c=[(i * 37) % 11 for i in range(600)],
                       i=list(range(600)))
    assert table.where(c=3)["i"].values == [
        row["i"] for row in _where_by_scan(table, c=3)]
    rows = run_query(Query("t").where("c", "in", [9, 3, 9]), {"t": table})
    expected = [i for i in range(600) if (i * 37) % 11 in (3, 9)]
    assert rows["i"].values == expected


def test_concurrent_first_lookups_see_a_whole_index():
    """Threads racing to build one column's index, against an executor
    and ``where``, each see every matching row: an index is published
    only once it is complete."""
    rng = random.Random(6)
    values = [rng.randrange(40) for _ in range(20000)]
    expected = {key: [i for i, value in enumerate(values) if value == key]
                for key in range(40)}

    def look_up(worker):
        keys = list(range(40))
        random.Random(worker).shuffle(keys)
        found = {}
        for key in keys:
            if worker % 2:
                rows = run_query(Query("t").where("c", "eq", key), {"t": table})
            else:
                rows = table.where(c=key)
            found[key] = rows["i"].values
        return found

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            table = make_table(c=values, i=list(range(len(values))))
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(look_up, worker) for worker in range(8)]
                results = [future.result(timeout=120) for future in futures]
            assert all(found == expected for found in results)
    finally:
        sys.setswitchinterval(interval)


def test_add_column_after_a_lookup_is_seen_by_the_next_query():
    table = make_table(k=[1, 2, 1], v=["a", "b", "c"])
    store = StdlibBackend()
    store.register_table("t", table)
    query = Query("t").where("k", "eq", 1)
    assert table.where(k=1)["v"].values == ["a", "c"]
    assert store.execute(query)["v"].values == ["a", "c"]
    table.add_column("k", [2, 1, 1])
    assert table.where(k=1)["v"].values == ["b", "c"]
    assert store.execute(query)["v"].values == ["b", "c"]


def test_pickled_and_copied_tables_answer_like_the_original():
    table = random_table(random.Random(5), 60)
    unindexed = pickle.dumps(table)
    query = Query("t").where("g", "in", ["red", 1]).where("v", "ne", 1)
    expected = run_query(query, {"t": table}).to_dict()
    sliced = table.where(m=1, k=0).to_dict()
    # The index stays behind: the pickle of a looked-up table is the
    # pickle of a fresh one.
    assert pickle.dumps(table) == unindexed
    for clone in (pickle.loads(unindexed), copy.deepcopy(table)):
        assert run_query(query, {"t": clone}).to_dict() == expected
        assert clone.where(m=1, k=0).to_dict() == sliced


def test_differential_identity_is_type_strict():
    # `==` cannot see 1 vs 1.0, so pin the numeric types both engines must
    # produce: aggregates float all numerics (Column._numeric_values), and
    # the empty sum is the int 0 — everywhere.
    table = make_table(g=["a", "a", "b"], v=[1, 2, 10])
    query = Query("t", group_by=("g",), aggregates=(
        Aggregate("sum", column="v"), Aggregate("min", column="v")))
    empty_sum = Query("t", aggregates=(Aggregate("sum", column="v"),)
                      ).where("v", "gt", 100)
    stdlib = StdlibBackend()
    with SqliteOracle() as sqlite:
        stdlib.register_table("t", table)
        sqlite.register_table("t", table)
        for store in (stdlib, sqlite):
            result = store.execute(query)
            assert result["sum_v"].values == [3.0, 10.0]
            assert all(type(v) is float for v in result["sum_v"].values)
            assert all(type(v) is float for v in result["min_v"].values)
            zero = store.execute(empty_sum)["sum_v"].values
            assert zero == [0] and type(zero[0]) is int


# ----------------------------------------------------------------------
# the --query mini-DSL (satellite 3)
# ----------------------------------------------------------------------
def test_dsl_full_query():
    query = parse_query(
        "select workload, policy, miss_rate "
        "where config = 'tiny' and miss_rate > 0.1 "
        "order by miss_rate desc, workload limit 5")
    assert query == Query(
        table="cells",
        select=("workload", "policy", "miss_rate"),
        filters=(Filter("config", "eq", "tiny"),
                 Filter("miss_rate", "gt", 0.1)),
        order_by=(OrderBy("miss_rate", True), OrderBy("workload", False)),
        limit=5,
    )


def test_dsl_aggregates_and_group_by():
    query = parse_query(
        "group by workload agg mean(miss_rate) as mean_miss, count(), "
        "percentile(ipc, 0.9) order by mean_miss")
    assert query.group_by == ("workload",)
    assert query.aggregates == (
        Aggregate("mean", column="miss_rate", alias="mean_miss"),
        Aggregate("count"),
        Aggregate("percentile", column="ipc", q=0.9),
    )


def test_dsl_operators_and_literals():
    query = parse_query(
        "where a != 3 and b in (1, 'two', three) and c is null "
        "and d is not null and e not in (4.5) and f = true and g <= -2")
    assert query.filters == (
        Filter("a", "ne", 3),
        Filter("b", "in", (1, "two", "three")),
        Filter("c", "is_null"),
        Filter("d", "not_null"),
        Filter("e", "not_in", (4.5,)),
        Filter("f", "eq", True),
        Filter("g", "le", -2),
    )


def test_dsl_table_override_and_errors():
    assert parse_query("limit 3", table="trace").table == "trace"
    for bad in ["frobnicate x", "where a", "limit -1", "limit many",
                "agg nope(x)", "where a = ", "select",
                "group by g"]:  # group without aggregates
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


def test_dsl_matches_hand_built_execution():
    table = make_table(workload=["astar", "lbm", "astar"],
                       miss_rate=[0.5, 0.3, 0.7])
    query = parse_query("group by workload agg mean(miss_rate) as m "
                        "order by m desc")
    result = run_query(query, {"cells": table})
    assert result["workload"].values == ["astar", "lbm"]
    assert result["m"].values == [0.6, 0.3]


# ----------------------------------------------------------------------
# ExperimentResult.query / top_k / join
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stored_experiment(tmp_path_factory):
    """A store-backed session with one completed 2x2 experiment."""
    from repro import CacheMind

    from conftest import SESSION_KWARGS

    store_dir = str(tmp_path_factory.mktemp("analytics") / "store")
    session = CacheMind(store_dir=store_dir, **SESSION_KWARGS)
    spec = session.experiment_spec(workloads=["astar", "lbm"],
                                   policies=["lru", "belady"])
    result = session.run_experiment(spec)
    return session, spec, result, store_dir


def test_experiment_query_group_by(stored_experiment, monkeypatch):
    _session, _spec, result, _store_dir = stored_experiment
    table = result.query(Query(
        "cells", group_by=("workload",),
        aggregates=(Aggregate("count", alias="n"),
                    Aggregate("mean", column="miss_rate", alias="mean_miss"))))
    assert table["workload"].values == ["astar", "lbm"]
    assert table["n"].values == [2, 2]
    for workload, mean_miss in zip(table["workload"].values,
                                   table["mean_miss"].values):
        cells = [row["miss_rate"] for row in result.iter_rows()
                 if row["workload"] == workload]
        assert mean_miss == pytest.approx(sum(cells) / len(cells))
    # the wire form and the SQL oracle give the same bytes
    assert result.query(table_query := Query.from_dict(Query(
        "cells", group_by=("workload",),
        aggregates=(Aggregate("count", alias="n"),
                    Aggregate("mean", column="miss_rate", alias="mean_miss"))
    ).to_dict())).to_dict() == table.to_dict()
    executed = via_oracle(monkeypatch)
    assert result.query(table_query).to_dict() == table.to_dict()
    assert executed == [table_query]


def test_experiment_top_k(stored_experiment):
    _session, _spec, result, _store_dir = stored_experiment
    worst = result.top_k("miss_rate", k=2)
    assert len(worst) == 2
    rates = sorted((row["miss_rate"] for row in result.iter_rows()),
                   reverse=True)
    assert worst["miss_rate"].values == rates[:2]
    best = result.top_k("miss_rate", k=1, descending=False,
                        where={"workload": "astar"})
    astar = [row["miss_rate"] for row in result.iter_rows()
             if row["workload"] == "astar"]
    assert best["miss_rate"].values == [min(astar)]
    with pytest.raises(ValueError):
        result.top_k("no_such_metric")


def test_experiment_self_join_has_zero_deltas(stored_experiment, monkeypatch):
    _session, _spec, result, _store_dir = stored_experiment
    joined = result.join(result, metrics=("miss_rate", "ipc"))
    assert len(joined) == len(result)
    assert joined["miss_rate_other"].values == joined["miss_rate"].values
    assert joined["miss_rate_delta"].values == [0.0] * len(result)
    assert joined["ipc_delta"].values == [0.0] * len(result)
    executed = via_oracle(monkeypatch)
    oracle_joined = result.join(result, metrics=("miss_rate", "ipc"))
    assert executed and oracle_joined.to_dict() == joined.to_dict()


def test_experiment_iter_rows_is_lazy_and_matches_rows(stored_experiment):
    _session, _spec, result, _store_dir = stored_experiment
    iterator = result.iter_rows()
    first = next(iterator)
    assert first == result.row(0)
    assert [first] + list(iterator) == result.rows()


# ----------------------------------------------------------------------
# Sieve: every stage lookup runs through the engine and matches the oracle
# ----------------------------------------------------------------------
def test_sieve_queries_identical_on_oracle(session, monkeypatch):
    from repro.retrieval.sieve import SieveRetriever

    from test_serve import INTENT_QUESTIONS

    recorded = []
    execute = StdlibBackend.execute

    def recording_execute(store, query):
        result = execute(store, query)
        recorded.append((query, dict(store._tables), result.to_dict()))
        return result

    # plus one question about a real access, so the slice stage samples
    # a value column too
    access = session.database.entry("astar_evictions_lru").data_frame.row(3)
    questions = INTENT_QUESTIONS + [
        f"What is the reuse distance of the access at PC {access['program_counter']} "
        f"address {access['memory_address']} in astar under lru?"]
    monkeypatch.setattr(StdlibBackend, "execute", recording_execute)
    sieve = SieveRetriever(session.database)
    for question in questions:
        sieve.retrieve_text(question)
    monkeypatch.undo()

    # the stages issue slices, counts and value samples
    assert any(query.aggregates for query, _, _ in recorded)
    assert any(query.select for query, _, _ in recorded)
    assert any(not query.aggregates and not query.select
               for query, _, _ in recorded)
    oracles = {}  # one spill per distinct registered-table set
    try:
        for query, tables, expected in recorded:
            key = tuple(sorted((name, id(table)) for name, table in tables.items()))
            if key not in oracles:
                oracles[key] = SqliteOracle()
                for name, table in tables.items():
                    oracles[key].register_table(name, table)
            actual = oracles[key].execute(query).to_dict()
            # Compared as JSON text: payload cells such as the history's
            # tuples come back from the oracle's JSON spill as lists, while
            # 1 and 1.0 still differ.
            assert json.dumps(actual) == json.dumps(expected), query.to_dict()
    finally:
        for oracle in oracles.values():
            oracle.close()


def test_runtime_never_loads_sqlite():
    # `import repro`, a session and a Sieve answer that runs the analytics
    # engine: none of it may import sqlite3 (it costs start-up time and RSS).
    code = (
        "import sys\n"
        "import repro\n"
        "from repro.analytics import StdlibBackend\n"
        "calls = []\n"
        "execute = StdlibBackend.execute\n"
        "StdlibBackend.execute = lambda store, query: (calls.append(query), "
        "execute(store, query))[1]\n"
        "session = repro.CacheMind(workloads=['astar'], policies=['lru'], "
        "num_accesses=300, config=repro.TINY_CONFIG)\n"
        "response = session.ask_request('What is the miss rate for PC 0x4008a0 "
        "in astar under lru?')\n"
        "print(response.route, len(calls), 'sqlite3' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    route, calls, loaded = proc.stdout.split()
    assert route == "sieve" and int(calls) > 0
    assert loaded == "False"


# ----------------------------------------------------------------------
# the serve layer: the `query` op and RemoteClient.query
# ----------------------------------------------------------------------
def test_remote_query_matches_in_process(stored_experiment, monkeypatch):
    from repro.serve import CacheMindServer, CacheMindService, RemoteClient

    session, spec, result, _store_dir = stored_experiment
    query = parse_query("group by workload agg mean(miss_rate) as m, count() "
                        "order by m desc")
    expected = result.query(query)
    service = CacheMindService(session=session)
    try:
        with CacheMindServer(service, host="127.0.0.1", port=0).start() as server:
            host, port = server.address
            with RemoteClient(host, port) as client:
                # a unique fingerprint prefix resolves server-side
                remote = client.query(spec.fingerprint()[:10], query)
                assert remote.to_dict() == expected.to_dict()
                # an older client's "backend" key is ignored, same columns
                legacy = client.request({"op": "query", "fingerprint": spec.fingerprint(),
                                         "query": query.to_dict(), "backend": "sqlite"})
                assert legacy["columns"] == expected.to_dict()
                # a positional backend is refused, never taken as the deadline
                with pytest.raises(TypeError):
                    client.query(spec.fingerprint(), query, "sqlite")
                executed = via_oracle(monkeypatch)
                via_sqlite = client.query(spec.fingerprint(), query.to_dict())
                assert executed == [query]
                assert via_sqlite.to_dict() == expected.to_dict()
    finally:
        service.close()


def test_query_op_error_paths(stored_experiment):
    from repro.serve import CacheMindServer, CacheMindService

    session, spec, _result, _store_dir = stored_experiment
    service = CacheMindService(session=session)
    try:
        server = CacheMindServer(service, host="127.0.0.1", port=0)
        wire = {"op": "query", "fingerprint": spec.fingerprint(),
                "query": Query("cells", limit=1).to_dict()}
        assert server.dispatch_line(json.dumps(wire).encode())["ok"] is True
        for broken in [
            {**wire, "fingerprint": "feedbeef"},        # no such experiment
            {**wire, "fingerprint": ""},                # missing fingerprint
            {**wire, "query": "select *"},              # query must be a dict
            {**wire, "query": {"table": "cells", "limit": -2}},
            # (any table name binds the cell table, so probe a bad column)
            {**wire, "query": {"table": "cells", "select": ["nope"]}},
        ]:
            reply = server.dispatch_line(json.dumps(broken).encode())
            assert reply["ok"] is False, broken
            assert reply["kind"] == "bad_request", broken
        # "backend" is no longer read, so any value is ignored like any
        # other unknown key
        ok = server.dispatch_line(json.dumps(wire).encode())
        legacy = server.dispatch_line(json.dumps({**wire, "backend": "pandas"}).encode())
        assert legacy == ok
    finally:
        service.close()


def test_query_op_without_store_is_a_client_error(session):
    from repro.serve import CacheMindServer, CacheMindService

    service = CacheMindService(session=session)  # no store_dir attached
    try:
        server = CacheMindServer(service, host="127.0.0.1", port=0)
        reply = server.dispatch_line(json.dumps(
            {"op": "query", "fingerprint": "ab",
             "query": {"table": "cells"}}).encode())
        assert reply["ok"] is False
        assert reply["kind"] == "bad_request"
        assert "store" in reply["error"]
    finally:
        service.close()


# ----------------------------------------------------------------------
# CLI: experiment report --query / --format csv
# ----------------------------------------------------------------------
def test_cli_report_query_csv_identical_across_backends(stored_experiment, capsys,
                                                        monkeypatch):
    from repro.cli import main

    _session, spec, result, store_dir = stored_experiment
    dsl = ("group by workload agg mean(miss_rate) as m, count() "
           "order by m desc")
    base = ["experiment", "report", "--store-dir", store_dir,
            "--fingerprint", spec.fingerprint()[:8], "--query", dsl]
    assert main([*base, "--format", "csv"]) == 0
    via_stdlib = capsys.readouterr().out
    assert via_stdlib.splitlines()[0] == "workload,m,count"
    assert via_stdlib == result.query(parse_query(dsl)).to_csv() + "\n"
    with monkeypatch.context() as patch:
        executed = via_oracle(patch)
        assert main([*base, "--format", "csv"]) == 0
        via_sqlite = capsys.readouterr().out
    assert executed == [parse_query(dsl)]
    assert via_stdlib == via_sqlite  # byte-identical to the oracle

    assert main(base) == 0  # default fixed-width rendering
    rendered = capsys.readouterr().out
    assert "workload" in rendered and "astar" in rendered

    assert main([*base, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == result.query(parse_query(dsl)).to_dict()


def test_cli_report_query_json_wire_form(stored_experiment, capsys):
    from repro.cli import main

    _session, spec, result, store_dir = stored_experiment
    wire = json.dumps(Query("cells", select=("workload", "policy", "miss_rate"),
                            order_by=(OrderBy("miss_rate", True),),
                            limit=2).to_dict())
    assert main(["experiment", "report", "--store-dir", store_dir,
                 "--fingerprint", spec.fingerprint(), "--query", wire,
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "workload,policy,miss_rate"
    assert len(out.strip().splitlines()) == 3  # header + limit 2


def test_cli_report_query_errors(stored_experiment, capsys):
    from repro.cli import main

    _session, spec, _result, store_dir = stored_experiment
    base = ["experiment", "report", "--store-dir", store_dir,
            "--fingerprint", spec.fingerprint()]
    assert main([*base, "--query", "frobnicate"]) == 2
    assert "bad --query" in capsys.readouterr().err
    assert main([*base, "--query", '{"limit": 1}']) == 2  # missing table
    assert "bad --query" in capsys.readouterr().err
    assert main([*base, "--query", "select no_such_column"]) == 1
    assert "no_such_column" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:  # --backend is gone
        main([*base, "--query", "limit 1", "--backend", "stdlib"])
    assert exited.value.code == 2
    assert "--backend" in capsys.readouterr().err
