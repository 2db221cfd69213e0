"""Stats-only replay equivalence with the full-detail path.

The fast path may skip snapshots and bookkeeping, but it must make exactly
the same caching decisions: identical hit/miss/eviction/bypass counts, miss
taxonomy, per-set rates and timing for every registered policy on every
bundled workload.  The full-detail table builds its snapshot columns on
read: every read path must see the row-materialised values, and the
statistics must equal a row-loop reference without building any snapshot.
"""

import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analytics import Filter, Query, run_query
from repro.policies.base import available_policies
from repro.sim.cache import Cache, CacheStats
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.tracedb.database import make_entry
from repro.tracedb.schema import HIT_LABEL, NEVER_REUSED
from repro.tracedb.stats import (CacheStatisticalExpert, PCStatistics,
                                 WorkloadStatistics, _pearson)
from repro.tracedb.table import LazyColumn
from repro.workloads.generator import available_workloads, generate_trace
from row_oracle import records_to_table, to_records

#: the columns ``AccessLog.to_table`` builds on read.
SNAPSHOT_COLUMNS = ("current_cache_lines", "recent_access_history",
                    "cache_line_eviction_scores",
                    "current_cache_line_addresses")

NUM_ACCESSES = 300

_TRACES = {}


def _trace(workload):
    if workload not in _TRACES:
        _TRACES[workload] = generate_trace(workload, NUM_ACCESSES, seed=0)
    return _TRACES[workload]


def _counters(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions,
            stats.bypasses, stats.compulsory_misses, stats.capacity_misses,
            stats.conflict_misses)


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", available_workloads())
def test_stats_replay_matches_full_replay(workload, policy):
    trace = _trace(workload)
    full = SimulationEngine(config=TINY_CONFIG).run(trace, policy)
    stats = SimulationEngine(config=TINY_CONFIG, detail="stats").run(trace, policy)
    assert _counters(full.llc_stats) == _counters(stats.llc_stats)
    rates = stats.llc_stats.set_hit_rates()
    assert rates and all(0.0 <= rate <= 1.0 for rate in rates.values())
    assert full.llc_stats.set_hit_rates() == rates
    assert full.timing.instructions == stats.timing.instructions
    assert full.timing.cycles == stats.timing.cycles
    assert full.timing.ipc == stats.timing.ipc
    assert full.timing.accesses_by_level == stats.timing.accesses_by_level
    assert full.timing.stalls_by_level == stats.timing.stalls_by_level


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", available_workloads())
def test_columnar_table_identical_to_row_materialised_table(workload, policy):
    """The columnar spine's table path is byte-identical to the object path.

    ``AccessLog.to_table`` (columns built directly from the engine's arrays)
    must produce exactly the table the row oracle gets by materialising
    ``AccessRecord`` rows and transposing them.
    """
    result = SimulationEngine(config=TINY_CONFIG).run(_trace(workload), policy)
    columnar = result.log.to_table()
    row_based = records_to_table(to_records(result.log))
    assert columnar.columns == row_based.columns

    # Row reads, row selections and analytics slices build only the cells
    # they return and leave the table's snapshot columns lazy.
    size = len(row_based)
    for i in sorted({0, 1, size // 3, size // 2, size - 1}):
        assert columnar.row(i) == row_based.row(i)
    assert columnar.head(7).to_dict() == row_based.head(7).to_dict()
    pc = row_based.row(size // 2)["program_counter"]
    assert (columnar.where(program_counter=pc).to_dict()
            == row_based.where(program_counter=pc).to_dict())
    assert (columnar.where(program_counter=pc).tail(2).to_dict()
            == row_based.where(program_counter=pc).tail(2).to_dict())
    query = Query(table="trace", filters=(Filter("program_counter", "eq", pc),))
    assert (run_query(query, {"trace": columnar}).to_dict()
            == run_query(query, {"trace": row_based}).to_dict())
    assert all(isinstance(columnar.sequence(name), LazyColumn)
               for name in SNAPSHOT_COLUMNS)

    # Whole-table reads swap every lazy column for its list of cells.
    assert columnar.rows() == row_based.rows()
    assert columnar.to_dict() == row_based.to_dict()
    assert all(type(columnar.sequence(name)) is list
               for name in SNAPSHOT_COLUMNS)

    # A pickle of a still-lazy table carries plain lists.
    clone = pickle.loads(pickle.dumps(result.log.to_table()))
    assert all(type(clone.sequence(name)) is list for name in SNAPSHOT_COLUMNS)
    assert clone.to_dict() == row_based.to_dict()


def test_concurrent_reads_of_a_lazy_table_see_the_eager_values():
    """Threads racing to build the same cells, while one swaps the columns
    for lists, may build a cell twice but never read a different value."""
    result = SimulationEngine(config=TINY_CONFIG).run(_trace("mcf"), "lru")
    expected = records_to_table(to_records(result.log)).rows()
    table = result.log.to_table()

    def read(worker):
        if worker == 0:
            return table.rows()
        order = list(range(len(expected)))
        random.Random(worker).shuffle(order)
        rows = [None] * len(expected)
        for i in order:
            rows[i] = table.row(i)
        return rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(read, worker) for worker in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(rows == expected for rows in results)
    assert table.rows() == expected


def _reference_workload_statistics(table):
    """Whole-trace statistics by the row loop over a row-materialised
    table: the definition the columnar statistics must reproduce."""
    misses = sum(table["is_miss"].values)
    evictions = sum(1 for value in table["evicted_address"].values if value)
    miss_types = table["miss_type"].value_counts()
    wrong = 0
    recency_values = []
    miss_values = []
    for row in table.iter_rows():
        if row["evicted_address"]:
            evicted_rd = row["evicted_address_reuse_distance_numeric"]
            accessed_rd = row["accessed_address_reuse_distance_numeric"]
            if evicted_rd is not None and evicted_rd != NEVER_REUSED:
                if (accessed_rd is None or accessed_rd == NEVER_REUSED
                        or evicted_rd < accessed_rd):
                    wrong += 1
        recency = row["accessed_address_recency_numeric"]
        if recency is not None and recency != NEVER_REUSED:
            recency_values.append(float(recency))
            miss_values.append(float(row["is_miss"]))
    return WorkloadStatistics(
        total_accesses=len(table),
        total_misses=misses,
        total_evictions=evictions,
        compulsory_misses=miss_types.get("Compulsory", 0),
        capacity_misses=miss_types.get("Capacity", 0),
        conflict_misses=miss_types.get("Conflict", 0),
        wrong_evictions=wrong,
        recency_miss_correlation=_pearson(recency_values, miss_values),
        unique_pcs=len(table["program_counter"].unique()),
        unique_addresses=len(table["memory_address"].unique()),
    )


def _reference_pc_statistics(table, pc):
    """One PC's statistics by the row loop over a row-materialised table."""
    rows = [row for row in table.iter_rows() if row["program_counter"] == pc]

    def reused(name):
        return [row[name] for row in rows if row[name] != NEVER_REUSED]

    def mean(values):
        return sum(values) / len(values) if values else None

    hits = sum(1 for row in rows if row["evict"] == HIT_LABEL)
    evictions = [row for row in rows if row["evicted_address"]]
    bad = 0
    for row in evictions:
        evicted_rd = row["evicted_address_reuse_distance_numeric"]
        accessed_rd = row["accessed_address_reuse_distance_numeric"]
        if evicted_rd != NEVER_REUSED and (accessed_rd == NEVER_REUSED
                                           or evicted_rd < accessed_rd):
            bad += 1
    accessed_rd = reused("accessed_address_reuse_distance_numeric")
    reuse_std = None
    if accessed_rd:
        reuse_std = math.sqrt(sum((value - mean(accessed_rd)) ** 2
                                  for value in accessed_rd) / len(accessed_rd))
    names = [row["function_name"] for row in rows if row["function_name"]]
    return PCStatistics(
        pc=pc,
        accesses=len(rows),
        hits=hits,
        misses=len(rows) - hits,
        evictions_caused=len(evictions),
        mean_accessed_reuse_distance=mean(accessed_rd),
        mean_evicted_reuse_distance=mean(
            reused("evicted_address_reuse_distance_numeric")),
        reuse_distance_std=reuse_std,
        mean_recency=mean(reused("accessed_address_recency_numeric")),
        bad_eviction_fraction=bad / len(evictions) if evictions else None,
        function_name=names[0] if names else "",
    )


@pytest.mark.parametrize("mode", ["llc_only", "hierarchy"])
@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", available_workloads())
def test_statistics_match_row_loop_reference(workload, policy, mode):
    """The replay's statistics (read from its access log) equal the
    row-loop reference; per-PC statistics read from the table's columns do
    too, and leave its snapshot columns unbuilt."""
    result = SimulationEngine(config=TINY_CONFIG, mode=mode).run(
        _trace(workload), policy)
    reference = records_to_table(to_records(result.log))
    assert result.statistics == _reference_workload_statistics(reference)
    table = result.log.to_table()
    expert = CacheStatisticalExpert(table)
    pcs = expert.pcs()
    assert pcs == reference["program_counter"].unique()
    for pc in pcs:
        assert expert.pc_statistics(pc) == _reference_pc_statistics(reference, pc)
    assert all(isinstance(table.sequence(name), LazyColumn)
               for name in SNAPSHOT_COLUMNS)


@pytest.mark.parametrize("policy", ["lru", "ship", "belady"])
def test_stats_replay_matches_full_replay_hierarchy_mode(policy):
    trace = _trace("lbm")
    full = SimulationEngine(config=TINY_CONFIG, mode="hierarchy").run(trace, policy)
    stats = SimulationEngine(config=TINY_CONFIG, mode="hierarchy",
                             detail="stats").run(trace, policy)
    assert _counters(full.llc_stats) == _counters(stats.llc_stats)
    assert full.timing.cycles == stats.timing.cycles
    assert full.timing.ipc == stats.timing.ipc


def test_stats_detail_skips_records():
    result = SimulationEngine(config=TINY_CONFIG, detail="stats").run(
        _trace("astar"), "lru")
    assert result.detail == "stats"
    assert result.log is None and result.num_records == 0
    # Full-detail replay still produces one record per access.
    full = SimulationEngine(config=TINY_CONFIG).run(_trace("astar"), "lru")
    assert full.detail == "full"
    assert len(to_records(full.log)) == NUM_ACCESSES


def test_make_entry_refuses_a_stats_detail_result():
    """A stats-detail result has no access log: no table, no entry."""
    result = SimulationEngine(config=TINY_CONFIG, detail="stats").run(
        _trace("astar"), "lru")
    assert result.log is None and result.llc_stats.miss_rate > 0
    with pytest.raises(ValueError, match="access log"):
        make_entry(result)


def test_invalid_detail_rejected():
    with pytest.raises(ValueError):
        SimulationEngine(config=TINY_CONFIG, detail="verbose")
    with pytest.raises(ValueError):
        Cache(TINY_CONFIG.llc, detail="verbose")


def test_per_set_counters_are_preallocated_lists():
    stats = CacheStats.for_sets(4)
    assert stats.per_set_accesses == [0, 0, 0, 0]
    assert stats.per_set_hits == [0, 0, 0, 0]
    assert stats.set_hit_rates() == {}  # nothing accessed yet
    stats.per_set_accesses[1] = 4
    stats.per_set_hits[1] = 3
    assert stats.set_hit_rates() == {1: 0.75}
