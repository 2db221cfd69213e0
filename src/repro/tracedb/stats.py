"""Cache statistical expert: per-PC and whole-trace statistics.

The paper's Sieve pipeline includes a "Cache Statistical Expert" stage that,
for the PCs present in a retrieved slice, computes "miss rate, access and
eviction reuse distances, and percentage of bad evictions" (section 3.2.3).
:class:`CacheStatisticalExpert` implements exactly those helpers on top of a
trace :class:`~repro.tracedb.table.Table`.  Every helper reads only the
scalar columns it needs, zipped column by column, so the table's lazily
built snapshot columns are never formatted here.

:func:`log_statistics` computes the whole-trace summary the metadata string
needs from an :class:`~repro.tracedb.schema.AccessLog`'s columns, once per
full-detail replay, so no table is built for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.tracedb.schema import (
    HIT_LABEL,
    MISS_TYPE_CODES,
    NEVER_REUSED,
    AccessLog,
)
from repro.tracedb.table import Table


@dataclass
class PCStatistics:
    """Aggregated behaviour of one program counter in a trace."""

    pc: str
    accesses: int
    hits: int
    misses: int
    evictions_caused: int
    mean_accessed_reuse_distance: Optional[float]
    mean_evicted_reuse_distance: Optional[float]
    reuse_distance_std: Optional[float]
    mean_recency: Optional[float]
    bad_eviction_fraction: Optional[float]
    function_name: str = ""

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def summary(self) -> str:
        reuse = (f"{self.mean_accessed_reuse_distance:.1f}"
                 if self.mean_accessed_reuse_distance is not None else "n/a")
        return (f"PC {self.pc}: {self.accesses} accesses, "
                f"{self.miss_rate * 100:.2f}% miss rate, "
                f"mean reuse distance {reuse}"
                + (f", function {self.function_name}" if self.function_name else ""))


@dataclass
class WorkloadStatistics:
    """Whole-trace summary used to build the metadata string."""

    total_accesses: int
    total_misses: int
    total_evictions: int
    compulsory_misses: int
    capacity_misses: int
    conflict_misses: int
    wrong_evictions: int
    recency_miss_correlation: Optional[float]
    unique_pcs: int
    unique_addresses: int

    @property
    def miss_rate(self) -> float:
        return self.total_misses / self.total_accesses if self.total_accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    @property
    def wrong_eviction_fraction(self) -> float:
        if not self.total_evictions:
            return 0.0
        return self.wrong_evictions / self.total_evictions


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Pearson correlation; None when undefined (fewer than 2 points or a
    zero-variance series)."""
    if len(xs) < 2 or len(xs) != len(ys):
        return None
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return None
    return cov / math.sqrt(var_x * var_y)


def _evictions(evicted: Iterable, evicted_rds: Iterable,
               accessed_rds: Iterable) -> Tuple[int, int]:
    """``(evictions, bad evictions)`` over parallel columns; ``evicted`` is
    truthy on the rows that evicted a line.  A bad ("wrong" in the paper)
    eviction's victim was needed again sooner than the inserted line."""
    total = 0
    bad = 0
    for evicted_row, evicted_rd, accessed_rd in zip(evicted, evicted_rds,
                                                    accessed_rds):
        if not evicted_row:
            continue
        total += 1
        if evicted_rd is None or evicted_rd == NEVER_REUSED:
            continue
        if accessed_rd is None or accessed_rd == NEVER_REUSED or evicted_rd < accessed_rd:
            bad += 1
    return total, bad


def log_statistics(log: AccessLog) -> WorkloadStatistics:
    """Whole-trace statistics of an access log, read from its columns.

    Equal to the same statistics read row by row from ``log.to_table()``:
    label counts are code counts, formatted PCs and addresses are distinct
    exactly when their integers are, and the recency/miss correlation gets
    the same float lists in the same order.
    """
    miss_types = {label: log.miss_type_codes.count(code)
                  for label, code in MISS_TYPE_CODES.items()}
    evictions, wrong = _evictions(
        (block >= 0 for block in log.evicted_blocks), log.evicted_reuse,
        log.accessed_reuse)
    recency_values: List[float] = []
    miss_values: List[float] = []
    for recency, hit in zip(log.recencies, log.hit_flags):
        if recency != NEVER_REUSED:
            recency_values.append(float(recency))
            miss_values.append(0.0 if hit else 1.0)
    return WorkloadStatistics(
        total_accesses=len(log),
        total_misses=log.hit_flags.count(0),
        total_evictions=evictions,
        compulsory_misses=miss_types["Compulsory"],
        capacity_misses=miss_types["Capacity"],
        conflict_misses=miss_types["Conflict"],
        wrong_evictions=wrong,
        recency_miss_correlation=_pearson(recency_values, miss_values),
        unique_pcs=len(set(log.pcs)),
        unique_addresses=len(set(log.block_addresses)),
    )


#: The columns :meth:`CacheStatisticalExpert.pc_statistics` reads.
_PC_STATISTICS_COLUMNS = (
    "evict", "evicted_address", "evicted_address_reuse_distance_numeric",
    "accessed_address_reuse_distance_numeric",
    "accessed_address_recency_numeric", "function_name")


class CacheStatisticalExpert:
    """Computes per-PC statistics over a trace table.

    A PC's slice is a declarative :class:`repro.analytics.Query`
    executed by the analytics engine.  The cross-column row
    logic (bad-eviction classification, recency/miss correlation) stays as
    explicit loops — it is row-wise conditional logic the declarative layer
    deliberately does not model.
    """

    def __init__(self, table: Table):
        self.table = table
        self._store = None

    # ------------------------------------------------------------------
    # analytics engine plumbing
    # ------------------------------------------------------------------
    def _engine(self):
        """The lazily-created executor with the trace registered."""
        if self._store is None:
            from repro.analytics import StdlibBackend

            self._store = StdlibBackend()
            self._store.register_table("trace", self.table)
        return self._store

    def _slice_query(self, select: Sequence[str], **conditions) -> Table:
        """The ``select`` columns of the rows matching exact-equality
        ``conditions``, via the engine."""
        from repro.analytics import Filter, Query

        return self._engine().execute(Query(
            table="trace",
            select=tuple(select),
            filters=tuple(Filter(name, "eq", value)
                          for name, value in conditions.items()),
        ))

    # ------------------------------------------------------------------
    # per-PC statistics
    # ------------------------------------------------------------------
    def pcs(self) -> List[str]:
        """Unique program counters in first-seen order."""
        return self.table["program_counter"].unique()

    def pc_statistics(self, pc: str) -> PCStatistics:
        """Full statistics for one program counter."""
        rows = self._slice_query(_PC_STATISTICS_COLUMNS, program_counter=pc)
        accesses = len(rows)
        hits = sum(1 for value in rows["evict"].values if value == HIT_LABEL)
        misses = accesses - hits
        evictions, bad = _evictions(
            rows.sequence("evicted_address"),
            rows.sequence("evicted_address_reuse_distance_numeric"),
            rows.sequence("accessed_address_reuse_distance_numeric"))
        accessed_rd = [value for value in
                       rows["accessed_address_reuse_distance_numeric"].values
                       if value is not None and value != NEVER_REUSED]
        evicted_rd = [value for value in
                      rows["evicted_address_reuse_distance_numeric"].values
                      if value is not None and value != NEVER_REUSED]
        recency = [value for value in
                   rows["accessed_address_recency_numeric"].values
                   if value is not None and value != NEVER_REUSED]
        function_names = [value for value in rows["function_name"].values if value]
        reuse_std = None
        if accessed_rd:
            mean_rd = sum(accessed_rd) / len(accessed_rd)
            reuse_std = math.sqrt(
                sum((value - mean_rd) ** 2 for value in accessed_rd) / len(accessed_rd))
        return PCStatistics(
            pc=pc,
            accesses=accesses,
            hits=hits,
            misses=misses,
            evictions_caused=evictions,
            mean_accessed_reuse_distance=(
                sum(accessed_rd) / len(accessed_rd) if accessed_rd else None),
            mean_evicted_reuse_distance=(
                sum(evicted_rd) / len(evicted_rd) if evicted_rd else None),
            reuse_distance_std=reuse_std,
            mean_recency=sum(recency) / len(recency) if recency else None,
            bad_eviction_fraction=bad / evictions if evictions else None,
            function_name=function_names[0] if function_names else "",
        )
