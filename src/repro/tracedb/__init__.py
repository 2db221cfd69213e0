"""Trace database substrate.

This package provides the external store that CacheMind retrievers query:

* :class:`~repro.tracedb.table.Table` -- a small columnar, pandas-like table
  used instead of a pandas ``DataFrame`` (filtering, group-by, aggregation,
  sorting).
* :mod:`~repro.tracedb.schema` -- the per-access record schema documented in
  section 4.3 of the paper (program counter, memory address, reuse distances,
  eviction metadata, source/assembly context, ...).
* :mod:`~repro.tracedb.database` -- the per-(workload, policy) entries
  and the ``loaded_data`` dictionary keyed by
  ``<workload>_evictions_<policy>`` that a session's database build fills.
* :mod:`~repro.tracedb.metadata` -- the whole-trace metadata summary string.
* :mod:`~repro.tracedb.stats` -- the "cache statistical expert": per-PC
  statistics (miss rates, reuse distances, wrong-eviction ratios) and the
  whole-trace summary.
* :mod:`~repro.tracedb.store` -- the versioned persistent on-disk store
  (:class:`~repro.tracedb.store.TraceStore`) that lets fresh processes load
  simulation results (one record each) instead of re-simulating.
* :mod:`~repro.tracedb.objstore` -- the storage substrate under the store:
  content-addressed sharded immutable objects, one file per record.
"""

from repro.tracedb.table import Table, Column
from repro.tracedb.schema import ACCESS_COLUMNS, AccessLog
from repro.tracedb.store import (
    STORE_SCHEMA_VERSION,
    TraceStore,
    simulation_key,
)
from repro.tracedb.metadata import TraceMetadata, build_metadata_string
from repro.tracedb.stats import (
    CacheStatisticalExpert,
    PCStatistics,
    WorkloadStatistics,
)
from repro.tracedb.database import (
    TraceDatabase,
    TraceEntry,
    make_entry,
    trace_key,
    parse_trace_key,
)

__all__ = [
    "Table",
    "Column",
    "ACCESS_COLUMNS",
    "AccessLog",
    "STORE_SCHEMA_VERSION",
    "TraceStore",
    "simulation_key",
    "TraceMetadata",
    "build_metadata_string",
    "CacheStatisticalExpert",
    "PCStatistics",
    "WorkloadStatistics",
    "TraceDatabase",
    "TraceEntry",
    "make_entry",
    "trace_key",
    "parse_trace_key",
]
