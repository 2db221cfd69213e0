"""Trace database: the external store CacheMind retrieves from.

The store is organised exactly as in the paper (section 4.3): a dictionary
``loaded_data`` keyed by trace identifiers ``<workload>_evictions_<policy>``
(e.g. ``lbm_evictions_lru``), each mapping to

* ``data_frame``   -- the per-access table (:class:`~repro.tracedb.table.Table`),
* ``metadata``     -- a single whole-trace summary string,
* ``description``  -- a short human-readable workload + policy description.

:func:`make_entry` derives one :class:`TraceEntry` (which also keeps the
simulation statistics around for insight analyses) from a full-detail
simulation result, in memory: an entry is never stored, its result is.
:class:`TraceDatabase` holds the entries.  Building a database is a
session's job: a :class:`~repro.core.pipeline.CacheMind` session's
``database`` runs its ``workloads x policies`` matrix through
:meth:`~repro.core.pipeline.SimulationCache.run_jobs` (memoised, persisted,
batched per trace and optionally parallel) and installs the entries here.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import UnknownNameError
from repro.sim.config import HierarchyConfig, SMALL_CONFIG
from repro.sim.engine import SimulationResult
from repro.tracedb.metadata import build_metadata_string
from repro.tracedb.stats import WorkloadStatistics
from repro.tracedb.table import Table

#: default workloads and policies used in the paper's evaluation.
DEFAULT_WORKLOADS = ("astar", "lbm", "mcf")
DEFAULT_POLICIES = ("belady", "lru", "mlp", "parrot")


def trace_key(workload: str, policy: str) -> str:
    """Build a trace identifier (``lbm_evictions_lru``)."""
    return f"{workload}_evictions_{policy}"


def parse_trace_key(key: str) -> Tuple[str, str]:
    """Split a trace identifier into (workload, policy)."""
    parts = key.split("_evictions_")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"malformed trace key {key!r}")
    return parts[0], parts[1]


class TraceEntry:
    """One (workload, policy) entry of the external store: an in-memory
    view of one full-detail :class:`~repro.sim.engine.SimulationResult`.

    The metadata string, description and statistics are derived from the
    result by :func:`make_entry`.  ``data_frame`` is built from the
    result's access log on first read, so an entry nobody queries row by
    row never pays for its table.
    """

    def __init__(self, workload: str, policy: str, metadata: str,
                 description: str, statistics: WorkloadStatistics,
                 result: SimulationResult):
        self.workload = workload
        self.policy = policy
        self.metadata = metadata
        self.description = description
        self.statistics = statistics
        self.result = result
        self._data_frame: Optional[Table] = None

    @property
    def data_frame(self) -> Table:
        """The per-access table, built from the access log on first read."""
        if self._data_frame is None:
            self._data_frame = self.result.log.to_table()
        return self._data_frame

    def __repr__(self) -> str:
        return (f"TraceEntry(workload={self.workload!r}, "
                f"policy={self.policy!r}, "
                f"rows={self.result.num_records})")

    @property
    def key(self) -> str:
        return trace_key(self.workload, self.policy)

    def as_loaded_data_value(self) -> Mapping[str, object]:
        """The ``loaded_data`` value documented in the Ranger system prompt:
        a read-only mapping of ``data_frame``, ``metadata`` and
        ``description`` that reads ``data_frame`` only when it is looked up,
        so handing out ``loaded_data`` builds no table."""
        return _LoadedDataValue(self)


class _LoadedDataValue(Mapping):
    """See :meth:`TraceEntry.as_loaded_data_value`."""

    __slots__ = ("_entry",)
    _KEYS = ("data_frame", "metadata", "description")

    def __init__(self, entry: TraceEntry):
        self._entry = entry

    def __getitem__(self, key: str) -> object:
        if key not in self._KEYS:
            raise KeyError(key)
        return getattr(self._entry, key)

    def __contains__(self, key: object) -> bool:
        return key in self._KEYS

    def __iter__(self) -> Iterator[str]:
        return iter(self._KEYS)

    def __len__(self) -> int:
        return len(self._KEYS)


def make_entry(result: SimulationResult,
               workload_description: str = "") -> TraceEntry:
    """Derive a database entry from one full-detail simulation result.

    The statistics are the result's own (computed from its access log at
    the end of the replay); this builds the metadata string and the
    description around them, and leaves the table to the entry's first
    read.  A stats-detail result has no log to build a table from and is
    refused."""
    if result.log is None:
        raise ValueError(
            f"make_entry needs a full-detail result with an access log; "
            f"{result.workload}/{result.policy_name} was replayed at "
            f"{result.detail!r} detail")
    workload_part = workload_description or f"workload {result.workload}"
    description = (f"Replacement Policy: {result.policy_description} "
                   f"Workload: {workload_part}")
    return TraceEntry(
        workload=result.workload,
        policy=result.policy_name,
        metadata=build_metadata_string(result.statistics),
        description=description,
        statistics=result.statistics,
        result=result,
    )


class TraceDatabase:
    """Container of trace entries with the paper's ``loaded_data`` layout."""

    def __init__(self, config: HierarchyConfig = SMALL_CONFIG):
        self.config = config
        self.entries: Dict[str, TraceEntry] = {}

    # ------------------------------------------------------------------
    def add_entry(self, entry: TraceEntry) -> None:
        self.entries[entry.key] = entry

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, workload: str, policy: str) -> TraceEntry:
        key = trace_key(workload, policy)
        if key not in self.entries:
            raise UnknownNameError(
                f"no trace entry {key!r}; available: {sorted(self.entries)}")
        return self.entries[key]

    def entry(self, key: str) -> TraceEntry:
        if key not in self.entries:
            raise UnknownNameError(
                f"no trace entry {key!r}; available: {sorted(self.entries)}")
        return self.entries[key]

    def keys(self) -> List[str]:
        return sorted(self.entries)

    @property
    def workloads(self) -> List[str]:
        return sorted({entry.workload for entry in self.entries.values()})

    @property
    def policies(self) -> List[str]:
        return sorted({entry.policy for entry in self.entries.values()})

    def entries_for_workload(self, workload: str) -> List[TraceEntry]:
        return [entry for entry in self.entries.values()
                if entry.workload == workload]

    def loaded_data(self) -> Dict[str, Mapping[str, object]]:
        """The exact dictionary layout Ranger-generated code queries; an
        entry's table is built when its ``data_frame`` is first read."""
        return {key: entry.as_loaded_data_value()
                for key, entry in self.entries.items()}

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [f"trace database: {len(self.entries)} entries "
                 f"({len(self.workloads)} workloads x {len(self.policies)} policies)"]
        for key in self.keys():
            entry = self.entries[key]
            lines.append(
                f"  {key}: {entry.result.num_records} rows, "
                f"{entry.statistics.miss_rate * 100:.2f}% miss rate")
        return "\n".join(lines)

