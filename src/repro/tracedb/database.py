"""Trace database builder: the external store CacheMind retrieves from.

The store is organised exactly as in the paper (section 4.3): a dictionary
``loaded_data`` keyed by trace identifiers ``<workload>_evictions_<policy>``
(e.g. ``lbm_evictions_lru``), each mapping to

* ``data_frame``   -- the per-access table (:class:`~repro.tracedb.table.Table`),
* ``metadata``     -- a single whole-trace summary string,
* ``description``  -- a short human-readable workload + policy description.

:func:`build_database` simulates every (workload, policy) pair with the
simulation engine and assembles that dictionary, along with richer
per-entry objects (:class:`TraceEntry`) that keep the simulation statistics
and the synthetic binary image around for insight analyses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import UnknownNameError
from repro.policies.base import get_policy
from repro.sim.config import HierarchyConfig, SMALL_CONFIG
from repro.sim.batch import BatchSimulator, RolloutSpec
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.parallel import ParallelSimulator, SimulationJob
from repro.tracedb.metadata import build_metadata_string
from repro.tracedb.schema import records_to_table
from repro.tracedb.stats import CacheStatisticalExpert, WorkloadStatistics
from repro.tracedb.store import TraceStore, entry_key, simulation_key
from repro.tracedb.table import Table
from repro.workloads.generator import get_workload
from repro.workloads.trace import MemoryTrace

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
    """One (workload, policy) entry of the external store.

    ``data_frame`` is materialised lazily: when the entry crosses a process
    boundary (persistent store record, parallel-worker result), only the
    compact columnar access log inside ``result`` travels, and the table is
    rebuilt — byte-identically — on first access.  That keeps store records
    small and warm session starts buffer-speed instead of re-unpickling
    millions of formatted cells.
    """

    def __init__(self, workload: str, policy: str,
                 data_frame: Optional[Table], metadata: str,
                 description: str, statistics: WorkloadStatistics,
                 result: Optional[SimulationResult] = None):
        self.workload = workload
        self.policy = policy
        self.metadata = metadata
        self.description = description
        self.statistics = statistics
        self.result = result
        self._data_frame = data_frame
        if data_frame is None and (result is None or result.log is None):
            raise ValueError(
                "TraceEntry needs a data_frame or a result with an access "
                "log to rebuild one from")

    @property
    def data_frame(self) -> Table:
        """The per-access table, rebuilt from the access log if needed."""
        if self._data_frame is None:
            self._data_frame = self.result.log.to_table()
        return self._data_frame

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # The table is pure derived data whenever the log is present; ship
        # the compact log only and rebuild lazily on the other side.
        if self.result is not None and self.result.log is not None:
            state["_data_frame"] = None
        return state

    def __repr__(self) -> str:
        return (f"TraceEntry(workload={self.workload!r}, "
                f"policy={self.policy!r}, "
                f"rows={len(self.data_frame)})")

    @property
    def key(self) -> str:
        return trace_key(self.workload, self.policy)

    @property
    def expert(self) -> CacheStatisticalExpert:
        return CacheStatisticalExpert(self.data_frame)

    def as_loaded_data_value(self) -> Dict[str, object]:
        """The plain dictionary shape documented in the Ranger system prompt."""
        return {
            "data_frame": self.data_frame,
            "metadata": self.metadata,
            "description": self.description,
        }


def make_entry(result: SimulationResult,
               workload_description: str = "") -> TraceEntry:
    """Derive a database entry (table, statistics, metadata) from one
    simulation result.

    The data frame is assembled column-by-column from the result's columnar
    access log (byte-identical to the legacy row-materialised path, without
    building a dict per row)."""
    table = (result.log.to_table() if result.log is not None
             else records_to_table(result.records))
    stats = CacheStatisticalExpert(table).workload_statistics()
    workload_part = workload_description or f"workload {result.workload}"
    description = (f"Replacement Policy: {result.policy_description} "
                   f"Workload: {workload_part}")
    return TraceEntry(
        workload=result.workload,
        policy=result.policy_name,
        data_frame=table,
        metadata=build_metadata_string(stats),
        description=description,
        statistics=stats,
        result=result,
    )


class TraceDatabase:
    """Container of trace entries with the paper's ``loaded_data`` layout."""

    def __init__(self, config: HierarchyConfig = SMALL_CONFIG):
        self.config = config
        self.entries: Dict[str, TraceEntry] = {}
        self.binaries: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def add_entry(self, entry: TraceEntry) -> None:
        self.entries[entry.key] = entry

    def add_result(self, result: SimulationResult,
                   workload_description: str = "") -> TraceEntry:
        """Convert a simulation result into a database entry and store it."""
        entry = make_entry(result, workload_description=workload_description)
        self.install_entry(entry)
        return entry

    def install_entry(self, entry: TraceEntry) -> None:
        """Store a (possibly shared/memoised) entry plus its binary image."""
        self.add_entry(entry)
        if entry.result is not None and entry.result.binary is not None:
            self.binaries[entry.workload] = entry.result.binary

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

    def entries_for_policy(self, policy: str) -> List[TraceEntry]:
        return [entry for entry in self.entries.values() if entry.policy == policy]

    def loaded_data(self) -> Dict[str, Dict[str, object]]:
        """The exact dictionary layout Ranger-generated code queries."""
        return {key: entry.as_loaded_data_value()
                for key, entry in self.entries.items()}

    def binary_for(self, workload: str):
        return self.binaries.get(workload)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, workloads: Sequence[str] = DEFAULT_WORKLOADS,
              policies: Sequence[str] = DEFAULT_POLICIES,
              num_accesses: int = 20000,
              config: HierarchyConfig = SMALL_CONFIG,
              mode: str = "llc_only",
              seed: int = 0,
              traces: Optional[Dict[str, MemoryTrace]] = None,
              max_records: Optional[int] = None,
              jobs: int = 1,
              executor: str = "auto",
              store: Optional[object] = None) -> "TraceDatabase":
        """Build a database, optionally in parallel (``jobs > 1``).

        Parallel builds fan the (workload, policy) pairs out over a
        :class:`~repro.sim.parallel.ParallelSimulator` and produce entries
        identical to a serial build.  ``store`` (a
        :class:`~repro.tracedb.store.TraceStore` or directory path) makes
        the build persistent: cached entries are loaded instead of
        simulated, and fresh entries are saved for future processes.
        """
        return build_database(workloads=workloads, policies=policies,
                              num_accesses=num_accesses, config=config,
                              mode=mode, seed=seed, traces=traces,
                              max_records=max_records, jobs=jobs,
                              executor=executor, store=store)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [f"trace database: {len(self.entries)} entries "
                 f"({len(self.workloads)} workloads x {len(self.policies)} policies)"]
        for key in self.keys():
            entry = self.entries[key]
            lines.append(
                f"  {key}: {len(entry.data_frame)} rows, "
                f"{entry.statistics.miss_rate * 100:.2f}% miss rate")
        return "\n".join(lines)


def build_database(workloads: Sequence[str] = DEFAULT_WORKLOADS,
                   policies: Sequence[str] = DEFAULT_POLICIES,
                   num_accesses: int = 20000,
                   config: HierarchyConfig = SMALL_CONFIG,
                   mode: str = "llc_only",
                   seed: int = 0,
                   traces: Optional[Dict[str, MemoryTrace]] = None,
                   max_records: Optional[int] = None,
                   jobs: int = 1,
                   executor: str = "auto",
                   store: Optional[object] = None) -> TraceDatabase:
    """Simulate every (workload, policy) pair and build the database.

    ``traces`` may supply pre-generated traces keyed by workload name (useful
    for the microbenchmark use cases); missing workloads are generated with
    their default generator.  ``jobs > 1`` fans the pairs out over a process
    pool (falling back to threads/serial); because traces and policies are
    deterministic, the parallel build is identical to the serial one.

    ``store`` (a :class:`~repro.tracedb.store.TraceStore` or a directory
    path) adds cross-process persistence: pairs already in the store are
    loaded instead of simulated, and freshly simulated pairs are written
    back, so repeated builds in fresh processes start warm.  Store keys
    include the trace content fingerprint, so a changed generator or a
    hand-supplied trace never matches a stale record.
    """
    if store is not None and not isinstance(store, TraceStore):
        store = TraceStore(os.fspath(store))
    database = TraceDatabase(config=config)
    engine = SimulationEngine(config=config, mode=mode, max_records=max_records)

    # Trace resolution: supplied traces are used as-is; otherwise traces are
    # generated up front when needed in-process (serial run, or store keys
    # that hash trace content).  A store-less parallel build skips parent
    # generation entirely — workers regenerate deterministically.
    need_traces = store is not None or jobs <= 1
    trace_map: Dict[str, MemoryTrace] = {}
    description_map: Dict[str, str] = {}
    for workload_name in workloads:
        if traces is not None and workload_name in traces:
            trace_map[workload_name] = traces[workload_name]
            description_map[workload_name] = traces[workload_name].description
        elif need_traces:
            generator = get_workload(workload_name, seed=seed)
            trace_map[workload_name] = generator.generate(num_accesses)
            description_map[workload_name] = generator.description
        else:
            description_map[workload_name] = ""

    pending: List[Tuple[str, str]] = []
    for workload_name in workloads:
        for policy_name in policies:
            if store is not None:
                key = entry_key(engine, trace_map[workload_name], policy_name,
                                description_map[workload_name])
                entry = store.load_entry(key)
                if entry is not None:
                    database.install_entry(entry)
                    continue
            pending.append((workload_name, policy_name))

    def persist(workload_name: str, policy_name: str, entry) -> None:
        """Write both store records so any later lookup path starts warm."""
        trace = trace_map[workload_name]
        store.save_entry(
            entry_key(engine, trace, policy_name,
                      description_map[workload_name]),
            entry)
        if entry.result is not None:
            store.save_result(simulation_key(engine, trace, policy_name),
                              entry.result)

    if jobs > 1 and pending:
        simulation_jobs = [
            # Traces already generated in the parent (supplied, or needed
            # for store keys) ship with the job — MemoryTrace pickles at
            # buffer speed — so workers never regenerate them.
            SimulationJob(workload=workload_name, policy=policy_name,
                          num_accesses=num_accesses, seed=seed,
                          description=description_map[workload_name],
                          trace=trace_map.get(workload_name))
            for workload_name, policy_name in pending
        ]
        simulator = ParallelSimulator(jobs=jobs, executor=executor,
                                      config=config, mode=mode,
                                      max_records=max_records)
        for (workload_name, policy_name), entry in zip(
                pending, simulator.run_entries(simulation_jobs)):
            if store is not None:
                persist(workload_name, policy_name, entry)
            database.install_entry(entry)
        return database

    # Serial build: policies pending for the same workload replay its trace
    # as one batch over a shared replay core (order preserved: pending is
    # workload-major with policies inner, and so is this flush).
    by_workload: Dict[str, List[str]] = {}
    for workload_name, policy_name in pending:
        by_workload.setdefault(workload_name, []).append(policy_name)
    for workload_name, policy_names in by_workload.items():
        trace = trace_map[workload_name]
        if len(policy_names) >= 2:
            rollouts = [RolloutSpec(policy=policy_name, config=config,
                                    mode=mode, detail=engine.detail,
                                    max_records=max_records)
                        for policy_name in policy_names]
            results = BatchSimulator(trace).run(rollouts)
        else:
            results = [engine.run(trace, get_policy(policy_name))
                       for policy_name in policy_names]
        for policy_name, result in zip(policy_names, results):
            entry = database.add_result(
                result, workload_description=description_map[workload_name])
            if store is not None:
                persist(workload_name, policy_name, entry)
    return database
