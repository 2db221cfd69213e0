"""Trace-driven cache simulator substrate (ChampSim/gem5 stand-in).

The simulator replays a :class:`~repro.workloads.trace.MemoryTrace` through a
configurable cache hierarchy and produces:

* eviction-annotated per-access records for the LLC (the rows of the trace
  database, see :mod:`repro.tracedb.schema`),
* per-level hit/miss statistics,
* an analytic cycle count / IPC estimate used by the actionable-insight use
  cases (bypass, Mockingjay, software prefetching).

Every replay goes through one core (:mod:`repro.sim.replay`): shared
policy-independent precomputes, one policy loop per rollout (the
:meth:`Cache.access` step or a native kernel) and one stats/timing
post-pass.  :class:`SimulationEngine` and :class:`BatchSimulator` are its
two entry points; the session executor replays every simulation as a
batch rollout, serially or in :class:`ParallelSimulator`'s worker
processes.
"""

from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    HierarchyConfig,
    PAPER_CONFIG,
    SMALL_CONFIG,
    TINY_CONFIG,
)
from repro.sim.cache import (
    Cache,
    CacheLine,
    CacheStats,
    DETAIL_FULL,
    DETAIL_LEVELS,
    DETAIL_STATS,
)
from repro.sim.cpu import TimingResult
from repro.sim.replay import ReplayCore, TraceReuse
from repro.sim.engine import SimulationEngine, SimulationResult, simulate
from repro.sim.batch import BatchSimulator, NATIVE_POLICIES, RolloutSpec
from repro.sim.parallel import ParallelSimulator

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "DRAMConfig",
    "HierarchyConfig",
    "PAPER_CONFIG",
    "SMALL_CONFIG",
    "TINY_CONFIG",
    "Cache",
    "CacheLine",
    "CacheStats",
    "DETAIL_FULL",
    "DETAIL_LEVELS",
    "DETAIL_STATS",
    "TimingResult",
    "ReplayCore",
    "TraceReuse",
    "SimulationEngine",
    "SimulationResult",
    "simulate",
    "BatchSimulator",
    "NATIVE_POLICIES",
    "RolloutSpec",
    "ParallelSimulator",
]
