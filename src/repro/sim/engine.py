"""Trace-driven simulation engine producing eviction-annotated records.

The engine replays a :class:`~repro.workloads.trace.MemoryTrace` — reading
its raw typed columns, not per-access objects — through the replay core
(:mod:`repro.sim.replay`) and, at full detail, produces one row per LLC
access in a columnar :class:`~repro.tracedb.schema.AccessLog`, annotated
with forward reuse distances, recency, eviction victims, resident lines,
policy eviction scores and source/assembly context — exactly the columns the
trace database stores (paper section 4.3).

A full-detail rollout writes each fact once.  The policy loop records only
what needs policy state: the hit column, a victim column with each
victim's next use and, through the cache, each logged access's resident
``(block, pc)`` lines and eviction scores, straight into the log's flat
arrays.  One columnar post-pass over the replay core's precomputes then
builds every other column: positions, PCs, blocks, sets, hit flags and
miss classes, victims, the accessed reuse distance and recency, per-PC
source context, and — from a loop over the evicting positions only — the
evicted block's reuse distance and the wrong-eviction count.  Last, the
whole-trace :class:`~repro.tracedb.stats.WorkloadStatistics` of the log
are read from its columns into ``SimulationResult.statistics``, so a
database entry derived from the result needs no table for them.

Two modes are supported:

* ``"llc_only"`` (default) — every trace access is an LLC access, mirroring
  the PARROT infrastructure the paper builds on, which "replays LLC accesses"
  directly.  This is what the trace database uses.
* ``"hierarchy"`` — accesses are filtered through L1D and L2 (both LRU)
  first; only their misses reach the LLC.  The filtered stream is identical
  for every LLC policy, so oracle next-use information can still be
  precomputed.  This mode feeds the IPC/speedup use cases.

Two detail levels are supported:

* ``"full"`` (default) — one access-log row per LLC access, with
  resident-line and eviction-score snapshots, source context and the
  wrong-eviction count.  This is what the trace database consumes.
* ``"stats"`` — aggregate statistics and timing only: no records, context
  or snapshots, and — unless the policy declares ``requires_future`` — no
  reuse-distance precomputation.  A policy given by name runs its native
  kernel when it has one.  Hit/miss/eviction/bypass counts, per-set rates
  and IPC are identical to a full run, because both details share the
  policy step and the stats/timing post-pass.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.policies.base import NEVER, get_policy
from repro.sim.cache import (
    Cache,
    CacheStats,
    DETAIL_FULL,
    DETAIL_LEVELS,
)
from repro.sim.config import HierarchyConfig, SMALL_CONFIG
from repro.sim.cpu import TimingResult
from repro.sim.replay import (
    LLCStream,
    ReplayCore,
    TraceReuse,
    native_kernel,
    policy_steps,
)
from repro.tracedb.schema import AccessLog, NEVER_REUSED
from repro.tracedb.stats import WorkloadStatistics, log_statistics
from repro.workloads.trace import MemoryTrace


@dataclass
class SimulationResult:
    """Everything produced by one (workload, policy) simulation.

    Per-access data lives in the columnar ``log``; ``statistics``
    summarises its rows (both ``None`` at stats detail, which keeps no
    log).
    """

    workload: str
    policy_name: str
    policy_description: str
    config: HierarchyConfig
    mode: str
    detail: str = DETAIL_FULL
    log: Optional[AccessLog] = field(default=None, repr=False)
    llc_stats: CacheStats = field(default_factory=CacheStats)
    level_stats: Dict[str, CacheStats] = field(default_factory=dict)
    timing: TimingResult = field(default_factory=TimingResult)
    wrong_evictions: int = 0
    statistics: Optional[WorkloadStatistics] = field(default=None,
                                                     repr=False)

    @property
    def num_records(self) -> int:
        """Row count of the access log (0 at stats detail)."""
        return len(self.log) if self.log is not None else 0

    @property
    def ipc(self) -> float:
        return self.timing.ipc

    def summary(self) -> str:
        return (f"{self.workload} under {self.policy_name}: "
                f"{self.llc_stats.accesses} LLC accesses, "
                f"{self.llc_stats.miss_rate * 100:.2f}% miss rate, "
                f"IPC {self.timing.ipc:.4f}")


class SimulationEngine:
    """Replays memory traces and produces annotated LLC access records."""

    def __init__(self, config: HierarchyConfig = SMALL_CONFIG,
                 mode: str = "llc_only", detail: str = DETAIL_FULL):
        if mode not in ("llc_only", "hierarchy"):
            raise ValueError("mode must be 'llc_only' or 'hierarchy'")
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")
        self.config = config
        self.mode = mode
        self.detail = detail

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, trace: MemoryTrace, policy) -> SimulationResult:
        """Simulate ``trace`` with ``policy`` at the LLC.

        ``policy`` may be a :class:`ReplacementPolicy` instance or a
        registered policy name; see :meth:`replay`.
        """
        return self.replay(ReplayCore(trace), policy)

    def replay(self, core: ReplayCore, policy) -> SimulationResult:
        """One rollout of ``policy`` over a (possibly shared) replay core.

        A policy given by name runs its native kernel where
        :func:`~repro.sim.replay.native_kernel` has one; an instance always
        runs the generic :meth:`Cache.access` loop.  Both end in the same
        post-pass, so the result is identical either way.  Every result is
        built here (batch rollouts and parallel workers call this too);
        at full detail it carries its log's ``statistics``.
        """
        kernel = None
        if isinstance(policy, str):
            kernel = native_kernel(policy, self.detail)
            policy = get_policy(policy)
        llc = self.config.llc
        full = self.detail == DETAIL_FULL
        stream = core.stream(self.config, self.mode)
        # Full detail annotates every access with reuse distances, so every
        # policy then sees real next-use values; at stats detail only the
        # oracle policies do.
        reuse = None
        if full or getattr(policy, "requires_future", False):
            reuse = stream.reuse(llc.block_bytes, full)
        next_use = reuse.next_use if reuse is not None else None
        log = None
        wrong_evictions = bypasses = 0
        if kernel is not None:
            hits, evictions = kernel(stream.blocks(llc.block_bytes),
                                     stream.sets(llc), llc.num_sets,
                                     llc.num_ways, next_use)
        else:
            cache = Cache(llc, policy, detail=self.detail)
            steps = policy_steps(cache, stream, next_use)
            if full:
                hits, log, wrong_evictions = self._annotate(
                    core.trace, stream, cache, steps, reuse)
            else:
                hits = bytearray(steps)
            evictions, bypasses = cache.evictions, cache.bypasses
        llc_stats, timing = core.post_pass(stream, self.config, hits,
                                           evictions, bypasses)
        return SimulationResult(
            workload=core.trace.workload,
            policy_name=getattr(policy, "name", type(policy).__name__),
            policy_description=policy.describe(),
            config=self.config,
            mode=self.mode,
            detail=self.detail,
            log=log,
            llc_stats=llc_stats,
            level_stats={"llc": llc_stats},
            timing=timing,
            wrong_evictions=wrong_evictions,
            statistics=log_statistics(log) if log is not None else None,
        )

    # ------------------------------------------------------------------
    # full detail: the access log
    # ------------------------------------------------------------------
    def _annotate(self, trace: MemoryTrace, stream: LLCStream, cache: Cache,
                  steps: Iterator[bool], reuse: TraceReuse
                  ) -> Tuple[bytearray, AccessLog, int]:
        """Consume the policy steps into the hit and victim columns (and
        each victim's next use, from its line) while the cache captures its
        snapshots, then build the log's other columns and the count of
        wrong evictions (victims reused before the accessed block) from
        columns.
        """
        size = len(stream)
        log = cache.log
        hits = bytearray(size)
        victims = array("q", [-1]) * size
        evicted_next_use: Dict[int, int] = {}
        for position, hit in enumerate(steps):
            hits[position] = hit
            victim = cache.evicted
            if victim >= 0:
                victims[position] = victim
                evicted_next_use[position] = cache.evicted_next_use

        # The columnar post-pass.
        llc = self.config.llc
        now = np.arange(size, dtype=np.int64)
        next_use = np.array(reuse.next_use, dtype=np.int64)
        prev_use = np.array(reuse.prev_use, dtype=np.int64)
        accessed_reuse = np.where(next_use >= NEVER, NEVER_REUSED,
                                  next_use - now)
        log.access_indices = _typed("Q", now)
        log.pcs = array("Q", stream.pcs)
        log.block_addresses = array("Q", stream.blocks(llc.block_bytes))
        log.set_ids = _typed("Q", stream.set_array(llc))
        log.hit_flags = array("B", hits)
        log.miss_type_codes = _typed("B", np.where(
            np.frombuffer(hits, dtype=np.bool_), 0,
            np.frombuffer(stream.miss_classes(llc), dtype=np.uint8)))
        log.evicted_blocks = victims
        log.accessed_reuse = _typed("q", accessed_reuse)
        log.recencies = _typed("q", np.where(
            prev_use < 0, NEVER_REUSED, now - prev_use))

        # Only evicting positions can have an evicted reuse distance or a
        # wrong eviction.
        log.evicted_reuse = array("q", [NEVER_REUSED]) * size
        accessed = accessed_reuse.tolist()
        wrong_evictions = 0
        for position, evicted_next in evicted_next_use.items():
            if evicted_next < NEVER:
                evicted_rd = evicted_next - position
                log.evicted_reuse[position] = evicted_rd
                if (accessed[position] == NEVER_REUSED
                        or evicted_rd < accessed[position]):
                    wrong_evictions += 1

        # Source/assembly context is a pure function of the PC, so it is
        # resolved once per unique PC instead of once per access.
        binary = trace.binary
        log.set_pc_context({
            pc: (binary.function_name(pc), binary.source_snippet(pc),
                 binary.assembly_context(pc)) if binary is not None
            else ("", "", "")
            for pc in dict.fromkeys(log.pcs)})
        return hits, log, wrong_evictions


def _typed(typecode: str, values: np.ndarray) -> array:
    """``values`` as an ``array`` of ``typecode`` (numpy's code for the
    same C type), in one buffer copy."""
    return array(typecode, values.astype(typecode).tobytes())


def simulate(trace: MemoryTrace, policy, config: HierarchyConfig = SMALL_CONFIG,
             mode: str = "llc_only", **engine_kwargs) -> SimulationResult:
    """Convenience wrapper: build an engine and run one simulation."""
    engine = SimulationEngine(config=config, mode=mode, **engine_kwargs)
    return engine.run(trace, policy)
