"""Trace-driven simulation engine producing eviction-annotated records.

The engine replays a :class:`~repro.workloads.trace.MemoryTrace` — reading
its raw typed columns, not per-access objects — through the replay core
(:mod:`repro.sim.replay`) and, at full detail, produces one row per LLC
access in a columnar :class:`~repro.tracedb.schema.AccessLog`, annotated
with forward reuse distances, recency, eviction victims, resident lines,
policy eviction scores and source/assembly context — exactly the columns the
trace database stores (paper section 4.3).  Row views
(:class:`~repro.tracedb.schema.AccessRecord`) are materialised lazily via
``SimulationResult.records``.

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

* ``"full"`` (default) — one access-log row per LLC access (up to
  ``max_records``), with resident-line and eviction-score snapshots,
  source context and the wrong-eviction count.  This is what the trace
  database consumes.
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
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

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
from repro.tracedb.schema import AccessLog, AccessRecord, NEVER_REUSED
from repro.tracedb.stats import WorkloadStatistics, log_statistics
from repro.workloads.trace import MemoryTrace


@dataclass
class SimulationResult:
    """Everything produced by one (workload, policy) simulation.

    Per-access data lives in the columnar ``log``; the ``records`` row view
    is materialised (and cached) only when someone asks for it.
    ``statistics`` summarises the log's rows (``None`` at stats detail,
    which keeps no log).
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
    binary: Optional[object] = field(default=None, repr=False)
    statistics: Optional[WorkloadStatistics] = field(default=None,
                                                     repr=False)

    @property
    def num_records(self) -> int:
        """Row count of the access log (without materialising records)."""
        return len(self.log) if self.log is not None else 0

    @cached_property
    def records(self) -> List[AccessRecord]:
        """Lazily materialised row views over the columnar access log."""
        return self.log.to_records() if self.log is not None else []

    def __getstate__(self) -> dict:
        # Drop lazily materialised caches: the row views rebuild from the
        # (compact) log, and pickling them would explode the payload the
        # persistent store and parallel workers ship around.
        state = dict(self.__dict__)
        state.pop("records", None)
        state.pop("set_hit_rates", None)
        return state

    @property
    def llc_accesses(self) -> int:
        return self.llc_stats.accesses

    @property
    def llc_hit_rate(self) -> float:
        return self.llc_stats.hit_rate

    @property
    def llc_miss_rate(self) -> float:
        return self.llc_stats.miss_rate

    @property
    def ipc(self) -> float:
        return self.timing.ipc

    @cached_property
    def set_hit_rates(self) -> Dict[int, float]:
        """Per-set hit rates, derived lazily from the LLC counters.

        Computed (and cached) on first read, so stats-only replay does no
        per-set post-processing unless a caller actually asks for it.
        """
        return self.llc_stats.set_hit_rates()

    def summary(self) -> str:
        return (f"{self.workload} under {self.policy_name}: "
                f"{self.llc_stats.accesses} LLC accesses, "
                f"{self.llc_stats.miss_rate * 100:.2f}% miss rate, "
                f"IPC {self.timing.ipc:.4f}")


class SimulationEngine:
    """Replays memory traces and produces annotated LLC access records."""

    def __init__(self, config: HierarchyConfig = SMALL_CONFIG,
                 mode: str = "llc_only", history_window: int = 8,
                 annotate_context: bool = True,
                 max_records: Optional[int] = None,
                 detail: str = DETAIL_FULL):
        if mode not in ("llc_only", "hierarchy"):
            raise ValueError("mode must be 'llc_only' or 'hierarchy'")
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")
        self.config = config
        self.mode = mode
        self.history_window = history_window
        self.annotate_context = annotate_context
        self.max_records = max_records
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
            binary=core.trace.binary,
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
        snapshots for the first ``max_records`` rows, then build the log's
        other columns and the count of wrong evictions (victims reused
        before the accessed block) from columns.
        """
        size = len(stream)
        rows = size if self.max_records is None else max(
            0, min(self.max_records, size))
        log = cache.log
        if not rows:
            cache.log = None
        hits = bytearray(size)
        victims = array("q", [-1]) * size
        evicted_next_use: Dict[int, int] = {}
        for position, hit in enumerate(steps):
            hits[position] = hit
            victim = cache.evicted
            if victim >= 0:
                victims[position] = victim
                evicted_next_use[position] = cache.evicted_next_use
            if position + 1 == rows:
                cache.log = None

        # The columnar post-pass.
        llc = self.config.llc
        now = np.arange(size, dtype=np.int64)
        next_use = np.array(reuse.next_use, dtype=np.int64)
        prev_use = np.array(reuse.prev_use, dtype=np.int64)
        accessed_reuse = np.where(next_use >= NEVER, NEVER_REUSED,
                                  next_use - now)
        log.history_window = self.history_window
        log.access_indices = _typed("Q", now[:rows])
        log.pcs = array("Q", stream.pcs[:rows])
        log.block_addresses = array("Q", stream.blocks(llc.block_bytes)[:rows])
        log.set_ids = _typed("Q", stream.set_array(llc)[:rows])
        log.hit_flags = array("B", hits[:rows])
        log.miss_type_codes = _typed("B", np.where(
            np.frombuffer(hits, dtype=np.bool_)[:rows], 0,
            np.frombuffer(stream.miss_classes(llc), dtype=np.uint8)[:rows]))
        log.evicted_blocks = victims[:rows]
        log.accessed_reuse = _typed("q", accessed_reuse[:rows])
        log.recencies = _typed("q", np.where(
            prev_use < 0, NEVER_REUSED, now - prev_use)[:rows])

        # Only evicting positions can have an evicted reuse distance or a
        # wrong eviction.
        log.evicted_reuse = array("q", [NEVER_REUSED]) * rows
        accessed = accessed_reuse.tolist()
        wrong_evictions = 0
        for position, evicted_next in evicted_next_use.items():
            if evicted_next < NEVER:
                evicted_rd = evicted_next - position
                if position < rows:
                    log.evicted_reuse[position] = evicted_rd
                if (accessed[position] == NEVER_REUSED
                        or evicted_rd < accessed[position]):
                    wrong_evictions += 1

        # Source/assembly context is a pure function of the PC, so it is
        # resolved once per unique PC instead of once per access.
        binary = trace.binary
        annotate = self.annotate_context and binary is not None
        log.set_pc_context({
            pc: (binary.function_name(pc), binary.source_snippet(pc),
                 binary.assembly_context(pc)) if annotate else ("", "", "")
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
