"""Trace-driven simulation engine producing eviction-annotated records.

The engine replays a :class:`~repro.workloads.trace.MemoryTrace` — reading
its raw typed columns, not per-access objects — through the replay core
(:mod:`repro.sim.replay`) and, at full detail, appends one row per LLC
access into a columnar :class:`~repro.tracedb.schema.AccessLog`, annotated
with forward reuse distances, recency, eviction victims, resident lines,
policy eviction scores and source/assembly context — exactly the columns the
trace database stores (paper section 4.3).  Row views
(:class:`~repro.tracedb.schema.AccessRecord`) are materialised lazily via
``SimulationResult.records``.

Two modes are supported:

* ``"llc_only"`` (default) — every trace access is an LLC access, mirroring
  the PARROT infrastructure the paper builds on, which "replays LLC accesses"
  directly.  This is what the trace database uses.
* ``"hierarchy"`` — accesses are filtered through L1D and L2 (both LRU)
  first; only their misses reach the LLC.  The filtered stream is identical
  for every LLC policy, so oracle next-use information can still be
  precomputed.  This mode feeds the IPC/speedup use cases.

Two detail levels are supported:

* ``"full"`` (default) — one :class:`AccessRecord` per LLC access, with
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

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

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
    ReuseProvider,
    TraceReuse,
    native_kernel,
    policy_steps,
)
from repro.tracedb.schema import AccessLog, AccessRecord, NEVER_REUSED
from repro.workloads.trace import MemoryTrace


@dataclass
class SimulationResult:
    """Everything produced by one (workload, policy) simulation.

    Per-access data lives in the columnar ``log``; the ``records`` row view
    is materialised (and cached) only when someone asks for it.
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
                 detail: str = DETAIL_FULL,
                 reuse_cache: Optional[ReuseProvider] = None):
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
        #: Optional shared reuse provider (``SimulationCache.reuse_for``):
        #: llc_only runs fetch next-use/positions from it instead of
        #: recomputing per cell.  The returned arrays are identical to the
        #: local computation, so results are byte-for-byte unchanged.
        self.reuse_cache = reuse_cache

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, trace: MemoryTrace, policy) -> SimulationResult:
        """Simulate ``trace`` with ``policy`` at the LLC.

        ``policy`` may be a :class:`ReplacementPolicy` instance or a
        registered policy name; see :meth:`replay`.
        """
        return self.replay(ReplayCore(trace, self.reuse_cache), policy)

    def replay(self, core: ReplayCore, policy) -> SimulationResult:
        """One rollout of ``policy`` over a (possibly shared) replay core.

        A policy given by name runs its native kernel where
        :func:`~repro.sim.replay.native_kernel` has one; an instance always
        runs the generic :meth:`Cache.access` loop.  Both end in the same
        post-pass, so the result is identical either way.
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
        )

    # ------------------------------------------------------------------
    # full detail: the access log
    # ------------------------------------------------------------------
    def _annotate(self, trace: MemoryTrace, stream: LLCStream, cache: Cache,
                  steps: Iterator[bool], reuse: TraceReuse
                  ) -> Tuple[bytearray, AccessLog, int]:
        """Consume the policy steps: the hit column, the access log (up to
        ``max_records`` rows) and the count of wrong evictions, victims
        reused before the accessed block.  Each row is built while its
        snapshots are current, so no per-access snapshot is retained."""
        llc = self.config.llc
        blocks = stream.blocks(llc.block_bytes)
        sets = stream.sets(llc)
        classes = stream.miss_classes(llc)
        next_use, prev_use = reuse.next_use, reuse.prev_use
        positions_by_block = reuse.positions_by_block or {}
        binary = trace.binary
        annotate = self.annotate_context and binary is not None
        window = self.history_window
        hits = bytearray()
        log = AccessLog()
        history: List[Tuple[int, int]] = []  # (block, pc) of recent accesses
        wrong_evictions = 0
        # Source/assembly context is a pure function of the PC, so it is
        # resolved once per unique PC instead of once per access.
        context_by_pc: Dict[int, Tuple[str, str, str]] = {}
        empty_context = ("", "", "")

        for position, (pc, block, hit) in enumerate(
                zip(stream.pcs, blocks, steps)):
            hits.append(hit)
            evicted_block = cache.evicted
            accessed_rd = (NEVER_REUSED if next_use[position] >= NEVER
                           else next_use[position] - position)
            evicted_rd = NEVER_REUSED
            if evicted_block >= 0:
                evicted_next = _next_use_after(positions_by_block,
                                               evicted_block, position)
                if evicted_next < NEVER:
                    evicted_rd = evicted_next - position
                    if accessed_rd == NEVER_REUSED or evicted_rd < accessed_rd:
                        wrong_evictions += 1

            if self.max_records is None or position < self.max_records:
                if annotate:
                    context = context_by_pc.get(pc)
                    if context is None:
                        context = (binary.function_name(pc),
                                   binary.source_snippet(pc),
                                   binary.assembly_context(pc))
                        context_by_pc[pc] = context
                else:
                    context = empty_context
                log.append(
                    position, pc, block, sets[position], hit,
                    0 if hit else classes[position], evicted_block,
                    accessed_rd, evicted_rd,
                    (NEVER_REUSED if prev_use[position] < 0
                     else position - prev_use[position]),
                    context[0], context[1], context[2],
                    cache.resident, history[-window:], cache.scores,
                )

            history.append((block, pc))
            if len(history) > 4 * window:
                del history[: 2 * window]
        return hits, log, wrong_evictions


def _next_use_after(positions_by_block: Dict[int, List[int]], block: int,
                    position: int) -> int:
    """Next stream position after ``position`` (exclusive) at which
    ``block`` is accessed, or ``NEVER``."""
    positions = positions_by_block.get(block)
    if not positions:
        return NEVER
    index = bisect.bisect_right(positions, position)
    return positions[index] if index < len(positions) else NEVER


def simulate(trace: MemoryTrace, policy, config: HierarchyConfig = SMALL_CONFIG,
             mode: str = "llc_only", **engine_kwargs) -> SimulationResult:
    """Convenience wrapper: build an engine and run one simulation."""
    engine = SimulationEngine(config=config, mode=mode, **engine_kwargs)
    return engine.run(trace, policy)
