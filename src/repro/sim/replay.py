"""The replay core: precomputes, policy loops and the post-pass.

A replay of one policy over one trace has three stages:

1. **Precomputes** (:class:`ReplayCore`, :class:`LLCStream`): everything no
   replacement policy can change, computed once per geometry it depends on
   and shared read-only by every rollout of the trace:

   * the LLC stream: the whole trace in ``llc_only`` mode; in ``hierarchy``
     mode the accesses that miss an LRU L1D and then an LRU L2
     (non-inclusive, write-allocate), found by the same dict-recency loop
     as the LRU kernel;
   * block and set columns;
   * the miss classes (compulsory/capacity/conflict).  The seen-set and the
     fully-associative LRU shadow cache are updated on *every* LLC access
     whatever the policy does, so an access's class is a function of the
     stream alone;
   * reuse arrays (next use; for full detail also previous use);
   * the demand mask and the base timing of the trace.

2. **One policy loop** per rollout emits a hit column (a ``bytearray``)
   and an eviction count: a native kernel (:data:`NATIVE_POLICIES`, stats
   detail, policy requested by name) or the generic loop over
   :meth:`~repro.sim.cache.Cache.access` (:func:`policy_steps`), which
   also counts bypasses.  At full detail the generic loop also emits a
   victim column (each access's evicted block, or -1, with the evicted
   line's next use), and the cache writes each logged access's resident
   lines and eviction scores into the access log; the engine builds the
   log's other columns from the precomputes and these columns.

3. **The post-pass** (:meth:`ReplayCore.post_pass`) builds
   :class:`~repro.sim.cache.CacheStats` and
   :class:`~repro.sim.cpu.TimingResult` from the hit column, the
   precomputes and the eviction/bypass counts.

:class:`~repro.sim.engine.SimulationEngine` turns these stages into a
:class:`~repro.sim.engine.SimulationResult`, adding the access log at full
detail; :class:`~repro.sim.batch.BatchSimulator` shares one core across
many rollouts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.policies.base import NEVER
from repro.sim.cache import Cache, CacheStats, DETAIL_STATS
from repro.sim.config import CacheConfig, HierarchyConfig
from repro.sim.cpu import (
    CODE_DRAM,
    CODE_L1,
    CODE_L2,
    CODE_LLC,
    TimingResult,
    base_timing,
    timing_from_levels,
)
from repro.workloads.trace import FLAG_PREFETCH, FLAG_WRITE, MemoryTrace


@dataclass
class TraceReuse:
    """Reuse-distance precomputation for one access stream.

    ``next_use`` is always present (the stats path only needs it for
    ``requires_future`` policies); ``prev_use`` is added for full detail.
    An :class:`LLCStream` computes it once per block size, and every
    rollout of its :class:`ReplayCore` shares it read-only, so it must
    never be mutated after construction.
    """

    next_use: List[int]
    prev_use: Optional[List[int]] = None


def compute_next_use(addresses: Sequence[int], block_bytes: int) -> List[int]:
    """Per-position next-use indices over one address sequence, in one
    reverse pass.  ``NEVER`` marks "no next use".
    """
    next_use = [NEVER] * len(addresses)
    next_seen: Dict[int, int] = {}
    for position in range(len(addresses) - 1, -1, -1):
        block = addresses[position] // block_bytes
        next_use[position] = next_seen.get(block, NEVER)
        next_seen[block] = position
    return next_use


def compute_full_reuse(addresses: Sequence[int],
                       block_bytes: int) -> TraceReuse:
    """Full reuse precomputation: next use (one reverse pass) and previous
    use (one forward pass, ``-1`` for none).

    Positions are indices into the given access stream (the LLC stream of a
    replay); the full-detail log needs both.
    """
    prev_use = [-1] * len(addresses)
    last_seen: Dict[int, int] = {}
    for position, address in enumerate(addresses):
        block = address // block_bytes
        prev_use[position] = last_seen.get(block, -1)
        last_seen[block] = position
    return TraceReuse(next_use=compute_next_use(addresses, block_bytes),
                      prev_use=prev_use)


def miss_classes(blocks: Sequence[int], capacity: int) -> bytearray:
    """Per-position miss class, coded as in the access log (1 compulsory,
    2 capacity, 3 conflict): what the access is if it misses.

    A block never seen before is compulsory; one a fully-associative LRU
    cache of ``capacity`` blocks would still hold is conflict; the rest are
    capacity.
    """
    classes = bytearray(len(blocks))
    seen = set()
    shadow: "OrderedDict[int, None]" = OrderedDict()
    for position, block in enumerate(blocks):
        if block in shadow:
            classes[position] = 3
            shadow.move_to_end(block)
        else:
            classes[position] = 2 if block in seen else 1
            seen.add(block)
            shadow[block] = None
            if len(shadow) > capacity:
                shadow.popitem(last=False)
    return classes


def _cached(memo: dict, key, build):
    got = memo.get(key)
    if got is None:
        got = memo[key] = build()
    return got


class LLCStream:
    """The accesses one mode sends to the LLC, as columns, with their
    policy-independent derivations memoised per geometry.

    ``pcs``/``addresses`` iterate as Python ints (the loops' and the
    policies' inputs); ``address_array`` is the numpy form.
    ``positions`` indexes the stream's accesses within the trace (a full
    slice in ``llc_only`` mode); ``levels`` holds one service-level code
    per *trace* access: L1/L2 for the upper-level hits, LLC for the rest.
    """

    def __init__(self, pcs: Sequence[int], addresses: Sequence[int],
                 address_array: np.ndarray, positions, levels: np.ndarray):
        self.pcs = pcs
        self.addresses = addresses
        self.address_array = address_array
        self.positions = positions
        self.levels = levels
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self.addresses)

    def blocks(self, block_bytes: int) -> List[int]:
        return _cached(self._memo, ("blocks", block_bytes),
                       lambda: (self.address_array // block_bytes).tolist())

    def set_array(self, cache: CacheConfig) -> np.ndarray:
        key = ("set_array", cache.block_bytes, cache.num_sets)
        return _cached(self._memo, key, lambda: (
            self.address_array // cache.block_bytes
            % cache.num_sets).astype(np.intp))

    def sets(self, cache: CacheConfig) -> List[int]:
        key = ("sets", cache.block_bytes, cache.num_sets)
        return _cached(self._memo, key,
                       lambda: self.set_array(cache).tolist())

    def miss_classes(self, cache: CacheConfig) -> bytearray:
        key = ("classes", cache.block_bytes, cache.num_blocks)
        return _cached(self._memo, key, lambda: miss_classes(
            self.blocks(cache.block_bytes), cache.num_blocks))

    def reuse(self, block_bytes: int, full: bool) -> TraceReuse:
        """Reuse arrays over the stream; ``full`` adds prev-use (upgrading
        a next-use-only entry)."""
        key = ("reuse", block_bytes)
        got = self._memo.get(key)
        if got is None or (full and got.prev_use is None):
            got = (compute_full_reuse(self.addresses, block_bytes) if full
                   else TraceReuse(compute_next_use(self.addresses,
                                                    block_bytes)))
            self._memo[key] = got
        return got


class ReplayCore:
    """The precomputes shared by every rollout of one trace."""

    def __init__(self, trace: MemoryTrace):
        self.trace = trace
        self._memo: dict = {}
        pcs, addresses, flags, instr = trace.columns()
        self._pc_array = np.frombuffer(pcs, dtype=np.uint64)
        self._address_array = np.frombuffer(addresses, dtype=np.uint64)
        self._flag_array = np.frombuffer(flags, dtype=np.uint8)
        self._instr_array = np.frombuffer(instr, dtype=np.uint64)
        #: Accesses that can stall the pipeline: neither write nor prefetch.
        self.demand = (self._flag_array & (FLAG_WRITE | FLAG_PREFETCH)) == 0

    def stream(self, config: HierarchyConfig, mode: str) -> LLCStream:
        """The LLC stream of ``mode`` (hierarchy streams are keyed by the
        upper-level geometry; the LLC's own does not matter)."""
        if mode == "llc_only":
            return _cached(self._memo, "llc_only", self._whole_trace_stream)
        return _cached(self._memo, (config.l1d, config.l2),
                       lambda: self._filtered_stream(config))

    def _whole_trace_stream(self) -> LLCStream:
        pcs, addresses, _flags, _instr = self.trace.columns()
        return LLCStream(pcs, addresses, self._address_array, slice(None),
                         np.full(len(addresses), CODE_LLC, dtype=np.uint8))

    def _filtered_stream(self, config: HierarchyConfig) -> LLCStream:
        addresses = self._address_array
        levels = np.full(len(addresses), CODE_L1, dtype=np.uint8)
        l1_misses = np.flatnonzero(~_lru_hit_mask(addresses, config.l1d))
        levels[l1_misses] = CODE_L2
        positions = l1_misses[~_lru_hit_mask(addresses[l1_misses],
                                             config.l2)]
        levels[positions] = CODE_LLC
        stream_addresses = addresses[positions]
        return LLCStream(self._pc_array[positions].tolist(),
                         stream_addresses.tolist(),
                         stream_addresses, positions, levels)

    def post_pass(self, stream: LLCStream, config: HierarchyConfig,
                  hits: bytearray, evictions: int,
                  bypasses: int) -> Tuple[CacheStats, TimingResult]:
        """LLC counters and timing of one rollout from its hit column."""
        llc = config.llc
        hit_mask = np.frombuffer(hits, dtype=np.bool_)
        sets = stream.set_array(llc)
        classes = np.bincount(
            np.frombuffer(stream.miss_classes(llc), dtype=np.uint8)[~hit_mask],
            minlength=4)
        hit_count = hits.count(1)
        stats = CacheStats(
            accesses=len(hits), hits=hit_count, misses=len(hits) - hit_count,
            evictions=evictions, bypasses=bypasses,
            compulsory_misses=int(classes[1]),
            capacity_misses=int(classes[2]),
            conflict_misses=int(classes[3]),
            per_set_accesses=np.bincount(
                sets, minlength=llc.num_sets).tolist(),
            per_set_hits=np.bincount(
                sets[hit_mask], minlength=llc.num_sets).tolist())
        levels = stream.levels.copy()
        levels[stream.positions] = np.where(hit_mask, CODE_LLC, CODE_DRAM)
        instructions, base_cycles = _cached(
            self._memo, ("base", config.core.retire_width),
            lambda: base_timing(self._flag_array, self._instr_array,
                                config.core.retire_width))
        return stats, timing_from_levels(config, levels, self.demand,
                                         instructions, base_cycles)


# ----------------------------------------------------------------------
# policy loops
# ----------------------------------------------------------------------
def policy_steps(cache: Cache, stream: LLCStream,
                 next_use: Optional[Sequence[int]]) -> Iterator[bool]:
    """Drive ``cache`` over ``stream`` through :meth:`Cache.access`,
    yielding each access's hit flag.

    Until the next step, the cache's ``evicted`` is the block the access
    just yielded evicted (-1 for none).
    """
    access = cache.access
    for position, (pc, address, nxt) in enumerate(zip(
            stream.pcs, stream.addresses,
            repeat(NEVER) if next_use is None else next_use)):
        yield access(pc, address, position, nxt)


# Native kernels: one rollout over the stream's shared block/set columns
# with flat per-rollout state; each returns ``(hit column, evictions)``
# identical to the generic loop under the registry-default policy.

def _insertion_order_kernel(lru: bool, blocks, sets, num_sets, num_ways,
                            _next_use=None) -> Tuple[bytearray, int]:
    # One insertion-ordered dict per set: its first key is the victim.  An
    # LRU hit re-inserts its block, so the first key is the least recently
    # used line (generic LRU's min last_access); FIFO leaves the fill order
    # alone (generic FIFO's min inserted_at).
    tags: List[dict] = [{} for _ in range(num_sets)]
    hits = bytearray(len(blocks))
    evictions = 0
    for position, (block, set_index) in enumerate(zip(blocks, sets)):
        t = tags[set_index]
        if block in t:
            hits[position] = 1
            if lru:
                del t[block]
                t[block] = None
        else:
            if len(t) == num_ways:
                del t[next(iter(t))]
                evictions += 1
            t[block] = None
    return hits, evictions


def _belady_kernel(blocks, sets, num_sets, num_ways,
                   next_use) -> Tuple[bytearray, int]:
    # Flat per-way columns: resident block and its next use, indexed by
    # set_index * num_ways + way.  Fills-only caches fill ways 0..W-1 in
    # order, so the per-set occupancy counter IS the next free way; the
    # victim scan takes the first way-order maximum (strictly-greater
    # comparisons): the generic loop's first top-scored line, since
    # Belady's score grows with the next use.
    resident_block = [-1] * (num_sets * num_ways)
    resident_next = [0] * (num_sets * num_ways)
    occupancy = [0] * num_sets
    slot_of: Dict[int, int] = {}
    hits = bytearray(len(blocks))
    evictions = 0
    for position, (block, set_index) in enumerate(zip(blocks, sets)):
        slot = slot_of.get(block)
        nxt = next_use[position]
        if slot is not None:
            resident_next[slot] = nxt
            hits[position] = 1
            continue
        base = set_index * num_ways
        filled = occupancy[set_index]
        if filled < num_ways:
            slot = base + filled
            occupancy[set_index] = filled + 1
        else:
            slot = base
            farthest = resident_next[base]
            for way in range(1, num_ways):
                value = resident_next[base + way]
                if value > farthest:
                    farthest = value
                    slot = base + way
            del slot_of[resident_block[slot]]
            evictions += 1
        resident_block[slot] = block
        resident_next[slot] = nxt
        slot_of[block] = slot
    return hits, evictions


def _srrip_kernel(blocks, sets, num_sets, num_ways,
                  _next_use=None) -> Tuple[bytearray, int]:
    # Flat RRPV column (2-bit counters, the registry default): hit -> 0,
    # fill -> max-1, victim = first way at max in way order, ageing every
    # way and retrying when none is — the first top-scored way that
    # _RRIPBase's scores give and the ageing its on_evict does, over a
    # full set.
    max_rrpv = 3
    insertion = max_rrpv - 1
    resident_block = [-1] * (num_sets * num_ways)
    rrpv = [max_rrpv] * (num_sets * num_ways)
    occupancy = [0] * num_sets
    slot_of: Dict[int, int] = {}
    hits = bytearray(len(blocks))
    evictions = 0
    for position, (block, set_index) in enumerate(zip(blocks, sets)):
        slot = slot_of.get(block)
        if slot is not None:
            rrpv[slot] = 0
            hits[position] = 1
            continue
        base = set_index * num_ways
        filled = occupancy[set_index]
        if filled < num_ways:
            slot = base + filled
            occupancy[set_index] = filled + 1
        else:
            while True:
                slot = -1
                for way in range(num_ways):
                    if rrpv[base + way] >= max_rrpv:
                        slot = base + way
                        break
                if slot >= 0:
                    break
                for way in range(num_ways):
                    aged = rrpv[base + way] + 1
                    rrpv[base + way] = aged if aged < max_rrpv else max_rrpv
            del slot_of[resident_block[slot]]
            evictions += 1
        resident_block[slot] = block
        rrpv[slot] = insertion
        slot_of[block] = slot
    return hits, evictions


_NATIVE_KERNELS = {
    "lru": partial(_insertion_order_kernel, True),
    "fifo": partial(_insertion_order_kernel, False),
    "belady": _belady_kernel,
    "srrip": _srrip_kernel,
}

#: Policies with a native stats kernel.
NATIVE_POLICIES = tuple(_NATIVE_KERNELS)


def native_kernel(policy: str, detail: str) -> Optional[Callable]:
    """The native kernel for a policy requested by name, or ``None`` where
    only the generic loop applies: full detail (which needs per-access
    snapshots) and policies outside :data:`NATIVE_POLICIES`.  Only a name
    guarantees the registry-default parameters the kernels replicate."""
    return _NATIVE_KERNELS.get(policy) if detail == DETAIL_STATS else None


def _lru_hit_mask(addresses: np.ndarray, cache: CacheConfig) -> np.ndarray:
    """Which of ``addresses`` hit an LRU ``cache`` that sees only them."""
    blocks = addresses // cache.block_bytes
    hits, _evictions = _insertion_order_kernel(
        True, blocks.tolist(), (blocks % cache.num_sets).tolist(),
        cache.num_sets, cache.num_ways)
    return np.frombuffer(hits, dtype=np.bool_)
