"""Set-associative cache model with pluggable replacement policies.

:meth:`Cache.access` is the one policy step every generic replay takes, at
both detail levels.  Resident :class:`~repro.policies.base.CacheLine`
objects are also the policy's views of them (``way`` pinned at fill,
treated as read-only by policies), so an access copies no line.  Occupied
ways are always a prefix of the set, since a fill takes the first free way
and a replacement happens in place, so the views are one list slice.

The cache, not the policy, picks each victim: a line holding the top
score of the policy's ``eviction_scores`` (the policy's ``tie_break``
chooses among several).  At ``detail="full"`` the cache owns an
:class:`~repro.tracedb.schema.AccessLog` and, while ``log`` is set, each
access first writes the only snapshots that need policy state into the
log's flat arrays: the set's resident ``(block, pc)`` lines and the
policy's per-line eviction scores, as they stood before the access.  An
eviction reuses those logged scores; without a log it scores the set once.
A flat ``[block, pc, ...]`` list per set, kept at fill, makes the line
capture one ``fromlist``.  The engine builds every other log column
afterwards, from columns.

Scoring every line of the set on every logged access is most of a
full-detail step, so the step adds little around it: each cache rewrites
one :class:`~repro.policies.base.PolicyAccess` rather than building one
per access, and it copies a score list only to cut scores beyond the
lines.  mlp computes a line's seven table indices at fill (three fixed
features, and the recency feature for each of its four age buckets), since
a line keeps its fill's pc and block, so scoring a line is one age bucket
and four list lookups; parrot scores a set in one loop.  On the twelve
full-detail replays of astar/lbm/mcf x belady/lru/mlp/parrot at 1,500
accesses on SMALL (one pinned CPU of a shared 2-vCPU host, the best of
six alternations of best-of-9 runs), that cut mlp's three from 94 to
50 ms, parrot's from 49 to 38 ms and all twelve from 214 to 150 ms.

A tag dictionary per set (block address -> way) makes residency lookups
O(1) instead of a linear way scan.  The cache counts only what a hit column
cannot tell: evictions and bypasses.  Hit/miss and per-set counters, the
miss classes and timing come from the replay core's post-pass
(:mod:`repro.sim.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.policies.base import (
    CacheLine,
    NEVER,
    PolicyAccess,
    ReplacementPolicy,
)
from repro.policies.basic import LRUPolicy
from repro.sim.config import CacheConfig
from repro.tracedb.schema import AccessLog

#: Detail levels accepted by :class:`Cache` and the simulation engine.
DETAIL_FULL = "full"
DETAIL_STATS = "stats"
DETAIL_LEVELS = (DETAIL_FULL, DETAIL_STATS)


@dataclass
class CacheStats:
    """Aggregate and per-set counters for one cache.

    ``per_set_accesses``/``per_set_hits`` are lists indexed by set (one
    preallocated slot per set, see :meth:`for_sets`).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    compulsory_misses: int = 0
    capacity_misses: int = 0
    conflict_misses: int = 0
    per_set_accesses: List[int] = field(default_factory=list)
    per_set_hits: List[int] = field(default_factory=list)

    @classmethod
    def for_sets(cls, num_sets: int) -> "CacheStats":
        """Stats object with per-set counters preallocated for ``num_sets``."""
        return cls(per_set_accesses=[0] * num_sets, per_set_hits=[0] * num_sets)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def set_hit_rates(self) -> Dict[int, float]:
        """Per-set hit rate, only for sets that were accessed."""
        return {
            set_index: self.per_set_hits[set_index] / accesses
            for set_index, accesses in enumerate(self.per_set_accesses)
            if accesses
        }

    def as_tuple(self) -> Tuple:
        """Every counter (aggregate and per-set) as one comparable tuple.

        The canonical form for byte-identity assertions across replay paths
        and store round-trips.
        """
        return (self.accesses, self.hits, self.misses, self.evictions,
                self.bypasses, self.compulsory_misses, self.capacity_misses,
                self.conflict_misses, tuple(self.per_set_accesses),
                tuple(self.per_set_hits))


class Cache:
    """A single set-associative cache level driven by a replacement policy.

    A miss in a full set evicts a line holding the policy's top eviction
    score, and the policy's ``on_evict`` sees it go.  After each
    :meth:`access`, ``evicted`` holds the block it evicted (-1 for none)
    and, when it evicted one, ``evicted_next_use`` that block's next use:
    a resident line is not accessed between its last access and its
    eviction, so its ``next_use`` is still current.  At full detail,
    ``log`` receives each access's snapshots until the engine sets it to
    ``None``.
    """

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None,
                 detail: str = DETAIL_FULL):
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")
        self.config = config
        self.policy = policy if policy is not None else LRUPolicy()
        self.num_sets = config.num_sets
        self.num_ways = config.num_ways
        self.block_bytes = config.block_bytes
        self.policy.initialize(self.num_sets, self.num_ways)
        # sets[set_index][way] -> CacheLine or None
        self.sets: List[List[Optional[CacheLine]]] = [
            [None] * self.num_ways for _ in range(self.num_sets)
        ]
        # tags[set_index]: block_address -> way
        self._tags: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        # lines[set_index]: flat [block, pc, ...] of the occupied ways
        self._lines: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.evictions = 0
        self.bypasses = 0
        self.evicted = -1
        self.evicted_next_use = NEVER
        self.log: Optional[AccessLog] = (AccessLog() if detail == DETAIL_FULL
                                         else None)
        # The access every policy hook sees, rewritten on each access.
        self._access = PolicyAccess(pc=0, block_address=0, access_index=0)

    def access(self, pc: int, byte_address: int, access_index: int,
               next_use: int = NEVER) -> bool:
        """Service one access; return whether it hit."""
        block_address = byte_address // self.block_bytes
        set_index = block_address % self.num_sets
        cache_set = self.sets[set_index]
        tags = self._tags[set_index]
        policy = self.policy
        policy_access = self._access
        policy_access.pc = pc
        policy_access.block_address = block_address
        policy_access.access_index = access_index
        policy_access.next_use = next_use
        self.evicted = -1
        views = scores = None
        log = self.log
        if log is not None:
            views = cache_set[:len(tags)]
            # fromlist: twice as fast as extend on a list.
            log.line_pairs.fromlist(self._lines[set_index])
            log.line_offsets.append(len(log.line_pairs))
            if views:
                scores = policy.eviction_scores(set_index, views, policy_access)
                if len(scores) > len(views):
                    # At most one score per line, as zip would pair them.
                    scores = scores[:len(views)]
                log.score_values.fromlist(scores)
            log.score_offsets.append(len(log.score_values))

        way = tags.get(block_address)
        if way is not None:
            line = cache_set[way]
            line.last_access = access_index
            line.next_use = next_use
            policy.on_hit(set_index, line, policy_access)
            return True

        if views is None:
            views = cache_set[:len(tags)]
        if policy.should_bypass(set_index, views, policy_access):
            self.bypasses += 1
            return False
        if len(tags) < self.num_ways:
            way = len(tags)
        else:
            if scores is None:
                scores = policy.eviction_scores(
                    set_index, views, policy_access)[:len(views)]
            # Evict a top-scored line: the first, unless the policy breaks
            # a shared top its own way.
            tie_break = policy.tie_break
            if tie_break is not None and scores.count(scores[0]) == len(views):
                victim = tie_break(views)  # every line holds the top score
            else:
                top = max(scores)
                victim = views[scores.index(top)]
                if tie_break is not None and scores.count(top) > 1:
                    victim = tie_break([line for line, score
                                        in zip(views, scores) if score == top])
            policy.on_evict(set_index, views, victim, policy_access)
            self.evictions += 1
            self.evicted = victim.block_address
            self.evicted_next_use = victim.next_use
            del tags[victim.block_address]
            way = victim.way

        line = CacheLine(
            block_address=block_address, pc=pc, inserted_at=access_index,
            last_access=access_index, next_use=next_use, way=way)
        cache_set[way] = line
        tags[block_address] = way
        # Appends for a new way, overwrites for a replaced one.
        self._lines[set_index][2 * way:2 * way + 2] = block_address, pc
        policy.on_fill(set_index, line, policy_access)
        return False
