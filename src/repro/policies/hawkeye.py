"""Hawkeye replacement (Jain & Lin, ISCA 2016).

Hawkeye reconstructs Belady's decisions for past accesses with OPTgen and
uses them as labels to train a PC-indexed predictor: PCs whose past lines
would have been kept by OPT are "cache friendly", the rest are "cache
averse".  Friendly lines are inserted with high priority and averse lines
with distant priority; eviction prefers averse lines, falling back to the
oldest friendly line.

This implementation keeps an OPTgen occupancy vector per sampled set over a
sliding window of set accesses, which is the textbook structure; the
predictor is a table of saturating counters indexed by a folded PC.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    least_recently_used,
    register_policy,
)


class OPTgen:
    """Occupancy-vector reconstruction of Belady's decisions for one set."""

    def __init__(self, num_ways: int, window: int = 128):
        self.num_ways = num_ways
        self.window = window
        # (block_address, position) of recent accesses to this set.
        self.history: Deque[Tuple[int, int]] = deque(maxlen=window)
        # occupancy[i] = number of liveness intervals covering history slot i.
        self.occupancy: Deque[int] = deque(maxlen=window)
        self.position = 0

    def access(self, block_address: int) -> Tuple[bool, bool]:
        """Record an access; return ``(known, opt_hit)``.

        ``known`` is False for the first access to a block within the window
        (no label can be produced); otherwise ``opt_hit`` says whether Belady
        would have kept the block since its previous access.
        """
        known = False
        opt_hit = False
        previous_index = None
        for index in range(len(self.history) - 1, -1, -1):
            if self.history[index][0] == block_address:
                previous_index = index
                break
        if previous_index is not None:
            known = True
            interval = list(self.occupancy)[previous_index:]
            if all(slot < self.num_ways for slot in interval):
                opt_hit = True
                for index in range(previous_index, len(self.occupancy)):
                    self.occupancy[index] += 1
        self.history.append((block_address, self.position))
        self.occupancy.append(0)
        self.position += 1
        return known, opt_hit


@register_policy
class HawkeyePolicy(ReplacementPolicy):
    """OPTgen-trained, PC-classified insertion and eviction."""

    name = "hawkeye"
    # RRPVs are 0 or max, so the top-scored lines are the averse ones (or,
    # with none resident, every line): evict the oldest of them.
    tie_break = staticmethod(least_recently_used)

    def __init__(self, counter_bits: int = 3, rrip_bits: int = 3,
                 sample_every: int = 4, optgen_window: int = 128, **kwargs):
        super().__init__(**kwargs)
        self.counter_max = (1 << counter_bits) - 1
        self.max_rrpv = (1 << rrip_bits) - 1
        self.sample_every = max(1, sample_every)
        self.optgen_window = optgen_window
        self._predictor: Dict[int, int] = {}
        self._optgen: Dict[int, OPTgen] = {}
        self._rrpv: List[List[int]] = []
        self._line_pc: List[List[int]] = []
        # PC signature of the last access to each block within sampled sets,
        # so OPT hits/misses train the PC that brought the line in.
        self._last_pc_for_block: Dict[int, int] = {}

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._predictor = {}
        self._optgen = {}
        self._rrpv = [[self.max_rrpv] * num_ways for _ in range(num_sets)]
        self._line_pc = [[0] * num_ways for _ in range(num_sets)]
        self._last_pc_for_block = {}

    # ------------------------------------------------------------------
    def _signature(self, pc: int) -> int:
        return (pc ^ (pc >> 13)) & 0x1FFF

    def _counter(self, pc: int) -> int:
        return self._predictor.get(self._signature(pc), self.counter_max // 2)

    def _train(self, pc: int, opt_hit: bool) -> None:
        signature = self._signature(pc)
        value = self._predictor.get(signature, self.counter_max // 2)
        if opt_hit:
            value = min(self.counter_max, value + 1)
        else:
            value = max(0, value - 1)
        self._predictor[signature] = value

    def is_friendly(self, pc: int) -> bool:
        """Whether the predictor currently classifies this PC as cache friendly."""
        return self._counter(pc) >= (self.counter_max + 1) // 2

    def _sampled(self, set_index: int) -> bool:
        return set_index % self.sample_every == 0

    def _observe(self, set_index: int, access: PolicyAccess) -> None:
        """Feed sampled sets into OPTgen and train the PC predictor."""
        if not self._sampled(set_index):
            return
        optgen = self._optgen.get(set_index)
        if optgen is None:
            optgen = OPTgen(self.num_ways, window=self.optgen_window)
            self._optgen[set_index] = optgen
        known, opt_hit = optgen.access(access.block_address)
        trainee = self._last_pc_for_block.get(access.block_address, access.pc)
        if known:
            self._train(trainee, opt_hit)
        self._last_pc_for_block[access.block_address] = access.pc

    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._observe(set_index, access)
        if self.is_friendly(access.pc):
            self._rrpv[set_index][line.way] = 0
        else:
            self._rrpv[set_index][line.way] = self.max_rrpv
        self._line_pc[set_index][line.way] = access.pc

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._observe(set_index, access)
        if self.is_friendly(access.pc):
            self._rrpv[set_index][line.way] = 0
        else:
            self._rrpv[set_index][line.way] = self.max_rrpv
        self._line_pc[set_index][line.way] = access.pc

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        # Evicting a friendly line means the predictor was too optimistic for
        # the PC that inserted it (Hawkeye's detraining on cache-averse turn).
        inserting_pc = self._line_pc[set_index][victim.way]
        if self._rrpv[set_index][victim.way] == 0:
            self._train(inserting_pc, opt_hit=False)

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        # The resident lines are ways 0..n-1.
        return self._rrpv[set_index][:len(lines)]

    def describe(self) -> str:
        return ("Hawkeye: reconstructs Belady's decisions with OPTgen on "
                "sampled sets and classifies PCs as cache friendly or averse "
                "to drive insertion and eviction.")
