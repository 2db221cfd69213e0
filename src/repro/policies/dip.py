"""DIP: Dynamic Insertion Policy (Qureshi et al., ISCA 2007).

DIP set-duels traditional LRU insertion (new line becomes MRU) against the
Bimodal Insertion Policy (BIP: new lines are usually inserted at the LRU
position, promoting to MRU only on a later hit).  BIP protects the cache from
thrashing working sets while LRU insertion wins on recency-friendly phases.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    register_policy,
)
from repro.policies.dueling import SetDuelingMonitor


@register_policy
class DIPPolicy(ReplacementPolicy):
    """Set-dueling between LRU insertion and bimodal (BIP) insertion."""

    name = "dip"

    def __init__(self, bip_probability: float = 1.0 / 32.0,
                 psel_bits: int = 10, num_leader_sets: int = 32,
                 seed: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.bip_probability = bip_probability
        self.psel_bits = psel_bits
        self.num_leader_sets = num_leader_sets
        self.seed = seed
        self._rng = random.Random(seed)
        # Recency stamp per (set, way); larger = more recently used.
        self._stamps: List[List[int]] = []
        self._dueling = SetDuelingMonitor(num_sets=1)

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._rng = random.Random(self.seed)
        self._stamps = [[0] * num_ways for _ in range(num_sets)]
        self._dueling = SetDuelingMonitor(
            num_sets=num_sets,
            num_leader_sets=min(self.num_leader_sets, max(1, num_sets // 2)),
            psel_bits=self.psel_bits,
        )

    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._stamps[set_index][line.way] = access.access_index + 1

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._dueling.record_miss(set_index)
        use_lru_insertion = self._dueling.use_primary(set_index)
        if use_lru_insertion or self._rng.random() < self.bip_probability:
            # MRU insertion.
            self._stamps[set_index][line.way] = access.access_index + 1
        else:
            # LRU insertion: stamp it older than everything resident.
            resident = [self._stamps[set_index][w] for w in range(self.num_ways)]
            self._stamps[set_index][line.way] = min(resident) - 1

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        # The resident lines are ways 0..n-1; the oldest stamp scores top.
        stamps = self._stamps[set_index][:len(lines)]
        newest = max(stamps, default=0)
        return [newest - stamp for stamp in stamps]

    def describe(self) -> str:
        return ("DIP: dynamic insertion policy set-dueling LRU insertion "
                "against bimodal insertion to survive thrashing phases.")
