"""Baseline replacement policies: LRU, FIFO, Random and tree PLRU."""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    register_policy,
)


@register_policy
class LRUPolicy(ReplacementPolicy):
    """Least Recently Used: evict the line untouched for the longest time,
    by the base class's recency-age scores."""

    name = "lru"

    def describe(self) -> str:
        return ("LRU (Least Recently Used): evicts the line that has gone "
                "unused for the longest time; works well for temporal reuse "
                "but thrashes on scans.")


@register_policy
class FIFOPolicy(ReplacementPolicy):
    """First-In First-Out: evict the oldest inserted line regardless of hits."""

    name = "fifo"

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        now = access.access_index
        return [now - line.inserted_at for line in lines]

    def describe(self) -> str:
        return "FIFO: evicts the line that was inserted earliest."


@register_policy
class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (deterministic given the seed)."""

    name = "random"

    def __init__(self, seed: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.seed = seed
        self._rng = random.Random(seed)

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._rng = random.Random(self.seed)

    def tie_break(self, lines: Sequence[CacheLine]) -> CacheLine:
        # Every line ties, so this draws once per eviction over the set.
        return self._rng.choice(lines)

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        return [1.0] * len(lines)

    def describe(self) -> str:
        return "Random: evicts a uniformly random resident line."


@register_policy
class PLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU, the common hardware approximation of LRU."""

    name = "plru"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        if num_ways & (num_ways - 1):
            raise ValueError("PLRU requires a power-of-two associativity")
        # One bit per internal tree node, per set.
        self._bits = [[0] * max(1, num_ways - 1) for _ in range(num_sets)]

    def _touch(self, set_index: int, way: int) -> None:
        """Flip tree bits along the path to ``way`` so it becomes MRU."""
        bits = self._bits[set_index]
        node = 0
        width = self.num_ways
        low = 0
        while width > 1:
            half = width // 2
            if way < low + half:
                bits[node] = 1  # point away from the left half
                node = 2 * node + 1
            else:
                bits[node] = 0  # point away from the right half
                node = 2 * node + 2
                low += half
            width = half

    def _victim_way(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 0
        width = self.num_ways
        low = 0
        while width > 1:
            half = width // 2
            if bits[node] == 0:
                node = 2 * node + 1
            else:
                node = 2 * node + 2
                low += half
            width = half
        return low

    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._touch(set_index, line.way)

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._touch(set_index, line.way)

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        victim = self._victim_way(set_index)
        return [1.0 if line.way == victim else 0.0 for line in lines]

    def describe(self) -> str:
        return "Tree PLRU: binary-tree pseudo-LRU approximation used in hardware."
