"""Bypass wrapper: skip LLC insertion for selected PCs or dead blocks.

The signature-optimisation use case in section 6.3 of the paper takes the
bypass candidates CacheMind identifies (PCs with near-zero hit rate and very
large reuse distance) and adds "a simple conditional bypass in the LRU
replacement logic that skips cache insertion for the identified PCs".
:class:`BypassPolicy` wraps any inner policy and applies exactly that check;
it can also bypass based on a learned dead-block signature table.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    register_policy,
)
from repro.policies.basic import LRUPolicy


@register_policy
class BypassPolicy(ReplacementPolicy):
    """Wrap an inner policy with PC-based (and optional learned) bypassing."""

    name = "bypass"

    def __init__(self, inner: Optional[ReplacementPolicy] = None,
                 bypass_pcs: Iterable[int] = (),
                 learn_dead_blocks: bool = False,
                 dead_threshold: int = 4, **kwargs):
        super().__init__(**kwargs)
        self.inner = inner if inner is not None else LRUPolicy()
        self.filter = frozenset(bypass_pcs)
        self.learn_dead_blocks = learn_dead_blocks
        self.dead_threshold = dead_threshold
        # PC signature -> consecutive dead fills observed.
        self._dead_counts: Dict[int, int] = {}
        self._line_pc: List[List[int]] = []
        self._line_reused: List[List[bool]] = []

    @property
    def requires_future(self) -> bool:  # type: ignore[override]
        return self.inner.requires_future

    @property
    def tie_break(self):  # type: ignore[override]
        return self.inner.tie_break

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self.inner.initialize(num_sets, num_ways)
        self._dead_counts = {}
        self._line_pc = [[0] * num_ways for _ in range(num_sets)]
        self._line_reused = [[False] * num_ways for _ in range(num_sets)]

    # ------------------------------------------------------------------
    def _signature(self, pc: int) -> int:
        return pc & 0xFFFF

    def _learned_dead(self, pc: int) -> bool:
        if not self.learn_dead_blocks:
            return False
        return self._dead_counts.get(self._signature(pc), 0) >= self.dead_threshold

    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._line_reused[set_index][line.way] = True
        self._dead_counts[self._signature(access.pc)] = 0
        self.inner.on_hit(set_index, line, access)

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._line_pc[set_index][line.way] = access.pc
        self._line_reused[set_index][line.way] = False
        self.inner.on_fill(set_index, line, access)

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        if self.learn_dead_blocks and not self._line_reused[set_index][victim.way]:
            signature = self._signature(self._line_pc[set_index][victim.way])
            self._dead_counts[signature] = self._dead_counts.get(signature, 0) + 1
        self.inner.on_evict(set_index, lines, victim, access)

    def should_bypass(self, set_index: int, lines: Sequence[CacheLine],
                      access: PolicyAccess) -> bool:
        if access.pc in self.filter or self._learned_dead(access.pc):
            return True
        return self.inner.should_bypass(set_index, lines, access)

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        return self.inner.eviction_scores(set_index, lines, access)

    def describe(self) -> str:
        return (f"Bypass wrapper around {self.inner.name}: fills from "
                f"{len(self.filter)} listed PCs"
                + (" and learned dead-block PCs" if self.learn_dead_blocks else "")
                + " skip cache insertion.")
