"""Mockingjay replacement policy (Shah, Jain & Lin, HPCA 2022).

Mockingjay approximates Belady's MIN by predicting the *reuse distance* of
each line with a PC-indexed reuse-distance predictor (RDP) and evicting the
line with the largest estimated time of reuse (ETR).  The implementation
follows the paper's structure:

* the RDP maps a PC signature to a predicted reuse distance, updated with a
  temporal-difference-style step from observed reuse distances (on hits) and
  from "never reused before eviction" outcomes (large penalty);
* each resident line carries ``etr = predicted_reuse_distance - elapsed``;
  the victim is the line with the largest ETR (most remote predicted reuse),
  the oldest such line on ties;
* a scan/no-reuse prediction (very large predicted distance) can trigger
  bypass.

The Mockingjay use case in section 6.3 of the CacheMind paper restricts RDP
*training* to a set of "stable" PCs (low ETR variance identified through
CacheMind); pass ``stable_pcs`` to reproduce that intervention.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    least_recently_used,
    register_policy,
)


@register_policy
class MockingjayPolicy(ReplacementPolicy):
    """ETR-ordered eviction driven by a PC-indexed reuse-distance predictor."""

    name = "mockingjay"
    tie_break = staticmethod(least_recently_used)

    #: predicted distance assigned to PCs never observed to reuse.
    INFINITE_DISTANCE = 1 << 20

    def __init__(self, learning_rate: float = 0.2,
                 stable_pcs: Optional[Iterable[int]] = None,
                 allow_bypass: bool = False,
                 bypass_distance: int = 1 << 16, **kwargs):
        super().__init__(**kwargs)
        self.learning_rate = learning_rate
        self.stable_pcs: Optional[Set[int]] = set(stable_pcs) if stable_pcs is not None else None
        self.allow_bypass = allow_bypass
        self.bypass_distance = bypass_distance
        # PC signature -> predicted reuse distance (in set accesses).
        self._rdp: Dict[int, float] = {}
        # Per (set, way) bookkeeping: inserting PC, last touch time, reused?
        self._line_pc: List[List[int]] = []
        self._line_last_touch: List[List[int]] = []
        self._line_reused: List[List[bool]] = []

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._rdp = {}
        self._line_pc = [[0] * num_ways for _ in range(num_sets)]
        self._line_last_touch = [[0] * num_ways for _ in range(num_sets)]
        self._line_reused = [[False] * num_ways for _ in range(num_sets)]

    # ------------------------------------------------------------------
    # reuse-distance predictor
    # ------------------------------------------------------------------
    def _signature(self, pc: int) -> int:
        return (pc ^ (pc >> 11)) & 0x7FF

    def predicted_distance(self, pc: int) -> float:
        """Current RDP prediction for a PC (public helper for analyses)."""
        return self._rdp.get(self._signature(pc), float(self.INFINITE_DISTANCE // 4))

    def _trainable(self, pc: int) -> bool:
        return self.stable_pcs is None or pc in self.stable_pcs

    def _train(self, pc: int, observed_distance: float) -> None:
        if not self._trainable(pc):
            return
        signature = self._signature(pc)
        current = self._rdp.get(signature, observed_distance)
        updated = current + self.learning_rate * (observed_distance - current)
        self._rdp[signature] = updated

    # ------------------------------------------------------------------
    # ETR computation
    # ------------------------------------------------------------------
    def estimated_time_remaining(self, line: CacheLine, now: int) -> float:
        elapsed = now - line.last_access
        return self.predicted_distance(line.pc) - elapsed

    # ------------------------------------------------------------------
    # policy interface
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        observed = access.access_index - self._line_last_touch[set_index][line.way]
        trainee = self._line_pc[set_index][line.way]
        self._train(trainee, float(observed))
        self._line_pc[set_index][line.way] = access.pc
        self._line_last_touch[set_index][line.way] = access.access_index
        self._line_reused[set_index][line.way] = True

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._line_pc[set_index][line.way] = access.pc
        self._line_last_touch[set_index][line.way] = access.access_index
        self._line_reused[set_index][line.way] = False

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        if not self._line_reused[set_index][victim.way]:
            # Evicted without reuse: push the inserting PC's prediction out.
            trainee = self._line_pc[set_index][victim.way]
            elapsed = access.access_index - self._line_last_touch[set_index][victim.way]
            self._train(trainee, float(max(elapsed * 4, 1024)))

    def should_bypass(self, set_index: int, lines: Sequence[CacheLine],
                      access: PolicyAccess) -> bool:
        if not self.allow_bypass:
            return False
        if len(lines) < self.num_ways:
            return False
        return self.predicted_distance(access.pc) >= self.bypass_distance

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        now = access.access_index
        return [self.estimated_time_remaining(line, now) for line in lines]

    def describe(self) -> str:
        suffix = ""
        if self.stable_pcs is not None:
            suffix = f" (RDP trained only on {len(self.stable_pcs)} stable PCs)"
        return ("Mockingjay: PC-indexed reuse-distance prediction with "
                "estimated-time-of-reuse eviction, approximating Belady's "
                "ordering" + suffix + ".")
