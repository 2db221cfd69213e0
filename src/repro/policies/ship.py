"""SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011).

SHiP augments RRIP with a table of saturating counters indexed by a program
signature (here: a hash of the inserting PC).  When a line inserted by a
signature is evicted without being re-referenced, the signature's counter is
decremented; when a line hits, it is incremented.  Signatures whose counter
is zero are predicted dead and inserted with a distant re-reference interval
so they age out quickly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    register_policy,
)
from repro.policies.rrip import _RRIPBase


@register_policy
class SHiPPolicy(_RRIPBase):
    """RRIP with PC-signature based re-reference prediction (SHiP-PC)."""

    name = "ship"

    def __init__(self, rrpv_bits: int = 2, signature_bits: int = 12,
                 counter_bits: int = 3, **kwargs):
        super().__init__(rrpv_bits=rrpv_bits, **kwargs)
        self.signature_bits = signature_bits
        self.signature_mask = (1 << signature_bits) - 1
        self.counter_max = (1 << counter_bits) - 1
        # Signature History Counter Table (SHCT).
        self._shct: Dict[int, int] = {}
        # Per (set, way): inserting signature and whether the line was reused.
        self._line_signature: List[List[int]] = []
        self._line_reused: List[List[bool]] = []

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._shct = {}
        self._line_signature = [[0] * num_ways for _ in range(num_sets)]
        self._line_reused = [[False] * num_ways for _ in range(num_sets)]

    # ------------------------------------------------------------------
    def signature(self, pc: int) -> int:
        """Fold the PC into a small signature (simple xor fold)."""
        folded = pc ^ (pc >> self.signature_bits) ^ (pc >> (2 * self.signature_bits))
        return folded & self.signature_mask

    def _counter(self, signature: int) -> int:
        return self._shct.get(signature, self.counter_max // 2)

    # ------------------------------------------------------------------
    # RRPVs are written here directly rather than through _RRIPBase's
    # hooks: one call fewer per hit and two per fill.
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._rrpv[set_index][line.way] = 0
        self._line_reused[set_index][line.way] = True
        signature = self._line_signature[set_index][line.way]
        self._shct[signature] = min(self.counter_max, self._counter(signature) + 1)

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        if not self._line_reused[set_index][victim.way]:
            signature = self._line_signature[set_index][victim.way]
            self._shct[signature] = max(0, self._counter(signature) - 1)
        super().on_evict(set_index, lines, victim, access)

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        signature = self.signature(access.pc)
        self._line_signature[set_index][line.way] = signature
        self._line_reused[set_index][line.way] = False
        if self._counter(signature) == 0:
            self._rrpv[set_index][line.way] = self.max_rrpv
        else:
            self._rrpv[set_index][line.way] = self.max_rrpv - 1

    def describe(self) -> str:
        return ("SHiP: signature-based hit prediction; PCs whose lines are "
                "evicted without reuse are inserted with distant re-reference "
                "so scans and dead blocks age out quickly.")
