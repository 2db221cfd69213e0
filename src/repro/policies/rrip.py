"""Re-Reference Interval Prediction policies: SRRIP, BRRIP and DRRIP.

RRIP (Jaleel et al., ISCA 2010) keeps a small saturating counter (the
re-reference prediction value, RRPV) per line:

* a line with RRPV == max is predicted to be re-referenced in the distant
  future and is the eviction victim (when none is, every line ages until
  one is);
* SRRIP inserts new lines with a "long" interval (max - 1) so scans age out
  quickly;
* BRRIP inserts with the distant interval most of the time and the long
  interval rarely, which resists thrashing;
* DRRIP set-duels SRRIP against BRRIP using a PSEL counter and follower sets.
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


class _RRIPBase(ReplacementPolicy):
    """Shared RRPV bookkeeping for the RRIP family."""

    def __init__(self, rrpv_bits: int = 2, **kwargs):
        super().__init__(**kwargs)
        self.rrpv_bits = rrpv_bits
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._rrpv: List[List[int]] = []

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._rrpv = [[self.max_rrpv] * num_ways for _ in range(num_sets)]

    # hooks customised by subclasses -----------------------------------
    def insertion_rrpv(self, set_index: int, access: PolicyAccess) -> int:
        return self.max_rrpv - 1

    # policy interface ---------------------------------------------------
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._rrpv[set_index][line.way] = 0

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._rrpv[set_index][line.way] = self.insertion_rrpv(set_index, access)

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        # Age every way until the victim's RRPV is max: the set is full, so
        # this is RRIP's age-and-retry loop in one step.
        rrpv = self._rrpv[set_index]
        age = self.max_rrpv - rrpv[victim.way]
        if age:
            rrpv[:] = [value + age for value in rrpv]

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        # The resident lines are ways 0..n-1; the victim is the first way
        # with the largest RRPV.
        return self._rrpv[set_index][:len(lines)]


@register_policy
class SRRIPPolicy(_RRIPBase):
    """Static RRIP: insert with a long re-reference interval."""

    name = "srrip"

    def describe(self) -> str:
        return ("SRRIP: re-reference interval prediction with static long "
                "insertion; scans age out before useful lines.")


@register_policy
class BRRIPPolicy(_RRIPBase):
    """Bimodal RRIP: mostly distant insertion, occasionally long."""

    name = "brrip"

    def __init__(self, long_insert_probability: float = 1.0 / 32.0,
                 seed: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.long_insert_probability = long_insert_probability
        self._rng = random.Random(seed)

    def insertion_rrpv(self, set_index: int, access: PolicyAccess) -> int:
        if self._rng.random() < self.long_insert_probability:
            return self.max_rrpv - 1
        return self.max_rrpv

    def describe(self) -> str:
        return ("BRRIP: bimodal RRIP insertion (usually distant, rarely "
                "long) to resist thrashing working sets.")


@register_policy
class DRRIPPolicy(_RRIPBase):
    """Dynamic RRIP: set-duel SRRIP insertion against BRRIP insertion."""

    name = "drrip"

    def __init__(self, long_insert_probability: float = 1.0 / 32.0,
                 psel_bits: int = 10, num_leader_sets: int = 32,
                 seed: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.long_insert_probability = long_insert_probability
        self.psel_bits = psel_bits
        self.num_leader_sets = num_leader_sets
        self.seed = seed
        self._rng = random.Random(seed)
        self._dueling: SetDuelingMonitor = SetDuelingMonitor(
            num_sets=1, num_leader_sets=1, psel_bits=psel_bits)

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._rng = random.Random(self.seed)
        self._dueling = SetDuelingMonitor(
            num_sets=num_sets,
            num_leader_sets=min(self.num_leader_sets, max(1, num_sets // 2)),
            psel_bits=self.psel_bits,
        )

    def insertion_rrpv(self, set_index: int, access: PolicyAccess) -> int:
        use_srrip = self._dueling.use_primary(set_index)
        if use_srrip:
            return self.max_rrpv - 1
        if self._rng.random() < self.long_insert_probability:
            return self.max_rrpv - 1
        return self.max_rrpv

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        # A fill means the access missed: charge the owning leader policy.
        self._dueling.record_miss(set_index)
        super().on_fill(set_index, line, access)

    def describe(self) -> str:
        return ("DRRIP: set-dueling between SRRIP and BRRIP insertion using "
                "a PSEL counter and leader sets.")
