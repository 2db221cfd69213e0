"""Set-dueling monitor shared by DIP and DRRIP.

Set dueling (Qureshi et al., ISCA 2007) dedicates a small number of "leader"
sets to each of two competing insertion policies and lets the remaining
"follower" sets adopt whichever leader group currently misses less, tracked
by a saturating policy-selection (PSEL) counter.
"""

from __future__ import annotations


class SetDuelingMonitor:
    """Tracks leader sets and the PSEL counter for two competing policies.

    ``use_primary(set_index)`` tells the caller which insertion behaviour to
    apply for a given set; ``record_miss(set_index)`` must be called on every
    miss so leader sets can steer the PSEL counter.
    """

    def __init__(self, num_sets: int, num_leader_sets: int = 32,
                 psel_bits: int = 10):
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        self.num_sets = num_sets
        self.num_leader_sets = max(1, min(num_leader_sets, num_sets // 2 or 1))
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2
        self._primary_leaders = set()
        self._secondary_leaders = set()
        self._assign_leaders()

    def _assign_leaders(self) -> None:
        """Spread the two leader groups evenly across the index space."""
        stride = max(1, self.num_sets // (2 * self.num_leader_sets))
        index = 0
        for _ in range(self.num_leader_sets):
            self._primary_leaders.add(index % self.num_sets)
            index += stride
            self._secondary_leaders.add(index % self.num_sets)
            index += stride
        # Never let a set lead both groups (possible only for tiny caches).
        self._secondary_leaders -= self._primary_leaders

    # ------------------------------------------------------------------
    def record_miss(self, set_index: int) -> None:
        """A miss in a leader set votes against that leader's policy."""
        if set_index in self._primary_leaders:
            self.psel = min(self.psel_max, self.psel + 1)
        elif set_index in self._secondary_leaders:
            self.psel = max(0, self.psel - 1)

    def use_primary(self, set_index: int) -> bool:
        """Which policy should this set use for the current fill?"""
        if set_index in self._primary_leaders:
            return True
        if set_index in self._secondary_leaders:
            return False
        # Followers pick the leader group with fewer misses: a high PSEL
        # means the primary leaders missed more, so follow the secondary.
        return self.psel < (self.psel_max + 1) // 2
