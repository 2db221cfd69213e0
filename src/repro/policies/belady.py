"""Belady's optimal (OPT/MIN) replacement policy.

Belady evicts the resident line whose next use lies farthest in the future;
it is an offline oracle and defines the hit-rate upper bound.  The simulation
engine precomputes, for every access, the index of the next access to the
same block in the cache's access stream; the cache keeps that value up to
date on each line, so the policy only has to compare ``next_use`` fields.

An optional bypass mode skips allocation entirely when the incoming block's
next use is farther away than every resident line's next use (inserting it
could not possibly help), which matches the "OPT with bypass" variant used
by several learned-policy papers.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.policies.base import (
    CacheLine,
    NEVER,
    PolicyAccess,
    ReplacementPolicy,
    register_policy,
)


@register_policy
class BeladyPolicy(ReplacementPolicy):
    """Offline optimal replacement (farthest next use is evicted)."""

    name = "belady"
    requires_future = True

    def __init__(self, allow_bypass: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.allow_bypass = allow_bypass

    def should_bypass(self, set_index: int, lines: Sequence[CacheLine],
                      access: PolicyAccess) -> bool:
        if not self.allow_bypass:
            return False
        if len(lines) < self.num_ways:
            return False
        if access.next_use == NEVER:
            return True
        farthest_resident = max(line.next_use for line in lines)
        return access.next_use > farthest_resident

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        # Accesses until the next use: the top score is the farthest.
        now = access.access_index
        return [NEVER if line.next_use >= NEVER else line.next_use - now
                for line in lines]

    def describe(self) -> str:
        return ("Belady's optimal (OPT/MIN): an offline oracle that evicts "
                "the line whose next use is farthest in the future; it upper "
                "bounds the achievable hit rate.")
