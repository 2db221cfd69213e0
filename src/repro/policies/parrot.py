"""PARROT-style imitation-learned replacement policy.

PARROT (Liu et al., ICML 2020) frames cache replacement as imitation
learning: an offline model is trained to mimic Belady's eviction choices and
a lightweight predictor is deployed online.  The original uses an LSTM over
access history; this reproduction keeps the same structure with a far
smaller hypothesis class so it runs instantly:

* **training signal** — while the trace is replayed with oracle (next-use)
  annotations available to the *trainer*, every eviction decision produces an
  imitation example: the line Belady would evict is the positive class.
* **model** — a per-PC logistic scorer plus a recency feature.  The score of
  a resident line is ``w_pc[line.pc] + w_age[age_bucket]``, its age bucketed
  at 32, 256 and 2048 accesses; the line with the highest "evict me" score
  is chosen.  The PC weights are updated with a perceptron step toward
  Belady's choice.
* **deployment** — the *decision* never looks at next-use information, only
  the learned weights, mirroring offline training followed by deployment.

Because the learned policy is PC-local, it can beat Belady on individual PCs
while losing globally — the observation discussed in section 6.3 of the
paper ("Belady vs. PARROT").
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Sequence

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    least_recently_used,
    register_policy,
)

_next_use = attrgetter("next_use")


@register_policy
class ParrotPolicy(ReplacementPolicy):
    """Imitation learning of Belady with a compact PC-indexed scorer."""

    name = "parrot"
    #: the trainer consumes oracle labels while replaying the trace, exactly
    #: like PARROT's offline training pipeline; decisions never use them.
    requires_future = True
    tie_break = staticmethod(least_recently_used)

    WEIGHT_LIMIT = 64.0
    LEARNING_RATE = 1.0

    def __init__(self, train: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.train = train
        self._pc_weight: Dict[int, float] = {}
        self._age_weight = [0.0, 0.5, 1.0, 2.0]

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._pc_weight = {}

    # ------------------------------------------------------------------
    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        now = access.access_index
        pc_weight = self._pc_weight.get
        young, recent, old, oldest = self._age_weight
        scores = []
        append = scores.append
        for line in lines:
            age = now - line.last_access
            if age < 32:
                age_weight = young
            elif age < 256:
                age_weight = recent
            elif age < 2048:
                age_weight = old
            else:
                age_weight = oldest
            append(pc_weight(line.pc, 0.0) + age_weight)
        return scores

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        """Perceptron step toward Belady's choice for this eviction."""
        if not self.train:
            return
        oracle = max(lines, key=_next_use)
        if oracle is victim:
            return
        # Push the oracle victim's PC toward "evict me" and pull the line we
        # wrongly evicted toward "keep me".
        oracle_weight = self._pc_weight.get(oracle.pc, 0.0) + self.LEARNING_RATE
        victim_weight = self._pc_weight.get(victim.pc, 0.0) - self.LEARNING_RATE
        self._pc_weight[oracle.pc] = min(self.WEIGHT_LIMIT, oracle_weight)
        self._pc_weight[victim.pc] = max(-self.WEIGHT_LIMIT, victim_weight)

    def describe(self) -> str:
        return ("PARROT-style imitation learning: a compact PC-indexed scorer "
                "trained to mimic Belady's eviction choices; decisions use "
                "only the learned weights.")
