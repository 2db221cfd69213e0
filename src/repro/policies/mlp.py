"""MLP / hashed-perceptron reuse-prediction policy.

The paper adds "a Multi-Layer Perceptron (MLP) based replacement policy" to
the PARROT framework, in the spirit of multiperspective reuse prediction
(Jiménez & Teran, MICRO 2017) and perceptron-based predictors.  The policy
here follows the hashed-perceptron recipe:

* several feature tables (folded PC, PC shifted, block-address bits, a
  recency bucket) each hold small integer weights;
* the prediction for a line is the sum of the weights selected by its
  features — positive means "will be reused soon";
* training happens on hits (reinforce reuse) and on evictions of lines that
  were never re-referenced (reinforce no-reuse), with a margin threshold as
  in perceptron branch predictors.

Victim selection evicts the line with the lowest predicted reuse score (the
oldest such line on ties); insertions from strongly negative PCs may
optionally be bypassed.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    least_recently_used,
    register_policy,
)


@register_policy
class MLPPolicy(ReplacementPolicy):
    """Hashed-perceptron reuse predictor driving victim selection."""

    name = "mlp"
    tie_break = staticmethod(least_recently_used)

    #: feature table sizes (entries) — kept small like hardware budgets.
    TABLE_SIZE = 2048
    WEIGHT_MAX = 31
    WEIGHT_MIN = -32
    TRAIN_MARGIN = 8

    def __init__(self, allow_bypass: bool = False, bypass_threshold: int = -24,
                 **kwargs):
        super().__init__(**kwargs)
        self.allow_bypass = allow_bypass
        self.bypass_threshold = bypass_threshold
        self._tables: List[List[int]] = []
        # Per (set, way): the feature vector of the line's last access and
        # a reuse flag, both for training on eviction, and the table indices
        # that score the line (see :meth:`on_fill`).
        self._line_features: List[List[Tuple[int, ...]]] = []
        self._line_reused: List[List[bool]] = []
        self._line_score_keys: List[List[Tuple[int, ...]]] = []

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._tables = [[0] * self.TABLE_SIZE for _ in range(4)]
        self._line_features = [[(0, 0, 0, 0)] * num_ways for _ in range(num_sets)]
        self._line_reused = [[False] * num_ways for _ in range(num_sets)]
        self._line_score_keys = [[(0,) * 7] * num_ways for _ in range(num_sets)]

    # ------------------------------------------------------------------
    # features / prediction
    # ------------------------------------------------------------------
    def _features(self, pc: int, block_address: int, recency_bucket: int) -> Tuple[int, ...]:
        return (
            (pc ^ (pc >> 11)) % self.TABLE_SIZE,
            ((pc >> 4) ^ (pc >> 17)) % self.TABLE_SIZE,
            (block_address ^ (block_address >> 9)) % self.TABLE_SIZE,
            (recency_bucket * 977 + (pc & 0xFF)) % self.TABLE_SIZE,
        )

    def _predict(self, features: Tuple[int, ...]) -> int:
        first, second, third, fourth = self._tables
        return (first[features[0]] + second[features[1]]
                + third[features[2]] + fourth[features[3]])

    def _train(self, features: Tuple[int, ...], reused: bool) -> None:
        prediction = self._predict(features)
        if reused and prediction > self.TRAIN_MARGIN:
            return
        if not reused and prediction < -self.TRAIN_MARGIN:
            return
        delta = 1 if reused else -1
        for table, index in zip(self._tables, features):
            weight = table[index] + delta
            table[index] = max(self.WEIGHT_MIN, min(self.WEIGHT_MAX, weight))

    # ------------------------------------------------------------------
    # policy interface
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        self._train(self._line_features[set_index][line.way], reused=True)
        self._line_reused[set_index][line.way] = True
        self._line_features[set_index][line.way] = self._features(
            access.pc, access.block_address, 0)

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        features = self._features(access.pc, access.block_address, 0)
        self._line_features[set_index][line.way] = features
        self._line_reused[set_index][line.way] = False
        # The line's score keys hold for its whole residency, since its pc
        # and block are the filling access's: the fill features (recency
        # bucket 0), then the recency feature of buckets 1..3.
        low = access.pc & 0xFF
        size = self.TABLE_SIZE
        self._line_score_keys[set_index][line.way] = features + (
            (977 + low) % size, (2 * 977 + low) % size, (3 * 977 + low) % size)

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        if not self._line_reused[set_index][victim.way]:
            self._train(self._line_features[set_index][victim.way], reused=False)

    def should_bypass(self, set_index: int, lines: Sequence[CacheLine],
                      access: PolicyAccess) -> bool:
        if not self.allow_bypass:
            return False
        if len(lines) < self.num_ways:
            return False
        score = self._predict(self._features(access.pc, access.block_address, 0))
        return score <= self.bypass_threshold

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        now = access.access_index
        first, second, third, fourth = self._tables
        scores = []
        append = scores.append
        # The resident lines are ways 0..n-1.
        for line, (k1, k2, k3, young, recent, old, oldest) in zip(
                lines, self._line_score_keys[set_index]):
            age = now - line.last_access
            if age < 16:
                recency = young
            elif age < 128:
                recency = recent
            elif age < 1024:
                recency = old
            else:
                recency = oldest
            total = first[k1] + second[k2] + third[k3] + fourth[recency]
            # Higher score = evicted sooner, so negate the reuse prediction
            # (a zero prediction scores -0.0).
            append(-float(total))
        return scores

    def describe(self) -> str:
        return ("MLP/perceptron reuse predictor: hashed feature tables over "
                "PC, address bits and recency predict reuse; the least "
                "promising line is evicted.")
