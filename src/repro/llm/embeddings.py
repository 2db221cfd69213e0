"""Hashing bag-of-words sentence embeddings.

The embedder maps text to a fixed-dimension vector by hashing tokens into
buckets (with sub-word character trigrams so near-identical hex strings still
land close together, which is precisely why cosine similarity struggles to
separate trace records that differ only in a few digits — the failure mode
the paper reports for LlamaIndex-style retrieval).
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9_.]+")


def tokenize(text: str) -> List[str]:
    """Lowercase word/number tokens of a sentence."""
    return _TOKEN_RE.findall(text.lower())


def _stable_hash(token: str) -> int:
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


#: Bound on the memo of :func:`_feature_slot`.  An entry, its feature string
#: included, measured ~280 B, so a full memo is ~4.4 MB.
_FEATURE_SLOT_MEMO_SIZE = 2 ** 14


@functools.lru_cache(maxsize=_FEATURE_SLOT_MEMO_SIZE)
def _feature_slot(feature: str, dimensions: int) -> Tuple[int, float]:
    """Bucket and sign of one feature.  Two md5 digests each; memoised
    because the same words and trigrams recur in every question, answer
    and chunk."""
    bucket = _stable_hash(feature) % dimensions
    sign = 1.0 if (_stable_hash("sign:" + feature) & 1) == 0 else -1.0
    return bucket, sign


def cosine_similarity(left: np.ndarray, right: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 when either is all zeros)."""
    left_norm = float(np.linalg.norm(left))
    right_norm = float(np.linalg.norm(right))
    if left_norm == 0.0 or right_norm == 0.0:
        return 0.0
    return float(np.dot(left, right) / (left_norm * right_norm))


class HashingEmbedder:
    """Deterministic hashing embedder with word and character-trigram features."""

    def __init__(self, dimensions: int = 256, use_trigrams: bool = True):
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self.dimensions = dimensions
        self.use_trigrams = use_trigrams

    # ------------------------------------------------------------------
    def _features(self, text: str) -> Iterable[str]:
        tokens = tokenize(text)
        for token in tokens:
            yield token
            if self.use_trigrams and len(token) > 3:
                padded = f"#{token}#"
                for i in range(len(padded) - 2):
                    yield "tri:" + padded[i:i + 3]

    def embed(self, text: str) -> np.ndarray:
        """Embed one piece of text into a unit-normalised vector."""
        slots = [_feature_slot(feature, self.dimensions)
                 for feature in self._features(text)]
        if not slots:
            return np.zeros(self.dimensions, dtype=np.float64)
        buckets, signs = zip(*slots)
        # Sums of +-1 are exact in any order, so this equals adding the
        # signs into the buckets one feature at a time.
        vector = np.bincount(buckets, weights=signs,
                             minlength=self.dimensions)
        norm = float(np.linalg.norm(vector))
        if norm > 0:
            vector /= norm
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed a list of texts into a (len(texts), dimensions) matrix."""
        if not texts:
            return np.zeros((0, self.dimensions), dtype=np.float64)
        return np.stack([self.embed(text) for text in texts])

    # ------------------------------------------------------------------
    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity of two texts."""
        return cosine_similarity(self.embed(left), self.embed(right))

    def rank(self, query: str, candidates: Sequence[str]) -> List[int]:
        """Indices of ``candidates`` ordered by decreasing similarity to
        ``query`` (stable for ties)."""
        query_vector = self.embed(query)
        scored = [
            (cosine_similarity(query_vector, self.embed(candidate)), -index)
            for index, candidate in enumerate(candidates)
        ]
        order = sorted(range(len(candidates)),
                       key=lambda index: scored[index], reverse=True)
        return order

    def best_match(self, query: str, candidates: Sequence[str]) -> int:
        """Index of the most similar candidate (raises on an empty list)."""
        if not candidates:
            raise ValueError("candidates must not be empty")
        return self.rank(query, candidates)[0]

    def top_k(self, query: str, candidates: Sequence[str], k: int = 3
              ) -> List[Dict[str, object]]:
        """Top-k candidates with their similarity scores."""
        query_vector = self.embed(query)
        scored = []
        for index, candidate in enumerate(candidates):
            scored.append({
                "index": index,
                "text": candidate,
                "score": cosine_similarity(query_vector, self.embed(candidate)),
            })
        scored.sort(key=lambda item: item["score"], reverse=True)
        return scored[:k]
