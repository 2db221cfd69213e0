"""Conversation memory: sliding buffer, summaries and a vector store.

The paper augments the generator LLM with a conversation-memory layer so a
chat session can reason across turns (section 1): a sliding buffer of recent
messages, summaries of older turns and a vector store of past facts that can
be re-retrieved when similar questions arise.  :class:`ConversationMemory`
implements all three on top of the hashing embedder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.llm.embeddings import HashingEmbedder, cosine_similarity

#: Recall re-scores exactly every row whose matrix-product score is within
#: this of the cut-off.  The product and :func:`cosine_similarity` differ by
#: a few ulps on unit vectors (~1e-16), far inside the margin.
_TIE_MARGIN = 1e-9


@dataclass
class MemoryItem:
    """One remembered fact or turn."""

    role: str           # "user" | "assistant" | "fact"
    text: str
    turn: int
    metadata: Dict[str, str] = field(default_factory=dict)


class ConversationMemory:
    """Sliding-buffer + summary + vector-store conversation memory.

    ``max_items`` bounds the vector store and ``max_summaries`` the summary
    list (oldest dropped first): a long-running serving session
    (``repro.serve``) records two turns per request, so without a bound the
    vector store — and the per-request recall over it — would grow for
    the life of the server.  The vectors are the rows of one preallocated
    ``(max_items, dimensions)`` ring buffer, so recall ranks them all with
    one matrix-vector product.
    """

    def __init__(self, buffer_size: int = 8, summary_chunk: int = 8,
                 embedder: Optional[HashingEmbedder] = None,
                 max_items: int = 4096, max_summaries: int = 64):
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if max_items <= 0 or max_summaries <= 0:
            raise ValueError("max_items and max_summaries must be positive")
        self.buffer_size = buffer_size
        self.summary_chunk = summary_chunk
        self.max_items = max_items
        self.max_summaries = max_summaries
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self._turn = 0
        self._buffer: List[MemoryItem] = []
        self._summaries: List[str] = []
        # Ring buffer: item ``i`` of the store lives in row/slot
        # ``i % max_items``; ``_next_slot`` is where the next one goes.
        self._vectors = np.zeros((max_items, self.embedder.dimensions),
                                 dtype=np.float64)
        self._vector_items: List[MemoryItem] = []
        self._next_slot = 0
        self._overflow: List[MemoryItem] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_turn(self, role: str, text: str,
                 metadata: Optional[Dict[str, str]] = None) -> MemoryItem:
        """Record one chat turn (user query or assistant answer)."""
        item = MemoryItem(role=role, text=text, turn=self._turn,
                          metadata=dict(metadata or {}))
        self._turn += 1
        self._buffer.append(item)
        self._index(item)
        if len(self._buffer) > self.buffer_size:
            evicted = self._buffer.pop(0)
            self._overflow.append(evicted)
            if len(self._overflow) >= self.summary_chunk:
                self._summarise_overflow()
        return item

    def add_fact(self, text: str, metadata: Optional[Dict[str, str]] = None) -> MemoryItem:
        """Record an intermediate finding (e.g. a retrieved statistic)."""
        item = MemoryItem(role="fact", text=text, turn=self._turn,
                          metadata=dict(metadata or {}))
        self._index(item)
        return item

    def _index(self, item: MemoryItem) -> None:
        slot = self._next_slot
        self._vectors[slot] = self.embedder.embed(item.text)
        if slot == len(self._vector_items):
            self._vector_items.append(item)
        else:
            self._vector_items[slot] = item
        self._next_slot = (slot + 1) % self.max_items

    def _summarise_overflow(self) -> None:
        """Collapse evicted turns into a compact summary line."""
        user_topics = [item.text.strip().rstrip("?")[:80]
                       for item in self._overflow if item.role == "user"]
        findings = [item.text.strip()[:80]
                    for item in self._overflow if item.role != "user"]
        summary_parts = []
        if user_topics:
            summary_parts.append("asked about: " + "; ".join(user_topics[:4]))
        if findings:
            summary_parts.append("found: " + "; ".join(findings[:4]))
        summary = "Earlier in this session the user " + " | ".join(summary_parts)
        self._summaries.append(summary)
        if len(self._summaries) > self.max_summaries:
            del self._summaries[: len(self._summaries) - self.max_summaries]
        self._overflow = []

    # ------------------------------------------------------------------
    # recall
    # ------------------------------------------------------------------
    def recent(self, count: Optional[int] = None) -> List[MemoryItem]:
        """The sliding buffer (most recent last), or its last ``count``
        items."""
        if count is None:
            return list(self._buffer)
        if count <= 0:
            return []
        return self._buffer[-count:]

    def summaries(self) -> List[str]:
        return list(self._summaries)

    def recall(self, query: str, k: int = 3,
               minimum_similarity: float = 0.05) -> List[MemoryItem]:
        """Re-retrieve past items semantically similar to ``query``.

        The ``k`` stored items with the highest :func:`cosine_similarity`
        to ``query`` (best first, oldest first among equal scores) that
        reach ``minimum_similarity``.  One matrix-vector product ranks every
        stored row; only the rows within ``_TIE_MARGIN`` of the k-th best
        and of ``minimum_similarity`` can make the cut, and those are
        re-scored with :func:`cosine_similarity` itself, so the items and
        their order are exactly those of scoring every item that way.
        """
        count = len(self._vector_items)
        if k <= 0 or count == 0:
            return []
        query_vector = self.embedder.embed(query)
        # einsum's loop runs on this thread; ``@`` hands a product this size
        # to multi-threaded BLAS, whose wake-ups on a busy 2-vCPU host cost
        # ~8 ms per call against ~0.6 ms here.
        scores = np.einsum("ij,j->i", self._vectors[:count], query_vector)
        top = min(k, count)
        kth_best = np.partition(scores, -top)[-top]
        cutoff = max(kth_best, minimum_similarity) - _TIE_MARGIN
        slots = np.flatnonzero(scores >= cutoff)
        # Oldest first: the ring's slots from its oldest onwards, then the
        # slots before it.
        oldest = self._next_slot if count == self.max_items else 0
        slots = np.concatenate((slots[slots >= oldest], slots[slots < oldest]))
        # A repeated turn stores an identical row, which scores identically:
        # score each distinct row once.
        exact: Dict[bytes, float] = {}
        scored = []
        for slot in slots.tolist():
            row = self._vectors[slot]
            key = row.tobytes()
            if key not in exact:
                exact[key] = cosine_similarity(query_vector, row)
            scored.append((exact[key], slot))
        scored.sort(key=lambda pair: pair[0], reverse=True)
        return [self._vector_items[slot] for score, slot in scored[:k]
                if score >= minimum_similarity]

    def context_block(self, query: str, k: int = 3) -> str:
        """Render memory relevant to ``query`` as a prompt block."""
        lines: List[str] = []
        if self._summaries:
            lines.append("Session summary:")
            lines.extend(f"  - {summary}" for summary in self._summaries[-2:])
        recalled = self.recall(query, k=k)
        if recalled:
            lines.append("Relevant earlier findings:")
            lines.extend(f"  - ({item.role}) {item.text[:160]}" for item in recalled)
        recent = self.recent(4)
        if recent:
            lines.append("Recent turns:")
            lines.extend(f"  - {item.role}: {item.text[:120]}" for item in recent)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._vector_items)

    def clear(self) -> None:
        self._turn = 0
        self._buffer = []
        self._summaries = []
        self._vector_items = []
        self._next_slot = 0
        self._overflow = []
