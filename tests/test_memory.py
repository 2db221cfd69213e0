"""Conversation-memory recall and the hashing embedder, each checked against
a plain scalar reference kept here as the executable spec."""

import hashlib
import random
import re

import numpy as np
import pytest

from repro.llm.embeddings import HashingEmbedder, cosine_similarity
from repro.llm.memory import ConversationMemory


# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------
def reference_embed(text, dimensions):
    """One md5 pair per feature: every word token, plus the character
    trigrams of the '#'-padded tokens longer than 3, adds its sign to its
    bucket; the sum is unit-normalised."""
    def digest(token):
        return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8],
                              "little")

    vector = np.zeros(dimensions, dtype=np.float64)
    for token in re.findall(r"[a-z0-9_.]+", text.lower()):
        features = [token]
        if len(token) > 3:
            padded = f"#{token}#"
            features += ["tri:" + padded[i:i + 3]
                         for i in range(len(padded) - 2)]
        for feature in features:
            sign = 1.0 if (digest("sign:" + feature) & 1) == 0 else -1.0
            vector[digest(feature) % dimensions] += sign
    norm = float(np.linalg.norm(vector))
    if norm > 0:
        vector /= norm
    return vector


class ScalarMemory:
    """The vector store as a list trimmed to the newest ``max_items``
    vectors; recall scores every one with ``cosine_similarity`` and keeps
    the first ``k`` of a stable best-first sort."""

    def __init__(self, max_items):
        self.max_items = max_items
        self.embedder = HashingEmbedder()
        self.vectors = []
        self.items = []

    def index(self, item):
        self.vectors.append(self.embedder.embed(item.text))
        self.items.append(item)
        del self.vectors[:-self.max_items]
        del self.items[:-self.max_items]

    def recall(self, query, k, minimum_similarity=0.05):
        query_vector = self.embedder.embed(query)
        scored = [(cosine_similarity(query_vector, vector), index)
                  for index, vector in enumerate(self.vectors)]
        scored.sort(key=lambda pair: pair[0], reverse=True)
        return [self.items[index] for score, index in scored[:k]
                if score >= minimum_similarity]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
WORDS = ("what", "is", "the", "miss", "rate", "hit", "of", "lru", "belady",
         "on", "astar", "lbm", "mcf", "which", "policy", "lowest", "set",
         "reuse", "distance", "how", "many", "accesses", "under", "pc")


def random_text(rng):
    """0-6 words (0 gives empty text, a zero vector), sometimes a hex PC."""
    words = rng.sample(WORDS, rng.randint(0, 6))
    if rng.random() < 0.3:
        words.append(f"0x{rng.randrange(16 ** 6):06x}")
    return " ".join(words)


def record(memory, spec, role, text):
    item = (memory.add_fact(text) if role == "fact"
            else memory.add_turn(role, text))
    spec.index(item)


def describe(items):
    return [(item.role, item.turn, item.text) for item in items]


def assert_same_recall(memory, spec, query, minimum_similarity=0.05):
    for k in range(1, 6):
        got = memory.recall(query, k=k,
                            minimum_similarity=minimum_similarity)
        want = spec.recall(query, k, minimum_similarity)
        assert (len(got) == len(want)
                and all(a is b for a, b in zip(got, want))), \
            (query, k, minimum_similarity, describe(got), describe(want))


# ----------------------------------------------------------------------
# recall == the scalar scan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cap", [1, 2, 64])
def test_recall_matches_scalar_scan_as_the_ring_wraps(cap, seed):
    rng = random.Random(seed)
    memory, spec = ConversationMemory(max_items=cap), ScalarMemory(cap)
    texts = []
    for step in range(3 * cap + 7):
        text = random_text(rng)
        texts.append(text)
        record(memory, spec, rng.choice(("user", "assistant", "fact")), text)
        assert len(memory) == len(spec.items)
        if cap == 64 and step % 8:
            continue
        assert_same_recall(memory, spec, random_text(rng))
        assert_same_recall(memory, spec, rng.choice(texts))
        # Every stored row reaches a minimum of -1: the whole ring is
        # ranked, oldest first among ties.
        assert_same_recall(memory, spec, rng.choice(texts),
                           minimum_similarity=-1.0)


@pytest.mark.parametrize("cap", [1, 2, 64])
def test_repeated_questions_tie_exactly_and_recall_oldest_first(cap):
    cycle = ["What is the miss rate of lru on astar?",
             "Which policy has the lowest miss rate on lbm?",
             "What is the miss rate of belady on mcf?"]
    memory, spec = ConversationMemory(max_items=cap), ScalarMemory(cap)
    for turn in range(3 * cap + 5):
        question = cycle[turn % len(cycle)]
        record(memory, spec, "user", question)
        record(memory, spec, "assistant", f"The answer to '{question}'.")
    for question in cycle:
        assert_same_recall(memory, spec, question)
    if cap == 64:
        recalled = memory.recall(cycle[0], k=5)
        assert [item.text for item in recalled] == [cycle[0]] * 5
        turns = [item.turn for item in recalled]
        assert turns == sorted(turns)
        # ... and they are the oldest copies still in the ring.
        stored = [item.turn for item in spec.items if item.text == cycle[0]]
        assert turns == stored[:5]


def test_empty_text_embeds_to_zeros_and_is_never_recalled():
    vector = HashingEmbedder().embed("")
    assert vector.dtype == np.float64 and not vector.any()
    memory, spec = ConversationMemory(max_items=8), ScalarMemory(8)
    for text in ["", "miss rate of lru", "", "?!", "hit rate of belady", ""]:
        record(memory, spec, "user", text)
    assert memory.recall("") == []
    assert all(item.text.strip("?!") for item in memory.recall("rate", k=5))
    for query in ["", "rate", "miss rate of lru"]:
        for minimum in (0.05, 0.0, -1.0):
            assert_same_recall(memory, spec, query, minimum_similarity=minimum)


def test_clear_forgets_every_stored_row():
    memory = ConversationMemory(max_items=4)
    for turn in range(10):
        memory.add_turn("user", f"old question {turn} about lru")
    memory.clear()
    assert len(memory) == 0 and memory.recent() == []
    assert memory.recall("old question about lru", minimum_similarity=-1) == []
    spec = ScalarMemory(4)
    record(memory, spec, "user", "new question about belady")
    assert describe(memory.recall("old question about lru", k=5,
                                  minimum_similarity=-1.0)) == \
        [("user", 0, "new question about belady")]
    assert_same_recall(memory, spec, "question", minimum_similarity=-1.0)


def test_recent_zero_is_empty():
    memory = ConversationMemory()
    for turn in range(5):
        memory.add_turn("user", f"question {turn}")
    assert memory.recent(0) == []
    assert [item.text for item in memory.recent(2)] == ["question 3",
                                                        "question 4"]
    assert len(memory.recent()) == 5


def test_recall_non_positive_k_is_empty():
    memory = ConversationMemory()
    for turn in range(5):
        memory.add_turn("user", "What is the miss rate of lru on astar?")
    assert memory.recall("miss rate of lru", k=-1) == []
    assert memory.recall("miss rate of lru", k=0) == []
    assert len(memory.recall("miss rate of lru", k=5)) == 5


# ----------------------------------------------------------------------
# embed == the per-feature md5 loop
# ----------------------------------------------------------------------
def test_embed_matches_per_feature_md5_loop_bit_for_bit():
    rng = random.Random(7)
    texts = ["", "?", "a b c", "What is the miss rate of LRU on astar?",
             "PC 0x401a2c at address 0x7ffd3a9c10 under belady",
             "TRACE_ID: astar_evictions_lru program_counter=0x401000, "
             "evict=Cache Miss, reuse_distance=17"]
    texts += [random_text(rng) for _ in range(40)]
    # Both sizes in one process: the memo must key on the dimensions too.
    for _ in range(2):
        for dimensions in (256, 64):
            embedder = HashingEmbedder(dimensions=dimensions)
            for text in texts:
                got = embedder.embed(text)
                want = reference_embed(text, dimensions)
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes(), (dimensions, text)
