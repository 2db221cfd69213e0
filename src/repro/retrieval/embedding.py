"""Embedding-similarity baseline retriever (LlamaIndex-style).

Conventional RAG frameworks chunk the corpus, embed every chunk and return
the chunks most cosine-similar to the query.  The paper shows this fails for
microarchitectural traces: records differ only by a few hex digits, so the
embedding of the *wrong* record is almost as close as the right one, and the
retrieved context rarely contains the exact (PC, address, policy, workload)
tuple the question asks about (10% correct-context rate in Figure 9).

:class:`EmbeddingRetriever` reproduces that behaviour honestly: it serialises
a sample of trace rows plus per-trace summaries into chunks, embeds them with
the hashing embedder and returns the top-k matches.  Facts are extracted only
when the retrieved chunks happen to contain the exact records needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.query import QueryIntent
from repro.llm.embeddings import HashingEmbedder
from repro.retrieval.base import Retriever, register_retriever
from repro.retrieval.context import RetrievedContext
from repro.tracedb.database import TraceDatabase


@dataclass
class _Chunk:
    """One embedded document."""

    text: str
    trace_key: str
    kind: str                      # "summary" | "row"
    program_counter: Optional[str] = None
    memory_address: Optional[str] = None
    outcome: Optional[str] = None


@register_retriever
class EmbeddingRetriever(Retriever):
    """Cosine-similarity retrieval over serialized trace chunks."""

    name = "embedding"
    aliases = ("llamaindex", "baseline")

    def __init__(self, database: TraceDatabase,
                 embedder: Optional[HashingEmbedder] = None,
                 rows_per_trace: int = 150, top_k: int = 4):
        super().__init__(database)
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.rows_per_trace = rows_per_trace
        self.top_k = top_k
        self._chunks: List[_Chunk] = []
        self._matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # index construction
    # ------------------------------------------------------------------
    def build_index(self) -> int:
        """Chunk + embed the database; returns the number of chunks."""
        chunks: List[_Chunk] = []
        for key in self.database.keys():
            entry = self.database.entry(key)
            chunks.append(_Chunk(
                text=(f"TRACE_ID: {key}\nDESCRIPTION: {entry.description}\n"
                      f"METADATA: {entry.metadata}"),
                trace_key=key,
                kind="summary",
            ))
            table = entry.data_frame
            stride = max(1, len(table) // self.rows_per_trace)
            for index in range(0, len(table), stride):
                row = table.row(index)
                chunks.append(_Chunk(
                    text=(f"TRACE_ID: {key} "
                          f"program_counter={row['program_counter']}, "
                          f"memory_address={row['memory_address']}, "
                          f"evict={row['evict']}, "
                          f"cache_set_id={row['cache_set_id']}, "
                          f"reuse_distance={row['accessed_address_reuse_distance_numeric']}"),
                    trace_key=key,
                    kind="row",
                    program_counter=row["program_counter"],
                    memory_address=row["memory_address"],
                    outcome=row["evict"],
                ))
        self._chunks = chunks
        self._matrix = self.embedder.embed_batch([chunk.text for chunk in chunks])
        return len(chunks)

    def _ensure_index(self) -> None:
        if self._matrix is None:
            self.build_index()

    # ------------------------------------------------------------------
    def retrieve(self, intent: QueryIntent) -> RetrievedContext:
        start = time.time()
        self._ensure_index()
        assert self._matrix is not None

        query_vector = self.embedder.embed(intent.question)
        scores = self._matrix @ query_vector
        # Stable, so the earliest of equally similar chunks wins; numpy's
        # default sort leaves tied scores in a CPU-dependent order.
        order = np.argsort(-scores, kind="stable")[: self.top_k]

        context = RetrievedContext(retriever_name=self.name)
        facts = context.facts
        blocks: List[str] = []
        sources: List[str] = []
        for rank, index in enumerate(order):
            chunk = self._chunks[int(index)]
            blocks.append(f"{scores[int(index)]:.4f}\n{chunk.text}")
            if chunk.trace_key not in sources:
                sources.append(chunk.trace_key)
            self._extract_facts(intent, chunk, facts)
        context.text = "\n---\n".join(blocks)
        context.sources = sources
        context.finalise_quality(intent)
        context.retrieval_time_seconds = time.time() - start
        return context

    # ------------------------------------------------------------------
    def _extract_facts(self, intent: QueryIntent, chunk: _Chunk,
                       facts: Dict) -> None:
        """Populate facts only when a retrieved chunk really contains them."""
        if chunk.kind == "summary":
            facts.setdefault("metadata", chunk.text)
            facts.setdefault("descriptions", {})[chunk.trace_key] = chunk.text
            return
        wants_pc = intent.pc
        wants_address = intent.address
        workload_ok = (intent.workload is None
                       or chunk.trace_key.startswith(intent.workload + "_"))
        policy_ok = (intent.policy is None
                     or chunk.trace_key.endswith("_" + intent.policy))
        if not (workload_ok and policy_ok):
            return
        facts.setdefault("slice_rows", []).append({
            "program_counter": chunk.program_counter,
            "memory_address": chunk.memory_address,
            "evict": chunk.outcome,
        })
        if wants_pc and chunk.program_counter == wants_pc:
            if wants_address is None or chunk.memory_address == wants_address:
                facts["exact_match"] = True
                facts["outcome"] = chunk.outcome
