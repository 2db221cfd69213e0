"""CacheMind-Ranger: retrieval via generated and executed code.

Ranger (paper section 3.3) hands the retrieval objective, the database schema
and strict output rules to a code-writing LLM, executes the generated Python
against ``loaded_data`` and uses the resulting string as the retrieved
context.  This implementation:

* translates the parsed intent into code with
  :class:`~repro.retrieval.codegen.RangerCodeGenerator`,
* models imperfect code generation — the backing LLM's reliability check
  decides whether the clean template or a realistically flawed variant is
  produced (the paper reports ~90% retrieval success for Ranger),
* executes the code in :class:`~repro.retrieval.executor.SandboxExecutor`
  and converts the structured payload into retrieval facts.

Compared to Sieve, Ranger computes counts and aggregates *exactly* (the code
does the arithmetic), which is why it dominates the Count/Arithmetic
categories; but its context is a single result string, so reasoning-heavy
(ARA) questions receive less supporting material than Sieve's structured
bundle — reproducing the Sieve/Ranger trade-off in the paper's abstract.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.query import QueryIntent
from repro.llm.backend import LLMBackend
from repro.llm.prompts import RANGER_SYSTEM_PROMPT
from repro.llm.simulated import create_backend
from repro.retrieval.base import Retriever, register_retriever
from repro.retrieval.codegen import RangerCodeGenerator
from repro.retrieval.context import RetrievedContext
from repro.retrieval.executor import SandboxExecutor
from repro.tracedb.database import TraceDatabase
from repro.tracedb.schema import ACCESS_COLUMNS


@register_retriever
class RangerRetriever(Retriever):
    """LLM-guided code-generating retriever."""

    name = "ranger"

    def __init__(self, database: TraceDatabase,
                 code_llm: Optional[LLMBackend] = None,
                 reliability: float = 0.92,
                 include_metadata: bool = True):
        super().__init__(database)
        self.code_llm = code_llm if code_llm is not None else create_backend("gpt-4o")
        self.reliability = reliability
        self.include_metadata = include_metadata
        self.code_generator = RangerCodeGenerator()
        self.executor = SandboxExecutor(database.loaded_data())
        self.system_prompt = RANGER_SYSTEM_PROMPT

    # ------------------------------------------------------------------
    def _generation_succeeds(self, intent: QueryIntent) -> bool:
        """Whether this query's code generation comes out correct."""
        key = f"ranger-codegen|{intent.question}"
        # Both the backend's intrinsic code-generation skill and the overall
        # pipeline reliability must hold.
        skill_ok = self.code_llm.check("code_generation", key)
        pipeline_ok = self.code_llm.draw("pipeline|" + key) < self.reliability
        return skill_ok and pipeline_ok

    # ------------------------------------------------------------------
    def retrieve(self, intent: QueryIntent) -> RetrievedContext:
        start = time.time()
        flawed = not self._generation_succeeds(intent)
        code = self.code_generator.generate(intent, flawed=flawed)
        execution = self.executor.execute(code)

        context = RetrievedContext(retriever_name=self.name, generated_code=code)
        facts = context.facts
        facts["schema"] = list(ACCESS_COLUMNS)

        if execution.success:
            context.text = execution.result
            facts.update(execution.payload)
            key = execution.payload.get("key")
            if key:
                context.sources = [key]
                entry = self.database.entries.get(key)
                if entry is not None and self.include_metadata:
                    facts.setdefault("metadata", entry.metadata)
                    facts.setdefault("descriptions", {key: entry.description})
                    facts.setdefault("workload", entry.workload)
                    facts.setdefault("policy", entry.policy)
        else:
            context.text = (f"Retrieval code failed to execute: {execution.error}")
            context.add_note("generated code failed; no grounded context")

        context.finalise_quality(intent)
        context.retrieval_time_seconds = time.time() - start
        return context
