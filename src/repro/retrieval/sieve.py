"""CacheMind-Sieve: symbolic-indexed entries for verifiable extraction.

The Sieve pipeline (paper section 3.2) runs four stages:

1. **Trace-level filtering** -- a sentence embedder matches the workload and
   policy mentioned (possibly fuzzily) in the query against the database
   keys/descriptions to pick the trace slice(s) to search.
2. **PC and address filtering** -- symbolic equality filters on
   ``program_counter`` / ``memory_address`` isolate a compact slice.
3. **Cache statistical expert** -- per-PC statistics (miss rate, reuse
   distances, bad-eviction fraction) are computed for the PCs in the slice.
4. **Context assembly** -- workload/policy descriptions, PC-level context
   (function, assembly, statistics) and trace metadata are combined into a
   structured bundle for the generator.

Sieve is precise for the query patterns it anticipates (hit/miss, per-PC miss
rate, cross-policy comparison) but, as the paper notes, it cannot decompose
open-ended requests: it never computes counts or arbitrary aggregates itself,
it only exposes a bounded slice preview and raw value samples.

Every table lookup the stages perform — equality slices, presence counts,
hit tallies, value sampling — is expressed as a declarative
:class:`repro.analytics.Query` and executed by the analytics engine's
:class:`~repro.analytics.StdlibBackend`, so the grounding path runs through
one tested engine instead of ad-hoc loops.  ``tests/test_analytics.py``
replays every query the stages issue through an independent SQL oracle.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.analytics import Aggregate, Filter, Query, run_query
from repro.core.query import (
    POLICY_COMPARISON,
    QueryIntent,
    WORKLOAD_ANALYSIS,
)
from repro.llm.embeddings import HashingEmbedder
from repro.retrieval.base import Retriever, register_retriever
from repro.retrieval.context import RetrievedContext
from repro.tracedb.database import TraceDatabase, TraceEntry, trace_key
from repro.tracedb.metadata import parse_metadata_string
from repro.tracedb.schema import ACCESS_COLUMNS
from repro.tracedb.stats import CacheStatisticalExpert


@register_retriever
class SieveRetriever(Retriever):
    """Filter-based symbolic + semantic retriever."""

    name = "sieve"

    def __init__(self, database: TraceDatabase,
                 embedder: Optional[HashingEmbedder] = None,
                 slice_limit: int = 40,
                 values_sample_limit: int = 32,
                 cross_policy: bool = True):
        super().__init__(database)
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.slice_limit = slice_limit
        self.values_sample_limit = values_sample_limit
        self.cross_policy = cross_policy

    # ------------------------------------------------------------------
    # analytics engine plumbing: every table lookup in the stages below is
    # a declarative Query executed by the analytics engine.
    # ------------------------------------------------------------------
    def _trace_slice(self, table, **conditions):
        """Rows of ``table`` matching exact-equality ``conditions``."""
        query = Query(table="trace", filters=tuple(
            Filter(name, "eq", value) for name, value in conditions.items()))
        return run_query(query, {"trace": table})

    def _trace_count(self, table, **conditions) -> int:
        """Number of rows of ``table`` matching ``conditions``."""
        query = Query(
            table="trace",
            filters=tuple(Filter(name, "eq", value)
                          for name, value in conditions.items()),
            aggregates=(Aggregate("count", alias="n"),))
        return run_query(query, {"trace": table})["n"].values[0]

    def _field_values(self, table, field: str) -> List:
        """Non-null, non-sentinel values of ``field`` in row order."""
        query = Query(
            table="trace",
            select=(field,),
            filters=(Filter(field, "not_null"), Filter(field, "ne", -1)))
        return run_query(query, {"trace": table})[field].values

    # ------------------------------------------------------------------
    # stage 1: workload / policy selection
    # ------------------------------------------------------------------
    def select_workloads(self, intent: QueryIntent) -> List[str]:
        available = self.database.workloads
        named = [w for w in intent.workloads if w in available]
        if named:
            return named
        if intent.question_type == WORKLOAD_ANALYSIS:
            return list(available)
        if not available:
            return []
        # Semantic fallback: rank workload descriptions against the question.
        descriptions = []
        for workload in available:
            entries = self.database.entries_for_workload(workload)
            text = entries[0].description if entries else workload
            descriptions.append(f"{workload}: {text}")
        best = self.embedder.best_match(intent.question, descriptions)
        return [available[best]]

    def select_policies(self, intent: QueryIntent) -> List[str]:
        available = self.database.policies
        named = [p for p in intent.policies if p in available]
        if named:
            if intent.question_type == POLICY_COMPARISON and len(named) == 1:
                return list(available)
            return named
        if intent.question_type == POLICY_COMPARISON or self.cross_policy:
            return list(available)
        if not available:
            return []
        best = self.embedder.best_match(intent.question, list(available))
        return [available[best]]

    def _select_entries(self, intent: QueryIntent
                        ) -> Tuple[List[TraceEntry], Optional[TraceEntry]]:
        """Entries to search plus the primary entry the answer focuses on."""
        workloads = self.select_workloads(intent)
        policies = self.select_policies(intent)
        entries: List[TraceEntry] = []
        for workload in workloads:
            for policy in policies:
                key = trace_key(workload, policy)
                if key in self.database:
                    entries.append(self.database.entry(key))
        primary = None
        if entries:
            named_policy = next((p for p in intent.policies if p in policies), None)
            named_workload = next((w for w in intent.workloads if w in workloads), None)
            for entry in entries:
                if ((named_policy is None or entry.policy == named_policy)
                        and (named_workload is None or entry.workload == named_workload)):
                    primary = entry
                    break
            if primary is None:
                primary = entries[0]
        return entries, primary

    # ------------------------------------------------------------------
    # main retrieval
    # ------------------------------------------------------------------
    def retrieve(self, intent: QueryIntent) -> RetrievedContext:
        start = time.time()
        context = RetrievedContext(retriever_name=self.name)
        facts = context.facts
        facts["schema"] = list(ACCESS_COLUMNS)

        entries, primary = self._select_entries(intent)
        if not entries or primary is None:
            context.text = "No matching workload/policy trace found in the database."
            context.finalise_quality(intent)
            context.retrieval_time_seconds = time.time() - start
            return context

        context.sources = [entry.key for entry in entries]
        facts["workload"] = primary.workload
        facts["policy"] = primary.policy
        facts["metadata"] = primary.metadata
        facts["descriptions"] = {entry.key: entry.description for entry in entries}
        facts["policy_descriptions"] = {
            entry.policy: entry.description.split("Workload:")[0].strip()
            for entry in entries
        }
        facts["workload_descriptions"] = {
            entry.workload: entry.description.split("Workload:")[-1].strip()
            for entry in entries
        }

        text_blocks: List[str] = []
        self._stage_pc_address(intent, entries, primary, facts, text_blocks)
        self._stage_statistics(intent, entries, primary, facts, text_blocks)
        self._stage_workload_summaries(intent, entries, facts, text_blocks)
        self._stage_metadata(primary, facts, text_blocks)

        context.text = "\n".join(text_blocks)
        context.finalise_quality(intent)
        context.retrieval_time_seconds = time.time() - start
        return context

    # ------------------------------------------------------------------
    # stage 2: symbolic PC / address filtering
    # ------------------------------------------------------------------
    def _stage_pc_address(self, intent: QueryIntent, entries: List[TraceEntry],
                          primary: TraceEntry, facts: Dict, text_blocks: List[str]) -> None:
        pc = intent.pc
        address = intent.address
        if pc is None and address is None:
            return

        table = primary.data_frame
        conditions = {}
        if pc is not None:
            conditions["program_counter"] = pc
        if address is not None:
            conditions["memory_address"] = address
        slice_table = self._trace_slice(table, **conditions)

        pc_in_primary = (pc is None
                         or self._trace_count(table, program_counter=pc) > 0)
        if pc is not None and not pc_in_primary:
            # Check the whole workload: if the PC never appears, the query's
            # premise is wrong (trick question) and Sieve can say so.
            appears_somewhere = any(
                self._trace_count(entry.data_frame, program_counter=pc) > 0
                for entry in self.database.entries_for_workload(primary.workload))
            facts["pc_found"] = False
            if not appears_somewhere:
                facts["premise_violation"] = (
                    f"PC {pc} does not appear in the {primary.workload} workload")
                other_workloads = [
                    workload for workload in self.database.workloads
                    if workload != primary.workload and any(
                        self._trace_count(entry.data_frame, program_counter=pc) > 0
                        for entry in self.database.entries_for_workload(workload))
                ]
                if other_workloads:
                    facts["premise_violation"] += (
                        f"; it appears in {', '.join(other_workloads)}")
            text_blocks.append(
                f"Exact PC {pc} not found in {primary.key}.")
        else:
            facts["pc_found"] = True

        if len(slice_table) == 0:
            text_blocks.append(
                "Exact PC, Memory Address match not found in "
                f"{primary.key}.")
            facts["exact_match"] = False
            if address is not None and pc is not None and facts.get("pc_found"):
                # The PC exists but never touches this address.
                touched = self._trace_slice(primary.data_frame,
                                            program_counter=pc)
                addresses = set(touched["memory_address"].values)
                if address not in addresses:
                    facts["premise_violation"] = (
                        f"PC {pc} never accesses address {address} in "
                        f"{primary.workload} under {primary.policy}")
            return

        facts["exact_match"] = True
        rows = list(islice(slice_table.iter_rows(), self.slice_limit))
        facts["slice_rows"] = rows
        first = rows[0]
        if pc is not None and address is not None:
            total = len(slice_table)
            hits = self._trace_count(slice_table, evict="Cache Hit")
            facts["outcome"] = ("Cache Hit" if hits * 2 > total
                                else "Cache Miss")
            text_blocks.append(
                f"{primary.policy.upper()} + {primary.workload} @ PC {pc}, "
                f"addr {address}:\n  Cache result: {facts['outcome']} "
                f"({hits}/{total} of matching accesses hit)")
            if self.cross_policy:
                cross = {}
                for entry in entries:
                    if entry.key == primary.key:
                        continue
                    other = self._trace_slice(
                        entry.data_frame,
                        program_counter=pc, memory_address=address)
                    if len(other) == 0:
                        continue
                    other_hits = self._trace_count(other, evict="Cache Hit")
                    label = ("Cache Hit" if other_hits * 2 > len(other)
                             else "Cache Miss")
                    cross[entry.policy] = label
                    text_blocks.append(
                        f"  {entry.policy} + {entry.workload}: {label}")
                if cross:
                    facts["cross_policy_outcome"] = cross
        if first.get("evicted_address"):
            text_blocks.append(
                f"  Evicted address: {first['evicted_address']} (needed again "
                f"in {first['evicted_address_reuse_distance_numeric']} accesses); "
                f"inserted address needed again in "
                f"{first['accessed_address_reuse_distance_numeric']} accesses.")
        if first.get("function_name"):
            facts["function_name"] = first["function_name"]
            facts["function_code"] = first.get("function_code", "")
            facts["assembly"] = first.get("assembly_code", "")
            text_blocks.append(f"  Source function: {first['function_name']}")
            if first.get("assembly_code"):
                text_blocks.append("  Assembly:\n" + first["assembly_code"])

        if intent.target_field:
            values = self._field_values(slice_table, intent.target_field)
            facts["values_sample"] = values[: self.values_sample_limit]
            facts["values_sample_truncated"] = len(values) > self.values_sample_limit
            text_blocks.append(
                f"  {intent.target_field} values (first "
                f"{len(facts['values_sample'])} of {len(values)}): "
                f"{facts['values_sample']}")

    # ------------------------------------------------------------------
    # stage 3: cache statistical expert
    # ------------------------------------------------------------------
    def _stage_statistics(self, intent: QueryIntent, entries: List[TraceEntry],
                          primary: TraceEntry, facts: Dict, text_blocks: List[str]) -> None:
        pc = intent.pc
        if pc is None:
            self._stage_trace_statistics(intent, entries, primary, facts,
                                         text_blocks)
            return
        per_policy_stats = {}
        per_policy_miss_rate = {}
        for entry in entries:
            if entry.workload != primary.workload:
                continue
            expert = CacheStatisticalExpert(entry.data_frame)
            if self._trace_count(entry.data_frame, program_counter=pc) == 0:
                continue
            stats = expert.pc_statistics(pc)
            per_policy_stats[entry.policy] = stats
            per_policy_miss_rate[entry.policy] = stats.miss_rate
            text_blocks.append(
                f"Statistics for PC {pc} in {entry.workload} under "
                f"{entry.policy}: {stats.accesses} accesses, "
                f"{stats.hits} hits, {stats.misses} misses, "
                f"miss rate {stats.miss_rate * 100:.2f}%"
                + (f", function {stats.function_name}" if stats.function_name else ""))
        if not per_policy_stats:
            return
        facts["pc_stats"] = per_policy_stats
        if primary.policy in per_policy_stats:
            facts["miss_rate"] = per_policy_stats[primary.policy].miss_rate
            facts["hit_rate"] = 1.0 - per_policy_stats[primary.policy].miss_rate
        elif per_policy_stats:
            any_policy = next(iter(per_policy_stats))
            facts["miss_rate"] = per_policy_stats[any_policy].miss_rate
        if len(per_policy_miss_rate) >= 2:
            facts["per_policy"] = per_policy_miss_rate

    def _stage_trace_statistics(self, intent: QueryIntent,
                                entries: List[TraceEntry], primary: TraceEntry,
                                facts: Dict, text_blocks: List[str]) -> None:
        """Whole-trace statistics when nothing narrows the query: the
        statistical expert's trace-level miss rates, across policies."""
        if intent.address is not None:
            # An address-scoped question must not get the whole-trace rate
            # confidently attributed to that address; leave the evidence gap.
            return
        if intent.policies and all(policy not in self.database.policies
                                   for policy in intent.policies):
            # The question names only policies absent from the database;
            # publishing another policy's rate would mis-ground the answer.
            return
        # Workload-analysis questions already get these lines from
        # _stage_workload_summaries; keep the facts but skip the duplicates.
        emit_text = intent.question_type != WORKLOAD_ANALYSIS
        per_policy = {}
        for entry in entries:
            if entry.workload != primary.workload:
                continue
            per_policy[entry.policy] = entry.statistics.miss_rate
            if emit_text:
                text_blocks.append(
                    f"{entry.workload} under {entry.policy}: "
                    f"{entry.statistics.total_accesses} accesses, "
                    f"miss rate {entry.statistics.miss_rate * 100:.2f}%")
        if not per_policy:
            return
        # primary is one of `entries` with a matching workload, so its policy
        # is always present.
        facts["miss_rate"] = per_policy[primary.policy]
        facts["hit_rate"] = 1.0 - per_policy[primary.policy]
        if len(per_policy) >= 2:
            facts["per_policy"] = per_policy

    # ------------------------------------------------------------------
    # workload-level summaries (used by workload analysis questions)
    # ------------------------------------------------------------------
    def _stage_workload_summaries(self, intent: QueryIntent,
                                  entries: List[TraceEntry], facts: Dict,
                                  text_blocks: List[str]) -> None:
        if intent.question_type != WORKLOAD_ANALYSIS:
            return
        summaries = {}
        for entry in entries:
            parsed = parse_metadata_string(entry.metadata)
            summaries.setdefault(entry.workload, {})[entry.policy] = (
                parsed.miss_rate_percent)
            text_blocks.append(
                f"{entry.workload} under {entry.policy}: "
                f"{parsed.miss_rate_percent:.2f}% miss rate, "
                f"{parsed.total_accesses} accesses")
        facts["workload_summaries"] = summaries

    # ------------------------------------------------------------------
    # metadata fallback
    # ------------------------------------------------------------------
    def _stage_metadata(self, primary: TraceEntry, facts: Dict,
                        text_blocks: List[str]) -> None:
        text_blocks.append("Trace metadata: " + primary.metadata)
        text_blocks.append("Policy/Workload description: " + primary.description)
