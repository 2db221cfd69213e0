"""Ranger code generation: translate a parsed query into retrieval code.

The paper's Ranger hands the query, the database schema and strict output
rules (Figure 3) to a code-writing LLM (GPT-4o) which emits Python that
slices ``loaded_data`` and assigns a string to ``result``.  This module plays
that role deterministically: each question intent maps to a code template
instantiated with the query's workload/policy/PC/address.  The generated code
additionally assigns a ``payload`` dict so downstream components get the same
facts in structured form.

The quality of real LLM code generation is imperfect, so the generator
supports producing *flawed* code — realistic mistakes such as using a wrong
column name or a malformed trace key — which the retriever requests when the
backing LLM fails its code-generation reliability check.  Flawed code either
raises inside the sandbox or returns a "not found" answer, degrading the
retrieved context exactly the way a bad generation would.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List, Optional

from repro.core.query import (
    ARITHMETIC,
    CODE_GENERATION,
    COUNT,
    HIT_MISS,
    MISS_RATE,
    PC_LIST,
    POLICY_ANALYSIS,
    POLICY_COMPARISON,
    QueryIntent,
    SEMANTIC_ANALYSIS,
    SET_ANALYSIS,
    WORKLOAD_ANALYSIS,
    resolve_comparison,
)

_KEY_HELPER = """
def _find_key(workload, policy):
    if workload and policy:
        candidate = f"{workload}_evictions_{policy}"
        if candidate in loaded_data:
            return candidate
    for key in sorted(loaded_data):
        if workload and not key.startswith(workload + "_"):
            continue
        if policy and not key.endswith("_" + policy):
            continue
        return key
    return None
"""


def _header(workload: Optional[str], policy: Optional[str]) -> str:
    return (
        _KEY_HELPER
        + f"workload = {workload!r}\n"
        + f"policy = {policy!r}\n"
        + "key = _find_key(workload, policy)\n"
        + "payload = {}\n"
        + "if key is None:\n"
        + "    result = f\"No trace found for workload {workload} and policy {policy}.\"\n"
        + "else:\n"
        + "    entry = loaded_data[key]\n"
        + "    df = entry[\"data_frame\"]\n"
        + "    metadata = entry[\"metadata\"]\n"
        + "    payload[\"key\"] = key\n"
        + "    payload[\"metadata\"] = metadata\n"
    )


def _indent(body: str) -> str:
    return textwrap.indent(textwrap.dedent(body).strip("\n"), "    ")


class RangerCodeGenerator:
    """Intent-to-code translation for the Ranger retriever."""

    def generate(self, intent: QueryIntent, flawed: bool = False) -> str:
        """Produce the retrieval code for one intent."""
        if flawed:
            return self._flawed(intent)
        handler = {
            HIT_MISS: self._hit_miss,
            MISS_RATE: self._miss_rate,
            COUNT: self._count,
            ARITHMETIC: self._arithmetic,
            POLICY_COMPARISON: self._policy_comparison,
            PC_LIST: self._pc_list,
            SET_ANALYSIS: self._set_analysis,
            WORKLOAD_ANALYSIS: self._workload_analysis,
            POLICY_ANALYSIS: self._pc_context,
            SEMANTIC_ANALYSIS: self._pc_context,
            CODE_GENERATION: self._pc_context,
        }.get(intent.question_type, self._fallback)
        return handler(intent)

    # ------------------------------------------------------------------
    # templates
    # ------------------------------------------------------------------
    def _hit_miss(self, intent: QueryIntent) -> str:
        pc = intent.pc
        address = intent.address
        body = f"""
        rows = df.where(program_counter={pc!r}, memory_address={address!r}) if {address!r} else df.where(program_counter={pc!r})
        if len(rows) == 0:
            pc_rows = df.where(program_counter={pc!r})
            if len(pc_rows) == 0:
                payload["premise_violation"] = f"PC {pc} does not appear in {{key}}"
                result = f"Not found: PC {pc} does not appear in {{key}}."
            else:
                payload["premise_violation"] = f"PC {pc} never accesses address {address} in {{key}}"
                result = f"Not found: PC {pc} never accesses address {address} in {{key}}."
        else:
            outcomes = rows["evict"].values
            hits = sum(1 for value in outcomes if value == "Cache Hit")
            label = "Cache Hit" if hits * 2 > len(outcomes) else "Cache Miss"
            first = rows.row(0)
            payload["outcome"] = label
            payload["exact_match"] = True
            payload["function_name"] = first.get("function_name", "")
            payload["assembly"] = first.get("assembly_code", "")
            result = (f"Result: {{label}} for PC {pc} and addr {address} "
                      f"(trace: {{key}}). Function: {{first.get('function_name', '')}}")
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _miss_rate(self, intent: QueryIntent) -> str:
        pc = intent.pc
        if pc is None:
            body = """
            misses = sum(df["is_miss"].values)
            total = len(df)
            rate = misses / total if total else 0.0
            payload["miss_rate"] = rate
            result = f"The miss rate for {key} is {rate * 100:.2f}% ({misses}/{total})."
            """
        else:
            body = f"""
            rows = df.where(program_counter={pc!r})
            if len(rows) == 0:
                payload["premise_violation"] = f"PC {pc} does not appear in {{key}}"
                result = f"Not found: PC {pc} does not appear in {{key}}."
            else:
                misses = sum(rows["is_miss"].values)
                total = len(rows)
                rate = misses / total if total else 0.0
                payload["miss_rate"] = rate
                payload["accesses"] = total
                payload["exact_match"] = True
                result = f"The miss rate for PC {pc} in {{key}} is {{rate * 100:.2f}}% ({{misses}}/{{total}} accesses)."
            """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _count(self, intent: QueryIntent) -> str:
        pc = intent.pc
        address = intent.address
        filters = []
        if pc is not None:
            filters.append(f"program_counter={pc!r}")
        if address is not None:
            filters.append(f"memory_address={address!r}")
        filter_expr = ", ".join(filters)
        where_expr = f"df.where({filter_expr})" if filter_expr else "df"
        body = f"""
        rows = {where_expr}
        count = len(rows)
        payload["count"] = count
        if count == 0:
            payload["premise_violation"] = "no matching accesses found"
            result = f"No matching accesses found in {{key}}."
        else:
            payload["exact_match"] = True
            result = f"There are {{count}} matching accesses in {{key}}."
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _arithmetic(self, intent: QueryIntent) -> str:
        pc = intent.pc
        column = intent.target_field or "accessed_address_reuse_distance_numeric"
        aggregation = intent.aggregation or "mean"
        body = f"""
        rows = df.where(program_counter={pc!r}) if {pc!r} else df
        values = [value for value in rows[{column!r}].values
                  if value is not None and value != -1]
        if not values:
            result = f"No usable {column} values found in {{key}}."
        else:
            mean_value = sum(values) / len(values)
            if {aggregation!r} == "std":
                variance = sum((value - mean_value) ** 2 for value in values) / len(values)
                aggregate = variance ** 0.5
            elif {aggregation!r} == "sum":
                aggregate = sum(values)
            else:
                aggregate = mean_value
            payload["aggregate_value"] = aggregate
            payload["aggregation"] = {aggregation!r}
            payload["sample_size"] = len(values)
            payload["exact_match"] = True
            result = (f"The {aggregation} {column} for PC {pc} in {{key}} is "
                      f"{{aggregate:.2f}} over {{len(values)}} values.")
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _policy_comparison(self, intent: QueryIntent) -> str:
        pc = intent.pc
        workload = intent.workload
        comparison = intent.comparison or "best"
        # Shared with the Sieve answer path: maps the superlative/metric onto
        # the miss-rate ordering the generated code sorts by.
        pick_lowest = resolve_comparison(intent.comparison,
                                         intent.wants_hit_rate)
        scope = f" for PC {pc}" if pc is not None else ""
        if comparison in ("best", "worst"):
            winner_phrase = f"The {comparison} policy"
        else:
            metric = "hit rate" if intent.wants_hit_rate else "miss rate"
            winner_phrase = f"The policy with the {comparison} {metric}"
        body = f"""
        rates = {{}}
        for other_key in sorted(loaded_data):
            if {workload!r} and not other_key.startswith({workload!r} + "_"):
                continue
            other_df = loaded_data[other_key]["data_frame"]
            rows = other_df.where(program_counter={pc!r}) if {pc!r} else other_df
            if len(rows) == 0:
                continue
            policy_name = other_key.split("_evictions_")[-1]
            rates[policy_name] = sum(rows["is_miss"].values) / len(rows)
        if not rates:
            result = "No matching traces found for the comparison."
        else:
            ordered = sorted(rates.items(), key=lambda item: item[1])
            best = ordered[0] if {pick_lowest!r} else ordered[-1]
            payload["per_policy"] = rates
            payload["best_policy"] = best[0]
            payload["exact_match"] = True
            listing = ", ".join(f"{{name}}: {{rate * 100:.2f}}%" for name, rate in ordered)
            result = (f"Miss rates per policy{scope}: {{listing}}. "
                      f"{winner_phrase} is {{best[0]}}.")
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _pc_list(self, intent: QueryIntent) -> str:
        body = """
        pcs = df["program_counter"].unique()
        payload["pc_list"] = pcs
        payload["exact_match"] = True
        preview = ", ".join(pcs[:40])
        result = f"There are {len(pcs)} unique PCs in {key}: {preview}"
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _set_analysis(self, intent: QueryIntent) -> str:
        body = """
        per_set = {}
        for set_id, outcome in zip(df["cache_set_id"].values, df["evict"].values):
            stats = per_set.setdefault(set_id, [0, 0])
            stats[0] += 1
            if outcome == "Cache Hit":
                stats[1] += 1
        summary = {set_id: {"accesses": values[0], "hits": values[1],
                            "hit_rate": (values[1] / values[0]) if values[0] else 0.0}
                   for set_id, values in per_set.items()}
        ordered = sorted(summary.items(), key=lambda item: item[1]["hit_rate"], reverse=True)
        hot = [set_id for set_id, _stats in ordered[:5]]
        cold = [set_id for set_id, _stats in ordered[-5:]]
        payload["set_stats"] = summary
        payload["hot_sets"] = hot
        payload["cold_sets"] = cold
        payload["exact_match"] = True
        result = (f"{key}: {len(summary)} sets accessed. Hot sets (by hit rate): {hot}. "
                  f"Cold sets: {cold}.")
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _workload_analysis(self, intent: QueryIntent) -> str:
        policy = intent.policy
        body = f"""
        summaries = {{}}
        for other_key in sorted(loaded_data):
            if {policy!r} and not other_key.endswith("_" + {policy!r}):
                continue
            other_df = loaded_data[other_key]["data_frame"]
            workload_name = other_key.split("_evictions_")[0]
            policy_name = other_key.split("_evictions_")[-1]
            total = len(other_df)
            misses = sum(other_df["is_miss"].values)
            summaries.setdefault(workload_name, {{}})[policy_name] = (
                (misses / total * 100.0) if total else 0.0)
        if not summaries:
            result = "No traces matched the requested policy."
        else:
            payload["workload_summaries"] = summaries
            payload["exact_match"] = True
            listing = "; ".join(
                f"{{workload_name}}: " + ", ".join(
                    f"{{policy_name}} {{rate:.2f}}%"
                    for policy_name, rate in sorted(policy_rates.items()))
                for workload_name, policy_rates in sorted(summaries.items()))
            result = f"Per-workload miss rates: {{listing}}"
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _pc_context(self, intent: QueryIntent) -> str:
        pc = intent.pc
        body = f"""
        rows = df.where(program_counter={pc!r}) if {pc!r} else df.head(5)
        if len(rows) == 0:
            result = f"PC {pc} not found in {{key}}; metadata: {{metadata}}"
        else:
            first = rows.row(0)
            misses = sum(rows["is_miss"].values)
            total = len(rows)
            payload["miss_rate"] = misses / total if total else 0.0
            payload["function_name"] = first.get("function_name", "")
            payload["assembly"] = first.get("assembly_code", "")
            payload["exact_match"] = True
            result = (f"PC {pc} in {{key}}: {{total}} accesses, miss rate "
                      f"{{(misses / total * 100.0) if total else 0.0:.2f}}%, "
                      f"function {{first.get('function_name', '')}}. "
                      f"Assembly: {{first.get('assembly_code', '')[:200]}} "
                      f"Metadata: {{metadata}}")
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    def _fallback(self, intent: QueryIntent) -> str:
        body = """
        result = (f"Trace {key}: {len(df)} recorded LLC accesses. "
                  f"Metadata: {metadata} "
                  f"Description: {entry['description']}")
        payload["descriptions"] = {key: entry["description"]}
        """
        return _header(intent.workload, intent.policy) + _indent(body)

    # ------------------------------------------------------------------
    # realistic failure modes
    # ------------------------------------------------------------------
    def _flawed(self, intent: QueryIntent) -> str:
        """Code with a plausible LLM mistake (wrong column / key format)."""
        pc = intent.pc
        workload = intent.workload or "astar"
        policy = intent.policy or "lru"
        # The classic mistakes: a malformed trace key and a wrong column name.
        body = f"""
key = f"{workload}_{policy}_evictions"
payload = {{}}
entry = loaded_data[key]
df = entry["data_frame"]
rows = df.where(hit_miss={pc!r})
result = f"Found {{len(rows)}} rows."
"""
        return textwrap.dedent(body)
