"""Per-layer figures from traced rounds (``--trace 1``).

Every figure is a total per operation (see ``spec.MOVES`` for what the
operation is on each workload); self times come from the span files the
traced processes write.  ``trace.coverage`` is the share of operation time
spent inside layer spans and ``trace.overhead_ratio`` the traced operation
time over the untraced one from the same run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import tracing

#: figures that are already ratios, so never divided per operation.
RATIOS = ("plan.jobs_per_question", "plan.simulations_per_question",
          "sim.replay_accesses_per_s")
STORE_READ = ("store.load_calls", "store.load_s", "store.bytes_read",
              "store.record_opens")


def figures(totals: Dict[str, Dict[str, float]],
            caches: List[Dict[str, int]]) -> Dict[str, float]:
    """Map span totals (``tracing.layer_totals``) onto the figure names."""
    def get(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0)

    questions = get("plan", "calls")
    misses = sum(cache["misses"] for cache in caches)
    replay_wall = get("sim.replay", "wall_s")
    return {
        "plan.calls": questions,
        "plan.s": get("plan"),
        "plan.jobs_per_question": (get("plan", "jobs") / questions
                                   if questions else 0.0),
        "plan.simulations_per_question": (misses / questions
                                          if questions else 0.0),
        "workloads.trace_calls": get("workloads.trace", "calls"),
        "workloads.trace_s": get("workloads.trace"),
        "sim.replay_runs": get("sim.replay", "calls"),
        "sim.replay_full_runs": get("sim.replay", "detail_full"),
        "sim.replay_s": get("sim.replay"),
        "sim.replay_accesses_per_s": (get("sim.replay", "accesses")
                                      / replay_wall if replay_wall else 0.0),
        "sim.batch_rollouts": get("sim.batch", "rollouts"),
        "sim.batch_s": get("sim.batch"),
        "tracedb.to_table_calls": get("tracedb.to_table", "calls"),
        "tracedb.to_table_s": get("tracedb.to_table"),
        "tracedb.statistics_s": get("tracedb.statistics"),
        "tracedb.make_entry_s": get("tracedb.make_entry"),
        "store.save_calls": get("store.save", "calls"),
        "store.save_s": get("store.save"),
        "store.bytes_written": get("store.save", "bytes"),
        "store.load_calls": get("store.load", "calls"),
        "store.load_s": get("store.load"),
        "store.bytes_read": get("store.load", "bytes"),
        "store.record_opens": get("store.open", "calls"),
        "simcache.hits": sum(cache["hits"] for cache in caches),
        "simcache.misses": misses,
        "simcache.store_hits": sum(cache["store_hits"] for cache in caches),
        "retrieval.calls": sum(get(name, "calls") for name in (
            "retrieval.sieve", "retrieval.ranger", "retrieval.embedding")),
        "retrieval.sieve_s": get("retrieval.sieve"),
        "retrieval.ranger_s": get("retrieval.ranger"),
        "retrieval.embedding_s": get("retrieval.embedding"),
        "analytics.execute_calls": get("analytics.execute", "calls"),
        "analytics.execute_s": get("analytics.execute"),
        "analytics.rows_in": get("analytics.execute", "rows"),
        "generate.calls": get("generate", "calls"),
        "generate.s": get("generate"),
        "memory.calls": get("memory", "calls"),
        "memory.s": get("memory"),
        "serve.lock_wait_s": get("serve.ask_batch"),
        "serve.handler_s": 0.0,
        "serve.shed": 0.0,
        "client.retries": 0.0,
        "experiment.compile_s": get("experiment.compile"),
        "experiment.execute_s": get("experiment.run"),
        "experiment.simulations_run": get("experiment.run",
                                          "simulations_run"),
        "experiment.store_hits": get("experiment.run", "store_hits"),
        "experiment.batch_cells": get("experiment.run", "batch_cells"),
    }


def _medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def cold_layers(rounds: Dict[str, list], op_names) -> Dict[str, float]:
    """Median per-round figures over the traced fresh-process rounds.

    A round's operations are its first span of each name in ``op_names``
    (so a grid round counts its cold run and one warm re-run).
    """
    rows = []
    for result in rounds["traced"]:
        tree = tracing.SpanTree(tracing.read_spans(result["trace_out"]))
        ops = [tree.roots(name)[0] for name in op_names]
        row = figures(tracing.layer_totals(tree, ops), result["caches"])
        duration = sum(op["end"] - op["start"] for op in ops)
        row["trace.coverage"] = (sum(tree.layer_covered_ns(op) for op in ops)
                                 / duration)
        rows.append(row)
    table = _medians(rows)
    traced = statistics.median(result["cold_s"] for result in rounds["traced"])
    plain = statistics.median(result["cold_s"] for result in rounds["plain"])
    table["trace.overhead_ratio"] = traced / plain
    return table
