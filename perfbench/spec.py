"""What the benchmark runs and what each figure means.

``BENCHMARK.json`` at the repository root holds the names, units,
directions and regression bounds the contract needs; this module holds the
rest: the fixed parameters of each workload, what every end-to-end metric
measures on each workload (with the workload-specific name it is printed
under by ``run.py --workload all``) and which end-to-end metric each
per-layer figure should move.  Result files record ``VERSION`` and the
parameters, and ``compare.py`` refuses to compare results whose version or
parameters differ.
"""

from __future__ import annotations

import json
import os

#: bump whenever a workload, its parameters or a metric definition changes.
VERSION = 4

MATRIX_WORKLOADS = ["astar", "lbm", "mcf"]
MATRIX_POLICIES = ["belady", "lru", "mlp", "parrot"]

PARAMS = {
    # A fresh process, session and store per round; the first question
    # names one pair, the follow-ups cover every trace-grounded kind.  The
    # trace length keeps a round near 2 s, so a run holds ten or more.
    "ask-cold": {"workloads": MATRIX_WORKLOADS, "policies": MATRIX_POLICIES,
                 "num_accesses": 1500, "config": "small"},
    # A warm read-only replica, its conversation memory filled to the cap,
    # under a closed loop: each client sends its next request only when
    # the previous reply has arrived.  Each pass asks the 56-question
    # interleaving (4 per kind) once.
    "serve-warm": {"workloads": MATRIX_WORKLOADS,
                   "policies": MATRIX_POLICIES, "num_accesses": 2000,
                   "config": "small", "clients": 2, "server_starts": 5,
                   "questions_per_kind": 4, "passes": 12},
    # The duplicated astar exercises the compile-time dedup; ship has no
    # native batch kernel, so the engine fallback runs too.
    "grid-sweep": {"workloads": ["astar", "lbm", "mcf", "astar"],
                   "policies": ["lru", "srrip", "belady", "ship"],
                   "config": "small", "num_accesses": 1000,
                   "warm_repeats": 8},
}

#: end-to-end metric -> workload -> (what it measures, workload name).
MEASURES = {
    "setup_s": {
        "ask-cold": ("child process start -> first timed operation",
                     "setup_s"),
        "serve-warm": ("server spawn -> ready line", "setup_s"),
        "grid-sweep": ("child process start -> first timed operation",
                       "setup_s"),
    },
    "cold_s": {
        "ask-cold": ("fresh session -> first answer (fastest round)",
                     "cold_ask_s"),
        "serve-warm": ("first answer on each retriever route of a freshly "
                       "started server, summed over the 3 routes, each at "
                       "its fastest over the starts", "serve_first_answers_s"),
        "grid-sweep": ("cold grid into a fresh store (fastest round)",
                       "grid_cold_s"),
    },
    "warm_ms": {
        "ask-cold": ("mean over the follow-ups of each one's fastest time "
                     "over the rounds", "warm_ask_mean_ms"),
        "serve-warm": ("median over the interleaving's questions of each "
                       "one's fastest latency over the passes",
                       "serve_p50_ms"),
        "grid-sweep": ("fastest warm re-run from the store, over every "
                       "round's re-runs", "grid_warm_ms"),
    },
    "warm_p95_ms": {
        "ask-cold": ("p95 over the follow-ups of each one's fastest time",
                     "warm_ask_p95_ms"),
        "serve-warm": ("p95 over the interleaving's questions of each one's "
                       "fastest latency", "serve_p95_ms"),
        "grid-sweep": ("p95 over a round's warm re-runs of each one's "
                       "fastest time over the rounds", "grid_warm_p95_ms"),
    },
    "throughput_per_s": {
        "ask-cold": ("questions a fresh session answers per second: all "
                     "questions / (cold ask + the follow-ups' times)",
                     "cold_session_answers_per_s"),
        "serve-warm": ("answers per second: clients / mean over the "
                       "questions of each one's fastest latency (Little's "
                       "law for a closed loop)", "serve_qps"),
        "grid-sweep": ("unique cells per second of the cold grid",
                       "grid_cold_cells_per_s"),
    },
    "grounded_accuracy": {
        "ask-cold": ("share of trace-grounded answers equal to the oracle",
                     "grounded_accuracy"),
        "serve-warm": ("share of trace-grounded answers equal to the oracle",
                       "grounded_accuracy"),
        "grid-sweep": ("share of cells equal to a direct stats replay",
                       "grid_cell_accuracy"),
    },
    "peak_rss_mb": {
        "ask-cold": ("peak RSS of a cold round's process", "peak_rss_mb"),
        "serve-warm": ("peak RSS of the server after the memory fill and "
                       "the timed passes", "peak_rss_mb"),
        "grid-sweep": ("peak RSS of a grid round's process", "peak_rss_mb"),
    },
}

#: per-layer figure -> the end-to-end metric and workload it should move.
#: Figures are totals per operation: one cold ask (ask-cold), one cold grid
#: plus one warm re-run (grid-sweep), one request (serve-warm).  On
#: serve-warm the store-read figures are per server start instead, since a
#: warm replica reads the store only while starting.
MOVES = {
    "plan.calls": "cold_s on ask-cold",
    "plan.s": "cold_s on ask-cold",
    "plan.jobs_per_question": "cold_s on ask-cold",
    "plan.simulations_per_question": "cold_s on ask-cold",
    "workloads.trace_calls": "cold_s on ask-cold and grid-sweep",
    "workloads.trace_s": "cold_s on ask-cold and grid-sweep",
    "sim.replay_runs": "cold_s on ask-cold",
    "sim.replay_full_runs": "cold_s on ask-cold",
    "sim.replay_s": "cold_s on ask-cold",
    "sim.replay_accesses_per_s": "cold_s on ask-cold",
    "sim.batch_rollouts": "cold_s and throughput_per_s on grid-sweep",
    "sim.batch_s": "cold_s and throughput_per_s on grid-sweep",
    "tracedb.to_table_calls": "cold_s, peak_rss_mb on ask-cold; grid-sweep",
    "tracedb.to_table_s": "cold_s, peak_rss_mb on ask-cold; grid-sweep",
    "tracedb.statistics_s": "cold_s on ask-cold and grid-sweep",
    "tracedb.make_entry_s": "cold_s on ask-cold and grid-sweep",
    "store.save_calls": "cold_s on ask-cold and grid-sweep",
    "store.save_s": "cold_s on ask-cold and grid-sweep",
    "store.bytes_written": "cold_s on ask-cold and grid-sweep",
    "store.load_calls": "setup_s on serve-warm, warm_ms on grid-sweep",
    "store.load_s": "setup_s on serve-warm, warm_ms on grid-sweep",
    "store.bytes_read": "setup_s on serve-warm, warm_ms on grid-sweep",
    "store.record_opens": "setup_s on serve-warm, warm_ms on grid-sweep",
    "simcache.hits": "explains the store rows",
    "simcache.misses": "explains the store rows",
    "simcache.store_hits": "explains the store rows",
    "retrieval.calls": "warm_ms, warm_p95_ms, throughput_per_s on serve-warm",
    "retrieval.sieve_s": "warm_ms, warm_p95_ms, throughput_per_s on serve-warm",
    "retrieval.ranger_s": "warm_ms, warm_p95_ms, throughput_per_s on serve-warm",
    "retrieval.embedding_s": "warm_ms, warm_p95_ms on serve-warm",
    "analytics.execute_calls": "warm_ms, warm_p95_ms on serve-warm",
    "analytics.execute_s": "warm_ms, warm_p95_ms on serve-warm",
    "analytics.rows_in": "warm_ms, warm_p95_ms on serve-warm",
    "generate.calls": "warm_ms on serve-warm",
    "generate.s": "warm_ms on serve-warm",
    "memory.calls": "warm_ms, throughput_per_s on serve-warm",
    "memory.s": "warm_ms, throughput_per_s on serve-warm",
    "serve.lock_wait_s": "warm_p95_ms, throughput_per_s on serve-warm",
    "serve.handler_s": "warm_p95_ms, throughput_per_s on serve-warm",
    "serve.shed": "warm_p95_ms, throughput_per_s on serve-warm",
    "client.retries": "warm_p95_ms, throughput_per_s on serve-warm",
    "experiment.compile_s": "cold_s, warm_ms on grid-sweep",
    "experiment.execute_s": "cold_s, warm_ms on grid-sweep",
    "experiment.simulations_run": "cold_s, warm_ms on grid-sweep",
    "experiment.store_hits": "cold_s, warm_ms on grid-sweep",
    "experiment.batch_cells": "cold_s, warm_ms on grid-sweep",
    "trace.coverage": "share of each operation's time inside layer spans",
    "trace.overhead_ratio": "traced / untraced operation time",
}


def load_benchmark(root: str) -> dict:
    """The contract file (names, units, directions, bounds)."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)
