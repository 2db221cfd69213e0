"""The fresh-process workloads: ``ask-cold`` and ``grid-sweep``.

Each round runs ``child.py`` in a new process with a new store directory;
the parent checks the round's outputs against the oracles and keeps the
samples.  Rounds repeat until ``--seconds`` are spent and the metrics are
taken over the untraced rounds (see ``_metrics``), so the rounds are kept
short enough that a run holds ten or more.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import layers
import oracles
from common import HERE, BenchError, Run, child_env, p95, pin_fastest_cpu


def run_child(run: Run, job: Dict[str, Any]) -> Dict[str, Any]:
    """One round in a fresh process on the fastest CPU; adds its
    ``setup_s``."""
    path = os.path.join(run.fresh_dir("job-"), "job.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    pin_fastest_cpu()
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), path],
            env=child_env(), capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{job['workload']} round timed out") from error
    if done.returncode != 0:
        raise BenchError(f"{job['workload']} round failed:\n"
                         + done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def rounds(run: Run, job: Dict[str, Any], check) -> Dict[str, list]:
    """Rounds until ``--seconds`` are spent; with tracing on they alternate
    untraced and traced, at least one of each."""
    done: Dict[str, list] = {"plain": [], "traced": []}
    deadline = time.monotonic() + run.seconds
    index = 0
    while (time.monotonic() < deadline or not done["plain"]
           or (run.trace and not done["traced"])):
        traced = run.trace and index % 2 == 1
        round_job = dict(job, store_dir=run.fresh_dir("store-"),
                         trace_out=None)
        if traced:
            round_job["trace_out"] = run.span_file(f"round-{index}.jsonl")
        result = run_child(run, round_job)
        shutil.rmtree(round_job["store_dir"], ignore_errors=True)
        result["trace_out"] = round_job["trace_out"]
        check(result)
        done["traced" if traced else "plain"].append(result)
        index += 1
    return done


def _metrics(run: Run, plain: List[dict],
             accuracy: List[float]) -> Dict[str, float]:
    """The figures every fresh-process workload shares.

    Every round repeats identical work, and on a shared host other tenants
    can only add time: this host switches between a fast regime and one up
    to 1.7x slower for stretches of seconds to minutes, and the slow one can
    hold most of a run.  So each timing is the fastest repetition (best of
    N, as ``timeit`` does), which reads the same whenever a run sees the
    fast regime at all, where a median or low percentile follows the share
    of slow rounds."""
    run.samples.update({key: [result[key] for result in plain]
                        for key in ("setup_s", "cold_s", "maxrss_mb")})
    run.samples["warm_s"] = [result["warm_s"] for result in plain]
    return {
        "setup_s": statistics.median(run.samples["setup_s"]),
        "cold_s": min(run.samples["cold_s"]),
        "grounded_accuracy": statistics.median(accuracy),
        "peak_rss_mb": statistics.median(run.samples["maxrss_mb"]),
    }


def ask_cold(run: Run, params) -> Dict[str, Any]:
    from repro.sim.config import resolve_config

    oracle = oracles.matrix_oracle(params["workloads"], params["policies"],
                                   params["num_accesses"], run.seed,
                                   resolve_config(params["config"]))
    questions = oracles.grounded_questions(oracle, params["workloads"],
                                           params["policies"], run.seed)
    accuracy: List[float] = []

    def check(result):
        accuracy.append(run.score_answers(questions, result["answers"]))

    done = rounds(run, {"workload": "ask-cold", "params": params,
                        "seed": run.seed, "questions": questions}, check)
    plain = done["plain"]
    metrics = _metrics(run, plain, accuracy)
    # Each follow-up is asked once per round: its fastest time over the
    # rounds, then the mean and tail over the follow-ups.  The tail is of
    # what the questions cost, not of how often a neighbour got in the way.
    follow_ups = [min(result["warm_s"][index] for result in plain)
                  for index in range(len(questions) - 1)]
    metrics.update({
        "warm_ms": statistics.mean(follow_ups) * 1000.0,
        "warm_p95_ms": p95(follow_ups) * 1000.0,
        "throughput_per_s": len(questions) / (metrics["cold_s"]
                                              + sum(follow_ups)),
    })
    return {"metrics": metrics,
            "layers": (layers.cold_layers(done, ("op.cold_ask",))
                       if run.trace else None)}


def grid_sweep(run: Run, params) -> Dict[str, Any]:
    from child import grid_spec

    spec = grid_spec(params, run.seed)
    oracle = oracles.grid_oracle(spec.workloads, spec.policies, spec.configs,
                                 params["num_accesses"], run.seed)
    accuracy: List[float] = []

    def check(result):
        columns = result["cold_columns"]
        cells = len(columns["workload"])
        matching = 0
        for row in range(cells):
            key = (columns["workload"][row], columns["policy"][row],
                   columns["config"][row])
            got = {name: columns[name][row]
                   for name in ("miss_rate", "hits", "misses")}
            run.attempted += 1
            if got == oracle.get(key):
                matching += 1
            else:
                run.problem(f"cell {key}: {got} != stats replay "
                            f"{oracle.get(key)}")
        if cells != len(oracle):
            run.problem(f"grid has {cells} cells, the oracle {len(oracle)}")
        run.attempted += len(result["warm_s"])
        if not result["warm_equal"] or any(result["warm_simulations"]):
            run.problem(f"warm grid differs from the cold grid or "
                        f"re-simulated ({result['warm_simulations']})")
        accuracy.append(matching / max(1, cells))

    done = rounds(run, {"workload": "grid-sweep", "params": params,
                        "seed": run.seed,
                        "warm_repeats": params["warm_repeats"]}, check)
    plain = done["plain"]
    metrics = _metrics(run, plain, accuracy)
    # The fastest warm re-run over every round's; the tail is over the
    # re-runs of a round (the first after the cold grid costs the most),
    # each at its fastest over the rounds, as ask-cold's follow-ups.
    re_runs = [min(result["warm_s"][index] for result in plain)
               for index in range(params["warm_repeats"])]
    metrics.update({
        "warm_ms": min(re_runs) * 1000.0,
        "warm_p95_ms": p95(re_runs) * 1000.0,
        "throughput_per_s": plain[0]["cells"] / metrics["cold_s"],
    })
    return {"metrics": metrics,
            "layers": (layers.cold_layers(done, ("op.grid_cold",
                                                 "op.grid_warm"))
                       if run.trace else None)}
