"""One cold round of a workload, in a process of its own.

    python3 perfbench/child.py JOB.json

Cold rounds never share a process: garbage and peak memory left by one round
would otherwise show up in the next round's set-up time and RSS.  The job
file names the workload parameters, the questions (ask-cold) and a fresh
store directory; the round's measurements go to standard output as one JSON
line.  ``trace_out`` in the job turns span recording on for the round.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext

from repro import CacheMind, ExperimentRunner, ExperimentSpec, SimulationCache
from repro.sim.config import resolve_config

import tracing
from common import answer_dict


def ask_cold(job, span) -> dict:
    params = job["params"]
    questions = [item["q"] for item in job["questions"]]
    started = time.monotonic()
    with span("op.cold_ask"):
        session = CacheMind(workloads=params["workloads"],
                            policies=params["policies"],
                            num_accesses=params["num_accesses"],
                            config=resolve_config(params["config"]),
                            seed=job["seed"], store_dir=job["store_dir"])
        answers = [session.ask(questions[0])]
    cold_s = time.monotonic() - started
    cold_cache = session.simulation_cache.stats()
    warm_s = []
    for question in questions[1:]:
        asked = time.monotonic()
        with span("op.warm_ask"):
            answers.append(session.ask(question))
        warm_s.append(time.monotonic() - asked)
    return {"ready": started, "cold_s": cold_s, "warm_s": warm_s,
            "answers": [answer_dict(answer) for answer in answers],
            "caches": [cold_cache]}


def grid_spec(params, seed: int) -> ExperimentSpec:
    base = resolve_config(params["config"])
    configs = [base, base.scaled_llc(2 * base.llc.size_bytes,
                                     name=f"{base.name}-llc2x")]
    return ExperimentSpec(workloads=params["workloads"],
                          policies=params["policies"], configs=configs,
                          num_accesses=params["num_accesses"], seeds=seed)


def grid_sweep(job, span) -> dict:
    spec = grid_spec(job["params"], job["seed"])
    started = time.monotonic()
    with span("op.grid_cold"):
        cache = SimulationCache(store=job["store_dir"])
        cold = ExperimentRunner(simulation_cache=cache).run(spec)
    cold_s = time.monotonic() - started
    # The layer figures count the cold run and the first warm re-run.
    caches = [cache.stats()]
    warm_s, warm_simulations, warm_equal = [], [], True
    for _ in range(job["warm_repeats"]):
        began = time.monotonic()
        with span("op.grid_warm"):
            # A fresh memoiser each time: the only warmth is the store.
            cache = SimulationCache(store=job["store_dir"])
            warm = ExperimentRunner(simulation_cache=cache).run(spec)
        warm_s.append(time.monotonic() - began)
        warm_simulations.append(warm.counters["simulations_run"])
        warm_equal = warm_equal and warm.columns == cold.columns
        if len(caches) < 2:
            caches.append(cache.stats())
    return {"ready": started, "cold_s": cold_s, "warm_s": warm_s,
            "cells": len(cold), "cold_columns": cold.columns,
            "warm_simulations": warm_simulations,
            "warm_equal": warm_equal, "caches": caches}


def main(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        job = json.load(handle)
    recorder = None
    if job.get("trace_out"):
        recorder = tracing.Recorder()
        tracing.install(recorder)
    span = recorder.span if recorder is not None else (
        lambda name: nullcontext())
    run = {"ask-cold": ask_cold, "grid-sweep": grid_sweep}[job["workload"]]
    result = run(job, span)
    result["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.write(job["trace_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
