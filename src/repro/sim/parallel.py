"""Parallel fan-out of (workload, policy) simulations.

:class:`ParallelSimulator` runs many independent simulations over a
``concurrent.futures`` executor — a process pool by default, with automatic
fallback to threads and then to serial execution when process pools are
unavailable (restricted environments, unpicklable payloads, missing ``fork``
support).  A crashed worker (``BrokenProcessPool``) no longer kills the whole
build: only the jobs that failed are re-dispatched into a fresh pool and, if
that fails too, run serially in the caller.  Results come back in submission
order and every job is deterministic (crc32-seeded workload generators,
seeded policies), so a recovered build is byte-identical to a clean one.
Recovery telemetry for the last run is in :attr:`ParallelSimulator.recovery`.

The simulator is deliberately cache-agnostic: callers that memoise (the
:class:`~repro.core.pipeline.SimulationCache`) dispatch only their cache
misses here and install the returned results back into the cache, so
memoisation and parallelism compose.  Workers return results only: a
database entry is an in-memory view the caller derives from its result.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults import InjectedFault, ensure_env_plan, fault_point
from repro.sim.config import HierarchyConfig, SMALL_CONFIG
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.workloads.generator import get_workload
from repro.workloads.trace import MemoryTrace

#: Executor strategies accepted by :class:`ParallelSimulator`.
EXECUTORS = ("auto", "process", "thread", "serial")


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given (one per CPU)."""
    return max(1, os.cpu_count() or 1)


@dataclass
class SimulationJob:
    """One (workload, policy) simulation request.

    ``trace`` may carry a pre-generated trace (pickled to workers); when it
    is ``None`` the worker regenerates the trace from ``(workload,
    num_accesses, seed)``, which is deterministic and keeps payloads small.
    """

    workload: str
    policy: str
    num_accesses: int = 20000
    seed: int = 0
    trace: Optional[MemoryTrace] = None

    def key(self) -> tuple:
        """Identity for dedup: two jobs with equal keys produce identical
        outputs.  A supplied trace is identified by its content fingerprint
        (buffer-hashed, cheap) rather than object identity, so equal traces
        merge."""
        trace_identity = (None if self.trace is None
                          else self.trace.fingerprint())
        return (self.workload, self.policy, self.num_accesses, self.seed,
                trace_identity)


#: Failures that mean the executor *infrastructure* broke — a killed or
#: crashed worker (``BrokenExecutor``), a sandbox forbidding process spawn
#: (``OSError``), an unpicklable payload, or an injected chaos fault.
#: Jobs failing this way are re-dispatched; genuine simulation errors raise
#: other types and propagate.
RETRYABLE_FAILURES = (BrokenExecutor, OSError, pickle.PicklingError,
                      InjectedFault)


def _execute_job(payload: tuple) -> SimulationResult:
    """Top-level worker (must be importable for process pools)."""
    ensure_env_plan()
    fault_point("worker.simulate")
    (job, config, mode, max_records, detail) = payload
    trace = job.trace
    if trace is None:
        trace = get_workload(job.workload, seed=job.seed).generate(
            job.num_accesses)
    engine = SimulationEngine(config=config, mode=mode,
                              max_records=max_records, detail=detail)
    return engine.run(trace, job.policy)


class ParallelSimulator:
    """Fan (workload, policy) simulations out over an executor.

    ``executor`` is one of ``"auto"`` (process pool, falling back to threads
    then serial), ``"process"``, ``"thread"`` or ``"serial"``.  The executor
    actually used for the last call is recorded in :attr:`last_executor`.
    """

    def __init__(self, jobs: Optional[int] = None, executor: str = "auto",
                 config: HierarchyConfig = SMALL_CONFIG,
                 mode: str = "llc_only",
                 max_records: Optional[int] = None,
                 detail: str = "full"):
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}")
        self.jobs = jobs if jobs is not None and jobs > 0 else default_jobs()
        self.executor = executor
        self.config = config
        self.mode = mode
        self.max_records = max_records
        self.detail = detail
        self.last_executor: Optional[str] = None
        #: Strategy telemetry for the last ``run_*`` call: the executor
        #: that finished the work and why it was chosen (``"requested"``,
        #: ``"jobs=1"``, ``"single job"``, ``"single-core host"`` or
        #: ``"parallel"``), so logs can explain themselves.
        self.last_strategy: Dict[str, Optional[str]] = {"executor": None,
                                                        "reason": None}
        #: Recovery telemetry for the last ``run_*`` call: how many jobs
        #: were re-dispatched after a pool failure, how many fresh pools
        #: were spun up, and how many jobs fell back to serial execution.
        self.recovery: Dict[str, int] = {"retried_jobs": 0,
                                         "pools_replaced": 0,
                                         "serial_jobs": 0}

    # ------------------------------------------------------------------
    def run_results(self, jobs: Sequence[SimulationJob]) -> List[SimulationResult]:
        """Simulate every job; results in submission order.

        Duplicate jobs (batched serving plans that missed a merge) run
        once: the unique key set is simulated, then each result fans back
        out to every submission slot.  The shared object is safe to alias
        — results are treated as immutable across the codebase.
        """
        unique_index: dict = {}
        unique_jobs: List[SimulationJob] = []
        slots: List[int] = []
        for job in jobs:
            key = job.key()
            if key not in unique_index:
                unique_index[key] = len(unique_jobs)
                unique_jobs.append(job)
            slots.append(unique_index[key])
        unique_results = self._map_unique(unique_jobs)
        return [unique_results[slot] for slot in slots]

    # ------------------------------------------------------------------
    def _map_unique(self, jobs: Sequence[SimulationJob]
                    ) -> List[SimulationResult]:
        payloads = [(job, self.config, self.mode, self.max_records,
                     self.detail) for job in jobs]
        self.recovery = {"retried_jobs": 0, "pools_replaced": 0,
                         "serial_jobs": 0}
        workers = min(self.jobs, len(payloads)) or 1
        serial_reason: Optional[str] = None
        if self.executor == "serial":
            serial_reason = "requested"
        elif workers <= 1:
            serial_reason = "jobs=1" if self.jobs <= 1 else "single job"
        elif self.executor == "auto" and (os.cpu_count() or 1) <= 1:
            # Pool dispatch + pickling cannot be repaid when every worker
            # shares one core: auto degrades to serial instead of running
            # measurably slower than the serial build.
            serial_reason = "single-core host"
        if serial_reason is not None:
            self.last_executor = "serial"
            self.last_strategy = {"executor": "serial",
                                  "reason": serial_reason}
            return [_execute_job(payload) for payload in payloads]

        attempts: Tuple[str, ...]
        if self.executor == "auto":
            attempts = ("process", "thread")
        else:
            attempts = (self.executor,)
        results: list = [None] * len(payloads)
        remaining = list(range(len(payloads)))
        finished_kind: Optional[str] = None
        for kind in attempts:
            pool_cls = (ProcessPoolExecutor if kind == "process"
                        else ThreadPoolExecutor)
            # Two rounds per executor kind: the original pool, then — if any
            # job failed retryably (e.g. a crashed worker broke the pool) —
            # one fresh pool running only the failed jobs.
            for round_index in range(2):
                if not remaining:
                    break
                if round_index:
                    self.recovery["pools_replaced"] += 1
                    self.recovery["retried_jobs"] += len(remaining)
                remaining = self._run_pool(pool_cls, workers, payloads,
                                           results, remaining)
            if not remaining:
                finished_kind = kind
                break
        if remaining:
            # Last resort: the failed jobs run serially in this process.
            # Determinism makes the recovered results identical to a clean
            # parallel run's.
            self.recovery["serial_jobs"] = len(remaining)
            for index in remaining:
                results[index] = _execute_job(payloads[index])
            finished_kind = "serial"
        self.last_executor = finished_kind
        self.last_strategy = {"executor": finished_kind,
                              "reason": "parallel"}
        return results

    def _run_pool(self, pool_cls, workers: int, payloads: List[tuple],
                  results: list, indexes: List[int]) -> List[int]:
        """Run ``payloads[i]`` for each ``i`` in ``indexes`` on one pool,
        writing successes into ``results``.  Returns the indexes that failed
        retryably; genuine simulation errors propagate."""
        try:
            pool = pool_cls(max_workers=min(workers, len(indexes)) or 1)
        except RETRYABLE_FAILURES:
            return list(indexes)
        failed: List[int] = []
        futures: List[Tuple[int, Future]] = []
        try:
            for index in indexes:
                try:
                    futures.append((index,
                                    pool.submit(_execute_job, payloads[index])))
                except RETRYABLE_FAILURES:
                    failed.append(index)
            for index, future in futures:
                try:
                    results[index] = future.result()
                except RETRYABLE_FAILURES:
                    failed.append(index)
        finally:
            pool.shutdown(wait=True)
        return failed
