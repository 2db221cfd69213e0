"""Fan rollouts out over worker processes.

:class:`ParallelSimulator` replays ``(trace, RolloutSpec)`` tasks over one
process pool, each as a one-rollout
:class:`~repro.sim.batch.BatchSimulator` pass, so a worker result is
byte-identical to a serial one.  Every task carries its trace, so a worker
needs no workload registry: a workload registered at run time, or an
ingested trace, replays in a spawn-started worker too.

A task that fails for infrastructure reasons (:data:`RETRYABLE_FAILURES`:
a killed or crashed worker, a pool that cannot start, an unpicklable
payload, an injected fault) is re-dispatched once into a fresh pool and, if
that fails too, run serially in the caller; genuine simulation errors
propagate.  Results come back in submission order and every rollout is
deterministic, so a recovered run is byte-identical to a clean one.
Recovery telemetry for the last run is in :attr:`ParallelSimulator.recovery`.

The simulator is cache-agnostic: :meth:`SimulationCache.run_jobs
<repro.core.pipeline.SimulationCache.run_jobs>` sends it only the misses
of one call and installs the results.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Dict, List, Sequence, Tuple

from repro.faults import InjectedFault, ensure_env_plan, fault_point
from repro.sim.batch import BatchSimulator, RolloutSpec
from repro.sim.engine import SimulationResult
from repro.workloads.trace import MemoryTrace

#: One unit of work: a rollout of the trace it carries.
Task = Tuple[MemoryTrace, RolloutSpec]

#: Failures that mean the executor *infrastructure* broke — a killed or
#: crashed worker (``BrokenExecutor``), a sandbox forbidding process spawn
#: (``OSError``), an unpicklable payload, or an injected chaos fault.
#: Tasks failing this way are re-dispatched; genuine simulation errors
#: raise other types and propagate.
RETRYABLE_FAILURES = (BrokenExecutor, OSError, pickle.PicklingError,
                      InjectedFault)


def _execute_task(task: Task) -> SimulationResult:
    """Top-level worker (must be importable for process pools)."""
    ensure_env_plan()
    fault_point("worker.simulate")
    trace, spec = task
    return BatchSimulator(trace).run([spec])[0]


class ParallelSimulator:
    """Replay tasks over at most ``jobs`` worker processes."""

    #: The keys of :attr:`recovery`.
    RECOVERY_COUNTERS = ("retried_jobs", "pools_replaced", "serial_jobs")

    def __init__(self, jobs: int):
        self.jobs = jobs
        #: Recovery telemetry for the last :meth:`run_results` call: how
        #: many tasks were re-dispatched after a pool failure, how many
        #: fresh pools were spun up, and how many tasks fell back to
        #: serial execution.
        self.recovery: Dict[str, int] = dict.fromkeys(self.RECOVERY_COUNTERS,
                                                      0)

    def run_results(self, tasks: Sequence[Task]) -> List[SimulationResult]:
        """Replay every task; results in submission order.

        A single task, ``jobs=1`` or a single-core host runs serially in
        the caller: pool dispatch and pickling cannot be repaid there.
        """
        self.recovery = dict.fromkeys(self.RECOVERY_COUNTERS, 0)
        workers = min(self.jobs, len(tasks))
        if workers <= 1 or (os.cpu_count() or 1) <= 1:
            return [_execute_task(task) for task in tasks]
        results: list = [None] * len(tasks)
        remaining = self._run_pool(workers, tasks, results,
                                   range(len(tasks)))
        if remaining:
            # One fresh pool for the tasks that failed retryably (e.g. a
            # crashed worker broke the first pool).
            self.recovery["pools_replaced"] += 1
            self.recovery["retried_jobs"] += len(remaining)
            remaining = self._run_pool(workers, tasks, results, remaining)
        if remaining:
            # Last resort: the failed tasks run serially in this process.
            # Determinism makes the recovered results identical to a clean
            # parallel run's.
            self.recovery["serial_jobs"] = len(remaining)
            for index in remaining:
                results[index] = _execute_task(tasks[index])
        return results

    @staticmethod
    def _run_pool(workers: int, tasks: Sequence[Task], results: list,
                  indexes: Sequence[int]) -> List[int]:
        """Run ``tasks[i]`` for each ``i`` in ``indexes`` on one pool,
        writing successes into ``results``.  Returns the indexes that failed
        retryably; genuine simulation errors propagate."""
        try:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(indexes)))
        except RETRYABLE_FAILURES:
            return list(indexes)
        failed: List[int] = []
        futures: List[Tuple[int, Future]] = []
        try:
            for index in indexes:
                try:
                    futures.append((index, pool.submit(_execute_task,
                                                       tasks[index])))
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
