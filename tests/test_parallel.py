"""ParallelSimulator and parallel database builds.

Serial and parallel builds must be byte-identical: deterministic traces and
policies make every rollout independent of where it runs.
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import repro.sim.parallel as parallel_module
from repro.core.pipeline import CacheMind, SimulationCache
from repro.sim.batch import RolloutSpec
from repro.sim.config import TINY_CONFIG
from repro.sim.parallel import ParallelSimulator
from repro.workloads.generator import (
    generate_trace,
    register_workload,
    unregister_workload,
)
from repro.workloads.ingest import register_trace
from repro.workloads.spec import AstarWorkload

WORKLOADS = ("astar", "lbm")
POLICIES = ("lru", "belady")
NUM_ACCESSES = 800


def _table_bytes(entry):
    """Canonical byte representation of one entry's data frame."""
    return json.dumps(list(entry.data_frame.iter_rows()), sort_keys=True,
                      default=str).encode("utf-8")


def _build(jobs, workloads=WORKLOADS):
    """A fresh session's database (the one way to build one)."""
    return CacheMind(workloads=workloads, policies=POLICIES,
                     num_accesses=NUM_ACCESSES, config=TINY_CONFIG,
                     simulation_cache=SimulationCache(), jobs=jobs).database


def _assert_same_tables(serial, parallel):
    assert serial.keys() == parallel.keys()
    for key in serial.keys():
        assert _table_bytes(serial.entry(key)) == _table_bytes(parallel.entry(key))


def test_parallel_build_identical_to_serial(process_pools):
    serial = _build(jobs=1)
    parallel = _build(jobs=2)
    assert len(process_pools) == 1
    assert serial.keys() == parallel.keys()
    for key in serial.keys():
        serial_entry, parallel_entry = serial.entry(key), parallel.entry(key)
        assert _table_bytes(serial_entry) == _table_bytes(parallel_entry)
        assert serial_entry.metadata == parallel_entry.metadata
        assert serial_entry.description == parallel_entry.description
        assert serial_entry.statistics == parallel_entry.statistics


def test_parallel_build_ships_ingested_traces(monkeypatch, process_pools):
    """Every task a parallel build dispatches carries its trace, so an
    ingested trace (which exists only in this process's registry or a
    store manifest) replays in a worker too."""
    name = register_trace(generate_trace("astar", NUM_ACCESSES, seed=3),
                          name="ingested_parallel")
    dispatched = []
    run_results = ParallelSimulator.run_results

    def recording(simulator, tasks):
        dispatched.extend(tasks)
        return run_results(simulator, tasks)

    monkeypatch.setattr(ParallelSimulator, "run_results", recording)
    try:
        serial = _build(jobs=1, workloads=(name,))
        assert dispatched == []
        parallel = _build(jobs=2, workloads=(name,))
    finally:
        unregister_workload(name)
    assert [spec.policy for _trace, spec in dispatched] == list(POLICIES)
    assert all(trace.workload == name for trace, _spec in dispatched)
    assert len(process_pools) == 1
    _assert_same_tables(serial, parallel)


def test_runtime_workload_replays_in_spawned_workers(monkeypatch,
                                                     process_pools):
    """A workload registered at run time is unknown to a spawn-started
    worker's registry (the default start method on macOS and Windows); its
    tasks still replay there because they carry their traces."""

    class SpawnPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None):
            super().__init__(max_workers=max_workers,
                             mp_context=multiprocessing.get_context("spawn"))

    class RuntimeAstar(AstarWorkload):
        name = "runtime_astar"

    register_workload(RuntimeAstar)
    try:
        serial = _build(jobs=1, workloads=(RuntimeAstar.name,))
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", SpawnPool)
        parallel = _build(jobs=2, workloads=(RuntimeAstar.name,))
    finally:
        unregister_workload(RuntimeAstar.name)
    _assert_same_tables(serial, parallel)


def _tasks():
    return [(generate_trace(workload, NUM_ACCESSES, seed=0),
             RolloutSpec(policy, TINY_CONFIG))
            for workload in WORKLOADS for policy in POLICIES]


def test_run_results_order_and_serial_fallback(monkeypatch, process_pools):
    """A pool that cannot start is tried twice, then every task runs
    serially in the caller; results keep submission order."""
    def no_pool(max_workers=None):
        raise OSError("process spawning is forbidden here")

    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", no_pool)
    tasks = _tasks()
    simulator = ParallelSimulator(jobs=4)
    results = simulator.run_results(tasks)
    assert [(result.workload, result.policy_name) for result in results] == \
           [(trace.workload, spec.policy) for trace, spec in tasks]
    assert all(result.llc_stats.accesses == NUM_ACCESSES for result in results)
    assert simulator.recovery == {"retried_jobs": len(tasks),
                                  "pools_replaced": 1,
                                  "serial_jobs": len(tasks)}


def test_cachemind_parallel_build_matches_serial():
    kwargs = dict(workloads=list(WORKLOADS), policies=list(POLICIES),
                  num_accesses=NUM_ACCESSES, config=TINY_CONFIG, seed=0)
    serial_session = CacheMind(simulation_cache=SimulationCache(), **kwargs)
    parallel_session = CacheMind(simulation_cache=SimulationCache(), jobs=2,
                                 **kwargs)
    assert serial_session.compare_policies() == parallel_session.compare_policies()
    for key in serial_session.database.keys():
        assert (_table_bytes(serial_session.database.entry(key))
                == _table_bytes(parallel_session.database.entry(key)))


def test_parallel_results_flow_back_into_simulation_cache():
    cache = SimulationCache()
    kwargs = dict(workloads=["astar"], policies=list(POLICIES),
                  num_accesses=NUM_ACCESSES, config=TINY_CONFIG, seed=0)
    first = CacheMind(simulation_cache=cache, jobs=2, **kwargs)
    _ = first.database
    misses_after_first = cache.misses
    assert misses_after_first == len(POLICIES)
    # A second parallel session re-simulates nothing: every pair is a
    # memoiser hit, so parallelism and memoisation compose.
    second = CacheMind(simulation_cache=cache, jobs=2, **kwargs)
    _ = second.database
    assert cache.misses == misses_after_first
    assert cache.hits >= len(POLICIES)
    # The memoised results also satisfy a single simulation.
    hits_before = cache.hits
    second.simulate("astar", "lru")
    assert cache.hits == hits_before + 1
    assert cache.misses == misses_after_first
