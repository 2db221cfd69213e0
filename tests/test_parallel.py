"""ParallelSimulator and parallel database builds.

Serial and parallel builds must be byte-identical: deterministic traces and
policies make every (workload, policy) simulation independent of where it
runs.
"""

import json

import pytest

from repro.core.pipeline import CacheMind, SimulationCache
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import ParallelSimulator, SimulationJob, default_jobs
from repro.workloads.generator import generate_trace, unregister_workload
from repro.workloads.ingest import register_trace

WORKLOADS = ("astar", "lbm")
POLICIES = ("lru", "belady")
NUM_ACCESSES = 800


def _table_bytes(entry):
    """Canonical byte representation of one entry's data frame."""
    return json.dumps(list(entry.data_frame.iter_rows()), sort_keys=True,
                      default=str).encode("utf-8")


def _build(jobs, executor="auto", workloads=WORKLOADS):
    """A fresh session's database (the one way to build one)."""
    return CacheMind(workloads=workloads, policies=POLICIES,
                     num_accesses=NUM_ACCESSES, config=TINY_CONFIG,
                     simulation_cache=SimulationCache(), jobs=jobs,
                     executor=executor).database


@pytest.mark.parametrize("executor", ["process", "thread"])
def test_parallel_build_identical_to_serial(executor):
    serial = _build(jobs=1)
    parallel = _build(jobs=2, executor=executor)
    assert serial.keys() == parallel.keys()
    for key in serial.keys():
        serial_entry, parallel_entry = serial.entry(key), parallel.entry(key)
        assert _table_bytes(serial_entry) == _table_bytes(parallel_entry)
        assert serial_entry.metadata == parallel_entry.metadata
        assert serial_entry.description == parallel_entry.description
        assert serial_entry.statistics == parallel_entry.statistics


def test_parallel_build_ships_ingested_traces(monkeypatch):
    """Workers cannot regenerate an ingested trace (it exists only in this
    process's registry or a store manifest), so every job a parallel build
    dispatches for one must carry the trace itself."""
    name = register_trace(generate_trace("astar", NUM_ACCESSES, seed=3),
                          name="ingested_parallel")
    dispatched = []
    run_results = ParallelSimulator.run_results

    def recording(simulator, jobs):
        dispatched.extend(jobs)
        return run_results(simulator, jobs)

    monkeypatch.setattr(ParallelSimulator, "run_results", recording)
    try:
        serial = _build(jobs=1, workloads=(name,))
        assert dispatched == []
        parallel = _build(jobs=2, workloads=(name,))
    finally:
        unregister_workload(name)
    assert [job.policy for job in dispatched] == list(POLICIES)
    assert all(job.trace is not None and job.trace.workload == name
               for job in dispatched)
    assert serial.keys() == parallel.keys()
    for key in serial.keys():
        assert _table_bytes(serial.entry(key)) == _table_bytes(parallel.entry(key))


def test_run_results_order_and_serial_fallback():
    jobs = [SimulationJob(workload=workload, policy=policy,
                          num_accesses=NUM_ACCESSES)
            for workload in WORKLOADS for policy in POLICIES]
    simulator = ParallelSimulator(jobs=4, executor="serial",
                                  config=TINY_CONFIG, detail="stats")
    results = simulator.run_results(jobs)
    assert simulator.last_executor == "serial"
    assert [(result.workload, result.policy_name) for result in results] == \
           [(job.workload, job.policy) for job in jobs]
    assert all(result.llc_stats.accesses == NUM_ACCESSES for result in results)


def test_parallel_simulator_rejects_bad_executor():
    with pytest.raises(ValueError):
        ParallelSimulator(executor="gpu")
    assert default_jobs() >= 1


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
    # The memoised entries also satisfy plain get_or_run simulations.
    engine = SimulationEngine(config=TINY_CONFIG)
    trace, _description = cache.get_trace("astar", NUM_ACCESSES, 0)
    hits_before = cache.hits
    cache.get_or_run(engine, trace, "lru")
    assert cache.hits == hits_before + 1
