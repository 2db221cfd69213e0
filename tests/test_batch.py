"""BatchSimulator: lockstep multi-rollout replay must be byte-identical.

The batch kernel is an execution strategy, not a new simulator: every
rollout — native lockstep kernel or engine-with-shared-precomputes — must
produce exactly the result a standalone ``SimulationEngine.run`` would,
down to float accumulation order in the timing model and every column of
the full-detail access log.  These tests pin that contract across the
policy x workload x mode x detail matrix, plus the wiring that selects the
strategy (ExperimentRunner, build_database, ParallelSimulator fallback)
and the perf-report comparison tooling that rides along.
"""

import dataclasses
import pickle

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.pipeline import SimulationCache
from repro.policies import available_policies, get_policy
from repro.sim.batch import (
    BatchSimulator,
    NATIVE_POLICIES,
    RolloutSpec,
    rollout_strategy,
    run_batch,
)
from repro.sim.config import SMALL_CONFIG, TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import ParallelSimulator, SimulationJob, planned_strategy
from repro.perf.harness import compare_reports, differing_params
from repro.tracedb.database import build_database
from repro.workloads.generator import generate_trace

NUM_ACCESSES = 600
WORKLOADS = ("astar", "lbm")

EXPERIMENT_SPEC = dict(workloads=list(WORKLOADS),
                       policies=["lru", "belady", "hawkeye"],
                       configs=["tiny"], detail="stats",
                       num_accesses=[NUM_ACCESSES], seeds=[1])


def _trace(workload, seed=7):
    return generate_trace(workload, NUM_ACCESSES, seed)


def _single(trace, spec):
    engine = SimulationEngine(config=spec.config, mode=spec.mode,
                              detail=spec.detail,
                              max_records=spec.max_records)
    return engine.run(trace, get_policy(spec.policy))


def _assert_identical(batched, single):
    assert batched.llc_stats.as_tuple() == single.llc_stats.as_tuple()
    assert batched.timing.instructions == single.timing.instructions
    assert batched.timing.base_cycles == single.timing.base_cycles
    assert batched.timing.stall_cycles == single.timing.stall_cycles
    assert batched.timing.stalls_by_level == single.timing.stalls_by_level
    assert (batched.timing.accesses_by_level
            == single.timing.accesses_by_level)
    assert batched.policy_name == single.policy_name
    assert batched.policy_description == single.policy_description
    assert batched.wrong_evictions == single.wrong_evictions
    assert set(batched.level_stats) == set(single.level_stats)
    for level in batched.level_stats:
        assert (batched.level_stats[level].as_tuple()
                == single.level_stats[level].as_tuple())
    assert (batched.log is None) == (single.log is None)
    if batched.log is not None:
        assert pickle.dumps(batched.log) == pickle.dumps(single.log)


# ----------------------------------------------------------------------
# equivalence matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["llc_only", "hierarchy"])
@pytest.mark.parametrize("detail", ["stats", "full"])
def test_batch_matches_engine_for_every_policy(mode, detail):
    for workload in WORKLOADS:
        trace = _trace(workload)
        specs = [RolloutSpec(policy, TINY_CONFIG, mode=mode, detail=detail)
                 for policy in available_policies()]
        results = BatchSimulator(trace).run(specs)
        for spec, batched in zip(specs, results):
            _assert_identical(batched, _single(trace, spec))


def test_mixed_specs_in_one_batch():
    """One batch mixing configs, details and policies stays per-cell exact."""
    trace = _trace("astar")
    specs = [
        RolloutSpec("lru", TINY_CONFIG),
        RolloutSpec("belady", SMALL_CONFIG),
        RolloutSpec("srrip", TINY_CONFIG, detail="full"),
        RolloutSpec("hawkeye", TINY_CONFIG),
        RolloutSpec("fifo", SMALL_CONFIG, detail="full", max_records=50),
    ]
    results = run_batch(trace, specs)
    assert len(results) == len(specs)
    for spec, batched in zip(specs, results):
        _assert_identical(batched, _single(trace, spec))


# ----------------------------------------------------------------------
# strategy selection
# ----------------------------------------------------------------------
def test_rollout_strategy_native_coverage():
    for policy in NATIVE_POLICIES:
        assert (rollout_strategy(RolloutSpec(policy, TINY_CONFIG))
                == f"native:{policy}")
    # Everything outside the native envelope goes through the engine.
    assert rollout_strategy(RolloutSpec("hawkeye", TINY_CONFIG)) == "engine"
    assert (rollout_strategy(RolloutSpec("lru", TINY_CONFIG, detail="full"))
            == "engine")
    assert (rollout_strategy(RolloutSpec("lru", TINY_CONFIG,
                                         mode="hierarchy")) == "engine")


def test_non_pow2_geometry_falls_back_to_engine():
    llc = TINY_CONFIG.llc
    odd_llc = dataclasses.replace(
        llc, size_bytes=3 * llc.num_ways * llc.block_bytes)
    odd_config = dataclasses.replace(TINY_CONFIG, name="tiny-odd",
                                     llc=odd_llc)
    assert odd_llc.num_sets == 3
    spec = RolloutSpec("lru", odd_config)
    assert rollout_strategy(spec) == "engine"
    trace = _trace("lbm")
    batched, = BatchSimulator(trace).run([spec])
    _assert_identical(batched, _single(trace, spec))


def test_run_records_strategies():
    trace = _trace("astar")
    simulator = BatchSimulator(trace)
    simulator.run([RolloutSpec("lru", TINY_CONFIG),
                   RolloutSpec("mlp", TINY_CONFIG)])
    assert simulator.strategies == ["native:lru", "engine"]


def test_rollout_spec_validation():
    with pytest.raises(ValueError):
        RolloutSpec("lru", TINY_CONFIG, mode="bogus")
    with pytest.raises(ValueError):
        RolloutSpec("lru", TINY_CONFIG, detail="bogus")


# ----------------------------------------------------------------------
# ExperimentRunner wiring
# ----------------------------------------------------------------------
def test_experiment_batch_matches_single_strategy():
    batch = ExperimentRunner(simulation_cache=SimulationCache(),
                             strategy="auto").run(EXPERIMENT_SPEC)
    single = ExperimentRunner(simulation_cache=SimulationCache(),
                              strategy="single").run(EXPERIMENT_SPEC)
    assert batch.columns == single.columns
    assert batch.counters["batch_groups"] == len(WORKLOADS)
    assert batch.counters["batch_cells"] == batch.counters["simulations_run"]
    assert single.counters["batch_cells"] == 0


def test_experiment_full_detail_batch_matches_single():
    spec = dict(EXPERIMENT_SPEC, detail="full")
    batch = ExperimentRunner(simulation_cache=SimulationCache(),
                             strategy="auto").run(spec)
    single = ExperimentRunner(simulation_cache=SimulationCache(),
                              strategy="single").run(spec)
    assert batch.columns == single.columns
    assert batch.counters["batch_cells"] > 0


def test_experiment_singleton_uses_single_replay_under_auto():
    spec = dict(EXPERIMENT_SPEC, policies=["lru"], workloads=["astar"])
    result = ExperimentRunner(simulation_cache=SimulationCache(),
                              strategy="auto").run(spec)
    assert result.counters["batch_groups"] == 0
    assert result.counters["simulations_run"] == 1
    forced = ExperimentRunner(simulation_cache=SimulationCache(),
                              strategy="batch").run(spec)
    assert forced.counters["batch_groups"] == 1
    assert forced.columns == result.columns


def test_experiment_runner_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        ExperimentRunner(strategy="bogus")


def test_warm_store_rerun_simulates_zero_cells_after_batch(tmp_path):
    store_dir = str(tmp_path / "store")
    cold = ExperimentRunner(
        simulation_cache=SimulationCache(store=store_dir)).run(
            EXPERIMENT_SPEC)
    assert cold.counters["batch_cells"] > 0
    # A fresh memoiser models a brand-new process: the batch results were
    # installed through put_result, so the store alone warms the re-run.
    warm = ExperimentRunner(
        simulation_cache=SimulationCache(store=store_dir)).run(
            EXPERIMENT_SPEC)
    assert warm.counters["simulations_run"] == 0
    assert warm.counters["batch_cells"] == 0
    assert warm.counters["store_hits"] == cold.counters["simulations_run"]
    assert warm.columns == cold.columns


# ----------------------------------------------------------------------
# database build wiring
# ----------------------------------------------------------------------
def test_build_database_serial_batches_policies_identically():
    database = build_database(workloads=("astar",),
                              policies=("lru", "belady", "srrip"),
                              num_accesses=NUM_ACCESSES, config=TINY_CONFIG)
    trace = generate_trace("astar", NUM_ACCESSES, seed=0)
    engine = SimulationEngine(config=TINY_CONFIG, mode="llc_only")
    for policy in ("lru", "belady", "srrip"):
        entry = database.entry(f"astar_evictions_{policy}")
        reference = engine.run(trace, get_policy(policy))
        assert (entry.result.llc_stats.as_tuple()
                == reference.llc_stats.as_tuple())
        assert (entry.result.timing.stall_cycles
                == reference.timing.stall_cycles)
        assert pickle.dumps(entry.result.log) == pickle.dumps(reference.log)


# ----------------------------------------------------------------------
# shared belady reuse precompute through SimulationCache
# ----------------------------------------------------------------------
def test_reuse_for_memoises_by_fingerprint():
    cache = SimulationCache()
    trace = _trace("astar")
    first = cache.reuse_for(trace, 64)
    assert cache.reuse_for(trace, 64) is first
    assert first.prev_use is None
    # Full upgrade replaces the stats-only entry but keeps the same arrays'
    # content; later full requests reuse the upgraded entry.
    full = cache.reuse_for(trace, 64, True)
    assert full.prev_use is not None
    assert full.next_use == first.next_use
    assert cache.reuse_for(trace, 64, True) is full
    assert cache.reuse_for(trace, 64) is full
    assert cache.stats()["reuse"] == 1
    # A different block size is a different precompute.
    assert cache.reuse_for(trace, 32) is not full
    assert cache.stats()["reuse"] == 2


def test_get_or_run_installs_reuse_cache_on_engine():
    cache = SimulationCache()
    trace = _trace("lbm")
    engine = SimulationEngine(config=TINY_CONFIG, mode="llc_only",
                              detail="stats")
    result = cache.get_or_run(engine, trace, "belady")
    assert engine.reuse_cache is not None
    assert cache.stats()["reuse"] == 1
    reference = SimulationEngine(config=TINY_CONFIG, mode="llc_only",
                                 detail="stats").run(trace, "belady")
    assert result.llc_stats.as_tuple() == reference.llc_stats.as_tuple()


# ----------------------------------------------------------------------
# ParallelSimulator single-core fallback
# ----------------------------------------------------------------------
def test_auto_executor_degrades_to_serial_on_single_core(monkeypatch):
    import repro.sim.parallel as parallel_module
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    simulator = ParallelSimulator(jobs=4, executor="auto",
                                  config=TINY_CONFIG, detail="stats")
    jobs = [SimulationJob(workload=workload, policy="lru",
                          num_accesses=NUM_ACCESSES)
            for workload in WORKLOADS]
    results = simulator.run_results(jobs)
    assert len(results) == len(jobs)
    assert simulator.last_executor == "serial"
    assert simulator.last_strategy == {"executor": "serial",
                                       "reason": "single-core host"}


def test_explicit_executor_still_honoured_on_single_core(monkeypatch):
    import repro.sim.parallel as parallel_module
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    simulator = ParallelSimulator(jobs=2, executor="thread",
                                  config=TINY_CONFIG, detail="stats")
    results = simulator.run_results(
        [SimulationJob(workload="astar", policy="lru",
                       num_accesses=NUM_ACCESSES),
         SimulationJob(workload="lbm", policy="lru",
                       num_accesses=NUM_ACCESSES)])
    assert len(results) == 2
    assert simulator.last_executor == "thread"
    assert simulator.last_strategy["reason"] == "parallel"


def test_serial_strategy_reasons():
    simulator = ParallelSimulator(jobs=1, executor="auto",
                                  config=TINY_CONFIG, detail="stats")
    simulator.run_results([SimulationJob(workload="astar", policy="lru",
                                         num_accesses=NUM_ACCESSES)])
    assert simulator.last_strategy == {"executor": "serial",
                                       "reason": "jobs=1"}
    requested = ParallelSimulator(jobs=4, executor="serial",
                                  config=TINY_CONFIG, detail="stats")
    requested.run_results([SimulationJob(workload="astar", policy="lru",
                                         num_accesses=NUM_ACCESSES)])
    assert requested.last_strategy["reason"] == "requested"


def test_planned_strategy(monkeypatch):
    import repro.sim.parallel as parallel_module
    assert planned_strategy(jobs=1) == "serial"
    assert planned_strategy(executor="serial") == "serial"
    assert planned_strategy(jobs=4, executor="thread") == "thread"
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    assert planned_strategy(jobs=4, executor="auto") == "serial"
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 8)
    assert planned_strategy(jobs=4, executor="auto") == "process"
    with pytest.raises(ValueError):
        planned_strategy(executor="bogus")


# ----------------------------------------------------------------------
# perf report comparison
# ----------------------------------------------------------------------
def test_compare_reports_prints_deltas():
    old = {"revision": "aaaa111", "params": {"num_accesses": 4000},
           "timings": [{"name": "replay_full/astar/lru", "seconds": 0.2},
                       {"name": "store/verify", "seconds": 0.1}]}
    new = {"revision": "bbbb222", "params": {"num_accesses": 4000},
           "timings": [{"name": "replay_full/astar/lru", "seconds": 0.1},
                       {"name": "batch_rollout/batch_9cells",
                        "seconds": 0.05}]}
    rendered = compare_reports(old, new)
    assert "aaaa111 -> bbbb222" in rendered
    assert "replay_full/astar/lru" in rendered
    assert "x0.50" in rendered
    assert "only in old: store/verify" in rendered
    assert "only in new: batch_rollout/batch_9cells" in rendered


def test_compare_reports_refuses_mismatched_params():
    old = {"revision": "aaaa111",
           "params": {"num_accesses": 20000, "config": "small", "seed": 0},
           "timings": [{"name": "replay_full/astar/lru", "seconds": 0.2}]}
    new = {"revision": "bbbb222",
           "params": {"num_accesses": 4000, "config": "small", "jobs": 2},
           "timings": [{"name": "replay_full/astar/lru", "seconds": 0.1}]}
    assert differing_params(old, new) == ["jobs", "num_accesses", "seed"]
    rendered = compare_reports(old, new)
    assert "aaaa111 -> bbbb222 refused: params differ" in rendered
    assert "num_accesses: old 20000 vs new 4000" in rendered
    assert "jobs: old None vs new 2" in rendered
    assert "config" not in rendered  # equal keys are not listed
    assert "replay_full/astar/lru" not in rendered and "x0.50" not in rendered
