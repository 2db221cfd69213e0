"""BatchSimulator: many rollouts over one shared replay core.

Batching is an execution strategy, not a new simulator: every rollout —
native kernel or generic policy loop — must produce exactly the result a
standalone ``SimulationEngine.run`` with a policy *instance* (always the
generic :meth:`Cache.access` loop) would, down to float accumulation order
in the timing model and every column of the full-detail access log.  These
tests pin that contract across the policy x workload x mode x detail
matrix, plus the wiring that batches (``SimulationCache.run_jobs`` under
experiment grids and session database builds, ParallelSimulator's serial
route on a single-core host).
"""

import dataclasses
import pickle

import pytest

import repro.sim.parallel as parallel_module
from repro.core.experiment import ExperimentRunner, ExperimentSpec
from repro.core.pipeline import CacheMind, SimulationCache
from repro.policies import available_policies, get_policy
from repro.sim.batch import BatchSimulator, NATIVE_POLICIES, RolloutSpec
from repro.sim.config import SMALL_CONFIG, TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import ParallelSimulator
from repro.sim.replay import native_kernel
from repro.workloads.generator import generate_trace, get_workload

NUM_ACCESSES = 600
WORKLOADS = ("astar", "lbm")

EXPERIMENT_SPEC = dict(workloads=list(WORKLOADS),
                       policies=["lru", "belady", "hawkeye"],
                       configs=["tiny"], details=["stats"],
                       num_accesses=[NUM_ACCESSES], seeds=[1])


def _trace(workload, seed=7):
    return generate_trace(workload, NUM_ACCESSES, seed)


def _single(trace, spec):
    engine = SimulationEngine(config=spec.config, mode=spec.mode,
                              detail=spec.detail)
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
        RolloutSpec("fifo", SMALL_CONFIG, detail="full"),
    ]
    results = BatchSimulator(trace).run(specs)
    assert len(results) == len(specs)
    for spec, batched in zip(specs, results):
        _assert_identical(batched, _single(trace, spec))


# ----------------------------------------------------------------------
# strategy selection
# ----------------------------------------------------------------------
def _takes_native_kernel(spec):
    return native_kernel(spec.policy, spec.detail) is not None


def test_rollout_strategy_native_coverage():
    for policy in NATIVE_POLICIES:
        for mode in ("llc_only", "hierarchy"):
            assert _takes_native_kernel(RolloutSpec(policy, TINY_CONFIG,
                                                    mode=mode))
    # Everything outside the native envelope takes the generic loop.
    assert not _takes_native_kernel(RolloutSpec("hawkeye", TINY_CONFIG))
    assert not _takes_native_kernel(RolloutSpec("lru", TINY_CONFIG,
                                                detail="full"))


def test_native_kernels_match_engine_on_tiny_and_small_geometry():
    """Every native kernel in both modes on two LLC geometries, in one
    batch.  At 2,000 accesses the small LLC evicts, so each kernel's victim
    choice is checked, not only its fill path."""
    trace = generate_trace("astar", 2000, seed=0)
    specs = [RolloutSpec(policy, config, mode=mode)
             for policy in NATIVE_POLICIES
             for mode in ("llc_only", "hierarchy")
             for config in (TINY_CONFIG, SMALL_CONFIG)]
    assert all(_takes_native_kernel(spec) for spec in specs)
    results = BatchSimulator(trace).run(specs)
    for spec, batched in zip(specs, results):
        _assert_identical(batched, _single(trace, spec))
        if spec.config is SMALL_CONFIG:
            assert batched.llc_stats.evictions > 0, spec


def test_non_pow2_geometry_runs_native_kernel():
    llc = TINY_CONFIG.llc
    odd_llc = dataclasses.replace(
        llc, size_bytes=3 * llc.num_ways * llc.block_bytes)
    odd_config = dataclasses.replace(TINY_CONFIG, name="tiny-odd",
                                     llc=odd_llc)
    assert odd_llc.num_sets == 3
    trace = _trace("lbm")
    for mode in ("llc_only", "hierarchy"):
        specs = [RolloutSpec(policy, odd_config, mode=mode)
                 for policy in NATIVE_POLICIES]
        assert all(_takes_native_kernel(spec) for spec in specs)
        for spec, batched in zip(specs, BatchSimulator(trace).run(specs)):
            _assert_identical(batched, _single(trace, spec))


def test_run_records_strategies():
    """One batch mixing a native-kernel spec and a generic-loop spec: each
    takes its own route and matches its single-engine replay."""
    trace = _trace("astar")
    specs = [RolloutSpec("lru", TINY_CONFIG), RolloutSpec("mlp", TINY_CONFIG)]
    assert [_takes_native_kernel(spec) for spec in specs] == [True, False]
    for spec, batched in zip(specs, BatchSimulator(trace).run(specs)):
        _assert_identical(batched, _single(trace, spec))


def test_rollout_spec_validation():
    with pytest.raises(ValueError):
        RolloutSpec("lru", TINY_CONFIG, mode="bogus")
    with pytest.raises(ValueError):
        RolloutSpec("lru", TINY_CONFIG, detail="bogus")


# ----------------------------------------------------------------------
# ExperimentRunner wiring
# ----------------------------------------------------------------------
def _assert_cells_match_direct_replay(result):
    """Every cell equals a direct ``SimulationEngine.run`` of its job with
    a policy instance (the generic loop, whatever route the cell took)."""
    columns = result.columns
    for index in range(len(result)):
        trace = get_workload(columns["workload"][index],
                             seed=columns["seed"][index]).generate(
                                 columns["num_accesses"][index])
        reference = SimulationEngine(
            config=TINY_CONFIG, detail=columns["detail"][index]).run(
                trace, get_policy(columns["policy"][index]))
        llc = reference.llc_stats
        assert columns["accesses"][index] == llc.accesses
        assert columns["hits"][index] == llc.hits
        assert columns["misses"][index] == llc.misses
        assert columns["evictions"][index] == llc.evictions
        assert columns["miss_rate"][index] == llc.miss_rate
        assert columns["instructions"][index] == reference.timing.instructions
        assert columns["cycles"][index] == reference.timing.cycles
        assert columns["ipc"][index] == reference.ipc


def test_experiment_batch_matches_single_strategy():
    assert ExperimentSpec.from_dict(EXPERIMENT_SPEC).details == ("stats",)
    result = ExperimentRunner(simulation_cache=SimulationCache()).run(
        EXPERIMENT_SPEC)
    assert set(result.columns["detail"]) == {"stats"}
    assert result.counters["batch_groups"] == len(WORKLOADS)
    assert result.counters["batch_cells"] == result.counters["simulations_run"]
    _assert_cells_match_direct_replay(result)


def test_experiment_full_detail_batch_matches_single():
    spec = dict(EXPERIMENT_SPEC, details=["full"])
    assert ExperimentSpec.from_dict(spec).details == ("full",)
    result = ExperimentRunner(simulation_cache=SimulationCache()).run(spec)
    assert set(result.columns["detail"]) == {"full"}
    assert result.counters["batch_cells"] > 0
    _assert_cells_match_direct_replay(result)


def test_experiment_singleton_uses_single_replay():
    spec = dict(EXPERIMENT_SPEC, policies=["lru"], workloads=["astar"])
    result = ExperimentRunner(simulation_cache=SimulationCache()).run(spec)
    assert result.counters["batch_groups"] == 0
    assert result.counters["simulations_run"] == 1
    _assert_cells_match_direct_replay(result)


def test_warm_store_rerun_simulates_zero_cells_after_batch(tmp_path):
    store_dir = str(tmp_path / "store")
    cold = ExperimentRunner(
        simulation_cache=SimulationCache(store=store_dir)).run(
            EXPERIMENT_SPEC)
    assert cold.counters["batch_cells"] > 0
    # A fresh memoiser models a brand-new process: the batch results were
    # installed (and persisted) by run_jobs, so the store alone warms the
    # re-run.
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
    database = CacheMind(workloads=("astar",),
                         policies=("lru", "belady", "srrip"),
                         num_accesses=NUM_ACCESSES, config=TINY_CONFIG,
                         simulation_cache=SimulationCache()).database
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
# ParallelSimulator single-core fallback
# ----------------------------------------------------------------------
def _run_two_tasks():
    return ParallelSimulator(jobs=4).run_results(
        [(_trace(workload), RolloutSpec("lru", TINY_CONFIG))
         for workload in WORKLOADS])


def test_auto_executor_degrades_to_serial_on_single_core(monkeypatch,
                                                         process_pools):
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    results = _run_two_tasks()
    assert [result.workload for result in results] == list(WORKLOADS)
    assert process_pools == []


def test_auto_executor_starts_with_process_pool_on_multi_core(process_pools):
    results = _run_two_tasks()
    assert [result.workload for result in results] == list(WORKLOADS)
    assert len(process_pools) == 1
