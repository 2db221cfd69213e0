"""The declarative experiment API: specs, compile/dedup, execution,
equivalence with single-config sessions, persistence, serving and CLI."""

import json
import os
import warnings

import pytest

from repro import CacheMind, ExperimentSpec, TINY_CONFIG
from repro.core.experiment import (
    AXES,
    ExperimentResult,
    ExperimentRunner,
    as_experiment_spec,
)
from repro.core.pipeline import SimulationCache
from repro.errors import UnknownNameError
from repro.sim.config import HierarchyConfig
from repro.sim.engine import SimulationEngine
from repro.tracedb.store import (
    STORE_SCHEMA_VERSION,
    StoreCorruptionWarning,
    TraceStore,
)
from repro.workloads.generator import generate_trace

from conftest import SESSION_KWARGS

#: a second tiny hierarchy so grids genuinely span configurations.
TINY_2X = TINY_CONFIG.scaled_llc(2 * TINY_CONFIG.llc.size_bytes,
                                 name="tiny-llc2x")

#: the shared grid used by most tests: 2 workloads x 2 policies x 2 configs.
GRID_KWARGS = dict(
    workloads=["astar", "lbm"],
    policies=["lru", "belady"],
    configs=[TINY_CONFIG, TINY_2X],
    num_accesses=400,
)


def small_spec(**overrides) -> ExperimentSpec:
    options = dict(GRID_KWARGS)
    options.update(overrides)
    return ExperimentSpec(**options)


# ----------------------------------------------------------------------
# spec construction, serialisation, fingerprints
# ----------------------------------------------------------------------
def test_spec_coerces_scalars_and_names():
    spec = ExperimentSpec(workloads="astar", policies="lru",
                          configs="tiny", num_accesses=400, seeds=1,
                          details="stats", metrics="ipc")
    assert spec.workloads == ("astar",)
    assert spec.policies == ("lru",)
    assert spec.configs == (TINY_CONFIG,)
    assert spec.num_accesses == (400,)
    assert spec.seeds == (1,)
    assert spec.details == ("stats",)
    assert spec.metrics == ("ipc",)


@pytest.mark.parametrize("overrides", [
    dict(workloads=[]),
    dict(policies=[]),
    dict(configs=[]),
    dict(mode="warp"),
    dict(details=["verbose"]),
    dict(metrics=["latency"]),
    dict(num_accesses=[0]),
])
def test_spec_rejects_invalid_axes(overrides):
    with pytest.raises((ValueError, UnknownNameError)):
        small_spec(**overrides)


def test_spec_rejects_conflicting_config_names():
    conflicting = TINY_CONFIG.scaled_llc(8 * TINY_CONFIG.llc.size_bytes)
    with pytest.raises(ValueError, match="share the name"):
        small_spec(configs=[TINY_CONFIG, conflicting])


def test_spec_roundtrip_is_lossless_and_fingerprint_stable():
    spec = small_spec(details=["full", "stats"], seeds=[0, 1],
                      baseline_policy="lru")
    rebuilt = ExperimentSpec.from_dict(spec.to_dict())
    assert rebuilt.to_dict() == spec.to_dict()
    assert rebuilt.configs == spec.configs
    assert rebuilt.fingerprint() == spec.fingerprint()
    # any changed axis — including a config parameter — changes the hash
    assert small_spec().fingerprint() != spec.fingerprint()
    assert (small_spec(configs=[TINY_CONFIG]).fingerprint()
            != small_spec().fingerprint())


def test_as_experiment_spec_accepts_wire_payloads():
    spec = small_spec()
    assert as_experiment_spec(spec) is spec
    assert as_experiment_spec(spec.to_dict()).fingerprint() == spec.fingerprint()
    with pytest.raises(TypeError):
        as_experiment_spec(42)


def test_config_roundtrip_through_dict():
    rebuilt = HierarchyConfig.from_dict(TINY_2X.to_dict())
    assert rebuilt == TINY_2X
    assert rebuilt.llc.size_bytes == 2 * TINY_CONFIG.llc.size_bytes


# ----------------------------------------------------------------------
# compile: grid flattening and dedup
# ----------------------------------------------------------------------
def test_compile_names_every_cell():
    spec = small_spec(details=["full", "stats"], seeds=[0, 1])
    plan = spec.compile()
    assert plan.planned_cells == 2 * 2 * 2 * 2 * 2
    assert plan.unique_jobs == plan.planned_cells  # no duplicates
    assert plan.duplicate_jobs == 0


def test_compile_merges_duplicate_cells():
    # A duplicated workload and a baseline policy already in the list both
    # produce duplicate cells; the merge collapses them.
    spec = small_spec(workloads=["astar", "lbm", "astar"],
                      baseline_policy="lru")
    plan = spec.compile()
    assert plan.planned_cells == 3 * 2 * 2
    assert plan.unique_jobs == 2 * 2 * 2
    assert plan.duplicate_jobs == 4


def test_baseline_policy_joins_the_grid_once():
    spec = small_spec(policies=["belady"], baseline_policy="lru")
    assert spec.grid_policies == ("belady", "lru")
    spec = small_spec(policies=["lru", "belady"], baseline_policy="lru")
    assert spec.grid_policies == ("lru", "belady")


# ----------------------------------------------------------------------
# execution: dedup, counters, equivalence
# ----------------------------------------------------------------------
def test_duplicate_cells_simulate_exactly_once(fresh_cache):
    spec = small_spec(workloads=["astar", "lbm", "astar"],
                      baseline_policy="lru")
    result = ExperimentRunner(simulation_cache=fresh_cache).run(spec)
    assert result.counters["duplicate_jobs"] == 4
    assert result.counters["simulations_run"] == result.counters["unique_jobs"]
    assert fresh_cache.stats()["misses"] == result.counters["unique_jobs"]
    assert len(result) == result.counters["unique_jobs"]


def test_full_cells_match_fresh_single_config_sessions(fresh_cache):
    """Every cell of a multi-config grid equals a fresh single-config
    session's compare_policies value for that (workload, policy, config)."""
    result = ExperimentRunner(simulation_cache=fresh_cache).run(small_spec())
    for config in (TINY_CONFIG, TINY_2X):
        session = CacheMind(workloads=GRID_KWARGS["workloads"],
                            policies=GRID_KWARGS["policies"],
                            num_accesses=400, config=config,
                            simulation_cache=SimulationCache())
        for metric in ("miss_rate", "hit_rate", "ipc"):
            table = session.compare_policies(metric=metric)
            for workload, row in table.items():
                for policy, expected in row.items():
                    cell = result.value(metric, workload=workload,
                                        policy=policy, config=config.name)
                    assert cell == expected, (metric, workload, policy,
                                              config.name)


def test_stats_cells_match_stats_engine_runs(fresh_cache):
    spec = small_spec(workloads=["astar"], policies=["lru"],
                      configs=[TINY_CONFIG], details=["stats"])
    result = ExperimentRunner(simulation_cache=fresh_cache).run(spec)
    engine = SimulationEngine(config=TINY_CONFIG, detail="stats")
    reference = engine.run(generate_trace("astar", 400, 0), "lru")
    assert result.value("miss_rate", workload="astar",
                        policy="lru") == reference.llc_stats.miss_rate
    assert result.value("ipc", workload="astar", policy="lru") == reference.ipc


def test_parallel_execution_is_byte_identical(fresh_cache, process_pools):
    """Every miss of a ``jobs=2`` grid, across both configs and both
    details, replays in one process pool."""
    spec = small_spec(details=["full", "stats"])
    serial = ExperimentRunner(simulation_cache=fresh_cache).run(spec)
    assert process_pools == []
    parallel = ExperimentRunner(simulation_cache=SimulationCache(),
                                jobs=2).run(spec)
    assert len(process_pools) == 1
    assert parallel.counters["simulations_run"] == spec.compile().unique_jobs
    assert serial.columns == parallel.columns


def test_runner_rejects_unknown_names(fresh_cache):
    runner = ExperimentRunner(simulation_cache=fresh_cache)
    with pytest.raises(UnknownNameError):
        runner.run(small_spec(policies=["lru", "nope"]))
    with pytest.raises(UnknownNameError):
        runner.run(small_spec(workloads=["astar", "nope"]))
    assert fresh_cache.stats()["misses"] == 0  # validated before simulating


def test_progress_callback_sees_every_cell(fresh_cache):
    seen = []
    spec = small_spec()
    ExperimentRunner(simulation_cache=fresh_cache).run(
        spec, progress=lambda done, total: seen.append((done, total)))
    total = spec.compile().unique_jobs
    # (0, total) announces the grid size before the first cell runs
    assert seen == [(index, total) for index in range(total + 1)]


# ----------------------------------------------------------------------
# result table: roundtrip and derived views
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid_result():
    spec = small_spec(details=["full", "stats"], baseline_policy="lru")
    return ExperimentRunner(simulation_cache=SimulationCache()).run(spec)


def test_result_roundtrip_is_lossless(grid_result):
    rebuilt = ExperimentResult.from_dict(grid_result.to_dict())
    assert rebuilt.to_dict() == grid_result.to_dict()
    assert json.loads(json.dumps(grid_result.to_dict())) == grid_result.to_dict()


def test_result_rows_carry_every_column(grid_result):
    row = grid_result.rows()[0]
    for axis in AXES:
        assert axis in row
    for metric in ("miss_rate", "hit_rate", "ipc", "accesses", "cycles"):
        assert metric in row


def test_pivot_views(grid_result):
    table = grid_result.pivot("miss_rate",
                              where={"config": "tiny", "detail": "full"})
    assert set(table) == {"astar", "lbm"}
    assert set(table["astar"]) == {"lru", "belady"}
    # configs as columns: policy pinned instead
    by_config = grid_result.pivot("miss_rate", rows="workload", cols="config",
                                  where={"policy": "lru", "detail": "full"})
    assert set(by_config["astar"]) == {"tiny", "tiny-llc2x"}
    # a bigger LLC cannot hurt LRU
    assert by_config["astar"]["tiny-llc2x"] <= by_config["astar"]["tiny"]


def test_pivot_rejects_ambiguous_cells(grid_result):
    with pytest.raises(ValueError, match="ambiguous"):
        grid_result.pivot("miss_rate")  # config and detail still vary


def test_pivot_ambiguity_message_respects_falsy_pins():
    spec = small_spec(configs=[TINY_CONFIG], seeds=[0, 1],
                      details=["full", "stats"])
    result = ExperimentRunner(simulation_cache=SimulationCache()).run(spec)
    # seed pinned to the falsy value 0: only `detail` still varies
    with pytest.raises(ValueError) as excinfo:
        result.pivot("miss_rate", where={"seed": 0})
    assert "detail" in str(excinfo.value)
    assert "seed" not in str(excinfo.value)
    # and pinning it too resolves the ambiguity
    table = result.pivot("miss_rate", where={"seed": 0, "detail": "full"})
    assert set(table) == {"astar", "lbm"}


def test_best_policy_per_cell(grid_result):
    winners = grid_result.best_policy_per_cell("miss_rate")
    assert len(winners) == 2 * 2 * 2  # workloads x configs x details
    assert all(winner["policy"] == "belady" for winner in winners)


def test_delta_vs_baseline(grid_result):
    deltas = grid_result.delta_vs_baseline("miss_rate")
    # one non-baseline policy over 2 workloads x 2 configs x 2 details
    assert len(deltas) == 8
    for row in deltas:
        assert row["policy"] == "belady"
        assert row["delta"] == row["miss_rate"] - row["baseline"]
        assert row["delta"] <= 0  # the oracle cannot lose on misses


def test_delta_requires_a_baseline(fresh_cache):
    result = ExperimentRunner(simulation_cache=fresh_cache).run(
        small_spec(workloads=["astar"], configs=[TINY_CONFIG]))
    with pytest.raises(ValueError, match="baseline"):
        result.delta_vs_baseline("miss_rate")


def test_value_requires_a_unique_cell(grid_result):
    with pytest.raises(ValueError, match="cells"):
        grid_result.value("miss_rate", workload="astar")
    with pytest.raises(ValueError, match="unknown metric"):
        grid_result.value("latency", workload="astar", policy="lru",
                          config="tiny", detail="full")


# ----------------------------------------------------------------------
# store persistence: warm re-runs and saved results
# ----------------------------------------------------------------------
def test_warm_store_rerun_simulates_nothing(tmp_path):
    store_dir = str(tmp_path / "store")
    spec = small_spec()
    cold_cache = SimulationCache(store=store_dir)
    cold = ExperimentRunner(simulation_cache=cold_cache).run(spec)
    assert cold.counters["simulations_run"] == cold.counters["unique_jobs"]
    # brand-new memoiser over the same store: zero simulations
    warm_cache = SimulationCache(store=store_dir)
    warm = ExperimentRunner(simulation_cache=warm_cache).run(spec)
    assert warm.counters["simulations_run"] == 0
    assert warm.counters["store_hits"] == warm.counters["unique_jobs"]
    assert warm.columns == cold.columns


def test_counters_ignore_concurrent_cache_traffic(fresh_cache):
    """Result telemetry counts this run's cells only: foreign simulations
    landing in the shared cache mid-run must not leak into the counters
    (the --expect-warm assertion depends on this)."""
    spec = small_spec(workloads=["astar"], configs=[TINY_CONFIG])
    runner = ExperimentRunner(simulation_cache=fresh_cache)
    runner.run(spec)  # warm the grid
    foreign_session = CacheMind(workloads=["mcf"], policies=["lru"],
                                num_accesses=300, config=TINY_CONFIG,
                                simulation_cache=fresh_cache)

    def foreign_traffic(done, total):
        # an unrelated (workload, policy) simulation on the same cache,
        # fired while the warm sweep is mid-flight
        foreign_session.simulate("mcf", "lru")

    warm = runner.run(spec, progress=foreign_traffic)
    assert warm.counters["simulations_run"] == 0
    assert warm.counters["cache_hits"] == warm.counters["unique_jobs"]


def test_experiment_fingerprints_read_headers_only(tmp_path):
    store_dir = str(tmp_path / "store")
    spec = small_spec(workloads=["astar"], configs=[TINY_CONFIG])
    ExperimentRunner(simulation_cache=SimulationCache(store=store_dir)).run(
        spec)
    store = TraceStore(store_dir)
    loads_before = store.loads
    assert store.experiment_fingerprints() == [spec.fingerprint()]
    assert store.loads == loads_before  # no payload was decompressed


def test_result_persisted_under_spec_fingerprint(tmp_path):
    store_dir = str(tmp_path / "store")
    spec = small_spec(workloads=["astar"], configs=[TINY_CONFIG])
    result = ExperimentRunner(
        simulation_cache=SimulationCache(store=store_dir)).run(spec)
    store = TraceStore(store_dir)
    loaded = ExperimentResult.load(store, spec.fingerprint())
    assert loaded is not None
    # The record leaves out the wall-clock timings, and nothing else.
    assert loaded.to_dict() == {**result.to_dict(), "timings": {}}
    summaries = store.list_experiments()
    assert [summary["fingerprint"] for summary in summaries] == [
        spec.fingerprint()]
    assert summaries[0]["cells"] == len(result)
    assert store.info()["experiments"] == 1
    assert ExperimentResult.load(store, "0" * 32) is None
    # A loaded record has no time to report.
    assert result.summary().endswith("s")
    assert loaded.summary() == result.summary().rsplit(" in ", 1)[0]


def _objects(root):
    """Every file under a store's ``objects/`` tree, with its bytes."""
    tree = {}
    for directory, _dirs, files in os.walk(os.path.join(root, "objects")):
        for name in files:
            with open(os.path.join(directory, name), "rb") as handle:
                tree[os.path.relpath(os.path.join(directory, name),
                                     root)] = handle.read()
    return tree


def test_identical_runs_write_identical_records(tmp_path):
    """No wall clock reaches a record: two identical grids run into fresh
    stores write the same files with the same bytes, the experiment record
    included."""
    spec = small_spec(workloads=["astar"])
    trees = []
    for name in ("first", "second"):
        root = str(tmp_path / name)
        result = ExperimentRunner(
            simulation_cache=SimulationCache(store=root)).run(spec)
        assert set(result.timings) == {"compile", "execute", "total"}
        trees.append(_objects(root))
    assert trees[0] == trees[1]
    # One result record per cell and the experiment record.
    assert len(trees[0]) == len(spec.compile().jobs) + 1


def test_warm_rerun_leaves_its_record_alone(tmp_path):
    """A run that simulates nothing and finds its experiment record writes
    nothing; a missing or corrupt record is written again, and a read-only
    mount skips the write without a warning."""
    root = str(tmp_path / "store")
    spec = small_spec(workloads=["astar"], configs=[TINY_CONFIG])
    ExperimentRunner(simulation_cache=SimulationCache(store=root)).run(spec)
    store = TraceStore(root)
    (path,) = [os.path.join(root, name) for name in _objects(root)
               if os.path.basename(name).startswith("experiment-")]
    before = os.stat(path)
    for _ in range(2):
        warm = ExperimentRunner(
            simulation_cache=SimulationCache(store=store)).run(spec)
        assert warm.counters["simulations_run"] == 0
    assert store.saves == 0
    after = os.stat(path)
    assert ((after.st_ino, after.st_mtime_ns)
            == (before.st_ino, before.st_mtime_ns))

    os.unlink(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExperimentRunner(simulation_cache=SimulationCache(
            store=TraceStore(root, read_only=True))).run(spec)
    assert not os.path.exists(path)
    ExperimentRunner(simulation_cache=SimulationCache(store=store)).run(spec)
    assert store.saves == 1 and os.path.exists(path)

    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0xFF]))
    with pytest.warns(StoreCorruptionWarning):
        ExperimentRunner(simulation_cache=SimulationCache(store=store)).run(
            spec)
    assert store.saves == 2

    foreign = TraceStore(root)
    foreign.schema_version = STORE_SCHEMA_VERSION + 1
    foreign.save_experiment(spec.fingerprint(), {})
    with pytest.warns(StoreCorruptionWarning, match="does not match"):
        ExperimentRunner(simulation_cache=SimulationCache(store=store)).run(
            spec)
    assert store.saves == 3
    assert ExperimentResult.load(store, spec.fingerprint()) is not None


# ----------------------------------------------------------------------
# the session facade: run_experiment, compare_policies, describe
# ----------------------------------------------------------------------
def test_session_run_experiment_accepts_wire_spec(session):
    spec = small_spec(workloads=["astar"], policies=["lru"],
                      configs=[TINY_CONFIG])
    via_spec = session.run_experiment(spec)
    via_dict = session.run_experiment(spec.to_dict())
    assert via_spec.columns == via_dict.columns
    assert session.experiments_run == 2
    assert session.planner.last_merged_job_count == 1


def test_session_run_experiment_crosses_configs(session):
    """Foreign-config cells route through the cache, not the session
    database (the ask path still guards against them)."""
    result = session.run_experiment(session.experiment_spec(
        configs=[session.config, TINY_2X]))
    assert set(result.columns["config"]) == {"tiny", "tiny-llc2x"}
    assert session.database_builds == 0  # no database build happened


def test_database_build_warms_the_session_grid(session, fresh_cache):
    """Asks and grids share one executor: a grid over the session matrix
    after the database build reads the same memoised entries."""
    _ = session.database
    misses = fresh_cache.stats()["misses"]
    result = session.run_experiment(session.experiment_spec())
    assert result.counters["simulations_run"] == 0
    assert result.counters["cache_hits"] == result.counters["unique_jobs"]
    assert fresh_cache.stats()["misses"] == misses


def test_grid_warms_the_session_ask(session, fresh_cache):
    """...and vice versa: an ask after the grid simulates nothing."""
    result = session.run_experiment(session.experiment_spec())
    assert result.counters["simulations_run"] == result.counters[
        "unique_jobs"]
    misses = fresh_cache.stats()["misses"]
    response = session.ask_request("What is the miss rate of lru on astar?")
    assert response.simulations_run == 0
    assert fresh_cache.stats()["misses"] == misses


def test_compare_policies_subset_skips_database_build(fresh_cache):
    session = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    table = session.compare_policies(workload="astar", policies=["lru"])
    assert set(table) == {"astar"}
    assert set(table["astar"]) == {"lru"}
    # regression: exactly one simulation, and no full database build
    assert fresh_cache.stats()["misses"] == 1
    assert session.database_builds == 0
    assert session._database is None


def test_compare_policies_subset_matches_full_build():
    subset_session = CacheMind(simulation_cache=SimulationCache(),
                               **SESSION_KWARGS)
    full_session = CacheMind(simulation_cache=SimulationCache(),
                             **SESSION_KWARGS)
    full = full_session.compare_policies()  # legacy path: database build
    for metric in ("miss_rate", "hit_rate", "ipc"):
        expected = full_session.compare_policies(workload="astar",
                                                 policies=["lru"],
                                                 metric=metric)
        actual = subset_session.compare_policies(workload="astar",
                                                 policies=["lru"],
                                                 metric=metric)
        assert actual == expected
    assert full_session.database_builds == 1
    assert subset_session.database_builds == 0
    assert full["astar"]["lru"] == subset_session.compare_policies(
        workload="astar", policies=["lru"])["astar"]["lru"]


def test_compare_policies_full_matrix_still_builds_database(session):
    table = session.compare_policies()
    assert set(table) == set(SESSION_KWARGS["workloads"])
    assert session.database_builds == 1


def test_compare_policies_warm_session_reads_database(session):
    _ = session.database
    before = session.simulation_cache.stats()["misses"]
    table = session.compare_policies(workload="astar", policies=["lru"])
    assert session.simulation_cache.stats()["misses"] == before
    assert set(table["astar"]) == {"lru"}


def test_compare_policies_rejects_foreign_names(session):
    with pytest.raises(UnknownNameError):
        session.compare_policies(workload="mcf")  # valid name, not in session
    with pytest.raises(UnknownNameError):
        session.compare_policies(policies=["lru", "ship"])


def test_best_policy_uses_subset_path(fresh_cache):
    session = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    name, rate = session.best_policy("astar")
    assert name == "belady"
    assert 0.0 <= rate <= 1.0
    assert session.database_builds == 0
    # only astar's cells simulated (2 policies), not the 2x2 matrix
    assert fresh_cache.stats()["misses"] == 2


def test_describe_reports_store_and_experiment_configs(tmp_path):
    session = CacheMind(store_dir=str(tmp_path / "store"), **SESSION_KWARGS)
    assert "trace store: 0 records" in session.describe()
    session.run_experiment(session.experiment_spec(
        workloads=["astar"], policies=["lru"],
        configs=[session.config, TINY_2X]))
    description = session.describe()
    assert "experiments: 1 run" in description
    assert "tiny-llc2x" in description
    assert "trace store:" in description
    assert "0 records" not in description


# ----------------------------------------------------------------------
# serving: the experiment op end to end
# ----------------------------------------------------------------------
@pytest.fixture()
def serving_stack(fresh_cache):
    from repro.serve.server import CacheMindServer
    from repro.serve.service import CacheMindService

    service = CacheMindService(session=CacheMind(simulation_cache=fresh_cache,
                                                 **SESSION_KWARGS))
    server = CacheMindServer(service).start()
    yield service, server
    server.close()
    service.close()


def test_remote_experiment_matches_in_process(serving_stack):
    from repro.serve.client import RemoteClient

    service, server = serving_stack
    spec = small_spec()
    host, port = server.address
    with RemoteClient(host, port) as client:
        remote = client.experiment(spec)
    local = CacheMind(simulation_cache=SimulationCache(),
                      **SESSION_KWARGS).run_experiment(spec)
    assert remote.columns == local.columns
    assert remote.fingerprint == local.fingerprint
    stats = service.stats()["experiments"]
    assert stats["runs"] == 1
    assert stats["errors"] == 0
    assert stats["in_progress"] == 0
    assert stats["cells_done"] == stats["cells_total"] == len(local)
    assert stats["last"]["fingerprint"] == spec.fingerprint()


def test_remote_experiment_rejects_malformed_spec(serving_stack):
    _service, server = serving_stack
    reply = server.dispatch_line(
        json.dumps({"op": "experiment", "spec": "not-a-dict"}).encode())
    assert reply["ok"] is False
    assert "spec" in reply["error"]
    reply = server.dispatch_line(
        json.dumps({"op": "experiment",
                    "spec": {"workloads": ["astar"], "policies": ["lru"],
                             "configs": ["no-such-config"]}}).encode())
    assert reply["ok"] is False


def test_service_run_experiment_counts_errors(fresh_cache):
    from repro.serve.service import CacheMindService

    service = CacheMindService(session=CacheMind(simulation_cache=fresh_cache,
                                                 **SESSION_KWARGS))
    with pytest.raises(UnknownNameError):
        service.run_experiment(small_spec(policies=["nope"]))
    stats = service.stats()["experiments"]
    assert stats["errors"] == 1
    assert stats["in_progress"] == 0
    service.close()


# ----------------------------------------------------------------------
# CLI: experiment run / report
# ----------------------------------------------------------------------
EXPERIMENT_ARGS = ["experiment", "run", "--workloads", "astar,lbm",
                   "--policies", "lru,belady", "--configs", "tiny",
                   "--accesses", "400"]


def test_cli_experiment_run_prints_table(capsys):
    from repro.cli import main

    assert main([*EXPERIMENT_ARGS, "--baseline", "lru"]) == 0
    out = capsys.readouterr().out
    assert "unique jobs" in out
    assert "miss_rate per (workload, policy)" in out
    assert "delta vs baseline 'lru'" in out


def test_cli_experiment_run_json_roundtrips(capsys):
    from repro.cli import main

    assert main([*EXPERIMENT_ARGS, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = ExperimentResult.from_dict(payload)
    assert len(result) == 4
    assert result.counters["unique_jobs"] == 4


def test_cli_experiment_cells_match_session(capsys):
    from repro.cli import main

    assert main([*EXPERIMENT_ARGS, "--json"]) == 0
    cli_result = ExperimentResult.from_dict(
        json.loads(capsys.readouterr().out))
    session_result = CacheMind(
        simulation_cache=SimulationCache(), **SESSION_KWARGS
    ).run_experiment(cli_result.spec)
    assert cli_result.columns == session_result.columns


def test_cli_experiment_warm_rerun_and_report(tmp_path, capsys):
    from repro.cli import main

    store_dir = str(tmp_path / "store")
    output = str(tmp_path / "result.json")
    args = [*EXPERIMENT_ARGS, "--store-dir", store_dir, "--output", output]
    assert main(args) == 0
    capsys.readouterr()
    # a cold run with --expect-warm must fail loudly...
    assert main([*EXPERIMENT_ARGS, "--store-dir", str(tmp_path / "other"),
                 "--expect-warm"]) == 1
    assert "expected a warm run" in capsys.readouterr().err
    # ...while the second run over the populated store is warm
    assert main([*args, "--expect-warm"]) == 0
    assert "0 simulated" in capsys.readouterr().out
    # report: list the store, then render by fingerprint prefix and file
    assert main(["experiment", "report", "--store-dir", store_dir]) == 0
    listing = capsys.readouterr().out
    assert "stored experiment(s)" in listing
    fingerprint = listing.split("\n")[1].split()[0]
    assert main(["experiment", "report", "--store-dir", store_dir,
                 "--fingerprint", fingerprint[:8]]) == 0
    assert "best policy per cell" in capsys.readouterr().out
    assert main(["experiment", "report", output,
                 "--metric", "miss_rate"]) == 0
    assert "miss_rate per (workload, policy)" in capsys.readouterr().out


def test_cli_experiment_report_requires_one_source(capsys):
    from repro.cli import main

    assert main(["experiment", "report"]) == 2
    assert "store-dir" in capsys.readouterr().err


def test_cli_experiment_report_missing_file_fails_cleanly(capsys, tmp_path):
    from repro.cli import main

    assert main(["experiment", "report",
                 str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["experiment", "report", str(bad)]) == 1
    assert "is not JSON" in capsys.readouterr().err
    wrong_shape = tmp_path / "wrong.json"
    wrong_shape.write_text("[1, 2, 3]")
    assert main(["experiment", "report", str(wrong_shape)]) == 1
    assert "not an ExperimentResult" in capsys.readouterr().err


def test_cli_experiment_remote_rejects_local_only_flags(capsys, tmp_path):
    from repro.cli import main

    code = main([*EXPERIMENT_ARGS, "--remote", "127.0.0.1:1",
                 "--store-dir", str(tmp_path / "store")])
    assert code == 2
    assert "--store-dir" in capsys.readouterr().err
