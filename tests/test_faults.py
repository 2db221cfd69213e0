"""Chaos suite: deterministic fault injection and end-to-end resilience.

Every test here drives a *real* production path (store, parallel builds,
client/server) under a seeded :class:`~repro.faults.FaultPlan` and asserts
the resilience contract: either the byte-identical answer a fault-free run
produces, or a clean structured error — never a hang, a corrupted result,
or a dead connection.  The same seed always injects the same faults, so
every assertion in this file is reproducible.
"""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.sim.parallel as parallel_module
from repro.core.pipeline import CacheMind, SimulationCache
from repro.core.plan import PlannedJob
from repro.errors import UnknownNameError
from repro.faults import (
    ENV_PLAN_VAR,
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    env_scope,
    fault_point,
    process_scope,
    thread_scope,
)
from repro.serve.client import (
    DeadlineExceeded,
    RemoteClient,
    ServerOverloadedError,
    ServerShuttingDownError,
)
from repro.serve.server import CacheMindServer
from repro.serve.service import CacheMindService
from repro.sim.batch import RolloutSpec
from repro.sim.config import TINY_CONFIG
from repro.sim.parallel import ParallelSimulator
from repro.tracedb.database import make_entry
from repro.tracedb.objstore import decode_header
from repro.tracedb.store import StoreCorruptionWarning, TraceStore
from repro.workloads.generator import generate_trace

NUM_ACCESSES = 300
QUESTION = "What is the miss rate of lru on astar?"
SESSION_KWARGS = dict(workloads=["astar"], policies=["lru"],
                      num_accesses=NUM_ACCESSES, config=TINY_CONFIG, seed=0)


def _session(store_dir=None, **overrides):
    store = TraceStore(str(store_dir)) if store_dir is not None else None
    cache = SimulationCache(store=store)
    return CacheMind(simulation_cache=cache,
                     **{**SESSION_KWARGS, **overrides}), cache


def _table_bytes(entry):
    return json.dumps(list(entry.data_frame.iter_rows()), sort_keys=True,
                      default=str).encode("utf-8")


def _result_tables(results):
    return [_table_bytes(make_entry(result)) for result in results]


# ----------------------------------------------------------------------
# FaultRule / FaultPlan unit behaviour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    dict(point="store.explode", nth=1),            # unknown point
    dict(point="store.read", action="melt", nth=1),  # unknown action
    dict(point="store.read", error="cosmic", nth=1),  # unknown error kind
    dict(point="store.read", scope="galaxy", nth=1),  # unknown scope
    dict(point="store.read"),                      # neither trigger
    dict(point="store.read", nth=1, probability=0.5),  # both triggers
    dict(point="store.read", nth=0),               # nth is 1-based
    dict(point="store.read", probability=1.5),     # probability out of range
    dict(point="store.read", nth=1, times=0),      # times must be >= 1
])
def test_rule_validation_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        FaultRule(**kwargs)


def test_rule_dict_round_trip_is_sparse_and_lossless():
    rule = FaultRule("store.write", action="truncate", nth=2)
    encoded = rule.to_dict()
    # Defaults are omitted so env-var plans stay short.
    assert encoded == {"point": "store.write", "action": "truncate", "nth": 2}
    assert FaultRule.from_dict(encoded) == rule
    with pytest.raises(ValueError):
        FaultRule.from_dict({"point": "store.read", "nth": 1, "sneaky": True})


def test_plan_json_round_trip_is_lossless():
    plan = FaultPlan([
        FaultRule("socket.recv", error="connection", nth=3, times=2),
        FaultRule("worker.simulate", action="exit", scope="worker",
                  probability=0.25, times=None, message="boom"),
    ], seed=17)
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.seed == plan.seed
    assert clone.rules == plan.rules


def test_nth_rule_fires_on_exactly_that_call():
    plan = FaultPlan([FaultRule("store.read", nth=3)])
    with thread_scope(plan):
        fault_point("store.read")
        fault_point("store.read")
        with pytest.raises(InjectedFault):
            fault_point("store.read")
        fault_point("store.read")  # times=1 exhausted the rule
    assert plan.triggered == 1
    assert plan.stats()["calls"]["store.read"] == 4


def test_probabilistic_rule_is_deterministic_per_seed():
    def fire_pattern(seed):
        plan = FaultPlan([FaultRule("backend.generate", probability=0.3,
                                    times=None)], seed=seed)
        pattern = []
        with thread_scope(plan):
            for _ in range(200):
                try:
                    fault_point("backend.generate")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
        return pattern

    assert fire_pattern(7) == fire_pattern(7)
    assert fire_pattern(7) != fire_pattern(8)


def test_times_caps_total_firings():
    plan = FaultPlan([FaultRule("store.read", probability=1.0, times=2)])
    with thread_scope(plan):
        for _ in range(2):
            with pytest.raises(InjectedFault):
                fault_point("store.read")
        fault_point("store.read")
    assert plan.triggered == 2


def test_error_kinds_map_to_standard_exceptions():
    for kind, expected in (("injected", InjectedFault), ("os", OSError),
                           ("connection", ConnectionResetError),
                           ("timeout", TimeoutError)):
        plan = FaultPlan([FaultRule("store.read", error=kind, nth=1)])
        with thread_scope(plan):
            with pytest.raises(expected):
                fault_point("store.read")


def test_truncate_and_corrupt_mangle_byte_payloads():
    data = bytes(range(16))
    plan = FaultPlan([FaultRule("store.write", action="truncate", nth=1),
                      FaultRule("store.write", action="corrupt", nth=2)])
    with thread_scope(plan):
        assert fault_point("store.write", data) == data[:8]
        mangled = fault_point("store.write", data)
        assert len(mangled) == len(data) and mangled != data
        assert fault_point("store.write", data) == data  # rules exhausted


def test_fault_point_is_noop_without_an_active_plan():
    payload = b"untouched"
    for name in FAULT_POINTS:
        assert fault_point(name, payload) is payload
    assert active_plan() is None


def test_thread_scope_is_confined_to_the_activating_thread():
    plan = FaultPlan([FaultRule("store.read", probability=1.0, times=None)])
    seen_elsewhere = []

    def other_thread():
        seen_elsewhere.append(active_plan())
        seen_elsewhere.append(fault_point("store.read", b"ok"))

    with thread_scope(plan):
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        with pytest.raises(InjectedFault):
            fault_point("store.read")
    assert seen_elsewhere == [None, b"ok"]


def test_process_scope_is_visible_to_all_threads_and_shadowed_by_thread():
    process_plan = FaultPlan([FaultRule("store.read", probability=1.0,
                                        times=None)])
    thread_plan = FaultPlan([])
    results = []

    def other_thread():
        try:
            fault_point("store.read")
            results.append("clean")
        except InjectedFault:
            results.append("fired")

    with process_scope(process_plan):
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        with thread_scope(thread_plan):
            # The thread-local (empty) plan shadows the process plan here.
            assert active_plan() is thread_plan
            fault_point("store.read")
        assert active_plan() is process_plan
    assert results == ["fired"]
    assert active_plan() is None


def test_env_scope_exports_plan_without_activating_the_exporter():
    plan = FaultPlan([FaultRule("store.read", nth=1)], seed=5)
    assert ENV_PLAN_VAR not in os.environ
    with env_scope(plan):
        assert FaultPlan.from_json(os.environ[ENV_PLAN_VAR]).rules == plan.rules
        # The exporting process itself stays clean: the plan is meant for
        # children only, so the parent's serial fallback cannot be killed.
        assert active_plan() is None
        assert fault_point("store.read", b"safe") == b"safe"
    assert ENV_PLAN_VAR not in os.environ


def test_env_plan_auto_activates_in_a_child_process(tmp_path):
    code = (
        "from repro.faults import InjectedFault, fault_point\n"
        "try:\n"
        "    fault_point('store.read')\n"
        "    print('CLEAN')\n"
        "except InjectedFault:\n"
        "    print('FIRED')\n"
    )
    env = dict(os.environ)
    env[ENV_PLAN_VAR] = FaultPlan([FaultRule("store.read", nth=1)]).to_json()
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "FIRED"


def test_worker_scoped_rule_never_fires_in_the_parent_process():
    plan = FaultPlan([FaultRule("worker.simulate", action="exit",
                                scope="worker", nth=1)])
    with thread_scope(plan):
        # If the scope guard were broken this would os._exit the test run.
        assert fault_point("worker.simulate", b"alive") == b"alive"
    assert plan.triggered == 0


# ----------------------------------------------------------------------
# store: torn writes, transient reads, full corruption matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cold_route", ["serial", "parallel", "grid"])
def test_torn_result_write_resimulates_only_that_pair(tmp_path, cold_route):
    policies = ["lru", "belady"]
    reference_session, _ = _session(policies=policies)
    reference = {key: _table_bytes(reference_session.database.entry(key))
                 for key in reference_session.database.keys()}
    # Every route writes one result record per simulation: tearing write
    # #2 damages the second pair's only record, so a warm start quarantines
    # it and re-simulates exactly that pair.
    plan = FaultPlan([FaultRule("store.write", action="truncate", nth=2)])
    with thread_scope(plan):
        overrides = dict(jobs=2) if cold_route == "parallel" else {}
        cold_session, _ = _session(tmp_path, policies=policies, **overrides)
        if cold_route == "grid":
            cold_session.run_experiment(cold_session.experiment_spec())
        else:
            _ = cold_session.database
    assert plan.triggered == 1

    with pytest.warns(StoreCorruptionWarning):
        warm_session, warm_cache = _session(tmp_path, policies=policies)
        warm = {key: _table_bytes(warm_session.database.entry(key))
                for key in warm_session.database.keys()}
    assert warm == reference
    assert warm_cache.misses == 1 and warm_cache.store_hits == 1
    quarantined = warm_cache.store.quarantined_files()
    assert len(quarantined) == 1 and quarantined[0].startswith("result-")


def test_transient_read_error_is_a_miss_without_quarantine(tmp_path):
    cold_session, _ = _session(tmp_path)
    _ = cold_session.database
    plan = FaultPlan([FaultRule("store.read", error="os", nth=1)])
    with thread_scope(plan):
        with pytest.warns(StoreCorruptionWarning, match="unreadable"):
            warm_session, warm_cache = _session(tmp_path)
            _ = warm_session.database
    # The pair's only record read failed transiently, so that pair
    # re-simulated — and the healthy file must not have been quarantined.
    assert warm_cache.misses == 1
    assert warm_cache.store.quarantined_files() == []


def _last_section_span(path: str):
    """``(start, stop)`` byte offsets of a record's last section (a
    result's log, a trace's columns, an experiment's JSON)."""
    with open(path, "rb") as handle:
        sizes = [entry["size"] for entry in decode_header(handle)["sections"]]
        stop = handle.tell() + sum(sizes)
    return stop - sizes[-1], stop


def _damage(path: str, mode: str) -> None:
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "truncated":
        data = data[: len(data) // 2]
    elif mode == "zero-byte":
        data = b""
    else:  # a flipped byte: mid-file, or mid-way through the last section
        start, stop = ((0, len(data)) if mode == "bit-flipped"
                       else _last_section_span(path))
        middle = (start + stop) // 2
        data = data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]
    with open(path, "wb") as handle:
        handle.write(data)


def test_a_byte_flipped_in_the_log_section_is_quarantined_at_load(tmp_path):
    """The load checks the log section it does not decompress, so damage
    there is a miss at load, never an error inside a later answer."""
    reference_session, _ = _session()
    reference = _table_bytes(reference_session.database.entry(
        "astar_evictions_lru"))
    cold_session, cold_cache = _session(tmp_path)
    _ = cold_session.database
    objects = os.path.join(str(tmp_path), "objects")
    (shard,) = os.listdir(objects)
    (name,) = os.listdir(os.path.join(objects, shard))
    _damage(os.path.join(objects, shard, name), "last-section-flipped")

    warm_session, warm_cache = _session(tmp_path)
    with pytest.warns(StoreCorruptionWarning, match="corrupt"):
        entry = warm_session.database.entry("astar_evictions_lru")
    assert warm_cache.misses == 1 and warm_cache.store_hits == 0
    assert warm_cache.store.quarantined_files() == [name]
    assert _table_bytes(entry) == reference


@pytest.mark.parametrize("mode", ["truncated", "zero-byte", "bit-flipped",
                                  "last-section-flipped"])
def test_corruption_matrix_across_all_record_kinds(tmp_path, mode):
    """Satellite: every record kind survives every corruption mode."""
    reference_session, _ = _session()
    reference = _table_bytes(reference_session.database.entry(
        "astar_evictions_lru"))

    cold_session, cold_cache = _session(tmp_path)
    _ = cold_session.database
    store = cold_cache.store
    store.save_experiment("cafe0123", {"cells": [1, 2, 3]})
    store.save_trace(generate_trace("astar", NUM_ACCESSES, seed=3),
                     source="unit-test")
    paths = {}  # filename -> actual sharded path
    for shard in os.listdir(os.path.join(store.root, "objects")):
        shard_dir = os.path.join(store.root, "objects", shard)
        for name in os.listdir(shard_dir):
            if name.endswith(".pkl"):
                paths[name] = os.path.join(shard_dir, name)
    records = sorted(paths)
    assert len(records) == 3  # result, experiment, trace
    for name in records:
        _damage(paths[name], mode)
    # Corrupt the manifest too — verify must flag it, repair must re-stamp.
    with open(os.path.join(store.root, "manifest.json"), "w") as handle:
        handle.write("{not json")

    checker = TraceStore(str(tmp_path), strict=False)
    report = checker.verify()
    assert not report["clean"]
    assert sorted(report["corrupt"]) == records
    assert report["ok"] == 0
    assert report["manifest"] == "corrupt"

    repaired = checker.verify(repair=True)
    assert repaired["repaired"]
    assert sorted(repaired["quarantined"]) == records
    assert repaired["manifest"] == "ok"
    assert repaired["clean"]
    assert checker.verify() == {**checker.verify(), "clean": True}

    # A warm start over the repaired (now empty) store re-simulates and
    # produces the byte-identical table.
    warm_session, warm_cache = _session(tmp_path)
    assert _table_bytes(warm_session.database.entry(
        "astar_evictions_lru")) == reference
    assert warm_cache.misses == 1
    assert warm_cache.store.load_experiment("cafe0123") is None
    assert len(warm_cache.store.quarantined_files()) >= len(records)


# ----------------------------------------------------------------------
# parallel builds: crashed workers, broken pools, genuine errors
# ----------------------------------------------------------------------
PARALLEL_TASKS = [(generate_trace(workload, NUM_ACCESSES, seed=0),
                   RolloutSpec(policy, TINY_CONFIG, detail="full"))
                  for workload in ("astar", "lbm")
                  for policy in ("lru", "belady")]


def _serial_reference():
    return _result_tables(ParallelSimulator(jobs=1).run_results(
        PARALLEL_TASKS))


def test_injected_worker_fault_recovers_on_a_fresh_pool(monkeypatch,
                                                        process_pools):
    reference = _serial_reference()
    # Thread workers share this process's plan, so the process-scoped
    # rule fires exactly once across both pools.
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                        ThreadPoolExecutor)
    plan = FaultPlan([FaultRule("worker.simulate", nth=1)])
    simulator = ParallelSimulator(jobs=2)
    with process_scope(plan):
        results = simulator.run_results(PARALLEL_TASKS)
    assert plan.triggered == 1
    assert _result_tables(results) == reference
    assert simulator.recovery["pools_replaced"] == 1
    assert simulator.recovery["retried_jobs"] >= 1
    assert simulator.recovery["serial_jobs"] == 0


def test_killed_process_workers_converge_via_serial_fallback(process_pools):
    reference = _serial_reference()
    # Every fresh pool worker inherits a zero-counter copy of the plan, so
    # its first task dies with os._exit: the original pool breaks, the
    # replacement pool breaks too, and the run converges serially in the
    # parent (where the worker-scoped rule never fires).
    plan = FaultPlan([FaultRule("worker.simulate", action="exit",
                                scope="worker", nth=1)])
    simulator = ParallelSimulator(jobs=2)
    with env_scope(plan):
        results = simulator.run_results(PARALLEL_TASKS)
    assert _result_tables(results) == reference
    assert len(process_pools) == 2
    assert simulator.recovery["pools_replaced"] == 1
    assert simulator.recovery["serial_jobs"] == len(PARALLEL_TASKS)


def test_run_jobs_tally_carries_the_pool_recovery(process_pools, tmp_path,
                                                  capsys):
    """The executor keeps its pool's recovery counters in the call's tally,
    and ``store save`` names them when a build recovered."""
    from repro.cli import main

    planned = [PlannedJob(workload, policy, NUM_ACCESSES, 0,
                          TINY_CONFIG.name, "llc_only")
               for workload in ("astar", "lbm") for policy in ("lru", "belady")]
    configs = {TINY_CONFIG.name: TINY_CONFIG}
    _values, serial = SimulationCache().run_jobs(planned, configs)
    assert {name: serial[name]
            for name in ParallelSimulator.RECOVERY_COUNTERS} == {
        "retried_jobs": 0, "pools_replaced": 0, "serial_jobs": 0}
    # Every pool worker dies on its first task: both pools break and all
    # four tasks finish serially in this process.
    plan = FaultPlan([FaultRule("worker.simulate", action="exit",
                                scope="worker", nth=1)])
    with env_scope(plan):
        _values, tally = SimulationCache().run_jobs(planned, configs,
                                                    jobs=2)
    assert tally["simulations_run"] == len(planned)
    assert tally["pools_replaced"] == 1
    assert tally["retried_jobs"] == tally["serial_jobs"] == len(planned)
    assert len(process_pools) == 2

    base = ["--workloads", "astar,lbm", "--policies", "lru,belady",
            "--accesses", str(NUM_ACCESSES), "--config", "tiny"]
    assert main(["store", "save", "--dir", str(tmp_path / "clean")]
                + base) == 0
    assert "pool recovery" not in capsys.readouterr().out
    with env_scope(plan):
        assert main(["store", "save", "--dir", str(tmp_path / "chaos"),
                     "--jobs", "2"] + base) == 0
    assert ("4 record(s) written; pool recovery: retried_jobs=4, "
            "pools_replaced=1, serial_jobs=4)") in capsys.readouterr().out


def test_genuine_simulation_errors_propagate_not_retried(process_pools):
    trace = generate_trace("astar", NUM_ACCESSES, seed=0)
    tasks = [(trace, RolloutSpec("lru", TINY_CONFIG)),
             (trace, RolloutSpec("no-such-policy", TINY_CONFIG))]
    simulator = ParallelSimulator(jobs=2)
    with pytest.raises(UnknownNameError):
        simulator.run_results(tasks)
    assert len(process_pools) == 1
    assert simulator.recovery == {"retried_jobs": 0, "pools_replaced": 0,
                                  "serial_jobs": 0}


# ----------------------------------------------------------------------
# client/server: retries, restarts, overload, deadlines, drain
# ----------------------------------------------------------------------
def test_transport_faults_are_retried_invisibly():
    with CacheMindService(**SESSION_KWARGS) as service:
        baseline = service.ask(QUESTION).answer.to_dict()
        with CacheMindServer(service) as server:
            server.start()
            host, port = server.address
            plan = FaultPlan([
                FaultRule("socket.send", error="connection", nth=1),
                FaultRule("socket.recv", error="connection", nth=1),
            ])
            with RemoteClient(host, port, retries=3, backoff_base=0.01,
                              retry_seed=11) as client:
                with thread_scope(plan):
                    response = client.ask(QUESTION)
                assert plan.triggered == 2
                assert client.retries_used == 2
                assert response.answer.to_dict() == baseline


def test_server_restart_is_invisible_to_a_retrying_client():
    with CacheMindService(**SESSION_KWARGS) as service_a:
        server_a = CacheMindServer(service_a)
        server_a.start()
        host, port = server_a.address
        with RemoteClient(host, port, retries=5, backoff_base=0.02,
                          retry_seed=3) as client:
            first = client.ask(QUESTION)
            server_a.close()
            with CacheMindService(**SESSION_KWARGS) as service_b:
                with CacheMindServer(service_b, host=host,
                                     port=port) as server_b:
                    server_b.start()
                    # The client still holds the dead connection; the next
                    # request reconnects and retries without the caller
                    # seeing anything but the identical answer.
                    second = client.ask(QUESTION)
                    assert client.retries_used >= 1
                    assert second.answer.to_dict() == first.answer.to_dict()


def _occupy(server: CacheMindServer, slots: int) -> None:
    with server._state_lock:
        server._in_flight = slots


def test_overloaded_server_sheds_with_a_structured_error():
    with CacheMindService(**SESSION_KWARGS) as service:
        server = CacheMindServer(service, max_in_flight=2)
        try:
            _occupy(server, 2)
            reply = server.dispatch_line(json.dumps(
                {"op": "ask", "question": QUESTION}).encode())
            assert reply["ok"] is False
            assert reply["kind"] == "overloaded"
            assert reply["retry_after_ms"] > 0
            # Liveness and health probes answer even while saturated.
            assert server.dispatch_line(b'{"op": "ping"}')["ok"] is True
            health = server.dispatch_line(b'{"op": "health"}')["result"]
            assert health["status"] == "overloaded"
            assert health["shed"] == 1
            assert health["in_flight"] == 2
        finally:
            _occupy(server, 0)
            server.close()


def test_client_maps_overload_and_drain_to_typed_errors():
    with CacheMindService(**SESSION_KWARGS) as service:
        server = CacheMindServer(service, max_in_flight=1)
        server.start()
        host, port = server.address
        try:
            with RemoteClient(host, port, retries=0) as client:
                _occupy(server, 1)
                with pytest.raises(ServerOverloadedError) as excinfo:
                    client.ask(QUESTION)
                assert excinfo.value.kind == "overloaded"
                _occupy(server, 0)
                assert client.ask(QUESTION).answer.grounded
                assert server.drain(timeout=1.0)
                with pytest.raises(ServerShuttingDownError):
                    client.ask(QUESTION)
                assert client.health()["status"] == "draining"
        finally:
            server.close()


def test_deadlines_reject_instead_of_executing_late():
    with CacheMindService(**SESSION_KWARGS) as service:
        server = CacheMindServer(service)
        server.start()
        host, port = server.address
        try:
            reply = server.dispatch_line(json.dumps(
                {"op": "ask", "question": QUESTION,
                 "deadline_ms": 0}).encode())
            assert reply == {"ok": False, "kind": "deadline",
                             "error": reply["error"]}
            bad = server.dispatch_line(json.dumps(
                {"op": "ask", "question": QUESTION,
                 "deadline_ms": "soon"}).encode())
            assert bad["kind"] == "bad_request"
            with RemoteClient(host, port, retries=3, deadline=0.0) as client:
                with pytest.raises(DeadlineExceeded) as excinfo:
                    client.ask(QUESTION)
                assert excinfo.value.kind == "deadline"
            health = server.dispatch_line(b'{"op": "health"}')["result"]
            assert health["deadline_rejects"] == 1
        finally:
            server.close()


def test_health_op_reports_degradation_snapshot():
    with CacheMindService(**SESSION_KWARGS) as service:
        with CacheMindServer(service, max_in_flight=7) as server:
            server.start()
            host, port = server.address
            with RemoteClient(host, port) as client:
                health = client.health()
    assert health["status"] == "ok"
    assert health["draining"] is False
    assert health["capacity"] == 7
    assert health["in_flight"] == 0
    assert health["shed"] == 0
    assert health["uptime_seconds"] >= 0
    assert "hits" in health["simulation_cache"]


def test_close_warns_when_inflight_requests_outlive_the_drain():
    with CacheMindService(**SESSION_KWARGS) as service:
        server = CacheMindServer(service, drain_timeout=0.05)
        _occupy(server, 1)
        with pytest.warns(RuntimeWarning, match="in-flight"):
            server.close()


def test_backend_fault_becomes_internal_error_not_a_hangup():
    with CacheMindService(**SESSION_KWARGS) as service:
        server = CacheMindServer(service)
        try:
            plan = FaultPlan([FaultRule("backend.generate", nth=1)])
            line = json.dumps({"op": "ask", "question": QUESTION}).encode()
            with thread_scope(plan):
                reply = server.dispatch_line(line)
            assert reply["ok"] is False
            assert reply["kind"] == "internal"
            # The connection contract holds: the very next request on the
            # same dispatch path answers normally.
            retry = server.dispatch_line(line)
            assert retry["ok"] is True
        finally:
            server.close()


# ----------------------------------------------------------------------
# store verify CLI
# ----------------------------------------------------------------------
def test_store_verify_cli_flags_then_repairs(tmp_path, capsys):
    from repro.cli import main

    store = TraceStore(str(tmp_path / "store"))
    result = ParallelSimulator(jobs=1).run_results(PARALLEL_TASKS[:1])[0]
    path = store.save_result(("astar", "lru", NUM_ACCESSES), result)
    _damage(path, "truncated")
    argv = ["store", "verify", "--dir", str(tmp_path / "store")]

    assert main(argv) == 1
    out = capsys.readouterr()
    assert "corrupt" in out.out
    assert "--repair" in out.err

    assert main(argv + ["--repair"]) == 0
    assert "store is clean" in capsys.readouterr().out
    assert main(argv) == 0
