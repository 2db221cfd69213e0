"""Persistent on-disk store: round-trips, versioning, corruption, CLI.

The store must hand back byte-identical simulation results and tables, refuse
stores written with a foreign schema version, and degrade gracefully (warn,
rebuild) when a record file is corrupt or truncated.
"""

import json
import os
import warnings

import pytest

from repro.cli import main
from repro.core.pipeline import CacheMind, SimulationCache
from repro.core.plan import PlannedJob
from repro.errors import StoreVersionError
from repro.sim.batch import RolloutSpec
from repro.sim.config import TINY_CONFIG
from repro.tracedb.store import (
    STORE_SCHEMA_VERSION,
    StoreCorruptionWarning,
    TraceStore,
    key_digest,
    simulation_key,
)
from repro.workloads.generator import generate_trace

WORKLOADS = ["astar", "lbm"]
POLICIES = ["lru", "belady"]
NUM_ACCESSES = 300

SESSION_KWARGS = dict(workloads=WORKLOADS, policies=POLICIES,
                      num_accesses=NUM_ACCESSES, config=TINY_CONFIG, seed=0)


def _raise_on_unpickle():
    raise AssertionError("payload was unpickled by a header-only path")


def _session(store_dir):
    cache = SimulationCache(store=TraceStore(str(store_dir)))
    return CacheMind(simulation_cache=cache, **SESSION_KWARGS), cache


def _table_bytes(entry):
    return json.dumps(list(entry.data_frame.iter_rows()), sort_keys=True,
                      default=str).encode("utf-8")


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def test_save_load_round_trip_is_byte_identical(tmp_path):
    cold_session, cold_cache = _session(tmp_path)
    cold_db = cold_session.database
    assert cold_cache.misses == len(WORKLOADS) * len(POLICIES)

    warm_session, warm_cache = _session(tmp_path)
    warm_db = warm_session.database
    assert warm_cache.misses == 0
    assert warm_cache.store_hits == len(WORKLOADS) * len(POLICIES)

    assert cold_db.keys() == warm_db.keys()
    for key in cold_db.keys():
        cold_entry, warm_entry = cold_db.entry(key), warm_db.entry(key)
        assert _table_bytes(cold_entry) == _table_bytes(warm_entry)
        assert cold_entry.metadata == warm_entry.metadata
        assert cold_entry.statistics == warm_entry.statistics
        cold_result, warm_result = cold_entry.result, warm_entry.result
        assert (cold_result.llc_stats.as_tuple()
                == warm_result.llc_stats.as_tuple())
        assert cold_result.timing.ipc == warm_result.timing.ipc
        assert cold_result.timing.cycles == warm_result.timing.cycles
        assert cold_result.wrong_evictions == warm_result.wrong_evictions


def test_cold_build_writes_one_result_record_per_pair(tmp_path):
    pairs = len(WORKLOADS) * len(POLICIES)
    cold_session, cold_cache = _session(tmp_path)
    cold_db = cold_session.database
    assert cold_cache.store.saves == pairs
    report = TraceStore(str(tmp_path)).verify()
    assert report["clean"] and report["checked"] == pairs
    assert report["by_kind"] == {"result": pairs, "experiment": 0,
                                 "trace": 0}

    warm_session, warm_cache = _session(tmp_path)
    warm_db = warm_session.database
    assert warm_cache.misses == 0 and warm_cache.store.saves == 0
    assert warm_db.keys() == cold_db.keys()
    for key in cold_db.keys():
        cold_entry, warm_entry = cold_db.entry(key), warm_db.entry(key)
        assert _table_bytes(warm_entry) == _table_bytes(cold_entry)
        assert warm_entry.metadata == cold_entry.metadata
        assert repr(warm_entry.statistics) == repr(cold_entry.statistics)


def test_warm_session_answers_with_zero_simulations(tmp_path):
    cold_session, _cache = _session(tmp_path)
    _ = cold_session.database
    # What a real session wrote verifies clean before anything damages it.
    report = TraceStore(str(tmp_path)).verify()
    assert report["clean"], report
    pairs = len(WORKLOADS) * len(POLICIES)
    assert report["by_kind"]["result"] == report["ok"] == pairs
    assert report["ok"] == report["checked"]

    warm_session, warm_cache = _session(tmp_path)
    answer = warm_session.ask("What is the miss rate of lru on astar?")
    assert answer.grounded
    assert warm_cache.misses == 0, "warm session must not simulate"


def test_result_round_trip_via_run_jobs(tmp_path):
    store = TraceStore(str(tmp_path))
    job = PlannedJob("astar", "lru", NUM_ACCESSES, 0, TINY_CONFIG.name,
                     "llc_only")
    configs = {TINY_CONFIG.name: TINY_CONFIG}

    cold_cache = SimulationCache(store=store)
    cold = cold_cache.run_jobs([job], configs)[0][job.key].result
    assert cold_cache.misses == 1

    warm_cache = SimulationCache(store=store)
    warm = warm_cache.run_jobs([job], configs)[0][job.key].result
    assert warm_cache.misses == 0 and warm_cache.store_hits == 1
    assert warm.llc_stats.as_tuple() == cold.llc_stats.as_tuple()
    assert warm.timing.ipc == cold.timing.ipc
    # Row views rebuild from the shipped columnar log.
    assert len(warm.records) == len(cold.records)
    assert warm.records[10].__dict__ == cold.records[10].__dict__


def test_builds_persist_results_so_simulate_is_warm_too(tmp_path):
    cold_session, _ = _session(tmp_path)
    _ = cold_session.database  # persists one result record per pair

    warm_session, warm_cache = _session(tmp_path)
    result = warm_session.simulate("astar", "lru")
    assert warm_cache.misses == 0 and warm_cache.store_hits == 1
    assert result.llc_stats.accesses == NUM_ACCESSES


def test_build_database_with_store_loads_instead_of_simulating(tmp_path):
    first = CacheMind(store_dir=str(tmp_path), **SESSION_KWARGS).database
    store = TraceStore(str(tmp_path))
    assert store.info()["results"] == len(WORKLOADS) * len(POLICIES)
    second = CacheMind(simulation_cache=SimulationCache(store=store),
                       **SESSION_KWARGS).database
    loads_before = store.loads
    assert loads_before >= len(WORKLOADS) * len(POLICIES)
    for key in first.keys():
        assert _table_bytes(first.entry(key)) == _table_bytes(second.entry(key))


def test_store_keys_follow_trace_content():
    spec = RolloutSpec("lru", TINY_CONFIG, detail="full")
    trace = generate_trace("astar", NUM_ACCESSES, seed=0)
    other = generate_trace("astar", NUM_ACCESSES, seed=1)
    other.seed = trace.seed  # same metadata, different content
    assert simulation_key(spec, trace) != simulation_key(spec, other)
    # The digest names the record file: pinned, so stores written by
    # earlier builds stay warm.
    assert (key_digest(simulation_key(spec, trace))
            == "000bf2aa389d1c2ff5d6ab0b3d905775")


# ----------------------------------------------------------------------
# versioning
# ----------------------------------------------------------------------
def test_foreign_schema_version_is_refused(tmp_path):
    TraceStore(str(tmp_path))  # writes a current-version manifest
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema": STORE_SCHEMA_VERSION + 1}))
    with pytest.raises(StoreVersionError):
        TraceStore(str(tmp_path))


def test_corrupt_manifest_is_quarantined_and_rebuilt(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), {"x": 1})
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.warns(StoreCorruptionWarning):
        healed = TraceStore(str(tmp_path))
    # The bad manifest is preserved aside, a fresh one is stamped, and the
    # surviving record is still readable.
    assert "manifest.json" in healed.quarantined_files()
    assert healed.load("result", ("k",)) == {"x": 1}
    assert json.loads((tmp_path / "manifest.json").read_text())["schema"] \
        == STORE_SCHEMA_VERSION


def test_corrupt_manifest_over_foreign_records_is_refused(tmp_path):
    """Manifest self-healing must not adopt another build's records."""
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), {"x": 1})
    # Re-open pretending to be a future build whose records use a bumped
    # schema (the manifest still matches at open time).
    future = TraceStore(str(tmp_path))
    future.schema_version = STORE_SCHEMA_VERSION + 1
    future.save("result", ("other",), {"x": 2})
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(StoreVersionError):
        TraceStore(str(tmp_path))


def test_foreign_record_schema_is_a_miss(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), {"x": 1})
    # Re-open pretending to be a future version that kept the manifest
    # format but bumped record layouts.
    future = TraceStore(str(tmp_path))
    future.schema_version = STORE_SCHEMA_VERSION + 1
    with pytest.warns(StoreCorruptionWarning):
        assert future.load("result", ("k",)) is None


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------
def _record_paths(store_dir):
    """Every record file under the sharded ``objects/`` tree."""
    objects = os.path.join(str(store_dir), "objects")
    paths = []
    for shard in sorted(os.listdir(objects)):
        shard_dir = os.path.join(objects, shard)
        paths.extend(os.path.join(shard_dir, name)
                     for name in os.listdir(shard_dir)
                     if name.endswith(".pkl"))
    assert paths
    return sorted(paths, key=os.path.basename)


def _first_record_path(store_dir):
    return _record_paths(store_dir)[0]


def _truncate(path):
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])


@pytest.mark.parametrize("warm_route", ["database", "grid"])
def test_truncated_entry_warns_and_recovers_from_result_record(tmp_path,
                                                               warm_route):
    """An entry's only record is its simulation's result record: a
    truncated one warns, and that one pair re-simulates."""
    cold_session, _ = _session(tmp_path)
    cold_db = cold_session.database
    _truncate(_first_record_path(str(tmp_path)))

    warm_session, warm_cache = _session(tmp_path)
    with pytest.warns(StoreCorruptionWarning):
        if warm_route == "database":
            cells = len(warm_session.database)
        else:
            grid = warm_session.run_experiment(warm_session.experiment_spec())
            assert grid.counters["simulations_run"] == 1
            cells = len(grid)
    assert warm_cache.misses == 1
    assert warm_cache.store_hits == len(WORKLOADS) * len(POLICIES) - 1
    assert cells == len(WORKLOADS) * len(POLICIES)
    for key in cold_db.keys():
        assert (_table_bytes(warm_session.database.entry(key))
                == _table_bytes(cold_db.entry(key)))


def test_fully_corrupt_store_warns_and_resimulates(tmp_path):
    cold_session, _ = _session(tmp_path)
    _ = cold_session.database
    for path in _record_paths(tmp_path):
        _truncate(path)

    warm_session, warm_cache = _session(tmp_path)
    with pytest.warns(StoreCorruptionWarning):
        warm_db = warm_session.database
    # Nothing usable on disk: every pair re-simulates...
    assert warm_cache.misses == len(WORKLOADS) * len(POLICIES)
    assert len(warm_db) == len(WORKLOADS) * len(POLICIES)
    # ...and the rebuild overwrote the bad records: next session is warm.
    third_session, third_cache = _session(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _ = third_session.database
    assert third_cache.misses == 0


def test_garbage_bytes_record_is_a_miss(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), {"x": 1})
    path = _first_record_path(str(tmp_path))
    with open(path, "wb") as handle:
        handle.write(b"definitely not a store record")
    with pytest.warns(StoreCorruptionWarning):
        assert store.load("result", ("k",)) is None


def test_gc_removes_corrupt_and_prunes(tmp_path):
    store = TraceStore(str(tmp_path))
    for i in range(4):
        store.save("result", (i,), {"i": i})
    # Corrupt one record, and strand a fake interrupted atomic write.
    path = _first_record_path(str(tmp_path))
    with open(path, "wb") as handle:
        handle.write(b"junk")
    (tmp_path / "orphaned123.tmp").write_bytes(b"half-written")
    # temp_max_age=0: in the test every temp counts as stale; the
    # default age gate is what protects concurrent writers in production.
    removed = store.gc(max_records=2, temp_max_age=0.0)
    assert len(removed["corrupt"]) == 1
    assert len(removed["pruned"]) == 1
    assert removed["temp"] == ["orphaned123.tmp"]
    assert len(store) == 2
    assert store.clear() == 2
    assert len(store) == 0


def test_gc_recovers_a_foreign_schema_store(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), {"x": 1})
    (tmp_path / "manifest.json").write_text(
        json.dumps({"schema": STORE_SCHEMA_VERSION + 1}))
    # Strict opening refuses...
    with pytest.raises(StoreVersionError):
        TraceStore(str(tmp_path))
    # ...but gc (non-strict) cleans up and re-stamps the manifest, after
    # which the store opens normally again.  The v1 record survives since
    # its header carries the current schema.
    removed = TraceStore(str(tmp_path), strict=False).gc()
    assert removed["schema"] == []
    reopened = TraceStore(str(tmp_path))
    assert reopened.load("result", ("k",)) == {"x": 1}


def test_store_verify_hints_gc_for_foreign_records(tmp_path, capsys):
    # --repair leaves foreign records alone, so it is not the remedy.
    future = TraceStore(str(tmp_path))
    future.schema_version = STORE_SCHEMA_VERSION + 1
    future.save("result", ("k",), {"x": 1})
    for repair in ([], ["--repair"]):
        assert main(["store", "verify", "--dir", str(tmp_path)]
                    + repair) == 1
        assert "store gc --dir" in capsys.readouterr().err


def test_info_is_header_only(tmp_path):
    """``info`` must not unpickle payloads (maintenance stays cheap)."""
    store = TraceStore(str(tmp_path))

    class Unloadable:
        def __reduce__(self):
            return (_raise_on_unpickle, ())

    store.save("result", ("k",), Unloadable())
    info = store.info()
    assert info["results"] == 1 and info["unreadable"] == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_store_cli_save_load_info_gc(tmp_path, capsys):
    store_dir = str(tmp_path / "cli_store")
    base = ["--workloads", "astar", "--policies", "lru,belady",
            "--accesses", "300", "--config", "tiny"]
    assert main(["store", "save", "--dir", store_dir] + base) == 0
    # Each pair persists one result record.
    assert "2 record(s) written" in capsys.readouterr().out

    assert main(["store", "load", "--dir", store_dir, "--expect-warm"]
                + base) == 0
    assert "2 from store, 0 simulated" in capsys.readouterr().out

    assert main(["store", "info", "--dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert f"schema version: {STORE_SCHEMA_VERSION}" in out
    assert "records: 2 (2 results," in out

    assert main(["store", "gc", "--dir", store_dir,
                 "--max-records", "1"]) == 0
    assert "removed 1 record(s)" in capsys.readouterr().out


def test_store_cli_read_only_commands_reject_missing_dir(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["store", "info", "--dir", str(missing)]) == 1
    assert "no trace store" in capsys.readouterr().err
    assert main(["store", "gc", "--dir", str(missing)]) == 1
    # A typo'd path must not leave an empty store behind.
    assert not missing.exists()


def test_store_cli_expect_warm_fails_on_cold_store(tmp_path, capsys):
    store_dir = str(tmp_path / "cold_store")
    base = ["--workloads", "astar", "--policies", "lru",
            "--accesses", "300", "--config", "tiny"]
    assert main(["store", "load", "--dir", store_dir, "--expect-warm"]
                + base) == 1
    assert "expected a warm start" in capsys.readouterr().err


def test_store_cli_reports_version_mismatch_and_gc_recovers(tmp_path, capsys):
    store_dir = tmp_path / "versioned"
    TraceStore(str(store_dir))
    (store_dir / "manifest.json").write_text(json.dumps({"schema": 999}))
    assert main(["store", "info", "--dir", str(store_dir)]) == 1
    assert "store gc" in capsys.readouterr().err
    # The recovery path the error message recommends must actually work.
    assert main(["store", "gc", "--dir", str(store_dir)]) == 0
    capsys.readouterr()
    assert main(["store", "info", "--dir", str(store_dir)]) == 0


def test_conflicting_store_dir_is_rejected(tmp_path):
    cache = SimulationCache(store=TraceStore(str(tmp_path / "a")))
    CacheMind(simulation_cache=cache, store_dir=str(tmp_path / "a"),
              **SESSION_KWARGS)  # same directory: fine
    with pytest.raises(ValueError):
        CacheMind(simulation_cache=cache, store_dir=str(tmp_path / "b"),
                  **SESSION_KWARGS)
