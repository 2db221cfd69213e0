"""Persistent on-disk store: round-trips, versioning, corruption, CLI.

The store must hand back byte-identical simulation results and tables, refuse
stores written with a foreign schema version, and degrade gracefully (warn,
rebuild) when a record file is corrupt or truncated.
"""

import json
import os
import pickle
import struct
import sys
import threading
import warnings
import zlib

import pytest

import repro.tracedb.store as store_module
from repro.cli import main
from repro.core.experiment import ExperimentResult
from repro.core.pipeline import CacheMind, SimulationCache
from repro.core.plan import PlannedJob
from repro.errors import StoreVersionError
from repro.sim.batch import RolloutSpec
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.tracedb.objstore import (
    PICKLED_RECORD_MAGIC,
    decode_header,
    encode_record,
    read_sections,
)
from repro.tracedb.store import (
    STORE_SCHEMA_VERSION,
    StoreCorruptionWarning,
    TraceStore,
    key_digest,
    simulation_key,
)
from repro.workloads.generator import generate_trace, unregister_workload
from repro.workloads.ingest import import_trace_file, write_text_trace
from row_oracle import to_records

WORKLOADS = ["astar", "lbm"]
POLICIES = ["lru", "belady"]
NUM_ACCESSES = 300

SESSION_KWARGS = dict(workloads=WORKLOADS, policies=POLICIES,
                      num_accesses=NUM_ACCESSES, config=TINY_CONFIG, seed=0)


def _raise_on_decompress(*_args):
    raise AssertionError("a section was decompressed by a header-only path")


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
    warm_records, cold_records = to_records(warm.log), to_records(cold.log)
    assert len(warm_records) == len(cold_records)
    assert warm_records[10].__dict__ == cold_records[10].__dict__


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
    assert simulation_key(spec, trace) == (
        "astar", "lru", TINY_CONFIG, "llc_only", "full", NUM_ACCESSES, 0,
        trace.fingerprint())
    # The digest names the record file: pinned, because a key that changes
    # strands every stored result and needs a STORE_SCHEMA_VERSION bump.
    assert (key_digest(simulation_key(spec, trace))
            == "1221712b95cffd099c755adbdc7700ed")


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
    store.save("experiment", ("k",), {"x": 1})
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.warns(StoreCorruptionWarning):
        healed = TraceStore(str(tmp_path))
    # The bad manifest is preserved aside, a fresh one is stamped, and the
    # surviving record is still readable.
    assert "manifest.json" in healed.quarantined_files()
    assert healed.load("experiment", ("k",)) == {"x": 1}
    assert json.loads((tmp_path / "manifest.json").read_text())["schema"] \
        == STORE_SCHEMA_VERSION


def test_corrupt_manifest_over_foreign_records_is_refused(tmp_path):
    """Manifest self-healing must not adopt another build's records."""
    store = TraceStore(str(tmp_path))
    store.save("experiment", ("k",), {"x": 1})
    # Re-open pretending to be a future build whose records use a bumped
    # schema (the manifest still matches at open time).
    future = TraceStore(str(tmp_path))
    future.schema_version = STORE_SCHEMA_VERSION + 1
    future.save("experiment", ("other",), {"x": 2})
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(StoreVersionError):
        TraceStore(str(tmp_path))


def test_foreign_record_schema_is_a_miss(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("experiment", ("k",), {"x": 1})
    # Re-open pretending to be a future version that kept the manifest
    # format but bumped record layouts.
    future = TraceStore(str(tmp_path))
    future.schema_version = STORE_SCHEMA_VERSION + 1
    with pytest.warns(StoreCorruptionWarning):
        assert future.load("experiment", ("k",)) is None


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
    store.save("experiment", ("k",), {"x": 1})
    path = _first_record_path(str(tmp_path))
    with open(path, "wb") as handle:
        handle.write(b"definitely not a store record")
    with pytest.warns(StoreCorruptionWarning):
        assert store.load("experiment", ("k",)) is None


def test_gc_removes_corrupt_and_prunes(tmp_path):
    store = TraceStore(str(tmp_path))
    for i in range(4):
        store.save("experiment", (i,), {"i": i})
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
    store.save("experiment", ("k",), {"x": 1})
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
    assert reopened.load("experiment", ("k",)) == {"x": 1}


def test_store_verify_hints_gc_for_foreign_records(tmp_path, capsys):
    # --repair leaves foreign records alone, so it is not the remedy.
    future = TraceStore(str(tmp_path))
    future.schema_version = STORE_SCHEMA_VERSION + 1
    future.save("experiment", ("k",), {"x": 1})
    for repair in ([], ["--repair"]):
        assert main(["store", "verify", "--dir", str(tmp_path)]
                    + repair) == 1
        assert "store gc --dir" in capsys.readouterr().err


def test_info_is_header_only(tmp_path, monkeypatch):
    """``info`` must not decompress sections (maintenance stays cheap)."""
    store = TraceStore(str(tmp_path))
    job = PlannedJob("astar", "lru", NUM_ACCESSES, 0, TINY_CONFIG.name,
                     "llc_only")
    result = SimulationCache().run_jobs(
        [job], {TINY_CONFIG.name: TINY_CONFIG})[0][job.key].result
    store.save("result", ("k",), result)
    monkeypatch.setattr(zlib, "decompress", _raise_on_decompress)
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


# ----------------------------------------------------------------------
# the pickle-free record codec
# ----------------------------------------------------------------------
def _refuse_unpickling(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a store read path unpickled bytes from disk")

    for name in ("loads", "load", "Unpickler"):
        monkeypatch.setattr(pickle, name, refuse)


def _explode():
    raise AssertionError("a byte after the pickled record's magic was "
                         "unpickled")


class _Bomb:
    """Unpickling this calls :func:`_explode`."""

    def __reduce__(self):
        return (_explode, ())


def _objects_tree(root):
    """Every file under a store's ``objects/`` tree, with its bytes."""
    tree = {}
    for directory, _dirs, files in os.walk(os.path.join(str(root),
                                                        "objects")):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, str(root))] = handle.read()
    return tree


def test_no_store_read_path_unpickles(tmp_path, monkeypatch, capsys):
    root = str(tmp_path / "store")
    cold_session, _ = _session(root)
    cold_db = cold_session.database
    experiment = cold_session.run_experiment(cold_session.experiment_spec())
    trace = generate_trace("mcf", 200, seed=1)
    source = write_text_trace(trace, str(tmp_path / "inspected.csv"))
    try:
        _name, meta = import_trace_file(TraceStore(root), source,
                                        name="inspected")
        _refuse_unpickling(monkeypatch)
        # load of each kind
        warm_session, warm_cache = _session(root)
        for key in cold_db.keys():
            assert (_table_bytes(warm_session.database.entry(key))
                    == _table_bytes(cold_db.entry(key)))
        assert warm_cache.store_hits == len(WORKLOADS) * len(POLICIES)
        store = TraceStore(root)
        loaded = ExperimentResult.load(store, experiment.fingerprint)
        assert loaded.columns == experiment.columns
        stored_trace = store.load_trace(meta["fingerprint"])
        assert stored_trace.columns() == trace.columns()
        assert [summary["fingerprint"] for summary in
                store.list_experiments()] == [experiment.fingerprint]
        # the inspection and maintenance paths
        assert store.info()["unreadable"] == 0
        assert store.verify()["clean"]
        for command in (["trace", "list", "--dir", root],
                        ["trace", "info", "inspected", "--dir", root],
                        ["experiment", "report", "--store-dir", root]):
            assert main(command) == 0, command
        capsys.readouterr()
        assert not any(store.gc().values())
    finally:
        unregister_workload("inspected")


def test_a_loaded_log_stays_compressed_until_read(tmp_path, monkeypatch):
    cold_session, _ = _session(tmp_path)
    cold_db = cold_session.database
    decoded = []
    unpack = store_module.unpack_columns
    monkeypatch.setattr(store_module, "unpack_columns",
                        lambda *args: decoded.append(args) or unpack(*args))

    # A warm grid reads each cell's counters: it decodes no log.
    warm_session, warm_cache = _session(tmp_path)
    grid = warm_session.run_experiment(warm_session.experiment_spec())
    assert grid.counters["simulations_run"] == 0
    assert grid.counters["store_hits"] == len(WORKLOADS) * len(POLICIES)
    assert decoded == []
    # Deriving entries, their lengths and row counts decode nothing either.
    warm_db = warm_session.database
    for key in cold_db.keys():
        warm, cold = warm_db.entry(key).result, cold_db.entry(key).result
        assert len(warm.log) == len(cold.log) == NUM_ACCESSES
        assert warm.num_records == cold.num_records
        assert warm_db.entry(key).metadata == cold_db.entry(key).metadata
    assert decoded == []

    # The first read of any column decodes them all, once.
    entry = warm_db.entry("astar_evictions_lru")
    assert len(entry.result.log.recencies) == NUM_ACCESSES
    assert len(decoded) == 1
    assert _table_bytes(entry) == _table_bytes(
        cold_db.entry("astar_evictions_lru"))
    assert len(decoded) == 1
    # Pickling a deferred log decodes it first: it pickles as the fresh
    # log the replay wrote.
    key = "lbm_evictions_belady"
    assert (pickle.dumps(warm_db.entry(key).result.log)
            == pickle.dumps(cold_db.entry(key).result.log))
    assert len(decoded) == 2


def _schema_3_store(root):
    """A store as the schema-3 build left it: a schema-3 manifest and one
    pickled result record, whose header unpickles into a call to
    :func:`_explode`.  Returns the record name."""
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"schema": 3, "layout": "sharded"}, handle)
    key = ("k",)
    digest = key_digest(key)
    header = pickle.dumps({"schema": 3, "kind": "result",
                           "key_repr": repr(key), "bomb": _Bomb()})
    shard_dir = os.path.join(root, "objects", digest[:2])
    os.makedirs(shard_dir)
    name = f"result-{digest}.pkl"
    with open(os.path.join(shard_dir, name), "wb") as handle:
        handle.write(PICKLED_RECORD_MAGIC + struct.pack("<I", len(header))
                     + header + zlib.compress(pickle.dumps(_Bomb())))
    return name


def test_a_schema_3_store_is_foreign_by_magic_until_gc(tmp_path, capsys):
    root = str(tmp_path)
    name = _schema_3_store(root)
    with pytest.raises(StoreVersionError, match="store gc"):
        TraceStore(root)
    # Judged from the record's magic alone: nothing is unpickled.
    store = TraceStore(root, strict=False)
    report = store.verify()
    assert report["foreign"] == [name]
    assert report["corrupt"] == [] and report["ok"] == 0
    with pytest.warns(StoreCorruptionWarning, match="does not match"):
        assert store.load("result", ("k",)) is None
    assert store.info()["unreadable"] == 0
    assert store.quarantined_files() == []
    assert main(["store", "gc", "--dir", root]) == 0
    assert f"removed (schema): {name}" in capsys.readouterr().out
    # gc converts it: the store opens, and a session over it is cold once.
    assert len(TraceStore(root)) == 0
    cold, warm = SimulationCache(), SimulationCache()
    for cache in (cold, warm):
        _ = CacheMind(store_dir=root, simulation_cache=cache,
                      **SESSION_KWARGS).database
    assert cold.misses > 0 and warm.misses == 0


def test_a_schema_4_store_is_refused_until_gc(tmp_path, capsys):
    """Schema 4 keyed results by the record cap, history window and context
    flag too: its records would sit under digests no lookup computes."""
    root = str(tmp_path)
    spec = RolloutSpec("lru", TINY_CONFIG, detail="full")
    trace = generate_trace("astar", NUM_ACCESSES, seed=0)
    old = TraceStore(root)
    old.schema_version = 4
    old.save_result(simulation_key(spec, trace) + (None, 8, True),
                    SimulationEngine(config=TINY_CONFIG).run(trace, "lru"))
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"schema": 4, "layout": "sharded"}, handle)
    with pytest.raises(StoreVersionError, match="store gc"):
        TraceStore(root)
    assert main(["store", "load", "--dir", root, "--workloads", "astar",
                 "--policies", "lru", "--accesses", "300", "--config",
                 "tiny"]) == 1
    assert "store gc" in capsys.readouterr().err
    assert main(["store", "gc", "--dir", root]) == 0
    assert "removed (schema): result-" in capsys.readouterr().out
    assert len(TraceStore(root)) == 0


def test_store_save_writes_identical_records_under_any_jobs(tmp_path,
                                                            process_pools):
    base = ["--workloads", "astar,lbm", "--policies", "lru,belady",
            "--accesses", "400", "--config", "tiny"]
    for jobs in ("1", "2"):
        assert main(["store", "save", "--dir", str(tmp_path / jobs),
                     "--jobs", jobs] + base) == 0
    assert len(process_pools) == 1  # the --jobs 2 build used workers
    serial = _objects_tree(tmp_path / "1")
    assert len(serial) == 4
    assert _objects_tree(tmp_path / "2") == serial


def _rewrite_record(path, edit):
    """Re-encode the record at ``path`` with valid checksums after
    ``edit(header, sections)`` changed its decoded parts: ``header`` without
    its section table, ``sections`` as ``[name, bytes, table extras]``."""
    with open(path, "rb") as handle:
        header = decode_header(handle)
        blobs = read_sections(handle, header)
    sections = [[entry["name"], zlib.decompress(blobs[entry["name"]]),
                 {key: value for key, value in entry.items()
                  if key not in ("name", "size", "crc32")}]
                for entry in header.pop("sections")]
    edit(header, sections)
    with open(path, "wb") as handle:
        handle.write(encode_record(header, sections))


def _edit_result_json(change):
    def edit(_header, sections):
        document = json.loads(sections[0][1])
        sections[0][1] = json.dumps(change(document)).encode("utf-8")
    return edit


def _edit_log_layout(change):
    def edit(_header, sections):
        change(sections[1][2]["columns"])
    return edit


MALFORMED = {
    "json-field-missing": _edit_result_json(
        lambda document: {key: value for key, value in document.items()
                          if key != "timing"}),
    "json-not-an-object": _edit_result_json(lambda document: [document]),
    "json-field-mistyped": _edit_result_json(
        lambda document: {**document, "llc_stats": [1, 2, 3]}),
    "column-count": _edit_log_layout(
        lambda columns: columns[1].__setitem__(2, columns[1][2] + 1)),
    "column-typecode": _edit_log_layout(
        lambda columns: columns[0].__setitem__(1, "?")),
    "column-missing": _edit_log_layout(lambda columns: columns.pop()),
    "section-missing": lambda _header, sections: sections.pop(),
    # Table extras land after the real size, so this writes a bad one.
    "section-size-malformed": lambda _header, sections: (
        sections[1][2].__setitem__("size", -1)),
}


@pytest.mark.parametrize("malformation", sorted(MALFORMED))
def test_a_malformed_record_is_quarantined_at_load(tmp_path, malformation):
    """Well-checksummed but malformed content is a content error: verify
    lists the record as corrupt, and a load quarantines it instead of
    raising in a later answer."""
    cold_session, _ = _session(tmp_path)
    reference = _table_bytes(cold_session.database.entry(
        "astar_evictions_lru"))
    key = simulation_key(RolloutSpec("lru", TINY_CONFIG, detail="full"),
                         generate_trace("astar", NUM_ACCESSES, seed=0))
    name = f"result-{key_digest(key)}.pkl"
    path = os.path.join(str(tmp_path), "objects", name[7:9], name)
    _rewrite_record(path, MALFORMED[malformation])
    report = TraceStore(str(tmp_path)).verify()
    assert report["corrupt"] == [name], report

    warm_session, warm_cache = _session(tmp_path)
    with pytest.warns(StoreCorruptionWarning, match="corrupt"):
        entry = warm_session.database.entry("astar_evictions_lru")
    assert warm_cache.misses == 1
    assert warm_cache.store.quarantined_files() == [name]
    assert _table_bytes(entry) == reference


def test_racing_first_readers_of_a_deferred_log_see_whole_columns(tmp_path):
    """Serving threads share loaded results: whichever thread decodes a
    log, every reader sees every column whole and equal to the replay's."""
    job = PlannedJob("astar", "lru", NUM_ACCESSES, 0, TINY_CONFIG.name,
                     "llc_only")
    configs = {TINY_CONFIG.name: TINY_CONFIG}
    cold = SimulationCache(store=str(tmp_path)).run_jobs(
        [job], configs)[0][job.key].result.log

    def view(log):
        last = len(log) - 1
        return (list(log.pcs), list(log.recencies), list(log.function_names),
                log.row_scores(last), log.row_lines(last))

    expected = view(cold)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            warm = SimulationCache(store=str(tmp_path)).run_jobs(
                [job], configs)[0][job.key].result.log
            barrier = threading.Barrier(8)
            seen = []

            def read():
                barrier.wait(timeout=30)
                seen.append(view(warm))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert seen == [expected] * 8
    finally:
        sys.setswitchinterval(interval)
