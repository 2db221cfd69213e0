"""Content-addressed sharded object store.

The contract under test: objects shard by digest prefix and stay immutable;
a listing of one kind opens only that kind's records, found by filename.
Read-only mounts refuse writes cleanly while staying race-safe beside
concurrent writer processes, and inspection commands write nothing into
the directory they inspect.  A store from before the sharded layout is
refused untouched until ``store gc`` clears it, and the index directory an
older build left beside its records is ignored until ``store gc`` deletes
it.
"""

import functools
import json
import os
import pickle
import struct
import subprocess
import sys
import time
import warnings
import zlib

import pytest

from repro.cli import main
from repro.core.pipeline import CacheMind, SimulationCache
from repro.errors import StoreReadOnlyError, StoreVersionError
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import simulate
from repro.tracedb.objstore import (
    PICKLED_RECORD_MAGIC,
    TEMP_MAX_AGE_SECONDS,
    decode_header,
    parse_object_name,
    shard_of,
)
from repro.tracedb.store import (
    STORE_SCHEMA_VERSION,
    StoreCorruptionWarning,
    TraceStore,
    key_digest,
)
from repro.workloads.generator import generate_trace, unregister_workload
from repro.workloads.ingest import (
    ensure_store_traces_registered,
    import_trace_file,
    write_text_trace,
)

SESSION_KWARGS = dict(workloads=["astar"], policies=["lru"],
                      num_accesses=300, config=TINY_CONFIG, seed=0)


@functools.lru_cache(maxsize=None)
def _result(seed):
    """A small real simulation result: what a ``result`` record holds."""
    return simulate(generate_trace("astar", 64, seed=seed), "lru",
                    config=TINY_CONFIG, detail="stats")


def _counters(result):
    """What tells two of these results apart."""
    return (result.workload, result.policy_name,
            result.llc_stats.as_tuple(), result.timing.cycles)


def _pickled_record(header, payload):
    """A record in the pickled container every build up to store schema 3
    wrote: magic, length-prefixed pickled header, zlib pickled payload."""
    header_bytes = pickle.dumps(header, protocol=4)
    return (PICKLED_RECORD_MAGIC + struct.pack("<I", len(header_bytes))
            + header_bytes + zlib.compress(pickle.dumps(payload, protocol=4)))


def _populate(store, count=6):
    """A small mixed corpus: results, an experiment, a trace."""
    for i in range(count):
        store.save("result", ("k", i), _result(i))
        store.save("result", ("r", i), _result(count + i))
    store.save_experiment("cafe0123", {"cells": [1, 2, 3]})
    store.save_trace(generate_trace("astar", 200, seed=1), source="unit")


def _object_paths(root):
    objects = os.path.join(str(root), "objects")
    for shard in sorted(os.listdir(objects)):
        for name in sorted(os.listdir(os.path.join(objects, shard))):
            if name.endswith(".pkl"):
                yield shard, os.path.join(objects, shard, name)


# ----------------------------------------------------------------------
# sharded layout
# ----------------------------------------------------------------------
def test_objects_land_in_their_digest_shard(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store)
    seen = 0
    for shard, path in _object_paths(tmp_path):
        parsed = parse_object_name(os.path.basename(path))
        assert parsed is not None
        assert shard == shard_of(parsed[1])
        seen += 1
    assert seen == len(store) == 14
    # Nothing at the top level but the manifest and the objects dir.
    top = set(os.listdir(str(tmp_path)))
    assert top == {"manifest.json", "objects"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["layout"] == "sharded"
    assert manifest["schema"] == STORE_SCHEMA_VERSION


def test_a_save_writes_one_object_file(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("result", ("k", 0), _result(0))
    before = _tree(str(tmp_path))
    path = store.save("result", ("k", 1), _result(1))
    after = _tree(str(tmp_path))
    added = {name for name in after if name not in before}
    relpath = os.path.relpath(path, str(tmp_path))
    assert added <= {relpath, os.path.dirname(relpath)}
    assert relpath in added
    assert {name: after[name] for name in before} == before


def test_round_trip_and_per_shard_info(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store)
    assert _counters(store.load("result", ("k", 0))) == _counters(_result(0))
    # A stored trace comes back whole, its binary image included.
    trace = generate_trace("astar", 200, seed=1)
    loaded = store.load_trace(f"{trace.fingerprint():08x}")
    assert loaded == trace
    assert loaded.binary.describe() == trace.binary.describe()
    assert ([loaded.binary.assembly_context(pc) for pc in trace.unique_pcs]
            == [trace.binary.assembly_context(pc) for pc in trace.unique_pcs])
    info = store.info()
    assert info["layout"] == "sharded"
    assert info["results"] == 12
    assert info["experiments"] == 1 and info["traces"] == 1
    assert sum(info["shards"].values()) == info["records"] == 14
    assert sum(sum(per.values()) for per in info["by_kind_shard"].values()) \
        == 14


# ----------------------------------------------------------------------
# listings open only the records of their kind
# ----------------------------------------------------------------------
def test_listings_open_only_the_records_of_their_kind(tmp_path):
    mixed = str(tmp_path / "mixed")
    _populate(TraceStore(mixed))  # 12 results, 1 experiment, 1 trace
    # A fresh handle per listing models a new process.
    store = TraceStore(mixed)
    assert len(store.trace_manifest()) == 1
    assert store.record_opens == 1
    store = TraceStore(mixed)
    assert store.experiment_fingerprints() == ["cafe0123"]
    assert store.record_opens == 1
    # Every grid run registers the store's traces: on a store without
    # any, that opens nothing.
    results_only = TraceStore(str(tmp_path / "results"))
    for i in range(12):
        results_only.save("result", ("k", i), _result(i))
    fresh = TraceStore(str(tmp_path / "results"))
    assert fresh.trace_manifest() == []
    assert ensure_store_traces_registered(fresh) == []
    assert fresh.experiment_fingerprints() == []
    assert fresh.record_opens == 0


# ----------------------------------------------------------------------
# verify and gc
# ----------------------------------------------------------------------
def test_verify_can_be_scoped_to_shards(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store)
    shards = sorted({shard for shard, _ in _object_paths(tmp_path)})
    scoped = store.verify(shards=shards[:1])
    assert scoped["shards"] == shards[:1]
    assert 0 < scoped["checked"] < 14
    total = sum(store.verify(shards=[shard])["checked"] for shard in shards)
    assert total == 14


def test_gc_never_sweeps_a_fresh_temp_file(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), _result(0))
    shard = next(iter(_object_paths(tmp_path)))[0]
    fresh_tmp = os.path.join(str(tmp_path), "objects", shard, "inflight.tmp")
    with open(fresh_tmp, "wb") as handle:
        handle.write(b"concurrent writer's in-progress atomic write")
    # Default age gate: the fresh temp survives (it may belong to a live
    # writer mid-os.replace) ...
    assert store.gc()["temp"] == []
    assert os.path.exists(fresh_tmp)
    assert TEMP_MAX_AGE_SECONDS >= 60.0
    # ... verify reports it as fresh, not as damage.
    report = store.verify()
    assert report["temp"] == [] and report["fresh_temp"] == 1
    assert report["clean"]
    # An aged-out temp is swept.
    old = time.time() - (TEMP_MAX_AGE_SECONDS + 5)
    os.utime(fresh_tmp, (old, old))
    removed = store.gc()
    assert removed["temp"] == [os.path.join("objects", shard,
                                            "inflight.tmp")]
    assert not os.path.exists(fresh_tmp)


# ----------------------------------------------------------------------
# read-only mounts
# ----------------------------------------------------------------------
def test_read_only_mount_serves_warm_and_refuses_writes(tmp_path):
    _populate(TraceStore(str(tmp_path)), count=2)
    mount = TraceStore(str(tmp_path), read_only=True)
    assert _counters(mount.load("result", ("k", 0))) == _counters(_result(0))
    assert mount.experiment_fingerprints() == ["cafe0123"]
    for mutate in (lambda: mount.save("result", ("z",), {}),
                   mount.gc, mount.clear,
                   lambda: mount.verify(repair=True)):
        with pytest.raises(StoreReadOnlyError):
            mutate()


def test_read_only_mount_never_creates_or_mutates_anything(tmp_path):
    with pytest.raises(FileNotFoundError):
        TraceStore(str(tmp_path / "nope"), read_only=True)
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), _result(0))
    # Corrupt the record: a read-only reader warns and misses but must NOT
    # quarantine (that would mutate a store it does not own).
    path = next(iter(_object_paths(tmp_path)))[1]
    with open(path, "wb") as handle:
        handle.write(b"junk")
    mount = TraceStore(str(tmp_path), read_only=True)
    with pytest.warns(StoreCorruptionWarning):
        assert mount.load("result", ("k",)) is None
    assert os.path.exists(path)
    assert mount.quarantined_files() == []


def test_cachemind_read_only_store_skips_persistence(tmp_path):
    # Writer session populates; a read-only replica answers warm and
    # persists nothing new.
    _ = CacheMind(store_dir=str(tmp_path), **SESSION_KWARGS).database
    before = _tree(str(tmp_path))
    cache = SimulationCache()
    replica = CacheMind(store_dir=str(tmp_path), store_read_only=True,
                        simulation_cache=cache, **SESSION_KWARGS)
    _ = replica.database
    assert cache.misses == 0 and cache.store_hits > 0
    assert cache.store.read_only
    assert cache.store.saves == 0
    assert _tree(str(tmp_path)) == before
    # A replica without a store to mount is a configuration error.
    with pytest.raises(ValueError):
        CacheMind(store_read_only=True, **SESSION_KWARGS)


# ----------------------------------------------------------------------
# inspection commands write nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("state", ["empty", "populated", "corrupt-manifest"])
def test_inspection_commands_leave_the_tree_untouched(tmp_path, state):
    root = str(tmp_path / "store")
    os.makedirs(root)
    expected = {"store": 0, "trace list": 0, "trace info": 1,
                "experiment": 0, "simulate": 0}
    if state != "empty":
        _ = CacheMind(store_dir=root, **SESSION_KWARGS).database
        TraceStore(root).save_experiment(
            "cafe0123", {"fingerprint": "cafe0123", "spec": {},
                         "columns": {"workload": ["astar"]}})
        trace = generate_trace("mcf", 200, seed=1)
        source = write_text_trace(trace, str(tmp_path / "inspected.csv"))
        import_trace_file(TraceStore(root), source, name="inspected")
        expected["trace info"] = 0
    if state == "corrupt-manifest":
        # A writable open would quarantine and re-stamp it.
        with open(os.path.join(root, "manifest.json"), "w") as handle:
            handle.write("{not json")
    before = _tree(root)
    try:
        for label, command in (
                ("store", ["store", "info", "--dir", root]),
                ("trace list", ["trace", "list", "--dir", root]),
                ("trace info", ["trace", "info", "inspected", "--dir", root]),
                ("experiment", ["experiment", "report", "--store-dir", root]),
                ("simulate", ["simulate", "--list", "--store-dir", root])):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StoreCorruptionWarning)
                assert main(command) == expected[label], command
            assert _tree(root) == before, command
    finally:
        unregister_workload("inspected")


# ----------------------------------------------------------------------
# stores from before the sharded layout
# ----------------------------------------------------------------------
def _pre_sharding_store(root):
    """A store as a build from before the sharded layout left it: a
    schema-1 manifest and schema-1 records at the top level, no index.
    Returns the record names."""
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"schema": 1}, handle)
    names = []
    for i in range(3):
        key = ("k", i)
        names.append(f"entry-{key_digest(key)}.pkl")
        header = {"schema": 1, "kind": "entry", "key_repr": repr(key)}
        with open(os.path.join(root, names[-1]), "wb") as handle:
            handle.write(_pickled_record(header, {"i": i}))
    return names


def _tree(root):
    """Every path under ``root``, with the bytes of each file."""
    tree = {}
    for directory, dirs, files in os.walk(root):
        for name in dirs:
            tree[os.path.relpath(os.path.join(directory, name), root)] = None
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, root)] = handle.read()
    return tree


def test_pre_sharding_store_is_refused_and_left_untouched(tmp_path, capsys):
    root = str(tmp_path)
    _pre_sharding_store(root)
    before = _tree(root)
    for read_only in (False, True):
        with pytest.raises(StoreVersionError, match="store gc"):
            TraceStore(root, read_only=read_only)
    for command in (["store", "verify", "--dir", root],
                    ["store", "info", "--dir", root],
                    ["store", "load", "--dir", root, "--workloads", "astar",
                     "--policies", "lru", "--accesses", "300",
                     "--config", "tiny"]):
        assert main(command) == 1, command
        assert "store gc" in capsys.readouterr().err, command
    assert _tree(root) == before


def test_gc_clears_a_pre_sharding_store(tmp_path, capsys):
    root = str(tmp_path)
    names = _pre_sharding_store(root)
    assert main(["store", "gc", "--dir", root]) == 0
    out = capsys.readouterr().out
    for name in names:
        assert f"removed (schema): {name}" in out
    assert not [name for name in os.listdir(root) if name.endswith(".pkl")]
    assert len(TraceStore(root)) == 0
    # A session over it simulates and persists; the next one is warm.
    cold, warm = SimulationCache(), SimulationCache()
    for cache in (cold, warm):
        _ = CacheMind(store_dir=root, simulation_cache=cache,
                      **SESSION_KWARGS).database
    assert cold.misses > 0 and warm.misses == 0
    assert len(TraceStore(root)) > 0


# ----------------------------------------------------------------------
# stores another build owns
# ----------------------------------------------------------------------
def _schema_2_store(root):
    """A store as the schema-2 build left it: a schema-2 manifest and, per
    simulation, an ``entry`` and a ``result`` record in their digest
    shards.  Returns the record names."""
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"schema": 2, "layout": "sharded"}, handle)
    names = []
    for i in range(2):
        for kind, key in (("result", ("k", i)), ("entry", ("k", i, "d"))):
            digest = key_digest(key)
            name = f"{kind}-{digest}.pkl"
            header = {"schema": 2, "kind": kind, "key_repr": repr(key)}
            data = _pickled_record(header, {"i": i})
            shard_dir = os.path.join(root, "objects", shard_of(digest))
            os.makedirs(shard_dir, exist_ok=True)
            with open(os.path.join(shard_dir, name), "wb") as handle:
                handle.write(data)
            names.append(name)
    return sorted(names)


def test_schema_2_store_is_foreign_until_gc(tmp_path, capsys):
    root = str(tmp_path)
    names = _schema_2_store(root)
    before = _tree(root)
    for read_only in (False, True):
        with pytest.raises(StoreVersionError, match="store gc"):
            TraceStore(root, read_only=read_only)
    # Every record is another build's: foreign by its pickled container's
    # magic, whatever its kind, and never corrupt.
    report = TraceStore(root, strict=False).verify()
    assert sorted(report["foreign"]) == names
    assert report["corrupt"] == [] and report["ok"] == 0
    for repair in ([], ["--repair"]):
        assert main(["store", "verify", "--dir", root] + repair) == 1
        captured = capsys.readouterr()
        assert "corrupt:" not in captured.out
        assert "store gc" in captured.err
    assert _tree(root) == before
    assert main(["store", "gc", "--dir", root]) == 0
    assert f"removed {len(names)} record(s)" in capsys.readouterr().out
    # A session over it simulates and persists; the next one is warm.
    cold, warm = SimulationCache(), SimulationCache()
    for cache in (cold, warm):
        _ = CacheMind(store_dir=root, simulation_cache=cache,
                      **SESSION_KWARGS).database
    assert cold.misses == 1 and warm.misses == 0
    assert TraceStore(root).info()["results"] == 1


def _index_left_by_an_older_build(root):
    """What a build that kept an append-only index left beside its
    records: ``index/log.jsonl`` with one JSON line per record (its
    header fields and size) and a stale temp file from an interrupted
    rewrite of that log."""
    index_dir = os.path.join(root, "index")
    os.makedirs(index_dir, exist_ok=True)
    lines = []
    for _shard, path in _object_paths(root):
        with open(path, "rb") as handle:
            header = decode_header(handle)
        lines.append(json.dumps(
            {"kind": header["kind"], "key_repr": header["key_repr"],
             "name": os.path.basename(path), "schema": header["schema"],
             "size": os.path.getsize(path)},
            sort_keys=True, separators=(",", ":")) + "\n")
    with open(os.path.join(index_dir, "log.jsonl"), "w") as handle:
        handle.writelines(lines)
    stale_tmp = os.path.join(index_dir, "tmp0log.tmp")
    with open(stale_tmp, "wb") as handle:
        handle.write(b"half-written")
    old = time.time() - (TEMP_MAX_AGE_SECONDS + 5)
    os.utime(stale_tmp, (old, old))


def test_a_store_with_an_older_index_stays_warm_until_gc_drops_it(
        tmp_path, capsys):
    root = str(tmp_path)
    _ = CacheMind(store_dir=root, **SESSION_KWARGS).database
    _index_left_by_an_older_build(root)
    assert len(TraceStore(root)) == 1  # a strict open accepts it
    cache = SimulationCache()
    _ = CacheMind(store_dir=root, simulation_cache=cache,
                  **SESSION_KWARGS).database
    assert cache.misses == 0 and cache.store_hits == 1
    assert main(["store", "verify", "--dir", root]) == 0
    assert "store is clean" in capsys.readouterr().out
    assert main(["store", "gc", "--dir", root]) == 0
    assert "removed 0 record(s)" in capsys.readouterr().out
    assert set(os.listdir(root)) == {"manifest.json", "objects"}
    cache = SimulationCache()
    _ = CacheMind(store_dir=root, simulation_cache=cache,
                  **SESSION_KWARGS).database
    assert cache.misses == 0


def test_gc_deletes_only_what_an_older_index_left(tmp_path):
    root = str(tmp_path)
    TraceStore(root).save("result", ("k",), _result(0))
    _index_left_by_an_older_build(root)
    foreign = os.path.join(root, "index", "notes.txt")
    with open(foreign, "w") as handle:
        handle.write("not the store's")
    TraceStore(root).gc()
    assert os.listdir(os.path.join(root, "index")) == ["notes.txt"]


def test_index_subcommands_are_gone(tmp_path, capsys):
    for command in ("reindex", "compact"):
        with pytest.raises(SystemExit) as exit_info:
            main(["store", command, "--dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_verify_repair_leaves_a_foreign_store_untouched(tmp_path, capsys):
    """``--repair`` on a store whose manifest names another schema
    quarantines nothing, sweeps no temp file and stamps no manifest:
    ``store gc`` is the only path that rewrites such a store."""
    root = str(tmp_path)
    store = TraceStore(root)
    store.save("result", ("k", 0), _result(0))
    broken = store.save("result", ("k", 1), _result(1))
    with open(broken, "wb") as handle:
        handle.write(b"junk")
    stale_tmp = os.path.join(os.path.dirname(broken), "stranded.tmp")
    with open(stale_tmp, "wb") as handle:
        handle.write(b"half-written")
    old = time.time() - (TEMP_MAX_AGE_SECONDS + 5)
    os.utime(stale_tmp, (old, old))
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"schema": 1}, handle)
    before = _tree(root)
    assert main(["store", "verify", "--dir", root, "--repair"]) == 1
    assert _tree(root) == before
    captured = capsys.readouterr()
    assert "repair skipped" in captured.out
    assert "store gc" in captured.err


# ----------------------------------------------------------------------
# multi-process concurrency
# ----------------------------------------------------------------------
_WRITER_SNIPPET = """
import sys
from repro.tracedb.store import TraceStore

root, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = TraceStore(root)
for i in range(count):
    store.save("experiment", ("w", writer, i), {"writer": writer, "i": i})
print(store.saves)
"""


def test_concurrent_writer_processes_lose_no_records(tmp_path):
    """Satellite: N writers append lock-free while a reader mounts RO."""
    writers, per_writer = 4, 8
    TraceStore(str(tmp_path))  # stamp the manifest once, racelessly
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [subprocess.Popen(
        [sys.executable, "-c", _WRITER_SNIPPET,
         str(tmp_path), str(writer), str(per_writer)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for writer in range(writers)]
    # A read-only reader races the writers: every snapshot it sees must be
    # internally consistent (no torn reads, no crashes, no mutations).
    reader = TraceStore(str(tmp_path), read_only=True)
    snapshots = []
    while any(proc.poll() is None for proc in procs):
        info = reader.info()
        assert info["unreadable"] == 0
        snapshots.append(info["records"])
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err.decode()
        assert out.strip() == str(per_writer).encode()

    # No lost records, every one loadable.
    store = TraceStore(str(tmp_path))
    assert len(store) == writers * per_writer
    for writer in range(writers):
        for i in range(per_writer):
            assert store.load("experiment", ("w", writer, i)) \
                == {"writer": writer, "i": i}
    # Snapshots only ever grew (objects are immutable, writes atomic).
    assert snapshots == sorted(snapshots)
