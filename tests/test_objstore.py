"""Content-addressed sharded object store and its append-only index.

The contract under test: objects shard by digest prefix and stay immutable;
the index is an *accelerator only* — maintenance answers from it with zero
record opens on a warm store, a missing/torn index never blocks anything,
and ``reindex`` reproduces a compacted index byte-identically from the
object headers alone.  Read-only mounts refuse writes cleanly while staying
race-safe beside concurrent writer processes, and a store from before the
sharded layout is refused untouched until ``store gc`` clears it.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core.pipeline import CacheMind, SimulationCache
from repro.errors import StoreReadOnlyError, StoreVersionError
from repro.faults import FaultPlan, FaultRule, thread_scope
from repro.sim.config import TINY_CONFIG
from repro.tracedb.objstore import (
    TEMP_MAX_AGE_SECONDS,
    encode_record,
    entry_line,
    index_entry_for,
    parse_object_name,
    shard_of,
)
from repro.tracedb.store import (
    STORE_SCHEMA_VERSION,
    StoreCorruptionWarning,
    TraceStore,
    key_digest,
)
from repro.workloads.generator import generate_trace

SESSION_KWARGS = dict(workloads=["astar"], policies=["lru"],
                      num_accesses=300, config=TINY_CONFIG, seed=0)


def _populate(store, count=6):
    """A small mixed corpus: results, an experiment, a trace."""
    for i in range(count):
        store.save("result", ("k", i), {"i": i})
        store.save("result", ("r", i), [i, i + 1])
    store.save_experiment("cafe0123", {"cells": [1, 2, 3]})
    store.save_trace(generate_trace("astar", 200, seed=1), source="unit")


def _index_path(root):
    return os.path.join(str(root), "index", "log.jsonl")


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
    # Nothing at the top level but the manifest and the index/objects dirs.
    top = set(os.listdir(str(tmp_path)))
    assert top == {"manifest.json", "objects", "index"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["layout"] == "sharded"
    assert manifest["schema"] == STORE_SCHEMA_VERSION


def test_round_trip_and_per_shard_info(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store)
    assert store.load("result", ("k", 0)) == {"i": 0}
    info = store.info()
    assert info["layout"] == "sharded"
    assert info["results"] == 12
    assert info["experiments"] == 1 and info["traces"] == 1
    assert sum(info["shards"].values()) == info["records"] == 14
    assert sum(sum(per.values()) for per in info["by_kind_shard"].values()) \
        == 14
    assert info["index"]["entries"] == 14
    assert info["index"]["compaction_lag"] == 0


# ----------------------------------------------------------------------
# the index is an accelerator: zero record opens when warm
# ----------------------------------------------------------------------
def test_warm_maintenance_opens_zero_record_files(tmp_path):
    _populate(TraceStore(str(tmp_path)))
    # A fresh handle models a new maintenance process: its only warmth is
    # the on-disk index.
    store = TraceStore(str(tmp_path))
    store.info()
    assert store.experiment_fingerprints() == ["cafe0123"]
    assert len(store.trace_manifest()) == 1
    assert list(store.iter_records())
    assert store.gc() == {"corrupt": [], "schema": [], "pruned": [],
                          "temp": []}
    assert store.record_opens == 0, \
        "index-served maintenance must not open record files"


def test_missing_index_falls_back_to_header_scan(tmp_path):
    _populate(TraceStore(str(tmp_path)))
    os.unlink(_index_path(tmp_path))
    store = TraceStore(str(tmp_path))
    # Everything still answers (reads never depend on the index)...
    assert store.load("result", ("k", 1)) == {"i": 1}
    assert store.experiment_fingerprints() == ["cafe0123"]
    info = store.info()
    assert info["records"] == 14 and info["unreadable"] == 0
    assert not info["index"]["present"]
    # ...the fallback just pays header reads for the uncovered objects.
    assert store.record_opens > 0


def test_torn_index_tail_is_skipped_not_fatal(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store, count=3)
    with open(_index_path(tmp_path), "rb") as handle:
        whole = handle.read()
    # Tear the final append mid-line (no trailing newline).
    with open(_index_path(tmp_path), "wb") as handle:
        handle.write(whole[:-10])
    fresh = TraceStore(str(tmp_path))
    assert fresh.load("trace", tuple()) is None  # reads still fine
    info = fresh.info()
    assert info["records"] == 8 and info["unreadable"] == 0
    assert info["index"]["invalid_lines"] == 1
    # Exactly one object lost its line; the view healed it via one header
    # read, and compaction lag reflects the torn line.
    assert info["index"]["unindexed_objects"] == 1
    assert info["index"]["compaction_lag"] >= 1


# ----------------------------------------------------------------------
# byte-identical reindex
# ----------------------------------------------------------------------
def test_reindex_reproduces_the_index_byte_identically(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store)
    # Re-save a record (duplicate line) so compaction has real work.
    store.save("result", ("k", 0), {"i": 0})
    store.compact_index()
    canonical = store.index_bytes()
    assert canonical
    os.unlink(_index_path(tmp_path))
    stats = TraceStore(str(tmp_path)).reindex()
    assert stats == {"indexed": 14, "unreadable": 0}
    assert TraceStore(str(tmp_path)).index_bytes() == canonical, \
        "reindex from headers must be byte-identical to the compacted log"


def test_compaction_drops_duplicates_and_stale_entries(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store, count=3)
    store.save("result", ("k", 0), {"i": 0})  # duplicate line
    name = "result-" + sorted(
        n.split("-")[1] for n, _ in
        ((os.path.basename(p), p) for _, p in _object_paths(tmp_path))
        if n.startswith("result-"))[0]
    # Delete one object behind the index's back: its entry goes stale.
    store._objects.remove_object(name)
    stats = store.compact_index()
    assert stats["dropped_duplicates"] == 1
    assert stats["dropped_stale"] == 1
    # After compaction the log equals a fresh reindex.
    compacted = store.index_bytes()
    store.reindex()
    assert store.index_bytes() == compacted


def test_torn_index_append_fault_degrades_to_compaction_lag(tmp_path):
    store = TraceStore(str(tmp_path))
    plan = FaultPlan([FaultRule("index.append", action="truncate", nth=1)])
    with thread_scope(plan):
        store.save("result", ("k",), {"x": 1})
    assert plan.triggered == 1
    # The record itself committed and is readable...
    assert store.load("result", ("k",)) == {"x": 1}
    # ...the torn line is just lag, healed by reindex.
    fresh = TraceStore(str(tmp_path))
    health = fresh.info()["index"]
    assert health["invalid_lines"] == 1
    assert health["unindexed_objects"] == 1
    fresh.reindex()
    assert TraceStore(str(tmp_path)).info()["index"]["unindexed_objects"] == 0


# ----------------------------------------------------------------------
# verify heals the index; gc age-gates temp files
# ----------------------------------------------------------------------
def test_verify_repair_heals_stale_and_unindexed_entries(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store, count=3)
    # One stale entry (object removed behind the index's back)...
    victim = sorted(name for name, _ in store.iter_records())[0]
    store._objects.remove_object(victim)
    # ...and one unindexed object (index line torn off).
    with open(_index_path(tmp_path), "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(_index_path(tmp_path), "wb") as handle:
        handle.writelines(lines[:-1])
    report = TraceStore(str(tmp_path)).verify()
    assert not report["clean"]
    assert report["index"]["stale"] == [victim]
    assert len(report["index"]["unindexed"]) == 1

    repaired = TraceStore(str(tmp_path)).verify(repair=True)
    assert repaired["repaired"] and repaired["index"]["healed"]
    assert repaired["clean"]
    healed = TraceStore(str(tmp_path))
    assert healed.verify()["clean"]
    # The healed index is exactly what a reindex produces.
    canonical = healed.index_bytes()
    healed.reindex()
    assert healed.index_bytes() == canonical


def test_verify_can_be_scoped_to_shards(tmp_path):
    store = TraceStore(str(tmp_path))
    _populate(store)
    shards = sorted({shard for shard, _ in _object_paths(tmp_path)})
    scoped = store.verify(shards=shards[:1])
    assert scoped["shards"] == shards[:1]
    assert 0 < scoped["checked"] < 14
    assert scoped["index"] is None  # the index audit is a full-verify job
    total = sum(store.verify(shards=[shard])["checked"] for shard in shards)
    assert total == 14


def test_gc_never_sweeps_a_fresh_temp_file(tmp_path):
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), {"x": 1})
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
    assert mount.load("result", ("k", 0)) == {"i": 0}
    assert mount.experiment_fingerprints() == ["cafe0123"]
    for mutate in (lambda: mount.save("result", ("z",), {}),
                   mount.gc, mount.clear, mount.reindex,
                   mount.compact_index,
                   lambda: mount.verify(repair=True)):
        with pytest.raises(StoreReadOnlyError):
            mutate()


def test_read_only_mount_never_creates_or_mutates_anything(tmp_path):
    with pytest.raises(FileNotFoundError):
        TraceStore(str(tmp_path / "nope"), read_only=True)
    store = TraceStore(str(tmp_path))
    store.save("result", ("k",), {"x": 1})
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
    before = TraceStore(str(tmp_path)).index_bytes()
    cache = SimulationCache()
    replica = CacheMind(store_dir=str(tmp_path), store_read_only=True,
                        simulation_cache=cache, **SESSION_KWARGS)
    _ = replica.database
    assert cache.misses == 0 and cache.store_hits > 0
    assert cache.store.read_only
    assert cache.store.saves == 0
    assert TraceStore(str(tmp_path)).index_bytes() == before
    # A replica without a store to mount is a configuration error.
    with pytest.raises(ValueError):
        CacheMind(store_read_only=True, **SESSION_KWARGS)


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
            handle.write(encode_record(header, {"i": i}))
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
    shards, all announced in the index.  Returns the record names."""
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"schema": 2, "layout": "sharded"}, handle)
    names, lines = [], []
    for i in range(2):
        for kind, key in (("result", ("k", i)), ("entry", ("k", i, "d"))):
            digest = key_digest(key)
            name = f"{kind}-{digest}.pkl"
            header = {"schema": 2, "kind": kind, "key_repr": repr(key)}
            data = encode_record(header, {"i": i})
            shard_dir = os.path.join(root, "objects", shard_of(digest))
            os.makedirs(shard_dir, exist_ok=True)
            with open(os.path.join(shard_dir, name), "wb") as handle:
                handle.write(data)
            names.append(name)
            lines.append(entry_line(index_entry_for(name, header,
                                                    len(data))))
    os.makedirs(os.path.join(root, "index"))
    with open(os.path.join(root, "index", "log.jsonl"), "wb") as handle:
        handle.write(b"".join(lines))
    return sorted(names)


def test_schema_2_store_is_foreign_until_gc(tmp_path, capsys):
    root = str(tmp_path)
    names = _schema_2_store(root)
    before = _tree(root)
    for read_only in (False, True):
        with pytest.raises(StoreVersionError, match="store gc"):
            TraceStore(root, read_only=read_only)
    # Every record is another build's: foreign by its header schema,
    # whatever its kind, and never corrupt.
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


def test_verify_repair_leaves_a_foreign_store_untouched(tmp_path, capsys):
    """``--repair`` on a store whose manifest names another schema writes
    no index, quarantines nothing, sweeps no temp file and stamps no
    manifest: ``store gc`` is the only path that rewrites such a store."""
    root = str(tmp_path)
    store = TraceStore(root)
    store.save("result", ("k", 0), {"i": 0})
    broken = store.save("result", ("k", 1), {"i": 1})
    with open(broken, "wb") as handle:
        handle.write(b"junk")
    stale_tmp = os.path.join(os.path.dirname(broken), "stranded.tmp")
    with open(stale_tmp, "wb") as handle:
        handle.write(b"half-written")
    old = time.time() - (TEMP_MAX_AGE_SECONDS + 5)
    os.utime(stale_tmp, (old, old))
    os.unlink(_index_path(tmp_path))
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"schema": 1}, handle)
    before = _tree(root)
    assert main(["store", "verify", "--dir", root, "--repair"]) == 1
    assert _tree(root) == before
    captured = capsys.readouterr()
    assert "repair skipped" in captured.out
    assert "store gc" in captured.err


def test_store_reindex_and_compact_cli(tmp_path, capsys):
    _populate(TraceStore(str(tmp_path)), count=2)
    os.unlink(_index_path(tmp_path))
    assert main(["store", "reindex", "--dir", str(tmp_path)]) == 0
    assert "6 object(s) indexed" in capsys.readouterr().out
    assert main(["store", "compact", "--dir", str(tmp_path)]) == 0
    assert "6 entr(ies) kept" in capsys.readouterr().out
    assert main(["store", "info", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "layout: sharded" in out
    assert "6 entr(ies) covering 6 live object(s)" in out


# ----------------------------------------------------------------------
# multi-process concurrency
# ----------------------------------------------------------------------
_WRITER_SNIPPET = """
import sys
from repro.tracedb.store import TraceStore

root, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = TraceStore(root)
for i in range(count):
    store.save("result", ("w", writer, i), {"writer": writer, "i": i})
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
            assert store.load("result", ("w", writer, i)) \
                == {"writer": writer, "i": i}
    # Snapshots only ever grew (objects are immutable, appends atomic).
    assert snapshots == sorted(snapshots)
    # The live interleaved log compacts to exactly what a reindex builds:
    # concurrent lock-free appends lost nothing.
    health = store.info()["index"]
    assert health["entries"] == writers * per_writer
    assert health["invalid_lines"] == 0
    store.compact_index()
    canonical = store.index_bytes()
    os.unlink(_index_path(tmp_path))
    assert store.reindex()["indexed"] == writers * per_writer
    assert store.index_bytes() == canonical
