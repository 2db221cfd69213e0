"""Trace ingestion: parsers, registry adapter, store manifest, CLI, serving.

The acceptance contract: a trace imported once (``trace import``) is
referenceable **by name** in ``ExperimentSpec``, ``CacheMind.ask`` and a
remote serve request, and direct-parse vs store-warm runs produce
byte-identical results.
"""

import gzip
import json
import os
import struct

import pytest

from repro.cli import main
from repro.core.experiment import ExperimentRunner, ExperimentSpec
from repro.core.pipeline import CacheMind, SimulationCache
from repro.errors import DuplicateNameError, TraceParseError, UnknownNameError
from repro.sim.config import TINY_CONFIG
from repro.tracedb.store import TraceStore
from repro.workloads.generator import (
    available_workloads,
    generate_trace,
    get_workload,
    unregister_workload,
    workload_info,
    workload_kind,
)
from repro.workloads.ingest import (
    CHAMPSIM_RECORD,
    IngestedWorkload,
    default_trace_name,
    detect_format,
    ensure_store_traces_registered,
    import_trace_file,
    ingested_description,
    parse_champsim_trace,
    parse_text_trace,
    parse_trace_file,
    register_trace,
    register_trace_file,
    trace_fingerprint_hex,
    write_champsim_trace,
    write_text_trace,
)
from repro.workloads.trace import (
    FLAG_PREFETCH,
    FLAG_WRITE,
    MemoryTrace,
    TraceAccess,
)


@pytest.fixture()
def registry_guard():
    """Unregister every name a test registers, even on failure."""
    names = []
    yield names
    for name in names:
        unregister_workload(name)


def small_trace(name="ingtest", accesses=64, seed=5):
    trace = generate_trace("astar", num_accesses=accesses, seed=seed)
    return MemoryTrace(workload=name, seed=0,
                       columns=tuple(trace._copied_column(index)
                                     for index in range(4)))


# ----------------------------------------------------------------------
# parsers: round trips
# ----------------------------------------------------------------------
def test_text_round_trip(tmp_path):
    trace = small_trace()
    path = write_text_trace(trace, str(tmp_path / "t.csv"))
    parsed = parse_text_trace(path, workload=trace.workload)
    assert parsed.fingerprint() == trace.fingerprint()
    assert list(parsed.columns()[3]) == list(trace.columns()[3])


def test_text_round_trip_gzip(tmp_path):
    trace = small_trace()
    path = write_text_trace(trace, str(tmp_path / "t.csv.gz"))
    with open(path, "rb") as handle:
        assert handle.read(2) == b"\x1f\x8b"
    parsed = parse_trace_file(path, workload=trace.workload)
    assert parsed.fingerprint() == trace.fingerprint()


def test_champsim_round_trip(tmp_path):
    trace = small_trace()
    path = write_champsim_trace(trace, str(tmp_path / "t.champsim"))
    assert os.path.getsize(path) == len(trace) * CHAMPSIM_RECORD.size
    parsed = parse_champsim_trace(path, workload=trace.workload)
    assert parsed.fingerprint() == trace.fingerprint()


def test_champsim_round_trip_gzip_preserves_prefetch(tmp_path):
    path = str(tmp_path / "t.bin.gz")
    with gzip.open(path, "wb") as handle:
        handle.write(CHAMPSIM_RECORD.pack(0x400, 0x1000, 4, FLAG_WRITE))
        handle.write(CHAMPSIM_RECORD.pack(0x404, 0x1040, 7, FLAG_PREFETCH))
    parsed = parse_trace_file(path)
    assert list(parsed.columns()[2]) == [FLAG_WRITE, FLAG_PREFETCH]
    assert list(parsed.columns()[3]) == [4, 7]


def test_text_parser_accepts_hex_comments_and_default_gap(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header comment\n"
                    "\n"
                    "0x400100, 0x7f0000000000, 0, 12  # trailing comment\n"
                    "4194564,140737488355328,1\n")
    parsed = parse_text_trace(str(path))
    assert len(parsed) == 2
    assert list(parsed.columns()[0]) == [0x400100, 4194564]
    assert list(parsed.columns()[2]) == [0, FLAG_WRITE]
    assert list(parsed.columns()[3]) == [12, 4]  # default gap is 4


def test_default_trace_name_sanitises(tmp_path):
    assert default_trace_name("/x/y/spec mcf!.csv.gz") == "spec_mcf_"
    assert default_trace_name("trace.champsim") == "trace"


# ----------------------------------------------------------------------
# parsers: malformed input reporting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("line,fragment", [
    ("0x400100,0x1000", "3-4 fields"),
    ("0x400100,0x1000,0,4,9", "3-4 fields"),
    ("zzz,0x1000,0", "not a decimal or 0x-hex"),
    ("0x400100,0x1000,2", "is_write must be 0 or 1"),
    ("0x400100,99999999999999999999999,0", "out of range"),
])
def test_text_parser_errors_name_the_line(tmp_path, line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("# fine\n0x1,0x2,0\n" + line + "\n")
    with pytest.raises(TraceParseError) as error:
        parse_text_trace(str(path))
    assert fragment in str(error.value)
    assert f"{path}:3" in str(error.value)


def test_text_parser_rejects_binary_content(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe\x00\x01binary\n")
    with pytest.raises(TraceParseError, match="not UTF-8"):
        parse_text_trace(str(path))


def test_text_parser_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(TraceParseError, match="no accesses"):
        parse_text_trace(str(path))


def test_champsim_parser_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.champsim"
    payload = CHAMPSIM_RECORD.pack(0x400, 0x1000, 4, 0)
    path.write_bytes(payload + payload[:7])
    with pytest.raises(TraceParseError) as error:
        parse_champsim_trace(str(path))
    assert "truncated record #1" in str(error.value)
    assert "7 trailing" in str(error.value)


def test_champsim_parser_rejects_unknown_flag_bits(tmp_path):
    path = tmp_path / "bad.champsim"
    path.write_bytes(struct.pack("<QQIB3x", 0x400, 0x1000, 4, 0x84))
    with pytest.raises(TraceParseError) as error:
        parse_champsim_trace(str(path))
    assert "record #0" in str(error.value)
    assert "0x84" in str(error.value)


def test_champsim_parser_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.champsim"
    path.write_bytes(b"")
    with pytest.raises(TraceParseError, match="empty trace file"):
        parse_champsim_trace(str(path))


def test_detect_format_and_writer_guards(tmp_path):
    assert detect_format("a/b.csv.gz") == "text"
    assert detect_format("a/b.bin") == "champsim"
    with pytest.raises(ValueError, match="cannot infer trace format"):
        detect_format("a/b.unknown")
    prefetching = MemoryTrace(workload="p", accesses=[
        TraceAccess(pc=1, address=64, is_write=False, is_prefetch=True)])
    with pytest.raises(ValueError, match="cannot represent prefetch"):
        write_text_trace(prefetching, str(tmp_path / "p.csv"))
    wide_gap = MemoryTrace(workload="g", accesses=[
        TraceAccess(pc=1, address=64, is_write=False,
                    instructions_since_last=2 ** 33)])
    with pytest.raises(ValueError, match="u32"):
        write_champsim_trace(wide_gap, str(tmp_path / "g.bin"))


# ----------------------------------------------------------------------
# the registry adapter
# ----------------------------------------------------------------------
def test_register_trace_makes_a_named_workload(tmp_path, registry_guard):
    trace = small_trace("ing_adapter")
    name = register_trace(trace)
    registry_guard.append(name)
    assert name == "ing_adapter"
    assert name in available_workloads()
    assert workload_kind(name) == "ingested"
    info = workload_info(name)
    assert info["description"] == ingested_description(
        name, len(trace), trace_fingerprint_hex(trace))

    generator = get_workload(name)
    assert isinstance(generator, IngestedWorkload)
    # seed and num_accesses are explicitly ignored: same full replay.
    assert get_workload(name, seed=99) is generator
    replay = generator.generate(7)
    assert len(replay) == len(trace)
    assert replay.fingerprint() == trace.fingerprint()
    with pytest.raises(ValueError, match="num_accesses must be positive"):
        generator.generate(0)


def test_register_trace_rename_copies_columns(registry_guard):
    trace = small_trace("ing_original")
    name = register_trace(trace, name="ing_renamed")
    registry_guard.append(name)
    assert name == "ing_renamed"
    # The source trace keeps its own name and is not mutated.
    assert trace.workload == "ing_original"
    replay = get_workload(name).generate()
    assert replay.workload == "ing_renamed"
    assert list(replay.columns()[1]) == list(trace.columns()[1])


def test_register_trace_duplicate_semantics(registry_guard):
    trace = small_trace("ing_dup")
    registry_guard.append(register_trace(trace))
    # Same name, same content: idempotent no-op.
    assert register_trace(small_trace("ing_dup")) == "ing_dup"
    # Same name, different content: a hard error, never a silent shadow.
    other = small_trace("ing_dup", accesses=32, seed=9)
    with pytest.raises(DuplicateNameError, match="different content"):
        register_trace(other)
    # Colliding with a synthetic generator is also an error.
    synthetic_clash = small_trace("astar")
    with pytest.raises(DuplicateNameError):
        register_trace(synthetic_clash)


def test_register_trace_file(tmp_path, registry_guard):
    trace = small_trace("ing_file")
    path = write_text_trace(trace, str(tmp_path / "ing_file.csv"))
    name = register_trace_file(path)
    registry_guard.append(name)
    assert name == "ing_file"
    assert get_workload(name).generate().fingerprint() == trace.fingerprint()


def test_ingested_workload_detects_changed_source(tmp_path, registry_guard):
    trace = small_trace("ing_changed")
    entry = IngestedWorkload(name="ing_changed", loader=lambda: trace,
                             accesses=len(trace), fingerprint_hex="deadbeef")
    with pytest.raises(ValueError, match="source changed"):
        entry.generate()


# ----------------------------------------------------------------------
# store-backed manifest
# ----------------------------------------------------------------------
def test_import_trace_file_persists_and_lists(tmp_path, registry_guard):
    trace = small_trace("ing_store")
    path = write_champsim_trace(trace, str(tmp_path / "ing_store.champsim"))
    store = TraceStore(str(tmp_path / "store"))
    name, meta = import_trace_file(store, path)
    registry_guard.append(name)
    assert meta["format"] == "champsim"
    assert meta["accesses"] == len(trace)
    assert meta["fingerprint"] == trace_fingerprint_hex(trace)
    rows = store.trace_manifest()
    assert [row["name"] for row in rows] == ["ing_store"]
    assert store.info()["traces"] == 1
    loaded = store.load_trace(meta["fingerprint"])
    assert loaded.fingerprint() == trace.fingerprint()
    assert loaded.description == ingested_description(
        name, len(trace), meta["fingerprint"])


def test_ensure_store_traces_registered_fresh_process(tmp_path,
                                                      registry_guard):
    trace = small_trace("ing_warm")
    path = write_text_trace(trace, str(tmp_path / "ing_warm.csv"))
    store = TraceStore(str(tmp_path / "store"))
    name, _meta = import_trace_file(store, path)
    # Model a fresh process: the registry forgets, the store remembers.
    unregister_workload(name)
    with pytest.raises(UnknownNameError):
        get_workload(name)
    registered = ensure_store_traces_registered(store)
    registry_guard.append(name)
    assert registered == [name]
    # Second call is an idempotent no-op.
    assert ensure_store_traces_registered(store) == []
    replay = get_workload(name).generate()
    assert replay.fingerprint() == trace.fingerprint()


def test_trace_manifest_is_header_only(tmp_path, registry_guard):
    trace = small_trace("ing_headers")
    path = write_text_trace(trace, str(tmp_path / "t.csv"))
    store = TraceStore(str(tmp_path / "store"))
    name, _ = import_trace_file(store, path)
    registry_guard.append(name)
    loads_before = store.loads
    assert store.trace_manifest()
    assert store.loads == loads_before  # no payload was decompressed


# ----------------------------------------------------------------------
# acceptance: named everywhere, byte-identical warm runs
# ----------------------------------------------------------------------
def _experiment_over(name, cache):
    spec = ExperimentSpec(workloads=[name, "astar"],
                          policies=["lru", "belady"],
                          configs=[TINY_CONFIG], num_accesses=(400,))
    runner = ExperimentRunner(simulation_cache=cache)
    return runner.run(spec)


def test_experiment_direct_vs_store_warm_byte_identical(tmp_path,
                                                        registry_guard):
    trace = small_trace("ing_exp")
    path = write_text_trace(trace, str(tmp_path / "ing_exp.csv"))
    store_dir = str(tmp_path / "store")
    name, _ = import_trace_file(TraceStore(store_dir), path)
    registry_guard.append(name)

    # Direct parse, no store attached.
    direct = _experiment_over(name, SimulationCache())
    assert direct.counters["simulations_run"] == 4

    # Fresh-process model: registry wiped, store-backed cache re-registers
    # from the manifest inside ExperimentRunner.run.
    unregister_workload(name)
    cold = _experiment_over(name, SimulationCache(store=store_dir))
    warm = _experiment_over(name, SimulationCache(store=store_dir))
    assert warm.counters["simulations_run"] == 0
    assert warm.counters["store_hits"] == 4

    for other in (cold, warm):
        assert other.columns == direct.columns
        payload_a = json.dumps({k: v for k, v in direct.to_dict().items()
                                if k not in ("counters", "timings")},
                               sort_keys=True)
        payload_b = json.dumps({k: v for k, v in other.to_dict().items()
                                if k not in ("counters", "timings")},
                               sort_keys=True)
        assert payload_a == payload_b


def test_cachemind_ask_over_ingested_workload(tmp_path, registry_guard):
    trace = small_trace("ing_ask", accesses=200)
    path = write_text_trace(trace, str(tmp_path / "ing_ask.csv"))
    store_dir = str(tmp_path / "store")
    name, _ = import_trace_file(TraceStore(store_dir), path)
    registry_guard.append(name)
    unregister_workload(name)  # fresh-process model

    session = CacheMind(workloads=[name], policies=["lru", "belady"],
                        num_accesses=500, config=TINY_CONFIG,
                        simulation_cache=SimulationCache(store=store_dir))
    answer = session.ask(f"What is the miss rate of lru on {name}?")
    assert answer.category == "miss_rate"
    assert name in answer.question
    entry = session.database.get(name, "lru")
    assert entry.statistics.total_accesses == len(trace)


def test_serve_request_names_ingested_workload(tmp_path, registry_guard):
    from repro.serve import CacheMindServer, CacheMindService, RemoteClient

    trace = small_trace("ing_serve", accesses=200)
    path = write_text_trace(trace, str(tmp_path / "ing_serve.csv"))
    store_dir = str(tmp_path / "store")
    name, _ = import_trace_file(TraceStore(store_dir), path)
    registry_guard.append(name)
    unregister_workload(name)  # fresh-process model

    session = CacheMind(workloads=[name, "astar"],
                        policies=["lru", "belady"], num_accesses=400,
                        config=TINY_CONFIG,
                        simulation_cache=SimulationCache(store=store_dir))
    with CacheMindServer(CacheMindService(session=session),
                         host="127.0.0.1", port=0).start() as server:
        host, port = server.address
        with RemoteClient(host, port) as client:
            response = client.ask(
                f"What is the miss rate of lru on {name}?")
    assert response.answer.category == "miss_rate"
    assert name in response.answer.question


# ----------------------------------------------------------------------
# CLI: trace import / list / info
# ----------------------------------------------------------------------
def _write_cli_trace(tmp_path, name="clitrace"):
    trace = small_trace(name, accesses=32)
    return write_text_trace(trace, str(tmp_path / f"{name}.csv")), trace


def test_cli_trace_import_list_info(tmp_path, capsys, registry_guard):
    path, trace = _write_cli_trace(tmp_path)
    store_dir = str(tmp_path / "store")
    assert main(["trace", "import", path, "--dir", store_dir]) == 0
    registry_guard.append("clitrace")
    out = capsys.readouterr().out
    assert "imported 'clitrace'" in out
    assert trace_fingerprint_hex(trace) in out

    assert main(["trace", "list", "--dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "clitrace" in out and "32 accesses" in out

    assert main(["trace", "info", "clitrace", "--dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "ingested" in out and path in out
    # Fingerprint prefixes resolve too.
    prefix = trace_fingerprint_hex(trace)[:4]
    assert main(["trace", "info", prefix, "--dir", store_dir]) == 0


def test_gc_record_budget_never_prunes_an_ingested_trace(tmp_path, capsys,
                                                        registry_guard):
    """An ingested trace is an input no rebuild can recreate: ``store gc
    --max-records`` prunes only the result cache around it."""
    path = write_text_trace(small_trace("mytrace", accesses=300),
                            str(tmp_path / "mytrace.csv"))
    store_dir = str(tmp_path / "store")
    assert main(["trace", "import", path, "--dir", store_dir]) == 0
    registry_guard.append("mytrace")
    flags = ["--workloads", "mytrace", "--policies", "lru,belady",
             "--config", "tiny"]
    assert main(["store", "save", "--dir", store_dir] + flags) == 0
    # A new process knows the trace only from the store.
    unregister_workload("mytrace")
    capsys.readouterr()
    assert main(["store", "gc", "--dir", store_dir,
                 "--max-records", "1"]) == 0
    out = capsys.readouterr().out
    assert "removed 1 record(s)" in out and "trace-" not in out
    assert main(["trace", "list", "--dir", store_dir]) == 0
    assert "mytrace" in capsys.readouterr().out
    assert main(["store", "load", "--dir", store_dir] + flags) == 0
    assert "1 from store, 1 simulated" in capsys.readouterr().out


def test_cli_trace_import_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace,line,at,all\n")
    code = main(["trace", "import", str(bad),
                 "--dir", str(tmp_path / "store")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "bad.csv:1" in err


def test_cli_trace_readonly_commands_require_existing_store(tmp_path,
                                                            capsys):
    missing = str(tmp_path / "nope")
    assert main(["trace", "list", "--dir", missing]) == 1
    assert "no trace store" in capsys.readouterr().err
    assert main(["trace", "info", "x", "--dir", missing]) == 1
    assert not os.path.exists(missing)  # read-only paths create nothing


def test_cli_trace_info_unknown_name(tmp_path, capsys, registry_guard):
    path, _trace = _write_cli_trace(tmp_path, "cliinfo")
    store_dir = str(tmp_path / "store")
    assert main(["trace", "import", path, "--dir", store_dir]) == 0
    registry_guard.append("cliinfo")
    capsys.readouterr()
    assert main(["trace", "info", "missing", "--dir", store_dir]) == 1
    assert "no imported trace matches" in capsys.readouterr().err


def test_cli_simulate_list_shows_kinds_and_store_traces(tmp_path, capsys,
                                                        registry_guard):
    path, _trace = _write_cli_trace(tmp_path, "clilist")
    store_dir = str(tmp_path / "store")
    assert main(["trace", "import", path, "--dir", store_dir]) == 0
    registry_guard.append("clilist")
    unregister_workload("clilist")  # fresh-process model
    capsys.readouterr()
    assert main(["simulate", "--list", "--store-dir", store_dir]) == 0
    out = capsys.readouterr().out
    assert "[synthetic]" in out and "[ingested " in out
    assert "clilist" in out
    # Every workload line carries a description, not just a name.
    assert "grid path finding" in out


def test_cli_simulate_runs_ingested_workload(tmp_path, capsys,
                                             registry_guard):
    path, trace = _write_cli_trace(tmp_path, "clisim")
    store_dir = str(tmp_path / "store")
    assert main(["trace", "import", path, "--dir", store_dir]) == 0
    registry_guard.append("clisim")
    unregister_workload("clisim")  # fresh-process model
    capsys.readouterr()
    code = main(["simulate", "--workload", "clisim", "--policy", "lru",
                 "--config", "tiny", "--store-dir", store_dir])
    assert code == 0
    out = capsys.readouterr().out
    assert "clisim under lru" in out
    assert f"{len(trace)} LLC accesses" in out
