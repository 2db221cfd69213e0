"""Command-line interface:
``python -m repro {simulate,ask,bench,experiment,store,serve,trace}``.

All subcommands drive the same :class:`~repro.core.pipeline.CacheMind`
facade (and therefore share the process-wide simulation memoiser):

* ``simulate`` -- run one (workload, policy) simulation and print the
  summary plus the trace-database metadata line,
* ``ask``      -- answer one or more natural-language questions with full
  provenance.  ``--json`` prints the complete ``AskResponse`` envelope
  (answer, provenance, plan/dedup counts, timings) instead of prose;
  ``--remote HOST:PORT`` sends the batch to a running ``repro serve``
  instance instead of answering in-process,
* ``bench``    -- build the database once (``--jobs N`` parallelises it) and
  print the per-workload, per-policy metric table with the winner per row,
  plus build timings and simulation-cache hit/miss counts.  ``bench --perf``
  runs the tracked benchmark harness instead and writes ``BENCH_<rev>.json``,
* ``experiment`` -- declarative sweep grids (``run``/``report``): compile a
  workloads x policies x configs x details x lengths x seeds grid into one
  merged job plan, execute it (in-process, or server-side with
  ``--remote``), print/persist the columnar cell table, and render saved
  results as pivot tables,
* ``store``    -- manage the persistent on-disk simulation store
  (``save``/``load``/``info``/``gc``), so repeated sessions and fresh
  processes start warm instead of re-simulating,
* ``serve``    -- run the concurrent JSON-lines server over one shared
  session (see ``repro.serve``); clients connect with ``ask --remote`` or
  any newline-delimited-JSON speaker (netcat works),
* ``trace``    -- import external trace files (text/CSV or ChampSim-like
  binary, ``import``/``list``/``info``): an imported trace is persisted
  into the store keyed by content fingerprint and becomes a named workload
  any store-attached command can reference.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.core.pipeline import CacheMind, SimulationCache
from repro.errors import StoreVersionError, UnknownNameError
from repro.llm.backend import available_backend_names
from repro.policies.base import available_policies
from repro.retrieval.base import available_retrievers
from repro.sim.config import NAMED_CONFIGS as CONFIGS
from repro.tracedb.database import DEFAULT_POLICIES, DEFAULT_WORKLOADS
from repro.workloads.generator import available_workload_info


def _csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _csv_int(value: str) -> List[int]:
    try:
        return [int(item) for item in _csv(value)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}") from None


def _add_session_arguments(parser: argparse.ArgumentParser) -> None:
    # Defaults are applied in _make_session (None = "not given"), so
    # subcommands like `bench --perf` can distinguish an explicit value
    # from an omitted flag instead of comparing against sentinel defaults.
    parser.add_argument("--workloads", type=_csv, default=None,
                        help="comma-separated workload names "
                             f"(default: {','.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--policies", type=_csv, default=None,
                        help="comma-separated policy names "
                             f"(default: {','.join(DEFAULT_POLICIES)})")
    parser.add_argument("--accesses", type=int, default=None,
                        help="trace length per workload (default: 20000)")
    parser.add_argument("--config", choices=sorted(CONFIGS), default="small",
                        help="hierarchy configuration (default: small)")
    parser.add_argument("--mode", choices=["llc_only", "hierarchy"],
                        default="llc_only", help="simulation mode")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _make_session(args: argparse.Namespace, **overrides) -> CacheMind:
    if args.accesses is not None and args.accesses <= 0:
        # Caught here (not deep inside a generator mid-build) so the CLI
        # prints one clean line instead of a traceback.
        raise ValueError(f"--accesses must be a positive access count, "
                         f"got {args.accesses}")
    options = dict(
        workloads=(args.workloads if args.workloads is not None
                   else list(DEFAULT_WORKLOADS)),
        policies=(args.policies if args.policies is not None
                  else list(DEFAULT_POLICIES)),
        num_accesses=args.accesses if args.accesses is not None else 20000,
        config=CONFIGS[args.config],
        mode=args.mode,
        seed=args.seed,
        store_dir=getattr(args, "store_dir", None),
        store_read_only=getattr(args, "store_read_only", False),
    )
    options.update(overrides)
    return CacheMind(**options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CacheMind: natural-language, trace-grounded reasoning "
                    "for cache replacement.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run one (workload, policy) cache simulation")
    _add_session_arguments(simulate)
    simulate.add_argument("--workload", default=None,
                          help="single workload (default: first of --workloads)")
    simulate.add_argument("--policy", default=None,
                          help="single policy (default: first of --policies)")
    simulate.add_argument("--list", action="store_true",
                          help="list available workloads (with kind and "
                               "description), policies, retrievers and "
                               "backends, then exit")
    simulate.add_argument("--store-dir", default=None, metavar="DIR",
                          help="persistent trace store; traces imported "
                               "with `trace import` become nameable "
                               "workloads, and results persist across "
                               "processes")
    simulate.add_argument("--store-read-only", action="store_true",
                          help="mount --store-dir without write access "
                               "(serve warm results, persist nothing)")

    ask = subparsers.add_parser(
        "ask", help="answer natural-language questions over the trace store")
    _add_session_arguments(ask)
    ask.add_argument("questions", nargs="*", metavar="QUESTION",
                     help="question(s) to answer; omit to read stdin lines")
    ask.add_argument("--backend", default="gpt-4o",
                     help="LLM backend name (default: gpt-4o)")
    ask.add_argument("--prompting",
                     choices=["zero_shot", "one_shot", "few_shot"],
                     default="zero_shot")
    ask.add_argument("--retriever", default=None,
                     help="force one retriever instead of intent routing")
    ask.add_argument("--show-evidence", action="store_true",
                     help="print the evidence lines under each answer")
    ask.add_argument("--json", action="store_true", dest="as_json",
                     help="print the full AskResponse dict per question "
                          "(answer, provenance, plan counts, timings) as "
                          "JSON instead of prose")
    ask.add_argument("--remote", default=None, metavar="HOST:PORT",
                     help="send the questions to a running `repro serve` "
                          "instance instead of answering in-process "
                          "(session flags are ignored; the server's "
                          "session configuration applies)")
    ask.add_argument("--store-dir", default=None, metavar="DIR",
                     help="persistent trace store; traces imported with "
                          "`trace import` become nameable workloads, and "
                          "results persist across processes")
    ask.add_argument("--store-read-only", action="store_true",
                     help="mount --store-dir without write access "
                          "(serve warm results, persist nothing)")

    bench = subparsers.add_parser(
        "bench", help="benchmark every policy on every workload")
    _add_session_arguments(bench)
    bench.add_argument("--metric", choices=["miss_rate", "hit_rate", "ipc"],
                       default="miss_rate")
    bench.add_argument("--jobs", type=int, default=None,
                       help="parallel simulation workers (default: 1 = "
                            "serial for the metric table; one per CPU for "
                            "--perf)")
    bench.add_argument("--perf", action="store_true",
                       help="run the tracked perf harness (trace generation, "
                            "full vs stats-only replay, cold/parallel/warm "
                            "database builds) and write BENCH_<rev>.json")
    bench.add_argument("--quick", action="store_true",
                       help="with --perf: shorter traces and single repeats "
                            "(CI smoke mode)")
    bench.add_argument("--perf-output", default=None, metavar="PATH",
                       help="with --perf: where to write the JSON report "
                            "(default: BENCH_<rev>.json in the cwd)")
    bench.add_argument("--compare", default=None, metavar="OLD_JSON",
                       help="with --perf: print per-timing deltas vs a "
                            "previous BENCH_<rev>.json report "
                            "(name, old/new ms, ratio); exits 1 without "
                            "ratios when the reports' params differ")
    bench.add_argument("--store-dir", default=None, metavar="DIR",
                       help="with --perf: directory for the warm-start "
                            "section's store, kept afterwards e.g. for CI "
                            "artifact upload. WIPED and repopulated by the "
                            "benchmark — do not point it at a store you "
                            "want to keep (default: a temporary directory)")

    experiment = subparsers.add_parser(
        "experiment",
        help="declarative sweep grids: compile, execute and report "
             "workloads x policies x configs experiments")
    experiment_sub = experiment.add_subparsers(dest="experiment_command",
                                               required=True)

    experiment_run = experiment_sub.add_parser(
        "run",
        help="compile a grid into one merged job plan and execute it",
        description="Compile a workloads x policies x configs x details x "
                    "trace-lengths x seeds grid into one deduplicated job "
                    "plan, execute it (duplicate cells simulate once; warm "
                    "store cells simulate zero times), and print the cell "
                    "table.")
    experiment_run.add_argument(
        "--workloads", type=_csv, default=None,
        help="comma-separated workload names "
             f"(default: {','.join(DEFAULT_WORKLOADS)})")
    experiment_run.add_argument(
        "--policies", type=_csv, default=None,
        help="comma-separated policy names "
             f"(default: {','.join(DEFAULT_POLICIES)})")
    experiment_run.add_argument(
        "--configs", type=_csv, default=["small"],
        help="comma-separated hierarchy configuration names; the grid "
             "sweeps all of them (default: small; available: "
             f"{','.join(sorted(CONFIGS))})")
    experiment_run.add_argument(
        "--mode", choices=["llc_only", "hierarchy"], default="llc_only",
        help="simulation mode (default: llc_only)")
    experiment_run.add_argument(
        "--details", type=_csv, default=["full"],
        help="engine detail levels to sweep: full,stats (default: full)")
    experiment_run.add_argument(
        "--accesses", type=_csv_int, default=[20000],
        help="comma-separated trace lengths (default: 20000)")
    experiment_run.add_argument(
        "--seeds", type=_csv_int, default=[0],
        help="comma-separated workload seeds (default: 0)")
    experiment_run.add_argument(
        "--metrics", type=_csv, default=["miss_rate", "hit_rate", "ipc"],
        help="metrics to report (default: miss_rate,hit_rate,ipc)")
    experiment_run.add_argument(
        "--baseline", default=None, metavar="POLICY",
        help="baseline policy: its cells join the grid (deduplicated if "
             "already listed) and the report prints per-cell deltas")
    experiment_run.add_argument(
        "--jobs", type=int, default=None,
        help="parallel simulation workers (default: 1)")
    experiment_run.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persistent trace store: warm cells skip simulation across "
             "processes, and the result is saved under the spec "
             "fingerprint for `experiment report`")
    experiment_run.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the ExperimentResult JSON here")
    experiment_run.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full ExperimentResult dict as JSON instead of "
             "the table")
    experiment_run.add_argument(
        "--remote", default=None, metavar="HOST:PORT",
        help="run the grid on a running `repro serve` instance (one round "
             "trip; cell values are identical to in-process execution)")
    experiment_run.add_argument(
        "--expect-warm", action="store_true",
        help="exit non-zero if any simulation actually ran (CI warm-store "
             "assertion)")

    experiment_report = experiment_sub.add_parser(
        "report",
        help="render a saved ExperimentResult (JSON file or store)",
        description="Render a saved experiment: pivot tables per metric, "
                    "the best policy per cell, and deltas against the "
                    "baseline policy when the spec named one.  Reads "
                    "either an `experiment run --output` JSON file or a "
                    "--store-dir (by --fingerprint; without one, lists "
                    "every stored experiment).")
    experiment_report.add_argument(
        "path", nargs="?", default=None,
        help="ExperimentResult JSON file (from `experiment run --output`)")
    experiment_report.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="trace store holding saved experiments")
    experiment_report.add_argument(
        "--fingerprint", default=None,
        help="spec fingerprint to load from the store (printed by "
             "`experiment run`; prefixes are accepted when unambiguous)")
    experiment_report.add_argument(
        "--metric", default=None,
        help="metric to tabulate (default: every metric in the spec)")
    experiment_report.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full ExperimentResult dict as JSON")
    experiment_report.add_argument(
        "--query", default=None, metavar="QUERY",
        help="run a declarative analytics query over the cell table "
             "instead of the pivot report: either the mini-DSL "
             "(\"select workload,policy,miss_rate where config = 'tiny' "
             "order by miss_rate desc limit 5\") or a Query.to_dict JSON "
             "object (detected by a leading '{')")
    experiment_report.add_argument(
        "--format", default="table", choices=["table", "csv"],
        dest="query_format",
        help="with --query: render the result as a fixed-width table or "
             "as CSV (default: table)")

    serve = subparsers.add_parser(
        "serve", help="serve questions over the JSON-lines TCP protocol")
    _add_session_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9178,
                       help="TCP port; 0 picks a free one, printed on "
                            "startup (default: 9178)")
    serve.add_argument("--backend", default="gpt-4o",
                       help="LLM backend name (default: gpt-4o)")
    serve.add_argument("--prompting",
                       choices=["zero_shot", "one_shot", "few_shot"],
                       default="zero_shot")
    serve.add_argument("--retriever", default=None,
                       help="force one retriever instead of intent routing")
    serve.add_argument("--jobs", type=int, default=None,
                       help="parallel simulation workers for the database "
                            "build (default: 1)")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="persistent trace store backing the session "
                            "(warm restarts)")
    serve.add_argument("--store-read-only", action="store_true",
                       help="mount --store-dir without write access — the "
                            "replica configuration: many servers share one "
                            "warm corpus a single writer maintains")
    serve.add_argument("--no-warm-up", action="store_true",
                       help="skip the eager database build (first request "
                            "pays for it instead)")
    serve.add_argument("--max-in-flight", type=int, default=32,
                       help="admission-control cap: requests beyond this "
                            "many in flight are shed with a structured "
                            "'overloaded' error (default: 32)")

    store = subparsers.add_parser(
        "store", help="manage the persistent on-disk simulation store")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_save = store_sub.add_parser(
        "save", help="build the database and persist every entry")
    _add_session_arguments(store_save)
    store_save.add_argument("--dir", required=True, metavar="DIR",
                            help="store directory (created if missing)")
    store_save.add_argument("--jobs", type=int, default=None,
                            help="parallel simulation workers (default: 1)")

    store_load = store_sub.add_parser(
        "load", help="rebuild the database from the store (warm start)")
    _add_session_arguments(store_load)
    store_load.add_argument("--dir", required=True, metavar="DIR",
                            help="store directory to load from")
    store_load.add_argument("--expect-warm", action="store_true",
                            help="exit non-zero if any simulation actually "
                                 "ran (CI warm-start assertion)")

    store_info = store_sub.add_parser(
        "info", help="print store schema, record counts and size")
    store_info.add_argument("--dir", required=True, metavar="DIR")

    store_verify = store_sub.add_parser(
        "verify", help="deep-check every record (payloads and filename "
                       "digests); --repair quarantines damage")
    store_verify.add_argument("--dir", required=True, metavar="DIR")
    store_verify.add_argument("--repair", action="store_true",
                              help="quarantine corrupt records, delete "
                                   "stale temp files, rebuild a corrupt "
                                   "manifest and heal the index")
    store_verify.add_argument("--shard", action="append", default=None,
                              metavar="XX", dest="shards",
                              help="restrict the deep check to this shard "
                                   "prefix (repeatable); the index audit "
                                   "runs only on full verifies")
    store_verify.add_argument("--temp-max-age", type=float, default=None,
                              metavar="SECONDS",
                              help="treat .tmp files older than this as "
                                   "stale (default: 600)")

    store_gc = store_sub.add_parser(
        "gc", help="drop corrupt/foreign records; optionally prune by age")
    store_gc.add_argument("--dir", required=True, metavar="DIR")
    store_gc.add_argument("--max-records", type=int, default=None,
                          help="keep at most this many records "
                               "(oldest pruned first)")
    store_gc.add_argument("--temp-max-age", type=float, default=None,
                          metavar="SECONDS",
                          help="sweep .tmp files older than this (default: "
                               "600; fresher ones are presumed to be a "
                               "concurrent writer's in-progress write)")

    store_migrate = store_sub.add_parser(
        "migrate", help="re-shard a flat-layout store in place and build "
                        "its index (record bytes untouched — warm reads "
                        "stay byte-identical)")
    store_migrate.add_argument("--dir", required=True, metavar="DIR")

    store_reindex = store_sub.add_parser(
        "reindex", help="rebuild the append-only index from the object "
                        "headers alone (byte-identical to a compacted "
                        "live index)")
    store_reindex.add_argument("--dir", required=True, metavar="DIR")

    store_compact = store_sub.add_parser(
        "compact", help="rewrite the index in canonical form (drops "
                        "duplicate/torn/stale lines without opening any "
                        "record file)")
    store_compact.add_argument("--dir", required=True, metavar="DIR")

    trace = subparsers.add_parser(
        "trace",
        help="import external trace files and inspect imported traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_import = trace_sub.add_parser(
        "import",
        help="parse a trace file and persist it into a store",
        description="Parse a text/CSV (`pc,address,is_write[,instr_gap]`) "
                    "or ChampSim-like binary trace file (either optionally "
                    "gzipped) and persist it into a trace store keyed by "
                    "content fingerprint.  The imported trace becomes a "
                    "named workload usable anywhere a synthetic one is: "
                    "simulate/ask/experiment/serve with the same "
                    "--store-dir.")
    trace_import.add_argument("path", metavar="FILE",
                              help="trace file to import")
    trace_import.add_argument("--dir", required=True, metavar="DIR",
                              help="store directory (created if missing)")
    trace_import.add_argument("--name", default=None,
                              help="workload name to register "
                                   "(default: the file stem)")
    trace_import.add_argument("--format", dest="fmt",
                              choices=["auto", "text", "champsim"],
                              default="auto",
                              help="trace file format (default: auto = "
                                   "infer from the suffix)")

    trace_list = trace_sub.add_parser(
        "list", help="list imported traces in a store (headers only)")
    trace_list.add_argument("--dir", required=True, metavar="DIR")

    trace_info = trace_sub.add_parser(
        "info", help="show one imported trace's metadata (headers only)")
    trace_info.add_argument("name", metavar="NAME_OR_FINGERPRINT",
                            help="workload name, or a content-fingerprint "
                                 "prefix")
    trace_info.add_argument("--dir", required=True, metavar="DIR")
    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.list:
        if args.store_dir is not None:
            # Imported traces in the named store appear in the listing
            # beside the synthetic generators.
            import os

            from repro.tracedb.store import TraceStore
            from repro.workloads.ingest import ensure_store_traces_registered

            if not os.path.isdir(args.store_dir):
                print(f"error: no trace store at {args.store_dir!r}",
                      file=sys.stderr)
                return 1
            ensure_store_traces_registered(TraceStore(args.store_dir))
        infos = available_workload_info()
        print("workloads:")
        name_width = max(len(info["name"]) for info in infos)
        for info in infos:
            print(f"  {info['name']:<{name_width}}  [{info['kind']:<9}] "
                  f"{info['description']}")
        print("policies:  ", ", ".join(available_policies()))
        print("retrievers:", ", ".join(available_retrievers()))
        print("backends:  ", ", ".join(available_backend_names()))
        return 0
    workload = args.workload or (args.workloads
                                 or list(DEFAULT_WORKLOADS))[0]
    policy = args.policy or (args.policies or list(DEFAULT_POLICIES))[0]
    session = _make_session(args, workloads=[workload], policies=[policy])
    result = session.simulate(workload, policy)
    print(result.summary())
    stats = result.llc_stats
    print(f"  hits {stats.hits} / misses {stats.misses} "
          f"(compulsory {stats.compulsory_misses}, "
          f"capacity {stats.capacity_misses}, "
          f"conflict {stats.conflict_misses})")
    print(f"  wrong evictions: {result.wrong_evictions}; "
          f"records kept: {result.num_records}")
    return 0


def _report_remote_error(action: str, address: str,
                         error: BaseException) -> int:
    """One-line report for a failed --remote call; returns exit code 1.

    Every remote CLI path shares this so failures consistently name the
    resolved host:port, the errno (when the OS supplied one) and the
    server's structured error kind, plus a retry hint — transient
    failures (restarts, overload sheds) are expected under chaos and the
    right response is usually to retry.
    """
    from repro.serve.client import parse_address

    try:
        host, port = parse_address(address)
        where = f"{host}:{port}"
    except ValueError:
        where = repr(address)
    details = [f"server {where}"]
    number = getattr(error, "errno", None)
    if number is not None:
        details.append(f"errno {number}")
    kind = getattr(error, "kind", None)
    if kind:
        details.append(f"kind {kind}")
    print(f"error: remote {action} failed: {error} ({'; '.join(details)}). "
          f"If the server is restarting or overloaded, retrying usually "
          f"succeeds — idempotent requests already back off automatically.",
          file=sys.stderr)
    return 1


def _cmd_ask(args: argparse.Namespace) -> int:
    import json

    questions = list(args.questions)
    if not questions:
        questions = [line.strip() for line in sys.stdin if line.strip()]
    if not questions:
        print("no questions given", file=sys.stderr)
        return 2
    if args.remote is not None:
        # One batch round trip: the server merges duplicate simulation jobs
        # across the batch exactly like the in-process path.
        from repro.serve.client import RemoteClient, RemoteError
        try:
            with RemoteClient(args.remote) as client:
                responses = client.ask_batch(questions,
                                             retriever=args.retriever)
        except (OSError, ValueError, RemoteError) as error:
            # ValueError covers malformed addresses and non-JSON replies
            # (json.JSONDecodeError) from something that isn't our server.
            return _report_remote_error("ask", args.remote, error)
    else:
        session = _make_session(args, backend=args.backend,
                                prompting=args.prompting,
                                retriever=args.retriever)
        responses = session.ask_request_many(questions)
    for response in responses:
        if args.as_json:
            print(json.dumps(response.to_dict(), indent=2, sort_keys=True))
            continue
        answer = response.answer
        print(f"Q: {answer.question}")
        print(f"A: {answer.text}")
        print(f"   [category={answer.category} retriever={answer.retriever} "
              f"backend={answer.backend} quality={answer.retrieval_quality} "
              f"grounded={answer.grounded}]")
        if answer.sources:
            print(f"   sources: {', '.join(answer.sources)}")
        if args.show_evidence:
            for line in answer.evidence:
                print(f"   | {line}")
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import CacheMindServer
    from repro.serve.service import CacheMindService

    jobs = args.jobs if args.jobs is not None else 1
    session = _make_session(args, backend=args.backend,
                            prompting=args.prompting,
                            retriever=args.retriever, jobs=jobs,
                            store_dir=args.store_dir)
    service = CacheMindService(session=session)
    if not args.no_warm_up:
        start = time.perf_counter()
        stats = service.warm_up()
        print(f"warmed up in {time.perf_counter() - start:.3f}s "
              f"({stats['misses']} simulated, {stats['hits']} cached, "
              f"{stats['store_hits']} from store)", flush=True)
    server = CacheMindServer(service, host=args.host, port=args.port,
                             max_in_flight=args.max_in_flight)
    host, port = server.address
    # The ready line is machine-parsed by smoke tests: keep its shape.
    print(f"serving CacheMind on {host}:{port} "
          f"({len(session.workloads)} workloads x "
          f"{len(session.policies)} policies, config '{args.config}', "
          f"backend {session.backend.name})", flush=True)
    print("protocol: one JSON object per line "
          '(e.g. {"op": "ask", "question": "..."}); '
          "ops: ask, batch, experiment, query, stats, health, ping",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
        service.close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.perf:
        return _cmd_bench_perf(args)
    jobs = args.jobs if args.jobs is not None else 1
    session = _make_session(args, jobs=jobs)
    cache_before = dict(session.simulation_cache.stats())
    build_start = time.perf_counter()
    table = session.compare_policies(metric=args.metric)
    build_seconds = time.perf_counter() - build_start
    percent = args.metric in ("miss_rate", "hit_rate")
    name_width = max(len(name) for name in table)
    print(f"{args.metric} per (workload, policy) — config '{args.config}', "
          f"{args.accesses} accesses")
    for workload, row in table.items():
        best, _rate = session.best_policy(workload, metric=args.metric)
        cells = []
        for policy, value in sorted(row.items()):
            rendered = f"{value * 100:.2f}%" if percent else f"{value:.4f}"
            marker = "*" if policy == best else " "
            cells.append(f"{policy}={rendered}{marker}")
        print(f"  {workload:<{name_width}}  " + "  ".join(cells))
    print("  (* = best policy per workload)")
    cache_after = session.simulation_cache.stats()
    simulations = len(args.workloads) * len(args.policies)
    new_hits = cache_after["hits"] - cache_before["hits"]
    new_misses = cache_after["misses"] - cache_before["misses"]
    per_simulation = build_seconds / simulations if simulations else 0.0
    print(f"  built in {build_seconds:.3f}s "
          f"({per_simulation * 1000:.1f} ms/simulation, "
          f"{simulations} simulations, jobs={jobs})")
    print(f"  simulation cache: {new_hits} hits, {new_misses} misses this "
          f"build ({cache_after['hits']} hits / {cache_after['misses']} "
          f"misses process-wide)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.experiment_command == "run":
        return _cmd_experiment_run(args)
    return _cmd_experiment_report(args)


def _build_experiment_spec(args: argparse.Namespace):
    from repro.core.experiment import ExperimentSpec

    return ExperimentSpec(
        workloads=(args.workloads if args.workloads is not None
                   else list(DEFAULT_WORKLOADS)),
        policies=(args.policies if args.policies is not None
                  else list(DEFAULT_POLICIES)),
        configs=tuple(args.configs),
        mode=args.mode,
        details=tuple(args.details),
        num_accesses=tuple(args.accesses),
        seeds=tuple(args.seeds),
        metrics=tuple(args.metrics),
        baseline_policy=args.baseline,
    )


def _cell_axes_label(row) -> str:
    """``axis=value`` labels for one derived-view row (every grid axis
    except the policy the view singles out)."""
    from repro.core.experiment import AXES

    return " ".join(f"{axis}={row[axis]}" for axis in AXES
                    if axis != "policy")


def _print_experiment(result, metric: str = None) -> None:
    print(result.summary())
    counters = result.counters
    execute = result.timings.get("execute", 0.0)
    if execute > 0:
        print(f"  {len(result) / execute:.1f} cells/s "
              f"({counters.get('duplicate_jobs', 0)} duplicate cells "
              f"merged before execution)")
    metrics = [metric] if metric else list(result.spec.metrics)
    for name in metrics:
        print(result.format_table(name))
    if result.spec.baseline_policy is not None:
        baseline = result.spec.baseline_policy
        lead = metrics[0]
        print(f"delta vs baseline '{baseline}' ({lead}):")
        for row in result.delta_vs_baseline(lead):
            print(f"  {row['policy']:<10} {_cell_axes_label(row)}  "
                  f"{row[lead]:.4f} vs {row['baseline']:.4f} "
                  f"({row['delta']:+.4f})")


def _cmd_experiment_run(args: argparse.Namespace) -> int:
    import json

    spec = _build_experiment_spec(args)
    if args.remote is not None:
        # These flags configure in-process execution; silently ignoring
        # them would strand e.g. a --store-dir the user expects to warm.
        ignored = [flag for flag, value in (("--store-dir", args.store_dir),
                                            ("--jobs", args.jobs))
                   if value is not None]
        if ignored:
            print(f"error: {', '.join(ignored)} cannot be combined with "
                  f"--remote (execution happens server-side, with the "
                  f"server's store and workers)", file=sys.stderr)
            return 2
        from repro.serve.client import RemoteClient, RemoteError
        try:
            # Wide grids take a while server-side; allow them to finish.
            with RemoteClient(args.remote, timeout=600.0) as client:
                result = client.experiment(spec)
        except (OSError, ValueError, RemoteError) as error:
            return _report_remote_error("experiment", args.remote, error)
    else:
        session = CacheMind(
            workloads=spec.workloads, policies=spec.policies,
            num_accesses=spec.num_accesses[0], config=spec.configs[0],
            mode=spec.mode, seed=spec.seeds[0],
            jobs=args.jobs if args.jobs is not None else 1,
            store_dir=args.store_dir)
        result = session.run_experiment(spec)
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        _print_experiment(result)
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"error: cannot write {args.output!r}: {error}",
                  file=sys.stderr)
            return 1
        print(f"  result written to {args.output}")
    simulations = result.counters.get("simulations_run", 0)
    if args.expect_warm and simulations > 0:
        print(f"error: expected a warm run but {simulations} simulation(s) "
              f"ran", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment_report(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.core.experiment import ExperimentResult
    from repro.tracedb.store import TraceStore

    if (args.path is None) == (args.store_dir is None):
        print("error: pass an ExperimentResult JSON file or --store-dir "
              "(not both)", file=sys.stderr)
        return 2
    if args.path is not None:
        try:
            with open(args.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            print(f"error: cannot read {args.path!r}: {error}",
                  file=sys.stderr)
            return 1
        except ValueError as error:
            print(f"error: {args.path!r} is not JSON: {error}",
                  file=sys.stderr)
            return 1
        try:
            result = ExperimentResult.from_dict(payload)
        except (ValueError, TypeError, KeyError, AttributeError) as error:
            # Any JSON that is not to_dict()-shaped: wrong top-level type,
            # missing config fields, ragged columns, ...
            print(f"error: {args.path!r} is not an ExperimentResult JSON "
                  f"file: {type(error).__name__}: {error}", file=sys.stderr)
            return 1
    else:
        if not os.path.isdir(args.store_dir):
            print(f"error: no trace store at {args.store_dir!r}",
                  file=sys.stderr)
            return 1
        store = TraceStore(args.store_dir)
        if args.fingerprint is None:
            summaries = store.list_experiments()
            if not summaries:
                print(f"no stored experiments in {args.store_dir}")
                return 0
            print(f"{len(summaries)} stored experiment(s) in "
                  f"{args.store_dir}:")
            for summary in summaries:
                spec = summary["spec"]
                print(f"  {summary['fingerprint']}  "
                      f"{summary['cells']} cells  "
                      f"({len(spec.get('workloads', []))} workloads x "
                      f"{len(spec.get('policies', []))} policies x "
                      f"{len(spec.get('configs', []))} configs)")
            print("re-run with --fingerprint to render one")
            return 0
        # Header-only scan: prefix resolution never decompresses payloads.
        matches = [fingerprint
                   for fingerprint in store.experiment_fingerprints()
                   if fingerprint.startswith(args.fingerprint)]
        if not matches:
            print(f"error: no stored experiment matches "
                  f"{args.fingerprint!r}", file=sys.stderr)
            return 1
        if len(matches) > 1:
            print(f"error: fingerprint prefix {args.fingerprint!r} is "
                  f"ambiguous ({len(matches)} matches)", file=sys.stderr)
            return 1
        result = ExperimentResult.load(store, matches[0])
        if result is None:
            print(f"error: stored experiment {matches[0]} is unreadable",
                  file=sys.stderr)
            return 1
    if args.query is not None:
        return _run_report_query(result, args)
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    _print_experiment(result, metric=args.metric)
    metric_name = args.metric or result.spec.metrics[0]
    print(f"best policy per cell ({metric_name}):")
    for row in result.best_policy_per_cell(metric_name):
        print(f"  {row['policy']:<10} {_cell_axes_label(row)}  "
              f"{row[metric_name]:.4f}")
    return 0


def _run_report_query(result, args: argparse.Namespace) -> int:
    """Execute ``experiment report --query`` through the analytics engine."""
    import json

    from repro.analytics import (
        Query,
        QuerySyntaxError,
        parse_query,
    )
    from repro.errors import UnknownNameError

    text = args.query.strip()
    try:
        if text.startswith("{"):
            query = Query.from_dict(json.loads(text))
        else:
            query = parse_query(text, table="cells")
    except (QuerySyntaxError, ValueError, KeyError, TypeError) as error:
        print(f"error: bad --query: {error}", file=sys.stderr)
        return 2
    try:
        table = result.query(query)
    except (UnknownNameError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps({"columns": table.to_dict()}, indent=2,
                         sort_keys=True))
    elif args.query_format == "csv":
        print(table.to_csv())
    else:
        print(table.format(max_rows=len(table) or 1))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import os

    from repro.tracedb.store import TraceStore

    from repro.tracedb.objstore import TEMP_MAX_AGE_SECONDS

    # Read-only/maintenance commands must not conjure an empty store out of
    # a typo'd path; only save/load (which build) may create the directory.
    if (args.store_command in ("info", "gc", "verify", "migrate", "reindex",
                               "compact")
            and not os.path.isdir(args.dir)):
        print(f"error: no trace store at {args.dir!r}", file=sys.stderr)
        return 1

    if args.store_command == "info":
        info = TraceStore(args.dir).info()
        index = info["index"]
        print(f"trace store at {info['root']}")
        print(f"  schema version: {info['schema']} "
              f"(layout: {info['layout']})")
        print(f"  records: {info['records']} "
              f"({info['entries']} entries, {info['results']} results, "
              f"{info['experiments']} experiments, "
              f"{info['traces']} traces, "
              f"{info['unreadable']} unreadable, "
              f"{info['quarantined']} quarantined)")
        print(f"  shards: {len(info['shards'])} in use", end="")
        if info["shards"]:
            busiest = max(info["shards"].items(), key=lambda kv: kv[1])
            print(f" (busiest {busiest[0]}: {busiest[1]} record(s))")
        else:
            print()
        print(f"  index: {index['entries']} entr(ies) covering "
              f"{index['live_objects']} live object(s)"
              + ("" if index["present"] else " [missing — header-scan "
                                             "fallback]"))
        if (index["stale_entries"] or index["unindexed_objects"]
                or index["invalid_lines"] or index["compaction_lag"]):
            print(f"  index health: {index['stale_entries']} stale, "
                  f"{index['unindexed_objects']} unindexed, "
                  f"{index['invalid_lines']} invalid line(s), "
                  f"compaction lag {index['compaction_lag']}")
        print(f"  size: {info['total_bytes'] / 1024:.1f} KiB")
        return 0

    if args.store_command == "verify":
        # strict=False: verify must *report* whatever is on disk (including
        # a corrupt manifest) rather than auto-heal it on open; --repair is
        # the explicit healing step.
        temp_max_age = (args.temp_max_age if args.temp_max_age is not None
                        else TEMP_MAX_AGE_SECONDS)
        report = TraceStore(args.dir, strict=False).verify(
            repair=args.repair, shards=args.shards,
            temp_max_age=temp_max_age)
        by_kind = report["by_kind"]
        scope = (f" (shards {', '.join(report['shards'])})"
                 if report["shards"] else "")
        print(f"store verify: {report['root']}{scope}")
        print(f"  checked {report['checked']} record(s): {report['ok']} ok "
              f"({by_kind['entry']} entries, {by_kind['result']} results, "
              f"{by_kind['experiment']} experiments, "
              f"{by_kind['trace']} traces)")
        print(f"  manifest: {report['manifest']}")
        index = report["index"]
        if index is not None:
            issues = (len(index["stale"]) + len(index["unindexed"])
                      + index["invalid_lines"])
            state = ("healed" if index["healed"]
                     else "ok" if index["present"] and not issues
                     else "missing" if not index["present"]
                     else f"{issues} issue(s)")
            print(f"  index: {state} "
                  f"({len(index['stale'])} stale, "
                  f"{len(index['unindexed'])} unindexed, "
                  f"{index['invalid_lines']} invalid line(s))")
        for label in ("corrupt", "misplaced", "foreign", "temp"):
            for name in report[label]:
                print(f"  {label}: {name}")
        if report["repaired"]:
            print(f"  repaired: quarantined {len(report['quarantined'])} "
                  f"file(s), removed {len(report['removed_temp'])} temp "
                  f"file(s)")
        if report["clean"]:
            print("  store is clean")
            return 0
        hint = ("foreign records need `store gc`" if args.repair
                else "run `python -m repro store verify --dir "
                     f"{args.dir} --repair`")
        print(f"error: store verification found problems ({hint})",
              file=sys.stderr)
        return 1

    if args.store_command == "gc":
        # strict=False: gc is the documented recovery path for a store
        # written by a different build, so it must be able to open one.
        temp_max_age = (args.temp_max_age if args.temp_max_age is not None
                        else TEMP_MAX_AGE_SECONDS)
        removed = TraceStore(args.dir, strict=False).gc(
            max_records=args.max_records, temp_max_age=temp_max_age)
        for reason, names in removed.items():
            for name in names:
                print(f"  removed ({reason}): {name}")
        total = sum(len(names) for names in removed.values())
        print(f"gc: removed {total} record(s) from {args.dir}")
        return 0

    if args.store_command == "migrate":
        layout = TraceStore.detect_layout(args.dir)
        # Opening a flat store auto-migrates; the explicit command exists
        # so operators can do it at a chosen moment (and see the stats)
        # instead of paying it on the next session's first open.
        store = TraceStore(args.dir, strict=False)
        stats = (store.migration if store.migration is not None
                 else store.migrate())
        print(f"migrate: {args.dir} ({layout} layout)")
        print(f"  moved {stats['moved']} record(s) into shards, "
              f"skipped {stats['skipped']}, indexed {stats['indexed']}"
              + (f", {stats['unreadable']} unreadable"
                 if stats.get("unreadable") else ""))
        return 0

    if args.store_command == "reindex":
        stats = TraceStore(args.dir, strict=False).reindex()
        print(f"reindex: {args.dir}: {stats['indexed']} object(s) indexed"
              + (f", {stats['unreadable']} unreadable skipped"
                 if stats["unreadable"] else ""))
        return 0

    if args.store_command == "compact":
        stats = TraceStore(args.dir, strict=False).compact_index()
        print(f"compact: {args.dir}: {stats['entries']} entr(ies) kept "
              f"({stats['dropped_stale']} stale, "
              f"{stats['dropped_duplicates']} duplicate, "
              f"{stats['dropped_invalid']} invalid line(s) dropped)")
        return 0

    # save / load share the session plumbing; each uses a private cache so
    # hit/miss counters describe exactly this command's work.
    store = TraceStore(args.dir)
    cache = SimulationCache(store=store)
    jobs = getattr(args, "jobs", None)
    session = _make_session(args, simulation_cache=cache,
                            jobs=jobs if jobs is not None else 1)
    start = time.perf_counter()
    _ = session.database
    seconds = time.perf_counter() - start
    stats = cache.stats()
    pairs = len(session.workloads) * len(session.policies)
    if args.store_command == "save":
        print(f"saved {pairs} (workload, policy) entries to {args.dir} "
              f"in {seconds:.3f}s "
              f"({stats['misses']} simulated, {stats['hits']} cached, "
              f"{store.saves} record(s) written)")
        return 0

    print(f"loaded {pairs} entries from {args.dir} in {seconds:.3f}s "
          f"({stats['store_hits']} from store, {stats['misses']} simulated)")
    if args.expect_warm and stats["misses"] > 0:
        print(f"error: expected a warm start but {stats['misses']} "
              f"simulation(s) ran", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.tracedb.store import TraceStore
    from repro.workloads.ingest import import_trace_file

    # list/info are read-only: a typo'd path must not conjure an empty
    # store (mirrors `store info`).
    if (args.trace_command in ("list", "info")
            and not os.path.isdir(args.dir)):
        print(f"error: no trace store at {args.dir!r}", file=sys.stderr)
        return 1

    if args.trace_command == "import":
        fmt = None if args.fmt == "auto" else args.fmt
        store = TraceStore(args.dir)
        try:
            name, meta = import_trace_file(store, args.path,
                                           name=args.name, fmt=fmt)
        except OSError as error:
            print(f"error: cannot read {args.path!r}: {error}",
                  file=sys.stderr)
            return 1
        print(f"imported '{name}' into {args.dir}")
        print(f"  {meta['accesses']} accesses, format {meta['format']}, "
              f"fingerprint {meta['fingerprint']}")
        print(f"  source: {meta['source']}")
        print(f"  reference it as a workload by name, e.g. `python -m "
              f"repro simulate --workloads {name} --store-dir {args.dir}`")
        return 0

    store = TraceStore(args.dir)
    rows = store.trace_manifest()
    if args.trace_command == "list":
        if not rows:
            print(f"no imported traces in {args.dir}")
            return 0
        print(f"{len(rows)} imported trace(s) in {args.dir}:")
        name_width = max(len(row["name"]) for row in rows)
        for row in rows:
            print(f"  {row['name']:<{name_width}}  "
                  f"{row['accesses']:>9} accesses  "
                  f"{row['format']:<8}  {row['fingerprint']}")
        return 0

    # info: match by exact name, else by fingerprint prefix.
    matches = [row for row in rows if row["name"] == args.name]
    if not matches:
        matches = [row for row in rows
                   if row["fingerprint"].startswith(args.name)]
    if not matches:
        print(f"error: no imported trace matches {args.name!r} in "
              f"{args.dir} (try `trace list --dir {args.dir}`)",
              file=sys.stderr)
        return 1
    if len(matches) > 1:
        print(f"error: {args.name!r} is ambiguous ({len(matches)} "
              f"matches)", file=sys.stderr)
        return 1
    row = matches[0]
    print(f"trace '{row['name']}'")
    print(f"  accesses:    {row['accesses']}")
    print(f"  fingerprint: {row['fingerprint']}")
    print(f"  format:      {row['format']}")
    print(f"  source:      {row['source'] or '<unknown>'}")
    print(f"  kind:        ingested (replayed verbatim; seed and "
          f"--accesses are ignored)")
    return 0


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    from repro.perf import format_report, run_perf_suite, write_report
    from repro.perf.harness import BENCH_POLICIES, BENCH_WORKLOADS

    # The session defaults target the paper's evaluation; the perf defaults
    # target the hot paths (fast-path LRU, a generic policy, the oracle).
    # Explicit flags always win (None = flag omitted, see
    # _add_session_arguments).
    workloads = (tuple(args.workloads) if args.workloads is not None
                 else BENCH_WORKLOADS)
    policies = (tuple(args.policies) if args.policies is not None
                else BENCH_POLICIES)
    report = run_perf_suite(quick=args.quick,
                            workloads=workloads,
                            policies=policies,
                            config=CONFIGS[args.config],
                            mode=args.mode,
                            seed=args.seed,
                            num_accesses=args.accesses,
                            jobs=args.jobs,
                            store_dir=args.store_dir)
    print(format_report(report))
    path = write_report(report, path=args.perf_output)
    print(f"  report written to {path}")
    if args.compare:
        from repro.perf.harness import (
            compare_reports,
            differing_params,
            load_report,
        )
        try:
            previous = load_report(args.compare)
        except (OSError, ValueError) as error:
            print(f"  cannot load comparison report {args.compare}: {error}")
            return 1
        print(compare_reports(previous, report))
        if differing_params(previous, report):
            return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "ask": _cmd_ask,
        "bench": _cmd_bench,
        "experiment": _cmd_experiment,
        "store": _cmd_store,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other
        # well-behaved CLI tools.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (StoreVersionError, UnknownNameError, ValueError) as error:
        # Registry lookups and configuration validation get the one-line
        # treatment; any other exception is a genuine bug and tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
