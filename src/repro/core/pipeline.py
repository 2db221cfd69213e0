"""The CacheMind session facade: one object from question to grounded answer.

This module is the public seam over the whole reproduction.  A
:class:`CacheMind` session owns

* a lazily built :class:`~repro.tracedb.database.TraceDatabase` whose
  underlying simulations are memoised in a process-wide
  :class:`SimulationCache` (repeated sessions over the same
  ``(workload, policy, config)`` tuples never re-simulate); the session's
  ``database`` property is the one way to build a database,
* a :class:`~repro.core.query.QueryParser` shared with the retrievers,
* one retriever per registered strategy, constructed on first use, with
  intent-based routing: Sieve for trace-grounded lookups, Ranger for
  exact-computation categories (counts, arithmetic, code generation), the
  embedding baseline as the fallback,
* a pluggable LLM backend (any registered name or
  :class:`~repro.llm.backend.LLMBackend` instance) driving the
  :class:`~repro.core.generate.AnswerGenerator`,
* conversation memory threaded into every generator prompt.

Asking is the explicit three-stage serving API (``repro.core.plan``):
requests are planned (:meth:`CacheMind.plan` — parsed intent, retriever
route, the exact simulation jobs required), batches are merged so duplicate
jobs simulate once, and execution emits :class:`AskResponse` envelopes with
per-stage timings (:meth:`CacheMind.ask_request_many`).

Every simulation starts in :meth:`SimulationCache.run_jobs`, which turns
planned jobs into memoised values and replays each miss as a
:class:`~repro.sim.batch.BatchSimulator` rollout.  Asks, experiment grids
(``repro.core.experiment``), database builds and :meth:`CacheMind.simulate`
all run through it, so they share the memo and store lookups, the
per-trace batch passes, the worker pool and the store writes.  The legacy
:meth:`CacheMind.ask`/:meth:`ask_many` delegate to that path with
byte-identical answers, and ``repro.serve`` puts a thread-safe service, an
asyncio front-end and a JSON-lines server on top of it (the
asynchronous/batched serving direction of Kinsy et al.).

    >>> from repro import CacheMind
    >>> session = CacheMind(workloads=["astar"], policies=["lru", "belady"])
    >>> answer = session.ask("What is the miss rate of lru on astar?")
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections import OrderedDict
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.answer import Answer, AskResponse
from repro.core.experiment import (
    LOWER_IS_BETTER_METRICS,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    ProgressCallback,
    as_experiment_spec,
)
from repro.core.generate import AnswerGenerator
from repro.core.plan import (
    AskRequest,
    PlannedJob,
    QueryPlan,
    QueryPlanner,
    as_request,
)
from repro.core.query import (
    ARITHMETIC,
    CODE_GENERATION,
    COUNT,
    HIT_MISS,
    MISS_RATE,
    PC_LIST,
    POLICY_ANALYSIS,
    POLICY_COMPARISON,
    QueryIntent,
    QueryParser,
    SEMANTIC_ANALYSIS,
    SET_ANALYSIS,
    TRICK,
    WORKLOAD_ANALYSIS,
)
from repro.errors import StoreReadOnlyError, UnknownNameError
from repro.llm.backend import LLMBackend, get_backend
from repro.llm.memory import ConversationMemory
from repro.retrieval.base import Retriever, get_retriever, resolve_retriever_name
from repro.sim.batch import BatchSimulator, RolloutSpec
from repro.sim.config import HierarchyConfig, SMALL_CONFIG
from repro.sim.engine import SimulationResult
from repro.sim.parallel import ParallelSimulator
from repro.tracedb.database import (
    DEFAULT_POLICIES,
    DEFAULT_WORKLOADS,
    TraceDatabase,
    TraceEntry,
    make_entry,
)
from repro.tracedb.store import StoreCorruptionWarning, TraceStore, simulation_key
from repro.workloads.generator import get_workload, workload_generation
from repro.workloads.ingest import ensure_store_traces_registered
from repro.workloads.trace import MemoryTrace

# LOWER_IS_BETTER_METRICS lives in repro.core.experiment (the experiment
# views need it too) and is re-exported here for existing callers.

#: question types answered by exact computation over the store (Ranger).
RANGER_TYPES = (COUNT, ARITHMETIC, CODE_GENERATION, PC_LIST, SET_ANALYSIS)
#: trace-grounded types answered from Sieve's structured bundle.
SIEVE_TYPES = (HIT_MISS, MISS_RATE, POLICY_COMPARISON, TRICK,
               POLICY_ANALYSIS, WORKLOAD_ANALYSIS, SEMANTIC_ANALYSIS)


# ----------------------------------------------------------------------
# simulation memoisation
# ----------------------------------------------------------------------
class _Miss(NamedTuple):
    """One planned job that :meth:`SimulationCache.run_jobs` must simulate.

    ``description`` is the workload description for a full-detail job
    (whose value is the entry derived from its result) and ``None`` for a
    stats job (whose value is the result).
    """

    job: PlannedJob
    spec: RolloutSpec
    trace: MemoryTrace
    description: Optional[str]
    key: tuple


class SimulationCache:
    """Process-wide memoiser for simulation runs and generated traces.

    Result keys (:func:`~repro.tracedb.store.simulation_key` of a
    :class:`~repro.sim.batch.RolloutSpec` and its trace) cover everything
    that determines a run's output: the trace's workload, length, seed and
    content fingerprint, and the rollout's policy, (hashable, frozen)
    hierarchy config, mode and detail.  ``hits``/``misses``
    are exposed so callers and tests can verify that repeated sessions
    reuse prior work; the counters and :meth:`stats` read under the cache
    lock, so concurrent serving threads never observe a torn snapshot.

    With a ``store`` (a :class:`~repro.tracedb.store.TraceStore` or a
    directory path), memoisation extends across processes: in-memory misses
    fall through to the on-disk store before simulating, and each freshly
    simulated result is persisted as one record, so a warm session in a
    new process runs zero simulations.  Store loads count as ``hits`` (an
    avoided simulation) and additionally as ``store_hits``.  Database
    entries are never stored: each is derived in memory from its result
    and memoised beside it.

    Every simulation starts in :meth:`run_jobs`, the executor under asks,
    experiment grids, database builds and :meth:`CacheMind.simulate`;
    values enter through one lookup (:meth:`_lookup`) and one install
    (:meth:`_install`).
    """

    def __init__(self, max_entries: int = 256,
                 store: Union[TraceStore, str, None] = None) -> None:
        # OrderedDicts with LRU eviction: the cache is process-wide and
        # simulation results are large, so a sweep over many seeds or trace
        # lengths must not grow memory without bound.
        self.max_entries = max_entries
        self.store = (TraceStore(store) if isinstance(store, str) else store)
        self._results: "OrderedDict[tuple, SimulationResult]" = OrderedDict()
        self._entries: "OrderedDict[tuple, TraceEntry]" = OrderedDict()
        self._traces: "OrderedDict[tuple, Tuple[MemoryTrace, str]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._store_hits = 0

    # Counter reads take the lock: a lone int read is atomic in CPython, but
    # serving threads read these while workers increment them, and the
    # locked read keeps hits/misses/store_hits mutually consistent with the
    # maps (and honest on GILless builds).  Internal code that already
    # holds the lock must touch the underscored fields directly.
    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def store_hits(self) -> int:
        with self._lock:
            return self._store_hits

    def _put(self, store: "OrderedDict", key: tuple, value) -> None:
        """Insert under the LRU bound (caller holds the lock)."""
        store.setdefault(key, value)
        store.move_to_end(key)
        while len(store) > self.max_entries:
            store.popitem(last=False)

    def _get(self, store: "OrderedDict", key: tuple):
        """LRU-aware lookup (caller holds the lock)."""
        value = store.get(key)
        if value is not None:
            store.move_to_end(key)
        return value

    # ------------------------------------------------------------------
    def get_trace(self, workload: str, num_accesses: int,
                  seed: int) -> Tuple[MemoryTrace, str]:
        """Generate (or reuse) a workload trace; returns (trace, description).

        The returned trace is the shared cached object: treat it as
        immutable.  To modify it, work on a copy (``copy.deepcopy(trace)``,
        or a ``slice()`` — zero-copy views copy-on-write before any
        mutation), or every later session with the same key sees the
        mutation.  A workload name that left the registry misses the memo:
        it may have come back as a different trace.
        """
        key = (workload, num_accesses, seed, workload_generation(workload))
        with self._lock:
            cached = self._get(self._traces, key)
        if cached is not None:
            return cached
        # Generated outside the lock: concurrent first-builds of the same key
        # may duplicate this (benign, keyed by value) rather than serialise
        # every other caller behind one generation.
        try:
            generator = get_workload(workload, seed=seed)
        except UnknownNameError:
            # An ingested trace imported by a *previous* process lives in
            # the store manifest but not in this process's registry yet.
            if self.store is None:
                raise
            ensure_store_traces_registered(self.store)
            generator = get_workload(workload, seed=seed)
        trace = generator.generate(num_accesses)
        value = (trace, generator.description)
        with self._lock:
            self._put(self._traces, key, value)
        return value

    # ------------------------------------------------------------------
    @staticmethod
    def _store_save(save, *args) -> None:
        """Persist a record, degrading to a warning on I/O failure.

        The store is an accelerator, not the source of truth: a full disk
        or injected write fault must not fail the request whose result is
        already computed and memoised in memory.
        """
        try:
            save(*args)
        except StoreReadOnlyError:
            # A read-only mount means "serve warm, don't persist" — the
            # deliberate configuration for replicas sharing one corpus, so
            # not even worth a warning per record.
            pass
        except OSError as error:
            warnings.warn(
                f"trace store write failed ({error!r}); continuing without "
                f"persistence for this record",
                StoreCorruptionWarning, stacklevel=3)

    def _lookup(self, key: tuple, description: Optional[str] = None):
        """``(value, origin)`` without simulating: origin is ``"memory"``,
        ``"store"`` or ``"miss"``, and value is ``None`` only for a miss.
        A found value counts as a hit (an avoided simulation), a store load
        also as a store hit.

        ``description=None`` looks up the result under the simulation
        ``key``.  A string looks up the entry memoised under ``key +
        (description,)``; failing that, it derives the entry from a
        memoised or stored result and memoises it.
        """
        with self._lock:
            if description is not None:
                entry = self._get(self._entries, key + (description,))
                if entry is not None:
                    self._hits += 1
                    return entry, "memory"
            result = self._get(self._results, key)
            if result is not None:
                self._hits += 1
        origin = "memory"
        if result is None:
            result = (self.store.load("result", key)
                      if self.store is not None else None)
            if result is None:
                return None, "miss"
            with self._lock:
                self._put(self._results, key, result)
                self._hits += 1
                self._store_hits += 1
            origin = "store"
        if description is None:
            return result, origin
        return self._derive(key, result, description), origin

    def _derive(self, key: tuple, result: SimulationResult,
                description: str) -> TraceEntry:
        """Derive ``result``'s entry under ``description`` and memoise it."""
        entry = make_entry(result, workload_description=description)
        with self._lock:
            self._put(self._entries, key + (description,), entry)
        return entry

    def _install(self, key: tuple, result: SimulationResult
                 ) -> SimulationResult:
        """Memoise and persist a freshly simulated result (one miss, one
        store record); returns it."""
        with self._lock:
            self._put(self._results, key, result)
            self._misses += 1
        if self.store is not None:
            self._store_save(self.store.save_result, key, result)
        return result

    def run_jobs(self, planned: Sequence[PlannedJob],
                 configs: Dict[str, HierarchyConfig], jobs: int = 1,
                 progress: Optional[ProgressCallback] = None
                 ) -> Tuple[Dict[tuple, object], Dict[str, int]]:
        """Turn planned jobs into memoised values: where every simulation
        starts.

        Returns ``(values, tally)``.  ``values`` maps each job key to an
        entry for a ``"full"`` job (derived in memory from its result) and
        to a result for a ``"stats"`` job.
        ``tally`` counts this call's own ``simulations_run``,
        ``cache_hits``, ``store_hits``, ``batch_groups`` and
        ``batch_cells``, which stay honest while other threads share the
        cache (a delta of the global counters does not), and the worker
        pool's recovery (``retried_jobs``, ``pools_replaced``,
        ``serial_jobs``; all 0 on a serial call).  ``configs`` maps
        each job's ``config_name`` to its hierarchy.

        Duplicate keys run once.  Every job is looked up first (in memory,
        then in the store); each miss then replays as a
        :class:`~repro.sim.batch.BatchSimulator` rollout.  Serially, the
        misses sharing a trace replay as one batch pass (a lone miss is a
        one-rollout batch; ``batch_groups``/``batch_cells`` count the
        groups of two or more).  With ``jobs > 1`` every miss of the call
        goes to one :class:`~repro.sim.parallel.ParallelSimulator` pool as
        a task carrying its trace.  Every result installs through the
        memoiser (and its store, as one record per simulation), so later
        callers and warm re-runs simulate nothing.  ``progress(done,
        total)`` is called with ``done=0`` first, then once per finished
        job.
        """
        unique = {job.key: job for job in planned}
        values: Dict[tuple, object] = {}
        tally = dict.fromkeys(("simulations_run", "cache_hits", "store_hits",
                               "batch_groups", "batch_cells",
                               *ParallelSimulator.RECOVERY_COUNTERS), 0)
        misses: Dict[Optional[tuple], List[_Miss]] = {}

        def finish(job: PlannedJob, value) -> None:
            values[job.key] = value
            if progress is not None:
                progress(len(values), len(unique))

        # Announce the total before any work: observers (the serving
        # telemetry) learn the grid size without compiling a spec.
        if progress is not None:
            progress(0, len(unique))
        for job in unique.values():
            spec = RolloutSpec(policy=job.policy,
                               config=configs[job.config_name],
                               mode=job.mode, detail=job.detail)
            trace, description = self.get_trace(job.workload,
                                                job.num_accesses, job.seed)
            miss = _Miss(job, spec, trace,
                         description if job.detail == "full" else None,
                         simulation_key(spec, trace))
            value, origin = self._lookup(miss.key, miss.description)
            if value is None:
                # Serially one batch per trace; with jobs > 1 one pool for
                # the whole call, whatever its configs and details.
                group = ((job.workload, job.num_accesses, job.seed)
                         if jobs <= 1 else None)
                misses.setdefault(group, []).append(miss)
                continue
            tally["cache_hits"] += 1
            tally["store_hits"] += origin == "store"
            finish(job, value)
        for group in misses.values():
            if jobs > 1:
                simulator = ParallelSimulator(jobs)
                produced = simulator.run_results(
                    [(miss.trace, miss.spec) for miss in group])
                for name, count in simulator.recovery.items():
                    tally[name] += count
            else:
                if len(group) >= 2:
                    tally["batch_groups"] += 1
                    tally["batch_cells"] += len(group)
                produced = BatchSimulator(group[0].trace).run(
                    [miss.spec for miss in group])
            for miss, result in zip(group, produced):
                tally["simulations_run"] += 1
                self._install(miss.key, result)
                finish(miss.job, result if miss.description is None
                       else self._derive(miss.key, result, miss.description))
        return values, tally

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def stats(self) -> Dict[str, int]:
        """One consistent snapshot of sizes and counters, taken under the
        lock (concurrent serving threads otherwise race the increments)."""
        with self._lock:
            return {"results": len(self._results),
                    "derived_entries": len(self._entries),
                    "traces": len(self._traces),
                    "hits": self._hits, "misses": self._misses,
                    "store_hits": self._store_hits}

    def clear(self) -> None:
        """Drop the in-memory maps and counters (the on-disk store, if any,
        is left intact — use ``store.clear()`` to wipe it)."""
        with self._lock:
            self._results.clear()
            self._entries.clear()
            self._traces.clear()
            self._hits = 0
            self._misses = 0
            self._store_hits = 0


#: default process-wide cache shared by every session.
SIMULATION_CACHE = SimulationCache()


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
class CacheMind:
    """End-to-end session: workloads + policies + backend -> answers."""

    #: answer-history bound: a long-running serving session answers
    #: indefinitely, and Answer objects (evidence lists, extras) are large
    #: enough that an unbounded list would grow for the server's lifetime.
    MAX_HISTORY = 1024

    def __init__(self,
                 workloads: Sequence[str] = DEFAULT_WORKLOADS,
                 policies: Sequence[str] = DEFAULT_POLICIES,
                 num_accesses: int = 20000,
                 config: HierarchyConfig = SMALL_CONFIG,
                 mode: str = "llc_only",
                 seed: int = 0,
                 backend: Union[str, LLMBackend] = "gpt-4o",
                 prompting: str = "zero_shot",
                 retriever: Union[str, Retriever, None] = None,
                 simulation_cache: Optional[SimulationCache] = None,
                 jobs: int = 1,
                 store_dir: Optional[str] = None,
                 store_read_only: bool = False):
        if not workloads:
            raise ValueError("CacheMind needs at least one workload")
        if not policies:
            raise ValueError("CacheMind needs at least one policy")
        self.workloads = tuple(workloads)
        self.policies = tuple(policies)
        self.num_accesses = num_accesses
        self.config = config
        self.mode = mode
        self.seed = seed
        self.prompting = prompting
        # jobs > 1 fans the cache misses of asks and experiment grids out
        # over worker processes (see SimulationCache.run_jobs).
        self.jobs = max(1, int(jobs))
        # store_dir attaches a persistent on-disk store so repeated sessions
        # (and parallel workers) start warm across processes.  With an
        # explicit simulation_cache the store is attached to it (unless it
        # already has one); otherwise a private store-backed cache is used
        # rather than mutating the process-wide singleton.
        # store_read_only mounts that store without write access — the
        # replica configuration: many sessions share one warm corpus a
        # single writer maintains; nothing this session computes is
        # persisted back.
        self.store_dir = store_dir
        self.store_read_only = store_read_only
        if store_read_only and store_dir is None:
            raise ValueError("store_read_only=True requires store_dir")
        if simulation_cache is not None:
            self.simulation_cache = simulation_cache
            if store_dir is not None:
                if self.simulation_cache.store is None:
                    self.simulation_cache.store = TraceStore(
                        store_dir, read_only=store_read_only)
                elif (os.path.abspath(self.simulation_cache.store.root)
                      != os.path.abspath(os.fspath(store_dir))):
                    # Silently persisting to a different directory than the
                    # caller named would strand their store_dir cold.
                    raise ValueError(
                        f"simulation_cache already persists to "
                        f"{self.simulation_cache.store.root!r}; cannot also "
                        f"attach store_dir={store_dir!r}")
        elif store_dir is not None:
            self.simulation_cache = SimulationCache(
                store=TraceStore(store_dir, read_only=store_read_only))
        else:
            self.simulation_cache = SIMULATION_CACHE
        # get_backend passes instances through; lenient=True drops the
        # always-offered seed/prompting for factories not declaring them.
        self.backend = get_backend(backend, lenient=True, seed=seed,
                                   prompting=prompting)
        self.generator = AnswerGenerator(self.backend, prompting=prompting)
        self.memory = ConversationMemory()
        self.parser = QueryParser(known_workloads=self.workloads,
                                  known_policies=self.policies)
        self.history: List[Answer] = []
        self.database_builds = 0
        # Validate a forced retriever name eagerly (like the backend) so a
        # typo errors before the expensive database build.
        if isinstance(retriever, str):
            resolve_retriever_name(retriever)
        self._forced_retriever = retriever
        # The planner shares the session parser and routing function; its
        # matrix_jobs() is the single source of truth for which simulations
        # a database build (and therefore every plan) depends on.
        self.planner = QueryPlanner(
            parser=self.parser, router=self.route,
            workloads=self.workloads, policies=self.policies,
            num_accesses=self.num_accesses, seed=self.seed,
            config_name=self.config.name, mode=self.mode,
            forced_retriever=self._forced_retriever)
        self._database: Optional[TraceDatabase] = None
        self._retrievers: Dict[str, Retriever] = {}
        # Experiment bookkeeping: how many sweeps ran through this session
        # and which hierarchy configurations they touched (describe()
        # reports these — the session is no longer pinned to one config).
        # Guarded by a lock: the serving layer runs sweeps concurrently
        # outside its serving lock, so these read-modify-writes would
        # otherwise interleave.
        self.experiments_run = 0
        self._experiment_configs: Dict[str, HierarchyConfig] = {}
        self._experiment_state_lock = threading.Lock()

    # ------------------------------------------------------------------
    # database lifecycle
    # ------------------------------------------------------------------
    @property
    def database(self) -> TraceDatabase:
        """The trace database, built on first use and then reused."""
        if self._database is None:
            self._database = self._database_from_jobs(
                self.planner.matrix_jobs())[0]
        return self._database

    def _database_from_jobs(self, planned: Sequence[PlannedJob]
                            ) -> Tuple[TraceDatabase, int]:
        """Execute ``planned`` and assemble the entries into a database;
        also returns how many simulations ran."""
        entries, simulations = self._execute_planned_jobs(planned)
        database = TraceDatabase(config=self.config)
        for entry in entries:
            database.add_entry(entry)
        self.database_builds += 1
        return database, simulations

    def _execute_planned_jobs(self, planned: Sequence[PlannedJob]
                              ) -> Tuple[List[TraceEntry], int]:
        """Run the planned jobs through :meth:`SimulationCache.run_jobs`;
        returns their entries in plan order and how many simulations ran.

        Only this session's config and mode at full detail qualify: a
        foreign-config job would silently produce results for the wrong
        hierarchy, and the database needs entries, not bare results.
        """
        for job in planned:
            if ((job.config_name, job.mode, job.detail)
                    != (self.config.name, self.mode, "full")):
                raise ValueError(
                    f"planned job {job!r} targets config/mode/detail "
                    f"({job.config_name!r}, {job.mode!r}, {job.detail!r}); "
                    f"this session runs ({self.config.name!r}, "
                    f"{self.mode!r}, 'full')")
        values, tally = self.simulation_cache.run_jobs(
            planned, {self.config.name: self.config}, jobs=self.jobs)
        return [values[job.key] for job in planned], tally["simulations_run"]

    def simulate(self, workload: str, policy: str) -> SimulationResult:
        """One memoised full-detail simulation run (shares the session's
        cache)."""
        job = PlannedJob(workload=workload, policy=policy,
                         num_accesses=self.num_accesses, seed=self.seed,
                         config_name=self.config.name, mode=self.mode)
        entries, _simulations = self._execute_planned_jobs([job])
        return entries[0].result

    # ------------------------------------------------------------------
    # retriever routing
    # ------------------------------------------------------------------
    @staticmethod
    def route(intent: QueryIntent) -> str:
        """Retriever name for a parsed intent (the dual-retrieval split)."""
        if intent.question_type in RANGER_TYPES:
            return "ranger"
        if intent.question_type in SIEVE_TYPES:
            return "sieve"
        return "embedding"

    def retriever(self, name_or_instance: Union[str, Retriever]) -> Retriever:
        """A per-session retriever instance, constructed on first use."""
        if isinstance(name_or_instance, Retriever):
            return name_or_instance
        # Resolve aliases before the cache lookup so 'baseline' after
        # 'embedding' reuses the (expensively indexed) same instance.
        name = resolve_retriever_name(name_or_instance)
        if name not in self._retrievers:
            # Ranger's code generation is driven by the session backend so
            # cross-backend benchmarks exercise per-backend codegen skill.
            kwargs = {"code_llm": self.backend} if name == "ranger" else {}
            self._retrievers[name] = get_retriever(name, self.database, **kwargs)
        return self._retrievers[name]

    # ------------------------------------------------------------------
    # asking questions: request -> plan -> execute -> response
    # ------------------------------------------------------------------
    def plan(self, request_or_question: Union[str, AskRequest]) -> QueryPlan:
        """Plan one request without executing anything (pure description)."""
        return self.planner.plan(request_or_question)

    def ask(self, question: str,
            retriever: Union[str, Retriever, None] = None) -> Answer:
        """Answer one natural-language question with provenance.

        Thin wrapper over the plan/execute path (:meth:`ask_request`); the
        returned :class:`Answer` is byte-identical to what the serving
        layers produce for the same question.
        """
        return self.ask_request(
            AskRequest(question=question, retriever=retriever)).answer

    def ask_many(self, questions: Iterable[str],
                 retriever: Union[str, Retriever, None] = None) -> List[Answer]:
        """Answer a batch of questions over one shared database build."""
        requests = [as_request(question, retriever=retriever)
                    for question in questions]
        return [response.answer
                for response in self.ask_request_many(requests)]

    def ask_request(self,
                    request: Union[str, AskRequest]) -> AskResponse:
        """Plan and execute one request; returns the full response envelope
        (answer + route + job/dedup counts + per-stage timings)."""
        return self.ask_request_many([as_request(request)])[0]

    def ask_request_many(self, requests: Sequence[Union[str, AskRequest]]
                         ) -> List[AskResponse]:
        """The batched serving path: plan everything, merge duplicate
        simulation jobs, execute once, then generate every answer."""
        plans: List[QueryPlan] = []
        plan_seconds: List[float] = []
        for request in requests:
            started = time.perf_counter()
            plans.append(self.planner.plan(as_request(request)))
            plan_seconds.append(time.perf_counter() - started)
        return self.execute_many(plans, plan_seconds=plan_seconds)

    def execute(self, plan: QueryPlan) -> AskResponse:
        """Execute one previously built plan."""
        return self.execute_many([plan])[0]

    def execute_many(self, plans: Sequence[QueryPlan],
                     plan_seconds: Optional[Sequence[float]] = None
                     ) -> List[AskResponse]:
        """Execute a batch of plans over one shared simulation pass.

        The batch's job sets are merged first
        (:meth:`QueryPlanner.merge_jobs`), so duplicate ``(workload,
        policy, config, detail)`` jobs simulate exactly once regardless of
        how many plans name them; the merged set runs through
        :meth:`SimulationCache.run_jobs` (memoiser, store, batch and
        parallel dispatch) before any answer is generated.  Each response's
        ``simulations_run`` counts the simulations this batch ran, not other
        threads' traffic on the shared cache.  Answers are then produced
        sequentially in plan order (conversation memory is
        order-sensitive).
        """
        merged = self.planner.merge_jobs(plans)
        simulate_started = time.perf_counter()
        simulations = 0
        if plans:
            if (self._database is None
                    and {job.key for job in merged}
                    >= {job.key for job in self.planner.matrix_jobs()}):
                # The common case: the merged batch covers the session
                # matrix, so executing it IS the database build.
                self._database, simulations = self._database_from_jobs(merged)
            else:
                # A warm session, or hand-built plans with a narrower job
                # set: the batch's jobs are still honoured (planner-emitted
                # jobs on a warm session are memoiser hits, while an
                # unexecuted job runs and a foreign-config job raises), then
                # a cold database is completed from the matrix (jobs just
                # executed are hits, never re-simulated).
                simulations = self._execute_planned_jobs(merged)[1]
                if self._database is None:
                    self._database, built = self._database_from_jobs(
                        self.planner.matrix_jobs())
                    simulations += built
        simulate_seconds = time.perf_counter() - simulate_started
        duplicates = sum(len(plan.jobs) for plan in plans) - len(merged)
        # The simulation pass is shared by the whole batch: each response
        # carries its amortised share as "simulate" (so per-request totals
        # sum to the wall time and latency percentiles stay honest) and the
        # full batch cost as "batch_simulate".
        simulate_share = simulate_seconds / len(plans) if plans else 0.0
        responses = []
        for index, plan in enumerate(plans):
            planned_seconds = (plan_seconds[index]
                               if plan_seconds is not None else 0.0)
            responses.append(self._respond(
                plan, plan_seconds=planned_seconds,
                simulate_seconds=simulate_share,
                batch_simulate_seconds=simulate_seconds,
                batch_unique_jobs=len(merged),
                batch_duplicate_jobs=duplicates,
                simulations_run=simulations))
        return responses

    def _respond(self, plan: QueryPlan, *, plan_seconds: float,
                 simulate_seconds: float, batch_simulate_seconds: float,
                 batch_unique_jobs: int, batch_duplicate_jobs: int,
                 simulations_run: int) -> AskResponse:
        """Retrieve + generate for one executed plan (the legacy ``ask``
        body, emitting the response envelope)."""
        generate_started = time.perf_counter()
        selected = self.retriever(plan.retriever_instance
                                  if plan.retriever_instance is not None
                                  else plan.route)
        context = selected.retrieve(plan.intent)
        retrieve_seconds = time.perf_counter() - generate_started
        question = plan.request.question
        memory_block = (self.memory.context_block(question)
                        if len(self.memory) else "")
        answer = self.generator.generate(plan.intent, context,
                                         memory_block=memory_block)
        self.memory.add_turn("user", question)
        self.memory.add_turn("assistant", answer.text,
                             metadata={"category": answer.category})
        self.history.append(answer)
        if len(self.history) > self.MAX_HISTORY:
            del self.history[: len(self.history) - self.MAX_HISTORY]
        generate_seconds = (time.perf_counter() - generate_started
                            - retrieve_seconds)
        return AskResponse(
            answer=answer,
            request_id=plan.request.request_id,
            route=plan.route,
            question_type=plan.intent.question_type,
            intent=plan.intent.describe(),
            planned_jobs=len(plan.jobs),
            batch_unique_jobs=batch_unique_jobs,
            batch_duplicate_jobs=batch_duplicate_jobs,
            simulations_run=simulations_run,
            timings={
                "plan": plan_seconds,
                "simulate": simulate_seconds,
                "batch_simulate": batch_simulate_seconds,
                "retrieve": retrieve_seconds,
                "generate": generate_seconds,
                "total": (plan_seconds + simulate_seconds + retrieve_seconds
                          + generate_seconds),
            })

    # ------------------------------------------------------------------
    # experiments: declarative sweep grids over many configurations
    # ------------------------------------------------------------------
    def experiment_spec(self, **overrides) -> ExperimentSpec:
        """An :class:`ExperimentSpec` defaulting every axis from this
        session (workloads, policies, config, mode, trace length, seed);
        keyword overrides replace whole axes.

            >>> spec = session.experiment_spec(
            ...     configs=[session.config, "tiny"], seeds=[0, 1])
        """
        options: Dict[str, object] = dict(
            workloads=self.workloads, policies=self.policies,
            configs=(self.config,), mode=self.mode,
            num_accesses=(self.num_accesses,), seeds=(self.seed,))
        options.update(overrides)
        return ExperimentSpec(**options)

    def run_experiment(self, spec: Union[ExperimentSpec, Dict],
                       progress: Optional[ProgressCallback] = None
                       ) -> ExperimentResult:
        """Execute one declarative sweep grid through this session's cache.

        This lifts the one-config-per-session restriction: cells targeting
        configurations other than ``self.config`` route through the
        simulation memoiser (and its store, when attached) rather than the
        session database, so a multi-config grid never trips the
        foreign-config guard of the ask path.  Full-detail cells land in
        the same memoised entries a database build would use — a later
        ``ask`` over overlapping (workload, policy) pairs re-simulates
        nothing, and vice versa.  ``spec`` may be an
        :class:`ExperimentSpec` or its ``to_dict`` payload (the wire form).
        """
        spec = as_experiment_spec(spec)
        runner = ExperimentRunner(simulation_cache=self.simulation_cache,
                                  jobs=self.jobs)
        result = runner.run(spec, progress=progress)
        with self._experiment_state_lock:
            # The planner's merge counter doubles as the dedup probe for
            # experiments, exactly as it does for batched ask plans.
            self.planner.last_merged_job_count = result.counters[
                "unique_jobs"]
            self._experiment_configs.update(spec.config_map)
            self.experiments_run += 1
        return result

    # ------------------------------------------------------------------
    # batch analytics
    # ------------------------------------------------------------------
    def compare_policies(self, workload: Optional[str] = None,
                         policies: Optional[Sequence[str]] = None,
                         metric: str = "miss_rate"
                         ) -> Dict[str, Dict[str, float]]:
        """Per-workload ``{policy: metric}`` table.

        ``metric`` is one of ``miss_rate``, ``hit_rate`` or ``ipc``.  A
        narrowed comparison (one workload and/or a policy subset) on a cold
        session routes through the experiment executor and simulates only
        the selected cells — it no longer forces a full database build;
        the full-matrix call (and any call on a warm session) reads the
        session database as before.  Values are identical either way: both
        paths read the same memoised entries.
        """
        if metric not in ("miss_rate", "hit_rate", "ipc"):
            raise ValueError("metric must be 'miss_rate', 'hit_rate' or 'ipc'")
        selected_workloads = ([workload] if workload is not None
                              else list(self.workloads))
        selected_policies = list(policies) if policies is not None else list(
            self.policies)
        unknown = sorted(
            {name for name in selected_workloads
             if name not in self.workloads}
            | {name for name in selected_policies
               if name not in self.policies})
        if unknown:
            raise UnknownNameError(
                f"compare_policies covers this session's matrix only; "
                f"unknown: {', '.join(unknown)} (workloads: "
                f"{', '.join(self.workloads)}; policies: "
                f"{', '.join(self.policies)})")
        full_matrix = (set(selected_workloads) == set(self.workloads)
                       and set(selected_policies) == set(self.policies))
        if self._database is None and not full_matrix:
            result = self.run_experiment(self.experiment_spec(
                workloads=tuple(selected_workloads),
                policies=tuple(selected_policies), metrics=(metric,)))
            return {
                workload_name: {
                    policy_name: result.value(metric,
                                              workload=workload_name,
                                              policy=policy_name)
                    for policy_name in selected_policies}
                for workload_name in selected_workloads}
        database = self.database
        table: Dict[str, Dict[str, float]] = {}
        for workload_name in selected_workloads:
            row: Dict[str, float] = {}
            for policy_name in selected_policies:
                entry = database.get(workload_name, policy_name)
                if metric == "ipc":
                    row[policy_name] = entry.result.ipc
                elif metric == "hit_rate":
                    row[policy_name] = entry.statistics.hit_rate
                else:
                    row[policy_name] = entry.statistics.miss_rate
            table[workload_name] = row
        return table

    def best_policy(self, workload: str,
                    metric: str = "miss_rate") -> Tuple[str, float]:
        """The winning policy for one workload (lowest miss rate / highest
        hit rate or IPC)."""
        row = self.compare_policies(workload=workload, metric=metric)[workload]
        chooser = min if metric in LOWER_IS_BETTER_METRICS else max
        name = chooser(row, key=row.get)
        return name, row[name]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"CacheMind session: {len(self.workloads)} workloads x "
            f"{len(self.policies)} policies, backend {self.backend.name}, "
            f"config '{self.config.name}', {self.num_accesses} accesses",
        ]
        store = self.simulation_cache.store
        if store is not None:
            cache_stats = self.simulation_cache.stats()
            lines.append(f"trace store: {len(store)} records at "
                         f"'{store.root}' ({cache_stats['store_hits']} warm "
                         f"loads this process)")
        with self._experiment_state_lock:
            experiments_run = self.experiments_run
            seen = sorted(set(self._experiment_configs) | {self.config.name})
        if experiments_run:
            lines.append(f"experiments: {experiments_run} run; "
                         f"configs seen: {', '.join(seen)}")
        if self._database is not None:
            lines.append(self._database.describe())
        else:
            lines.append("trace database: not built yet (built lazily on "
                         "first ask)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"CacheMind(workloads={list(self.workloads)!r}, "
                f"policies={list(self.policies)!r}, "
                f"backend={self.backend.name!r})")
