"""Thread-safe serving facade over one shared CacheMind session.

See the :mod:`repro.serve` package docstring for where this sits in the
serving stack.  The service guarantees:

* **Safety** — concurrent ``ask``/``ask_batch`` calls from any number of
  threads never corrupt the session (conversation memory, answer history
  and lazy retriever construction are serialised under one ``RLock``).
* **Equivalence** — answers are byte-identical to calling
  :meth:`CacheMind.ask` directly: the service adds no processing of its
  own, only locking, request ids and telemetry.
* **Observability** — :meth:`stats` reports request counters, QPS, latency
  percentiles and the simulation-cache deltas since the service started.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.answer import AskResponse
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    as_experiment_spec,
)
from repro.core.pipeline import CacheMind
from repro.core.plan import AskRequest, as_request
from repro.errors import DeadlineExceededError


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class CacheMindService:
    """One shared :class:`CacheMind` session behind a concurrent ask API.

    Construct it around an existing session (``CacheMindService(session)``)
    or let it build one from session keyword arguments
    (``CacheMindService(workloads=[...], policies=[...])``).

        >>> service = CacheMindService(workloads=["astar"],
        ...                            policies=["lru", "belady"])
        >>> response = service.ask("What is the miss rate of lru on astar?")
        >>> response.answer.grounded
        True

    ``ask``/``ask_batch`` are safe from any thread; ``ask_async`` /
    ``ask_batch_async`` adapt them to ``asyncio`` via a private thread
    pool, so ``asyncio.gather(*[service.ask_async(q) for q in qs])`` works.
    """

    def __init__(self, session: Optional[CacheMind] = None,
                 latency_window: int = 2048,
                 executor_workers: int = 8,
                 **session_kwargs: Any):
        if session is not None and session_kwargs:
            raise ValueError("pass either a session or session kwargs, "
                             "not both")
        self.session = session if session is not None else CacheMind(
            **session_kwargs)
        # RLock: the serving path is one critical section, but request
        # handlers (the JSON server) may re-enter for stats.
        self._lock = threading.RLock()
        # The executor has its own tiny lock: ask_async resolves it on the
        # event-loop thread, which must never wait on the serving lock (a
        # long in-flight request would freeze the whole loop).  Creation is
        # cheap — worker threads only spawn on first submit.
        self._executor_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=max(1, int(executor_workers)),
            thread_name_prefix="cachemind-serve")
        self._latencies: "deque[float]" = deque(maxlen=max(16, latency_window))
        self._started = time.monotonic()
        self._requests = 0
        self._batches = 0
        self._errors = 0
        self._next_request_id = 0
        self._cache_stats_at_start = dict(self.session.simulation_cache.stats())
        # Experiment telemetry has its own lock so a long-running sweep —
        # which deliberately does NOT hold the serving lock — stays visible
        # through `stats` while it runs.  Each in-flight sweep owns a
        # per-run [done, total] slot (concurrent sweeps are allowed and
        # must not overwrite each other's progress); `stats` aggregates
        # the active slots and falls back to the last completed run.
        self._experiment_lock = threading.Lock()
        self._experiment_run_counter = 0
        self._experiment_active: Dict[int, List[int]] = {}
        self._experiments: Dict[str, Any] = {
            "runs": 0, "errors": 0,
            "cells_done": 0, "cells_total": 0, "last": None,
        }

    # ------------------------------------------------------------------
    # synchronous serving API
    # ------------------------------------------------------------------
    def ask(self, request: Union[str, AskRequest],
            retriever: Optional[str] = None) -> AskResponse:
        """Serve one request (thread-safe); returns the response envelope."""
        return self.ask_batch([as_request(request, retriever=retriever)])[0]

    def ask_batch(self, requests: Sequence[Union[str, AskRequest]],
                  retriever: Optional[str] = None,
                  deadline_at: Optional[float] = None) -> List[AskResponse]:
        """Serve a batch over one merged execution (thread-safe).

        Duplicate simulation jobs across the batch are merged by the
        planner and simulated once; per-request latency lands in the
        service's sliding window for the percentile stats.

        ``deadline_at`` (a ``time.monotonic()`` instant) bounds how long
        the batch may wait behind other in-flight batches for the serving
        lock: once the deadline passes while queued,
        :class:`~repro.errors.DeadlineExceededError` is raised instead of
        executing arbitrarily late.
        """
        coerced = [as_request(request, retriever=retriever)
                   for request in requests]
        started = time.perf_counter()
        if deadline_at is None:
            self._lock.acquire()
        else:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0 or not self._lock.acquire(timeout=remaining):
                raise DeadlineExceededError(
                    f"request deadline expired after waiting "
                    f"{time.perf_counter() - started:.3f}s for the serving "
                    f"lock")
        try:
            for request in coerced:
                if not request.request_id:
                    self._next_request_id += 1
                    request.request_id = f"req-{self._next_request_id}"
            try:
                responses = self.session.ask_request_many(coerced)
            except Exception:
                self._errors += 1
                raise
            elapsed = time.perf_counter() - started
            self._requests += len(coerced)
            self._batches += 1
            # Per-request latency inside a batch is dominated by the shared
            # execution, so attribute each request its own total timing
            # (plan + its share of simulate + retrieve + generate).
            for response in responses:
                self._latencies.append(
                    response.timings.get("total", elapsed))
        finally:
            self._lock.release()
        return responses

    # ------------------------------------------------------------------
    # experiments
    # ------------------------------------------------------------------
    def run_experiment(self, spec: Union[ExperimentSpec, Dict[str, Any]]
                       ) -> ExperimentResult:
        """Run one declarative sweep grid through the shared session.

        Deliberately runs *outside* the main serving lock: the experiment
        executor only touches the thread-safe simulation cache (asks keep
        serving concurrently, sharing any warm cells), and holding the lock
        for a long sweep would freeze ``stats`` — which is exactly where
        the sweep's progress (``experiments.cells_done/cells_total``) is
        reported while it runs.  ``spec`` may be an
        :class:`ExperimentSpec` or its ``to_dict`` payload (the wire form).
        """
        spec = as_experiment_spec(spec)
        started = time.perf_counter()
        with self._experiment_lock:
            self._experiment_run_counter += 1
            run_id = self._experiment_run_counter
            # The runner announces the real total via progress(0, total)
            # before executing its first cell — compiling the grid here
            # just to pre-read the size would flatten every cell twice.
            self._experiment_active[run_id] = [0, 0]

        def report_progress(done: int, total: int) -> None:
            with self._experiment_lock:
                self._experiment_active[run_id] = [done, total]

        try:
            result = self.session.run_experiment(spec,
                                                 progress=report_progress)
        except Exception:
            with self._experiment_lock:
                self._experiments["errors"] += 1
                self._experiment_active.pop(run_id, None)
            raise
        with self._experiment_lock:
            done, total = self._experiment_active.pop(run_id, (0, 0))
            self._experiments["runs"] += 1
            self._experiments["cells_done"] = done
            self._experiments["cells_total"] = total
            self._experiments["last"] = {
                "fingerprint": result.fingerprint,
                "cells": len(result),
                "counters": dict(result.counters),
                "seconds": time.perf_counter() - started,
            }
        return result

    def query_experiment(self, fingerprint: str,
                         query: Union[Dict[str, Any], "object"]):
        """Run a declarative analytics query against a store-backed
        experiment result.

        ``fingerprint`` may be a unique prefix of a stored experiment's
        fingerprint; ``query`` is a :class:`repro.analytics.Query` or its
        wire form, executed against the experiment's cell table.  Returns
        ``(full_fingerprint, table)``.
        Like :meth:`run_experiment` this runs outside the serving lock —
        it only reads the (thread-safe) store, so asks keep serving.
        """
        from repro.analytics import as_query

        store = getattr(self.session.simulation_cache, "store", None)
        if store is None:
            raise ValueError(
                "no trace store attached; start the service with a "
                "store_dir to query stored experiments")
        known = store.experiment_fingerprints()
        matches = [item for item in known if item.startswith(fingerprint)]
        if not matches:
            raise ValueError(
                f"no stored experiment matches fingerprint {fingerprint!r}")
        if len(matches) > 1:
            raise ValueError(
                f"fingerprint prefix {fingerprint!r} is ambiguous "
                f"({len(matches)} matches); use more characters")
        result = ExperimentResult.load(store, matches[0])
        if result is None:
            raise ValueError(
                f"stored experiment {matches[0]} failed to load")
        return matches[0], result.query(as_query(query))

    # ------------------------------------------------------------------
    # asyncio front-end
    # ------------------------------------------------------------------
    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                raise RuntimeError("CacheMindService is closed")
            return self._executor

    async def ask_async(self, request: Union[str, AskRequest],
                        retriever: Optional[str] = None) -> AskResponse:
        """``await``-able :meth:`ask`; freely ``asyncio.gather``-able."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool(), lambda: self.ask(request, retriever=retriever))

    async def ask_batch_async(self, requests: Sequence[Union[str, AskRequest]],
                              retriever: Optional[str] = None
                              ) -> List[AskResponse]:
        """``await``-able :meth:`ask_batch`."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool(),
            lambda: self.ask_batch(requests, retriever=retriever))

    # ------------------------------------------------------------------
    # lifecycle and telemetry
    # ------------------------------------------------------------------
    def warm_up(self) -> Dict[str, int]:
        """Force the database build so the first request is not the one
        paying for it; returns the simulation-cache stats afterwards."""
        with self._lock:
            _ = self.session.database
            return self.session.simulation_cache.stats()

    def stats(self) -> Dict[str, Any]:
        """A serving telemetry snapshot (all numbers since construction)."""
        with self._lock:
            uptime = max(time.monotonic() - self._started, 1e-9)
            latencies = list(self._latencies)
            cache_now = self.session.simulation_cache.stats()
            cache_delta = {
                key: cache_now[key] - self._cache_stats_at_start.get(key, 0)
                for key in ("hits", "misses", "store_hits")}
            return {
                "requests": self._requests,
                "batches": self._batches,
                "errors": self._errors,
                "uptime_seconds": uptime,
                "qps": self._requests / uptime,
                "latency_ms": {
                    "count": len(latencies),
                    "mean": (sum(latencies) / len(latencies) * 1000.0
                             if latencies else 0.0),
                    "p50": percentile(latencies, 0.50) * 1000.0,
                    "p95": percentile(latencies, 0.95) * 1000.0,
                    "p99": percentile(latencies, 0.99) * 1000.0,
                    "max": max(latencies) * 1000.0 if latencies else 0.0,
                },
                "simulation_cache": cache_now,
                "simulation_cache_delta": cache_delta,
                "experiments": self._experiment_stats(),
                "database_builds": self.session.database_builds,
                "session": {
                    "workloads": list(self.session.workloads),
                    "policies": list(self.session.policies),
                    "config": self.session.config.name,
                    "mode": self.session.mode,
                    "num_accesses": self.session.num_accesses,
                    "backend": self.session.backend.name,
                },
            }

    def _experiment_stats(self) -> Dict[str, Any]:
        """One consistent snapshot of the experiment telemetry.

        While sweeps are in flight, ``cells_done``/``cells_total``
        aggregate across all of them; idle, they report the last
        completed run.
        """
        with self._experiment_lock:
            snapshot = dict(self._experiments)
            snapshot["in_progress"] = len(self._experiment_active)
            if self._experiment_active:
                slots = list(self._experiment_active.values())
                snapshot["cells_done"] = sum(done for done, _total in slots)
                snapshot["cells_total"] = sum(total for _done, total in slots)
            if snapshot["last"] is not None:
                snapshot["last"] = dict(snapshot["last"])
            return snapshot

    def close(self) -> None:
        """Shut the asyncio thread pool down (idempotent)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "CacheMindService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"CacheMindService(session={self.session!r}, "
                f"requests={self._requests})")
