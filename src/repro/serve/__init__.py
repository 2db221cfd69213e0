"""Serving subsystem: one shared CacheMind session behind a concurrent API.

Architecture
------------

The serving stack is three thin layers over the request/plan/execute core
API (``repro.core.plan``), each adding exactly one capability::

    AskRequest ──► CacheMindService ──► CacheMindServer ──► RemoteClient
                   (thread-safe,         (JSON-lines TCP,     (wire client,
                    metrics, asyncio)     one thread/conn)     repro ask --remote)

* :class:`~repro.serve.service.CacheMindService` wraps **one** shared
  :class:`~repro.core.pipeline.CacheMind` session and makes it safe to call
  from many threads: planning happens outside the session lock (the planner
  is stateless per call), while execution — database build, retrieval,
  generation, conversation memory — is serialised under an ``RLock``.  The
  heavyweight work (simulation) is memoised process-wide and shared across
  requests, so the serialised section is the lightweight generation tail.
  The service also keeps serving telemetry: request/error counters, QPS,
  latency percentiles (p50/p95/p99 over a sliding window) and the
  simulation-cache/store hit deltas since startup.  ``await
  service.ask_async(...)`` adapts the same path to ``asyncio`` (requests
  run on a private thread pool and are freely ``gather``-able).

* :class:`~repro.serve.server.CacheMindServer` exposes the service over a
  stdlib-only **JSON-lines TCP protocol**: one JSON object per line in,
  one JSON object per line out, many requests per connection, one thread
  per connection (``socketserver.ThreadingTCPServer``).  Because every
  handler funnels into the same service, concurrent remote clients get
  the same answers, byte-for-byte, as in-process callers.

* :class:`~repro.serve.client.RemoteClient` is the matching client used by
  ``python -m repro ask --remote HOST:PORT``; it speaks the same protocol
  and rebuilds :class:`~repro.core.answer.AskResponse` objects from the
  wire.

Wire protocol (newline-delimited JSON)::

    → {"op": "ask", "question": "...", "retriever": null, "id": "r1"}
    ← {"ok": true, "result": {"answer": {...}, "timings": {...}, ...}}
    → {"op": "batch", "questions": ["...", "..."]}
    ← {"ok": true, "result": [{...}, {...}]}
    → {"op": "experiment", "spec": {"workloads": [...], "configs": [...]}}
    ← {"ok": true, "result": {"columns": {...}, "counters": {...}, ...}}
    → {"op": "query", "fingerprint": "ab12...", "query": {"table": "cells",
       ...}}
    ← {"ok": true, "result": {"fingerprint": "...", "columns": {...}}}
    → {"op": "stats"}   /   {"op": "ping"}   /   {"op": "health"}
    ← {"ok": true, "result": {...}}

The ``experiment`` op runs a declarative sweep grid
(:class:`~repro.core.experiment.ExperimentSpec` in its ``to_dict`` form)
through the shared session and returns the lossless
:class:`~repro.core.experiment.ExperimentResult` dictionary; progress of a
running sweep is visible in ``stats`` under ``experiments``.

The ``query`` op runs a declarative :class:`repro.analytics.Query` (wire
form) against a **store-backed** experiment's cell table — top-k cells,
grouped aggregates, filtered slices — and returns only the result columns,
so clients analyse big sweeps without shipping whole tables.  The server
ignores request keys it does not read, so a ``backend`` key from older
clients is accepted and changes nothing.

Resilience (see the :mod:`repro.serve.server` docstring for the server
side, :mod:`repro.serve.client` for the client side):

* Errors never kill the connection: a malformed line, unknown op, shed or
  failed request yields ``{"ok": false, "kind": "...", "error": "..."}``
  and the handler keeps reading.  ``kind`` is one of ``bad_request``,
  ``overloaded``, ``shutting_down``, ``deadline``, ``internal``.
* Requests may carry ``deadline_ms``; the server refuses to execute one
  whose deadline already passed (``kind="deadline"``) instead of running
  arbitrarily late, and :class:`RemoteClient` derives ``deadline_ms`` from
  its per-request ``deadline`` budget so both sides give up together.
* The ``health`` op reports degradation state (in-flight load, shed and
  deadline counters, draining flag) and bypasses admission control, so it
  answers precisely when the server is saturated or draining.
* :class:`RemoteClient` retries idempotent requests over transport
  failures and retryable error kinds with seeded, capped exponential
  backoff — a server restart within the retry budget is invisible.
"""

from repro.serve.client import (
    DeadlineExceeded,
    RemoteClient,
    RemoteError,
    ServerOverloadedError,
    ServerShuttingDownError,
    parse_address,
)
from repro.serve.server import CacheMindServer
from repro.serve.service import CacheMindService

__all__ = [
    "CacheMindService",
    "CacheMindServer",
    "RemoteClient",
    "RemoteError",
    "ServerOverloadedError",
    "ServerShuttingDownError",
    "DeadlineExceeded",
    "parse_address",
]
