"""Persistent on-disk store for simulation results.

The in-process :class:`~repro.core.pipeline.SimulationCache` memoises within
one interpreter; :class:`TraceStore` extends that across processes: every
simulated :class:`~repro.sim.engine.SimulationResult` is written to a store
directory as **one** ``result`` record and re-loaded by later sessions, so a
warm start runs **zero** simulations.  A trace-database
:class:`~repro.tracedb.database.TraceEntry` is never stored: it is derived in
memory from its result (whose statistics the replay already computed), and
its table is built on first read.  Besides results, the store keeps
experiment results and ingested traces.

Layout (sharded, schema v5) — one directory per store:

* ``manifest.json`` — ``{"schema": N, "layout": "sharded", ...}``.  Opening
  a store whose manifest declares a different :data:`STORE_SCHEMA_VERSION`
  raises :class:`~repro.errors.StoreVersionError` (never silently mixes
  layouts); ``python -m repro store gc`` opens non-strictly, drops the
  foreign records and re-stamps the manifest.  A store from before the
  sharded layout (schema-1 records at the top level) is one such store:
  it is refused, and ``gc`` deletes its top-level records.
* ``objects/<ab>/<kind>-<digest>.pkl`` — one immutable content-addressed
  record per cached object, sharded by the digest's hex prefix, in the
  pickle-free container of :mod:`repro.tracedb.objstore`: a canonical JSON
  header (``schema``, ``kind``, ``key_repr``, kind extras and the section
  table with every section's size and CRC-32) followed by zlib sections.
  ``digest`` is a SHA-256 prefix of the key's canonical ``repr``; the
  stored ``key_repr`` is verified on load, so a (vanishingly unlikely)
  digest collision degrades to a miss, never a wrong answer.  Objects are
  written atomically (temp file + ``os.replace`` inside the shard) and
  never modified, so concurrent writer processes can share a store
  without locks.

Each kind has one codec, and a record's bytes are a function of its
content alone (not of the process that wrote it, nor of the clock):

* ``result`` — a ``result`` JSON section (workload, policy, config, mode,
  detail, counters, timing, wrong evictions, statistics, and the log's
  per-PC source context) and, at full detail, a ``log`` section with the
  access log's typed columns.  A load checks both sections but
  decompresses only the JSON: the returned log is deferred and decodes its
  columns when something first reads one.  The binary image stays out of
  the record: the log's source context is all a reader needs of it.
* ``experiment`` — the experiment's ``to_dict`` payload as JSON.
* ``trace`` — JSON metadata (workload, description, seed, binary image)
  and a section with the trace's four columns; its manifest metadata rides
  in the header.

A save is that one atomic object write; there is no second structure to
keep in step.  Listings read record headers: the filename names the
kind, so ``trace list`` and ``experiment_fingerprints`` open only the
trace or experiment records, and ``info``/``gc`` judge every record from
its header.  A store written by an older build may still hold an
``index/`` directory: ``gc`` deletes it and every other path ignores it.

Read-only mounts: ``TraceStore(root, read_only=True)`` refuses every
mutation with :class:`~repro.errors.StoreReadOnlyError` (and never
creates directories, stamps manifests or quarantines files), which is how
the serve layer fronts one shared warm corpus from many replicas while a
single writer keeps adding records — atomic object writes make
concurrent reads race-safe, and no read runs code from the shared disk.
Inspection commands (``store info``, ``trace list``/``info``,
``experiment report``, ``simulate --list``) open their store this way, so
they never write into what they inspect.

Keys cover everything that determines a simulation's output — the trace
content fingerprint, hierarchy config, policy and rollout mode/detail (see
:func:`simulation_key`) — mirroring the in-memory memoiser, so the two
layers always agree on identity.

Robustness: the store self-heals.  A corrupt or truncated record file of any
kind — a byte flipped anywhere in it fails the header's or a section's
CRC-32 at load — is **quarantined** (renamed into ``quarantine/`` so it is
never re-read-crashed) and treated as a cache miss — the caller rebuilds
and overwrites — with a :class:`StoreCorruptionWarning` so the degradation
is visible.  A corrupt manifest is quarantined and rebuilt from the
surviving record headers (a *readable* manifest declaring a foreign schema
still raises :class:`~repro.errors.StoreVersionError` — that is a real
version mismatch, not damage).  :meth:`TraceStore.verify` deep-checks every
record (magic, header, every section decoded, filename digest, shard
placement); ``repair=True`` quarantines what is broken and sweeps *stale*
temp files (age-gated: a concurrent writer's fresh ``.tmp`` is never
touched) — exposed as ``python -m repro store verify [--repair]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
import warnings
import zlib
from dataclasses import fields
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StoreReadOnlyError, StoreVersionError
from repro.faults import fault_point
from repro.tracedb.objstore import (
    OBJECTS_DIR,
    TEMP_MAX_AGE_SECONDS,
    ObjectStore,
    Section,
    atomic_write,
    column_layout,
    column_section,
    decode_header,
    encode_record,
    json_section,
    load_json,
    parse_object_name,
    read_sections,
    shard_of,
    unpack_columns,
)
from repro.tracedb.schema import LOG_ARRAYS, AccessLog
from repro.tracedb.stats import WorkloadStatistics
from repro.workloads.symbols import BinaryImage
from repro.workloads.trace import COLUMN_TYPECODES, MemoryTrace

#: Bump when the on-disk record layout changes incompatibly.  2: the
#: pickled :class:`~repro.tracedb.schema.AccessLog` no longer stores the
#: columns it derives on read (recent access history, score blocks) and
#: records its history window, so a version-1 log would unpickle its arrays
#: into the wrong slots.  3: a simulation is one ``result`` record whose
#: result carries its ``statistics`` (entry records are gone), so a
#: version-2 result would unpickle without them.  4: records are
#: pickle-free — a JSON header whose section table sizes and checksums
#: every zlib section (JSON documents or raw typed columns) — so this
#: build cannot read a schema-3 pickled record, and judges one foreign
#: from its magic alone.  5: a result key is (workload, policy, config,
#: mode, detail, length, seed, fingerprint) without the record cap,
#: history window and context flag, and a result's log keeps no history
#: window, so a schema-4 record sits under a digest no lookup computes.
STORE_SCHEMA_VERSION = 5

#: Subdirectory corrupt files are renamed into instead of deleted, so a
#: damaged record can never crash a reader twice and forensics stay
#: possible.  Its contents are invisible to every read path.
QUARANTINE_DIR = "quarantine"

#: Name of the per-store metadata file.
MANIFEST_NAME = "manifest.json"

#: Record kinds persisted by the store.
KIND_RESULT = "result"
KIND_EXPERIMENT = "experiment"
KIND_TRACE = "trace"
KINDS = (KIND_RESULT, KIND_EXPERIMENT, KIND_TRACE)

#: Kinds a rebuild recreates (a re-simulation, an experiment re-run), so
#: ``gc --max-records`` may prune them.  An ingested trace is an input that
#: nothing can recreate, so the record budget never counts or prunes it.
PRUNABLE_KINDS = (KIND_RESULT, KIND_EXPERIMENT)


class StoreCorruptionWarning(UserWarning):
    """A store record could not be read and will be rebuilt."""


def simulation_key(spec, trace) -> tuple:
    """Canonical identity of one simulation run: a
    :class:`~repro.sim.batch.RolloutSpec` over ``trace``.

    ``trace.fingerprint()`` keys by content, so a hand-built trace sharing
    (workload, length, seed) metadata with a generated one cannot collide.
    The same tuple keys the in-memory
    :class:`~repro.core.pipeline.SimulationCache` and the on-disk store;
    its fields and their order fix every stored record's digest.
    """
    return (trace.workload, spec.policy, spec.config, spec.mode,
            spec.detail, len(trace), trace.seed, trace.fingerprint())


def key_digest(key: tuple) -> str:
    """Stable filename-safe digest of a cache key.

    Keys contain only strings, ints, ``None`` and frozen config dataclasses,
    all of which ``repr`` deterministically.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]


def _experiment_key_from_repr(key_repr: str) -> tuple:
    """Recover an experiment record's ``(fingerprint,)`` key from the header.

    Experiment keys are one-string tuples whose fingerprint is a hex digest,
    so ``ast.literal_eval`` on the stored canonical repr is safe and exact.
    """
    import ast

    key = ast.literal_eval(key_repr)
    if (not isinstance(key, tuple) or len(key) != 1
            or not isinstance(key[0], str)):
        raise ValueError(f"malformed experiment key repr {key_repr!r}")
    return key


# ----------------------------------------------------------------------
# record codecs, one per kind
# ----------------------------------------------------------------------
#: Names of a stored trace's columns (typecodes: ``COLUMN_TYPECODES``).
TRACE_COLUMNS = ("pc", "address", "flags", "instructions_since_last")


def _fields(value) -> Dict[str, Any]:
    """A dataclass instance's fields, by name, in declaration order."""
    return {field.name: getattr(value, field.name) for field in fields(value)}


def _encode_result(result) -> List[Section]:
    """A result's ``result`` JSON section and, at full detail, its ``log``
    column section."""
    log = result.log
    timing = _fields(result.timing)
    # Level order is meaningful and JSON objects are key-sorted: pairs.
    for name in ("stalls_by_level", "accesses_by_level"):
        timing[name] = list(timing[name].items())
    document = {
        "workload": result.workload,
        "policy_name": result.policy_name,
        "policy_description": result.policy_description,
        "config": result.config.to_dict(),
        "mode": result.mode,
        "detail": result.detail,
        "llc_stats": _fields(result.llc_stats),
        "level_stats": [[level, _fields(stats)]
                        for level, stats in result.level_stats.items()],
        "timing": timing,
        "wrong_evictions": result.wrong_evictions,
        "statistics": (None if result.statistics is None
                       else _fields(result.statistics)),
        "log": None if log is None else {
            "context": [[pc, *texts]
                        for pc, texts in log.pc_context().items()],
        },
    }
    sections = [json_section(KIND_RESULT, document)]
    if log is not None:
        columns = [(name, getattr(log, name)) for name in LOG_ARRAYS]
        sections.append(column_section("log", [
            (name, column.typecode, column) for name, column in columns]))
    return sections


def _decode_result(header: Dict[str, Any], sections: Dict[str, bytes]):
    """Rebuild a result: its JSON now, its log deferred until read."""
    # Lazy: repro.sim imports this package while it initialises.
    from repro.sim.cache import CacheStats
    from repro.sim.config import HierarchyConfig
    from repro.sim.cpu import TimingResult
    from repro.sim.engine import SimulationResult

    document = load_json(sections[KIND_RESULT])
    timing = dict(document["timing"])
    for name in ("stalls_by_level", "accesses_by_level"):
        timing[name] = dict(timing[name])
    meta = document["log"]
    log = None
    if meta is not None:
        layout = column_layout(header, "log")
        if [column[0] for column in layout] != list(LOG_ARRAYS):
            raise ValueError("log section does not hold the log's columns")
        blob = sections["log"]
        log = AccessLog.deferred(
            rows=layout[0][2],
            context={pc: (name, code, assembly)
                     for pc, name, code, assembly in meta["context"]},
            decode=lambda: unpack_columns(blob, layout))
    statistics = document["statistics"]
    return SimulationResult(
        workload=document["workload"],
        policy_name=document["policy_name"],
        policy_description=document["policy_description"],
        config=HierarchyConfig.from_dict(document["config"]),
        mode=document["mode"],
        detail=document["detail"],
        log=log,
        llc_stats=CacheStats(**document["llc_stats"]),
        level_stats={level: CacheStats(**stats)
                     for level, stats in document["level_stats"]},
        timing=TimingResult(**timing),
        wrong_evictions=document["wrong_evictions"],
        statistics=(None if statistics is None
                    else WorkloadStatistics(**statistics)))


def _encode_experiment(payload: Dict[str, Any]) -> List[Section]:
    return [json_section(KIND_EXPERIMENT, payload)]


def _decode_experiment(header: Dict[str, Any],
                       sections: Dict[str, bytes]) -> Dict[str, Any]:
    payload = load_json(sections[KIND_EXPERIMENT])
    if not isinstance(payload, dict):
        raise ValueError("experiment payload is not a JSON object")
    return payload


def _encode_trace(trace: MemoryTrace) -> List[Section]:
    binary = trace.binary
    return [json_section(KIND_TRACE, {
                "workload": trace.workload,
                "description": trace.description,
                "seed": trace.seed,
                "binary": None if binary is None else binary.to_dict()}),
            column_section("columns", list(zip(
                TRACE_COLUMNS, COLUMN_TYPECODES, trace.columns())))]


def _decode_trace(header: Dict[str, Any],
                  sections: Dict[str, bytes]) -> MemoryTrace:
    document = load_json(sections[KIND_TRACE])
    columns = unpack_columns(sections["columns"],
                             column_layout(header, "columns"))
    binary = document["binary"]
    return MemoryTrace(
        document["workload"],
        binary=None if binary is None else BinaryImage.from_dict(binary),
        description=document["description"], seed=document["seed"],
        columns=tuple(columns[name] for name in TRACE_COLUMNS))


#: ``kind -> (encode(payload) -> sections, decode(header, sections))``.
_CODECS: Dict[str, Tuple[Callable, Callable]] = {
    KIND_RESULT: (_encode_result, _decode_result),
    KIND_EXPERIMENT: (_encode_experiment, _decode_experiment),
    KIND_TRACE: (_encode_trace, _decode_trace),
}


class TraceStore:
    """Versioned on-disk cache of simulation results, experiment results
    and ingested traces: one record per simulation, one per experiment,
    one per trace.

    ``schema_version`` is :data:`STORE_SCHEMA_VERSION`, the one schema
    this build reads and writes.  ``strict=False`` skips the manifest
    schema check instead of raising :class:`StoreVersionError` — used by
    maintenance commands (``gc``, ``verify``) that must be able to open a
    foreign-version store, including one from before the sharded layout,
    to report on it or clean it up.
    ``read_only=True`` mounts the store without write access: every
    mutating method raises :class:`~repro.errors.StoreReadOnlyError`,
    nothing on disk is created, stamped or quarantined, and reads stay
    race-safe against a concurrent writer process.
    """

    def __init__(self, root: str, strict: bool = True,
                 read_only: bool = False):
        self.root = os.fspath(root)
        self.schema_version = STORE_SCHEMA_VERSION
        self.read_only = read_only
        self.saves = 0
        self.loads = 0
        self.load_misses = 0
        if read_only:
            if not os.path.isdir(self.root):
                raise FileNotFoundError(
                    f"no trace store at {self.root!r} (read-only mounts "
                    f"never create directories)")
        else:
            os.makedirs(self.root, exist_ok=True)
        self._objects = ObjectStore(self.root, read_only=read_only)
        self._open_manifest(strict)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def record_opens(self) -> int:
        """Record files opened so far (header or payload) by this handle.

        A listing of one kind opens only that kind's records — tests
        assert on it.
        """
        return self._objects.record_opens

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _write_manifest(self) -> None:
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        atomic_write(self._manifest_path(), json.dumps({
            "schema": self.schema_version,
            "layout": "sharded",
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }, indent=2).encode("utf-8"))

    def _read_manifest(self) -> Tuple[str, Any]:
        """Classify the manifest: ``(state, schema_or_error)`` with state
        one of ``"ok"``/``"corrupt"``/``"missing"``."""
        path = self._manifest_path()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return ("missing", None)
        except (OSError, ValueError) as error:
            return ("corrupt", error)
        if not isinstance(manifest, dict):
            return ("corrupt",
                    ValueError(f"manifest is {type(manifest).__name__}, "
                               f"not an object"))
        return ("ok", manifest.get("schema"))

    def _open_manifest(self, strict: bool) -> None:
        state, detail = self._read_manifest()
        if state == "ok" and strict and detail != self.schema_version:
            raise StoreVersionError(
                f"trace store at {self.root!r} was written with schema "
                f"version {detail!r}; this build reads version "
                f"{self.schema_version}. Run `python -m repro store gc "
                f"--dir {self.root}` (or delete the directory) to "
                f"rebuild.")
        if state == "missing":
            if not self.read_only:
                self._write_manifest()
            return
        if state == "corrupt":
            if self.read_only:
                warnings.warn(
                    f"trace store manifest at {self.root!r} is corrupt "
                    f"({detail!r}); read-only mount cannot heal it — "
                    f"continuing with schema {self.schema_version}",
                    StoreCorruptionWarning, stacklevel=3)
            elif strict:
                self._rebuild_manifest(detail)

    def _rebuild_manifest(self, error: Any) -> None:
        """Self-heal an unreadable/corrupt manifest from the record headers.

        Safe only when every readable record in the sharded tree declares
        the current schema (an empty store trivially qualifies); a store
        full of foreign records is a genuine version mismatch and still
        refuses to open.  Records at the top level are never read: only a
        build from before the sharded layout wrote there, and ``gc``
        deletes them.
        """
        survivors = 0
        foreign = set()
        for _name, header in self._headers():
            if header is None:
                continue
            survivors += 1
            if header.get("schema") != self.schema_version:
                foreign.add(header.get("schema"))
        if foreign:
            raise StoreVersionError(
                f"trace store manifest {self._manifest_path()!r} is corrupt "
                f"({error}) and surviving records declare schema version(s) "
                f"{sorted(map(repr, foreign))}; run `python -m repro store "
                f"gc --dir {self.root}` (or delete the directory) to "
                f"rebuild.")
        self._quarantine(MANIFEST_NAME)
        self._write_manifest()
        warnings.warn(
            f"trace store manifest at {self.root!r} was corrupt ({error!r}); "
            f"quarantined it and rebuilt from {survivors} surviving record "
            f"header(s)",
            StoreCorruptionWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # record IO
    # ------------------------------------------------------------------
    def _record_name(self, kind: str, key: tuple) -> str:
        return f"{kind}-{key_digest(key)}.pkl"

    #: Failures decoding a record's *content*: the file on disk is damaged
    #: (torn write, bit rot) or malformed, so the reader quarantines it.
    #: Transient I/O failures (``OSError``) are deliberately excluded — a
    #: healthy file must never be quarantined because one read syscall
    #: failed.
    _CONTENT_ERRORS = (IndexError, KeyError, TypeError, ValueError,
                       struct.error, zlib.error)

    #: Exceptions that mean "this record is unreadable" rather than a bug.
    _DECODE_ERRORS = (OSError,) + _CONTENT_ERRORS

    def save(self, kind: str, key: tuple, payload: Any,
             extra_header: Optional[Dict[str, Any]] = None) -> str:
        """Persist one record atomically; returns the path written.

        ``payload`` is encoded by its kind's codec: a
        :class:`~repro.sim.engine.SimulationResult` for ``result``, a JSON
        object for ``experiment``, a
        :class:`~repro.workloads.trace.MemoryTrace` for ``trace``.  Its
        zlib sections (the columnar logs are highly repetitive, so this
        shrinks the store several-fold) follow a small uncompressed
        header, so ``info``/``gc`` never decompress a section.
        ``extra_header`` keys ride in that header — used by trace records
        to expose their manifest metadata without decompressing the trace
        itself.
        """
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only; "
                f"refusing to write {kind} record")
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        header = {
            "schema": self.schema_version,
            "kind": kind,
            "key_repr": repr(key),
        }
        if extra_header:
            for reserved in ("schema", "kind", "key_repr", "sections"):
                if reserved in extra_header:
                    raise ValueError(
                        f"extra_header may not override {reserved!r}")
            header.update(extra_header)
        name = self._record_name(kind, key)
        # The fault point sits here (not in write_object) so chaos plans
        # count record writes, not manifest re-stamps, and a "truncate"
        # rule models a torn write of this record's bytes.
        data = fault_point("store.write", encode_record(
            header, _CODECS[kind][0](payload)))
        path = self._objects.write_object(name, data)
        self.saves += 1
        return path

    def load(self, kind: str, key: tuple) -> Optional[Any]:
        """Load one record, or ``None`` (with a warning if it was corrupt).

        Any failure mode — missing file, a section failing its size or
        CRC-32, a malformed document, foreign schema, digest collision —
        degrades to a miss so callers simply rebuild.  Every section is
        checked before the payload is returned, but only what the payload
        needs now is decompressed: a result's log decodes on first read.
        The object path is a pure function of the key, so a load opens
        exactly one file.  Damaged files are quarantined so they can never
        crash a second read (except on read-only mounts, which may not
        mutate anything); transient I/O failures leave the file in place.
        """
        name = self._record_name(kind, key)
        path = self._objects.object_path(name)
        try:
            fault_point("store.read")
            with self._objects.open_object(name) as handle:
                header = decode_header(handle)
                mismatched = (header.get("schema") != self.schema_version
                              or header.get("kind") != kind
                              or header.get("key_repr") != repr(key))
                payload = (None if mismatched else _CODECS[kind][1](
                    header, read_sections(handle, header)))
        except FileNotFoundError:
            self.load_misses += 1
            return None
        except self._CONTENT_ERRORS as error:
            quarantined = (None if self.read_only
                           else self._quarantine(name))
            warnings.warn(
                f"trace store record {path!r} is corrupt ({error!r}); "
                + (f"quarantined at {quarantined!r} and "
                   if quarantined else "")
                + "treating as a miss and rebuilding",
                StoreCorruptionWarning, stacklevel=2)
            self.load_misses += 1
            return None
        except OSError as error:
            warnings.warn(
                f"trace store record {path!r} is unreadable ({error!r}); "
                f"treating as a miss and rebuilding",
                StoreCorruptionWarning, stacklevel=2)
            self.load_misses += 1
            return None
        if mismatched:
            warnings.warn(
                f"trace store record {path!r} does not match its key/schema; "
                f"treating as a miss and rebuilding",
                StoreCorruptionWarning, stacklevel=2)
            self.load_misses += 1
            return None
        self.loads += 1
        return payload

    # ------------------------------------------------------------------
    # typed wrappers
    # ------------------------------------------------------------------
    def save_result(self, key: tuple, result) -> str:
        return self.save(KIND_RESULT, key, result)

    # Trace records are keyed by the content fingerprint alone (the
    # fingerprint hashes the workload name plus all four columns, so one
    # trace maps to exactly one record).  The manifest metadata rides in
    # the uncompressed header block, so ``trace list``/``trace info``
    # decompress nothing and open only the trace records.
    def save_trace(self, trace, source: str = "", fmt: str = "") -> str:
        """Persist one ingested :class:`~repro.workloads.trace.MemoryTrace`
        keyed by its content fingerprint."""
        fingerprint_hex = f"{trace.fingerprint():08x}"
        return self.save(KIND_TRACE, (fingerprint_hex,), trace,
                         extra_header={"trace": {
                             "name": trace.workload,
                             "accesses": len(trace),
                             "fingerprint": fingerprint_hex,
                             "source": source,
                             "format": fmt,
                         }})

    def load_trace(self, fingerprint_hex: str):
        return self.load(KIND_TRACE, (fingerprint_hex,))

    def trace_manifest(self) -> List[Dict[str, Any]]:
        """Metadata of every stored trace, name-sorted.

        Header-served: only ``trace-*`` records are opened, for their
        header block, and payloads stay compressed on disk.  Each row is
        the ``{"name", "accesses", "fingerprint", "source", "format"}``
        dict written at import time.  Rows missing that metadata (foreign
        or damaged headers) are skipped rather than guessed at.
        """
        rows = []
        for _name, header in self._headers(KIND_TRACE):
            if header is None or header.get("kind") != KIND_TRACE:
                continue
            meta = header.get("trace")
            if (not isinstance(meta, dict) or not meta.get("name")
                    or not meta.get("fingerprint")):
                continue
            rows.append(dict(meta))
        return sorted(rows, key=lambda row: (row["name"],
                                             row["fingerprint"]))

    # Experiment records are keyed by the spec fingerprint alone: the
    # fingerprint already hashes every axis of the grid, so one spec maps to
    # exactly one stored result (re-running overwrites with fresher data).
    def save_experiment(self, fingerprint: str, payload: Dict[str, Any]) -> str:
        """Persist one :class:`ExperimentResult` dictionary under its spec
        fingerprint (``payload`` is the lossless ``to_dict`` form)."""
        return self.save(KIND_EXPERIMENT, (fingerprint,), payload)

    def load_experiment(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        return self.load(KIND_EXPERIMENT, (fingerprint,))

    def experiment_fingerprints(self) -> List[str]:
        """Fingerprints of every stored experiment, sorted.

        Header-served (the fingerprint is the whole key, recovered from
        the header's ``key_repr``): only ``experiment-*`` records are
        opened, and no payload is decompressed — use
        :meth:`list_experiments` when the spec summaries are actually
        needed.
        """
        fingerprints = []
        for _name, header in self._headers(KIND_EXPERIMENT):
            if header is None or header.get("kind") != KIND_EXPERIMENT:
                continue
            try:
                key = _experiment_key_from_repr(header.get("key_repr") or "")
            except (ValueError, SyntaxError):
                continue
            fingerprints.append(key[0])
        return sorted(fingerprints)

    def list_experiments(self) -> List[Dict[str, Any]]:
        """Summaries of every stored experiment result, fingerprint-sorted.

        Payloads are loaded (they are small: a spec plus one float row per
        grid cell) so the summary can name the grid shape without callers
        re-deriving it from the fingerprint.
        """
        summaries = []
        for fingerprint in self.experiment_fingerprints():
            payload = self.load(KIND_EXPERIMENT, (fingerprint,))
            if payload is None:
                continue
            summaries.append({
                "fingerprint": payload.get("fingerprint", fingerprint),
                "spec": payload.get("spec", {}),
                "cells": len((payload.get("columns") or {}).get("workload",
                                                               ())),
            })
        return sorted(summaries, key=lambda item: item["fingerprint"])

    # ------------------------------------------------------------------
    # header listing
    # ------------------------------------------------------------------
    def _read_header_quietly(self, name: str) -> Optional[Dict[str, Any]]:
        try:
            return self._objects.read_object_header(name)
        except Exception:
            return None

    def _headers(self, kind: Optional[str] = None
                 ) -> Iterator[Tuple[str, Optional[Dict[str, Any]]]]:
        """Yield ``(filename, header)`` for every record on disk, sorted by
        filename; ``header`` is ``None`` for an unreadable record.

        With ``kind``, only records whose filename names that kind are
        opened.  Each open reads the small header block alone; a record
        that vanishes mid-iteration (a concurrent ``gc``/``clear``) reads
        as unreadable.
        """
        for name in self._objects.list_object_names(kind):
            yield name, self._read_header_quietly(name)

    def __len__(self) -> int:
        return len(self._objects.list_object_names())

    # ------------------------------------------------------------------
    # inspection / maintenance
    # ------------------------------------------------------------------
    def _quarantine(self, name: str,
                    relpath: Optional[str] = None) -> Optional[str]:
        """Rename a damaged store file into ``quarantine/``.

        ``relpath`` overrides the source location for files found outside
        their canonical shard (verify's "misplaced" case).  Returns the
        new path, or ``None`` if the move failed (e.g. a concurrent
        session already quarantined or rebuilt it) — callers degrade to a
        miss either way.  ``os.replace`` keeps this atomic;
        re-quarantining an identically-named file overwrites the old copy,
        which is fine because equal names mean equal keys.
        """
        if self.read_only:
            return None
        if relpath is None:
            parsed = parse_object_name(name)
            relpath = (os.path.join(OBJECTS_DIR, shard_of(parsed[1]), name)
                       if parsed else name)
        source = os.path.join(self.root, relpath)
        target_dir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(target_dir, exist_ok=True)
            target = os.path.join(target_dir, name)
            os.replace(source, target)
            return target
        except OSError:
            return None

    def quarantined_files(self) -> List[str]:
        """Names of files previously quarantined (empty if none)."""
        try:
            return sorted(os.listdir(os.path.join(self.root, QUARANTINE_DIR)))
        except OSError:
            return []

    def info(self) -> Dict[str, Any]:
        """Summary of the store: schema, per-kind and per-shard counts,
        total bytes.

        Header-only: each record's kind comes from its header block, and
        no payload is decompressed.
        """
        counts = {kind: 0 for kind in KINDS}
        shards: Dict[str, int] = {}
        by_kind_shard: Dict[str, Dict[str, int]] = {kind: {} for kind in KINDS}
        unreadable = 0
        total_bytes = 0
        for name, header in self._headers():
            shard = shard_of(parse_object_name(name)[1])
            shards[shard] = shards.get(shard, 0) + 1
            try:
                total_bytes += os.path.getsize(self._objects.object_path(name))
            except OSError:
                pass  # removed by a concurrent session
            if header is None:
                unreadable += 1
                continue
            kind = header.get("kind")
            if kind in counts:
                counts[kind] += 1
                by_kind_shard[kind][shard] = \
                    by_kind_shard[kind].get(shard, 0) + 1
        return {
            "root": self.root,
            "schema": self.schema_version,
            "layout": "sharded",
            "read_only": self.read_only,
            "records": sum(shards.values()),
            "results": counts[KIND_RESULT],
            "experiments": counts[KIND_EXPERIMENT],
            "traces": counts[KIND_TRACE],
            "unreadable": unreadable,
            "quarantined": len(self.quarantined_files()),
            "total_bytes": total_bytes,
            "shards": dict(sorted(shards.items())),
            "by_kind_shard": {kind: dict(sorted(per_shard.items()))
                              for kind, per_shard in by_kind_shard.items()},
            "saves": self.saves,
            "loads": self.loads,
            "load_misses": self.load_misses,
            "record_opens": self.record_opens,
        }

    # ------------------------------------------------------------------
    # verify / gc / clear
    # ------------------------------------------------------------------
    def verify(self, repair: bool = False,
               shards: Optional[Sequence[str]] = None,
               temp_max_age: float = TEMP_MAX_AGE_SECONDS) -> Dict[str, Any]:
        """Deep-check every record; optionally heal.

        Unlike the header-only listings, this checks and decodes every
        section of every record (a result's log included) and checks that
        each filename's digest matches the key stored in its header *and*
        that the file sits in its digest's shard, so silent bit rot
        anywhere in a record is caught.
        ``shards`` restricts the deep check to those shard prefixes.  With
        ``repair=True``: corrupt and misplaced records are quarantined,
        *stale* ``.tmp`` files (older than ``temp_max_age`` — a concurrent
        writer's fresh temp is never touched) are deleted, and a corrupt
        manifest is quarantined and re-stamped.  Foreign-schema records
        are *reported* from their header alone — a schema-3 pickled
        record from its magic, and no section of theirs is decoded, since
        their layout is another build's — and
        left for ``gc``: verify never destroys data that another build
        could still read.  A readable foreign manifest means the whole
        store is another build's, so ``repair=True`` then changes no file
        at all and reports ``repair_skipped``.  A read-only mount refuses
        ``repair=True``.
        """
        if repair and self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        report: Dict[str, Any] = {
            "root": self.root,
            "schema": self.schema_version,
            "shards": sorted(shards) if shards else None,
            "checked": 0,
            "ok": 0,
            "by_kind": {kind: 0 for kind in KINDS},
            "corrupt": [],
            "misplaced": [],
            "foreign": [],
            "temp": [],
            "fresh_temp": 0,
            "quarantined": [],
            "removed_temp": [],
            "repaired": False,
            "repair_skipped": False,
        }
        shard_filter = set(shards) if shards else None
        for relpath, age in self._objects.temp_files():
            if age >= temp_max_age:
                report["temp"].append(relpath)
            else:
                report["fresh_temp"] += 1
        manifest_state, manifest_detail = self._read_manifest()
        if manifest_state == "ok" and manifest_detail != self.schema_version:
            manifest_state = "foreign"
            # Another build's store: only `store gc` may rewrite it.
            report["repair_skipped"] = repair
            repair = False
        report["manifest"] = manifest_state
        locations: Dict[str, str] = {}
        for shard, name in self._objects.walk_objects():
            if shard_filter is not None and shard not in shard_filter:
                continue
            report["checked"] += 1
            relpath = os.path.join(OBJECTS_DIR, shard, name)
            locations[name] = relpath
            try:
                with self._objects.open_for_verify(
                        os.path.join(self.root, relpath)) as handle:
                    header = decode_header(handle)
                    if header.get("schema") != self.schema_version:
                        # Reported but left for gc.
                        report["foreign"].append(name)
                        continue
                    key_repr = header.get("key_repr")
                    kind = header.get("kind")
                    if (not isinstance(key_repr, str)
                            or kind not in KINDS):
                        raise ValueError("malformed header fields")
                    payload = _CODECS[kind][1](
                        header, read_sections(handle, header))
                if kind == KIND_RESULT and payload.log is not None:
                    payload.log.decode()
                digest = hashlib.sha256(
                    key_repr.encode("utf-8")).hexdigest()[:32]
                if (name != f"{kind}-{digest}.pkl"
                        or shard != shard_of(digest)):
                    # Valid record content under the wrong filename/shard:
                    # it can never be loaded (lookups go by digest), so it
                    # is dead weight and quarantined on repair.
                    report["misplaced"].append(name)
                    continue
            except self._DECODE_ERRORS as error:
                report["corrupt"].append(name)
                report.setdefault("errors", {})[name] = repr(error)
                continue
            report["ok"] += 1
            report["by_kind"][kind] += 1
        if repair:
            for name in report["corrupt"] + report["misplaced"]:
                target = self._quarantine(name, relpath=locations.get(name))
                if target is not None:
                    report["quarantined"].append(name)
            for relpath in report["temp"]:
                if self._objects.remove_temp(relpath):
                    report["removed_temp"].append(relpath)
            if manifest_state == "corrupt":
                self._quarantine(MANIFEST_NAME)
                self._write_manifest()
                report["manifest"] = "ok"
            report["repaired"] = True
            # "clean" reflects the post-repair state: everything broken
            # either quarantined/removed, or still outstanding.
            leftover = [name for name in report["corrupt"]
                        + report["misplaced"]
                        if name not in report["quarantined"]]
            leftover += [relpath for relpath in report["temp"]
                         if relpath not in report["removed_temp"]]
            report["clean"] = (not leftover and not report["foreign"]
                               and report["manifest"] == "ok")
        else:
            report["clean"] = (not report["corrupt"]
                               and not report["misplaced"]
                               and not report["foreign"]
                               and not report["temp"]
                               and report["manifest"] == "ok")
        return report

    def gc(self, max_records: Optional[int] = None,
           temp_max_age: float = TEMP_MAX_AGE_SECONDS) -> Dict[str, List[str]]:
        """Remove unreadable/foreign records; optionally prune to a budget.

        Every record is judged from its header block (no payload is
        decompressed).  Unreadable (corrupt/truncated) files and records
        written with a different schema version are always removed
        (silent bit rot past the header is ``verify``'s deep-check job);
        so are records at the store root, which only a schema-1 build
        from before the sharded layout wrote (reported under ``schema``).
        Stranded ``.tmp`` files are swept **age-gated** (older than
        ``temp_max_age`` seconds): a concurrent writer's in-progress
        atomic write is never deleted out from under it.  With
        ``max_records``, the oldest surviving result and experiment
        records (by modification time) are pruned until at most that many
        of them remain: those are a cache a rebuild recreates, while an
        ingested trace is an input nothing can recreate, so trace records
        are neither counted nor pruned (a corrupt or foreign one is still
        removed).  The ``index/`` directory an older build kept its index
        log in is deleted, and the manifest re-stamped with the current
        schema, so ``gc`` is the supported recovery path for a store left
        behind by a different build (open with ``strict=False``).  Returns
        the removed record and temp filenames per reason.
        """
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        removed = {"corrupt": [], "schema": [], "pruned": [], "temp": []}
        for relpath, age in self._objects.temp_files():
            if age >= temp_max_age and self._objects.remove_temp(relpath):
                removed["temp"].append(relpath)
        for name in sorted(os.listdir(self.root)):
            if parse_object_name(name) is None:
                continue
            try:
                os.unlink(os.path.join(self.root, name))
                removed["schema"].append(name)
            except OSError:
                pass  # removed by a concurrent gc
        # An older build's index log and any temp file stranded beside it:
        # nothing reads them, so nothing else would ever clean them.  Only
        # those names go, so a foreign file keeps the directory alive.
        legacy_index = os.path.join(self.root, "index")
        if os.path.isdir(legacy_index):
            for name in os.listdir(legacy_index):
                if name == "log.jsonl" or name.endswith(".tmp"):
                    self._objects.remove_temp(os.path.join("index", name))
            try:
                os.rmdir(legacy_index)
            except OSError:
                pass
        prunable: List[str] = []
        for name, header in self._headers():
            if header is None:
                if self._objects.remove_object(name):
                    removed["corrupt"].append(name)
            elif header.get("schema") != self.schema_version:
                if self._objects.remove_object(name):
                    removed["schema"].append(name)
            elif header.get("kind") in PRUNABLE_KINDS:
                prunable.append(name)
        if max_records is not None and len(prunable) > max_records:
            def age_of(name: str) -> float:
                try:
                    return os.path.getmtime(self._objects.object_path(name))
                except OSError:
                    return 0.0

            by_age = sorted(prunable, key=age_of)
            for name in by_age[:len(prunable) - max_records]:
                if self._objects.remove_object(name):
                    removed["pruned"].append(name)
        self._write_manifest()
        return removed

    def clear(self) -> int:
        """Delete every record and sweep temp files regardless of age
        (keeps the manifest); returns the number of records removed."""
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        names = self._objects.list_object_names()
        count = sum(1 for name in names if self._objects.remove_object(name))
        for relpath, _age in self._objects.temp_files():
            self._objects.remove_temp(relpath)
        return count

    def __repr__(self) -> str:
        return (f"TraceStore(root={self.root!r}, "
                f"schema={self.schema_version}, records={len(self)}, "
                f"read_only={self.read_only})")
