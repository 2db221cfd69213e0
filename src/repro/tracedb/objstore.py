"""Content-addressed sharded object layout with an append-only index.

This module is the storage substrate under
:class:`~repro.tracedb.store.TraceStore`.  It knows nothing about cache
keys or simulation payloads — only about three things:

* **Immutable content-addressed objects.**  Every record is a file named
  ``<kind>-<digest>.pkl`` living in a shard directory derived from its
  digest prefix (``objects/ab/result-abcdef….pkl``), written atomically
  (temp file + ``os.replace``) and never modified afterwards.  Sharding
  keeps directory fan-out bounded however large the corpus grows, and
  lets maintenance (verify, backup, rsync) operate per-shard.
* **An append-only index log** (``index/log.jsonl``): one fsync'd JSON
  line per committed object, holding exactly the fields recoverable from
  the object's own uncompressed header.  The index is *purely an
  accelerator*: ``info``/``gc``/manifest listings answer from it without
  opening record files, but a missing, torn or stale index never blocks
  reads — readers fall back to the object headers, and
  :meth:`~repro.tracedb.store.TraceStore.reindex` rebuilds the log
  byte-identically from the headers alone.  Appends use ``O_APPEND`` so
  many writer processes can commit concurrently without locks; replay
  ignores torn lines and duplicate entries, so a crash mid-append (or
  two writers racing on the same record) degrades to compaction lag,
  never corruption.
* **The record container codec**: magic + length-prefixed pickled header
  + zlib-compressed pickled payload.  The header block is small and
  uncompressed so header-only scans never decompress payloads.

Canonical form: an index *entry* is the JSON object
``{"kind", "key_repr", "name", "schema", "size"[, "trace"]}`` serialised
with sorted keys and compact separators; the *canonical index* is one
entry line per live object, sorted by object name.  Both compaction (from
the live log) and reindexing (from the object headers + sizes) emit this
exact form, which is what makes ``store reindex`` reproducible
byte-for-byte.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import struct
import tempfile
import time
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreReadOnlyError
from repro.faults import fault_point

#: Subdirectory holding the sharded immutable objects.
OBJECTS_DIR = "objects"

#: Subdirectory holding the append-only index log.
INDEX_DIR = "index"

#: Name of the index log file inside :data:`INDEX_DIR`.
INDEX_NAME = "log.jsonl"

#: Magic prefix of every record file (schema v1: pickled header block +
#: zlib-compressed pickled payload).
RECORD_MAGIC = b"CMST1\n"

#: Header-length prefix layout (little-endian uint32 after the magic).
_HEADER_LEN = struct.Struct("<I")

#: ``<kind>-<digest>.pkl`` — kinds are lowercase words, digests 32 hex
#: chars (a SHA-256 prefix of the key's canonical repr).
OBJECT_NAME_RE = re.compile(r"^([a-z]+)-([0-9a-f]{32})\.pkl$")

#: How many leading digest hex chars name the shard directory (256 shards).
SHARD_PREFIX_LEN = 2

#: Age (seconds) below which ``.tmp`` files are presumed to belong to a
#: concurrent writer's in-progress atomic write and must not be swept.
TEMP_MAX_AGE_SECONDS = 600.0

#: Index entry fields recoverable from an object file without touching the
#: payload (header fields plus the file size, which lets maintenance spot a
#: changed or corrupted object with one ``stat``, no open).  ``trace`` is
#: the optional metadata block trace records expose for header-only
#: listings.
_ENTRY_REQUIRED = ("kind", "key_repr", "name", "schema", "size")
_ENTRY_OPTIONAL = ("trace",)


def parse_object_name(name: str) -> Optional[Tuple[str, str]]:
    """``(kind, digest)`` for a well-formed object filename, else ``None``."""
    match = OBJECT_NAME_RE.match(name)
    if match is None:
        return None
    return match.group(1), match.group(2)


def shard_of(digest: str) -> str:
    """Shard directory name for a content digest (its hex prefix)."""
    return digest[:SHARD_PREFIX_LEN]


def object_relpath(name: str) -> Optional[str]:
    """``objects/<shard>/<name>`` for a well-formed object name."""
    parsed = parse_object_name(name)
    if parsed is None:
        return None
    return os.path.join(OBJECTS_DIR, shard_of(parsed[1]), name)


# ----------------------------------------------------------------------
# record container codec
# ----------------------------------------------------------------------
def encode_record(header: Dict[str, Any], payload: Any) -> bytes:
    """Serialise one record: magic, length-prefixed header, zlib payload."""
    header_bytes = pickle.dumps(header, protocol=4)
    return (RECORD_MAGIC + _HEADER_LEN.pack(len(header_bytes))
            + header_bytes
            + zlib.compress(pickle.dumps(payload, protocol=4), 1))


def decode_header(handle) -> Dict[str, Any]:
    """Read just the small header block from an open record file."""
    magic = handle.read(len(RECORD_MAGIC))
    if magic != RECORD_MAGIC:
        raise ValueError("missing record magic")
    (header_len,) = _HEADER_LEN.unpack(handle.read(_HEADER_LEN.size))
    header = pickle.loads(handle.read(header_len))
    if not isinstance(header, dict):
        raise ValueError("malformed record header")
    return header


def index_entry_for(name: str, header: Dict[str, Any],
                    size: int) -> Dict[str, Any]:
    """The canonical index entry for one object, derived from its header
    and byte size.

    A pure function of ``(filename, header, size)`` — the invariant behind
    byte-identical reindexing: appending at commit time (size = the bytes
    just written) and rebuilding from the file later (size = ``stat``)
    must produce the same entry.
    """
    entry: Dict[str, Any] = {
        "kind": header.get("kind"),
        "key_repr": header.get("key_repr"),
        "name": name,
        "schema": header.get("schema"),
        "size": size,
    }
    trace_meta = header.get("trace")
    if isinstance(trace_meta, dict):
        entry["trace"] = trace_meta
    return entry


def _valid_entry(entry: Any) -> bool:
    if not isinstance(entry, dict):
        return False
    if set(entry) - set(_ENTRY_REQUIRED) - set(_ENTRY_OPTIONAL):
        return False
    if any(field not in entry for field in _ENTRY_REQUIRED):
        return False
    name, kind = entry["name"], entry["kind"]
    if not isinstance(name, str) or not isinstance(kind, str):
        return False
    parsed = parse_object_name(name)
    if parsed is None or parsed[0] != kind:
        return False
    if not isinstance(entry["key_repr"], str):
        return False
    if not isinstance(entry["schema"], int):
        return False
    if not isinstance(entry["size"], int) or entry["size"] < 0:
        return False
    if "trace" in entry and not isinstance(entry["trace"], dict):
        return False
    return True


def entry_line(entry: Dict[str, Any]) -> bytes:
    """One canonical index line (compact sorted-key JSON + newline)."""
    return (json.dumps(entry, sort_keys=True,
                       separators=(",", ":")).encode("utf-8") + b"\n")


def atomic_write(path: str, data: bytes, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` atomically.

    The temp file lives in the target's directory so ``os.replace`` stays
    a same-filesystem atomic rename; an interrupted write strands an
    (age-gated, gc-swept) ``.tmp`` there, never a half-written target.
    ``fsync=True`` flushes the bytes to disk before the rename.
    """
    handle, temp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                         suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as temp:
            temp.write(data)
            if fsync:
                temp.flush()
                os.fsync(temp.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class AppendOnlyIndex:
    """The ``index/log.jsonl`` append-only object index.

    Appends are a single ``O_APPEND`` write of one complete line followed
    by ``fsync`` — concurrent writer processes interleave whole lines
    without locks.  Reads tolerate everything a crash or a race can leave
    behind: a torn trailing line, corrupt bytes mid-file, duplicate
    entries from two writers committing the same object.  All of that is
    *reported* (so ``info`` can surface index health) but never fatal.
    """

    def __init__(self, root: str, read_only: bool = False) -> None:
        self.root = root
        self.read_only = read_only
        self.path = os.path.join(root, INDEX_DIR, INDEX_NAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def append(self, entry: Dict[str, Any]) -> None:
        """Commit one entry: a single appended, fsync'd line.

        The ``index.append`` fault point mangles the line bytes under
        chaos plans (a ``truncate`` rule models a torn append) — exactly
        the damage :meth:`read` must shrug off.
        """
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        line = fault_point("index.append", entry_line(entry))
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        descriptor = os.open(self.path,
                             os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(descriptor, line)
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def read(self) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
        """Replay the log: ``(entries_by_name, health)``.

        Duplicate names keep the *last* occurrence — a re-save of the same
        key appends a fresh line (possibly a new size), and the newest one
        describes the file actually on disk, so compaction stays
        byte-identical with a reindex.  Invalid or torn lines are skipped
        and counted.  A missing log reads as empty with ``present=False``
        so callers can fall back to header scans.
        """
        health: Dict[str, Any] = {"present": False, "lines": 0,
                                  "invalid_lines": 0, "duplicate_lines": 0}
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return {}, health
        except OSError:
            return {}, health
        health["present"] = True
        entries: Dict[str, Dict[str, Any]] = {}
        segments = data.split(b"\n")
        # A file not ending in a newline has a torn final append; the
        # trailing segment is part of no committed line.
        torn_tail = segments.pop() if segments else b""
        if torn_tail:
            health["invalid_lines"] += 1
        for segment in segments:
            if not segment:
                continue
            health["lines"] += 1
            try:
                entry = json.loads(segment.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                health["invalid_lines"] += 1
                continue
            if not _valid_entry(entry):
                health["invalid_lines"] += 1
                continue
            if entry["name"] in entries:
                health["duplicate_lines"] += 1
            entries[entry["name"]] = entry
        return entries, health

    @staticmethod
    def canonical_bytes(entries: Dict[str, Dict[str, Any]]) -> bytes:
        """The canonical index: one line per entry, sorted by object name."""
        return b"".join(entry_line(entries[name])
                        for name in sorted(entries))

    def write_canonical(self, entries: Dict[str, Dict[str, Any]]) -> None:
        """Atomically replace the log with its canonical form."""
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        atomic_write(self.path, self.canonical_bytes(entries), fsync=True)


class ObjectStore:
    """Sharded immutable objects under one root directory.

    ``record_opens`` counts every record file opened (for a header or a
    payload) — the probe tests use to assert that index-served paths
    (``info``/``gc``/listings on a warm store) touch **zero** record
    files.
    """

    def __init__(self, root: str, read_only: bool = False) -> None:
        self.root = os.fspath(root)
        self.read_only = read_only
        self.objects_root = os.path.join(self.root, OBJECTS_DIR)
        self.index = AppendOnlyIndex(self.root, read_only=read_only)
        self.record_opens = 0

    # ------------------------------------------------------------------
    # paths and listing
    # ------------------------------------------------------------------
    def object_path(self, name: str) -> str:
        relpath = object_relpath(name)
        if relpath is None:
            raise ValueError(f"malformed object name {name!r}")
        return os.path.join(self.root, relpath)

    def shard_dirs(self) -> List[str]:
        """Existing shard directory names, sorted."""
        try:
            names = os.listdir(self.objects_root)
        except OSError:
            return []
        return sorted(name for name in names
                      if os.path.isdir(os.path.join(self.objects_root, name)))

    def list_object_names(self) -> List[str]:
        """Every well-formed object filename on disk, sorted.

        One ``listdir`` per shard — no record file is opened, so listing
        stays cheap (and ``record_opens``-invisible) at any corpus size.
        """
        names: List[str] = []
        for shard in self.shard_dirs():
            shard_path = os.path.join(self.objects_root, shard)
            try:
                for name in os.listdir(shard_path):
                    if parse_object_name(name) is not None:
                        names.append(name)
            except OSError:
                continue
        return sorted(names)

    def walk_objects(self) -> Iterable[Tuple[str, str]]:
        """Yield ``(shard, filename)`` for every ``.pkl`` actually on disk.

        Unlike :meth:`list_object_names` this reports files *where they
        sit*, including malformed names and records dropped into the wrong
        shard — which is exactly what ``verify`` must see to flag them as
        misplaced.  No record file is opened.
        """
        for shard in self.shard_dirs():
            shard_path = os.path.join(self.objects_root, shard)
            try:
                names = os.listdir(shard_path)
            except OSError:
                continue
            for name in sorted(names):
                if name.endswith(".pkl"):
                    yield shard, name

    # ------------------------------------------------------------------
    # object IO
    # ------------------------------------------------------------------
    def write_object(self, name: str, data: bytes) -> str:
        """Atomically write one immutable object into its shard directory
        (see :func:`atomic_write`); returns its path."""
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        path = self.object_path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write(path, data)
        return path

    def open_object(self, name: str):
        """Open one record file for reading (counted in ``record_opens``)."""
        self.record_opens += 1
        return open(self.object_path(name), "rb")

    def open_for_verify(self, path: str):
        """Open a record file at its *actual* path (counted in
        ``record_opens``) — verify's deep check must read misplaced files
        where they really sit, not where their name says they belong."""
        self.record_opens += 1
        return open(path, "rb")

    def read_object_header(self, name: str) -> Dict[str, Any]:
        """Decode one object's header block (counted in ``record_opens``)."""
        with self.open_object(name) as handle:
            return decode_header(handle)

    def remove_object(self, name: str) -> bool:
        """Delete one object, tolerating a concurrent session racing us."""
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        try:
            os.unlink(self.object_path(name))
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # temp-file hygiene
    # ------------------------------------------------------------------
    def _temp_dirs(self) -> Iterable[str]:
        yield self.root
        yield os.path.join(self.root, INDEX_DIR)
        for shard in self.shard_dirs():
            yield os.path.join(self.objects_root, shard)

    def temp_files(self) -> List[Tuple[str, float]]:
        """``(relative_path, age_seconds)`` of every stranded ``.tmp`` file.

        Ages let callers distinguish an interrupted write's orphan (old)
        from a concurrent writer's in-progress file (fresh) — only the
        former may be swept (see :data:`TEMP_MAX_AGE_SECONDS`).
        """
        now = time.time()
        found: List[Tuple[str, float]] = []
        for directory in self._temp_dirs():
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(directory, name)
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue  # removed by a concurrent sweep
                found.append((os.path.relpath(path, self.root), age))
        return sorted(found)

    def remove_temp(self, relpath: str) -> bool:
        if self.read_only:
            raise StoreReadOnlyError(
                f"store at {self.root!r} is mounted read-only")
        try:
            os.unlink(os.path.join(self.root, relpath))
            return True
        except OSError:
            return False
