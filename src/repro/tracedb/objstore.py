"""Content-addressed sharded object layout.

This module is the storage substrate under
:class:`~repro.tracedb.store.TraceStore`.  It knows nothing about cache
keys or simulation payloads — only about two things:

* **Immutable content-addressed objects.**  Every record is a file named
  ``<kind>-<digest>.pkl`` living in a shard directory derived from its
  digest prefix (``objects/ab/result-abcdef….pkl``), written atomically
  (temp file + ``os.replace``) and never modified afterwards.  Sharding
  keeps directory fan-out bounded however large the corpus grows, and
  lets maintenance (verify, backup, rsync) operate per-shard.  The
  filename names the record's kind, so a listing of one kind opens only
  that kind's records.
* **The record container codec**: magic + length-prefixed pickled header
  + zlib-compressed pickled payload.  The header block is small and
  uncompressed so header-only scans never decompress payloads.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import tempfile
import time
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreReadOnlyError

#: Subdirectory holding the sharded immutable objects.
OBJECTS_DIR = "objects"

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


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically.

    The temp file lives in the target's directory so ``os.replace`` stays
    a same-filesystem atomic rename; an interrupted write strands an
    (age-gated, gc-swept) ``.tmp`` there, never a half-written target.
    """
    handle, temp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                         suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as temp:
            temp.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class ObjectStore:
    """Sharded immutable objects under one root directory.

    ``record_opens`` counts every record file opened (for a header or a
    payload) — the probe tests use to assert that a listing of one kind
    opens only that kind's records.
    """

    def __init__(self, root: str, read_only: bool = False) -> None:
        self.root = os.fspath(root)
        self.read_only = read_only
        self.objects_root = os.path.join(self.root, OBJECTS_DIR)
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

    def list_object_names(self, kind: Optional[str] = None) -> List[str]:
        """Every well-formed object filename on disk (of ``kind``, when
        given), sorted.

        One ``listdir`` per shard — no record file is opened, so listing
        stays cheap (and ``record_opens``-invisible) at any corpus size.
        """
        names: List[str] = []
        for shard in self.shard_dirs():
            shard_path = os.path.join(self.objects_root, shard)
            try:
                for name in os.listdir(shard_path):
                    parsed = parse_object_name(name)
                    if parsed is not None and kind in (None, parsed[0]):
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
