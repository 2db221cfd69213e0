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
* **The record container codec**: magic, a ``<II`` prefix (header length,
  header CRC-32), a canonical JSON header (sorted keys), then the
  sections the header names, back to back.  Each section is one zlib
  stream holding a JSON document or raw ``array`` buffers (little-endian),
  and the header's section table gives its name, compressed size and
  CRC-32 — plus the typecode and item count of every column of a buffer
  section.  A reader checks every byte of a record without decompressing
  it and then decompresses only the sections it needs; header-only scans
  never touch a section.  Nothing in a record is pickled, so a read never
  runs code from disk, and a record's bytes are a function of its content.
"""

from __future__ import annotations

import json
import os
import re
import struct
import sys
import tempfile
import time
import zlib
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import StoreReadOnlyError

#: Subdirectory holding the sharded immutable objects.
OBJECTS_DIR = "objects"

#: Magic prefix of every record file: the JSON-header section container.
RECORD_MAGIC = b"CMST2\n"

#: Magic of the pickled container that builds up to store schema 3 wrote.
#: Such a record is another build's, judged from these bytes alone: no
#: byte after them is ever read.
PICKLED_RECORD_MAGIC = b"CMST1\n"

#: After the magic: the header's length and CRC-32 (little-endian uint32s).
_HEADER_PREFIX = struct.Struct("<II")

#: ``<kind>-<digest>.pkl`` — kinds are lowercase words, digests 32 hex
#: chars (a SHA-256 prefix of the key's canonical repr).
OBJECT_NAME_RE = re.compile(r"^([a-z]+)-([0-9a-f]{32})\.pkl$")

#: How many leading digest hex chars name the shard directory (256 shards).
SHARD_PREFIX_LEN = 2

#: Age (seconds) below which ``.tmp`` files are presumed to belong to a
#: concurrent writer's in-progress atomic write and must not be swept.
TEMP_MAX_AGE_SECONDS = 600.0

#: One section to encode: its name, its uncompressed bytes and the extra
#: fields of its section-table entry.
Section = Tuple[str, bytes, Dict[str, Any]]


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
def canonical_json(value: Any) -> bytes:
    """``value`` as compact JSON with sorted keys: equal values, equal
    bytes."""
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def json_section(name: str, value: Any) -> Section:
    """A section holding one JSON document."""
    return name, canonical_json(value), {}


def column_section(name: str,
                   columns: Sequence[Tuple[str, str, Any]]) -> Section:
    """A section holding ``(column name, typecode, buffer)`` columns back
    to back as little-endian items; its table entry lists each column's
    name, typecode and item count, and their total ``bytes``."""
    layout = []
    chunks = []
    for column_name, typecode, column in columns:
        data = bytes(memoryview(column))
        if sys.byteorder == "big":
            swapped = array(typecode, data)
            swapped.byteswap()
            data = swapped.tobytes()
        layout.append([column_name, typecode, len(column)])
        chunks.append(data)
    data = b"".join(chunks)
    return name, data, {"columns": layout, "bytes": len(data)}


def encode_record(header: Dict[str, Any], sections: Sequence[Section]
                  ) -> bytes:
    """Serialise one record: magic, the length and CRC-32 of the canonical
    header, the header (``header`` plus a ``sections`` table), then each
    section as a zlib stream."""
    table = []
    blobs = []
    for name, data, extra in sections:
        blob = zlib.compress(data, 1)
        table.append({"name": name, "size": len(blob),
                      "crc32": zlib.crc32(blob), **extra})
        blobs.append(blob)
    header_bytes = canonical_json({**header, "sections": table})
    return b"".join((RECORD_MAGIC,
                     _HEADER_PREFIX.pack(len(header_bytes),
                                         zlib.crc32(header_bytes)),
                     header_bytes, *blobs))


def decode_header(handle) -> Dict[str, Any]:
    """Read just the header from an open record file (checked against its
    CRC-32).

    A record in the pickled container of schema 3 and older decodes as the
    header ``{"schema": "pickled"}``, read from its magic alone: every
    schema check then reads it as foreign.
    """
    magic = handle.read(len(RECORD_MAGIC))
    if magic == PICKLED_RECORD_MAGIC:
        return {"schema": "pickled"}
    if magic != RECORD_MAGIC:
        raise ValueError("missing record magic")
    length, crc = _HEADER_PREFIX.unpack(handle.read(_HEADER_PREFIX.size))
    header_bytes = handle.read(length)
    if len(header_bytes) != length or zlib.crc32(header_bytes) != crc:
        raise ValueError("record header fails its length/CRC-32 check")
    header = json.loads(header_bytes)
    if not isinstance(header, dict):
        raise ValueError("malformed record header")
    return header


def read_sections(handle, header: Dict[str, Any]) -> Dict[str, bytes]:
    """Read the rest of a record after :func:`decode_header`: each section
    of the header's table, still compressed, by name.

    Every section is checked against its size and CRC-32, and nothing may
    follow the last one, so damage anywhere in a record raises here and
    no decompressed section is ever wrong.
    """
    data = handle.read()
    sections: Dict[str, bytes] = {}
    offset = 0
    for entry in header["sections"]:
        size = entry["size"]
        if not isinstance(size, int) or size < 0:
            raise ValueError(f"malformed section size {size!r}")
        blob = data[offset:offset + size]
        offset += size
        if len(blob) != size or zlib.crc32(blob) != entry["crc32"]:
            raise ValueError(f"section {entry['name']!r} fails its "
                             f"size/CRC-32 check")
        sections[entry["name"]] = blob
    if offset != len(data):
        raise ValueError("trailing bytes after the last section")
    return sections


def column_layout(header: Dict[str, Any], name: str) -> List[List[Any]]:
    """The ``[name, typecode, count]`` columns of column section ``name``,
    checked against the section's size without decompressing it."""
    for entry in header["sections"]:
        if entry["name"] == name:
            break
    else:
        raise KeyError(f"record has no {name!r} section")
    layout = entry["columns"]
    size = 0
    for _column, typecode, count in layout:
        if not isinstance(count, int) or count < 0:
            raise ValueError(f"malformed column count {count!r}")
        size += count * array(typecode).itemsize
    if size != entry["bytes"]:
        raise ValueError(f"the columns of section {name!r} do not add up "
                         f"to its size")
    return layout


def load_json(blob: bytes) -> Any:
    """Decode a JSON section."""
    return json.loads(zlib.decompress(blob))


def unpack_columns(blob: bytes, layout: Sequence[Sequence[Any]]
                   ) -> Dict[str, array]:
    """Decode a column section into one ``array`` per column, by name;
    ``layout`` is its table entry's ``columns``."""
    data = memoryview(zlib.decompress(blob))
    columns: Dict[str, array] = {}
    offset = 0
    for name, typecode, count in layout:
        column = array(typecode)
        stop = offset + count * column.itemsize
        if count < 0 or stop > len(data):
            raise ValueError(f"column {name!r} overruns its section")
        column.frombytes(data[offset:stop])
        if sys.byteorder == "big":
            column.byteswap()
        columns[name] = column
        offset = stop
    if offset != len(data):
        raise ValueError("column sizes do not add up to their section")
    return columns


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
