"""Real-trace ingestion: external trace files as first-class workloads.

Synthetic generators (``repro.workloads.spec``) cap the system at hand-coded
scenarios; this module opens the real-trace axis.  Two on-disk formats parse
**directly into the columnar** :class:`~repro.workloads.trace.MemoryTrace`
spine (appends to the four typed arrays — no per-access object churn):

* **text/CSV** (``.txt``/``.csv``/``.trace``, optionally gzipped): one
  access per line, ``pc,address,is_write[,instr_gap]``.  ``pc``/``address``
  are decimal or ``0x``-hex unsigned 64-bit values, ``is_write`` is ``0`` or
  ``1``, ``instr_gap`` (optional, default 4) is the retired-instruction gap
  feeding the timing model.  Blank lines and ``#`` comments are skipped.
* **ChampSim-like binary** (``.champsim``/``.bin``, optionally gzipped):
  fixed-width 24-byte little-endian records ``<QQIB3x`` — pc (u64),
  address (u64), instr_gap (u32), flags (u8: bit0 write, bit1 prefetch),
  3 pad bytes — with no file header.

Both parsers validate eagerly with :class:`~repro.errors.TraceParseError`
messages naming the offending line/record, and both sniff gzip by magic
bytes rather than trusting the suffix.

An :class:`IngestedWorkload` adapts a parsed trace to the workload-registry
protocol, so ingested traces live beside synthetic generators in
:func:`~repro.workloads.generator.available_workloads` and are referenced
by name from ``ExperimentSpec``, ``CacheMind.ask`` and the serve layer.
Unlike synthetic generators, an ingested workload replays its file
verbatim: ``seed`` and ``num_accesses`` are **explicitly ignored** (the
full trace is returned whatever length a session asks for), which the
registry surfaces as ``kind == "ingested"`` rather than hiding.

Registration works from a file path (:func:`register_trace_file`), an
in-memory trace (:func:`register_trace`) or a store-backed manifest entry
(:func:`register_stored_trace` / :func:`ensure_store_traces_registered`,
used by store-attached sessions so ``python -m repro trace import`` makes a
trace nameable in any later process that opens the same store).
"""

from __future__ import annotations

import gzip
import os
import struct
from array import array
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.errors import DuplicateNameError, TraceParseError
from repro.workloads.generator import (
    WorkloadSpec,
    _REGISTRY,
    register_workload,
)
from repro.workloads.trace import (
    FLAG_PREFETCH,
    FLAG_WRITE,
    MemoryTrace,
)

#: Trace file formats understood by :func:`parse_trace_file`.
FORMAT_TEXT = "text"
FORMAT_CHAMPSIM = "champsim"
FORMATS = (FORMAT_TEXT, FORMAT_CHAMPSIM)

#: Suffix -> format map used by :func:`detect_format` (a trailing ``.gz``
#: is stripped first; compression is orthogonal to the record format).
SUFFIX_FORMATS = {
    ".txt": FORMAT_TEXT,
    ".csv": FORMAT_TEXT,
    ".trace": FORMAT_TEXT,
    ".champsim": FORMAT_CHAMPSIM,
    ".bin": FORMAT_CHAMPSIM,
}

#: One binary record: pc u64, address u64, instr_gap u32, flags u8, 3 pad.
CHAMPSIM_RECORD = struct.Struct("<QQIB3x")
CHAMPSIM_RECORD_BYTES = CHAMPSIM_RECORD.size

#: Valid bits of the binary record's flags byte.
_CHAMPSIM_FLAG_MASK = FLAG_WRITE | FLAG_PREFETCH

#: Records decoded per read when streaming a binary file.
_CHAMPSIM_CHUNK_RECORDS = 4096

_GZIP_MAGIC = b"\x1f\x8b"

_UINT64_MAX = 2 ** 64 - 1


# ----------------------------------------------------------------------
# format / name helpers
# ----------------------------------------------------------------------
def detect_format(path: str) -> str:
    """Infer the trace format from the file suffix (``.gz`` stripped).

    Raises ``ValueError`` for an unknown suffix — pass ``fmt`` explicitly
    to :func:`parse_trace_file` instead of guessing on content.
    """
    base = path[:-3] if path.endswith(".gz") else path
    suffix = os.path.splitext(base)[1].lower()
    fmt = SUFFIX_FORMATS.get(suffix)
    if fmt is None:
        raise ValueError(
            f"cannot infer trace format from {path!r} (known suffixes: "
            f"{', '.join(sorted(SUFFIX_FORMATS))}, each optionally .gz); "
            f"pass the format explicitly")
    return fmt


def default_trace_name(path: str) -> str:
    """A registry-safe workload name derived from a trace file's stem."""
    base = os.path.basename(path)
    if base.endswith(".gz"):
        base = base[:-3]
    stem = os.path.splitext(base)[0]
    cleaned = "".join(ch if (ch.isalnum() or ch in "._-") else "_"
                      for ch in stem)
    return cleaned or "ingested_trace"


def _open_maybe_gzip(path: str) -> BinaryIO:
    """Open a trace file, transparently ungzipping by magic bytes."""
    handle = open(path, "rb")
    try:
        magic = handle.read(len(_GZIP_MAGIC))
        handle.seek(0)
        if magic == _GZIP_MAGIC:
            return gzip.open(handle, "rb")  # type: ignore[return-value]
        return handle
    except BaseException:
        handle.close()
        raise


def ingested_description(name: str, accesses: int,
                         fingerprint_hex: str) -> str:
    """The canonical description of one ingested trace.

    Deliberately excludes the source path: the description is part of the
    derived-entry cache key, and direct-parse and store-warm runs of the
    same trace must produce byte-identical entries wherever the file lives.
    """
    return (f"ingested trace '{name}': {accesses} accesses replayed "
            f"verbatim (fingerprint {fingerprint_hex})")


def trace_fingerprint_hex(trace: MemoryTrace) -> str:
    """The trace's content fingerprint as the 8-hex-digit store key."""
    return f"{trace.fingerprint():08x}"


# ----------------------------------------------------------------------
# parsers (stream into the columnar spine)
# ----------------------------------------------------------------------
def _parse_int(field: str, what: str, where: str, maximum: int) -> int:
    field = field.strip()
    try:
        value = int(field, 16) if field[:2].lower() == "0x" else int(field)
    except (ValueError, IndexError):
        raise TraceParseError(
            f"{where}: {what} {field!r} is not a decimal or 0x-hex "
            f"integer") from None
    if not 0 <= value <= maximum:
        raise TraceParseError(
            f"{where}: {what} {value} out of range [0, {maximum}]")
    return value


def parse_text_trace(path: str, workload: Optional[str] = None) -> MemoryTrace:
    """Parse a line-oriented text/CSV address trace into a columnar trace.

    Each non-blank, non-``#`` line is ``pc,address,is_write[,instr_gap]``;
    values append straight onto the four typed-array columns.  Raises
    :class:`TraceParseError` naming ``path:line`` on the first bad line.
    """
    name = workload or default_trace_name(path)
    pcs, addresses = array("Q"), array("Q")
    flags, gaps = array("B"), array("Q")
    with _open_maybe_gzip(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                raise TraceParseError(
                    f"{where}: not UTF-8 text ({error}); is this a binary "
                    f"trace? (pass format 'champsim')") from None
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [field.strip() for field in line.split(",")]
            if len(fields) not in (3, 4):
                raise TraceParseError(
                    f"{where}: expected 'pc,address,is_write[,instr_gap]' "
                    f"(3-4 fields), got {len(fields)} fields")
            pc = _parse_int(fields[0], "pc", where, _UINT64_MAX)
            address = _parse_int(fields[1], "address", where, _UINT64_MAX)
            if fields[2] not in ("0", "1"):
                raise TraceParseError(
                    f"{where}: is_write must be 0 or 1, got {fields[2]!r}")
            gap = (_parse_int(fields[3], "instr_gap", where, _UINT64_MAX)
                   if len(fields) == 4 else 4)
            pcs.append(pc)
            addresses.append(address)
            flags.append(FLAG_WRITE if fields[2] == "1" else 0)
            gaps.append(gap)
    if not pcs:
        raise TraceParseError(f"{path}: no accesses (only blank lines and "
                              f"comments)")
    return MemoryTrace(workload=name, columns=(pcs, addresses, flags, gaps))


def parse_champsim_trace(path: str,
                         workload: Optional[str] = None) -> MemoryTrace:
    """Parse a ChampSim-like fixed-width binary trace into a columnar trace.

    Streams 24-byte ``<QQIB3x`` records chunk-wise into the typed-array
    columns.  A truncated file (size not a record multiple) or a record
    with unknown flag bits raises :class:`TraceParseError` naming the
    0-based record index.
    """
    name = workload or default_trace_name(path)
    pcs, addresses = array("Q"), array("Q")
    flags, gaps = array("B"), array("Q")
    record = 0
    leftover = b""
    with _open_maybe_gzip(path) as handle:
        while True:
            chunk = handle.read(CHAMPSIM_RECORD_BYTES
                                * _CHAMPSIM_CHUNK_RECORDS)
            if not chunk:
                break
            # Short reads mid-stream are legal for file objects: carry the
            # partial record over to the next chunk; only bytes left at EOF
            # are a truncated file.
            chunk = leftover + chunk
            usable = len(chunk) - (len(chunk) % CHAMPSIM_RECORD_BYTES)
            leftover = chunk[usable:]
            for pc, address, gap, flag_byte in CHAMPSIM_RECORD.iter_unpack(
                    chunk[:usable]):
                if flag_byte & ~_CHAMPSIM_FLAG_MASK:
                    raise TraceParseError(
                        f"{path}: record #{record}: unknown flag bits "
                        f"0x{flag_byte & ~_CHAMPSIM_FLAG_MASK:02x} (valid: "
                        f"0x1 write, 0x2 prefetch)")
                pcs.append(pc)
                addresses.append(address)
                flags.append(flag_byte)
                gaps.append(gap)
                record += 1
    if leftover:
        raise TraceParseError(
            f"{path}: truncated record #{record}: {len(leftover)} trailing "
            f"byte(s) (records are {CHAMPSIM_RECORD_BYTES} bytes: pc u64, "
            f"address u64, instr_gap u32, flags u8, 3 pad)")
    if not pcs:
        raise TraceParseError(f"{path}: empty trace file")
    return MemoryTrace(workload=name, columns=(pcs, addresses, flags, gaps))


def parse_trace_file(path: str, fmt: Optional[str] = None,
                     workload: Optional[str] = None) -> MemoryTrace:
    """Parse a trace file in either format (suffix-detected when ``fmt`` is
    ``None``)."""
    fmt = fmt or detect_format(path)
    if fmt == FORMAT_TEXT:
        return parse_text_trace(path, workload=workload)
    if fmt == FORMAT_CHAMPSIM:
        return parse_champsim_trace(path, workload=workload)
    raise ValueError(f"unknown trace format {fmt!r}; expected one of "
                     f"{FORMATS}")


# ----------------------------------------------------------------------
# writers (round-trip tests, CI smoke)
# ----------------------------------------------------------------------
def write_text_trace(trace: MemoryTrace, path: str) -> str:
    """Write a trace in the text format (gzipped when ``path`` ends ``.gz``).

    The text format has no prefetch field, so traces containing software
    prefetches must use the binary format instead.
    """
    pcs, addresses, flag_column, gaps = trace.columns()
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as handle:
        handle.write("# pc,address,is_write,instr_gap\n")
        for pc, address, flag_byte, gap in zip(pcs, addresses, flag_column,
                                               gaps):
            if flag_byte & FLAG_PREFETCH:
                raise ValueError(
                    "the text trace format cannot represent prefetch "
                    "accesses; use write_champsim_trace")
            handle.write(f"0x{pc:x},0x{address:x},"
                         f"{1 if flag_byte & FLAG_WRITE else 0},{gap}\n")
    return path


def write_champsim_trace(trace: MemoryTrace, path: str) -> str:
    """Write a trace in the fixed-width binary format (``.gz`` aware)."""
    pcs, addresses, flag_column, gaps = trace.columns()
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wb") as handle:
        pack = CHAMPSIM_RECORD.pack
        for index, (pc, address, flag_byte, gap) in enumerate(
                zip(pcs, addresses, flag_column, gaps)):
            if gap > 0xFFFFFFFF:
                raise ValueError(
                    f"access #{index}: instr_gap {gap} exceeds the binary "
                    f"format's u32 field")
            handle.write(pack(pc, address, gap, flag_byte))
    return path


# ----------------------------------------------------------------------
# the registry adapter
# ----------------------------------------------------------------------
class IngestedWorkload:
    """A parsed external trace behind the workload-registry protocol.

    Doubles as its own registry factory (calling it returns itself), so one
    object serves both the attribute-only listing path
    (:func:`~repro.workloads.generator.workload_info`) and
    :func:`~repro.workloads.generator.get_workload`.

    Semantics differ from synthetic generators **explicitly**: the trace is
    replayed verbatim, so :meth:`generate` returns the full ingested trace
    whatever ``num_accesses`` a session asks for, and the ``seed`` argument
    never changes the output (``kind == "ingested"`` and
    ``ignores_length``/``ignores_seed`` surface this to listings).
    """

    kind = "ingested"
    dominant_pattern = "external trace replayed verbatim"
    ignores_length = True
    ignores_seed = True

    def __init__(self, name: str, loader, accesses: int,
                 fingerprint_hex: str, source: str = ""):
        self.name = name
        self._loader = loader
        self.accesses = accesses
        self.fingerprint_hex = fingerprint_hex
        self.source = source
        self.description = ingested_description(name, accesses,
                                                fingerprint_hex)
        self.seed = 0
        self.binary = None
        self.working_set_blocks = 0
        self._trace: Optional[MemoryTrace] = None

    # Registry-factory protocol: get_workload(name, seed=...) calls the
    # registered factory; the seed is accepted and ignored (documented
    # above), never silently baked into a different trace.
    def __call__(self, seed: int = 0) -> "IngestedWorkload":
        return self

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            name=self.name,
            description=self.description,
            dominant_pattern=self.dominant_pattern,
            working_set_blocks=self.working_set_blocks,
        )

    def generate(self, num_accesses: Optional[int] = None) -> MemoryTrace:
        """The full ingested trace (``num_accesses`` is validated but does
        not truncate or extend the replay)."""
        if num_accesses is not None and num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        if self._trace is None:
            trace = self._loader()
            if trace.workload != self.name:
                raise ValueError(
                    f"loader for ingested workload {self.name!r} produced a "
                    f"trace named {trace.workload!r}")
            trace.description = self.description
            found = trace_fingerprint_hex(trace)
            if found != self.fingerprint_hex:
                raise ValueError(
                    f"ingested workload {self.name!r}: trace content "
                    f"fingerprint {found} does not match the registered "
                    f"fingerprint {self.fingerprint_hex} (source changed "
                    f"since registration?)")
            # Working-set size becomes known once the trace is in memory.
            self.working_set_blocks = len(
                {address >> 6 for address in trace.columns()[1]})
            self._trace = trace
        return self._trace

    def __repr__(self) -> str:
        return (f"IngestedWorkload(name={self.name!r}, "
                f"accesses={self.accesses}, "
                f"fingerprint={self.fingerprint_hex!r})")


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def register_trace(trace: MemoryTrace, name: Optional[str] = None,
                   source: str = "") -> str:
    """Register an in-memory trace as a named ingested workload.

    Returns the registered name.  Raises
    :class:`~repro.errors.DuplicateNameError` when the name is taken —
    unless it is taken by the *same content* (identical fingerprint), in
    which case registration is an idempotent no-op.
    """
    if name is not None and name != trace.workload:
        # The workload name is part of the content fingerprint (and of
        # every simulation key), so renaming means re-wrapping copied
        # columns under the new name rather than mutating a possibly-shared
        # trace.
        trace = MemoryTrace(workload=name, seed=trace.seed,
                            columns=tuple(trace._copied_column(index)
                                          for index in range(4)))
    name = trace.workload
    fingerprint_hex = trace_fingerprint_hex(trace)
    trace.description = ingested_description(name, len(trace),
                                             fingerprint_hex)
    existing = _REGISTRY.get(name)
    if existing is not None:
        if getattr(existing, "fingerprint_hex", None) == fingerprint_hex:
            return name
        raise DuplicateNameError(
            f"workload {name!r} is already registered "
            f"({getattr(existing, 'kind', 'synthetic')}) with different "
            f"content; unregister it first or pick another name")
    entry = IngestedWorkload(name=name, loader=lambda: trace,
                             accesses=len(trace),
                             fingerprint_hex=fingerprint_hex, source=source)
    entry._trace = trace
    register_workload(entry)
    return name


def register_trace_file(path: str, name: Optional[str] = None,
                        fmt: Optional[str] = None) -> str:
    """Parse a trace file and register it as an ingested workload.

    Parsing is eager (registration is a one-time cost and errors should
    surface here, not mid-experiment); returns the registered name.
    """
    trace = parse_trace_file(path, fmt=fmt,
                             workload=name or default_trace_name(path))
    return register_trace(trace, source=os.path.abspath(path))


def register_stored_trace(store, meta: Dict[str, object]) -> str:
    """Register one trace-manifest entry from a store, loading lazily.

    ``meta`` is one :meth:`~repro.tracedb.store.TraceStore.trace_manifest`
    row.  The trace payload is only read from disk on first
    :meth:`IngestedWorkload.generate` call.
    """
    name = str(meta["name"])
    fingerprint_hex = str(meta["fingerprint"])
    existing = _REGISTRY.get(name)
    if existing is not None:
        if getattr(existing, "fingerprint_hex", None) == fingerprint_hex:
            return name
        raise DuplicateNameError(
            f"stored trace {name!r} (fingerprint {fingerprint_hex}) "
            f"collides with an already registered "
            f"{getattr(existing, 'kind', 'synthetic')} workload of the "
            f"same name; rename one side")

    def load() -> MemoryTrace:
        trace = store.load_trace(fingerprint_hex)
        if trace is None:
            raise TraceParseError(
                f"stored trace {name!r} (fingerprint {fingerprint_hex}) "
                f"is missing or unreadable in {store.root!r}; re-import it")
        return trace

    entry = IngestedWorkload(name=name, loader=load,
                             accesses=int(meta.get("accesses", 0)),
                             fingerprint_hex=fingerprint_hex,
                             source=str(meta.get("source", "")))
    register_workload(entry)
    return name


def ensure_store_traces_registered(store) -> List[str]:
    """Register every trace in a store's manifest; returns new names.

    Idempotent per (name, fingerprint): already registered identical
    entries are skipped, while a genuine name collision (same name,
    different content or a synthetic generator) raises
    :class:`DuplicateNameError` rather than silently shadowing.
    """
    registered: List[str] = []
    for meta in store.trace_manifest():
        name = str(meta["name"])
        existing = _REGISTRY.get(name)
        if (existing is not None
                and getattr(existing, "fingerprint_hex", None)
                == str(meta["fingerprint"])):
            continue
        registered.append(register_stored_trace(store, meta))
    return registered


def import_trace_file(store, path: str, name: Optional[str] = None,
                      fmt: Optional[str] = None) -> Tuple[str, Dict[str, object]]:
    """Parse a trace file and persist it into a store's trace manifest.

    The single code path behind ``python -m repro trace import``: parses,
    names, stamps the canonical description, writes the record keyed by
    content fingerprint and registers the workload in this process.
    Returns ``(name, manifest_meta)``.
    """
    fmt = fmt or detect_format(path)
    trace = parse_trace_file(path, fmt=fmt,
                             workload=name or default_trace_name(path))
    registered = register_trace(trace, source=os.path.abspath(path))
    store.save_trace(trace, source=os.path.abspath(path), fmt=fmt)
    fingerprint_hex = trace_fingerprint_hex(trace)
    meta = {
        "name": registered,
        "accesses": len(trace),
        "fingerprint": fingerprint_hex,
        "source": os.path.abspath(path),
        "format": fmt,
    }
    return registered, meta
