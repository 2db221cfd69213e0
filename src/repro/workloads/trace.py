"""Memory trace containers consumed by the simulation engine.

:class:`MemoryTrace` is backed by four typed ``array.array`` columns (one
machine word per access instead of a Python object): program counter,
byte address, a flags byte (write / prefetch bits) and the retired
instruction gap feeding the timing model.  The columnar spine gives

* compact storage shared (zero-copy) with slices,
* a fingerprint computed by hashing whole column buffers instead of one
  ``crc32`` call per access,
* raw-array iteration for the simulation hot loops (:meth:`MemoryTrace.columns`),

while :class:`TraceAccess` remains the per-access *row view*: iteration,
indexing and ``trace.accesses`` still yield ``TraceAccess`` objects, so
existing callers are unaffected.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.workloads.symbols import BinaryImage

#: Bit set in the flags column for a store (demand write).
FLAG_WRITE = 0x1
#: Bit set in the flags column for a software-prefetch access.
FLAG_PREFETCH = 0x2

#: array typecodes of the four columns (pc, address, flags,
#: instructions_since_last).  64-bit unsigned words for addresses/PCs and the
#: instruction gap, one byte for the flags.
COLUMN_TYPECODES = ("Q", "Q", "B", "Q")

#: Buffer-capable column storage: a concrete array or a zero-copy window.
ColumnData = Union[array, memoryview]


@dataclass
class TraceAccess:
    """One dynamic memory access.

    ``address`` is a byte address; the cache model converts it to a block
    address.  ``instructions_since_last`` is the number of retired
    instructions between the previous memory access and this one, which feeds
    the analytic IPC model.  ``is_prefetch`` marks software-prefetch requests
    (they warm the cache but do not stall the pipeline).
    """

    pc: int
    address: int
    is_write: bool = False
    instructions_since_last: int = 4
    is_prefetch: bool = False


class _AccessView(Sequence):
    """Read-only ``Sequence[TraceAccess]`` view over a trace's columns.

    Materialises ``TraceAccess`` rows on demand, so legacy callers that index
    or iterate ``trace.accesses`` keep working without the trace storing
    per-access objects.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "MemoryTrace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __iter__(self) -> Iterator[TraceAccess]:
        return iter(self._trace)

    def __getitem__(self, index):
        if isinstance(index, slice):
            trace = self._trace
            return [trace[i] for i in range(*index.indices(len(trace)))]
        return self._trace[index]

    def __repr__(self) -> str:
        return f"<accesses of {self._trace!r}>"


class MemoryTrace:
    """A full workload trace plus its synthetic binary image.

    Data lives in typed columns (see :data:`COLUMN_TYPECODES`); rows are
    materialised as :class:`TraceAccess` only at the API boundary.  Slices
    share the parent's buffers (zero-copy) until mutated.
    """

    def __init__(self, workload: str,
                 accesses: Optional[Iterable[TraceAccess]] = None,
                 binary: Optional[BinaryImage] = None,
                 description: str = "",
                 seed: int = 0,
                 columns: Optional[Tuple[ColumnData, ...]] = None):
        self.workload = workload
        self.binary = binary
        self.description = description
        self.seed = seed
        self._fingerprint: Optional[int] = None
        self._total_instructions: Optional[int] = None
        # Set once this trace has handed buffers to a slice(): the next
        # mutation swaps in fresh copies (arrays cannot grow while a
        # memoryview exports their buffer; the slice keeps the old ones).
        self._buffers_shared = False
        if columns is not None:
            if accesses is not None:
                raise ValueError("pass either accesses or columns, not both")
            self._pc, self._address, self._flags, self._instr = columns
        else:
            self._pc = array("Q")
            self._address = array("Q")
            self._flags = array("B")
            self._instr = array("Q")
            if accesses:
                self.extend(accesses)

    # ------------------------------------------------------------------
    # columnar access (the hot-loop API)
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[ColumnData, ColumnData, ColumnData, ColumnData]:
        """The raw ``(pc, address, flags, instructions_since_last)`` columns.

        Returned objects are the live buffers (arrays, or zero-copy
        memoryviews for sliced traces): index them read-only.
        """
        return self._pc, self._address, self._flags, self._instr

    @property
    def is_view(self) -> bool:
        """True when this trace is a zero-copy window over another trace."""
        return isinstance(self._pc, memoryview)

    def _materialise(self) -> None:
        """Make the columns privately owned and growable (copy-on-write).

        Covers both directions of buffer sharing: a slice materialises its
        memoryviews, and a sliced *parent* sheds the exported buffers (an
        array cannot be resized while a view exports it — the slice keeps
        the old buffers alive).
        """
        if not (self.is_view or self._buffers_shared):
            return
        self._pc, self._address, self._flags, self._instr = tuple(
            self._copied_column(index) for index in range(4))
        self._buffers_shared = False

    def _copied_column(self, index: int) -> array:
        column = (self._pc, self._address, self._flags, self._instr)[index]
        if isinstance(column, array):
            return column[:]
        copied = array(COLUMN_TYPECODES[index])
        copied.frombytes(bytes(column))
        return copied

    def _invalidate(self) -> None:
        self._fingerprint = None
        self._total_instructions = None

    # ------------------------------------------------------------------
    # row-view protocol (TraceAccess at the boundary)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pc)

    def __iter__(self) -> Iterator[TraceAccess]:
        for pc, address, flags, gap in zip(self._pc, self._address,
                                           self._flags, self._instr):
            yield TraceAccess(pc=pc, address=address,
                              is_write=bool(flags & FLAG_WRITE),
                              instructions_since_last=gap,
                              is_prefetch=bool(flags & FLAG_PREFETCH))

    def __getitem__(self, index: int) -> TraceAccess:
        flags = self._flags[index]
        return TraceAccess(pc=self._pc[index], address=self._address[index],
                           is_write=bool(flags & FLAG_WRITE),
                           instructions_since_last=self._instr[index],
                           is_prefetch=bool(flags & FLAG_PREFETCH))

    @property
    def accesses(self) -> _AccessView:
        """Sequence view yielding :class:`TraceAccess` rows on demand."""
        return _AccessView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryTrace):
            return NotImplemented
        return (self.workload == other.workload
                and self.seed == other.seed
                and self.description == other.description
                and all(bytes(memoryview(mine)) == bytes(memoryview(theirs))
                        for mine, theirs in zip(self.columns(), other.columns())))

    def __repr__(self) -> str:
        kind = "view" if self.is_view else "owned"
        return (f"MemoryTrace(workload={self.workload!r}, "
                f"accesses={len(self)}, seed={self.seed}, {kind})")

    # ------------------------------------------------------------------
    # pickling (views materialise; arrays pickle natively)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "workload": self.workload,
            "binary": self.binary,
            "description": self.description,
            "seed": self.seed,
            "columns": tuple(self._copied_column(index) for index in range(4)),
        }

    def __setstate__(self, state: dict) -> None:
        self.workload = state["workload"]
        self.binary = state["binary"]
        self.description = state["description"]
        self.seed = state["seed"]
        self._pc, self._address, self._flags, self._instr = state["columns"]
        self._fingerprint = None
        self._total_instructions = None
        self._buffers_shared = False

    # ------------------------------------------------------------------
    # derived values (memoised; invalidated by append/extend)
    # ------------------------------------------------------------------
    @property
    def total_instructions(self) -> int:
        """Total retired instructions represented by the trace (memoised)."""
        cached = self._total_instructions
        if cached is None:
            cached = sum(gap + 1 for flags, gap in zip(self._flags, self._instr)
                         if not flags & FLAG_PREFETCH)
            self._total_instructions = cached
        return cached

    def fingerprint(self) -> int:
        """Content hash of the access stream (cached after first call).

        Memoisation keys use this instead of (workload, length, seed)
        metadata alone, so a hand-built trace that happens to share those
        attributes with a generated one cannot collide.  The digest is a
        ``crc32`` over the workload name followed by each raw column buffer
        — four ``crc32`` calls total instead of one per access — with
        buffers normalised to little-endian so fingerprints (and therefore
        memoiser keys and store digests) are identical across hosts.
        Traces are treated as immutable once fingerprinted: :meth:`append` /
        :meth:`extend` invalidate the cache, but writing into the columns
        directly does not — mutate a copy instead.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        digest = zlib.crc32(self.workload.encode("utf-8"))
        big_endian = sys.byteorder == "big"
        for index, column in enumerate(self.columns()):
            if big_endian:
                swapped = self._copied_column(index)
                swapped.byteswap()
                buffer = memoryview(swapped)
            else:
                buffer = memoryview(column)
            digest = zlib.crc32(buffer, digest)
        self._fingerprint = digest
        return digest

    @property
    def unique_pcs(self) -> List[int]:
        seen = set()
        ordered = []
        for pc in self._pc:
            if pc not in seen:
                seen.add(pc)
                ordered.append(pc)
        return ordered

    @property
    def unique_addresses(self) -> List[int]:
        seen = set()
        ordered = []
        for address in self._address:
            if address not in seen:
                seen.add(address)
                ordered.append(address)
        return ordered

    def pc_access_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for pc in self._pc:
            counts[pc] = counts.get(pc, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # mutation (copy-on-write for views)
    # ------------------------------------------------------------------
    def append(self, access: TraceAccess) -> None:
        self._materialise()
        self._pc.append(access.pc)
        self._address.append(access.address)
        self._flags.append((FLAG_WRITE if access.is_write else 0)
                           | (FLAG_PREFETCH if access.is_prefetch else 0))
        self._instr.append(access.instructions_since_last)
        self._invalidate()

    def extend(self, accesses: Iterable[TraceAccess]) -> None:
        self._materialise()
        pc_append = self._pc.append
        address_append = self._address.append
        flags_append = self._flags.append
        instr_append = self._instr.append
        for access in accesses:
            pc_append(access.pc)
            address_append(access.address)
            flags_append((FLAG_WRITE if access.is_write else 0)
                         | (FLAG_PREFETCH if access.is_prefetch else 0))
            instr_append(access.instructions_since_last)
        self._invalidate()

    # ------------------------------------------------------------------
    # derived traces
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: Optional[int] = None) -> "MemoryTrace":
        """Return a zero-copy window of accesses sharing this trace's buffers.

        The slice references the parent columns through memoryviews; a
        mutation (``append``/``extend``) on either side copies first, so
        neither ever observes the other's changes.
        """
        self._buffers_shared = True
        return MemoryTrace(
            workload=self.workload,
            binary=self.binary,
            description=self.description,
            seed=self.seed,
            columns=tuple(memoryview(column)[start:stop]
                          for column in self.columns()),
        )


def insert_prefetches(trace: MemoryTrace,
                      prefetch_plan: Sequence[tuple],
                      prefetch_pc: int) -> MemoryTrace:
    """Insert software prefetch accesses into a trace.

    ``prefetch_plan`` is a sequence of ``(position, address)`` tuples meaning
    "before the access at index ``position``, issue a prefetch of
    ``address``".  The resulting trace models a recompiled binary with
    ``__builtin_prefetch`` calls added (software-prefetch use case, section
    6.3 of the paper).
    """
    plan_by_position: Dict[int, List[int]] = {}
    for position, address in prefetch_plan:
        plan_by_position.setdefault(position, []).append(address)

    new_trace = MemoryTrace(
        workload=trace.workload,
        binary=trace.binary,
        description=trace.description + " (+software prefetch)",
        seed=trace.seed,
    )
    for index, access in enumerate(trace):
        for address in plan_by_position.get(index, ()):  # prefetches first
            new_trace.append(
                TraceAccess(
                    pc=prefetch_pc,
                    address=address,
                    is_write=False,
                    instructions_since_last=0,
                    is_prefetch=True,
                )
            )
        new_trace.append(access)
    return new_trace
