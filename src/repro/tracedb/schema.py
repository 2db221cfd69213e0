"""Per-access record schema for the external trace database.

Section 4.3 of the paper documents one row per LLC access with the columns
listed in :data:`ACCESS_COLUMNS`.  :class:`AccessLog` is the columnar
in-memory representation the simulation engine writes (typed arrays plus
ragged object columns).  It stores the scalar columns and the two snapshots
that depend on policy state — each row's resident ``(block, pc)`` lines
and their eviction scores — and derives the rest on read: a row's recent
access history (the :data:`HISTORY_WINDOW` rows before it) from the PC and
block columns, and its score blocks from its resident lines.
:meth:`AccessLog.to_table` builds the canonical
:class:`~repro.tracedb.table.Table` column-by-column, which is what Sieve
filters and Ranger-generated code query.  Its 17 scalar columns are built
eagerly; the four policy-snapshot columns are
:class:`~repro.tracedb.table.LazyColumn` views over the log's flat arrays,
each cell formatted on first read.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.tracedb.table import LazyColumn, Table

#: Column order of the per-access data frame (paper section 4.3).
ACCESS_COLUMNS: Tuple[str, ...] = (
    "access_index",
    "program_counter",
    "memory_address",
    "cache_set_id",
    "evict",
    "miss_type",
    "evicted_address",
    "accessed_address_recency",
    "accessed_address_reuse_distance",
    "evicted_address_reuse_distance",
    "function_name",
    "function_code",
    "assembly_code",
    "current_cache_lines",
    "recent_access_history",
    "cache_line_eviction_scores",
    "current_cache_line_addresses",
    "evicted_address_reuse_distance_numeric",
    "accessed_address_reuse_distance_numeric",
    "accessed_address_recency_numeric",
    "is_miss",
)

#: Value stored in ``evict`` for a hit / miss (the paper reuses the column
#: name ``evict`` for the access outcome).
HIT_LABEL = "Cache Hit"
MISS_LABEL = "Cache Miss"

#: Miss taxonomy labels.
MISS_TYPE_NONE = ""
MISS_TYPE_COMPULSORY = "Compulsory"
MISS_TYPE_CAPACITY = "Capacity"
MISS_TYPE_CONFLICT = "Conflict"

#: Sentinel reuse distance for "never reused again".
NEVER_REUSED = -1

#: Rows before an access that its ``recent_access_history`` cell lists.
HISTORY_WINDOW = 8

#: Miss-type labels indexed by the byte code stored in ``AccessLog``.
MISS_TYPE_LABELS = (MISS_TYPE_NONE, MISS_TYPE_COMPULSORY, MISS_TYPE_CAPACITY,
                    MISS_TYPE_CONFLICT)
#: Inverse mapping (label -> byte code) used by producers.
MISS_TYPE_CODES = {label: code for code, label in enumerate(MISS_TYPE_LABELS)}


def format_pc(pc: int) -> str:
    """Render a program counter the way the paper does (``0x401e31``)."""
    # hex() spells an unsigned value as f"0x{pc:x}" does, in half the time.
    return hex(pc)


def format_address(address: int) -> str:
    """Render a memory (block) address the way the paper does."""
    return hex(address)


def _formatted(pairs: List[Tuple[int, int]]) -> List[Tuple[str, str]]:
    """``(block, pc)`` pairs as the ``(address, pc)`` strings of a row."""
    return [(format_address(addr), format_pc(pc)) for addr, pc in pairs]


def describe_recency(recency: Optional[int]) -> str:
    """Map a numeric recency (intervening accesses) onto the textual
    descriptor stored in ``accessed_address_recency``."""
    if recency is None or recency < 0:
        return "never seen before"
    if recency <= 8:
        return "very recently accessed"
    if recency <= 64:
        return "recently accessed"
    if recency <= 512:
        return "moderately recent"
    return "not recently accessed"


def describe_reuse_distance(distance: Optional[int]) -> str:
    """Map a numeric forward reuse distance onto a textual descriptor."""
    if distance is None or distance < 0:
        return "never reused"
    if distance <= 16:
        return f"reused almost immediately (in {distance} accesses)"
    if distance <= 256:
        return f"reused soon (in {distance} accesses)"
    if distance <= 4096:
        return f"reused after a while (in {distance} accesses)"
    return f"reused far in the future (in {distance} accesses)"


#: The log columns held in typed arrays, in the order a store record's log
#: section holds them.
LOG_ARRAYS: Tuple[str, ...] = (
    "access_indices", "pcs", "block_addresses", "set_ids", "hit_flags",
    "miss_type_codes", "evicted_blocks", "accessed_reuse", "evicted_reuse",
    "recencies", "line_pairs", "line_offsets", "score_values",
    "score_offsets")


class AccessLog:
    """Columnar per-access annotations (the engine's output).

    Scalar columns live in typed arrays (``-1`` encodes "absent" for the
    optional reuse/recency/eviction values, matching :data:`NEVER_REUSED`).
    Only the two snapshot columns that depend on policy state are stored,
    packed into *flat* typed arrays plus prefix-offset arrays (row ``i``
    owns the flat span ``offsets[i]:offsets[i+1]``): ``line_pairs`` holds
    the set's resident ``(block, pc)`` lines, interleaved, and
    ``score_values`` the policy's eviction score of each of those lines, in
    the same order.  So the whole log is raw buffers (:data:`LOG_ARRAYS`)
    plus per-PC text: no per-tuple object cost, and a store record holds
    the buffers as they are.  The rest is derived on read from these
    columns:

    * a row's score blocks are the leading blocks of its ``line_pairs``
      span (:meth:`row_scores`);
    * its recent access history is the ``(block, pc)`` of the previous
      :data:`HISTORY_WINDOW` rows (:meth:`row_history`), because row ``i``
      is stream position ``i``.

    Source context is a pure function of the PC (:meth:`pc_context`); the
    per-row string lists share one string object per distinct text
    (:meth:`set_pc_context`).  ``to_table`` builds the canonical data
    frame directly from these columns — no intermediate row dictionaries,
    snapshot cells only when read.

    A log loaded from a store is *deferred* (:meth:`deferred`): its length
    is known, and the first read of any column decodes them all
    (:meth:`decode`).
    """

    __slots__ = ("access_indices", "pcs", "block_addresses", "set_ids",
                 "hit_flags", "miss_type_codes", "evicted_blocks",
                 "accessed_reuse", "evicted_reuse", "recencies",
                 "function_names", "function_codes", "assembly_codes",
                 "line_pairs", "line_offsets", "score_values",
                 "score_offsets", "_pending")

    #: What a log pickles and copies: every slot but the pending decode.
    _STATE = __slots__[:-1]

    def __init__(self) -> None:
        self.access_indices = array("Q")
        self.pcs = array("Q")
        self.block_addresses = array("Q")
        self.set_ids = array("Q")
        self.hit_flags = array("B")
        self.miss_type_codes = array("B")
        self.evicted_blocks = array("q")      # -1 = no eviction
        self.accessed_reuse = array("q")      # NEVER_REUSED = never reused
        self.evicted_reuse = array("q")
        self.recencies = array("q")           # NEVER_REUSED = never seen
        self.function_names: List[str] = []
        self.function_codes: List[str] = []
        self.assembly_codes: List[str] = []
        # Ragged columns: interleaved (block, pc) pairs and the parallel
        # scores, with per-row prefix offsets into them.
        self.line_pairs = array("Q")
        self.line_offsets = array("Q", [0])
        self.score_values = array("d")
        self.score_offsets = array("Q", [0])
        self._pending = None

    @classmethod
    def deferred(cls, rows: int, context: Dict[int, Tuple[str, str, str]],
                 decode: Callable[[], Dict[str, array]]) -> "AccessLog":
        """A log of ``rows`` rows whose :data:`LOG_ARRAYS` come from
        ``decode()``, called on the first read of any column; ``context``
        is its :meth:`pc_context`.  Until then ``len`` answers from
        ``rows`` and nothing is decoded."""
        log = cls.__new__(cls)
        log._pending = (rows, context, decode)
        return log

    def decode(self) -> None:
        """Publish a deferred log's columns now (a no-op on any other
        log).  Every column is set before the pending decode is dropped,
        so two racing first readers at worst decode twice."""
        pending = self._pending
        if pending is None:
            return
        _rows, context, decode = pending
        for name, column in decode().items():
            setattr(self, name, column)
        self.set_pc_context(context)
        self._pending = None

    def __getattr__(self, name: str) -> Any:
        # Reached only for an unset slot: a deferred log's columns.
        if name in AccessLog._STATE:
            self.decode()
        return object.__getattribute__(self, name)

    def __len__(self) -> int:
        pending = self._pending
        if pending is not None:
            return pending[0]
        return len(self.access_indices)

    # Pickle and copy support: __slots__ classes have no __dict__, and the
    # arrays themselves serialise as raw buffers.  A deferred log decodes
    # first, so it pickles exactly as the log it decodes to.
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self._STATE)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self._STATE, state):
            setattr(self, name, value)
        self._pending = None

    # ------------------------------------------------------------------
    # source context
    # ------------------------------------------------------------------
    def pc_context(self) -> Dict[int, Tuple[str, str, str]]:
        """Each PC's ``(function name, source, assembly)``, in first-seen
        order (context is a pure function of the PC)."""
        return dict(zip(self.pcs, zip(self.function_names,
                                      self.function_codes,
                                      self.assembly_codes)))

    def set_pc_context(self,
                       context: Dict[int, Tuple[str, str, str]]) -> None:
        """Fill the per-row context columns from a per-PC map.  Each
        distinct text becomes one shared string object, so two logs with
        equal content pickle to equal bytes however their text was
        built."""
        shared: Dict[str, str] = {}
        by_pc = {pc: tuple(shared.setdefault(text, text) for text in texts)
                 for pc, texts in context.items()}
        by_row = [by_pc[pc] for pc in self.pcs]
        self.function_names = [row[0] for row in by_row]
        self.function_codes = [row[1] for row in by_row]
        self.assembly_codes = [row[2] for row in by_row]

    # ------------------------------------------------------------------
    # ragged-row decoding
    # ------------------------------------------------------------------
    def row_lines(self, i: int) -> List[Tuple[int, int]]:
        """Resident ``(block, pc)`` pairs of row ``i``."""
        flat = self.line_pairs
        start, stop = self.line_offsets[i], self.line_offsets[i + 1]
        return [(flat[j], flat[j + 1]) for j in range(start, stop, 2)]

    def row_history(self, i: int) -> List[Tuple[int, int]]:
        """``(block, pc)`` of the up to :data:`HISTORY_WINDOW` rows before
        row ``i``, oldest first."""
        start = max(0, i - HISTORY_WINDOW)
        return list(zip(self.block_addresses[start:i], self.pcs[start:i]))

    def row_scores(self, i: int) -> List[Tuple[int, float]]:
        """Eviction-score ``(block, score)`` pairs of row ``i``: each score
        with the block of the resident line it belongs to."""
        start, stop = self.score_offsets[i], self.score_offsets[i + 1]
        lines = self.line_offsets[i]
        return list(zip(self.line_pairs[lines:lines + 2 * (stop - start):2],
                        self.score_values[start:stop]))

    # ------------------------------------------------------------------
    def to_table(self) -> Table:
        """Build the canonical data frame column-by-column (no row dicts).

        The scalar columns are built now.  The four snapshot columns are
        :class:`LazyColumn` views over the flat arrays: a cell is formatted
        when first read, so a table whose snapshots nobody reads costs no
        snapshot formatting.
        """
        size = len(self)
        lines = LazyColumn(lambda i: _formatted(self.row_lines(i)), size)
        # Each distinct PC, block and reuse distance is formatted once, and
        # its rows share the text.
        pc_text = {pc: format_pc(pc) for pc in set(self.pcs)}
        block_text = {block: format_address(block) if block >= 0 else ""
                      for block in {*self.block_addresses, *self.evicted_blocks}}
        # describe_recency / describe_reuse_distance already treat a
        # negative value exactly like None, so the -1 encoding feeds them
        # directly.
        reuse_text = {value: describe_reuse_distance(value)
                      for value in {*self.accessed_reuse, *self.evicted_reuse}}
        columns: Dict[str, Any] = {
            "access_index": list(self.access_indices),
            "program_counter": [pc_text[pc] for pc in self.pcs],
            "memory_address": [block_text[block]
                               for block in self.block_addresses],
            "cache_set_id": list(self.set_ids),
            "evict": [HIT_LABEL if hit else MISS_LABEL
                      for hit in self.hit_flags],
            "miss_type": [MISS_TYPE_LABELS[code]
                          for code in self.miss_type_codes],
            "evicted_address": [block_text[block]
                                for block in self.evicted_blocks],
            "accessed_address_recency": [describe_recency(value)
                                         for value in self.recencies],
            "accessed_address_reuse_distance": [
                reuse_text[value] for value in self.accessed_reuse],
            "evicted_address_reuse_distance": [
                reuse_text[value] for value in self.evicted_reuse],
            "function_name": list(self.function_names),
            "function_code": list(self.function_codes),
            "assembly_code": list(self.assembly_codes),
            "current_cache_lines": lines,
            "recent_access_history": LazyColumn(
                lambda i: _formatted(self.row_history(i)), size),
            "cache_line_eviction_scores": LazyColumn(self.row_scores, size),
            # Shares the address strings of the row's current_cache_lines.
            "current_cache_line_addresses": LazyColumn(
                lambda i: [addr for addr, _pc in lines[i]], size),
            "evicted_address_reuse_distance_numeric": list(self.evicted_reuse),
            "accessed_address_reuse_distance_numeric": list(self.accessed_reuse),
            "accessed_address_recency_numeric": list(self.recencies),
            "is_miss": [0 if hit else 1 for hit in self.hit_flags],
        }
        return Table.from_columns({name: columns[name]
                                   for name in ACCESS_COLUMNS})
