"""A row-at-a-time builder of the per-access table: the test suite's
reference for :meth:`repro.tracedb.schema.AccessLog.to_table`.

``AccessLog.to_table`` builds the paper's section 4.3 table column by
column, with the snapshot columns formatted on first read.  This oracle
builds the same table the slow way: one :class:`AccessRecord` per log row,
each turned into a row dictionary by :meth:`AccessRecord.to_row`, and the
rows transposed by :meth:`Table.from_rows`.  Only the per-value formatters
(``format_pc``, ``describe_recency``, ...) and the log's row decoders
(``row_lines``, ``row_history``, ``row_scores``) are shared, so a column
built or ordered wrongly by the columnar path shows up as a difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.tracedb.schema import (
    ACCESS_COLUMNS,
    HIT_LABEL,
    MISS_LABEL,
    MISS_TYPE_LABELS,
    MISS_TYPE_NONE,
    NEVER_REUSED,
    AccessLog,
    describe_recency,
    describe_reuse_distance,
    format_address,
    format_pc,
)
from repro.tracedb.table import Table


@dataclass
class AccessRecord:
    """One LLC access with its eviction / reuse / source-context annotations."""

    access_index: int
    program_counter: int
    memory_address: int
    cache_set_id: int
    is_hit: bool
    miss_type: str = MISS_TYPE_NONE
    evicted_address: Optional[int] = None
    accessed_reuse_distance: Optional[int] = None
    evicted_reuse_distance: Optional[int] = None
    accessed_recency: Optional[int] = None
    function_name: str = ""
    function_code: str = ""
    assembly_code: str = ""
    current_cache_lines: List[Tuple[int, int]] = field(default_factory=list)
    recent_access_history: List[Tuple[int, int]] = field(default_factory=list)
    cache_line_eviction_scores: List[Tuple[int, float]] = field(
        default_factory=list)

    def to_row(self) -> Dict[str, Any]:
        """This record as a row of :data:`ACCESS_COLUMNS`."""
        current_lines = [(format_address(addr), format_pc(pc))
                         for addr, pc in self.current_cache_lines]
        history = [(format_address(addr), format_pc(pc))
                   for addr, pc in self.recent_access_history]
        return {
            "access_index": self.access_index,
            "program_counter": format_pc(self.program_counter),
            "memory_address": format_address(self.memory_address),
            "cache_set_id": self.cache_set_id,
            "evict": HIT_LABEL if self.is_hit else MISS_LABEL,
            "miss_type": self.miss_type,
            "evicted_address": (format_address(self.evicted_address)
                                if self.evicted_address is not None else ""),
            "accessed_address_recency": describe_recency(
                self.accessed_recency),
            "accessed_address_reuse_distance": describe_reuse_distance(
                self.accessed_reuse_distance),
            "evicted_address_reuse_distance": describe_reuse_distance(
                self.evicted_reuse_distance),
            "function_name": self.function_name,
            "function_code": self.function_code,
            "assembly_code": self.assembly_code,
            "current_cache_lines": current_lines,
            "recent_access_history": history,
            "cache_line_eviction_scores": list(
                self.cache_line_eviction_scores),
            "current_cache_line_addresses": [addr for addr, _pc
                                             in current_lines],
            "evicted_address_reuse_distance_numeric": _or_never(
                self.evicted_reuse_distance),
            "accessed_address_reuse_distance_numeric": _or_never(
                self.accessed_reuse_distance),
            "accessed_address_recency_numeric": _or_never(
                self.accessed_recency),
            "is_miss": 0 if self.is_hit else 1,
        }


def _or_never(value: Optional[int]) -> int:
    return NEVER_REUSED if value is None else value


def _or_none(value: int) -> Optional[int]:
    return None if value == NEVER_REUSED else value


def to_records(log: AccessLog) -> List[AccessRecord]:
    """One :class:`AccessRecord` per row of ``log``."""
    return [AccessRecord(
                access_index=log.access_indices[i],
                program_counter=log.pcs[i],
                memory_address=log.block_addresses[i],
                cache_set_id=log.set_ids[i],
                is_hit=bool(log.hit_flags[i]),
                miss_type=MISS_TYPE_LABELS[log.miss_type_codes[i]],
                evicted_address=(None if log.evicted_blocks[i] < 0
                                 else log.evicted_blocks[i]),
                accessed_reuse_distance=_or_none(log.accessed_reuse[i]),
                evicted_reuse_distance=_or_none(log.evicted_reuse[i]),
                accessed_recency=_or_none(log.recencies[i]),
                function_name=log.function_names[i],
                function_code=log.function_codes[i],
                assembly_code=log.assembly_codes[i],
                current_cache_lines=log.row_lines(i),
                recent_access_history=log.row_history(i),
                cache_line_eviction_scores=log.row_scores(i))
            for i in range(len(log))]


def records_to_table(records: Sequence[AccessRecord]) -> Table:
    """The per-access table of ``records``, built row by row."""
    return Table.from_rows([record.to_row() for record in records],
                           columns=ACCESS_COLUMNS)
