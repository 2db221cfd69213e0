"""Analytic CPU timing model.

The actionable-insight use cases in the paper report IPC/speedup numbers from
ChampSim.  A full out-of-order core model is out of scope, so this module
provides a deliberately simple but well-defined analytic model:

* every retired instruction costs ``1 / retire_width`` cycles of base work;
* a demand load that is serviced by level ``L`` adds a stall of
  ``latency(L) * (1 - overlap_factor)`` cycles — the overlap factor stands in
  for memory-level parallelism and out-of-order latency tolerance;
* store and software-prefetch accesses never stall the pipeline (they retire
  through the store queue / are purely speculative warm-ups);
* L1 hits are assumed fully pipelined (no stall).

The model is applied once, as a post-pass over one service-level code per
trace access (:func:`timing_from_levels`).  Every float total is a
sequential accumulation in trace order (``np.cumsum``; ``np.sum`` would sum
pairwise and round differently), so the numbers do not depend on which
replay path produced the levels.

This is enough for the reproduction's purposes: IPC improves when the miss
profile improves, and the *relative* changes (bypass, prefetching, Mockingjay
training) follow the same direction as the paper's ChampSim experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.sim.config import HierarchyConfig
from repro.workloads.trace import FLAG_PREFETCH

#: Service levels an access can be satisfied from.
LEVEL_L1 = "l1"
LEVEL_L2 = "l2"
LEVEL_LLC = "llc"
LEVEL_DRAM = "dram"

#: The levels in code order: the service-level code of an access indexes
#: this tuple.
LEVELS = (LEVEL_L1, LEVEL_L2, LEVEL_LLC, LEVEL_DRAM)
CODE_L1, CODE_L2, CODE_LLC, CODE_DRAM = range(len(LEVELS))


@dataclass
class TimingResult:
    """Cycle/instruction accounting for one simulation."""

    instructions: int = 0
    base_cycles: float = 0.0
    stall_cycles: float = 0.0
    stalls_by_level: Dict[str, float] = field(default_factory=dict)
    accesses_by_level: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.base_cycles + self.stall_cycles

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0


def _sequential_sum(column: np.ndarray) -> float:
    """Left-to-right float sum, as a Python loop of ``+=`` would give it."""
    return float(np.cumsum(column)[-1]) if len(column) else 0.0


def base_timing(flags: np.ndarray, instructions_since_last: np.ndarray,
                retire_width: int) -> Tuple[int, float]:
    """``(instructions, base_cycles)``: every non-prefetch access retires
    its instruction gap plus itself."""
    retired = np.where(flags & FLAG_PREFETCH, 0, instructions_since_last + 1)
    return int(retired.sum()), _sequential_sum(retired / retire_width)


def timing_from_levels(config: HierarchyConfig, levels: np.ndarray,
                       demand: np.ndarray, instructions: int,
                       base_cycles: float) -> TimingResult:
    """Apply the model to one service-level code per trace access.

    ``demand`` marks the accesses that can stall (neither write nor
    prefetch).  Level dictionaries list only the levels that occur, in
    :data:`LEVELS` order.
    """
    overlap = 1.0 - config.core.overlap_factor
    to_l2 = config.l1d.latency_cycles + config.l2.latency_cycles
    to_llc = to_l2 + config.llc.latency_cycles
    to_dram = to_llc + config.dram.access_latency_cycles
    stall_of_level = np.array([0.0, float(to_l2) * overlap,
                               float(to_llc) * overlap,
                               float(to_dram) * overlap])
    stalling = demand & (levels != CODE_L1)
    stall = np.where(stalling, stall_of_level[levels], 0.0)
    counts = np.bincount(levels, minlength=len(LEVELS))
    events = np.bincount(levels[stalling], minlength=len(LEVELS))
    timing = TimingResult(instructions=instructions, base_cycles=base_cycles,
                          stall_cycles=_sequential_sum(stall))
    for code, level in enumerate(LEVELS):
        if counts[code]:
            timing.accesses_by_level[level] = int(counts[code])
        if events[code]:
            # The level's stall, added once per stalling access.
            timing.stalls_by_level[level] = _sequential_sum(
                np.full(events[code], stall_of_level[code]))
    return timing
