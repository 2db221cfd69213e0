"""Pointer-chasing microbenchmark used by the software-prefetch use case.

Section 6.3 of the paper builds a microbenchmark "designed to generate misses
from a single dominant load instruction at an initially unknown PC".  The
workflow is:

1. simulate the microbenchmark, build the trace database,
2. ask CacheMind which PC causes the most misses and what its miss rate is,
3. insert a software prefetch for that PC's future addresses,
4. re-simulate and observe a large IPC improvement (0.131 -> 0.231 in the
   paper, roughly a 76% speedup).

:class:`PointerChaseMicrobenchmark` emits a trace dominated by one load PC
walking a pseudo-random chain over an array far larger than the LLC, plus a
handful of low-miss housekeeping PCs.  :meth:`prefetch_plan` returns the
(position, address) schedule that models adding ``__builtin_prefetch`` with a
given lookahead distance.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.workloads.generator import WorkloadGenerator, register_workload
from repro.workloads.symbols import BinaryImage
from repro.workloads.trace import MemoryTrace, TraceAccess


@register_workload
class PointerChaseMicrobenchmark(WorkloadGenerator):
    """Linked-list traversal with a single dominant miss-causing load PC."""

    name = "pointer_chase"
    description = (
        "Pointer-chasing microbenchmark: a single load walks a pseudo-random "
        "linked list far larger than the LLC, so one PC causes nearly all "
        "misses; loop-control and accumulator accesses almost always hit."
    )
    dominant_pattern = "single dominant miss-causing load in a pointer chase"
    working_set_blocks = 16384

    REGION_LIST = 0x602000000
    REGION_ACC = 0x603000000

    #: PC of the software prefetch instruction added by the "fixed" binary.
    PREFETCH_PC = 0x4006a0

    def build_binary(self, rng: random.Random) -> BinaryImage:
        binary = BinaryImage(self.name)
        binary.add_function(
            "chase_list", 0x400500, 20,
            ["pointer", "load", "compute"],
            rng, description="walks the linked list: node = node->next",
        )
        binary.add_function(
            "update_accumulator", 0x400700, 12,
            ["load", "store"],
            rng, description="accumulates a checksum in a tiny hot buffer",
        )
        return binary

    @property
    def chase_pc(self) -> int:
        """PC of the dominant pointer-chasing load."""
        return self.binary.functions[0].memory_pcs[0]

    def _chain(self, rng: random.Random) -> List[int]:
        chain = list(range(self.working_set_blocks))
        rng.shuffle(chain)
        return chain

    def emit_accesses(self, num_accesses: int, rng: random.Random) -> List[TraceAccess]:
        chase_pcs = self.binary.functions[0].memory_pcs
        acc_pcs = self.binary.functions[1].memory_pcs
        chain = self._chain(random.Random(self.seed ^ 0xC0FFEE))

        accesses: List[TraceAccess] = []
        cursor = 0
        while len(accesses) < num_accesses:
            # The dominant load: follow the next pointer (always a miss once
            # the list exceeds the LLC).
            cursor = chain[cursor % len(chain)]
            accesses.append(TraceAccess(
                pc=chase_pcs[0],
                address=self.block_address(self.REGION_LIST, cursor),
                is_write=False,
                instructions_since_last=6,
            ))
            # A second load reads the payload of the same node (spatial hit
            # when it lands in the same block, occasionally the next block).
            if len(accesses) < num_accesses:
                payload_block = cursor if rng.random() < 0.8 else (cursor + 1) % len(chain)
                accesses.append(TraceAccess(
                    pc=chase_pcs[1],
                    address=self.block_address(self.REGION_LIST, payload_block),
                    is_write=False,
                    instructions_since_last=2,
                ))
            # Accumulator update: tiny hot region, always hits.
            if len(accesses) < num_accesses:
                accesses.append(TraceAccess(
                    pc=acc_pcs[rng.randrange(len(acc_pcs))],
                    address=self.block_address(self.REGION_ACC, rng.randrange(4)),
                    is_write=True,
                    instructions_since_last=3,
                ))
        return accesses[:num_accesses]

    # ------------------------------------------------------------------
    # software prefetch modelling
    # ------------------------------------------------------------------
    def prefetch_plan(self, trace: MemoryTrace, target_pc: int,
                      lookahead: int = 8) -> List[Tuple[int, int]]:
        """Build a (position, address) prefetch schedule for ``target_pc``.

        The schedule prefetches the address that ``target_pc`` will access
        ``lookahead`` occurrences in the future, at the position of the
        current occurrence — the software analogue of adding
        ``__builtin_prefetch(&node_array[next_index])`` inside the loop.
        """
        positions = [i for i, access in enumerate(trace.accesses)
                     if access.pc == target_pc and not access.is_prefetch]
        plan: List[Tuple[int, int]] = []
        for occurrence, position in enumerate(positions):
            future = occurrence + lookahead
            if future >= len(positions):
                break
            future_address = trace.accesses[positions[future]].address
            plan.append((position, future_address))
        return plan
