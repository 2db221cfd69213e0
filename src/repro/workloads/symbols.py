"""Synthetic binary image: PC -> function / source / assembly mapping.

The trace database links every program counter to its function name, a short
source snippet and a disassembly window (paper section 4.3 and Figure 2).
Real SPEC binaries are not available offline, so each workload builds a
:class:`BinaryImage` describing a plausible set of functions and instructions.
The image is deterministic for a given seed so that bench questions generated
from the database remain verifiable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: A tiny pool of x86-64 instruction templates used to synthesise assembly.
_ASM_TEMPLATES = (
    "mov    -0x{off:x}(%rbp),%eax",
    "mov    %rax,-0x{off:x}(%rbp)",
    "mov    (%rdi,%rax,8),%rdx",
    "lea    0x{off:x}(%rip),%rsi",
    "add    $0x{imm:x},%eax",
    "sub    $0x{imm:x},%rsp",
    "cmp    %eax,%edx",
    "test   %al,%al",
    "jne    0x{target:x}",
    "je     0x{target:x}",
    "jmp    0x{target:x}",
    "imul   $0x{imm:x},%eax,%eax",
    "movsd  (%rax),%xmm0",
    "movsd  %xmm0,(%rdx)",
    "addsd  %xmm1,%xmm0",
    "mulsd  0x{off:x}(%rsp),%xmm2",
    "call   0x{target:x}",
    "ret",
    "nop",
    "push   %rbx",
    "pop    %rbx",
    "xor    %eax,%eax",
)

#: Source-line templates keyed by the memory behaviour of the instruction.
_SOURCE_TEMPLATES = {
    "load": "value = {array}[{index}];",
    "store": "{array}[{index}] = value;",
    "pointer": "node = node->{field};",
    "stream": "dst[{index}] = f({array}[{index}]);",
    "compute": "acc += {array}_{index} * weight;",
    "control": "if ({array}[{index}] > threshold) break;",
}


@dataclass
class Instruction:
    """One static instruction in the synthetic binary."""

    pc: int
    mnemonic: str
    is_memory: bool
    kind: str  # load / store / pointer / stream / compute / control
    source_line: str


@dataclass
class FunctionImage:
    """A contiguous group of instructions with a (mangled) function name."""

    name: str
    base_pc: int
    instructions: List[Instruction] = field(default_factory=list)
    description: str = ""

    @property
    def memory_pcs(self) -> List[int]:
        return [ins.pc for ins in self.instructions if ins.is_memory]

    def source_snippet(self) -> str:
        """Render a short C-like snippet for the whole function."""
        lines = [f"/* {self.description or self.name} */",
                 f"void {self.name.split('(')[0]}(...) {{"]
        for ins in self.instructions:
            if ins.is_memory:
                lines.append(f"    {ins.source_line}")
        lines.append("}")
        return "\n".join(lines)


class BinaryImage:
    """Collection of synthetic functions with PC lookup helpers."""

    def __init__(self, program_name: str):
        self.program_name = program_name
        self.functions: List[FunctionImage] = []
        self._pc_to_function: Dict[int, FunctionImage] = {}
        self._pc_to_instruction: Dict[int, Instruction] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_function(self, name: str, base_pc: int, num_instructions: int,
                     memory_kinds: Sequence[str], rng: random.Random,
                     description: str = "") -> FunctionImage:
        """Create a function whose memory instructions follow ``memory_kinds``.

        ``memory_kinds`` lists the behaviour (``load``/``store``/``pointer``/
        ``stream``/``compute``/``control``) of each memory instruction to
        create; non-memory filler instructions are interleaved between them.
        """
        function = FunctionImage(name=name, base_pc=base_pc, description=description)
        pc = base_pc
        kinds = list(memory_kinds)
        memory_positions = sorted(
            rng.sample(range(num_instructions), min(len(kinds), num_instructions))
        )
        kind_iter = iter(kinds)
        position_set = set(memory_positions)
        for slot in range(num_instructions):
            is_memory = slot in position_set
            if is_memory:
                kind = next(kind_iter)
                template = _SOURCE_TEMPLATES[kind]
                source = template.format(
                    array=rng.choice(("grid", "nodes", "arcs", "cells", "lattice", "buf")),
                    index=rng.choice(("i", "j", "k", "idx", "i + 1", "ptr->next")),
                    field=rng.choice(("next", "child", "parent", "tail", "head")),
                )
                if kind in ("load", "pointer", "stream", "compute", "control"):
                    mnemonic = rng.choice(
                        ("mov    (%rdi,%rax,8),%rdx",
                         "mov    -0x{:x}(%rbp),%eax".format(rng.randrange(8, 128, 8)),
                         "movsd  (%rax),%xmm0")
                    )
                else:
                    mnemonic = rng.choice(
                        ("mov    %rax,-0x{:x}(%rbp)".format(rng.randrange(8, 128, 8)),
                         "movsd  %xmm0,(%rdx)")
                    )
            else:
                kind = "filler"
                source = ""
                template = rng.choice(_ASM_TEMPLATES)
                mnemonic = template.format(
                    off=rng.randrange(8, 256, 8),
                    imm=rng.randrange(1, 64),
                    target=pc + rng.randrange(-64, 64, 4),
                )
            instruction = Instruction(
                pc=pc,
                mnemonic=mnemonic,
                is_memory=is_memory,
                kind=kind,
                source_line=source,
            )
            function.instructions.append(instruction)
            self._pc_to_function[pc] = function
            self._pc_to_instruction[pc] = instruction
            pc += rng.choice((2, 3, 4, 5, 7))
        self.functions.append(function)
        return function

    def adopt_function(self, function: FunctionImage) -> FunctionImage:
        """Register a pre-built function (and its PC maps) in this image.

        Used by composite workloads that merge (rebased copies of) other
        workloads' functions into one program image.
        """
        for instruction in function.instructions:
            self._pc_to_function[instruction.pc] = function
            self._pc_to_instruction[instruction.pc] = instruction
        self.functions.append(function)
        return function

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def function_for_pc(self, pc: int) -> Optional[FunctionImage]:
        return self._pc_to_function.get(pc)

    def instruction_for_pc(self, pc: int) -> Optional[Instruction]:
        return self._pc_to_instruction.get(pc)

    def function_name(self, pc: int) -> str:
        function = self.function_for_pc(pc)
        return function.name if function else "<unknown>"

    def source_snippet(self, pc: int) -> str:
        instruction = self.instruction_for_pc(pc)
        function = self.function_for_pc(pc)
        if function is None:
            return ""
        lines = [f"/* in {function.name} */"]
        if instruction is not None and instruction.source_line:
            lines.append(instruction.source_line)
        else:
            memory_lines = [ins.source_line for ins in function.instructions
                            if ins.source_line][:3]
            lines.extend(memory_lines)
        return "\n".join(lines)

    def assembly_context(self, pc: int, window: int = 2) -> str:
        """Render a disassembly window of ``2 * window + 1`` instructions."""
        function = self.function_for_pc(pc)
        if function is None:
            return ""
        pcs = [ins.pc for ins in function.instructions]
        try:
            index = pcs.index(pc)
        except ValueError:
            return ""
        start = max(0, index - window)
        end = min(len(pcs), index + window + 1)
        lines = []
        for ins in function.instructions[start:end]:
            marker = " <=" if ins.pc == pc else ""
            lines.append(f"{ins.pc:x}: {ins.mnemonic}{marker}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # wire format (a stored trace carries its image as JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary of the whole image."""
        return {
            "program_name": self.program_name,
            "functions": [{
                "name": function.name,
                "base_pc": function.base_pc,
                "description": function.description,
                "instructions": [[ins.pc, ins.mnemonic, ins.is_memory,
                                  ins.kind, ins.source_line]
                                 for ins in function.instructions],
            } for function in self.functions],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BinaryImage":
        """Rebuild an image from :meth:`to_dict` output."""
        image = cls(payload["program_name"])
        for function in payload["functions"]:
            image.adopt_function(FunctionImage(
                name=function["name"], base_pc=function["base_pc"],
                description=function["description"],
                instructions=[Instruction(*fields)
                              for fields in function["instructions"]]))
        return image

    def describe(self) -> str:
        lines = [f"binary image for {self.program_name}:"]
        for function in self.functions:
            lines.append(
                f"  {function.name} @ 0x{function.base_pc:x} "
                f"({len(function.instructions)} instructions, "
                f"{len(function.memory_pcs)} memory ops)"
            )
        return "\n".join(lines)
