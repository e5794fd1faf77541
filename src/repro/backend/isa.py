"""The virtual instruction set the backend lowers to.

The ISA is x86-64 flavoured: two-operand moves and ALU ops, condition codes,
SysV-style argument registers, push/pop for stack arguments.  Binary diffing
tools consume these instruction streams (opcodes, operand shapes, control-flow
and call structure), so the encoding is chosen to expose the same kinds of
features the real tools extract, not to be executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# Integer argument registers of the modelled calling convention (SysV AMD64).
ARG_REGISTERS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
RETURN_REGISTER = "rax"
SCRATCH_REGISTERS = ("rax", "r10", "r11")

# Rough byte sizes per opcode, used for function-size features and symbol
# table layout.  Values approximate typical x86-64 encodings.
OPCODE_SIZES = {
    "mov": 3, "movzx": 4, "lea": 4,
    "add": 3, "sub": 3, "imul": 4, "idiv": 3, "neg": 3,
    "and": 3, "or": 3, "xor": 3, "shl": 3, "sar": 3,
    "cmp": 3, "test": 3,
    "sete": 3, "setne": 3, "setl": 3, "setle": 3, "setg": 3, "setge": 3,
    "jmp": 2, "je": 2, "jne": 2, "jl": 2, "jle": 2, "jg": 2, "jge": 2,
    "call": 5, "ret": 1, "leave": 1, "push": 2, "pop": 2, "nop": 1,
    "cvtsi2sd": 4, "cvttsd2si": 4,
    "addsd": 4, "subsd": 4, "mulsd": 4, "divsd": 4, "ucomisd": 4,
    "movsd": 4,
}

DEFAULT_OPCODE_SIZE = 3

# Opcode categories used by the diffing feature extractors (VulSeeker-style
# per-block semantic features).
TRANSFER_OPCODES = {"jmp", "je", "jne", "jl", "jle", "jg", "jge"}
CALL_OPCODES = {"call"}
ARITHMETIC_OPCODES = {"add", "sub", "imul", "idiv", "neg", "and", "or", "xor",
                      "shl", "sar", "addsd", "subsd", "mulsd", "divsd"}
MOVE_OPCODES = {"mov", "movzx", "movsd", "lea"}
STACK_OPCODES = {"push", "pop", "leave"}
COMPARE_OPCODES = {"cmp", "test", "ucomisd", "sete", "setne", "setl", "setle",
                   "setg", "setge"}


@dataclass(slots=True)
class MachineInstruction:
    """One lowered instruction: an opcode plus textual operands.

    Slotted, like the IR classes: a lowered binary holds thousands of these,
    and every warm store read unpickles them all.
    """

    opcode: str
    operands: Tuple[str, ...] = ()
    call_target: Optional[str] = None     # symbol name for direct calls
    jump_target: Optional[str] = None     # label for branches

    @property
    def size(self) -> int:
        return OPCODE_SIZES.get(self.opcode, DEFAULT_OPCODE_SIZE)

    def text(self) -> str:
        if self.operands:
            return f"{self.opcode} {', '.join(self.operands)}"
        return self.opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.text()}>"

    def __reduce__(self):
        # positional constructor arguments pickle smaller than the default
        # (class, slot-name -> value) state
        return (MachineInstruction, (self.opcode, self.operands,
                                     self.call_target, self.jump_target))


@dataclass(slots=True)
class MachineBlock:
    """A labelled sequence of machine instructions."""

    label: str
    instructions: List[MachineInstruction] = field(default_factory=list)
    successors: List[str] = field(default_factory=list)

    def append(self, opcode: str, *operands: str,
               call_target: Optional[str] = None,
               jump_target: Optional[str] = None) -> MachineInstruction:
        inst = MachineInstruction(opcode, tuple(operands),
                                  call_target=call_target,
                                  jump_target=jump_target)
        self.instructions.append(inst)
        return inst

    @property
    def size(self) -> int:
        return sum(i.size for i in self.instructions)


def instruction_category(opcode: str) -> str:
    if opcode in TRANSFER_OPCODES:
        return "transfer"
    if opcode in CALL_OPCODES:
        return "call"
    if opcode in ARITHMETIC_OPCODES:
        return "arithmetic"
    if opcode in MOVE_OPCODES:
        return "move"
    if opcode in STACK_OPCODES:
        return "stack"
    if opcode in COMPARE_OPCODES:
        return "compare"
    return "other"
