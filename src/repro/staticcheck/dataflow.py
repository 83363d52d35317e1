"""Def-use chains over PTX kernels.

The static layer (motivated by Liew et al.'s static GPU race detection
and GPURepair's barrier-placement analysis) needs to know which
instructions write and read register X: def-use chains, built from a
per-opcode operand read/write model (PTX is almost three-address code,
but stores, atomics, branches and the ``_log`` pseudo-ops all deviate
from "operand 0 is the destination").  They run on statement indices
into ``kernel.body`` (labels included), the same PC space the CFG and
the instrumentation engine use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..ptx.ast import (
    Instruction,
    Kernel,
    MemOperand,
    Operand,
    RegOperand,
    VectorOperand,
    written_registers,
)
from ..ptx.isa import NO_DEST_OPCODES


def _operand_regs(operand: Operand) -> Iterable[str]:
    """Register names an operand mentions (memory bases included)."""
    if isinstance(operand, RegOperand):
        yield operand.name
    elif isinstance(operand, VectorOperand):
        yield from operand.regs
    elif isinstance(operand, MemOperand) and operand.base.startswith("%"):
        yield operand.base


def read_registers(insn: Instruction) -> Tuple[str, ...]:
    """The registers an instruction reads (guard predicate included)."""
    reads: List[str] = []
    if insn.opcode in ("st", "red"):
        sources: Tuple[Operand, ...] = insn.operands
    elif insn.opcode in NO_DEST_OPCODES:
        sources = insn.operands
    else:
        # Operand 0 is the destination; a memory source (loads, atomics)
        # sits in the tail and contributes its base register.
        sources = insn.operands[1:]
        dest = insn.operands[0] if insn.operands else None
        if isinstance(dest, MemOperand):  # defensive: malformed dest
            sources = insn.operands
    for operand in sources:
        reads.extend(_operand_regs(operand))
    if insn.pred is not None:
        reads.append(insn.pred[0])
    return tuple(reads)


@dataclass
class DefUse:
    """Whole-kernel def-use chains, keyed by register name."""

    #: register -> statement indices that define it, in body order.
    defs: Dict[str, List[int]] = field(default_factory=dict)
    #: register -> statement indices that read it, in body order.
    uses: Dict[str, List[int]] = field(default_factory=dict)

    def unique_def(self, reg: str) -> int:
        """The single static definition of ``reg``, or ``-1`` if the
        register has zero or several definitions (loop-carried locals
        compile to multiply-defined registers and stay opaque)."""
        sites = self.defs.get(reg, ())
        return sites[0] if len(sites) == 1 else -1


def build_def_use(kernel: Kernel) -> DefUse:
    chains = DefUse()
    for index, statement in enumerate(kernel.body):
        if not isinstance(statement, Instruction):
            continue
        for reg in written_registers(statement):
            chains.defs.setdefault(reg, []).append(index)
        for reg in read_registers(statement):
            chains.uses.setdefault(reg, []).append(index)
    return chains
