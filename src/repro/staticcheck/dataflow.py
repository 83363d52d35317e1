"""Def-use chains and reaching definitions over PTX kernels.

The static layer (motivated by Liew et al.'s static GPU race detection
and GPURepair's barrier-placement analysis) needs to answer two kinds of
questions about registers:

* *Which instructions write/read register X?* — def-use chains, built
  from a per-opcode operand read/write model (PTX is almost three-address
  code, but stores, atomics, branches and the ``_log`` pseudo-ops all
  deviate from "operand 0 is the destination").
* *Which definitions can reach this use?* — classic iterative
  bit-vector reaching definitions over the existing :class:`~repro.ptx.cfg.CFG`.

Both run on statement indices into ``kernel.body`` (labels included),
the same PC space the CFG and the instrumentation engine use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..ptx.ast import (
    Instruction,
    Kernel,
    MemOperand,
    Operand,
    RegOperand,
    VectorOperand,
    written_registers,
)
from ..ptx.cfg import CFG
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


class ReachingDefinitions:
    """Iterative reaching-definitions analysis over the kernel CFG.

    A *definition* is a statement index that writes some register.  The
    block-level fixpoint is the textbook forward union dataflow; per-use
    queries then walk the use's own block from its entry set.
    """

    def __init__(self, kernel: Kernel, cfg: CFG) -> None:
        self.kernel = kernel
        self.cfg = cfg
        body = kernel.body
        self._def_reg: Dict[int, Tuple[str, ...]] = {}
        all_defs_of: Dict[str, Set[int]] = {}
        for index, statement in enumerate(body):
            if isinstance(statement, Instruction):
                written = written_registers(statement)
                if written:
                    self._def_reg[index] = written
                    for reg in written:
                        all_defs_of.setdefault(reg, set()).add(index)

        gen: Dict[int, Set[int]] = {}
        kill: Dict[int, Set[int]] = {}
        for block in cfg.blocks:
            block_gen: Dict[str, int] = {}
            for index in range(block.start, block.end):
                for reg in self._def_reg.get(index, ()):
                    block_gen[reg] = index  # later defs shadow earlier ones
            gen[block.index] = set(block_gen.values())
            kill[block.index] = set()
            for reg in block_gen:
                kill[block.index] |= all_defs_of[reg]

        self.block_in: Dict[int, Set[int]] = {b.index: set() for b in cfg.blocks}
        block_out: Dict[int, Set[int]] = {b.index: set() for b in cfg.blocks}
        changed = True
        while changed:
            changed = False
            for block in cfg.blocks:
                incoming: Set[int] = set()
                for pred in block.predecessors:
                    incoming |= block_out[pred]
                out = gen[block.index] | (incoming - kill[block.index])
                if incoming != self.block_in[block.index] or out != block_out[block.index]:
                    self.block_in[block.index] = incoming
                    block_out[block.index] = out
                    changed = True

    def reaching(self, use_index: int, reg: str) -> FrozenSet[int]:
        """Definitions of ``reg`` that may reach the use at ``use_index``."""
        block = self.cfg.block_of(use_index)
        live: Set[int] = {
            index
            for index in self.block_in[block.index]
            if reg in self._def_reg.get(index, ())
        }
        for index in range(block.start, use_index):
            if reg in self._def_reg.get(index, ()):
                live = {index}
        return frozenset(live)
