"""Thread-id taint and branch-divergence classification.

Registers derived from ``%tid``/``%laneid`` vary between the threads of a
warp; registers derived from ``%ctaid`` vary between blocks; registers
loaded from memory could hold anything.  The pass runs a flow-insensitive
fixpoint (join over every definition of a register), which is sound for
the questions the lint rules ask:

* a branch whose predicate carries TID or LANE taint is *divergent* —
  threads of one warp may take different arms (the paper's §3.3.1 branch
  model; a ``bar.sync`` inside such a region is the §3.3.2 barrier
  divergence defect);
* a branch whose predicate carries only CTAID taint splits *blocks*, not
  threads — interesting to the inter-block rules;
* an untainted predicate is *uniform*: every thread of the grid takes
  the same arm.

MEM taint (values read from memory) is tracked but deliberately does not
make a branch "divergent" for the barrier rule: data-dependent loops over
uniform data are pervasive in race-free kernels and the dynamic layer
catches the truly divergent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from ..ptx.ast import (
    ImmOperand,
    Instruction,
    Kernel,
    MemOperand,
    Operand,
    RegOperand,
    SpecialRegOperand,
    SymbolOperand,
    VectorOperand,
    written_registers,
)

#: Taint lattice bits.
TID = "tid"
LANE = "lane"
CTAID = "ctaid"
MEM = "mem"

Taint = FrozenSet[str]
NO_TAINT: Taint = frozenset()

#: Special registers that vary per thread within a warp.
_THREAD_SPECIALS = {"%tid": TID, "%laneid": LANE, "%warpid": TID}
#: Special registers that vary per block only.
_BLOCK_SPECIALS = {"%ctaid": CTAID}
#: Uniform across the launch: %ntid, %nctaid, %gridid ... (%clock is
#: unpredictable and treated like a memory load).
_UNPREDICTABLE_SPECIALS = {"%clock"}


@dataclass
class TaintAnalysis:
    """Per-register taints and per-branch divergence classification."""

    register_taint: Dict[str, Taint]
    #: statement index of each conditional branch -> its predicate taint.
    branch_taint: Dict[int, Taint]

    def taint_of(self, reg: str) -> Taint:
        return self.register_taint.get(reg, NO_TAINT)

    def operand_taint(self, operand: Operand) -> Taint:
        return _operand_taint(operand, self.register_taint)

    def is_divergent(self, branch_index: int) -> bool:
        """Can threads of one warp disagree at this branch?"""
        taint = self.branch_taint.get(branch_index, NO_TAINT)
        return bool(taint & {TID, LANE})

    def is_block_varying(self, branch_index: int) -> bool:
        """Can different blocks take different arms at this branch?"""
        taint = self.branch_taint.get(branch_index, NO_TAINT)
        return bool(taint & {TID, LANE, CTAID, MEM})


def _operand_taint(operand: Operand, taints: Dict[str, Taint]) -> Taint:
    if isinstance(operand, RegOperand):
        return taints.get(operand.name, NO_TAINT)
    if isinstance(operand, SpecialRegOperand):
        if operand.name in _THREAD_SPECIALS:
            return frozenset({_THREAD_SPECIALS[operand.name]})
        if operand.name in _BLOCK_SPECIALS:
            return frozenset({_BLOCK_SPECIALS[operand.name]})
        if operand.name in _UNPREDICTABLE_SPECIALS:
            return frozenset({MEM})
        return NO_TAINT  # %ntid / %nctaid / %gridid: launch-uniform
    if isinstance(operand, (ImmOperand, SymbolOperand)):
        return NO_TAINT
    if isinstance(operand, VectorOperand):
        return frozenset().union(*(taints.get(r, NO_TAINT) for r in operand.regs))
    if isinstance(operand, MemOperand):
        return taints.get(operand.base, NO_TAINT)
    return frozenset({MEM})  # pragma: no cover - future operand kinds


def analyze_taint(kernel: Kernel) -> TaintAnalysis:
    """Fixpoint taint propagation over one kernel."""
    taints: Dict[str, Taint] = {}
    body = kernel.body
    changed = True
    while changed:
        changed = False
        for statement in body:
            if not isinstance(statement, Instruction):
                continue
            written = written_registers(statement)
            if not written:
                continue
            new = _instruction_taint(statement, taints)
            for reg in written:
                if new - taints.get(reg, NO_TAINT):
                    taints[reg] = taints.get(reg, NO_TAINT) | new
                    changed = True

    branch_taint: Dict[int, Taint] = {}
    for index, statement in enumerate(body):
        if (
            isinstance(statement, Instruction)
            and statement.opcode == "bra"
            and statement.pred is not None
        ):
            branch_taint[index] = taints.get(statement.pred[0], NO_TAINT)
    return TaintAnalysis(register_taint=taints, branch_taint=branch_taint)


def _instruction_taint(insn: Instruction, taints: Dict[str, Taint]) -> Taint:
    opcode = insn.opcode
    if opcode in ("ld", "ldu"):
        space = insn.state_space().value
        if space == "param":
            return NO_TAINT  # kernel parameters are launch-uniform
        return frozenset({MEM})
    if opcode == "atom":
        return frozenset({MEM})  # the returned prior value
    if opcode == "vote":
        # A vote joins the predicate of every mask lane, so with the full
        # immediate membermask the result is *warp-uniform* even when the
        # inputs vary per thread: strip the intra-warp taint bits.  A
        # partial or computed mask keeps them — lanes outside the mask
        # receive per-lane fallback values.
        result = NO_TAINT
        for operand in insn.operands[1:]:
            result |= _operand_taint(operand, taints)
        if insn.pred is not None:
            result |= taints.get(insn.pred[0], NO_TAINT)
        mask = insn.operands[-1] if insn.operands else None
        if isinstance(mask, ImmOperand) and mask.value & 0xFFFFFFFF == 0xFFFFFFFF:
            result = result - frozenset({TID, LANE})
        return result
    # Arithmetic / moves / setp / selp: join the source taints.  The
    # guard predicate is joined too: a predicated definition merges with
    # the fall-through value, so it inherits the predicate's variability.
    result: Taint = NO_TAINT
    sources = insn.operands[1:]
    for operand in sources:
        result |= _operand_taint(operand, taints)
    if insn.pred is not None:
        result |= taints.get(insn.pred[0], NO_TAINT)
    return result
