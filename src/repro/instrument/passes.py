"""The binary instrumentation engine (paper §4.1).

Given a parsed PTX module, the engine performs the three operations the
paper describes:

1. **Unique thread id calculation** — a prologue is added to every kernel
   that combines the 3-D block and thread ids into a globally unique
   64-bit TID, kept available for logging calls.
2. **Memory and synchronization logging** — every load, store, atomic,
   fence and barrier gets a logging call (``_log.*`` pseudo-instructions
   executed by the simulator's logging facility).  High-level
   acquire/release operations are inferred first
   (:mod:`repro.instrument.inference`).  Predicated instructions are
   transformed into a branch plus a non-predicated instruction so the
   logging call is covered by the branch.  Branch convergence points get
   logging calls so intra-branch races are detectable.
3. **Logging pruning** — repeated accesses within a basic block to the
   same address register (unchanged since the last logged access) are
   not logged again, the RedCard-style optimization whose effect
   Figure 9 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import InstrumentationError
from ..ptx.ast import (
    ImmOperand,
    Instruction,
    Kernel,
    Label,
    MemOperand,
    Module,
    ParamDecl,
    RegDecl,
    RegOperand,
    SpecialRegOperand,
    Statement,
    SymbolOperand,
    VectorOperand,
    written_registers,
)
from ..ptx.cfg import CFG
from ..ptx.isa import ATOMIC_OPCODES, FENCE_OPCODES, LOAD_OPCODES
from ..trace.operations import Scope
from .inference import AccessClass, Classification, classify_kernel

#: Instructions added for the unique-TID prologue (see _tid_prologue).
_PROLOGUE_LENGTH = 10


@dataclass
class KernelReport:
    """Instrumentation statistics for one kernel (feeds Figure 9)."""

    name: str
    static_instructions: int = 0
    #: Memory/sync/branch-convergence sites that need logging.
    instrumentable_sites: int = 0
    #: Sites actually instrumented (after pruning, if enabled).
    instrumented_sites: int = 0
    #: Sites dropped because static analysis proved them thread-private.
    statically_pruned_sites: int = 0

    @property
    def instrumented_fraction(self) -> float:
        """Fraction of static instructions carrying instrumentation —
        the y-axis of Figure 9."""
        if self.static_instructions == 0:
            return 0.0
        return self.instrumented_sites / self.static_instructions

    @property
    def unpruned_fraction(self) -> float:
        if self.static_instructions == 0:
            return 0.0
        return self.instrumentable_sites / self.static_instructions


@dataclass
class InstrumentationReport:
    """Statistics for a whole module."""

    kernels: List[KernelReport] = field(default_factory=list)

    def kernel(self, name: str) -> KernelReport:
        for report in self.kernels:
            if report.name == name:
                return report
        raise KeyError(name)

    @property
    def instrumented_fraction(self) -> float:
        static = sum(k.static_instructions for k in self.kernels)
        sites = sum(k.instrumented_sites for k in self.kernels)
        return sites / static if static else 0.0

    @property
    def unpruned_fraction(self) -> float:
        static = sum(k.static_instructions for k in self.kernels)
        sites = sum(k.instrumentable_sites for k in self.kernels)
        return sites / static if static else 0.0


def _log_insn(modifiers: Tuple[str, ...], operands: Tuple = (), line: int = 0) -> Instruction:
    return Instruction(opcode="_log", modifiers=modifiers, operands=operands, line=line)


def _scope_modifier(scope: Optional[Scope]) -> str:
    return "cta" if scope is Scope.BLOCK else "gl"


def _space_modifier(insn: Instruction) -> str:
    return "shared" if insn.state_space().value == "shared" else "global"


_SYNC_LOG_NAMES = {
    AccessClass.ACQUIRE: "acq",
    AccessClass.RELEASE: "rel",
    AccessClass.ACQREL: "ar",
}


def _width_modifier(insn: Instruction) -> Tuple[str, ...]:
    """The access's scalar type (and vector width), so the log carries
    the access width in bytes."""
    modifiers: Tuple[str, ...] = ()
    if insn.vector_count() == 2:
        modifiers += ("v2",)
    elif insn.vector_count() == 4:
        modifiers += ("v4",)
    type_name = insn.value_type()
    if type_name:
        modifiers += (type_name,)
    return modifiers


#: Operands a memory access must carry for its logging call to name the
#: address (and, for scalar stores, the value).
_LOGGED_OPERANDS = {"ld": 2, "ldu": 2, "st": 2, "atom": 2, "red": 1}


def _log_for(insn: Instruction, classification: Classification) -> Optional[Instruction]:
    """Build the logging call for one classified instruction."""
    needed = _LOGGED_OPERANDS.get(insn.opcode, 0)
    if len(insn.operands) < needed:
        raise InstrumentationError(
            f"line {insn.line}: {insn} has {len(insn.operands)} operand(s); "
            f"logging a {insn.opcode!r} needs {needed}"
        )
    access = classification.access
    space = _space_modifier(insn)
    width = _width_modifier(insn)
    if access is AccessClass.LOAD:
        return _log_insn(("mem", "ld", space) + width, (insn.operands[1],), insn.line)
    if access is AccessClass.STORE:
        operands = (insn.operands[0], insn.operands[1])
        if isinstance(insn.operands[1], VectorOperand):
            # Vector stores log address-only: the same-value filter is a
            # scalar-lockstep notion and stays conservative here.
            operands = (insn.operands[0],)
        return _log_insn(("mem", "st", space) + width, operands, insn.line)
    if access is AccessClass.ATOMIC:
        mem = insn.operands[1] if insn.opcode == "atom" else insn.operands[0]
        return _log_insn(("mem", "atom", space) + width, (mem,), insn.line)
    if access in _SYNC_LOG_NAMES:
        if insn.opcode in ATOMIC_OPCODES:
            mem = insn.operands[1] if insn.opcode == "atom" else insn.operands[0]
        elif insn.opcode in LOAD_OPCODES:
            mem = insn.operands[1]
        else:  # store
            mem = insn.operands[0]
        return _log_insn(
            ("sync", _SYNC_LOG_NAMES[access], _scope_modifier(classification.scope), space)
            + width,
            (mem,),
            insn.line,
        )
    if access is AccessClass.BARRIER:
        return _log_insn(("bar",), (), insn.line)
    return None  # bare fences


def _tid_prologue() -> List[Instruction]:
    """The unique-TID computation of §4.1 (3-D ids flattened row-major)."""

    def reg(name: str) -> RegOperand:
        return RegOperand(name)

    def special(name: str, dim: str) -> SpecialRegOperand:
        return SpecialRegOperand(name, dim)

    prologue = [
        Instruction("mov", ("u32",), (reg("%_ut0"), special("%ctaid", "z"))),
        Instruction(
            "mad",
            ("lo", "u32"),
            (reg("%_ut0"), reg("%_ut0"), special("%nctaid", "y"), special("%ctaid", "y")),
        ),
        Instruction(
            "mad",
            ("lo", "u32"),
            (reg("%_ut0"), reg("%_ut0"), special("%nctaid", "x"), special("%ctaid", "x")),
        ),
        Instruction("mov", ("u32",), (reg("%_ut1"), special("%tid", "z"))),
        Instruction(
            "mad",
            ("lo", "u32"),
            (reg("%_ut1"), reg("%_ut1"), special("%ntid", "y"), special("%tid", "y")),
        ),
        Instruction(
            "mad",
            ("lo", "u32"),
            (reg("%_ut1"), reg("%_ut1"), special("%ntid", "x"), special("%tid", "x")),
        ),
        Instruction(
            "mul", ("lo", "u32"), (reg("%_ut2"), special("%ntid", "x"), special("%ntid", "y"))
        ),
        Instruction(
            "mul", ("lo", "u32"), (reg("%_ut2"), reg("%_ut2"), special("%ntid", "z"))
        ),
        Instruction(
            "mad", ("lo", "u32"), (reg("%_ut3"), reg("%_ut0"), reg("%_ut2"), reg("%_ut1"))
        ),
        Instruction("cvt", ("u64", "u32"), (reg("%_utid"), reg("%_ut3"))),
    ]
    assert len(prologue) == _PROLOGUE_LENGTH
    return prologue


class _PruneState:
    """Per-basic-block redundant-logging state (§4.1 optimization).

    Tracks, for each ``(base, offset, space)`` address expression, the
    strongest access already logged in this block.  Entries die when the
    base register (or, for stores, the value register) is overwritten,
    and the whole table dies at synchronization operations — a logged
    access from an earlier synchronization interval cannot stand in for
    one in a later interval.
    """

    def __init__(self) -> None:
        # key -> (kind, value identity for stores)
        self._logged: Dict[Tuple[str, int, str], Tuple[str, Optional[object]]] = {}

    def clear(self) -> None:
        self._logged.clear()

    def kill_register(self, name: str) -> None:
        self._logged = {
            key: entry
            for key, entry in self._logged.items()
            if key[0] != name and entry[1] != name
        }

    def is_redundant(
        self,
        key: Tuple[str, int, str],
        access: AccessClass,
        value_id: Optional[object] = None,
    ) -> bool:
        logged = self._logged.get(key)
        if logged is None:
            return False
        if access is AccessClass.LOAD:
            return True  # covered by any prior logged access
        if access is AccessClass.STORE:
            # Only a store of the *same value* is redundant: the logged
            # store's value feeds the same-value intra-warp filter, so a
            # store of a different value must produce its own record.
            return logged[0] == "store" and logged[1] == value_id
        return False

    def note(
        self,
        key: Tuple[str, int, str],
        access: AccessClass,
        value_id: Optional[object] = None,
    ) -> None:
        if access is AccessClass.STORE:
            self._logged[key] = ("store", value_id)
        elif access is AccessClass.LOAD and key not in self._logged:
            self._logged[key] = ("load", None)


class Instrumenter:
    """Rewrites PTX modules with BARRACUDA logging (§4.1)."""

    def __init__(
        self,
        prune: bool = True,
        static_prune: bool = False,
    ) -> None:
        self.prune = prune
        #: Opt-in: drop logging for accesses the static layer proves
        #: thread-private (repro.staticcheck.addresses).  Sound for race
        #: detection — a location only ever touched by its own thread
        #: cannot participate in a race — but off by default because the
        #: proof relies on the whole kernel being analyzable.
        self.static_prune = static_prune
        self._skip_counter = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def instrument_module(self, module: Module) -> Tuple[Module, InstrumentationReport]:
        report = InstrumentationReport()
        new_module = Module(
            version=module.version,
            target=module.target,
            address_size=module.address_size,
            globals=list(module.globals),
        )
        for kernel in module.kernels:
            new_kernel, kernel_report = self.instrument_kernel(kernel, module=module)
            new_module.kernels.append(new_kernel)
            report.kernels.append(kernel_report)
        for function in module.functions:
            new_function, function_report = self.instrument_kernel(
                function, is_function=True
            )
            new_module.functions.append(new_function)
            report.kernels.append(function_report)
        return new_module, report

    def instrument_kernel(
        self,
        kernel: Kernel,
        is_function: bool = False,
        module: Optional[Module] = None,
    ) -> Tuple[Kernel, KernelReport]:
        report = KernelReport(
            name=kernel.name, static_instructions=kernel.static_instruction_count()
        )
        private_sites: frozenset = frozenset()
        if self.static_prune and not is_function:
            # Imported lazily: staticcheck sits above this module in the
            # package layering.  Device functions are never pruned — the
            # proof needs the launch-level parameter view.
            from ..staticcheck.addresses import prune_private_sites

            private_sites = frozenset(prune_private_sites(kernel, module))
        classes = classify_kernel(kernel)
        cfg = CFG(kernel)
        convergence = set(cfg.convergence_points())
        block_starts = {block.start for block in cfg.blocks}
        sync_indices = {
            index
            for index, statement in enumerate(kernel.body)
            if isinstance(statement, Instruction)
            and (
                statement.opcode in FENCE_OPCODES
                or statement.opcode in ("bar", "barrier", "cp")
                or statement.opcode in ATOMIC_OPCODES
            )
        }

        if is_function:
            # §4.1: "All device functions are modified to accept this TID
            # as an additional argument so that the TID is always
            # available for logging calls."  Load it into the same
            # register the kernel prologue uses, so nested calls can
            # forward it.
            new_body: List[Statement] = [
                Instruction(
                    opcode="ld",
                    modifiers=("param", "u64"),
                    operands=(RegOperand("%_utid"), MemOperand("__bcuda_tid")),
                )
            ]
        else:
            new_body = list(_tid_prologue())
            new_body.append(_log_insn(("tid",)))
        prune_state = _PruneState()

        for index, statement in enumerate(kernel.body):
            if index in block_starts:
                prune_state.clear()
            if index in convergence:
                if isinstance(statement, Label):
                    new_body.append(statement)
                    new_body.append(_log_insn(("cvg",)))
                    report.instrumentable_sites += 1
                    report.instrumented_sites += 1
                    continue
                new_body.append(_log_insn(("cvg",)))
                report.instrumentable_sites += 1
                report.instrumented_sites += 1
            if isinstance(statement, Label):
                new_body.append(statement)
                continue
            if isinstance(statement, Instruction) and statement.opcode == "call":
                # The callee was given an extra TID parameter; pass the
                # caller's TID register along.  The callee may also touch
                # arbitrary memory: logged-access knowledge dies here.
                prune_state.clear()
                new_body.append(
                    Instruction(
                        opcode=statement.opcode,
                        modifiers=statement.modifiers,
                        operands=statement.operands + (RegOperand("%_utid"),),
                        pred=statement.pred,
                        line=statement.line,
                    )
                )
                continue
            if index in sync_indices:
                prune_state.clear()
            classification = classes.get(index)
            log = _log_for(statement, classification) if classification else None
            if log is not None and log.line == 0:
                # Compiled modules carry no source lines; fall back to
                # the statement index so reports and profilers can still
                # distinguish static sites.
                log.line = index
            if log is None:
                new_body.append(statement)
                for written in written_registers(statement):
                    prune_state.kill_register(written)
                continue
            report.instrumentable_sites += 1
            if (
                index in private_sites
                and statement.pred is None
                and classification.access in (AccessClass.LOAD, AccessClass.STORE)
            ):
                report.statically_pruned_sites += 1
                new_body.append(statement)
                for written in written_registers(statement):
                    prune_state.kill_register(written)
                continue
            if self.prune and self._prunable(statement, classification, prune_state):
                new_body.append(statement)
                for written in written_registers(statement):
                    prune_state.kill_register(written)
                continue
            report.instrumented_sites += 1
            self._emit_logged(new_body, statement, log)
            self._note_logged(statement, classification, prune_state)
            for written in written_registers(statement):
                prune_state.kill_register(written)

        extra_params = (
            [ParamDecl(type_name="u64", name="__bcuda_tid")] if is_function else []
        )
        new_kernel = Kernel(
            name=kernel.name,
            kind=kernel.kind,
            params=list(kernel.params) + extra_params,
            regs=list(kernel.regs)
            + [
                RegDecl(type_name="u32", prefix="%_ut", count=4),
                RegDecl(type_name="u64", prefix="%_utid", count=1),
            ],
            shared=list(kernel.shared),
            body=new_body,
        )
        return new_kernel, report

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _address_key(self, insn: Instruction) -> Optional[Tuple[str, int, str]]:
        for operand in insn.operands:
            if isinstance(operand, MemOperand):
                return (operand.base, operand.offset, _space_modifier(insn))
        return None

    def _value_id(self, insn: Instruction, access: AccessClass):
        """Identity of a store's value operand (register name or imm)."""
        if access is not AccessClass.STORE or len(insn.operands) < 2:
            return None
        value = insn.operands[1]
        if isinstance(value, RegOperand):
            return value.name
        if isinstance(value, ImmOperand):
            return ("imm", value.value)
        return None

    def _prunable(
        self,
        insn: Instruction,
        classification: Classification,
        state: _PruneState,
    ) -> bool:
        """Plain loads/stores only; sync operations are never pruned."""
        if insn.pred is not None:
            return False
        if classification.access not in (AccessClass.LOAD, AccessClass.STORE):
            return False
        key = self._address_key(insn)
        return key is not None and state.is_redundant(
            key, classification.access, self._value_id(insn, classification.access)
        )

    def _note_logged(
        self, insn: Instruction, classification: Classification, state: _PruneState
    ) -> None:
        if insn.pred is not None:
            return
        if classification.access in (AccessClass.LOAD, AccessClass.STORE):
            key = self._address_key(insn)
            if key is not None:
                state.note(
                    key,
                    classification.access,
                    self._value_id(insn, classification.access),
                )

    def _emit_logged(
        self, body: List[Statement], insn: Instruction, log: Instruction
    ) -> None:
        """Append the log + instruction, converting predication to a
        branch so the logging call is guarded too (§4.1)."""
        if insn.pred is None:
            body.append(log)
            body.append(insn)
            return
        reg, negated = insn.pred
        skip = f"$__bcuda_skip_{self._skip_counter}"
        self._skip_counter += 1
        body.append(
            Instruction(
                opcode="bra",
                modifiers=("uni",),
                operands=(SymbolOperand(skip),),
                pred=(reg, not negated),
                line=insn.line,
            )
        )
        body.append(log)
        bare = Instruction(
            opcode=insn.opcode,
            modifiers=insn.modifiers,
            operands=insn.operands,
            pred=None,
            line=insn.line,
        )
        body.append(bare)
        body.append(Label(name=skip, line=insn.line))
