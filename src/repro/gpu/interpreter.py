"""A PTX interpreter with SIMT lockstep-warp execution.

This is the device the reproduction runs kernels on.  Execution follows
the paper's model of the hardware (§2, §3.3.1):

* all instructions are warp-level; the active threads of a warp execute
  each instruction in lockstep;
* branch divergence is handled by a per-warp SIMT stack whose entries
  reconverge at the branch's immediate post-dominator (computed by
  :class:`repro.ptx.cfg.CFG`);
* the fall-through path of a divergent branch executes first (the paper's
  IF rule pushes the else path deeper, Figure 1);
* ``bar.sync`` blocks a warp until every live warp of its block arrives;
* global stores go through the weak-memory model of
  :mod:`repro.gpu.memory`; ``membar.gl``/``membar.sys`` drain it.

When a kernel has been rewritten by the BARRACUDA instrumentation engine,
its ``_log.*`` pseudo-instructions emit :class:`LogRecord` events into the
GPU-side queues, and the SIMT machinery emits branch records at
divergence points; a pristine kernel emits nothing (a "native" run).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..ptx.ast import (
    ImmOperand,
    Instruction,
    Kernel,
    Label,
    MemOperand,
    Module,
    Operand,
    RegOperand,
    SpecialRegOperand,
    SymbolOperand,
    VectorOperand,
)
from ..ptx.cfg import CFG
from ..ptx.isa import FLOAT_TYPES, SIGNED_TYPES, type_width
from ..events import GRID_BARRIER_BLOCK, LogRecord, RecordKind
from ..trace.layout import GridLayout
from ..trace.operations import Scope, Space
from .hierarchy import LaunchConfig
from .memory import GlobalMemory, SharedMemory

#: Modeled cost (in instruction slots) of one logging call: slot
#: reservation, per-lane address stores, header fill and commit (§4.2).
LOG_COST = 24


def _wrap(value, type_name: Optional[str]):
    """Wrap a raw Python value to a PTX scalar type's range."""
    if type_name is None or type_name == "pred":
        return value
    if type_name in FLOAT_TYPES:
        return float(value)
    width = type_width(type_name) * 8
    mask = (1 << width) - 1
    value = int(value) & mask
    if type_name in SIGNED_TYPES and value >= 1 << (width - 1):
        value -= 1 << width
    return value


def _as_unsigned(value: int, width_bytes: int) -> int:
    return int(value) & ((1 << (width_bytes * 8)) - 1)


class _Phase(enum.Enum):
    BASE = "base"
    THEN = "then"
    ELSE = "else"


@dataclass
class _StackEntry:
    amask: Set[int]
    pc: int
    reconv_pc: int
    phase: _Phase
    #: Lazily-cached views of ``amask``.  The mask of a SIMT stack entry
    #: is fixed at push time (paths never change membership, they only
    #: reconverge by popping), so the ascending thread order every
    #: handler iterates in — and the frozen mask shared with records —
    #: can be computed once instead of per memory operation.
    _sorted: Optional[Tuple[int, ...]] = None
    _frozen: Optional[FrozenSet[int]] = None

    def sorted_active(self) -> Tuple[int, ...]:
        cached = self._sorted
        if cached is None:
            cached = self._sorted = tuple(sorted(self.amask))
        return cached


@dataclass
class ExecContext:
    """The static context of one executable body (kernel or .func)."""

    kernel: Kernel
    cfg: CFG
    labels: Dict[str, int]
    end_pc: int
    #: Slot for a pre-decoded program (one closure per statement); filled
    #: lazily by :class:`repro.gpu.engine.DecodedKernelExecution`.
    decoded: Optional[List[Optional[Callable]]] = None


#: Backwards-compatible alias (pre-engine name).
_FuncContext = ExecContext


@dataclass
class _Frame:
    """One call frame of a warp: a body, its SIMT stack, and (for device
    functions) a private register file and parameter bindings.

    Calls are warp-level like every other instruction: the active threads
    enter the callee together and reconverge before returning (§2's
    uniform treatment of function calls).
    """

    ctx: ExecContext
    stack: List[_StackEntry]
    #: Per-thread registers.  The kernel frame owns the launch-wide file;
    #: device functions get fresh files (PTX registers are
    #: function-scoped).
    regs: Dict[int, Dict[str, object]]
    #: Per-thread parameter bindings for ``ld.param`` inside the body.
    params: Dict[str, Dict[int, object]] = field(default_factory=dict)


@dataclass(eq=False)
class WarpState:
    """Execution state of one warp.

    Compared and hashed by identity: a warp is its own key, and a
    field-by-field ``__eq__`` would walk frames and register files.
    """

    warp: int
    block: int
    frames: List[_Frame]
    done: bool = False
    at_barrier: bool = False
    instructions: int = 0
    cycles: int = 0
    #: Deferred shared-side STORE records of ``cp.async`` copies issued
    #: but not yet committed to a group (empty on uninstrumented runs).
    async_pending: List[LogRecord] = field(default_factory=list)
    #: Committed-but-unwaited ``cp.async`` groups, oldest first.
    async_groups: List[List[LogRecord]] = field(default_factory=list)
    #: Waiting at a grid-wide (cooperative) barrier, not a block one.
    at_grid_barrier: bool = False

    @property
    def frame(self) -> _Frame:
        return self.frames[-1]

    @property
    def stack(self) -> List[_StackEntry]:
        return self.frames[-1].stack

    @property
    def active(self) -> Set[int]:
        return self.stack[-1].amask


@dataclass
class LaunchResult:
    """Measurements from one kernel execution."""

    steps: int = 0
    instructions: int = 0
    cycles: int = 0
    stall_cycles: int = 0
    records_emitted: int = 0

    @property
    def total_cycles(self) -> int:
        return self.cycles + self.stall_cycles


class EventSink:
    """Destination for instrumentation log records.

    The production sink is :class:`repro.runtime.queue.QueueSet`; tests
    use :class:`ListSink`.  ``emit`` returns the stall cycles the warp
    incurred (non-zero when the queue was full and had to be drained).
    """

    def emit(self, record: LogRecord) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class ListSink(EventSink):
    """Collects records in order; never stalls."""

    def __init__(self) -> None:
        self.records: List[LogRecord] = []

    def emit(self, record: LogRecord) -> int:
        self.records.append(record)
        return 0


class KernelExecution:
    """One kernel launch in flight on the simulated device."""

    def __init__(
        self,
        module: Module,
        kernel: Kernel,
        config: LaunchConfig,
        params: Dict[str, int],
        global_mem: GlobalMemory,
        global_symbols: Dict[str, int],
        sink: Optional[EventSink] = None,
        instrumented: bool = False,
        cooperative: bool = False,
    ) -> None:
        self.module = module
        self.kernel = kernel
        self.config = config
        self.layout: GridLayout = config.layout()
        self.params = dict(params)
        self.global_mem = global_mem
        self.global_symbols = global_symbols
        self.shared_mem = SharedMemory()
        self.sink = sink
        self.instrumented = instrumented
        #: Cooperative launch: required for grid-wide ``barrier.cluster``.
        self.cooperative = cooperative
        self.result = LaunchResult()
        # Static contexts: the kernel plus every device function.
        self._contexts: Dict[str, ExecContext] = {}
        self._kernel_ctx = self._context_for(kernel)
        self.cfg = self._kernel_ctx.cfg
        # Shared-array symbol offsets (same layout in every block).
        self.shared_symbols: Dict[str, int] = {}
        cursor = 0
        for decl in kernel.shared:
            cursor = -(-cursor // decl.align) * decl.align
            self.shared_symbols[decl.name] = cursor
            cursor += decl.size_bytes
        self.shared_bytes = cursor
        # Special registers (per thread, launch-wide).
        self._specials: Dict[int, dict] = {
            tid: config.special_registers(tid) for tid in self.layout.all_tids()
        }
        # .local state space: thread-private, persists across call frames.
        self._local: Dict[int, SharedMemory] = {}
        # Active-mask flyweights: one frozenset per distinct mask, shared
        # between SIMT stack entries and every LogRecord that carries it.
        self._mask_intern: Dict[Tuple[int, ...], FrozenSet[int]] = {}
        self.warps: List[WarpState] = [
            WarpState(
                warp=w,
                block=self.layout.block_of_warp(w),
                frames=[
                    _Frame(
                        ctx=self._kernel_ctx,
                        stack=[
                            _StackEntry(
                                amask=set(self.layout.warp_tids(w)),
                                pc=0,
                                reconv_pc=self._kernel_ctx.end_pc,
                                phase=_Phase.BASE,
                            )
                        ],
                        regs={tid: {} for tid in self.layout.warp_tids(w)},
                    )
                ],
            )
            for w in self.layout.all_warps()
        ]
        # Barrier bookkeeping, kept by ``try_release_barriers``: warps not
        # yet done, warps parked at any barrier, and those of them parked
        # at the grid-wide one.
        self._live = len(self.warps)
        self._waiting = 0
        self._grid_waiting = 0

    def _context_for(self, body_kernel: Kernel) -> ExecContext:
        ctx = self._contexts.get(body_kernel.name)
        if ctx is None:
            ctx = ExecContext(
                kernel=body_kernel,
                cfg=CFG(body_kernel),
                labels=body_kernel.label_index(),
                end_pc=len(body_kernel.body),
            )
            self._contexts[body_kernel.name] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Operand evaluation
    # ------------------------------------------------------------------
    def _frame_of(self, tid: int) -> _Frame:
        return self.warps[self.layout.warp_of(tid)].frame

    def _reg(self, tid: int, name: str):
        return self._frame_of(tid).regs[tid].get(name, 0)

    def _set_reg(self, tid: int, name: str, value) -> None:
        self._frame_of(tid).regs[tid][name] = value

    def _value(self, tid: int, operand: Operand):
        if isinstance(operand, RegOperand):
            return self._reg(tid, operand.name)
        if isinstance(operand, ImmOperand):
            return operand.value
        if isinstance(operand, SpecialRegOperand):
            return self._specials[tid][(operand.name, operand.dim)]
        if isinstance(operand, SymbolOperand):
            return self._symbol_address(operand.name)
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    def _symbol_address(self, name: str) -> int:
        if name in self.shared_symbols:
            return self.shared_symbols[name]
        if name in self.global_symbols:
            return self.global_symbols[name]
        raise SimulationError(f"unknown symbol {name!r}")

    def _address(self, tid: int, operand: MemOperand) -> int:
        if operand.base.startswith("%"):
            base = int(self._reg(tid, operand.base))
        else:
            base = self._symbol_address(operand.base)
        return base + operand.offset

    def _local_store(self, tid: int) -> SharedMemory:
        store = self._local.get(tid)
        if store is None:
            store = SharedMemory()
            self._local[tid] = store
        return store

    def _pred_holds(self, tid: int, pred: Optional[Tuple[str, bool]]) -> bool:
        if pred is None:
            return True
        name, negated = pred
        value = bool(self._reg(tid, name))
        return value != negated

    # ------------------------------------------------------------------
    # Active-mask flyweights
    # ------------------------------------------------------------------
    def intern_mask(self, tids) -> FrozenSet[int]:
        """Return the canonical frozenset for a sorted tid sequence."""
        key = tuple(tids)
        mask = self._mask_intern.get(key)
        if mask is None:
            mask = self._mask_intern[key] = frozenset(key)
        return mask

    def frozen_active(self, entry: _StackEntry) -> FrozenSet[int]:
        """The interned frozen view of a stack entry's active mask."""
        cached = entry._frozen
        if cached is None:
            cached = entry._frozen = self.intern_mask(entry.sorted_active())
        return cached

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, warp: WarpState) -> None:
        """Execute one instruction slot of ``warp``.

        Reconvergence bookkeeping (popping finished paths) is free and
        folded into the same step, as on real hardware where it is part
        of branch handling.  A ``_log`` call and the instruction it
        guards execute as one non-preemptible slot: the log record and
        its access must be adjacent in the event stream, otherwise an
        adversarial interleaving could order an acquire's record before
        the release's record it synchronized with.
        """
        while True:
            while True:
                entry = warp.stack[-1]
                # Reconvergence is reached on *arrival* at the IPDOM: the
                # comparison must be equality, because a branch inside a
                # loop can reconverge at the loop header, i.e. at a lower
                # statement index than the arms execute at.
                if (
                    not entry.amask
                    or entry.pc == entry.reconv_pc
                    or entry.pc >= warp.frame.ctx.end_pc
                ):
                    if len(warp.stack) == 1:
                        if len(warp.frames) > 1:
                            # Implicit return: the device function's body
                            # ran off its end; resume the caller.
                            warp.frames.pop()
                            continue
                        self._finish_warp(warp)
                        return
                    self._pop_path(warp)
                    continue
                statement = warp.frame.ctx.kernel.body[entry.pc]
                if isinstance(statement, Label):
                    entry.pc += 1
                    continue
                break
            self._execute(warp, entry, statement)
            if statement.opcode != "_log" or warp.done or warp.at_barrier:
                return

    def _pop_path(self, warp: WarpState) -> None:
        finished = warp.stack.pop()
        if finished.phase is _Phase.THEN:
            self._emit_branch(warp, RecordKind.BRANCH_ELSE)
        elif finished.phase is _Phase.ELSE:
            self._emit_branch(warp, RecordKind.BRANCH_FI)

    def _emit_branch(
        self,
        warp: WarpState,
        kind: RecordKind,
        active: Optional[FrozenSet[int]] = None,
        then_mask: FrozenSet[int] = frozenset(),
        pc: int = -1,
    ) -> None:
        if self.sink is None or not self.instrumented:
            return
        record = LogRecord(
            kind=kind,
            warp=warp.warp,
            active=active if active is not None else frozenset(),
            then_mask=then_mask,
            pc=pc,
        )
        warp.cycles += self.sink.emit(record)
        self.result.records_emitted += 1

    # ------------------------------------------------------------------
    # Instruction dispatch
    # ------------------------------------------------------------------
    def _execute(self, warp: WarpState, entry: _StackEntry, insn: Instruction) -> None:
        warp.instructions += 1
        warp.cycles += 1
        self.result.instructions += 1
        self.result.cycles += 1
        opcode = insn.opcode
        if opcode == "bra":
            self._exec_branch(warp, entry, insn)
            return
        if opcode == "call":
            self._exec_call(warp, entry, insn)
            return
        if opcode in ("ret", "exit"):
            self._exec_ret(warp, entry, insn)
            return
        if opcode == "bar":
            entry.pc += 1
            warp.at_barrier = True
            return
        if opcode == "barrier":
            # barrier.cluster.sync: grid-wide synchronization, only legal
            # on a cooperative launch (every block resident at once).
            if not self.cooperative:
                raise SimulationError(
                    f"{warp.frame.ctx.kernel.name!r}: {insn.full_opcode} at "
                    f"pc {entry.pc} requires a cooperative launch "
                    "(launch with cooperative=True)"
                )
            entry.pc += 1
            warp.at_barrier = True
            warp.at_grid_barrier = True
            return
        if opcode == "membar" or opcode == "fence":
            if not insn.has_modifier("cta"):
                self.global_mem.drain_all()
            entry.pc += 1
            return
        if opcode == "_log":
            self._exec_log(warp, entry, insn)
            entry.pc += 1
            return
        pred = insn.pred
        if pred is None:
            active = entry.sorted_active()
        else:
            active = [t for t in entry.sorted_active() if self._pred_holds(t, pred)]
        if opcode in ("ld", "ldu"):
            self._exec_load(warp, insn, active)
        elif opcode == "st":
            self._exec_store(warp, insn, active)
        elif opcode in ("atom", "red"):
            self._exec_atomic(warp, insn, active)
        elif opcode == "shfl":
            self._exec_shfl(warp, entry, insn, active)
        elif opcode == "vote":
            self._exec_vote(warp, entry, insn, active)
        elif opcode == "cp":
            self._exec_cp(warp, entry, insn, active)
        else:
            self._exec_arith(insn, active)
        entry.pc += 1

    # -- control flow ---------------------------------------------------
    def _exec_branch(self, warp: WarpState, entry: _StackEntry, insn: Instruction) -> None:
        target_pc = warp.frame.ctx.labels[insn.branch_target()]
        if insn.pred is None:
            entry.pc = target_pc
            return
        taken = {t for t in entry.amask if self._pred_holds(t, insn.pred)}
        not_taken = set(entry.amask) - taken
        if not not_taken:
            entry.pc = target_pc
            return
        if not taken:
            entry.pc += 1
            return
        # Divergence: fall-through path executes first (Figure 1), the
        # taken path is pushed deeper; both reconverge at the IPDOM.
        reconv = warp.frame.ctx.cfg.reconvergence_pc(entry.pc)
        self._emit_branch(
            warp,
            RecordKind.BRANCH_IF,
            active=self.frozen_active(entry),
            then_mask=self.intern_mask(sorted(not_taken)),
            pc=entry.pc,
        )
        branch_pc = entry.pc
        entry.pc = reconv
        warp.stack.append(
            _StackEntry(amask=taken, pc=target_pc, reconv_pc=reconv, phase=_Phase.ELSE)
        )
        warp.stack.append(
            _StackEntry(
                amask=not_taken, pc=branch_pc + 1, reconv_pc=reconv, phase=_Phase.THEN
            )
        )

    def _exec_ret(self, warp: WarpState, entry: _StackEntry, insn: Instruction) -> None:
        if insn.pred is not None:
            exiting = {t for t in entry.amask if self._pred_holds(t, insn.pred)}
            if not exiting:
                entry.pc += 1
                return
            if exiting != set(entry.amask):
                raise SimulationError(
                    f"{warp.frame.ctx.kernel.name!r}: partially-predicated "
                    f"return at pc {entry.pc} is not supported; guard the "
                    "return with a branch instead"
                )
        if len(warp.stack) > 1:
            raise SimulationError(
                f"{warp.frame.ctx.kernel.name!r}: divergent return at pc "
                f"{entry.pc} is not supported; structure exits through the "
                "reconvergence point"
            )
        if len(warp.frames) > 1:
            # Device-function return: resume the caller (which already
            # advanced past the call instruction).
            warp.frames.pop()
            return
        self._finish_warp(warp)

    def _exec_call(self, warp: WarpState, entry: _StackEntry, insn: Instruction) -> None:
        """Enter a device function with the current active threads.

        Arguments are evaluated in the caller's frame and bound to the
        callee's ``.param`` names per thread, so per-thread values (like
        the instrumentation's unique TID, §4.1) pass through naturally.
        """
        target = insn.operands[0]
        if not isinstance(target, SymbolOperand):
            raise SimulationError(f"call target must be a function name: {insn}")
        try:
            function = self.module.function(target.name)
        except KeyError as exc:
            raise SimulationError(str(exc)) from exc
        args = insn.operands[1:]
        if len(args) != len(function.params):
            raise SimulationError(
                f"call to {function.name!r}: {len(args)} argument(s) for "
                f"{len(function.params)} parameter(s)"
            )
        active = {t for t in entry.amask if self._pred_holds(t, insn.pred)}
        if not active:
            entry.pc += 1
            return
        bindings: Dict[str, Dict[int, object]] = {}
        for param, arg in zip(function.params, args):
            bindings[param.name] = {tid: self._value(tid, arg) for tid in active}
        entry.pc += 1  # resume here after the return
        ctx = self._context_for(function)
        warp.frames.append(
            _Frame(
                ctx=ctx,
                stack=[
                    _StackEntry(
                        amask=active,
                        pc=0,
                        reconv_pc=ctx.end_pc,
                        phase=_Phase.BASE,
                    )
                ],
                regs={tid: {} for tid in self.layout.warp_tids(warp.warp)},
                params=bindings,
            )
        )

    # -- memory ----------------------------------------------------------
    def _space_of(self, insn: Instruction) -> Space:
        space = insn.state_space()
        if space.value == "shared":
            return Space.SHARED
        # Generic addresses are treated as global; local/param handled
        # by their dedicated paths.
        return Space.GLOBAL

    def _exec_load(self, warp: WarpState, insn: Instruction, active: Sequence[int]) -> None:
        dst, src = insn.operands
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        if isinstance(dst, VectorOperand):
            for tid in active:
                addr = self._address(tid, src)
                for lane_index, reg_name in enumerate(dst.regs):
                    element = addr + lane_index * width
                    if space == "shared":
                        raw = self.shared_mem.load(warp.block, element, width)
                    elif space == "local":
                        raw = self._local_store(tid).load(0, element, width)
                    else:
                        raw = self.global_mem.load(warp.block, element, width)
                    self._set_reg(tid, reg_name, _wrap(raw, type_name))
            return
        for tid in active:
            if space == "param":
                name = src.base if isinstance(src, MemOperand) else str(src)
                frame_params = self._frame_of(tid).params
                if name in frame_params:
                    value = frame_params[name].get(tid, 0)
                else:
                    value = self.params.get(name, 0)
            else:
                addr = self._address(tid, src)
                if space == "shared":
                    raw = self.shared_mem.load(warp.block, addr, width)
                elif space == "local":
                    raw = self._local_store(tid).load(0, addr, width)
                else:
                    raw = self.global_mem.load(warp.block, addr, width)
                value = _wrap(raw, type_name)
            self._set_reg(tid, dst.name, _wrap(value, type_name))

    def _exec_store(self, warp: WarpState, insn: Instruction, active: Sequence[int]) -> None:
        dst, src = insn.operands
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        if isinstance(src, VectorOperand):
            for tid in active:
                addr = self._address(tid, dst)
                for lane_index, reg_name in enumerate(src.regs):
                    element = addr + lane_index * width
                    raw = _as_unsigned(int(self._reg(tid, reg_name)), width)
                    if space == "shared":
                        self.shared_mem.store(warp.block, element, width, raw)
                    elif space == "local":
                        self._local_store(tid).store(0, element, width, raw)
                    else:
                        self.global_mem.store(warp.block, element, width, raw)
            return
        for tid in active:
            value = self._value(tid, src)
            raw = _as_unsigned(int(value), width) if not isinstance(value, float) else 0
            if isinstance(value, float):
                raw = int(value)  # modeled: float stores round toward zero
            addr = self._address(tid, dst)
            if space == "shared":
                self.shared_mem.store(warp.block, addr, width, raw)
            elif space == "local":
                self._local_store(tid).store(0, addr, width, raw)
            else:
                self.global_mem.store(warp.block, addr, width, raw)

    def _exec_atomic(self, warp: WarpState, insn: Instruction, active: Sequence[int]) -> None:
        operation = insn.atomic_operation()
        if operation is None:
            raise SimulationError(f"atomic without operation: {insn}")
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        has_dst = insn.opcode == "atom"
        operands = insn.operands
        dst = operands[0] if has_dst else None
        mem = operands[1] if has_dst else operands[0]
        srcs = operands[2:] if has_dst else operands[1:]
        for tid in active:
            addr = self._address(tid, mem)
            values = [int(self._value(tid, s)) for s in srcs]

            def rmw(old: int) -> Optional[int]:
                old = _as_unsigned(old, width)
                if operation == "add":
                    return _as_unsigned(old + values[0], width)
                if operation == "sub":
                    return _as_unsigned(old - values[0], width)
                if operation == "exch":
                    return _as_unsigned(values[0], width)
                if operation == "cas":
                    compare, new = values
                    return _as_unsigned(new, width) if old == _as_unsigned(
                        compare, width
                    ) else None
                if operation == "min":
                    return min(old, _as_unsigned(values[0], width))
                if operation == "max":
                    return max(old, _as_unsigned(values[0], width))
                if operation == "and":
                    return old & values[0]
                if operation == "or":
                    return old | values[0]
                if operation == "xor":
                    return old ^ values[0]
                if operation == "inc":
                    return 0 if old >= _as_unsigned(values[0], width) else old + 1
                if operation == "dec":
                    limit = _as_unsigned(values[0], width)
                    return limit if old == 0 or old > limit else old - 1
                raise SimulationError(f"unsupported atomic .{operation}")

            if space == "shared":
                old = self.shared_mem.atomic(warp.block, addr, width, rmw)
            else:
                old = self.global_mem.atomic(warp.block, addr, width, rmw)
            if dst is not None:
                self._set_reg(tid, dst.name, _wrap(old, type_name))

    # -- warp-synchronous exchange (shfl.sync / vote.sync) ----------------
    def _warp_sync_lanes(
        self, warp: WarpState, entry: _StackEntry, insn: Instruction,
        active: Sequence[int], operand: Operand,
    ) -> FrozenSet[int]:
        """Validate a ``.sync`` membermask; returns the required lanes.

        The mask names the lanes that must reach the instruction
        together.  Lanes the warp does not have (partial warps) are
        ignored; a mask with no live lane, or one naming a lane that
        diverged away, is a malformed sync and raises.
        """
        if active:
            mask = int(self._value(active[0], operand))
        elif isinstance(operand, ImmOperand):
            mask = int(operand.value)
        else:
            mask = 0
        lane_of = self.layout.lane_of
        existing = {lane_of(t) for t in self.layout.warp_tids(warp.warp)}
        required = frozenset(l for l in existing if (mask >> l) & 1)
        name = warp.frame.ctx.kernel.name
        if not required:
            raise SimulationError(
                f"{name!r}: {insn.full_opcode} at pc {entry.pc} has "
                f"membermask 0x{mask & 0xFFFFFFFF:08x} selecting no live "
                "lane of the warp"
            )
        active_lanes = {lane_of(t) for t in active}
        missing = required - active_lanes
        if missing:
            raise SimulationError(
                f"{name!r}: {insn.full_opcode} at pc {entry.pc} with "
                f"membermask 0x{mask & 0xFFFFFFFF:08x} requires lane(s) "
                f"{sorted(missing)} that did not reach it; all mask lanes "
                "must arrive together"
            )
        return required

    def _exec_shfl(
        self, warp: WarpState, entry: _StackEntry, insn: Instruction,
        active: Sequence[int],
    ) -> None:
        """``shfl.sync.{up,down,bfly,idx}.b32 d, a, b, c, membermask``.

        Register-level lane exchange (PTX ISA 9.7.9.3): no memory is
        touched and no record is emitted — by construction the detector
        cannot flag the communication as a race.  Lanes outside the
        membermask keep their own value (defined fallback).
        """
        mode = next(
            (m for m in insn.modifiers if m in ("up", "down", "bfly", "idx")),
            None,
        )
        if mode is None or len(insn.operands) != 5:
            raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
        dst, src, boff, cop, maskop = insn.operands
        required = self._warp_sync_lanes(warp, entry, insn, active, maskop)
        lane_of = self.layout.lane_of
        type_name = insn.value_type()
        # Gather every source lane's value before any write: the exchange
        # is simultaneous across the warp.
        lane_values = {
            lane_of(t): self._value(t, src)
            for t in active
            if lane_of(t) in required
        }
        results = {}
        for tid in active:
            lane = lane_of(tid)
            own = self._value(tid, src)
            if lane not in required:
                results[tid] = own
                continue
            b = int(self._value(tid, boff)) & 31
            c = int(self._value(tid, cop))
            cval = c & 31
            segmask = (c >> 8) & 31
            max_lane = (lane & segmask) | (cval & ~segmask & 31)
            min_lane = lane & segmask
            if mode == "up":
                j = lane - b
                in_bounds = j >= min_lane
            elif mode == "down":
                j = lane + b
                in_bounds = j <= max_lane
            elif mode == "bfly":
                j = lane ^ b
                in_bounds = j <= max_lane
            else:  # idx
                j = min_lane | (b & ~segmask & 31)
                in_bounds = j <= max_lane
            if in_bounds and j in lane_values:
                results[tid] = lane_values[j]
            else:
                results[tid] = own
        for tid, value in results.items():
            self._set_reg(tid, dst.name, _wrap(value, type_name))

    def _exec_vote(
        self, warp: WarpState, entry: _StackEntry, insn: Instruction,
        active: Sequence[int],
    ) -> None:
        """``vote.sync.{ballot.b32,any.pred,all.pred,uni.pred}``.

        Warp-wide predicate reduction over the membermask's lanes; like
        shfl, pure register traffic.  Lanes outside the mask get the
        defined fallbacks: 0 for ballot, their own predicate for
        any/all, 1 for uni.
        """
        mode = next(
            (m for m in insn.modifiers
             if m in ("ballot", "any", "all", "uni")),
            None,
        )
        if mode is None or len(insn.operands) != 3:
            raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
        dst, src, maskop = insn.operands
        required = self._warp_sync_lanes(warp, entry, insn, active, maskop)
        lane_of = self.layout.lane_of
        type_name = insn.value_type()
        preds = {
            lane_of(t): bool(self._value(t, src))
            for t in active
            if lane_of(t) in required
        }
        if mode == "ballot":
            joined = 0
            for lane, value in preds.items():
                if value:
                    joined |= 1 << lane
        elif mode == "any":
            joined = 1 if any(preds.values()) else 0
        elif mode == "all":
            joined = 1 if all(preds.values()) else 0
        else:  # uni: all participating lanes agree
            joined = 1 if len(set(preds.values())) <= 1 else 0
        for tid in active:
            lane = lane_of(tid)
            if lane in required:
                value = joined
            elif mode == "ballot":
                value = 0
            elif mode == "uni":
                value = 1
            else:
                value = 1 if self._value(tid, src) else 0
            self._set_reg(tid, dst.name, _wrap(value, type_name))

    # -- asynchronous copies (cp.async) -----------------------------------
    def _exec_cp(
        self, warp: WarpState, entry: _StackEntry, insn: Instruction,
        active: Sequence[int],
    ) -> None:
        """``cp.async`` copies and their commit/wait bookkeeping.

        The global read happens (and is logged) at issue; the shared
        write's *record* is deferred until the copy's completion edge —
        ``wait_group``/``wait_all``, or warp exit for copies never
        waited on.  The deferral is what lets the detector see an
        unwaited copy's store as unordered with post-barrier readers.
        """
        mods = insn.modifiers
        name = warp.frame.ctx.kernel.name
        if "async" not in mods:
            raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
        if "commit_group" in mods:
            warp.async_groups.append(warp.async_pending)
            warp.async_pending = []
            return
        if "wait_all" in mods:
            self._flush_async(warp, 0, include_uncommitted=True)
            return
        if "wait_group" in mods:
            if len(insn.operands) != 1 or not isinstance(
                insn.operands[0], ImmOperand
            ):
                raise SimulationError(
                    f"{name!r}: {insn.full_opcode} at pc {entry.pc} needs "
                    "one immediate group count"
                )
            keep = int(insn.operands[0].value)
            if keep < 0:
                raise SimulationError(
                    f"{name!r}: {insn.full_opcode} at pc {entry.pc}: group "
                    f"count must be non-negative, got {keep}"
                )
            self._flush_async(warp, keep)
            return
        if len(insn.operands) != 3:
            raise SimulationError(
                f"{name!r}: {insn.full_opcode} at pc {entry.pc} needs "
                "destination, source, and size operands"
            )
        dst, src, size_op = insn.operands
        if not isinstance(dst, MemOperand) or not isinstance(src, MemOperand):
            raise SimulationError(
                f"{name!r}: {insn.full_opcode} at pc {entry.pc}: copy "
                "operands must be addresses"
            )
        size = int(size_op.value) if isinstance(size_op, ImmOperand) else -1
        if size not in (4, 8, 16):
            raise SimulationError(
                f"{name!r}: {insn.full_opcode} at pc {entry.pc}: copy size "
                "must be 4, 8, or 16 bytes"
            )
        if not active:
            return
        src_addrs = {}
        dst_addrs = {}
        values = {}
        for tid in active:
            saddr = self._address(tid, src)
            daddr = self._address(tid, dst)
            raw = self.global_mem.load(warp.block, saddr, size)
            self.shared_mem.store(warp.block, daddr, size, raw)
            src_addrs[tid] = (Space.GLOBAL, saddr)
            dst_addrs[tid] = (Space.SHARED, daddr)
            values[tid] = raw
        if self.sink is None or not self.instrumented:
            return
        frozen = self.intern_mask(active)
        load = LogRecord(
            kind=RecordKind.LOAD,
            warp=warp.warp,
            active=frozen,
            addrs=src_addrs,
            width=size,
            pc=insn.line,
        )
        warp.cycles += self.sink.emit(load)
        self.result.records_emitted += 1
        warp.async_pending.append(
            LogRecord(
                kind=RecordKind.STORE,
                warp=warp.warp,
                active=frozen,
                addrs=dst_addrs,
                values=values,
                width=size,
                pc=insn.line,
            )
        )

    def _flush_async(
        self, warp: WarpState, keep_groups: int,
        include_uncommitted: bool = False,
    ) -> None:
        """Emit the deferred stores of completed ``cp.async`` groups."""
        records: List[LogRecord] = []
        while len(warp.async_groups) > keep_groups:
            records.extend(warp.async_groups.pop(0))
        if include_uncommitted and warp.async_pending:
            records.extend(warp.async_pending)
            warp.async_pending = []
        if self.sink is None or not self.instrumented:
            return
        for record in records:
            warp.cycles += self.sink.emit(record)
        self.result.records_emitted += len(records)

    def _finish_warp(self, warp: WarpState) -> None:
        """Mark a warp done; unwaited copies complete at exit.

        A ``cp.async`` nobody waited on still lands eventually — modeled
        as completing when the warp retires, which places its shared
        store after any barrier the program crossed in between: exactly
        the unordered shape the detector must flag.
        """
        warp.done = True
        self._flush_async(warp, 0, include_uncommitted=True)

    # -- arithmetic -------------------------------------------------------
    def _exec_arith(self, insn: Instruction, active: Sequence[int]) -> None:
        opcode = insn.opcode
        type_name = insn.value_type()
        for tid in active:
            handler = _ARITH.get(opcode)
            if handler is None:
                raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
            handler(self, tid, insn, type_name)

    # -- logging pseudo-instructions ---------------------------------------
    def _exec_log(self, warp: WarpState, entry: _StackEntry, insn: Instruction) -> None:
        warp.cycles += LOG_COST - 1
        self.result.cycles += LOG_COST - 1
        mods = insn.modifiers
        category = mods[0] if mods else ""
        if self.sink is None or category in ("tid", "cvg", "bar"):
            return
        pred = insn.pred
        if pred is None:
            active = entry.sorted_active()
            frozen = self.frozen_active(entry)
        else:
            active = [t for t in entry.sorted_active() if self._pred_holds(t, pred)]
            frozen = self.intern_mask(active)
        if not active:
            return
        width = type_width(insn.value_type()) if insn.value_type() else 4
        width *= insn.vector_count()
        if category == "mem":
            kind = {
                "ld": RecordKind.LOAD,
                "st": RecordKind.STORE,
                "atom": RecordKind.ATOMIC,
            }[mods[1]]
            space = Space.SHARED if "shared" in mods else Space.GLOBAL
            mem = insn.operands[0]
            addrs = {t: (space, self._address(t, mem)) for t in active}
            values = {}
            if kind is RecordKind.STORE and len(insn.operands) > 1:
                values = {t: int(self._value(t, insn.operands[1])) for t in active}
            record = LogRecord(
                kind=kind,
                warp=warp.warp,
                active=frozen,
                addrs=addrs,
                values=values,
                width=width,
                pc=insn.line,
            )
        elif category == "sync":
            kind = {
                "acq": RecordKind.ACQUIRE,
                "rel": RecordKind.RELEASE,
                "ar": RecordKind.ACQREL,
            }[mods[1]]
            scope = Scope.BLOCK if "cta" in mods else Scope.GLOBAL
            space = Space.SHARED if "shared" in mods else Space.GLOBAL
            mem = insn.operands[0]
            addrs = {t: (space, self._address(t, mem)) for t in active}
            record = LogRecord(
                kind=kind,
                warp=warp.warp,
                active=frozen,
                addrs=addrs,
                scope=scope,
                width=width,
                pc=insn.line,
            )
        else:
            raise SimulationError(f"unknown log instruction {insn.full_opcode!r}")
        warp.cycles += self.sink.emit(record)
        self.result.records_emitted += 1

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def try_release_barriers(self, warp: WarpState) -> bool:
        """Release the barrier that ``warp`` parking or exiting completed.

        A barrier's fate depends only on which warps are done, parked,
        or parked grid-wide, and only the warp that just stepped changes
        any of that — so the launch loop calls this once per warp that
        parked or exited, and only that warp's block and the grid-wide
        barrier are looked at.  Returns whether any warp was released.

        Emits the block-level BARRIER record (§3.1's ``bar(b)``) with the
        union of the arrived warps' active masks — a partial union is a
        barrier divergence bug that the detector reports.
        """
        if warp.done:
            self._live -= 1
            if not self._waiting:
                return False
        else:
            self._waiting += 1
            self._grid_waiting += warp.at_grid_barrier
        # Grid-wide (cooperative) barrier: released only when every live
        # warp of every block has arrived at it; one BARRIER record with
        # the grid sentinel block id carries the union of their masks.
        if self._grid_waiting and self._grid_waiting == self._live:
            live = [w for w in self.warps if not w.done]
            self._emit_barrier(GRID_BARRIER_BLOCK, live)
            for w in live:
                w.at_barrier = False
                w.at_grid_barrier = False
            self._waiting = self._grid_waiting = 0
            return True
        block_warps = [
            self.warps[w] for w in self.layout.block_warps(warp.block)
        ]
        live = [w for w in block_warps if not w.done]
        if live and all(w.at_barrier and not w.at_grid_barrier for w in live):
            self._emit_barrier(warp.block, live)
            for w in live:
                w.at_barrier = False
            self._waiting -= len(live)
            return True
        return False

    def _emit_barrier(self, block: int, arrived: List[WarpState]) -> None:
        if self.sink is None or not self.instrumented:
            return
        masks = [self.frozen_active(w.frame.stack[-1]) for w in arrived]
        active = masks[0] if len(masks) == 1 else frozenset().union(*masks)
        record = LogRecord(kind=RecordKind.BARRIER, warp=block, active=active)
        arrived[0].cycles += self.sink.emit(record)
        self.result.records_emitted += 1


# ----------------------------------------------------------------------
# Arithmetic handlers
# ----------------------------------------------------------------------
def _binop(fn):
    def handler(exe: KernelExecution, tid: int, insn: Instruction, type_name):
        dst, a, b = insn.operands
        # Normalize operands to the instruction's type first: a register
        # written as .b32 holds an unsigned pattern, but e.g. min.s32
        # must interpret it as signed.
        lhs = _wrap(exe._value(tid, a), type_name)
        rhs = _wrap(exe._value(tid, b), type_name)
        exe._set_reg(tid, dst.name, _wrap(fn(lhs, rhs), type_name))

    return handler


def _exec_mov(exe, tid, insn, type_name):
    dst, src = insn.operands
    exe._set_reg(tid, dst.name, _wrap(exe._value(tid, src), type_name))


def _exec_not(exe, tid, insn, type_name):
    dst, src = insn.operands
    value = exe._value(tid, src)
    if type_name == "pred":
        # not.pred is logical negation, not bitwise complement.
        result = 0 if value else 1
    else:
        result = _wrap(~int(value), type_name)
    exe._set_reg(tid, dst.name, result)


def _exec_neg(exe, tid, insn, type_name):
    dst, src = insn.operands
    exe._set_reg(tid, dst.name, _wrap(-exe._value(tid, src), type_name))


def _exec_abs(exe, tid, insn, type_name):
    dst, src = insn.operands
    exe._set_reg(tid, dst.name, _wrap(abs(exe._value(tid, src)), type_name))


def _exec_cvt(exe, tid, insn, type_name):
    # cvt.<dst_type>.<src_type> — wrap through the source type first.
    dst, src = insn.operands
    types = [m for m in insn.modifiers if m in _CVT_TYPES]
    value = exe._value(tid, src)
    if len(types) == 2:
        value = _wrap(value, types[1])
        value = _wrap(value, types[0])
    else:
        value = _wrap(value, type_name)
    exe._set_reg(tid, dst.name, value)


def _exec_cvta(exe, tid, insn, type_name):
    # Address-space conversion is a no-op in our flat address model.
    dst, src = insn.operands
    exe._set_reg(tid, dst.name, exe._value(tid, src))


def _exec_mad(exe, tid, insn, type_name):
    dst, a, b, c = insn.operands
    product = _wrap(exe._value(tid, a), type_name) * _wrap(exe._value(tid, b), type_name)
    if insn.has_modifier("hi") and type_name and type_name not in FLOAT_TYPES:
        product = int(product) >> (type_width(type_name) * 8)
    exe._set_reg(tid, dst.name, _wrap(product + exe._value(tid, c), type_name))


def _exec_fma(exe, tid, insn, type_name):
    dst, a, b, c = insn.operands
    result = exe._value(tid, a) * exe._value(tid, b) + exe._value(tid, c)
    exe._set_reg(tid, dst.name, _wrap(result, type_name))


def _exec_mul(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    product = _wrap(exe._value(tid, a), type_name) * _wrap(exe._value(tid, b), type_name)
    if insn.has_modifier("hi") and type_name and type_name not in FLOAT_TYPES:
        product = int(product) >> (type_width(type_name) * 8)
    exe._set_reg(tid, dst.name, _wrap(product, type_name))


def _exec_div(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    lhs = _wrap(exe._value(tid, a), type_name)
    rhs = _wrap(exe._value(tid, b), type_name)
    if type_name in FLOAT_TYPES:
        result = lhs / rhs if rhs else float("inf")
    elif not rhs:
        result = 0  # modeled: integer division by zero yields 0
    else:
        result = int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs
    exe._set_reg(tid, dst.name, _wrap(result, type_name))


def _exec_rem(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    lhs = int(_wrap(exe._value(tid, a), type_name))
    rhs = int(_wrap(exe._value(tid, b), type_name))
    if not rhs:
        result = 0
    else:
        result = lhs - rhs * (int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs)
    exe._set_reg(tid, dst.name, _wrap(result, type_name))


_COMPARES = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _exec_setp(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    compare = next(m for m in insn.modifiers if m in _COMPARES)
    lhs = _wrap(exe._value(tid, a), type_name)
    rhs = _wrap(exe._value(tid, b), type_name)
    exe._set_reg(tid, dst.name, 1 if _COMPARES[compare](lhs, rhs) else 0)


def _exec_selp(exe, tid, insn, type_name):
    dst, a, b, pred = insn.operands
    chosen = a if exe._value(tid, pred) else b
    exe._set_reg(tid, dst.name, _wrap(exe._value(tid, chosen), type_name))


def _exec_shl(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    exe._set_reg(
        tid, dst.name, _wrap(int(exe._value(tid, a)) << int(exe._value(tid, b)), type_name)
    )


def _exec_shr(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    value = _wrap(exe._value(tid, a), type_name)
    exe._set_reg(tid, dst.name, _wrap(int(value) >> int(exe._value(tid, b)), type_name))


def _exec_popc(exe, tid, insn, type_name):
    dst, src = insn.operands
    exe._set_reg(tid, dst.name, bin(int(exe._value(tid, src)) & ((1 << 64) - 1)).count("1"))


_CVT_TYPES = frozenset(
    {"u8", "u16", "u32", "u64", "s8", "s16", "s32", "s64", "f32", "f64",
     "b8", "b16", "b32", "b64"}
)

_ARITH: Dict[str, Callable] = {
    "mov": _exec_mov,
    "add": _binop(lambda a, b: a + b),
    "sub": _binop(lambda a, b: a - b),
    "mul": _exec_mul,
    "mad": _exec_mad,
    "fma": _exec_fma,
    "div": _exec_div,
    "rem": _exec_rem,
    "min": _binop(min),
    "max": _binop(max),
    "and": _binop(lambda a, b: int(a) & int(b)),
    "or": _binop(lambda a, b: int(a) | int(b)),
    "xor": _binop(lambda a, b: int(a) ^ int(b)),
    "not": _exec_not,
    "neg": _exec_neg,
    "abs": _exec_abs,
    "cvt": _exec_cvt,
    "cvta": _exec_cvta,
    "setp": _exec_setp,
    "selp": _exec_selp,
    "shl": _exec_shl,
    "shr": _exec_shr,
    "popc": _exec_popc,
}
