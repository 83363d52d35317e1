"""The SIMT device: a PTX engine with lockstep-warp execution.

This is the device the reproduction runs kernels on — the only one.
Execution follows the paper's model of the hardware (§2, §3.3.1):

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
its ``_log.*`` pseudo-instructions write log records into the GPU-side
queues, and the SIMT machinery writes branch records at divergence
points; a pristine kernel writes nothing (a "native" run).  A record is
born columnar: one row of the launch's :class:`repro.columnar.RowLog`,
written from the warp's lanes and the shaped address and value columns;
the sink is handed its number.

:class:`KernelExecution` is threaded code: each body is compiled **once
per** :class:`ExecContext` into a list of specialized Python closures,
and executing a step is one indirect call.

* opcode dispatch happens at decode time, through one table
  (``KernelExecution._DECODERS``) whose keys are opcodes of
  :mod:`repro.ptx.isa` — adding an instruction is one entry there (and,
  for arithmetic, one compiler in :mod:`repro.gpu.engine`);
* branch targets, reconvergence PCs and symbol addresses are
  pre-resolved to integers, a ``call``'s callee to its context, and a
  special register to a constant or a shared table;
* predicates are pre-bound to ``(register, negated)`` closures;
* the register file is **per warp**: one ``dict`` per frame whose
  values are UNIFORM, AFFINE or PER-LANE (:mod:`repro.gpu.values`), so
  an instruction whose operands the warp agrees on costs one scalar
  operation, not one per lane; operand access compiles to
  ``get(regs, warp)`` returning the shaped value, and whatever needs
  lanes (addresses, records, memory, divergence) reads them through
  :func:`repro.gpu.values.column`;
* type wrapping is specialized per instruction
  (:func:`repro.gpu.engine._make_wrap`), with mask and sign bit
  precomputed;
* a ``_log`` slot is fused with the access it guards, so the
  record-and-access pair executes as one closure (the instrumenter
  always places ``_log`` immediately before its target, unpredicated —
  see ``repro.instrument.passes``).

A launch is counted in one place.  :meth:`KernelExecution.step` counts
every closure it dispatches as one instruction and one cycle; the
closures keep no counters, except that a ``_log`` adds the rest of its
``LOG_COST`` and a fused ``_log`` counts the access it runs in the same
slot.  Every record is a row of :attr:`KernelExecution.rows` (``None``
when the launch does not log: no sink, or not instrumented) and leaves
through :meth:`KernelExecution._emit`, the one place that counts the
record and charges the sink's queue stall to
:attr:`LaunchResult.stall_cycles`.

Decoding is total: a statement that cannot be compiled (an opcode with
no table entry, a malformed operand list, an unknown symbol) decodes to
a closure that raises only when an active thread reaches it, so dead
code never fails a launch.

The specification this engine is held to is the re-decode-every-step
interpreter it replaced, which now lives in ``tests/oracle.py``
(``NaiveKernelExecution``) and is substituted for this class by the
differential suites in ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError, SimulationError
from ..ptx.ast import (
    ImmOperand,
    Instruction,
    Kernel,
    MemOperand,
    Module,
    Operand,
    RegOperand,
    SpecialRegOperand,
    SymbolOperand,
    VectorOperand,
)
from ..ptx.cfg import CFG
from ..ptx.isa import type_width
from ..columnar import (
    KIND_BARRIER,
    KIND_BRANCH_IF,
    KIND_CODE,
    KIND_LOAD,
    KIND_STORE,
    SCOPE_CODE,
    SPACE_CODE,
    ColumnarBatch,
    RowLog,
)
from ..events import GRID_BARRIER_BLOCK, LogRecord, RecordKind
from ..trace.layout import GridLayout, mask_lanes
from ..trace.operations import Scope, Space
from .engine import (
    _ARITH_COMPILERS,
    _ATOMIC_RMW,
    _compile_convert,
    _int_range,
    _make_wrap,
)
from .hierarchy import LaunchConfig
from .memory import GlobalMemory, SharedMemory
from .values import Affine, Lanes, column, merge, shape_of

#: Modeled cost (in instruction slots) of one logging call: slot
#: reservation, per-lane address stores, header fill and commit (§4.2).
LOG_COST = 24


class _Phase(enum.Enum):
    BASE = "base"
    THEN = "then"
    ELSE = "else"


@dataclass
class _StackEntry:
    """One path of a warp's SIMT stack.  ``mask`` is its active mask as
    the hardware holds it: bit ``l`` is lane ``l``, thread ``first_tid +
    l``.  A path never changes membership (it only reconverges by
    popping), so ``lanes``, the same lanes as a ``values.Lanes``, is set
    once, when the entry is pushed (:func:`_path`)."""

    mask: int
    lanes: Lanes
    pc: int
    reconv_pc: int
    phase: _Phase


def _lane_bits(lanes: Lanes, count: int) -> int:
    """The active mask of ``lanes`` in a ``count``-lane warp."""
    if lanes is None:
        return (1 << count) - 1
    return sum(1 << lane for lane in lanes)


def _path(mask: int, count: int, pc: int, reconv_pc: int,
          phase: _Phase) -> _StackEntry:
    """The stack entry of the lanes ``mask`` of a ``count``-lane warp."""
    lanes = None if mask == (1 << count) - 1 else tuple(mask_lanes(mask))
    return _StackEntry(mask=mask, lanes=lanes, pc=pc, reconv_pc=reconv_pc,
                       phase=phase)


@dataclass
class ExecContext:
    """The static context of one executable body (kernel or .func)."""

    kernel: Kernel
    cfg: CFG
    labels: Dict[str, int]
    end_pc: int
    #: The decoded program (one closure per statement, ``None`` for a
    #: label); filled on first entry by ``KernelExecution._decode_ctx``.
    decoded: Optional[List[Optional[Callable]]] = None


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
    #: The warp's registers, one shaped value (``repro.gpu.values``) per
    #: name; a register never written reads as UNIFORM 0.  Device
    #: functions get fresh files (PTX registers are function-scoped).
    regs: Dict[str, object]
    #: Shaped argument values bound to the callee's ``.param`` names,
    #: for ``ld.param`` inside the body.
    params: Dict[str, object] = field(default_factory=dict)


@dataclass(eq=False)
class WarpState:
    """Execution state of one warp.

    Compared and hashed by identity: a warp is its own key, and a
    field-by-field ``__eq__`` would walk frames and register files.
    """

    warp: int
    block: int
    #: The warp's threads are ``first_tid .. first_tid + lanes - 1``; a
    #: thread's lane is its offset from ``first_tid``.
    first_tid: int
    lanes: int
    #: Thread ``tids[lane]``: one int per thread, which every record's
    #: ``addrs``/``values`` keys and tid set share.
    tids: Tuple[int, ...]
    frames: List[_Frame]
    done: bool = False
    at_barrier: bool = False
    #: Deferred shared-side STORE rows of ``cp.async`` copies issued but
    #: not yet committed to a group, staged as ``(pc, width, mask key,
    #: tids, addresses, values)`` until they complete.
    async_pending: List[tuple] = field(default_factory=list)
    #: Committed-but-unwaited ``cp.async`` groups, oldest first.
    async_groups: List[List[tuple]] = field(default_factory=list)
    #: Waiting at a grid-wide (cooperative) barrier, not a block one.
    at_grid_barrier: bool = False

    @property
    def frame(self) -> _Frame:
        return self.frames[-1]

    @property
    def stack(self) -> List[_StackEntry]:
        return self.frames[-1].stack


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

    The engine hands a sink each record as ``emit_row(rows, number)``:
    row ``number`` of the launch's :class:`repro.columnar.RowLog`, which
    stays where the engine wrote it.  The sink returns the stall cycles
    the warp incurred (non-zero when the queue was full and had to be
    drained); they are charged to :attr:`LaunchResult.stall_cycles`.
    """

    def emit_row(self, rows: RowLog, number: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class ListSink(EventSink):
    """Keeps the row log batches of the rows it is handed; never stalls."""

    def __init__(self) -> None:
        #: Each batch a handed row lies in, once, in row order.
        self.batches: List[ColumnarBatch] = []

    def emit_row(self, rows: RowLog, number: int) -> int:
        batch, _row = rows.locate(number)
        batches = self.batches
        if not batches or batches[-1] is not batch:
            batches.append(batch)
        return 0

    @property
    def records(self) -> List[LogRecord]:
        """The rows as records of views, in row order."""
        return [record for batch in self.batches
                for record in batch.to_records()]


#: A decoded statement: ``op(warp, entry) -> bool``.  The closure does
#: its own PC update (``step`` counts it); a ``True`` return means
#: the instruction slot is still open (a ``_log`` whose guarded access
#: has not executed yet), ``False`` closes the slot.
DecodedOp = Callable[[WarpState, _StackEntry], bool]


def _active_lanes(warp: WarpState, entry: _StackEntry, regs, pred) -> Lanes:
    """The lanes of ``entry`` its guard predicate leaves active — ``()``
    when it leaves none."""
    lanes = entry.lanes
    if pred is None:
        return lanes
    name, negated = pred
    value = regs.get(name, 0)
    kind = type(value)
    if kind is not list and kind is not Affine:
        # A UNIFORM predicate decides for the whole warp.
        return lanes if bool(value) != negated else ()
    count = warp.lanes
    flags = column(value, count)
    chosen = tuple(
        lane for lane in (range(count) if lanes is None else lanes)
        if bool(flags[lane]) != negated
    )
    return None if len(chosen) == count else chosen


def _tids(warp: WarpState, lanes: Lanes) -> Sequence[int]:
    """The global thread ids of ``lanes``, ascending."""
    tids = warp.tids
    if lanes is None:
        return tids
    return [tids[lane] for lane in lanes]


_I64_SIGN = 1 << 63

#: The value types of a store whose lanes can go as one run: integers
#: only (a float store rounds and may raise lane by lane).
_INT_ONLY = {int}


def _non_finite(line: int) -> SimulationError:
    return SimulationError(f"store at line {line} writes a non-finite float")


def _logged_values(stored: Sequence, line: int) -> List[int]:
    """A store's per-lane values as its record logs them: the low 64 bits,
    as a signed int64 — a value that fits is itself, and two are equal
    exactly when their low 64 bits are (what the same-value filter
    compares).  A float rounds toward zero, as the store does."""
    try:
        ints = list(map(int, stored))
    except (OverflowError, ValueError):  # int(inf), int(nan)
        raise _non_finite(line) from None
    if min(ints) < -_I64_SIGN or max(ints) >= _I64_SIGN:
        ints = [(v + _I64_SIGN) % (2 * _I64_SIGN) - _I64_SIGN for v in ints]
    return ints


def _write(regs, name: str, value, count: int, lanes: Lanes) -> None:
    """Assign a warp step's result (see ``engine._lift``) to a register;
    under a partial mask the other lanes keep their old value."""
    regs[name] = value if lanes is None else merge(
        regs.get(name, 0), value, count, lanes)


#: What compiling a malformed statement raises (wrong operand count or
#: kind, unknown label or type); ``_decode_ctx`` defers these to the
#: moment a thread reaches the statement.
_MALFORMED = (ValueError, LookupError, AttributeError, TypeError)


class KernelExecution:
    """One kernel launch in flight on the simulated device.

    Bodies are decoded lazily on first entry (symbol addresses are only
    final after ``__init__`` finishes laying out shared memory); the
    decoded program is cached on the :class:`ExecContext`, so kernels
    and device functions are compiled exactly once per launch.
    """

    #: Optional hot-path profiler (``repro.obs.profiler.Profiler``),
    #: attached by ``GpuDevice.launch`` when profiling is enabled.  The
    #: cost of a disabled profiler is this one is-None check per decoded
    #: statement at decode time — the dispatch loop never changes.
    profiler = None

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
        self.shared_mem = SharedMemory(self.shared_bytes)
        #: The .local state space, keyed by thread: thread-private, and
        #: it persists across call frames.
        self.local_mem = SharedMemory()
        # The special registers that vary, by key (see ``_compile_special``).
        self._special_tables: Dict[Tuple[str, Optional[str]], list] = {}
        #: The launch's records, one row each; ``None`` when it does not
        #: log (no sink, or a pristine launch), and then no row is written.
        self.rows: Optional[RowLog] = (
            RowLog(self.layout) if sink is not None and instrumented else None)
        self.warps: List[WarpState] = []
        for w in self.layout.all_warps():
            first, lanes = self.layout.warp_span(w)
            self.warps.append(WarpState(
                warp=w,
                block=self.layout.block_of_warp(w),
                first_tid=first,
                lanes=lanes,
                tids=tuple(range(first, first + lanes)),
                frames=[
                    _Frame(
                        ctx=self._kernel_ctx,
                        stack=[_path((1 << lanes) - 1, lanes, 0,
                                     self._kernel_ctx.end_pc, _Phase.BASE)],
                        regs={},
                    )
                ],
            ))
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
    def _symbol_address(self, name: str) -> int:
        if name in self.shared_symbols:
            return self.shared_symbols[name]
        if name in self.global_symbols:
            return self.global_symbols[name]
        raise SimulationError(f"unknown symbol {name!r}")

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

        Every statement dispatched here is counted here, as one
        instruction and one cycle.
        """
        frames = warp.frames
        result = self.result
        while True:
            while True:
                frame = frames[-1]
                stack = frame.stack
                entry = stack[-1]
                ctx = frame.ctx
                # Reconvergence is reached on *arrival* at the IPDOM: the
                # comparison must be equality, because a branch inside a
                # loop can reconverge at the loop header, i.e. at a lower
                # statement index than the arms execute at.
                if (
                    not entry.mask
                    or entry.pc == entry.reconv_pc
                    or entry.pc >= ctx.end_pc
                ):
                    if len(stack) == 1:
                        if len(frames) > 1:
                            # Implicit return: the device function's body
                            # ran off its end; resume the caller.
                            frames.pop()
                            continue
                        self._finish_warp(warp)
                        return
                    self._pop_path(warp)
                    continue
                ops = ctx.decoded
                if ops is None:
                    ops = self._decode_ctx(ctx)
                op = ops[entry.pc]
                if op is None:  # Label: free
                    entry.pc += 1
                    continue
                break
            result.instructions += 1
            result.cycles += 1
            if not op(warp, entry):
                return

    def _pop_path(self, warp: WarpState) -> None:
        finished = warp.stack.pop()
        if finished.phase is _Phase.THEN:
            self._emit_branch(warp, RecordKind.BRANCH_ELSE)
        elif finished.phase is _Phase.ELSE:
            self._emit_branch(warp, RecordKind.BRANCH_FI)

    def _emit_branch(self, warp: WarpState, kind: RecordKind) -> None:
        """The ELSE or FI row of a path that finished (no mask, no pc)."""
        rows = self.rows
        if rows is not None:
            self._emit(rows.write(KIND_CODE[kind], warp.warp, -1, 4, -1,
                                  None, ()))

    def _emit(self, number: int) -> None:
        """The launch's one way out for a record: row ``number`` of
        :attr:`rows`, which only a logging launch writes.  The record is
        counted, and the stall the sink reports (a full queue the host
        had to drain, §4.2) is charged to the launch.
        """
        result = self.result
        result.stall_cycles += self.sink.emit_row(self.rows, number)
        result.records_emitted += 1

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode_ctx(self, ctx: ExecContext) -> List[Optional[DecodedOp]]:
        body = ctx.kernel.body
        ops: List[Optional[DecodedOp]] = [None] * len(body)
        conv = set(ctx.cfg.convergence_points())
        profiler = self.profiler
        unsupported = KernelExecution._decode_unsupported
        # Decode back-to-front so a ``_log`` can fuse with the already
        # decoded closure of the access it guards.  Profiler wrapping
        # happens here too, so a fusing ``_log`` captures the *wrapped*
        # follower and per-opcode counts match dynamic instruction
        # counts exactly.
        for pc in range(len(body) - 1, -1, -1):
            stmt = body[pc]
            if not isinstance(stmt, Instruction):
                continue
            decode = self._DECODERS.get(stmt.opcode, unsupported)
            try:
                op = decode(self, ctx, pc, stmt)
                if stmt.opcode == "_log":
                    op = self._fuse_log(ctx, pc, op, ops, conv)
            except ReproError as exc:
                op = self._raise_when_reached(pc, stmt, exc)
            except _MALFORMED as exc:
                op = self._raise_when_reached(pc, stmt, SimulationError(
                    f"{ctx.kernel.name!r}: malformed instruction "
                    f"{stmt.full_opcode!r} at pc {pc} (line {stmt.line}): {exc}"
                ))
            if profiler is not None:
                op = profiler.wrap_op(op, stmt.opcode,
                                      getattr(stmt, "line", 0))
            ops[pc] = op
        ctx.decoded = ops
        return ops

    def _raise_when_reached(
        self, pc: int, insn: Instruction, error: ReproError
    ) -> DecodedOp:
        """A statement that cannot execute.

        Keeps decode total: ``error`` is raised when the statement is
        reached with at least one active thread and never before, so
        dead or fully predicated-off code does not fail the launch.
        """
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            if _active_lanes(warp, entry, warp.frames[-1].regs, pred) != ():
                raise error
            entry.pc = next_pc
            return False

        return op

    def _decode_unsupported(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        """The decoder of every opcode ``_DECODERS`` has no entry for."""
        return self._raise_when_reached(
            pc, insn, SimulationError(f"unsupported opcode {insn.full_opcode!r}")
        )

    # -- operand compilation -------------------------------------------
    def _compile_value(self, operand: Operand) -> Callable:
        """Compile an operand to ``get(regs, warp)``: its shaped value,
        read raw, in the register file ``regs`` of the warp's top frame."""
        if isinstance(operand, RegOperand):
            name = operand.name
            return lambda regs, warp: regs.get(name, 0)
        if isinstance(operand, ImmOperand):
            value = operand.value
            return lambda regs, warp: value
        if isinstance(operand, SpecialRegOperand):
            return self._compile_special(operand)
        if isinstance(operand, SymbolOperand):
            addr = self._symbol_address(operand.name)
            return lambda regs, warp: addr
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    def _compile_special(self, operand: SpecialRegOperand) -> Callable:
        """A special register as ``get(regs, warp)``, resolved here: a
        launch constant is folded in, ``%ctaid.*`` reads a table by
        block, and a per-thread register (``%tid.x`` of a 1-D block is
        AFFINE, a block narrower than the warp whatever its lanes say)
        reads the shaped value of the warp's position in its block,
        which every block shares."""
        key = (operand.name, operand.dim)
        config, layout = self.config, self.layout
        launch = config.block_registers(0)
        if key not in launch and key not in config.thread_registers(0):
            raise SimulationError(f"special register {operand} is not modeled")
        if key in launch and operand.name != "%ctaid":
            constant = launch[key]
            return lambda regs, warp: constant
        table = self._special_tables.get(key)
        if table is None:
            if operand.name == "%ctaid":
                table = [config.block_registers(block)[key]
                         for block in range(layout.num_blocks)]
            else:
                size, width = layout.threads_per_block, layout.warp_size
                table = [
                    shape_of([config.thread_registers(thread)[key] for thread
                              in range(start, min(start + width, size))])
                    for start in range(0, size, width)
                ]
            self._special_tables[key] = table
        if operand.name == "%ctaid":
            return lambda regs, warp: table[warp.block]
        per_block = layout.warps_per_block
        return lambda regs, warp: table[warp.warp % per_block]

    def _compile_address(self, operand: MemOperand) -> Callable:
        """Compile ``[base+offset]`` to ``addrs(regs, warp, lanes)``: the
        address of every active lane, in lane order."""
        base = operand.base
        offset = operand.offset
        if base.startswith("%"):
            return lambda regs, warp, lanes: [
                int(address) + offset
                for address in column(regs.get(base, 0), warp.lanes, lanes)
            ]
        addr = self._symbol_address(base) + offset
        return lambda regs, warp, lanes: column(addr, warp.lanes, lanes)

    # -- control flow ---------------------------------------------------
    def _decode_branch(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        target_pc = ctx.labels[insn.branch_target()]
        pred = insn.pred
        if pred is None:

            def op_uniform(warp: WarpState, entry: _StackEntry) -> bool:
                entry.pc = target_pc
                return False

            return op_uniform

        pname, pneg = pred
        reconv = ctx.cfg.reconvergence_pc(pc)
        next_pc = pc + 1
        rows = self.rows
        emit = self._emit

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            value = warp.frames[-1].regs.get(pname, 0)
            kind = type(value)
            if kind is not list and kind is not Affine:
                # A UNIFORM predicate takes the whole warp one way.
                entry.pc = target_pc if bool(value) != pneg else next_pc
                return False
            count = warp.lanes
            flags = column(value, count)
            lanes = entry.lanes
            taken = 0
            for lane in range(count) if lanes is None else lanes:
                if bool(flags[lane]) != pneg:
                    taken |= 1 << lane
            mask = entry.mask
            if taken == mask:
                entry.pc = target_pc
                return False
            if not taken:
                entry.pc = next_pc
                return False
            not_taken = mask & ~taken
            if rows is not None:
                first = warp.first_tid
                emit(rows.write(
                    KIND_BRANCH_IF, warp.warp, pc, 4, -1,
                    (warp.warp, mask), _tids(warp, lanes),
                    then_key=(warp.warp, not_taken),
                    then_mask=(first + lane for lane in mask_lanes(not_taken))))
            entry.pc = reconv
            stack = warp.frames[-1].stack
            stack.append(_path(taken, count, target_pc, reconv, _Phase.ELSE))
            stack.append(_path(not_taken, count, next_pc, reconv, _Phase.THEN))
            return False

        return op

    def _decode_bar(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        """``bar.sync``, or the grid-wide ``barrier.cluster.sync``, which
        is only legal on a cooperative launch (every block resident at
        once)."""
        grid = insn.opcode == "barrier"
        if grid and not self.cooperative:
            raise SimulationError(
                f"{ctx.kernel.name!r}: {insn.full_opcode} at pc {pc} requires "
                "a cooperative launch (launch with cooperative=True)"
            )
        next_pc = pc + 1

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            entry.pc = next_pc
            warp.at_barrier = True
            warp.at_grid_barrier = grid
            return False

        return op

    def _decode_membar(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        next_pc = pc + 1
        drain = not insn.has_modifier("cta")
        global_mem = self.global_mem

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            if drain:
                global_mem.drain_all()
            entry.pc = next_pc
            return False

        return op

    def _decode_ret(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        """``ret``/``exit``: a device function resumes its caller (which
        already advanced past the call); the kernel's body retires the
        warp."""
        next_pc = pc + 1
        pred = insn.pred
        name = ctx.kernel.name
        finish = self._finish_warp

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            frames = warp.frames
            if pred is not None:
                exiting = _active_lanes(warp, entry, frames[-1].regs, pred)
                if exiting == ():
                    entry.pc = next_pc
                    return False
                if exiting != entry.lanes:
                    raise SimulationError(
                        f"{name!r}: partially-predicated return at pc {pc} is "
                        "not supported; guard the return with a branch instead"
                    )
            if len(frames[-1].stack) > 1:
                raise SimulationError(
                    f"{name!r}: divergent return at pc {pc} is not supported; "
                    "structure exits through the reconvergence point"
                )
            if len(frames) > 1:
                frames.pop()
            else:
                finish(warp)
            return False

        return op

    def _decode_call(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        """Enter a device function with the current active threads.

        Arguments are evaluated in the caller's frame and bound to the
        callee's ``.param`` names as shaped values, so per-thread values
        (like the instrumentation's unique TID, §4.1) pass through
        naturally.
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
        bindings = [(param.name, self._compile_value(arg))
                    for param, arg in zip(function.params, args)]
        callee = self._context_for(function)
        end_pc = callee.end_pc
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            entry.pc = next_pc  # resume here after the return
            if lanes != ():
                count = warp.lanes
                warp.frames.append(_Frame(
                    ctx=callee,
                    stack=[_path(_lane_bits(lanes, count), count, 0, end_pc,
                                 _Phase.BASE)],
                    regs={},
                    params={name: get(regs, warp) for name, get in bindings},
                ))
            return False

        return op

    # -- logging ---------------------------------------------------------
    def _fuse_log(
        self,
        ctx: ExecContext,
        pc: int,
        log_op: DecodedOp,
        ops: List[Optional[DecodedOp]],
        conv: set,
    ) -> DecodedOp:
        # Fuse with the guarded access: the instrumenter always places
        # ``_log`` directly before its target instruction with no label
        # in between, so as long as pc+1 is a plain instruction and not
        # a reconvergence point, the step loop is guaranteed to execute
        # pc+1 immediately after the log within the same slot.  The step
        # loop counts the log; the fused closure counts the access.
        body = ctx.kernel.body
        follower = ops[pc + 1] if pc + 1 < len(ops) else None
        if (
            follower is not None
            and isinstance(body[pc + 1], Instruction)
            and (pc + 1) not in conv
        ):
            result = self.result

            def fused(warp: WarpState, entry: _StackEntry) -> bool:
                log_op(warp, entry)
                result.instructions += 1
                result.cycles += 1
                return follower(warp, entry)

            return fused
        return log_op

    def _decode_log(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        mods = insn.modifiers
        category = mods[0] if mods else ""
        result = self.result
        next_pc = pc + 1
        # ``step`` counted the slot's first cycle.
        extra_cost = LOG_COST - 1
        if category in ("tid", "cvg", "bar"):

            def op_silent(warp: WarpState, entry: _StackEntry) -> bool:
                result.cycles += extra_cost
                entry.pc = next_pc
                return True

            return op_silent

        if category == "mem":
            kind = {
                "ld": RecordKind.LOAD,
                "st": RecordKind.STORE,
                "atom": RecordKind.ATOMIC,
            }[mods[1]]
            scope = None
        elif category == "sync":
            kind = {
                "acq": RecordKind.ACQUIRE,
                "rel": RecordKind.RELEASE,
                "ar": RecordKind.ACQREL,
            }[mods[1]]
            scope = Scope.BLOCK if "cta" in mods else Scope.GLOBAL
        else:
            raise SimulationError(f"unknown log instruction {insn.full_opcode!r}")
        code = KIND_CODE[kind]
        scope_code = -1 if scope is None else SCOPE_CODE[scope]
        space = SPACE_CODE[Space.SHARED if "shared" in mods else Space.GLOBAL]
        width = type_width(insn.value_type()) if insn.value_type() else 4
        width *= insn.vector_count()
        addrs_of = self._compile_address(insn.operands[0])
        value_of = None
        if kind is RecordKind.STORE and len(insn.operands) > 1:
            value_of = self._compile_value(insn.operands[1])
        pred = insn.pred
        pc_line = insn.line
        emit = self._emit
        rows = self.rows

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            result.cycles += extra_cost
            entry.pc = next_pc
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes == ():
                return True
            addrs = addrs_of(regs, warp, lanes)
            values = None
            if value_of is not None:
                values = _logged_values(
                    column(value_of(regs, warp), warp.lanes, lanes), pc_line)
            if rows is not None:
                tids = _tids(warp, lanes)
                key = (warp.warp, entry.mask if pred is None
                       else _lane_bits(lanes, warp.lanes))
                emit(rows.write(code, warp.warp, pc_line, width, scope_code,
                                key, tids, tids=tids, space=space,
                                addrs=addrs, values=values))
            return True

        return op

    # -- memory ----------------------------------------------------------
    def _compile_raw_load(self, space: str, width: int) -> Callable:
        """``load(block, tid, addr) -> raw`` for one state space."""
        if space == "local":
            local_load = self.local_mem.load
            return lambda block, tid, addr: local_load(tid, addr, width)
        load = (self.shared_mem if space == "shared" else self.global_mem).load
        return lambda block, tid, addr: load(block, addr, width)

    def _compile_raw_store(self, space: str, width: int) -> Callable:
        """``store(block, tid, addr, raw)`` for one state space."""
        if space == "local":
            local_store = self.local_mem.store
            return lambda block, tid, addr, raw: local_store(tid, addr, width, raw)
        store = (self.shared_mem if space == "shared" else self.global_mem).store
        return lambda block, tid, addr, raw: store(block, addr, width, raw)

    def _decode_load(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        dst, src = insn.operands
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        vector = isinstance(dst, VectorOperand)
        if space == "param" and not vector:
            # A move from the callee's ``.param`` binding, else from the
            # launch parameter (one UNIFORM).
            name = src.base if isinstance(src, MemOperand) else str(src)
            launch_params = self.params

            def bound(regs, warp):
                params = warp.frames[-1].params
                return params[name] if name in params else launch_params.get(name, 0)

            return self._value_op(pc, insn, _compile_convert(bound, type_name))

        wrap = _make_wrap(type_name)
        next_pc = pc + 1
        pred = insn.pred
        # A vector load fills ``dst.regs`` from consecutive elements.
        names = dst.regs if vector else (dst.name,)
        offsets = range(0, len(names) * width, width)
        addrs_of = self._compile_address(src)
        load_raw = self._compile_raw_load(space, width)
        load_warp = None
        if not vector and space in ("global", "shared") and src.base.startswith("%"):
            # A warp whose lanes read consecutive words (an exact AFFINE
            # address of stride ``width``) loads them as one run, from
            # the first active lane's word to the last one's.  ``None``
            # — another address shape, a queued store to forward, an
            # illegal address — leaves the load to the per-lane loop.
            memory = self.shared_mem if space == "shared" else self.global_mem
            load_run = memory.load_run
            register, displacement = src.base, src.offset
            # A word of an unsigned type is already in its range.
            ints = _int_range(type_name)
            unsigned = ints is not None and not ints[1]

            def load_warp(regs, warp: WarpState, lanes: Lanes) -> Optional[List[list]]:
                address = regs.get(register, 0)
                if (type(address) is not Affine or address.stride != width
                        or address.ring is not None):
                    return None
                first, last = (0, warp.lanes - 1) if lanes is None else (
                    lanes[0], lanes[-1])
                words = load_run(warp.block, address.base + width * first + displacement,
                                 last - first + 1, width)
                if words is None:
                    return None
                if lanes is not None and len(lanes) <= last - first:
                    words = [words[lane - first] for lane in lanes]
                return [words if unsigned else list(map(wrap, words))]

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes != ():
                loaded = None if load_warp is None else load_warp(regs, warp, lanes)
                if loaded is None:
                    block = warp.block
                    accesses = zip(_tids(warp, lanes), addrs_of(regs, warp, lanes))
                    if vector:
                        # Thread by thread, then element by element.
                        loaded = map(list, zip(*[
                            [wrap(load_raw(block, tid, addr + offset))
                             for offset in offsets]
                            for tid, addr in accesses
                        ]))
                    else:
                        loaded = [[wrap(load_raw(block, tid, addr))
                                   for tid, addr in accesses]]
                for name, values in zip(names, loaded):
                    _write(regs, name, values, warp.lanes, lanes)
            entry.pc = next_pc
            return False

        return op

    def _decode_store(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        dst, src = insn.operands
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        next_pc = pc + 1
        pred = insn.pred
        umask = (1 << (width * 8)) - 1
        addrs_of = self._compile_address(dst)
        store_raw = self._compile_raw_store(space, width)
        # A vector store spreads ``src.regs`` over consecutive elements.
        vector = isinstance(src, VectorOperand)
        sources = [
            self._compile_value(element)
            for element in (map(RegOperand, src.regs) if vector else (src,))
        ]
        offsets = range(0, len(sources) * width, width)
        # A warp whose active lanes store integers to consecutive words
        # (whatever the address register's shape) stores them as one
        # run: one queue entry of global memory, one slice of a block's
        # shared memory.  ``False`` — a lane outside the extent — leaves
        # the store to the per-lane loop, which faults at that lane.
        store_run = None
        if not vector and space in ("global", "shared"):
            store_run = (self.shared_mem if space == "shared"
                         else self.global_mem).store_run

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes != ():
                block = warp.block
                count = warp.lanes
                addrs = addrs_of(regs, warp, lanes)
                stored = [column(get(regs, warp), count, lanes) for get in sources]
                if store_run is not None:
                    first = addrs[0]
                    if (addrs == list(range(first, first + width * len(addrs), width))
                            and set(map(type, stored[0])) == _INT_ONLY
                            and store_run(block, first, width, stored[0])):
                        entry.pc = next_pc
                        return False
                tids = _tids(warp, lanes)
                if vector:
                    # Thread by thread, then element by element.
                    for tid, addr, *values in zip(tids, addrs, *stored):
                        for offset, value in zip(offsets, values):
                            if isinstance(value, float) and not math.isfinite(value):
                                raise _non_finite(insn.line)
                            store_raw(block, tid, addr + offset, int(value) & umask)
                else:
                    for tid, addr, value in zip(tids, addrs, stored[0]):
                        if isinstance(value, float):
                            # Modeled: float stores round toward zero (and
                            # are deliberately not masked — oracle parity).
                            if not math.isfinite(value):
                                raise _non_finite(insn.line)
                            raw = int(value)
                        else:
                            raw = int(value) & umask
                        store_raw(block, tid, addr, raw)
            entry.pc = next_pc
            return False

        return op

    def _decode_atomic(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        operation = insn.atomic_operation()
        if operation is None:
            raise SimulationError(f"atomic without operation: {insn}")
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        umask = (1 << (width * 8)) - 1
        rmw2 = _ATOMIC_RMW.get(operation)
        if rmw2 is None:
            raise SimulationError(f"unsupported atomic .{operation}")
        rmw2 = rmw2(umask)
        has_dst = insn.opcode == "atom"
        operands = insn.operands
        dst_name = operands[0].name if has_dst else None
        mem_op = operands[1] if has_dst else operands[0]
        src_gets = tuple(
            self._compile_value(s) for s in (operands[2:] if has_dst else operands[1:])
        )
        addrs_of = self._compile_address(mem_op)
        wrap = _make_wrap(type_name)
        atomic = (self.shared_mem if space == "shared" else self.global_mem).atomic
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes != ():
                block = warp.block
                count = warp.lanes
                sources = [column(g(regs, warp), count, lanes) for g in src_gets]
                old = []
                for addr, *raw in zip(addrs_of(regs, warp, lanes), *sources):
                    values = [int(value) for value in raw]
                    old.append(wrap(atomic(
                        block,
                        addr,
                        width,
                        lambda o, _v=values: rmw2(o & umask, _v),
                    )))
                if dst_name is not None:
                    _write(regs, dst_name, old, count, lanes)
            entry.pc = next_pc
            return False

        return op

    # -- arithmetic -------------------------------------------------------
    def _decode_arith(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        return self._value_op(pc, insn, _ARITH_COMPILERS[insn.opcode](self, insn))

    def _value_op(self, pc: int, insn: Instruction, compute: Callable) -> DecodedOp:
        """The warp step of ``d = compute(regs, warp, lanes)``: one call
        for the whole warp; a partial mask merges into the old value."""
        dst_name = insn.operands[0].name
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes is None:
                regs[dst_name] = compute(regs, warp, None)
            elif lanes:
                _write(regs, dst_name, compute(regs, warp, lanes), warp.lanes, lanes)
            entry.pc = next_pc
            return False

        return op

    # -- warp-synchronous exchange (shfl.sync / vote.sync) ----------------
    def _compile_membermask(self, ctx: ExecContext, pc: int, insn: Instruction,
                            operand: Operand) -> Callable:
        """A ``.sync`` membermask as ``required(regs, warp, lanes)``: the
        lanes it names, as bits, after checking them.

        The mask names the lanes that must reach the instruction
        together.  Lanes the warp does not have (partial warps) are
        ignored; a mask with no live lane, or one naming a lane that
        diverged away, is a malformed sync and raises.  Only asked when
        some lane reached the statement: one no lane reaches checks
        nothing.
        """
        mask_of = self._compile_value(operand)
        where = f"{ctx.kernel.name!r}: {insn.full_opcode} at pc {pc}"

        def required_of(regs, warp: WarpState, lanes: Lanes) -> int:
            count = warp.lanes
            leader = 0 if lanes is None else lanes[0]
            mask = int(column(mask_of(regs, warp), count)[leader])
            required = mask & ((1 << count) - 1)
            if not required:
                raise SimulationError(
                    f"{where} has membermask 0x{mask & 0xFFFFFFFF:08x} "
                    "selecting no live lane of the warp"
                )
            missing = required & ~_lane_bits(lanes, count)
            if missing:
                raise SimulationError(
                    f"{where} with membermask 0x{mask & 0xFFFFFFFF:08x} "
                    f"requires lane(s) {mask_lanes(missing)} that did not "
                    "reach it; all mask lanes must arrive together"
                )
            return required

        return required_of

    def _decode_shfl(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
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
        dst_name = dst.name
        required_of = self._compile_membermask(ctx, pc, insn, maskop)
        source_of, offset_of, clamp_of = map(self._compile_value, (src, boff, cop))
        wrap = _make_wrap(insn.value_type())
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes == ():
                entry.pc = next_pc
                return False
            required = required_of(regs, warp, lanes)
            count = warp.lanes
            # Every source lane's value is read before any write: the
            # exchange is simultaneous across the warp.
            source = column(source_of(regs, warp), count)
            offsets = column(offset_of(regs, warp), count)
            clamps = column(clamp_of(regs, warp), count)
            results = []
            for lane in range(count) if lanes is None else lanes:
                chosen = source[lane]
                if required >> lane & 1:
                    b = int(offsets[lane]) & 31
                    c = int(clamps[lane])
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
                    if in_bounds and required >> j & 1:
                        chosen = source[j]
                results.append(wrap(chosen))
            _write(regs, dst_name, results, count, lanes)
            entry.pc = next_pc
            return False

        return op

    def _decode_vote(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
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
        dst_name = dst.name
        required_of = self._compile_membermask(ctx, pc, insn, maskop)
        flag_of = self._compile_value(src)
        wrap = _make_wrap(insn.value_type())
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes == ():
                entry.pc = next_pc
                return False
            required = required_of(regs, warp, lanes)
            count = warp.lanes
            flags = column(flag_of(regs, warp), count)
            members = mask_lanes(required)
            preds = [bool(flags[lane]) for lane in members]
            if mode == "ballot":
                joined = sum(1 << lane for lane in members if flags[lane])
            elif mode == "any":
                joined = 1 if any(preds) else 0
            elif mode == "all":
                joined = 1 if all(preds) else 0
            else:  # uni: all participating lanes agree
                joined = 1 if len(set(preds)) <= 1 else 0
            if not _lane_bits(lanes, count) & ~required:
                result = wrap(joined)  # one UNIFORM for the whole warp
            else:
                result = []
                for lane in range(count) if lanes is None else lanes:
                    if required >> lane & 1:
                        value = joined
                    elif mode == "ballot":
                        value = 0
                    elif mode == "uni":
                        value = 1
                    else:
                        value = 1 if flags[lane] else 0
                    result.append(wrap(value))
            _write(regs, dst_name, result, count, lanes)
            entry.pc = next_pc
            return False

        return op

    # -- asynchronous copies (cp.async) -----------------------------------
    def _decode_cp(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        """``cp.async`` copies and their commit/wait bookkeeping.

        The global read happens (and is logged) at issue; the shared
        write's *record* is deferred until the copy's completion edge —
        ``wait_group``/``wait_all``, or warp exit for copies never
        waited on.  The deferral is what lets the detector see an
        unwaited copy's store as unordered with post-barrier readers.
        Committing and waiting are warp-wide: their guard is not read.
        """
        mods = insn.modifiers
        where = f"{ctx.kernel.name!r}: {insn.full_opcode} at pc {pc}"
        operands = insn.operands
        next_pc = pc + 1
        if "async" not in mods:
            raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
        if "commit_group" in mods:

            def op_commit(warp: WarpState, entry: _StackEntry) -> bool:
                warp.async_groups.append(warp.async_pending)
                warp.async_pending = []
                entry.pc = next_pc
                return False

            return op_commit
        if "wait_all" in mods:
            keep, uncommitted = 0, True
        elif "wait_group" in mods:
            if len(operands) != 1 or not isinstance(operands[0], ImmOperand):
                raise SimulationError(f"{where} needs one immediate group count")
            keep, uncommitted = int(operands[0].value), False
            if keep < 0:
                raise SimulationError(
                    f"{where}: group count must be non-negative, got {keep}")
        else:
            return self._decode_async_copy(pc, insn, where)
        flush = self._flush_async

        def op_wait(warp: WarpState, entry: _StackEntry) -> bool:
            flush(warp, keep, uncommitted)
            entry.pc = next_pc
            return False

        return op_wait

    def _decode_async_copy(self, pc: int, insn: Instruction, where: str) -> DecodedOp:
        """``cp.async.ca.shared.global [dst], [src], size``: each active
        lane copies ``size`` bytes now, logs the global read, and stages
        the shared write's record in ``WarpState.async_pending``."""
        if len(insn.operands) != 3:
            raise SimulationError(
                f"{where} needs destination, source, and size operands")
        dst, src, size_op = insn.operands
        if not isinstance(dst, MemOperand) or not isinstance(src, MemOperand):
            raise SimulationError(f"{where}: copy operands must be addresses")
        size = int(size_op.value) if isinstance(size_op, ImmOperand) else -1
        if size not in (4, 8, 16):
            raise SimulationError(f"{where}: copy size must be 4, 8, or 16 bytes")
        sources_of = self._compile_address(src)
        targets_of = self._compile_address(dst)
        load = self.global_mem.load
        store = self.shared_mem.store
        rows = self.rows
        emit = self._emit
        global_space = SPACE_CODE[Space.GLOBAL]
        line = insn.line
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            regs = warp.frames[-1].regs
            lanes = _active_lanes(warp, entry, regs, pred)
            if lanes != ():
                block = warp.block
                src_addrs = sources_of(regs, warp, lanes)
                dst_addrs = targets_of(regs, warp, lanes)
                values = []
                for saddr, daddr in zip(src_addrs, dst_addrs):
                    raw = load(block, saddr, size)
                    store(block, daddr, size, raw)
                    values.append(raw)
                if rows is not None:
                    tids = _tids(warp, lanes)
                    key = (warp.warp, _lane_bits(lanes, warp.lanes))
                    emit(rows.write(KIND_LOAD, warp.warp, line, size, -1, key,
                                    tids, tids=tids, space=global_space,
                                    addrs=src_addrs))
                    # The shared write is logged, as a store's value is,
                    # by its low 64 bits: a 16-byte copy's word does not
                    # fit a row otherwise.
                    warp.async_pending.append((line, size, key, tids, dst_addrs,
                                               _logged_values(values, line)))
            entry.pc = next_pc
            return False

        return op

    def _flush_async(
        self, warp: WarpState, keep_groups: int,
        include_uncommitted: bool = False,
    ) -> None:
        """Emit the deferred stores of completed ``cp.async`` groups."""
        staged: List[tuple] = []
        while len(warp.async_groups) > keep_groups:
            staged.extend(warp.async_groups.pop(0))
        if include_uncommitted and warp.async_pending:
            staged.extend(warp.async_pending)
            warp.async_pending = []
        shared = SPACE_CODE[Space.SHARED]
        for pc, width, key, tids, addrs, values in staged:
            self._emit(self.rows.write(KIND_STORE, warp.warp, pc, width, -1,
                                       key, tids, tids=tids, space=shared,
                                       addrs=addrs, values=values))

    def _finish_warp(self, warp: WarpState) -> None:
        """Mark a warp done; unwaited copies complete at exit.

        A ``cp.async`` nobody waited on still lands eventually — modeled
        as completing when the warp retires, which places its shared
        store after any barrier the program crossed in between: exactly
        the unordered shape the detector must flag.
        """
        warp.done = True
        self._flush_async(warp, 0, include_uncommitted=True)

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def try_release_barriers(self, warp: WarpState) -> List[WarpState]:
        """Release the barrier that ``warp`` parking or exiting completed.

        A barrier's fate depends only on which warps are done, parked,
        or parked grid-wide, and only the warp that just stepped changes
        any of that — so the launch loop calls this once per warp that
        parked or exited, and only that warp's block and the grid-wide
        barrier are looked at.  Returns the live warps it released, by
        ascending id (all of them for the grid barrier), or ``[]``.

        Emits the block-level BARRIER record (§3.1's ``bar(b)``) with the
        union of the arrived warps' active masks — a partial union is a
        barrier divergence bug that the detector reports.
        """
        if warp.done:
            self._live -= 1
            if not self._waiting:
                return []
        else:
            self._waiting += 1
            self._grid_waiting += warp.at_grid_barrier
        # Grid-wide (cooperative) barrier: released only when every live
        # warp of every block has arrived at it; one BARRIER record with
        # the grid sentinel block id carries the union of their masks.
        # The release publishes every block's queued global stores: what
        # a block stored before the barrier is what any block loads after.
        if self._grid_waiting and self._grid_waiting == self._live:
            live = [w for w in self.warps if not w.done]
            self._emit_barrier(GRID_BARRIER_BLOCK, live)
            self.global_mem.drain_all()
            for w in live:
                w.at_barrier = False
                w.at_grid_barrier = False
            self._waiting = self._grid_waiting = 0
            return live
        block_warps = [
            self.warps[w] for w in self.layout.block_warps(warp.block)
        ]
        live = [w for w in block_warps if not w.done]
        if live and all(w.at_barrier and not w.at_grid_barrier for w in live):
            self._emit_barrier(warp.block, live)
            for w in live:
                w.at_barrier = False
            self._waiting -= len(live)
            return live
        return []

    def _emit_barrier(self, block: int, arrived: List[WarpState]) -> None:
        """The BARRIER row of ``block``: the union of the arrived warps'
        active masks, keyed warp by warp (one warp's key when only one
        arrived with lanes)."""
        rows = self.rows
        if rows is None:
            return
        tops = [(w, w.frame.stack[-1]) for w in arrived]
        parts = tuple((w.warp, top.mask) for w, top in tops if top.mask)
        key = parts[0] if len(parts) == 1 else parts or None
        self._emit(rows.write(
            KIND_BARRIER, block, -1, 4, -1, key,
            (tid for w, top in tops for tid in _tids(w, top.lanes))))

    # ------------------------------------------------------------------
    # The instruction set
    # ------------------------------------------------------------------
    #: opcode -> ``decode(self, ctx, pc, insn) -> DecodedOp``: the one
    #: statement of which instructions execute and how.  Every key is a
    #: member of ``repro.ptx.isa.ALL_OPCODES`` (pinned by
    #: ``tests/test_interpreter.py``); an opcode without an entry decodes
    #: through ``_decode_unsupported``.
    _DECODERS: Dict[str, Callable] = {
        **dict.fromkeys(_ARITH_COMPILERS, _decode_arith),
        "bra": _decode_branch,
        "call": _decode_call,
        "ret": _decode_ret,
        "exit": _decode_ret,
        "bar": _decode_bar,
        "barrier": _decode_bar,
        "membar": _decode_membar,
        "fence": _decode_membar,
        "_log": _decode_log,
        "ld": _decode_load,
        "ldu": _decode_load,
        "st": _decode_store,
        "atom": _decode_atomic,
        "red": _decode_atomic,
        "shfl": _decode_shfl,
        "vote": _decode_vote,
        "cp": _decode_cp,
    }
