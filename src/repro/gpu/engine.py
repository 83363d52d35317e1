"""Pre-decoded threaded-code execution engine.

:class:`repro.gpu.interpreter.KernelExecution` (the "naive" engine)
re-examines every instruction on every dynamic step: the opcode string
is compared against a chain, operands go through ``isinstance`` towers,
predicates re-resolve their register, branch targets hit the label
table, and each register access walks ``tid -> warp -> frame``.  For the
pipeline benchmarks that dispatch overhead dwarfs the detector — the
very thing BARRACUDA's streaming design (§4.2) is supposed to make the
bottleneck.

:class:`DecodedKernelExecution` compiles each body **once per
:class:`~repro.gpu.interpreter.ExecContext`** into a list of specialized
Python closures — classic threaded code:

* opcode dispatch happens at decode time; executing a step is one
  indirect call;
* branch targets, reconvergence PCs and symbol addresses are
  pre-resolved to integers;
* predicates are pre-bound to ``(register, negated)`` closures;
* operand access compiles to ``fn(regs, tid)`` getters with the
  register-file lookup hoisted out (every thread of a warp shares the
  warp's top frame, so ``_frame_of`` never needs to run);
* type wrapping is specialized per instruction
  (:func:`_make_wrap`), with mask and sign bit precomputed;
* a ``_log`` slot is fused with the access it guards, so the
  record-and-access pair executes as one closure (the instrumenter
  always places ``_log`` immediately before its target, unpredicated —
  see ``repro.instrument.passes``).

Decoding is deliberately defensive: any statement the specializer
cannot handle (malformed operands, exotic opcodes, unknown symbols)
falls back to a closure that calls the naive ``_execute``, so the
decoded engine is *bit-identical* to the naive one by construction —
the differential suite in ``tests/test_engine_equivalence.py`` holds
both engines to identical reports, event streams and cycle counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError, SimulationError
from ..events import LogRecord, RecordKind
from ..ptx.ast import (
    ImmOperand,
    Instruction,
    MemOperand,
    Operand,
    RegOperand,
    SpecialRegOperand,
    SymbolOperand,
    VectorOperand,
)
from ..ptx.isa import FLOAT_TYPES, SIGNED_TYPES, type_width
from ..trace.operations import Scope, Space
from .interpreter import (
    _COMPARES,
    _CVT_TYPES,
    _Phase,
    _StackEntry,
    ExecContext,
    KernelExecution,
    LOG_COST,
    WarpState,
)

#: A decoded statement: ``op(warp, entry) -> bool``.  The closure does
#: its own counter bookkeeping and PC update; a ``True`` return means
#: the instruction slot is still open (a ``_log`` whose guarded access
#: has not executed yet), ``False`` closes the slot.
DecodedOp = Callable[[WarpState, _StackEntry], bool]


def _make_wrap(type_name: Optional[str]) -> Callable:
    """A specialized equivalent of :func:`repro.gpu.interpreter._wrap`.

    The type dispatch, bit mask and sign threshold are resolved once at
    decode time instead of per value.
    """
    if type_name is None or type_name == "pred":
        return lambda value: value
    if type_name in FLOAT_TYPES:
        return float
    width = type_width(type_name) * 8
    mask = (1 << width) - 1
    if type_name in SIGNED_TYPES:
        sign = 1 << (width - 1)
        span = 1 << width

        def wrap_signed(value):
            value = int(value) & mask
            return value - span if value >= sign else value

        return wrap_signed

    def wrap_unsigned(value):
        return int(value) & mask

    return wrap_unsigned


def _wrap_plan(type_name: Optional[str]) -> Tuple:
    """The wrap of ``type_name`` as data, for decode-time inlining.

    Returns ``("ident",)``, ``("float",)``, ``("signed", mask, sign,
    span)`` or ``("unsigned", mask)`` — the hot compilers below use this
    to open-code the wrap arithmetic inside their compute closures
    instead of paying a Python-level wrap call per operand.
    """
    if type_name is None or type_name == "pred":
        return ("ident",)
    if type_name in FLOAT_TYPES:
        return ("float",)
    width = type_width(type_name) * 8
    mask = (1 << width) - 1
    if type_name in SIGNED_TYPES:
        return ("signed", mask, 1 << (width - 1), 1 << width)
    return ("unsigned", mask)


class DecodedKernelExecution(KernelExecution):
    """Threaded-code variant of :class:`KernelExecution`.

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

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, warp: WarpState) -> None:
        """Execute one instruction slot of ``warp``.

        Mirrors ``KernelExecution.step`` exactly, but dispatches through
        the decoded closure list.
        """
        frames = warp.frames
        while True:
            while True:
                frame = frames[-1]
                stack = frame.stack
                entry = stack[-1]
                ctx = frame.ctx
                if (
                    not entry.amask
                    or entry.pc == entry.reconv_pc
                    or entry.pc >= ctx.end_pc
                ):
                    if len(stack) == 1:
                        if len(frames) > 1:
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
                if op is None:  # Label: free, like the naive engine
                    entry.pc += 1
                    continue
                break
            if not op(warp, entry):
                return

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode_ctx(self, ctx: ExecContext) -> List[Optional[DecodedOp]]:
        body = ctx.kernel.body
        ops: List[Optional[DecodedOp]] = [None] * len(body)
        conv = set(ctx.cfg.convergence_points())
        profiler = self.profiler
        # Decode back-to-front so a ``_log`` can fuse with the already
        # decoded closure of the access it guards.  Profiler wrapping
        # happens here too, so a fusing ``_log`` captures the *wrapped*
        # follower and per-opcode counts match dynamic instruction
        # counts exactly.
        for pc in range(len(body) - 1, -1, -1):
            stmt = body[pc]
            if not isinstance(stmt, Instruction):
                continue
            try:
                op = self._decode_insn(ctx, pc, stmt, ops, conv)
            except Exception:
                op = self._fallback_op(stmt)
            if profiler is not None:
                op = profiler.wrap_op(op, stmt.opcode,
                                      getattr(stmt, "line", 0))
            ops[pc] = op
        ctx.decoded = ops
        return ops

    def _fallback_op(self, insn: Instruction) -> DecodedOp:
        """Run ``insn`` through the naive ``_execute`` path.

        Used for anything the specializer does not handle; keeps decode
        total (it never raises) and defers malformed-program errors to
        execution time, exactly like the naive engine.
        """
        execute = self._execute
        is_log = insn.opcode == "_log"

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            execute(warp, entry, insn)
            return is_log and not warp.done and not warp.at_barrier

        return op

    def _decode_insn(
        self,
        ctx: ExecContext,
        pc: int,
        insn: Instruction,
        ops: List[Optional[DecodedOp]],
        conv: set,
    ) -> DecodedOp:
        opcode = insn.opcode
        if opcode == "bra":
            return self._decode_branch(ctx, pc, insn)
        if opcode in ("ret", "exit", "call"):
            # Once-per-warp control transfers: not worth specializing.
            return self._fallback_op(insn)
        if opcode == "bar":
            return self._decode_bar(pc)
        if opcode in ("membar", "fence"):
            return self._decode_membar(pc, insn)
        if opcode == "_log":
            return self._decode_log(ctx, pc, insn, ops, conv)
        if opcode in ("ld", "ldu"):
            return self._decode_load(pc, insn)
        if opcode == "st":
            return self._decode_store(pc, insn)
        if opcode in ("atom", "red"):
            return self._decode_atomic(pc, insn)
        return self._decode_arith(pc, insn)

    # -- operand compilation -------------------------------------------
    def _compile_value(self, operand: Operand) -> Callable:
        """Compile an operand to ``get(regs, tid)``.

        ``regs`` is the thread's register dict of the warp's top frame —
        the ``tid -> warp -> frame`` walk of the naive ``_value`` is
        hoisted into the enclosing loop.
        """
        if isinstance(operand, RegOperand):
            name = operand.name
            return lambda regs, tid: regs.get(name, 0)
        if isinstance(operand, ImmOperand):
            value = operand.value
            return lambda regs, tid: value
        if isinstance(operand, SpecialRegOperand):
            specials = self._specials
            key = (operand.name, operand.dim)
            return lambda regs, tid: specials[tid][key]
        if isinstance(operand, SymbolOperand):
            addr = self._symbol_address(operand.name)
            return lambda regs, tid: addr
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    def _compile_address(self, operand: MemOperand) -> Callable:
        """Compile ``[base+offset]`` to ``addr(regs, tid)``."""
        base = operand.base
        offset = operand.offset
        if base.startswith("%"):
            return lambda regs, tid: int(regs.get(base, 0)) + offset
        addr = self._symbol_address(base) + offset
        return lambda regs, tid: addr

    # -- control flow ---------------------------------------------------
    def _decode_branch(self, ctx: ExecContext, pc: int, insn: Instruction) -> DecodedOp:
        target_pc = ctx.labels[insn.branch_target()]
        result = self.result
        pred = insn.pred
        if pred is None:

            def op_uniform(warp: WarpState, entry: _StackEntry) -> bool:
                warp.instructions += 1
                warp.cycles += 1
                result.instructions += 1
                result.cycles += 1
                entry.pc = target_pc
                return False

            return op_uniform

        pname, pneg = pred
        reconv = ctx.cfg.reconvergence_pc(pc)
        next_pc = pc + 1
        instrumented = self.sink is not None and self.instrumented
        sink = self.sink
        frozen_active = self.frozen_active
        intern_mask = self.intern_mask

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += 1
            result.instructions += 1
            result.cycles += 1
            amask = entry.amask
            regs_map = warp.frames[-1].regs
            taken = {
                t for t in amask if bool(regs_map[t].get(pname, 0)) != pneg
            }
            if len(taken) == len(amask):
                entry.pc = target_pc
                return False
            if not taken:
                entry.pc = next_pc
                return False
            not_taken = set(amask) - taken
            if instrumented:
                record = LogRecord(
                    kind=RecordKind.BRANCH_IF,
                    warp=warp.warp,
                    active=frozen_active(entry),
                    then_mask=intern_mask(sorted(not_taken)),
                    pc=pc,
                )
                warp.cycles += sink.emit(record)
                result.records_emitted += 1
            entry.pc = reconv
            stack = warp.frames[-1].stack
            stack.append(
                _StackEntry(
                    amask=taken, pc=target_pc, reconv_pc=reconv, phase=_Phase.ELSE
                )
            )
            stack.append(
                _StackEntry(
                    amask=not_taken, pc=next_pc, reconv_pc=reconv, phase=_Phase.THEN
                )
            )
            return False

        return op

    def _decode_bar(self, pc: int) -> DecodedOp:
        result = self.result
        next_pc = pc + 1

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += 1
            result.instructions += 1
            result.cycles += 1
            entry.pc = next_pc
            warp.at_barrier = True
            return False

        return op

    def _decode_membar(self, pc: int, insn: Instruction) -> DecodedOp:
        result = self.result
        next_pc = pc + 1
        drain = not insn.has_modifier("cta")
        global_mem = self.global_mem

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += 1
            result.instructions += 1
            result.cycles += 1
            if drain:
                global_mem.drain_all()
            entry.pc = next_pc
            return False

        return op

    # -- logging ---------------------------------------------------------
    def _decode_log(
        self,
        ctx: ExecContext,
        pc: int,
        insn: Instruction,
        ops: List[Optional[DecodedOp]],
        conv: set,
    ) -> DecodedOp:
        log_op = self._decode_log_record(pc, insn)
        # Fuse with the guarded access: the instrumenter always places
        # ``_log`` directly before its target instruction with no label
        # in between, so as long as pc+1 is a plain instruction and not
        # a reconvergence point, the naive step loop is guaranteed to
        # execute pc+1 immediately after the log within the same slot.
        body = ctx.kernel.body
        follower = ops[pc + 1] if pc + 1 < len(ops) else None
        if (
            follower is not None
            and isinstance(body[pc + 1], Instruction)
            and (pc + 1) not in conv
        ):

            def fused(warp: WarpState, entry: _StackEntry) -> bool:
                log_op(warp, entry)
                return follower(warp, entry)

            return fused
        return log_op

    def _decode_log_record(self, pc: int, insn: Instruction) -> DecodedOp:
        mods = insn.modifiers
        category = mods[0] if mods else ""
        result = self.result
        next_pc = pc + 1
        sink = self.sink
        if sink is None or category in ("tid", "cvg", "bar"):

            def op_silent(warp: WarpState, entry: _StackEntry) -> bool:
                warp.instructions += 1
                warp.cycles += LOG_COST
                result.instructions += 1
                result.cycles += LOG_COST
                entry.pc = next_pc
                return True

            return op_silent

        if category == "mem":
            kind = {
                "ld": RecordKind.LOAD,
                "st": RecordKind.STORE,
                "atom": RecordKind.ATOMIC,
            }[mods[1]]
            scope = Scope.GLOBAL
        elif category == "sync":
            kind = {
                "acq": RecordKind.ACQUIRE,
                "rel": RecordKind.RELEASE,
                "ar": RecordKind.ACQREL,
            }[mods[1]]
            scope = Scope.BLOCK if "cta" in mods else Scope.GLOBAL
        else:
            raise SimulationError(f"unknown log instruction {insn.full_opcode!r}")
        space = Space.SHARED if "shared" in mods else Space.GLOBAL
        width = type_width(insn.value_type()) if insn.value_type() else 4
        width *= insn.vector_count()
        addr_of = self._compile_address(insn.operands[0])
        value_of = None
        if kind is RecordKind.STORE and len(insn.operands) > 1:
            value_of = self._compile_value(insn.operands[1])
        pred = insn.pred
        pc_line = insn.line
        emit = sink.emit
        frozen_active = self.frozen_active
        intern_mask = self.intern_mask
        is_sync = category == "sync"

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += LOG_COST
            result.instructions += 1
            result.cycles += LOG_COST
            entry.pc = next_pc
            regs_map = warp.frames[-1].regs
            if pred is None:
                tids = entry._sorted
                if tids is None:
                    tids = entry.sorted_active()
                if not tids:
                    return True
                frozen = entry._frozen
                if frozen is None:
                    frozen = frozen_active(entry)
            else:
                pname, pneg = pred
                tids = [
                    t
                    for t in entry.sorted_active()
                    if bool(regs_map[t].get(pname, 0)) != pneg
                ]
                if not tids:
                    return True
                frozen = intern_mask(tids)
            addrs = {t: (space, addr_of(regs_map[t], t)) for t in tids}
            if value_of is None:
                values: Dict[int, int] = {}
            else:
                values = {t: int(value_of(regs_map[t], t)) for t in tids}
            if is_sync:
                record = LogRecord(
                    kind=kind,
                    warp=warp.warp,
                    active=frozen,
                    addrs=addrs,
                    scope=scope,
                    width=width,
                    pc=pc_line,
                )
            else:
                record = LogRecord(
                    kind=kind,
                    warp=warp.warp,
                    active=frozen,
                    addrs=addrs,
                    values=values,
                    width=width,
                    pc=pc_line,
                )
            warp.cycles += emit(record)
            result.records_emitted += 1
            return True

        return op

    # -- memory ----------------------------------------------------------
    def _compile_raw_load(self, space: str, width: int) -> Callable:
        """``load(block, tid, addr) -> raw`` for one state space."""
        if space == "local":
            local_store = self._local_store

            def load_local(block, tid, addr):
                return local_store(tid).load(0, addr, width)

            return load_local
        mem_load = (self.shared_mem if space == "shared" else self.global_mem).load

        def load_mem(block, tid, addr):
            return mem_load(block, addr, width)

        return load_mem

    def _compile_raw_store(self, space: str, width: int) -> Callable:
        """``store(block, tid, addr, raw)`` for one state space."""
        if space == "local":
            local_store = self._local_store

            def store_local(block, tid, addr, raw):
                local_store(tid).store(0, addr, width, raw)

            return store_local
        mem_store = (self.shared_mem if space == "shared" else self.global_mem).store

        def store_mem(block, tid, addr, raw):
            mem_store(block, addr, width, raw)

        return store_mem

    def _decode_load(self, pc: int, insn: Instruction) -> DecodedOp:
        dst, src = insn.operands
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        wrap = _make_wrap(type_name)
        result = self.result
        next_pc = pc + 1
        pred = insn.pred

        if isinstance(dst, VectorOperand):
            addr_of = self._compile_address(src)
            lanes = tuple(
                (lane_index * width, reg_name)
                for lane_index, reg_name in enumerate(dst.regs)
            )
            load_raw = self._compile_raw_load(space, width)

            def op_vec(warp: WarpState, entry: _StackEntry) -> bool:
                warp.instructions += 1
                warp.cycles += 1
                result.instructions += 1
                result.cycles += 1
                regs_map = warp.frames[-1].regs
                block = warp.block
                for tid in _active_tids(entry, regs_map, pred):
                    regs = regs_map[tid]
                    addr = addr_of(regs, tid)
                    for lane_offset, reg_name in lanes:
                        regs[reg_name] = wrap(
                            load_raw(block, tid, addr + lane_offset)
                        )
                entry.pc = next_pc
                return False

            return op_vec

        dst_name = dst.name
        if space == "param":
            name = src.base if isinstance(src, MemOperand) else str(src)
            launch_params = self.params

            def op_param(warp: WarpState, entry: _StackEntry) -> bool:
                warp.instructions += 1
                warp.cycles += 1
                result.instructions += 1
                result.cycles += 1
                frame = warp.frames[-1]
                regs_map = frame.regs
                binding = frame.params.get(name)
                if binding is None:
                    value = launch_params.get(name, 0)
                    for tid in _active_tids(entry, regs_map, pred):
                        regs_map[tid][dst_name] = wrap(value)
                else:
                    for tid in _active_tids(entry, regs_map, pred):
                        regs_map[tid][dst_name] = wrap(binding.get(tid, 0))
                entry.pc = next_pc
                return False

            return op_param

        addr_of = self._compile_address(src)
        load_raw = self._compile_raw_load(space, width)

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += 1
            result.instructions += 1
            result.cycles += 1
            regs_map = warp.frames[-1].regs
            block = warp.block
            for tid in _active_tids(entry, regs_map, pred):
                regs = regs_map[tid]
                regs[dst_name] = wrap(load_raw(block, tid, addr_of(regs, tid)))
            entry.pc = next_pc
            return False

        return op

    def _decode_store(self, pc: int, insn: Instruction) -> DecodedOp:
        dst, src = insn.operands
        type_name = insn.value_type()
        width = type_width(type_name) if type_name else 4
        space = insn.state_space().value
        result = self.result
        next_pc = pc + 1
        pred = insn.pred
        umask = (1 << (width * 8)) - 1
        addr_of = self._compile_address(dst)
        store_raw = self._compile_raw_store(space, width)

        if isinstance(src, VectorOperand):
            lanes = tuple(
                (lane_index * width, reg_name)
                for lane_index, reg_name in enumerate(src.regs)
            )

            def op_vec(warp: WarpState, entry: _StackEntry) -> bool:
                warp.instructions += 1
                warp.cycles += 1
                result.instructions += 1
                result.cycles += 1
                regs_map = warp.frames[-1].regs
                block = warp.block
                for tid in _active_tids(entry, regs_map, pred):
                    regs = regs_map[tid]
                    addr = addr_of(regs, tid)
                    for lane_offset, reg_name in lanes:
                        raw = int(regs.get(reg_name, 0)) & umask
                        store_raw(block, tid, addr + lane_offset, raw)
                entry.pc = next_pc
                return False

            return op_vec

        value_of = self._compile_value(src)

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += 1
            result.instructions += 1
            result.cycles += 1
            regs_map = warp.frames[-1].regs
            block = warp.block
            for tid in _active_tids(entry, regs_map, pred):
                regs = regs_map[tid]
                value = value_of(regs, tid)
                if isinstance(value, float):
                    # Modeled: float stores round toward zero (and are
                    # deliberately not masked — naive-engine parity).
                    raw = int(value)
                else:
                    raw = int(value) & umask
                store_raw(block, tid, addr_of(regs, tid), raw)
            entry.pc = next_pc
            return False

        return op

    def _decode_atomic(self, pc: int, insn: Instruction) -> DecodedOp:
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
        addr_of = self._compile_address(mem_op)
        wrap = _make_wrap(type_name)
        atomic = (self.shared_mem if space == "shared" else self.global_mem).atomic
        result = self.result
        next_pc = pc + 1
        pred = insn.pred

        def op(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += 1
            result.instructions += 1
            result.cycles += 1
            regs_map = warp.frames[-1].regs
            block = warp.block
            for tid in _active_tids(entry, regs_map, pred):
                regs = regs_map[tid]
                addr = addr_of(regs, tid)
                values = [int(g(regs, tid)) for g in src_gets]
                old = atomic(
                    block,
                    addr,
                    width,
                    lambda o, _v=values: rmw2(o & umask, _v),
                )
                if dst_name is not None:
                    regs[dst_name] = wrap(old)
            entry.pc = next_pc
            return False

        return op

    # -- arithmetic -------------------------------------------------------
    def _decode_arith(self, pc: int, insn: Instruction) -> DecodedOp:
        compiler = _ARITH_COMPILERS.get(insn.opcode)
        if compiler is None:
            # Unknown opcode: keep the naive engine's execute-time error
            # (which only fires when active threads reach it).
            return self._fallback_op(insn)
        compute = compiler(self, insn)
        dst_name = insn.operands[0].name
        result = self.result
        next_pc = pc + 1
        pred = insn.pred
        if pred is None:

            def op(warp: WarpState, entry: _StackEntry) -> bool:
                warp.instructions += 1
                warp.cycles += 1
                result.instructions += 1
                result.cycles += 1
                tids = entry._sorted
                if tids is None:
                    tids = entry.sorted_active()
                regs_map = warp.frames[-1].regs
                for tid in tids:
                    regs = regs_map[tid]
                    regs[dst_name] = compute(regs, tid)
                entry.pc = next_pc
                return False

            return op

        pname, pneg = pred

        def op_pred(warp: WarpState, entry: _StackEntry) -> bool:
            warp.instructions += 1
            warp.cycles += 1
            result.instructions += 1
            result.cycles += 1
            regs_map = warp.frames[-1].regs
            for tid in entry.sorted_active():
                regs = regs_map[tid]
                if bool(regs.get(pname, 0)) != pneg:
                    regs[dst_name] = compute(regs, tid)
            entry.pc = next_pc
            return False

        return op_pred


def _active_tids(entry: _StackEntry, regs_map, pred) -> Tuple[int, ...]:
    """The sorted active threads of ``entry``, predicate applied."""
    tids = entry._sorted
    if tids is None:
        tids = entry.sorted_active()
    if pred is None:
        return tids
    pname, pneg = pred
    return tuple(
        t for t in tids if bool(regs_map[t].get(pname, 0)) != pneg
    )


# ----------------------------------------------------------------------
# Arithmetic compute compilers
#
# Each returns ``compute(regs, tid)`` producing the value assigned to
# the destination register — bit-for-bit the value the corresponding
# naive handler in ``interpreter._ARITH`` would have written.
#
# The hot compilers constant-fold: operands whose value is fixed at
# decode time (immediates, symbol addresses) are pre-wrapped once, and
# register operands inline ``regs.get`` directly into the compute
# closure instead of going through a per-operand getter call.  ``_wrap``
# is pure and idempotent, so pre-wrapping at decode time is
# bit-identical to wrapping at execute time.
# ----------------------------------------------------------------------
def _operand_plan(exe, operand, wrap):
    """Classify an operand for decode-time specialization.

    Returns ``("const", wrapped_value)`` for operands fixed at decode
    time, ``("reg", name)`` for plain registers, or ``("fn", get)`` with
    a ``get(regs, tid)`` accessor for special registers.
    """
    if isinstance(operand, ImmOperand):
        return ("const", wrap(operand.value))
    if isinstance(operand, SymbolOperand):
        return ("const", wrap(exe._symbol_address(operand.name)))
    if isinstance(operand, RegOperand):
        return ("reg", operand.name)
    if isinstance(operand, SpecialRegOperand):
        specials = exe._specials
        key = (operand.name, operand.dim)
        return ("fn", lambda regs, tid: specials[tid][key])
    raise SimulationError(f"cannot evaluate operand {operand!r}")


def _plan_getter(kind, payload):
    """Fall back from an operand plan to a generic ``get(regs, tid)``."""
    if kind == "const":
        value = payload
        return lambda regs, tid: value
    if kind == "reg":
        name = payload
        return lambda regs, tid: regs.get(name, 0)
    return payload


def _wrapped_getter(exe, operand, wrap, plan=None):
    """A single-call ``get(regs, tid)`` returning the *wrapped* value.

    Fuses the operand access and the type wrap into one closure call
    (constants are wrapped once at decode time; for plain registers the
    wrap arithmetic is open-coded into the closure).
    """
    kind, payload = _operand_plan(exe, operand, wrap)
    if kind == "const":
        value = payload
        return lambda regs, tid: value
    if kind == "reg":
        name = payload
        if plan is not None:
            wkind = plan[0]
            if wkind == "signed":
                _w, mask, sign, span = plan

                def get_signed(regs, tid):
                    value = int(regs.get(name, 0)) & mask
                    return value - span if value >= sign else value

                return get_signed
            if wkind == "unsigned":
                mask = plan[1]
                return lambda regs, tid: int(regs.get(name, 0)) & mask
            if wkind == "float":
                return lambda regs, tid: float(regs.get(name, 0))
            return lambda regs, tid: regs.get(name, 0)
        return lambda regs, tid: wrap(regs.get(name, 0))
    get = payload
    return lambda regs, tid: wrap(get(regs, tid))


def _raw_getter(exe, operand):
    """A ``get(regs, tid)`` returning the operand value unwrapped."""
    return _plan_getter(*_operand_plan(exe, operand, lambda value: value))


def _compile_binop(fn):
    def compiler(exe: DecodedKernelExecution, insn: Instruction):
        _dst, a, b = insn.operands
        type_name = insn.value_type()
        wrap = _make_wrap(type_name)
        plan = _wrap_plan(type_name)
        ka, va = _operand_plan(exe, a, wrap)
        kb, vb = _operand_plan(exe, b, wrap)
        if ka == "const" and kb == "const":
            value = wrap(fn(va, vb))
            return lambda regs, tid: value
        wkind = plan[0]
        if wkind == "signed" and ka != "fn" and kb != "fn":
            # Fully open-coded: operand fetch, both input wraps, the
            # result wrap — one closure call, zero nested Python calls
            # beyond ``fn``.
            _w, mask, sign, span = plan
            if ka == "reg" and kb == "reg":
                an, bn = va, vb

                def compute_ss(regs, tid):
                    lhs = int(regs.get(an, 0)) & mask
                    if lhs >= sign:
                        lhs -= span
                    rhs = int(regs.get(bn, 0)) & mask
                    if rhs >= sign:
                        rhs -= span
                    value = int(fn(lhs, rhs)) & mask
                    return value - span if value >= sign else value

                return compute_ss
            if ka == "reg":
                an = va

                def compute_sc(regs, tid):
                    lhs = int(regs.get(an, 0)) & mask
                    if lhs >= sign:
                        lhs -= span
                    value = int(fn(lhs, vb)) & mask
                    return value - span if value >= sign else value

                return compute_sc
            bn = vb

            def compute_cs(regs, tid):
                rhs = int(regs.get(bn, 0)) & mask
                if rhs >= sign:
                    rhs -= span
                value = int(fn(va, rhs)) & mask
                return value - span if value >= sign else value

            return compute_cs
        if wkind == "unsigned" and ka != "fn" and kb != "fn":
            mask = plan[1]
            if ka == "reg" and kb == "reg":
                an, bn = va, vb
                return lambda regs, tid: (
                    int(fn(int(regs.get(an, 0)) & mask, int(regs.get(bn, 0)) & mask))
                    & mask
                )
            if ka == "reg":
                an = va
                return lambda regs, tid: (
                    int(fn(int(regs.get(an, 0)) & mask, vb)) & mask
                )
            bn = vb
            return lambda regs, tid: (
                int(fn(va, int(regs.get(bn, 0)) & mask)) & mask
            )
        if ka == "reg" and kb == "reg":
            an, bn = va, vb
            return lambda regs, tid: wrap(
                fn(wrap(regs.get(an, 0)), wrap(regs.get(bn, 0)))
            )
        if ka == "reg" and kb == "const":
            an = va
            return lambda regs, tid: wrap(fn(wrap(regs.get(an, 0)), vb))
        if ka == "const" and kb == "reg":
            bn = vb
            return lambda regs, tid: wrap(fn(va, wrap(regs.get(bn, 0))))
        get_a = _plan_getter(ka, va)
        get_b = _plan_getter(kb, vb)

        def compute(regs, tid):
            return wrap(fn(wrap(get_a(regs, tid)), wrap(get_b(regs, tid))))

        return compute

    return compiler


def _compile_mov(exe, insn):
    _dst, src = insn.operands
    type_name = insn.value_type()
    return _wrapped_getter(exe, src, _make_wrap(type_name), _wrap_plan(type_name))


def _compile_not(exe, insn):
    _dst, src = insn.operands
    type_name = insn.value_type()
    get = exe._compile_value(src)
    if type_name == "pred":
        # not.pred is logical negation, not bitwise complement.
        return lambda regs, tid: 0 if get(regs, tid) else 1
    wrap = _make_wrap(type_name)
    return lambda regs, tid: wrap(~int(get(regs, tid)))


def _compile_neg(exe, insn):
    _dst, src = insn.operands
    wrap = _make_wrap(insn.value_type())
    get = exe._compile_value(src)
    return lambda regs, tid: wrap(-get(regs, tid))


def _compile_abs(exe, insn):
    _dst, src = insn.operands
    wrap = _make_wrap(insn.value_type())
    get = exe._compile_value(src)
    return lambda regs, tid: wrap(abs(get(regs, tid)))


def _compile_cvt(exe, insn):
    # cvt.<dst_type>.<src_type> — wrap through the source type first.
    _dst, src = insn.operands
    types = [m for m in insn.modifiers if m in _CVT_TYPES]
    if len(types) == 2:
        dplan = _wrap_plan(types[0])
        splan = _wrap_plan(types[1])
        if (
            isinstance(src, RegOperand)
            and dplan[0] in ("signed", "unsigned")
            and splan[0] in ("signed", "unsigned")
        ):
            # Integer-to-integer conversion of a register: open-code
            # both wraps (the hottest cvt shape — index widening).
            name = src.name
            if splan[0] == "unsigned":
                smask = splan[1]
                if dplan[0] == "unsigned":
                    mask = smask & dplan[1]
                    return lambda regs, tid: int(regs.get(name, 0)) & mask
                _w, dmask, dsign, dspan = dplan

                def cvt_us(regs, tid):
                    value = (int(regs.get(name, 0)) & smask) & dmask
                    return value - dspan if value >= dsign else value

                return cvt_us
            _w, smask, ssign, sspan = splan
            if dplan[0] == "unsigned":
                dmask = dplan[1]

                def cvt_su(regs, tid):
                    value = int(regs.get(name, 0)) & smask
                    if value >= ssign:
                        value -= sspan
                    return value & dmask

                return cvt_su
            _w2, dmask, dsign, dspan = dplan

            def cvt_ss(regs, tid):
                value = int(regs.get(name, 0)) & smask
                if value >= ssign:
                    value -= sspan
                value &= dmask
                return value - dspan if value >= dsign else value

            return cvt_ss
        wrap_dst = _make_wrap(types[0])
        wrap_src = _make_wrap(types[1])
        get = exe._compile_value(src)
        return lambda regs, tid: wrap_dst(wrap_src(get(regs, tid)))
    type_name = insn.value_type()
    return _wrapped_getter(exe, src, _make_wrap(type_name), _wrap_plan(type_name))


def _compile_cvta(exe, insn):
    # Address-space conversion is a no-op in our flat address model.
    _dst, src = insn.operands
    get = exe._compile_value(src)
    return lambda regs, tid: get(regs, tid)


def _mul_shift(insn) -> int:
    type_name = insn.value_type()
    if insn.has_modifier("hi") and type_name and type_name not in FLOAT_TYPES:
        return type_width(type_name) * 8
    return 0


#: ``mul.lo`` (and float ``mul``) is just the ``*`` binop: reuse the
#: open-coded reg/const specializations instead of a wrap-call chain.
_MUL_LOW = _compile_binop(lambda a, b: a * b)


def _compile_mul(exe, insn):
    shift = _mul_shift(insn)
    if not shift:
        return _MUL_LOW(exe, insn)
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    return lambda regs, tid: wrap(
        int(get_a(regs, tid) * get_b(regs, tid)) >> shift
    )


def _compile_mad(exe, insn):
    _dst, a, b, c = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    get_c = _raw_getter(exe, c)
    shift = _mul_shift(insn)
    if shift:

        def compute_hi(regs, tid):
            product = int(get_a(regs, tid) * get_b(regs, tid)) >> shift
            return wrap(product + get_c(regs, tid))

        return compute_hi

    def compute(regs, tid):
        return wrap(get_a(regs, tid) * get_b(regs, tid) + get_c(regs, tid))

    return compute


def _compile_fma(exe, insn):
    _dst, a, b, c = insn.operands
    wrap = _make_wrap(insn.value_type())
    get_a = _raw_getter(exe, a)
    get_b = _raw_getter(exe, b)
    get_c = _raw_getter(exe, c)
    return lambda regs, tid: wrap(
        get_a(regs, tid) * get_b(regs, tid) + get_c(regs, tid)
    )


def _compile_div(exe, insn):
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    if type_name in FLOAT_TYPES:

        def compute_float(regs, tid):
            lhs = get_a(regs, tid)
            rhs = get_b(regs, tid)
            return wrap(lhs / rhs if rhs else float("inf"))

        return compute_float

    def compute(regs, tid):
        lhs = get_a(regs, tid)
        rhs = get_b(regs, tid)
        if not rhs:
            return wrap(0)  # modeled: integer division by zero yields 0
        return wrap(int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs)

    return compute


def _compile_rem(exe, insn):
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)

    def compute(regs, tid):
        lhs = int(get_a(regs, tid))
        rhs = int(get_b(regs, tid))
        if not rhs:
            return wrap(0)
        quotient = int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs
        return wrap(lhs - rhs * quotient)

    return compute


def _compile_setp(exe, insn):
    _dst, a, b = insn.operands
    compare = _COMPARES[next(m for m in insn.modifiers if m in _COMPARES)]
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    ka, va = _operand_plan(exe, a, wrap)
    kb, vb = _operand_plan(exe, b, wrap)
    wkind = plan[0]
    if wkind == "signed" and ka != "fn" and kb != "fn":
        _w, mask, sign, span = plan
        if ka == "reg" and kb == "reg":
            an, bn = va, vb

            def compute_ss(regs, tid):
                lhs = int(regs.get(an, 0)) & mask
                if lhs >= sign:
                    lhs -= span
                rhs = int(regs.get(bn, 0)) & mask
                if rhs >= sign:
                    rhs -= span
                return 1 if compare(lhs, rhs) else 0

            return compute_ss
        if ka == "reg":
            an = va

            def compute_sc(regs, tid):
                lhs = int(regs.get(an, 0)) & mask
                if lhs >= sign:
                    lhs -= span
                return 1 if compare(lhs, vb) else 0

            return compute_sc
        if kb == "reg":
            bn = vb

            def compute_cs(regs, tid):
                rhs = int(regs.get(bn, 0)) & mask
                if rhs >= sign:
                    rhs -= span
                return 1 if compare(va, rhs) else 0

            return compute_cs
        value = 1 if compare(va, vb) else 0
        return lambda regs, tid: value
    if wkind == "unsigned" and ka != "fn" and kb != "fn":
        mask = plan[1]
        if ka == "reg" and kb == "reg":
            an, bn = va, vb
            return lambda regs, tid: (
                1
                if compare(int(regs.get(an, 0)) & mask, int(regs.get(bn, 0)) & mask)
                else 0
            )
        if ka == "reg":
            an = va
            return lambda regs, tid: (
                1 if compare(int(regs.get(an, 0)) & mask, vb) else 0
            )
        if kb == "reg":
            bn = vb
            return lambda regs, tid: (
                1 if compare(va, int(regs.get(bn, 0)) & mask) else 0
            )
        value = 1 if compare(va, vb) else 0
        return lambda regs, tid: value
    if ka == "reg" and kb == "reg":
        an, bn = va, vb
        return lambda regs, tid: (
            1 if compare(wrap(regs.get(an, 0)), wrap(regs.get(bn, 0))) else 0
        )
    if ka == "reg" and kb == "const":
        an = va
        return lambda regs, tid: 1 if compare(wrap(regs.get(an, 0)), vb) else 0
    if ka == "const" and kb == "reg":
        bn = vb
        return lambda regs, tid: 1 if compare(va, wrap(regs.get(bn, 0))) else 0
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    return lambda regs, tid: (
        1 if compare(get_a(regs, tid), get_b(regs, tid)) else 0
    )


def _compile_selp(exe, insn):
    _dst, a, b, pred = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    plan = _wrap_plan(type_name)
    get_a = _wrapped_getter(exe, a, wrap, plan)
    get_b = _wrapped_getter(exe, b, wrap, plan)
    get_p = _raw_getter(exe, pred)
    return lambda regs, tid: (
        get_a(regs, tid) if get_p(regs, tid) else get_b(regs, tid)
    )


def _compile_shl(exe, insn):
    _dst, a, b = insn.operands
    wrap = _make_wrap(insn.value_type())
    get_a = _raw_getter(exe, a)
    kb, vb = _operand_plan(exe, b, lambda value: value)
    if kb == "const":
        shift = int(vb)
        return lambda regs, tid: wrap(int(get_a(regs, tid)) << shift)
    get_b = _plan_getter(kb, vb)
    return lambda regs, tid: wrap(
        int(get_a(regs, tid)) << int(get_b(regs, tid))
    )


def _compile_shr(exe, insn):
    _dst, a, b = insn.operands
    type_name = insn.value_type()
    wrap = _make_wrap(type_name)
    get_a = _wrapped_getter(exe, a, wrap, _wrap_plan(type_name))
    kb, vb = _operand_plan(exe, b, lambda value: value)
    if kb == "const":
        shift = int(vb)
        return lambda regs, tid: wrap(int(get_a(regs, tid)) >> shift)
    get_b = _plan_getter(kb, vb)
    return lambda regs, tid: wrap(
        int(get_a(regs, tid)) >> int(get_b(regs, tid))
    )


def _compile_popc(exe, insn):
    _dst, src = insn.operands
    get = exe._compile_value(src)
    mask64 = (1 << 64) - 1
    return lambda regs, tid: bin(int(get(regs, tid)) & mask64).count("1")


_ARITH_COMPILERS: Dict[str, Callable] = {
    "mov": _compile_mov,
    "add": _compile_binop(lambda a, b: a + b),
    "sub": _compile_binop(lambda a, b: a - b),
    "mul": _compile_mul,
    "mad": _compile_mad,
    "fma": _compile_fma,
    "div": _compile_div,
    "rem": _compile_rem,
    "min": _compile_binop(min),
    "max": _compile_binop(max),
    "and": _compile_binop(lambda a, b: int(a) & int(b)),
    "or": _compile_binop(lambda a, b: int(a) | int(b)),
    "xor": _compile_binop(lambda a, b: int(a) ^ int(b)),
    "not": _compile_not,
    "neg": _compile_neg,
    "abs": _compile_abs,
    "cvt": _compile_cvt,
    "cvta": _compile_cvta,
    "setp": _compile_setp,
    "selp": _compile_selp,
    "shl": _compile_shl,
    "shr": _compile_shr,
    "popc": _compile_popc,
}


# ``op(umask) -> rmw(old_unsigned, values) -> new | None`` — mirrors the
# ``rmw`` closure in the naive ``_exec_atomic`` case for case.
_ATOMIC_RMW: Dict[str, Callable] = {
    "add": lambda umask: lambda old, vals: (old + vals[0]) & umask,
    "sub": lambda umask: lambda old, vals: (old - vals[0]) & umask,
    "exch": lambda umask: lambda old, vals: vals[0] & umask,
    "cas": lambda umask: lambda old, vals: (
        (vals[1] & umask) if old == (vals[0] & umask) else None
    ),
    "min": lambda umask: lambda old, vals: min(old, vals[0] & umask),
    "max": lambda umask: lambda old, vals: max(old, vals[0] & umask),
    "and": lambda umask: lambda old, vals: old & vals[0],
    "or": lambda umask: lambda old, vals: old | vals[0],
    "xor": lambda umask: lambda old, vals: old ^ vals[0],
    "inc": lambda umask: lambda old, vals: (
        0 if old >= (vals[0] & umask) else old + 1
    ),
    "dec": lambda umask: lambda old, vals: (
        (vals[0] & umask) if old == 0 or old > (vals[0] & umask) else old - 1
    ),
}


# ----------------------------------------------------------------------
# Engine registry
# ----------------------------------------------------------------------
ENGINES: Dict[str, type] = {
    "naive": KernelExecution,
    "decoded": DecodedKernelExecution,
}

#: The engine used when callers don't ask for one.
DEFAULT_ENGINE = "decoded"


def resolve_engine(name: str) -> type:
    """Map an engine name to its :class:`KernelExecution` class."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ReproError(
            f"unknown engine {name!r}; expected one of {', '.join(sorted(ENGINES))}"
        ) from None
