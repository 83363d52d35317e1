"""Reference implementations that production code is held to.

``per_record_oracle``: every row expanded to its §3.1 operations
(``rows_to_ops``), packed back one lane per cell (``ops_to_rows``) and
run lane by lane — provenance on, so no row is taken as a range — is
the specification of the fused loop's range path and of its
consumption of a launch's committed ranges.

``reference_launch``: the launch loop that rescans every warp, every
block and every store queue on each step is the specification of
``GpuDevice.launch``'s incremental one; it exists only here.

``NaiveKernelExecution``: the interpreter that re-examines every
instruction on every dynamic step (opcode string chain, ``isinstance``
operand towers, per-thread ``tid -> warp -> frame`` register walks) is
the specification of ``KernelExecution``'s decode-once closures; no
user can select it any more.  ``oracle_engine()`` substitutes it for
the launches inside a ``with`` block.

``ReferenceGlobalMemory``: global memory on the sparse one-dict-entry-
per-byte store (``DictByteStore``) with byte-by-byte store forwarding
and one queue entry per stored lane is the specification of
``GlobalMemory``'s flat extent, one-scan forwarding and queue of runs,
for every access inside the heap.

``PerThreadPTVCManager``: the join and the barrier computed thread by
thread — each member's self clock read with ``get``, per-lane entries
set and the result re-normalized, every participant's base joined — is
the specification of ``PTVCManager``'s closed forms, which take one max
over stored entries per warp and keep a base normalized without
re-filtering it.
"""

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import pytest

from repro.columnar import iter_batches, ops_to_rows, rows_to_ops
from repro.core.detector import BarracudaDetector
from repro.core.ptvc import PTVCManager
from repro.core.structured import StructuredVC
from repro.core.reference import DetectorConfig
from repro.errors import DeadlockError, SimulationError, StepLimitExceeded
from repro.events import GRID_BARRIER_BLOCK, LogRecord, RecordKind
from repro.gpu import device as device_module
from repro.gpu.device import DEFAULT_MAX_STEPS, GpuDevice
from repro.gpu.engine import _COMPARES, _CVT_TYPES
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.interpreter import (
    LOG_COST,
    KernelExecution,
    WarpState,
    _Frame,
    _Phase,
)
from repro.gpu.memory import GLOBAL_HEAP_BASE, MAXWELL_TITANX
from repro.gpu.scheduler import RoundRobinScheduler
from repro.ptx.ast import (
    ImmOperand,
    Instruction,
    Label,
    MemOperand,
    Operand,
    RegOperand,
    SpecialRegOperand,
    SymbolOperand,
    VectorOperand,
)
from repro.ptx.isa import FLOAT_TYPES, SIGNED_TYPES, type_width
from repro.trace.layout import mask_lanes
from repro.trace.operations import Scope, Space


def per_record_oracle(layout, records, config=None) -> BarracudaDetector:
    """Expand every row of ``records`` (records or batches) to its
    operations and run them, packed one lane per cell, lane by lane;
    returns the detector."""
    config = config or DetectorConfig()
    granularity = config.granularity_bytes
    # Provenance records per-lane history, so the loop takes no range.
    detector = BarracudaDetector(layout, dataclasses.replace(
        config, provenance_depth=max(1, config.provenance_depth)))
    for batch in iter_batches(records):
        ops = rows_to_ops(batch, layout, granularity)
        detector.process_columnar(
            ops_to_rows(ops, layout, granularity), granularity)
    return detector


# ----------------------------------------------------------------------
# The clock-maintenance oracle
# ----------------------------------------------------------------------
class PerThreadPTVCManager(PTVCManager):
    """:class:`PTVCManager` whose joins and barriers go thread by
    thread, whatever the mask and whoever is deviant."""

    def _join_fork(self, warp: int, members: int) -> None:
        if not members:
            return
        self.joins += 1
        group = self._top(warp)
        base = group.base
        first, count = self.layout.warp_span(warp)
        tids = [first + lane for lane in mask_lanes(members)]
        joined = base.copy()
        high = 0
        deviants = []
        for tid in tids:
            dev = self._deviant.get(tid)
            if dev is not None:
                deviants.append((tid, dev))
                self_clock = dev.get(tid)
            else:
                self_clock = base.get(tid) + 1
            if self_clock > high:
                high = self_clock
        for tid, dev in deviants:
            joined.join(dev)
            del self._deviant[tid]
        if members == (1 << count) - 1:
            joined.set_warp(warp, high)
        else:
            for tid in tids:
                joined.set_lane(tid, max(high, joined.get(tid)))
        joined.normalize()
        group.base = joined

    def barrier(self, block: int, bits_by_warp: Dict[int, int]) -> bool:
        self.joins += 1
        layout = self.layout
        full = layout.barrier_complete(block, bits_by_warp)
        participants = []
        for warp in layout.barrier_warps(block):
            group = self._top(warp)
            lanes = group.mask if full else group.mask & bits_by_warp.get(warp, 0)
            if lanes:
                participants.append((group, layout.warp_span(warp)[0], lanes))
        joined = StructuredVC(layout)
        high = 0
        for group, first, lanes in participants:
            joined.join(group.base)
            for lane in mask_lanes(lanes):
                tid = first + lane
                dev = self._deviant.get(tid)
                if dev is not None:
                    joined.join(dev)
                    self_clock = dev.get(tid)
                    del self._deviant[tid]
                else:
                    self_clock = group.base.get(tid) + 1
                if self_clock > high:
                    high = self_clock
                if not full:
                    joined.set_lane(tid, max(self_clock, joined.get(tid)))
        if full:
            covered = range(layout.num_blocks) if block < 0 else (block,)
            for member in covered:
                joined.set_block(member, high)
        joined.normalize()
        for group, first, lanes in participants:
            if lanes == group.mask:
                group.base = joined
            else:
                for lane in mask_lanes(lanes):
                    tid = first + lane
                    dev = joined.copy()
                    dev.set_lane(tid, max(dev.get(tid), group.base.get(tid)) + 1)
                    self._deviant[tid] = dev
        return full


# ----------------------------------------------------------------------
# The device-memory oracle
# ----------------------------------------------------------------------
class DictByteStore:
    """A sparse byte-addressable memory (little-endian multi-byte access)."""

    __slots__ = ("_bytes",)

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def read(self, addr: int, width: int) -> int:
        value = 0
        for i in range(width):
            value |= self._bytes.get(addr + i, 0) << (8 * i)
        return value

    def write(self, addr: int, width: int, value: int) -> None:
        for i in range(width):
            self._bytes[addr + i] = (value >> (8 * i)) & 0xFF

    def read_byte(self, addr: int) -> int:
        return self._bytes.get(addr, 0)


@dataclass
class OracleQueuedStore:
    """One lane's store waiting in a block's queue."""

    addr: int
    width: int
    value: int


class ReferenceGlobalMemory:
    """``GlobalMemory`` as it was before the flat extent and the
    warp-wide store: main memory is a :class:`DictByteStore`, a load
    forwards byte by byte, host arrays move one element at a time, no
    address is illegal, and each block's store queue is a list of
    one-lane :class:`OracleQueuedStore` entries, drained one entry at a
    time.  Production's queue of runs must drain the same lanes in the
    same order."""

    def __init__(self, arch=MAXWELL_TITANX) -> None:
        self.arch = arch
        self.main = DictByteStore()
        self._alloc_cursor = GLOBAL_HEAP_BASE
        self._queues: Dict[int, List[OracleQueuedStore]] = {}
        self._store_rank: Dict[int, int] = {}
        self.allocated_bytes = 0

    def alloc(self, size: int, align: int = 8) -> int:
        if size <= 0:
            raise SimulationError(f"cannot allocate {size} bytes")
        cursor = -(-self._alloc_cursor // align) * align
        self._alloc_cursor = cursor + size
        self.allocated_bytes += size
        return cursor

    def store(self, block: int, addr: int, width: int, value: int) -> None:
        queue = self._queues.get(block)
        if queue is None:
            queue = self._queues[block] = []
            self._store_rank.setdefault(block, len(self._store_rank))
        queue.append(OracleQueuedStore(addr=addr, width=width, value=value))

    def load(self, block: int, addr: int, width: int) -> int:
        queue = self._queues.get(block)
        value = 0
        for i in range(width):
            byte_addr = addr + i
            byte = None
            if queue:
                for entry in reversed(queue):
                    if entry.addr <= byte_addr < entry.addr + entry.width:
                        byte = (entry.value >> (8 * (byte_addr - entry.addr))) & 0xFF
                        break
            if byte is None:
                byte = self.main.read_byte(byte_addr)
            value |= byte << (8 * i)
        return value

    def atomic(self, block: int, addr: int, width: int, operation) -> int:
        for queue_block in self._pending_blocks():
            self._drain_address(queue_block, addr, width)
        old = self.main.read(addr, width)
        new = operation(old)
        if new is not None:
            self.main.write(addr, width, new)
        return old

    def _commit(self, entry: OracleQueuedStore) -> None:
        self.main.write(entry.addr, entry.width, entry.value)

    def _pending_blocks(self) -> List[int]:
        return sorted(self._queues, key=self._store_rank.__getitem__)

    def _drain_address(self, block: int, addr: int, width: int) -> None:
        """Drain ``block``'s stores overlapping a range: their overlap
        closure in queue order on weak architectures, the FIFO prefix up
        to the last of them on strong ones."""
        queue = self._queues.get(block)
        if not queue:
            return
        if self.arch.relaxed_store_drain:
            ranges = [(addr, addr + width)]
            members = set()
            changed = True
            while changed:
                changed = False
                for index, entry in enumerate(queue):
                    if index in members:
                        continue
                    if any(entry.addr < hi and lo < entry.addr + entry.width
                           for lo, hi in ranges):
                        members.add(index)
                        ranges.append((entry.addr, entry.addr + entry.width))
                        changed = True
            if not members:
                return
            for index in sorted(members):
                self._commit(queue[index])
            for index in sorted(members, reverse=True):
                del queue[index]
        else:
            # By position: equal entries (same address, width and value)
            # are still separate stores.
            overlapping = [
                index for index, e in enumerate(queue)
                if e.addr < addr + width and addr < e.addr + e.width
            ]
            if not overlapping:
                return
            last = overlapping[-1]
            for entry in queue[: last + 1]:
                self._commit(entry)
            del queue[: last + 1]
        if not queue:
            del self._queues[block]

    def drain_one(self, block: int, rng=None) -> bool:
        """Weak architectures with an ``rng`` drain a random entry no
        older entry overlaps; otherwise the FIFO head."""
        queue = self._queues.get(block)
        if not queue:
            return False
        if self.arch.relaxed_store_drain and rng is not None:
            eligible = []
            seen_addrs = set()
            for entry in queue:
                key = (entry.addr, entry.width)
                overlap = any(
                    entry.addr < a + w and a < entry.addr + entry.width
                    for a, w in seen_addrs
                )
                if not overlap:
                    eligible.append(entry)
                seen_addrs.add(key)
            entry = rng.choice(eligible)
            queue.remove(entry)
        else:
            entry = queue.pop(0)
        if not queue:
            del self._queues[block]
        self._commit(entry)
        return True

    def drain_heads(self, num_blocks: int) -> None:
        for block in sorted(b for b in self._queues if b < num_blocks):
            self.drain_one(block)

    def drain_block(self, block: int) -> None:
        for entry in self._queues.pop(block, ()):
            self._commit(entry)

    def drain_all(self) -> None:
        for block in self._pending_blocks():
            self.drain_block(block)

    def pending_stores(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def snapshot(self) -> Dict[int, int]:
        self.drain_all()
        return dict(self.main._bytes)

    def restore(self, image: Dict[int, int]) -> None:
        self._queues.clear()
        self._store_rank.clear()
        self.main._bytes = dict(image)

    def host_write_array(self, addr: int, values, width: int = 4) -> None:
        self.drain_all()
        for index, value in enumerate(values):
            self.main.write(addr + index * width, width, int(value))

    def host_read_array(self, addr: int, count: int, width: int = 4):
        self.drain_all()
        return [self.main.read(addr + i * width, width) for i in range(count)]

    def image(self) -> bytes:
        """The heap's bytes, ``[GLOBAL_HEAP_BASE, cursor)``, as the flat
        store holds them."""
        return bytes(self.main.read_byte(addr)
                     for addr in range(GLOBAL_HEAP_BASE, self._alloc_cursor))


# ----------------------------------------------------------------------
# The launch-loop oracle
# ----------------------------------------------------------------------
def _active_tids(warp) -> FrozenSet[int]:
    """The active threads of a warp of either engine: the oracle's tid
    set, or the engine's lane bits expanded."""
    entry = warp.frame.stack[-1]
    if isinstance(entry, OracleEntry):
        return frozenset(entry.amask)
    return frozenset(warp.first_tid + lane for lane in range(warp.lanes)
                     if entry.mask >> lane & 1)


def _release_barriers_all_blocks(execution) -> bool:
    """The rescanning release: every warp and every block, from flags
    alone (it neither reads nor keeps the execution's waiting counts)."""
    if not any(w.at_barrier for w in execution.warps):
        return False

    def emit_barrier(block, arrived):
        if execution.rows is None:
            return
        execution._emit(execution.rows.append(LogRecord(
            kind=RecordKind.BARRIER, warp=block,
            active=frozenset().union(*map(_active_tids, arrived)),
        )))

    live_all = [w for w in execution.warps if not w.done]
    if live_all and all(w.at_barrier and w.at_grid_barrier for w in live_all):
        emit_barrier(GRID_BARRIER_BLOCK, live_all)
        execution.global_mem.drain_all()
        for w in live_all:
            w.at_barrier = False
            w.at_grid_barrier = False
        return True
    released = False
    for block in range(execution.layout.num_blocks):
        warps = [execution.warps[w] for w in execution.layout.block_warps(block)]
        live = [w for w in warps if not w.done]
        if live and all(w.at_barrier and not w.at_grid_barrier for w in live):
            emit_barrier(block, live)
            for w in live:
                w.at_barrier = False
            released = True
    return released


def reference_launch(
    device: GpuDevice,
    module,
    kernel_name: str,
    grid,
    block,
    params=None,
    warp_size: int = 32,
    sink=None,
    instrumented: bool = False,
    scheduler=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    cooperative: bool = False,
):
    """``GpuDevice.launch`` as it was before the launch loop went
    incremental: every iteration re-derives the runnable set from all
    warps, re-checks every block's barrier, and the steady store drain
    visits every block of the grid.  Same arguments, same result; the
    specification ``tests/test_launch_loop.py`` holds the device to.
    """
    if module not in device._loaded_modules:
        device.load_module(module)
    execution = device_module.KernelExecution(
        module=module,
        kernel=module.kernel(kernel_name),
        config=LaunchConfig.of(grid, block, warp_size),
        params=params or {},
        global_mem=device.global_mem,
        global_symbols=device.global_symbols,
        sink=sink,
        instrumented=instrumented,
        cooperative=cooperative,
    )
    scheduler = scheduler or RoundRobinScheduler()
    memory = device.global_mem

    def drain_every_block(num_blocks: int) -> None:
        for queue_block in range(num_blocks):
            memory.drain_one(queue_block)

    memory.drain_heads = drain_every_block  # shadows the method
    try:
        steps = 0
        while True:
            _release_barriers_all_blocks(execution)
            runnable = [
                w for w in execution.warps if not w.done and not w.at_barrier
            ]
            if not runnable:
                if all(w.done for w in execution.warps):
                    break
                raise DeadlockError(
                    f"kernel {kernel_name!r}: no warp can make progress"
                )
            execution.step(scheduler.pick(runnable))
            scheduler.after_step(execution)
            steps += 1
            if steps > max_steps:
                raise StepLimitExceeded(
                    f"kernel {kernel_name!r} exceeded {max_steps} steps; "
                    "likely a hang (spinlock never released?)"
                )
    finally:
        del memory.drain_heads
    memory.drain_all()
    execution.result.steps = steps
    return execution.result


# ----------------------------------------------------------------------
# The engine oracle
# ----------------------------------------------------------------------
@contextlib.contextmanager
def oracle_engine():
    """Launches inside the block run on :class:`NaiveKernelExecution`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(device_module, "KernelExecution", NaiveKernelExecution)
        yield


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


@dataclass
class OracleEntry:
    """A SIMT stack entry of :class:`NaiveKernelExecution`.  Its active
    mask is the set of its threads' tids, as the specification states
    masks; the engine's entries hold lane bits instead."""

    amask: Set[int]
    pc: int
    reconv_pc: int
    phase: _Phase

    def sorted_active(self) -> Tuple[int, ...]:
        return tuple(sorted(self.amask))


class NaiveKernelExecution(KernelExecution):
    """``KernelExecution`` as it was before decode-once closures and the
    warp-level register file: the step loop, the opcode chain, the
    per-thread register file and every per-thread handler below are the
    deleted production code, verbatim.  It owns its storage — one
    ``dict`` per thread in each frame's ``regs``, one special-register
    ``dict`` per thread, per-thread ``call`` bindings, a tid set per
    SIMT stack entry (:class:`OracleEntry`) — and nothing below reads a
    production register file or mask; only the launch set-up, the
    SIMT-stack pops (with their ELSE/FI rows) and the barrier release
    are inherited.  Its records are ``LogRecord``s, written into the
    launch's row log through the checked ``ColumnarBuilder.append``
    (``_emit_record``); a ``cp.async`` store is staged as its record.
    One rule departs from the deleted code: a malformed ``shfl``,
    ``vote``, ``cp.async`` or ``call``, and ``barrier.cluster`` on a
    launch that is not cooperative, fail only where a thread reaches
    them, as the engine's ``_raise_when_reached`` does."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._specials: Dict[int, dict] = {
            tid: self.config.special_registers(tid)
            for tid in self.layout.all_tids()
        }
        #: One frozenset per distinct mask, shared by the records.
        self._masks: Dict[Tuple[int, ...], FrozenSet[int]] = {}
        for warp in self.warps:
            tids = self.layout.warp_tids(warp.warp)
            warp.frame.regs = {tid: {} for tid in tids}
            warp.frame.stack[:] = [OracleEntry(
                amask=set(tids), pc=0, reconv_pc=warp.frame.ctx.end_pc,
                phase=_Phase.BASE)]

    def intern_mask(self, tids) -> FrozenSet[int]:
        """The canonical frozenset for a sorted tid sequence."""
        key = tuple(tids)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = frozenset(key)
        return mask

    def frozen_active(self, entry: OracleEntry) -> FrozenSet[int]:
        return self.intern_mask(entry.sorted_active())

    def _emit_record(self, record: LogRecord) -> None:
        """Log ``record``: a row of the launch's row log, written through
        the builder's checks, then the engine's one exit."""
        if self.rows is not None:
            self._emit(self.rows.append(record))

    def _emit_barrier(self, block: int, arrived) -> None:
        masks = [self.frozen_active(w.frame.stack[-1]) for w in arrived]
        active = masks[0] if len(masks) == 1 else frozenset().union(*masks)
        self._emit_record(LogRecord(kind=RecordKind.BARRIER, warp=block,
                                    active=active))

    def _flush_async(self, warp: WarpState, keep_groups: int,
                     include_uncommitted: bool = False) -> None:
        """Emit the staged store records of completed ``cp.async`` groups."""
        records = []
        while len(warp.async_groups) > keep_groups:
            records.extend(warp.async_groups.pop(0))
        if include_uncommitted and warp.async_pending:
            records.extend(warp.async_pending)
            warp.async_pending = []
        for record in records:
            self._emit_record(record)

    # ------------------------------------------------------------------
    # Operand evaluation (per thread)
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

    def _address(self, tid: int, operand: MemOperand) -> int:
        if operand.base.startswith("%"):
            base = int(self._reg(tid, operand.base))
        else:
            base = self._symbol_address(operand.base)
        return base + operand.offset

    def _pred_holds(self, tid: int, pred: Optional[Tuple[str, bool]]) -> bool:
        if pred is None:
            return True
        name, negated = pred
        value = bool(self._reg(tid, name))
        return value != negated

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

    # ------------------------------------------------------------------
    # Instruction dispatch
    # ------------------------------------------------------------------
    def _execute(self, warp: WarpState, entry: OracleEntry, insn: Instruction) -> None:
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
                # Fails the launch only where a thread reaches it.
                if any(self._pred_holds(t, insn.pred) for t in entry.amask):
                    raise SimulationError(
                        f"{warp.frame.ctx.kernel.name!r}: {insn.full_opcode} at "
                        f"pc {entry.pc} requires a cooperative launch "
                        "(launch with cooperative=True)"
                    )
                entry.pc += 1
                return
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
    def _exec_branch(self, warp: WarpState, entry: OracleEntry, insn: Instruction) -> None:
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
        self._emit_record(LogRecord(
            kind=RecordKind.BRANCH_IF,
            warp=warp.warp,
            active=self.frozen_active(entry),
            then_mask=self.intern_mask(sorted(not_taken)),
            pc=entry.pc,
        ))
        branch_pc = entry.pc
        entry.pc = reconv
        warp.stack.append(
            OracleEntry(amask=taken, pc=target_pc, reconv_pc=reconv, phase=_Phase.ELSE)
        )
        warp.stack.append(
            OracleEntry(
                amask=not_taken, pc=branch_pc + 1, reconv_pc=reconv, phase=_Phase.THEN
            )
        )

    def _exec_ret(self, warp: WarpState, entry: OracleEntry, insn: Instruction) -> None:
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

    def _exec_call(self, warp: WarpState, entry: OracleEntry, insn: Instruction) -> None:
        """Enter a device function with the current active threads.

        Arguments are evaluated in the caller's frame and bound to the
        callee's ``.param`` names per thread, so per-thread values (like
        the instrumentation's unique TID, §4.1) pass through naturally.
        A malformed call fails the launch only where a thread reaches it.
        """
        active = {t for t in entry.amask if self._pred_holds(t, insn.pred)}
        if not active:
            entry.pc += 1
            return
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
        bindings: Dict[str, Dict[int, object]] = {}
        for param, arg in zip(function.params, args):
            bindings[param.name] = {tid: self._value(tid, arg) for tid in active}
        entry.pc += 1  # resume here after the return
        ctx = self._context_for(function)
        warp.frames.append(
            _Frame(
                ctx=ctx,
                stack=[
                    OracleEntry(
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

    def _warp_sync_lanes(
        self, warp: WarpState, entry: OracleEntry, insn: Instruction,
        active: Sequence[int], operand: Operand,
    ) -> FrozenSet[int]:
        """Validate a ``.sync`` membermask; returns the required lanes.

        The mask names the lanes that must reach the instruction
        together.  Lanes the warp does not have (partial warps) are
        ignored; a mask with no live lane, or one naming a lane that
        diverged away, is a malformed sync and raises.  A statement no
        lane reaches checks nothing.
        """
        if not active:
            return frozenset()
        mask = int(self._value(active[0], operand))
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
        self, warp: WarpState, entry: OracleEntry, insn: Instruction,
        active: Sequence[int],
    ) -> None:
        """``shfl.sync.{up,down,bfly,idx}.b32 d, a, b, c, membermask``.

        Register-level lane exchange (PTX ISA 9.7.9.3): no memory is
        touched and no record is emitted — by construction the detector
        cannot flag the communication as a race.  Lanes outside the
        membermask keep their own value (defined fallback).  A malformed
        one fails the launch only where a thread reaches it.
        """
        mode = next(
            (m for m in insn.modifiers if m in ("up", "down", "bfly", "idx")),
            None,
        )
        if mode is None or len(insn.operands) != 5:
            if active:
                raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
            return
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
        self, warp: WarpState, entry: OracleEntry, insn: Instruction,
        active: Sequence[int],
    ) -> None:
        """``vote.sync.{ballot.b32,any.pred,all.pred,uni.pred}``.

        Warp-wide predicate reduction over the membermask's lanes; like
        shfl, pure register traffic.  Lanes outside the mask get the
        defined fallbacks: 0 for ballot, their own predicate for
        any/all, 1 for uni.  A malformed one fails the launch only where
        a thread reaches it.
        """
        mode = next(
            (m for m in insn.modifiers
             if m in ("ballot", "any", "all", "uni")),
            None,
        )
        if mode is None or len(insn.operands) != 3:
            if active:
                raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
            return
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
        self, warp: WarpState, entry: OracleEntry, insn: Instruction,
        active: Sequence[int],
    ) -> None:
        """``cp.async`` copies and their commit/wait bookkeeping.

        The global read happens (and is logged) at issue; the shared
        write's *record* is deferred until the copy's completion edge —
        ``wait_group``/``wait_all``, or warp exit for copies never
        waited on.  The deferral is what lets the detector see an
        unwaited copy's store as unordered with post-barrier readers.
        Committing and waiting ignore the guard; a malformed statement
        fails the launch only where a thread reaches it.
        """
        mods = insn.modifiers
        where = f"{warp.frame.ctx.kernel.name!r}: {insn.full_opcode} at pc {entry.pc}"
        if "async" not in mods:
            if active:
                raise SimulationError(f"unsupported opcode {insn.full_opcode!r}")
            return
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
                if active:
                    raise SimulationError(f"{where} needs one immediate group count")
                return
            keep = int(insn.operands[0].value)
            if keep < 0:
                if active:
                    raise SimulationError(
                        f"{where}: group count must be non-negative, got {keep}")
                return
            self._flush_async(warp, keep)
            return
        if not active:
            return
        if len(insn.operands) != 3:
            raise SimulationError(
                f"{where} needs destination, source, and size operands")
        dst, src, size_op = insn.operands
        if not isinstance(dst, MemOperand) or not isinstance(src, MemOperand):
            raise SimulationError(f"{where}: copy operands must be addresses")
        size = int(size_op.value) if isinstance(size_op, ImmOperand) else -1
        if size not in (4, 8, 16):
            raise SimulationError(f"{where}: copy size must be 4, 8, or 16 bytes")
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
            # Logged as a store is: the low 64 bits, signed.
            values[tid] = (raw + (1 << 63)) % (1 << 64) - (1 << 63)
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
        self._emit_record(load)
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
                        raw = self.local_mem.load(tid, element, width)
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
                    raw = self.local_mem.load(tid, addr, width)
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
                        self.local_mem.store(tid, element, width, raw)
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
                self.local_mem.store(tid, addr, width, raw)
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
    def _exec_log(self, warp: WarpState, entry: OracleEntry, insn: Instruction) -> None:
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
        self._emit_record(record)


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


def _shift_amount(exe, tid, insn, type_name) -> int:
    """PTX clamps: the amount is an unsigned 32-bit value, and anything
    above the operand width behaves as the width."""
    bits = type_width(type_name) * 8 if type_name else 64
    return min(int(exe._value(tid, insn.operands[2])) & 0xFFFFFFFF, bits)


def _exec_shl(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    value = int(exe._value(tid, a))
    amount = _shift_amount(exe, tid, insn, type_name)
    exe._set_reg(tid, dst.name, _wrap(value << amount, type_name))


def _exec_shr(exe, tid, insn, type_name):
    dst, a, b = insn.operands
    value = _wrap(exe._value(tid, a), type_name)
    amount = _shift_amount(exe, tid, insn, type_name)
    exe._set_reg(tid, dst.name, _wrap(int(value) >> amount, type_name))


def _exec_popc(exe, tid, insn, type_name):
    dst, src = insn.operands
    exe._set_reg(tid, dst.name, bin(int(exe._value(tid, src)) & ((1 << 64) - 1)).count("1"))


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
