"""Static race lint over PTX modules: rule registry and renderers.

Each rule inspects one kernel through the shared :class:`KernelContext`
(CFG, taint, symbolic addresses, guard constraints, acquire/release
inference) and yields :class:`Finding`\\ s.  The rules encode the defect
classes of the paper — barrier divergence (§3.3.2), branch-ordering
races (§3.3.1), fence-scope and flag-handshake idioms (§3.1, §3.3.3,
Figure 4), atomic/non-atomic mixing (§3.3.2) and the §6.3 hashtable lock
bugs — as static patterns.  The lint is *neither sound nor complete*:
UNKNOWN addresses are treated conservatively by some rules and
optimistically by others, each documented in docs/static-analysis.md
together with the suite programs it provably misses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..instrument.inference import AccessClass, Classification, classify_kernel
from ..ptx.ast import (
    ImmOperand, Instruction, Kernel, Module, RegOperand, written_registers)
from ..ptx.cfg import CFG, EXIT_BLOCK, BasicBlock
from ..ptx.isa import BARRIER_OPCODES, EXIT_OPCODES
from ..trace.operations import Scope
from .addresses import (
    AccessSite,
    Privacy,
    SymbolicEvaluator,
    _TID_X,
    _block_varying,
    _thread_varying,
    affine_add,
    collect_access_sites,
    is_stride_factor,
)
from .dataflow import build_def_use, read_registers
from .guards import (
    BranchInfo,
    GuardAnalysis,
    factor_equality,
    gid_equality,
    interval_of,
    unique_thread_key,
)
from .taint import CTAID, LANE, MEM, TID, TaintAnalysis, analyze_taint

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, anchored to a PTX line."""

    rule: str
    severity: str
    kernel: str
    line: int
    message: str
    related_lines: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "kernel": self.kernel,
            "line": self.line,
            "message": self.message,
            "related_lines": list(self.related_lines),
        }


class KernelContext:
    """Every shared analysis a rule might need, computed once."""

    def __init__(self, kernel: Kernel, module: Module) -> None:
        self.kernel = kernel
        self.module = module
        self.body = kernel.body
        self.cfg = CFG(kernel)
        self.def_use = build_def_use(kernel)
        self.taint: TaintAnalysis = analyze_taint(kernel)
        self.evaluator = SymbolicEvaluator(kernel, module, self.def_use)
        self.classes: Dict[int, Classification] = classify_kernel(kernel)
        self.sites: List[AccessSite] = collect_access_sites(
            kernel, module, self.evaluator, self.classes
        )
        self.guards = GuardAnalysis(kernel, self.cfg, self.evaluator)
        self._path_cache: Dict[Tuple[int, int], bool] = {}
        self._dep_cache: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Concurrency helpers
    # ------------------------------------------------------------------
    def barrier_free_path(self, src: int, dst: int) -> bool:
        """Is there a CFG path from after ``src`` to ``dst`` that crosses
        no (unpredicated) ``bar``?  Barriers order the two accesses for
        every thread of the block; a barrier-free path means some block
        can interleave them."""
        key = (src, dst, "bar")
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        result = self._barrier_free_path(src, dst, BARRIER_OPCODES)
        self._path_cache[key] = result
        return result

    def grid_barrier_free_path(self, src: int, dst: int) -> bool:
        """Like :meth:`barrier_free_path`, but only a *grid-wide* barrier
        (``barrier.cluster`` under a cooperative launch) blocks: a plain
        ``bar.sync`` cannot order accesses from different blocks."""
        key = (src, dst, "grid")
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        result = self._barrier_free_path(src, dst, frozenset({"barrier"}))
        self._path_cache[key] = result
        return result

    def any_path(self, src: int, dst: int) -> bool:
        """Is ``dst`` reachable from after ``src`` at all (nothing but
        kernel exit blocks the scan)?"""
        key = (src, dst, "any")
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        result = self._barrier_free_path(src, dst, frozenset())
        self._path_cache[key] = result
        return result

    def grid_barrier_ordered(self, a_index: int, b_index: int) -> bool:
        """Does a grid-wide barrier separate the two sites?  True only
        when the sites are sequentially related (some path connects them)
        and *every* such path crosses a ``barrier.cluster``.  Sites in
        sibling branch arms have no connecting path and stay concurrent —
        different blocks never order by program order alone."""
        connected = self.any_path(a_index, b_index) or self.any_path(
            b_index, a_index
        )
        if not connected:
            return False
        return not (
            self.grid_barrier_free_path(a_index, b_index)
            or self.grid_barrier_free_path(b_index, a_index)
        )

    def walk(self, src: int, scan: Callable[[BasicBlock, int], Optional[bool]],
             at_exit: bool = False) -> bool:
        """Depth-first over the CFG paths from just after statement
        ``src``: does one of them end well?

        ``scan(block, start)`` reads a block from statement ``start``
        (the rest of ``src``'s block first, then each successor once,
        whole): ``True`` ends the walk (a path found), ``False`` ends
        that path, ``None`` goes on into the block's successors.  A path
        that falls off the kernel ends as ``at_exit`` says."""
        block = self.cfg.block_of(src)
        verdict = scan(block, src + 1)
        if verdict is not None:
            return verdict
        seen: Set[int] = set()
        stack = list(block.successors)
        while stack:
            index = stack.pop()
            if index == EXIT_BLOCK:
                if at_exit:
                    return True
                continue
            if index in seen:
                continue
            seen.add(index)
            block = self.cfg.blocks[index]
            verdict = scan(block, block.start)
            if verdict:
                return True
            if verdict is None:
                stack.extend(block.successors)
        return False

    def _barrier_free_path(
        self, src: int, dst: int, blocking: FrozenSet[str]
    ) -> bool:
        body = self.body

        def scan(block: BasicBlock, start: int) -> Optional[bool]:
            for index in range(start, block.end):
                if index == dst:
                    return True
                statement = body[index]
                if isinstance(statement, Instruction) and statement.pred is None and (
                        statement.opcode in blocking
                        or statement.opcode in EXIT_OPCODES):
                    return False
            return None

        return self.walk(src, scan)

    def concurrent_unordered(self, a: AccessSite, b: AccessSite) -> bool:
        """Either a divergent-branch sibling pair (§3.3.1: the SIMT
        serialization order is architecture-defined) or an intra-block
        pair with no barrier forcing an order."""
        sibling = self.guards.sibling_branch(a.index, b.index)
        if sibling is not None and self.taint.is_block_varying(sibling.index):
            return True
        return self.barrier_free_path(a.index, b.index) or self.barrier_free_path(
            b.index, a.index
        )

    # ------------------------------------------------------------------
    # Conflict (may-overlap) reasoning
    # ------------------------------------------------------------------
    def may_conflict(self, a: AccessSite, b: AccessSite) -> bool:
        """Can accesses from two *different* threads touch overlapping
        bytes?  False only under a proof: both thread-private with the
        same stride, the same pinned unique thread, or provably disjoint
        guard-bounded intervals."""
        o1, o2 = a.offset, b.offset
        constraints_a = self.guards.constraints_for(a.index)
        constraints_b = self.guards.constraints_for(b.index)
        if o1 is not None and o1 == o2:
            if (
                a.privacy is Privacy.THREAD_PRIVATE
                and b.privacy is Privacy.THREAD_PRIVATE
            ):
                return False  # each thread hits only its own slot
            key_a = unique_thread_key(constraints_a, a.space)
            key_b = unique_thread_key(constraints_b, b.space)
            if key_a is not None and key_a == key_b:
                return False  # literally the same single thread
            return True
        if o1 is None or o2 is None:
            return True
        # Distinct forms: cancel symbolic terms that are equal on both
        # sides and uniform across the threads being compared (for
        # shared memory both threads share a block, so ctaid terms are
        # comparable; for global memory only launch-uniform terms are).
        cancel: Dict[Tuple[str, ...], int] = {}
        for monomial, coeff in o1.items():
            if monomial in ((), _TID_X):
                continue
            if o2.get(monomial) == coeff and self._uniform_monomial(monomial, a.space):
                cancel[monomial] = coeff
        r1 = affine_add(o1, cancel, -1)
        r2 = affine_add(o2, cancel, -1)
        interval_a = interval_of(r1, constraints_a)
        interval_b = interval_of(r2, constraints_b)
        if interval_a is None or interval_b is None:
            return True
        lo1, hi1 = interval_a
        lo2, hi2 = interval_b
        hi1 = None if hi1 is None else hi1 + a.width - 1
        hi2 = None if hi2 is None else hi2 + b.width - 1
        if hi1 is not None and lo2 is not None and hi1 < lo2:
            return False
        if hi2 is not None and lo1 is not None and hi2 < lo1:
            return False
        return True

    @staticmethod
    def _uniform_monomial(monomial: Tuple[str, ...], space: str) -> bool:
        for factor in monomial:
            if _thread_varying(factor):
                return False
            if space != "shared" and _block_varying(factor):
                return False
            if is_stride_factor(factor):
                # Uniform within one loop iteration only; the racing
                # instances may come from different iterations.
                return False
        return True

    # ------------------------------------------------------------------
    # Handshake (release/acquire) reasoning
    # ------------------------------------------------------------------
    def sync_ops_near(
        self, site: AccessSite, restrict: Optional[FrozenSet[int]] = None
    ) -> List[Tuple[int, AccessClass, Optional[Scope]]]:
        """Inferred acquire/release operations in any enclosing branch
        arm of a site (the whole kernel when the site is unguarded) —
        the candidates for the site's half of a flag handshake.  With
        ``restrict``, only that region (the site's own arm of a branch
        separating it from its peer) is searched."""
        if restrict is not None:
            region: Set[int] = set(restrict)
        else:
            arms = self.guards.arms_of(site.index)
            if arms:
                region = set()
                for info, arm in arms:
                    region |= (
                        info.target_region
                        if arm == "target"
                        else info.fallthrough_region
                    )
            else:
                region = set(range(len(self.body)))
        result = []
        for index, classification in self.classes.items():
            if index in region and classification.access in (
                AccessClass.ACQUIRE,
                AccessClass.RELEASE,
                AccessClass.ACQREL,
            ):
                result.append((index, classification.access, classification.scope))
        return result

    def handshake(self, writer: AccessSite, reader: AccessSite) -> Optional[bool]:
        """Is there a release on the writer's side and an acquire on the
        reader's?  Returns None when absent, else whether any of the
        participating fences is GLOBAL scope (the Figure 4 rule: one
        global-scope side suffices across blocks).

        When one branch separates the two sites into sibling arms, each
        side's candidates come from its *own* arm only — a lock inside
        the other arm must not vouch for an unprotected access here."""
        writer_region: Optional[FrozenSet[int]] = None
        reader_region: Optional[FrozenSet[int]] = None
        sibling = self.guards.sibling_branch(writer.index, reader.index)
        if sibling is not None:
            writer_arm = sibling.arm_of(writer.index)
            writer_region = (
                sibling.target_region
                if writer_arm == "target"
                else sibling.fallthrough_region
            )
            reader_region = (
                sibling.fallthrough_region
                if writer_arm == "target"
                else sibling.target_region
            )
        releases = [
            op
            for op in self.sync_ops_near(writer, writer_region)
            if op[1] in (AccessClass.RELEASE, AccessClass.ACQREL)
        ]
        acquires = [
            op
            for op in self.sync_ops_near(reader, reader_region)
            if op[1] in (AccessClass.ACQUIRE, AccessClass.ACQREL)
        ]
        if not releases or not acquires:
            return None
        return any(op[2] is Scope.GLOBAL for op in releases + acquires)

    # ------------------------------------------------------------------
    # Cross-block certainty
    # ------------------------------------------------------------------
    def certainly_cross_block(self, a: AccessSite, b: AccessSite) -> bool:
        """Must every conflicting pair of threads live in *different*
        blocks?  Then no ``bar.sync`` and no block-scope fence can order
        them (§3.3.3)."""
        sibling = self.guards.sibling_branch(a.index, b.index)
        if sibling is not None and CTAID in self.taint.taint_of(sibling.pred_reg):
            return True
        ctaid_a = factor_equality(self.guards.constraints_for(a.index), "ctaid.x")
        ctaid_b = factor_equality(self.guards.constraints_for(b.index), "ctaid.x")
        if ctaid_a is not None and ctaid_b is not None and ctaid_a != ctaid_b:
            return True
        o1, o2 = a.offset, b.offset
        if o1 is not None and o2 is not None:
            blocky = lambda off: {
                m: c for m, c in off.items() if any(_block_varying(f) for f in m)
            }
            if blocky(o1) != blocky(o2):
                return True  # e.g. data[ctaid] vs data[0]: different blocks collide
        return False

    # ------------------------------------------------------------------
    # Dependency closure (for spin/lock detection)
    # ------------------------------------------------------------------
    def dependency_closure(self, reg: str) -> FrozenSet[str]:
        """Registers transitively data-dependent on ``reg`` (flow
        insensitive)."""
        cached = self._dep_cache.get(reg)
        if cached is not None:
            return cached
        closure: Set[str] = {reg}
        changed = True
        while changed:
            changed = False
            for statement in self.body:
                if not isinstance(statement, Instruction):
                    continue
                written = written_registers(statement)
                if not written or all(w in closure for w in written):
                    continue
                if any(r in closure for r in read_registers(statement)):
                    closure.update(written)
                    changed = True
        result = frozenset(closure)
        self._dep_cache[reg] = result
        return result

    def same_cycle(self, a_index: int, b_index: int) -> bool:
        """Are the two statements' blocks in one CFG cycle?  (A block is
        in one with itself: the walk starts in it.)"""

        def reaches(src: int, dst: int) -> bool:
            target = self.cfg.block_of(dst)
            return self.walk(src, lambda block, start: block is target or None)

        return reaches(a_index, b_index) and reaches(b_index, a_index)


# ----------------------------------------------------------------------
# Pair enumeration shared by the race rules
# ----------------------------------------------------------------------
def _data_pairs(
    ctx: KernelContext, space: str
) -> Iterable[Tuple[AccessSite, AccessSite]]:
    """Plain conflicting-candidate pairs in one space: at least one
    write, no sync-classified or atomic sites (those belong to the
    handshake/atomic rules), regions resolved, different basic blocks
    (a straight-line same-warp pair executes in program order; the
    dynamic layer owns cross-warp same-block interleavings — see
    docs/static-analysis.md for why this trade keeps well-barriered
    reduction idioms quiet).

    One same-block shape IS enumerated: a pair whose offsets differ by
    a recognized halving-stride term and whose enclosing loop carries a
    barrier-free back path — the tree-reduction race (``s[tid] +=
    s[tid+stride]`` with no ``__syncthreads()`` in the loop).  The
    straight-line pair is ordered within one iteration, but the store
    of iteration *k* races the load of iteration *k+1* across warps,
    and the barrier-free cycle is exactly what permits that
    interleaving.  A barrier anywhere on the back path (the correct
    reduction) blocks the scan and keeps the pair out."""
    sites = [
        s
        for s in ctx.sites
        if s.space == space
        and s.region is not None
        and s.kind in ("load", "store")
        and not s.is_sync
    ]
    by_region: Dict[str, List[AccessSite]] = {}
    for site in sites:
        by_region.setdefault(site.region, []).append(site)
    for region_sites in by_region.values():
        for i, a in enumerate(region_sites):
            for b in region_sites[i + 1 :]:
                if not (a.is_write or b.is_write):
                    continue
                if ctx.cfg.block_of(a.index).index == ctx.cfg.block_of(b.index).index:
                    # Straight-line pairs are ordered by program order —
                    # but only within one thread block.  A pair that
                    # *certainly* spans blocks (e.g. data[gid] stored,
                    # data[N-gid] loaded) has no such order and stays in.
                    if _stride_loop_pair(ctx, a, b) or ctx.certainly_cross_block(a, b):
                        yield (a, b)
                    continue
                yield (a, b)


def _stride_loop_pair(ctx: KernelContext, a: AccessSite, b: AccessSite) -> bool:
    """Same-block pair reachable across loop iterations through a
    halving stride: offsets differ by a ``stride:`` term and the cycle
    from the later site back to the earlier one crosses no barrier."""
    o1, o2 = a.offset, b.offset
    if o1 is None or o2 is None:
        return False
    difference = affine_add(o1, o2, -1)
    if not any(any(is_stride_factor(f) for f in m) for m in difference):
        return False
    later, earlier = (b, a) if b.index >= a.index else (a, b)
    return ctx.barrier_free_path(later.index, earlier.index)


def _oriented(a: AccessSite, b: AccessSite) -> List[Tuple[AccessSite, AccessSite]]:
    """(writer, reader) orientations to try for handshake suppression."""
    pairs = []
    if a.is_write:
        pairs.append((a, b))
    if b.is_write:
        pairs.append((b, a))
    return pairs


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def _rule_barrier_divergence(ctx: KernelContext) -> Iterable[Finding]:
    """bar.sync under tid-dependent control flow (§3.3.2)."""
    for info in ctx.guards.branches.values():
        if not ctx.taint.is_divergent(info.index):
            continue
        for index in sorted(info.region()):
            statement = ctx.body[index]
            if (
                isinstance(statement, Instruction)
                and statement.opcode in BARRIER_OPCODES
            ):
                yield Finding(
                    rule="barrier-divergence",
                    severity=SEVERITY_ERROR,
                    kernel=ctx.kernel.name,
                    line=statement.line,
                    message=(
                        "bar.sync inside a thread-divergent branch region: "
                        "threads of one warp may disagree about reaching the "
                        "barrier (barrier divergence, paper §3.3.2)"
                    ),
                    related_lines=(info.line,),
                )


def _rule_divergent_store(ctx: KernelContext) -> Iterable[Finding]:
    """A store whose address is uniform across threads (or blocks) but
    whose value varies with them: every executing thread writes a
    different value to the same word in one instruction (§3.3.1)."""
    for site in ctx.sites:
        if site.kind != "store" or site.access is not AccessClass.STORE:
            continue
        offset = site.offset
        if offset is None:
            continue
        if any(any(_thread_varying(f) for f in m) for m in offset):
            continue  # per-thread address: not a collision by value
        statement = ctx.body[site.index]
        if len(statement.operands) < 2:
            continue
        value_taint = ctx.taint.operand_taint(statement.operands[1])
        constraints = ctx.guards.constraints_for(site.index)
        gid = gid_equality(constraints)
        tid_pinned = gid is not None or factor_equality(constraints, "tid.x") is not None
        ctaid_pinned = (
            gid is not None or factor_equality(constraints, "ctaid.x") is not None
        )
        addr_block_varying = any(
            any(_block_varying(f) for f in m) for m in offset
        )
        kind: Optional[str] = None
        if (TID in value_taint or LANE in value_taint) and not tid_pinned:
            kind = "threads of one warp"
        elif (
            CTAID in value_taint
            and site.space == "global"
            and not addr_block_varying
            and not ctaid_pinned
        ):
            kind = "different blocks"
        if kind is None:
            continue
        # A full release/acquire handshake around the store (a fenced
        # lock) serializes the writers; don't second-guess it here.
        if ctx.handshake(site, site) is not None:
            continue
        yield Finding(
            rule="divergent-store",
            severity=SEVERITY_ERROR,
            kernel=ctx.kernel.name,
            line=site.line,
            message=(
                f"store to a single {site.space} address ({site.region}) "
                f"with a value that differs across {kind}: concurrent "
                "writers race on one word (§3.3.1)"
            ),
        )


def _rule_shared_race(ctx: KernelContext) -> Iterable[Finding]:
    """Conflicting shared-memory accesses with no ordering barrier, or
    sitting in the two arms of one divergent branch (§3.3.1)."""
    for a, b in _data_pairs(ctx, "shared"):
        if not ctx.may_conflict(a, b):
            continue
        sibling = ctx.guards.sibling_branch(a.index, b.index)
        divergent_sibling = sibling is not None and ctx.taint.is_divergent(
            sibling.index
        )
        if not divergent_sibling and not (
            ctx.barrier_free_path(a.index, b.index)
            or ctx.barrier_free_path(b.index, a.index)
        ):
            continue
        how = (
            "the two arms of a divergent branch execute in an "
            "architecture-defined order (branch-ordering race, §3.3.1)"
            if divergent_sibling
            else "no bar.sync orders them on some execution path"
        )
        yield Finding(
            rule="shared-race",
            severity=SEVERITY_ERROR,
            kernel=ctx.kernel.name,
            line=a.line,
            message=(
                f"conflicting shared-memory {a.kind}/{b.kind} pair on "
                f"{a.region}: {how}"
            ),
            related_lines=(b.line,),
        )


def _rule_global_race(ctx: KernelContext) -> Iterable[Finding]:
    """Conflicting global-memory accesses with neither a barrier order
    nor a sufficient release/acquire handshake (§3.3.3, Figure 4)."""
    for a, b in _data_pairs(ctx, "global"):
        if not ctx.may_conflict(a, b):
            continue
        cross_block = ctx.certainly_cross_block(a, b)
        if cross_block and ctx.grid_barrier_ordered(a.index, b.index):
            continue  # a grid-wide barrier orders even cross-block pairs
        if not cross_block and not ctx.concurrent_unordered(a, b):
            continue
        handshakes = [ctx.handshake(w, r) for w, r in _oriented(a, b)]
        if cross_block:
            if any(h is True for h in handshakes):  # a global-scope side
                continue
            if any(h is False for h in handshakes):
                yield Finding(
                    rule="insufficient-fence-scope",
                    severity=SEVERITY_ERROR,
                    kernel=ctx.kernel.name,
                    line=a.line,
                    message=(
                        f"release/acquire handshake around a cross-block "
                        f"{a.kind}/{b.kind} pair on {a.region} uses only "
                        "block-scope (membar.cta) fences: block scope cannot "
                        "synchronize blocks (Figure 4 cta/cta row, §3.3.3)"
                    ),
                    related_lines=(b.line,),
                )
                continue
        elif any(h is not None for h in handshakes):
            continue  # some handshake exists; scope suffices within a block
        where = "cross-block " if cross_block else ""
        yield Finding(
            rule="global-race",
            severity=SEVERITY_ERROR,
            kernel=ctx.kernel.name,
            line=a.line,
            message=(
                f"conflicting {where}global {a.kind}/{b.kind} pair on "
                f"{a.region} with no ordering barrier and no release/acquire "
                "handshake"
            ),
            related_lines=(b.line,),
        )


def _rule_atomic_mixed(ctx: KernelContext) -> Iterable[Finding]:
    """An atomic and a plain (non-sync) access to one region that can
    interleave: PTX atomics guarantee nothing against plain accesses
    (§3.3.2)."""
    by_region: Dict[str, List[AccessSite]] = {}
    for site in ctx.sites:
        if site.region is not None:
            by_region.setdefault(site.region, []).append(site)
    for region_sites in by_region.values():
        atomics = [s for s in region_sites if s.kind == "atomic"]
        plains = [
            s
            for s in region_sites
            if s.kind in ("load", "store")
            and s.access in (AccessClass.LOAD, AccessClass.STORE)
        ]
        for atomic in atomics:
            for plain in plains:
                if (
                    ctx.cfg.block_of(atomic.index).index
                    == ctx.cfg.block_of(plain.index).index
                ):
                    continue
                if not ctx.may_conflict(atomic, plain):
                    continue
                if not ctx.certainly_cross_block(
                    atomic, plain
                ) and not ctx.concurrent_unordered(atomic, plain):
                    continue
                yield Finding(
                    rule="atomic-mixed",
                    severity=SEVERITY_ERROR,
                    kernel=ctx.kernel.name,
                    line=atomic.line,
                    message=(
                        f"atomic and plain {plain.kind} mix on {atomic.region} "
                        "without an ordering barrier: PTX atomics are not "
                        "atomic with respect to plain accesses (§3.3.2)"
                    ),
                    related_lines=(plain.line,),
                )


def _spin_loads(ctx: KernelContext) -> List[AccessSite]:
    """Loads inside a CFG cycle whose value feeds a conditional branch
    of that same cycle: the spin-wait shape of a flag handshake."""
    result = []
    for site in ctx.sites:
        if site.kind != "load":
            continue
        statement = ctx.body[site.index]
        dest = statement.operands[0] if statement.operands else None
        if not isinstance(dest, RegOperand):
            continue
        closure = ctx.dependency_closure(dest.name)
        for branch_index, info in ctx.guards.branches.items():
            if info.pred_reg in closure and ctx.same_cycle(site.index, branch_index):
                result.append(site)
                break
    return result


def _rule_unfenced_flag(ctx: KernelContext) -> Iterable[Finding]:
    """Flag-handshake idiom checks (§3.1): the spin-wait load must be an
    acquire, and every store/arrival-atomic publishing the flag must be
    a release — otherwise the inferred synchronization never forms."""
    spins = _spin_loads(ctx)
    for spin in spins:
        if spin.access is AccessClass.LOAD:
            yield Finding(
                rule="unfenced-flag",
                severity=SEVERITY_WARNING,
                kernel=ctx.kernel.name,
                line=spin.line,
                message=(
                    f"spin-wait load of flag {spin.region} has no fence after "
                    "it: the loop exit is never an acquire (§3.1), so "
                    "post-wait reads are unordered"
                ),
            )
        for other in ctx.sites:
            if other.region != spin.region or other.index == spin.index:
                continue
            if other.kind == "store" and other.access is AccessClass.STORE:
                yield Finding(
                    rule="unfenced-flag",
                    severity=SEVERITY_WARNING,
                    kernel=ctx.kernel.name,
                    line=other.line,
                    message=(
                        f"store to spin-flag {other.region} has no fence "
                        "before it: publishing the flag is never a release "
                        "(§3.1)"
                    ),
                    related_lines=(spin.line,),
                )
            elif other.kind == "atomic" and other.access is AccessClass.ATOMIC:
                yield Finding(
                    rule="unfenced-flag",
                    severity=SEVERITY_WARNING,
                    kernel=ctx.kernel.name,
                    line=other.line,
                    message=(
                        f"arrival atomic on spin-flag {other.region} has no "
                        "adjacent fence: it neither releases the waiter nor "
                        "acquires prior writes (§3.1)"
                    ),
                    related_lines=(spin.line,),
                )


def _rule_unfenced_lock(ctx: KernelContext) -> Iterable[Finding]:
    """The §6.3 hashtable lock bugs: an atomicCAS that guards a critical
    section must be followed by a fence (acquire) and the matching
    release must be a fenced atomicExch."""
    cas_regions: Set[str] = set()
    cas_sites = []
    for site in ctx.sites:
        if site.kind != "atomic":
            continue
        statement = ctx.body[site.index]
        operation = statement.atomic_operation()
        if operation == "cas":
            cas_sites.append(site)
            if site.region is not None:
                cas_regions.add(site.region)
    for site in cas_sites:
        statement = ctx.body[site.index]
        dest = statement.operands[0] if statement.operands else None
        if not isinstance(dest, RegOperand):
            continue
        closure = ctx.dependency_closure(dest.name)
        feeds_branch = any(
            info.pred_reg in closure for info in ctx.guards.branches.values()
        )
        if feeds_branch and site.access not in (
            AccessClass.ACQUIRE,
            AccessClass.ACQREL,
        ):
            yield Finding(
                rule="unfenced-lock",
                severity=SEVERITY_WARNING,
                kernel=ctx.kernel.name,
                line=site.line,
                message=(
                    f"atomicCAS on {site.region} guards a branch but has no "
                    "fence after it: the lock acquisition is no acquire, so "
                    "protected accesses may be hoisted above it (§6.3 "
                    "hashtable bug #1)"
                ),
            )
    for site in ctx.sites:
        if site.kind != "atomic" or site.region not in cas_regions:
            continue
        statement = ctx.body[site.index]
        if statement.atomic_operation() != "exch":
            continue
        if site.access not in (AccessClass.RELEASE, AccessClass.ACQREL):
            yield Finding(
                rule="unfenced-lock",
                severity=SEVERITY_WARNING,
                kernel=ctx.kernel.name,
                line=site.line,
                message=(
                    f"atomicExch releasing lock {site.region} has no fence "
                    "before it: the unlock is no release, so protected "
                    "writes may drain after it (§6.3 hashtable bug #2)"
                ),
            )


#: The full warp membermask: every lane participates.
_FULL_MASK = 0xFFFFFFFF


def _is_async_wait(statement: object) -> bool:
    return (
        isinstance(statement, Instruction)
        and statement.opcode == "cp"
        and statement.has_modifier("wait_group", "wait_all")
    )


def _is_async_copy(statement: object) -> bool:
    return (
        isinstance(statement, Instruction)
        and statement.opcode == "cp"
        and not statement.has_modifier("wait_group", "wait_all", "commit_group")
    )


def _wait_free_exit_path(ctx: KernelContext, src: int) -> bool:
    """Is there a CFG path from after ``src`` to kernel exit crossing no
    ``cp.async.wait_group``/``wait_all``?  Then the deferred shared-memory
    store of the copy completes only at warp exit — after any barrier the
    kernel used to publish the tile."""

    def scan(block: BasicBlock, start: int) -> Optional[bool]:
        for index in range(start, block.end):
            statement = ctx.body[index]
            if isinstance(statement, Instruction) and statement.pred is None:
                if _is_async_wait(statement):
                    return False
                if statement.opcode in EXIT_OPCODES:
                    return True
        return None

    return ctx.walk(src, scan, at_exit=True)


def _rule_async_copy_unwaited(ctx: KernelContext) -> Iterable[Finding]:
    """A ``cp.async`` copy that can reach kernel exit with no wait: its
    deferred shared-memory store drains only when the warp exits, so it
    lands *after* any ``bar.sync`` other threads relied on to order their
    reads of the tile — the modern-idiom analogue of a missing barrier."""
    for index, statement in enumerate(ctx.body):
        if not _is_async_copy(statement):
            continue
        if _wait_free_exit_path(ctx, index):
            yield Finding(
                rule="async-copy-unwaited",
                severity=SEVERITY_WARNING,
                kernel=ctx.kernel.name,
                line=statement.line,
                message=(
                    "cp.async copy reaches kernel exit on some path with no "
                    "cp.async.wait_group/wait_all: the deferred shared-memory "
                    "store completes only at warp exit, after any bar.sync "
                    "that readers of the tile synchronized on"
                ),
            )


def _rule_partial_vote_sync(ctx: KernelContext) -> Iterable[Finding]:
    """Membermask/divergence mismatches on warp-synchronous operations
    (``shfl.sync``/``vote.sync``): a *partial* immediate mask in convergent
    code silently hands fallback values to the excluded lanes, and a *full*
    mask inside a thread-divergent region traps — lanes in the other arm
    never arrive at the collective."""
    divergent_branch: Dict[int, BranchInfo] = {}
    for info in ctx.guards.branches.values():
        if not ctx.taint.is_divergent(info.index):
            continue
        for index in info.region():
            divergent_branch.setdefault(index, info)
    for index, statement in enumerate(ctx.body):
        if not isinstance(statement, Instruction):
            continue
        if statement.opcode not in ("shfl", "vote"):
            continue
        mask_op = statement.operands[-1] if statement.operands else None
        if not isinstance(mask_op, ImmOperand):
            continue  # computed masks: assume the author matched them
        mask = mask_op.value & _FULL_MASK
        info = divergent_branch.get(index)
        if mask != _FULL_MASK and info is None:
            yield Finding(
                rule="partial-vote-sync",
                severity=SEVERITY_WARNING,
                kernel=ctx.kernel.name,
                line=statement.line,
                message=(
                    f"{statement.opcode}.sync with partial membermask "
                    f"0x{mask:08x} outside any divergent branch: every lane "
                    "executes the collective but the excluded lanes receive "
                    "fallback values, not the synchronized result"
                ),
            )
        elif mask == _FULL_MASK and info is not None:
            yield Finding(
                rule="partial-vote-sync",
                severity=SEVERITY_WARNING,
                kernel=ctx.kernel.name,
                line=statement.line,
                message=(
                    f"{statement.opcode}.sync with the full membermask "
                    "0xffffffff inside a thread-divergent branch region: "
                    "lanes that took the other arm never arrive, and the "
                    "warp-level collective traps waiting for them"
                ),
                related_lines=(info.line,),
            )


#: The rule registry: name -> (callable, severity, one-line description).
RULES: Dict[str, Tuple[Callable[[KernelContext], Iterable[Finding]], str, str]] = {
    "barrier-divergence": (
        _rule_barrier_divergence,
        SEVERITY_ERROR,
        "bar.sync under thread-divergent control flow (§3.3.2)",
    ),
    "divergent-store": (
        _rule_divergent_store,
        SEVERITY_ERROR,
        "uniform-address store of a thread/block-varying value (§3.3.1)",
    ),
    "shared-race": (
        _rule_shared_race,
        SEVERITY_ERROR,
        "conflicting shared accesses with no barrier or in divergent arms",
    ),
    "global-race": (
        _rule_global_race,
        SEVERITY_ERROR,
        "conflicting global accesses with no handshake (§3.3.3)",
    ),
    "insufficient-fence-scope": (
        _rule_global_race,  # emitted by the global-race pair scan
        SEVERITY_ERROR,
        "cross-block handshake fenced only at block scope (Figure 4)",
    ),
    "atomic-mixed": (
        _rule_atomic_mixed,
        SEVERITY_ERROR,
        "atomic and plain access mix on one region (§3.3.2)",
    ),
    "unfenced-flag": (
        _rule_unfenced_flag,
        SEVERITY_WARNING,
        "flag handshake whose store/spin/arrival lacks its fence (§3.1)",
    ),
    "unfenced-lock": (
        _rule_unfenced_lock,
        SEVERITY_WARNING,
        "CAS/Exch lock idiom missing its acquire/release fence (§6.3)",
    ),
    "async-copy-unwaited": (
        _rule_async_copy_unwaited,
        SEVERITY_WARNING,
        "cp.async copy reaching kernel exit with no wait_group/wait_all",
    ),
    "partial-vote-sync": (
        _rule_partial_vote_sync,
        SEVERITY_WARNING,
        "shfl/vote membermask inconsistent with branch divergence",
    ),
}

#: Callables to actually run (insufficient-fence-scope shares the
#: global-race scan, so it must not run twice).
_RULE_RUNNERS = [
    _rule_barrier_divergence,
    _rule_divergent_store,
    _rule_shared_race,
    _rule_global_race,
    _rule_atomic_mixed,
    _rule_unfenced_flag,
    _rule_unfenced_lock,
    _rule_async_copy_unwaited,
    _rule_partial_vote_sync,
]


def lint_kernel(kernel: Kernel, module: Module) -> List[Finding]:
    ctx = KernelContext(kernel, module)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, Tuple[int, ...]]] = set()
    for runner in _RULE_RUNNERS:
        for finding in runner(ctx):
            key = (finding.rule, finding.line, finding.related_lines)
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.rule, f.related_lines))
    return findings


def run_lint(module: Module) -> List[Finding]:
    """Lint every kernel of a module; findings ordered by kernel then line."""
    findings: List[Finding] = []
    for kernel in module.kernels:
        findings.extend(lint_kernel(kernel, module))
    return findings


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding], source_name: str = "<ptx>") -> str:
    if not findings:
        return f"{source_name}: no findings\n"
    lines = []
    for finding in findings:
        related = (
            " (see line{} {})".format(
                "s" if len(finding.related_lines) > 1 else "",
                ", ".join(str(line) for line in finding.related_lines),
            )
            if finding.related_lines
            else ""
        )
        lines.append(
            f"{source_name}:{finding.line}: {finding.severity}: "
            f"[{finding.rule}] kernel {finding.kernel}: {finding.message}{related}"
        )
    errors = sum(1 for f in findings if f.severity == SEVERITY_ERROR)
    warnings = len(findings) - errors
    lines.append(f"{len(findings)} finding(s): {errors} error(s), {warnings} warning(s)")
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding], source_name: str = "<ptx>") -> str:
    payload = {
        "version": 1,
        "source": source_name,
        "count": len(findings),
        "errors": sum(1 for f in findings if f.severity == SEVERITY_ERROR),
        "warnings": sum(1 for f in findings if f.severity == SEVERITY_WARNING),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: The published SARIF 2.1.0 schema URI (code-scanning consumers key on it).
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"


def render_sarif(findings: Sequence[Finding],
                 source_name: str = "<ptx>") -> str:
    """Render findings as a SARIF 2.1.0 log (one run, one artifact).

    Severities map ``error`` → ``error`` and ``warning`` → ``warning``;
    every registered rule ships in the tool descriptor so consumers can
    resolve ``ruleId`` even when it produced no result, and a finding's
    ``related_lines`` become SARIF ``relatedLocations``.
    """
    uri = source_name if source_name != "<ptx>" else "kernel.ptx"

    def _location(line: int) -> dict:
        region = {"startLine": max(1, int(line))}
        return {
            "physicalLocation": {
                "artifactLocation": {"uri": uri},
                "region": region,
            }
        }

    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule,
            "level": ("error" if finding.severity == SEVERITY_ERROR
                      else "warning"),
            "message": {
                "text": f"kernel {finding.kernel}: {finding.message}",
            },
            "locations": [_location(finding.line)],
        }
        if finding.related_lines:
            result["relatedLocations"] = [
                _location(line) for line in finding.related_lines
            ]
        results.append(result)

    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri":
                            "https://github.com/upenn-acg/barracuda",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": description},
                                "defaultConfiguration": {
                                    "level": ("error"
                                              if severity == SEVERITY_ERROR
                                              else "warning"),
                                },
                            }
                            for rule, (_runner, severity, description)
                            in sorted(RULES.items())
                        ],
                    }
                },
                "artifacts": [{"location": {"uri": uri}}],
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
