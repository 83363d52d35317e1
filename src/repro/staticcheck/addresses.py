"""Symbolic address-expression analysis (affine forms over thread ids).

Every ``ld``/``st``/``atom``/``red`` address is evaluated — through the
def-use chains — into an *affine form*: a sum of integer-scaled
monomials over a small vocabulary of symbols (``%tid.x``, ``%ctaid.x``,
``%ntid.x``, products like ``ctaid.x*ntid.x`` from the global-id idiom,
kernel parameters, and shared/global array bases).  The evaluator only
trusts registers with a *single static definition*; multiply-defined
registers (loop counters, accumulators) evaluate to UNKNOWN, which keeps
the analysis trivially sound at the cost of precision.

From the affine form each access is classified (Liew et al.'s
provable-disjointness idea, ported to our PTX subset):

* ``THREAD_PRIVATE`` — provably touched by at most one thread: a shared
  access striding ``k*tid`` with ``|k| >= width``, or a global access of
  the canonical ``base + k*(ctaid*ntid + tid)`` global-id shape.
* ``BLOCK_SHARED`` — the offset is uniform across the threads of a
  block (all of them hit the same address).
* ``UNKNOWN`` — anything the evaluator cannot prove (division, modulo,
  loop-carried indices, values loaded from memory...).

``prune_private_sites`` turns the proofs into an instrumentation-pruning
set; see its docstring for the region-soundness argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..instrument.inference import AccessClass, classify_kernel
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
)
from ..ptx.isa import type_width
from .dataflow import DefUse, build_def_use

#: A monomial: a sorted tuple of symbolic factors; ``()`` is the constant.
Monomial = Tuple[str, ...]
#: An affine form: monomial -> integer coefficient.
Affine = Dict[Monomial, int]

_TID_X: Monomial = ("tid.x",)
_GID_PRODUCT: Monomial = ("ctaid.x", "ntid.x")

#: Factor prefixes that denote an addressable region base.
_BASE_PREFIXES = ("param:", "shared:", "global:")

#: Factor prefix for a recognized loop-halving stride register (the
#: reduction-tree counter).  The factor is block-uniform *within one
#: iteration* but varies across iterations, so it must never support a
#: privacy (disjointness) proof — see :func:`classify_site_privacy`.
STRIDE_PREFIX = "stride:"


def is_stride_factor(factor: str) -> bool:
    return factor.startswith(STRIDE_PREFIX)


def _is_base_factor(factor: str) -> bool:
    return factor.startswith(_BASE_PREFIXES)


def _thread_varying(factor: str) -> bool:
    return factor.startswith("tid.") or factor in ("laneid", "warpid")


def _block_varying(factor: str) -> bool:
    return factor.startswith("ctaid.")


class Privacy(enum.Enum):
    THREAD_PRIVATE = "thread-private"
    BLOCK_SHARED = "block-shared"
    UNKNOWN = "unknown"


def affine_add(a: Affine, b: Affine, sign: int = 1) -> Affine:
    result = dict(a)
    for monomial, coeff in b.items():
        value = result.get(monomial, 0) + sign * coeff
        if value:
            result[monomial] = value
        else:
            result.pop(monomial, None)
    return result


def affine_mul(a: Affine, b: Affine) -> Optional[Affine]:
    result: Affine = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if any(_is_base_factor(f) for f in m1 + m2) and (m1 and m2):
                return None  # scaling a pointer base: out of model
            monomial = tuple(sorted(m1 + m2))
            value = result.get(monomial, 0) + c1 * c2
            if value:
                result[monomial] = value
            else:
                result.pop(monomial, None)
    return result


class SymbolicEvaluator:
    """Evaluates registers to affine forms through single static defs."""

    def __init__(self, kernel: Kernel, module: Optional[Module] = None,
                 def_use: Optional[DefUse] = None) -> None:
        self.kernel = kernel
        self.body = kernel.body
        self.def_use = def_use or build_def_use(kernel)
        self.shared_names = {decl.name for decl in kernel.shared}
        self.global_names = (
            {decl.name for decl in module.globals} if module is not None else set()
        )
        #: pointer (u64) parameters are region bases; u32 params are
        #: launch-uniform scalars.
        self.pointer_params = {
            p.name for p in kernel.params if p.type_name == "u64"
        }
        self.param_names = {p.name for p in kernel.params}
        self._cache: Dict[str, Optional[Affine]] = {}
        self._in_progress: Set[str] = set()

    # ------------------------------------------------------------------
    # Register / operand evaluation
    # ------------------------------------------------------------------
    def reg(self, name: str) -> Optional[Affine]:
        if name in self._cache:
            return self._cache[name]
        if name in self._in_progress:
            return None  # cycle: a loop-carried value
        self._in_progress.add(name)
        try:
            result = self._eval_reg(name)
        finally:
            self._in_progress.discard(name)
        self._cache[name] = result
        return result

    def _eval_reg(self, name: str) -> Optional[Affine]:
        def_index = self.def_use.unique_def(name)
        if def_index < 0:
            return self._halving_stride(name)
        insn = self.body[def_index]
        if not isinstance(insn, Instruction) or insn.pred is not None:
            return None
        return self._eval_instruction(insn)

    def _eval_instruction(self, insn: Instruction) -> Optional[Affine]:
        opcode = insn.opcode
        ops = insn.operands
        if opcode == "mov" and len(ops) == 2:
            return self.operand(ops[1])
        if opcode in ("cvt", "cvta") and len(ops) == 2:
            # Width conversions are assumed non-truncating for address
            # arithmetic (the compiler only widens s32 -> s64 here), and
            # cvta only rebases between generic/windowed views.
            return self.operand(ops[1])
        if opcode in ("add", "sub") and len(ops) == 3:
            left = self.operand(ops[1])
            right = self.operand(ops[2])
            if left is None or right is None:
                return None
            return affine_add(left, right, 1 if opcode == "add" else -1)
        if opcode == "mul" and insn.has_modifier("lo") and len(ops) == 3:
            left = self.operand(ops[1])
            right = self.operand(ops[2])
            if left is None or right is None:
                return None
            return affine_mul(left, right)
        if opcode == "mad" and insn.has_modifier("lo") and len(ops) == 4:
            a = self.operand(ops[1])
            b = self.operand(ops[2])
            c = self.operand(ops[3])
            if a is None or b is None or c is None:
                return None
            product = affine_mul(a, b)
            return None if product is None else affine_add(product, c)
        if opcode == "shl" and len(ops) == 3:
            left = self.operand(ops[1])
            shift = ops[2]
            if left is None or not isinstance(shift, ImmOperand):
                return None
            if not isinstance(shift.value, int) or not 0 <= shift.value < 32:
                return None
            return affine_mul(left, {(): 1 << shift.value})
        if opcode == "neg" and len(ops) == 2:
            value = self.operand(ops[1])
            return None if value is None else affine_mul(value, {(): -1})
        if opcode in ("ld", "ldu") and insn.state_space().value == "param":
            mem = ops[1] if len(ops) > 1 else None
            if isinstance(mem, MemOperand) and mem.base in self.param_names:
                prefix = "param:" if mem.base in self.pointer_params else "paramval:"
                return {(prefix + mem.base,): 1}
        return None  # div/rem/shr/bitwise/selp/atom/ld: out of model

    # ------------------------------------------------------------------
    # Halving strides (the reduction-tree counter)
    # ------------------------------------------------------------------
    def _halving_stride(self, name: str) -> Optional[Affine]:
        """Recognize ``stride /= 2`` loop counters as a symbolic factor.

        A multiply-defined register is normally out of model, which is
        what makes the tree-reduction idiom (``s[tid] += s[tid+stride]``
        with ``stride`` halving each iteration) invisible to the race
        rules.  The one multi-def shape we structurally recognize is
        exactly two definitions of which exactly one halves the register
        itself — a ``div``/``shr`` by a power-of-two immediate, possibly
        through a ``mov``/``cvt`` chain (the frontend compiles
        ``stride / 2`` to ``div.s32``).  Such a register evaluates to a
        fresh ``stride:<reg>`` factor: enough for the pair scan to see
        that ``s[tid]`` and ``s[tid + stride]`` differ by a stride term,
        while :func:`classify_site_privacy` refuses to build any
        disjointness proof on it (the factor varies across iterations).
        """
        defs = self.def_use.defs.get(name, [])
        if len(defs) != 2:
            return None
        halving = sum(1 for index in defs if self._is_self_halving(name, index))
        if halving != 1:
            return None
        return {(STRIDE_PREFIX + name,): 1}

    def _is_self_halving(self, name: str, def_index: int) -> bool:
        insn = self.body[def_index]
        if not isinstance(insn, Instruction):
            return False
        if (
            insn.opcode in ("mov", "cvt")
            and len(insn.operands) == 2
            and isinstance(insn.operands[1], RegOperand)
        ):
            return self._traces_to_halving(insn.operands[1].name, name, set())
        return self._halves_target(insn, name)

    def _traces_to_halving(self, reg: str, target: str, seen: Set[str]) -> bool:
        if reg in seen:
            return False
        seen.add(reg)
        def_index = self.def_use.unique_def(reg)
        if def_index < 0:
            return False
        insn = self.body[def_index]
        if not isinstance(insn, Instruction) or insn.pred is not None:
            return False
        if (
            insn.opcode in ("mov", "cvt")
            and len(insn.operands) == 2
            and isinstance(insn.operands[1], RegOperand)
        ):
            return self._traces_to_halving(insn.operands[1].name, target, seen)
        return self._halves_target(insn, target)

    @staticmethod
    def _halves_target(insn: Instruction, target: str) -> bool:
        """Is ``insn`` a power-of-two division of ``target`` itself?"""
        ops = insn.operands
        if len(ops) != 3 or not isinstance(ops[1], RegOperand):
            return False
        if ops[1].name != target or not isinstance(ops[2], ImmOperand):
            return False
        value = ops[2].value
        if not isinstance(value, int):
            return False
        if insn.opcode == "div":
            return value >= 2 and (value & (value - 1)) == 0
        if insn.opcode == "shr":
            return 1 <= value < 32
        return False

    def operand(self, operand: Operand) -> Optional[Affine]:
        if isinstance(operand, ImmOperand):
            if isinstance(operand.value, int):
                return {(): operand.value} if operand.value else {}
            return None
        if isinstance(operand, RegOperand):
            return self.reg(operand.name)
        if isinstance(operand, SpecialRegOperand):
            name = operand.name.lstrip("%")
            factor = f"{name}.{operand.dim}" if operand.dim else name
            return {(factor,): 1}
        if isinstance(operand, SymbolOperand):
            if operand.name in self.shared_names:
                return {("shared:" + operand.name,): 1}
            if operand.name in self.global_names:
                return {("global:" + operand.name,): 1}
            return None
        return None

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def region_of_address(self, mem: MemOperand) -> Optional[str]:
        """Best-effort region base of a memory operand.

        Falls back to a structural walk through single-def ``add``/``cvt``
        chains when the full affine form is out of model (for example
        ``s[(tid + 1) % 32]``: the offset is unknowable but the base
        symbol is still evident)."""
        affine = self.address_affine(mem)
        if affine is not None:
            bases = [m for m in affine if any(_is_base_factor(f) for f in m)]
            if len(bases) == 1 and len(bases[0]) == 1 and affine[bases[0]] == 1:
                return bases[0][0]
            return None
        if mem.base.startswith("%"):
            return self._structural_region(mem.base, set())
        return self._symbol_region(mem.base)

    def _symbol_region(self, name: str) -> Optional[str]:
        if name in self.shared_names:
            return "shared:" + name
        if name in self.global_names:
            return "global:" + name
        if name in self.pointer_params:
            return "param:" + name
        return None

    def _structural_region(self, reg: str, seen: Set[str]) -> Optional[str]:
        if reg in seen:
            return None
        seen.add(reg)
        affine = self.reg(reg)
        if affine is not None:
            bases = [m for m in affine if any(_is_base_factor(f) for f in m)]
            if len(bases) == 1 and len(bases[0]) == 1 and affine[bases[0]] == 1:
                return bases[0][0]
        def_index = self.def_use.unique_def(reg)
        if def_index < 0:
            return None
        insn = self.body[def_index]
        if not isinstance(insn, Instruction):
            return None
        ops = insn.operands
        if insn.opcode in ("mov", "cvt", "cvta") and len(ops) == 2:
            if isinstance(ops[1], RegOperand):
                return self._structural_region(ops[1].name, seen)
            if isinstance(ops[1], SymbolOperand):
                return self._symbol_region(ops[1].name)
        if insn.opcode in ("add", "sub") and len(ops) == 3:
            for source in ops[1:]:
                if isinstance(source, RegOperand):
                    region = self._structural_region(source.name, seen)
                    if region is not None:
                        return region
        if insn.opcode in ("ld", "ldu") and insn.state_space().value == "param":
            mem = ops[1] if len(ops) > 1 else None
            if isinstance(mem, MemOperand) and mem.base in self.pointer_params:
                return "param:" + mem.base
        return None

    def address_affine(self, mem: MemOperand) -> Optional[Affine]:
        if mem.base.startswith("%"):
            base = self.reg(mem.base)
        else:
            region = self._symbol_region(mem.base)
            base = {(region,): 1} if region else None
        if base is None:
            return None
        return affine_add(base, {(): mem.offset}) if mem.offset else base


# ----------------------------------------------------------------------
# Access sites
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessSite:
    """One static memory access, with its symbolic classification."""

    index: int  # statement index into kernel.body
    line: int  # PTX source line
    kind: str  # "load" | "store" | "atomic"
    access: AccessClass  # the inferred event class (LOAD/RELEASE/...)
    space: str  # "shared" | "global"
    width: int  # bytes
    region: Optional[str]  # e.g. "param:data", "shared:s"; None = unknown
    #: Affine offset *within* the region (base term removed); None when
    #: the offset is out of model.  Stored as sorted items for hashing.
    offset_items: Optional[Tuple[Tuple[Monomial, int], ...]]
    privacy: Privacy
    predicated: bool

    @property
    def offset(self) -> Optional[Affine]:
        return None if self.offset_items is None else dict(self.offset_items)

    @property
    def is_write(self) -> bool:
        return self.kind in ("store", "atomic")

    @property
    def is_sync(self) -> bool:
        """Inferred acquire/release flag accesses are synchronization,
        not data accesses, in the paper's model (§3.1)."""
        return self.access in (
            AccessClass.ACQUIRE,
            AccessClass.RELEASE,
            AccessClass.ACQREL,
        )


def _memory_operand(insn: Instruction) -> Optional[MemOperand]:
    if insn.opcode in ("ld", "ldu"):
        mem = insn.operands[1] if len(insn.operands) > 1 else None
    elif insn.opcode == "st":
        mem = insn.operands[0] if insn.operands else None
    elif insn.opcode == "atom":
        mem = insn.operands[1] if len(insn.operands) > 1 else None
    elif insn.opcode == "red":
        mem = insn.operands[0] if insn.operands else None
    else:
        return None
    return mem if isinstance(mem, MemOperand) else None


def _site_kind(insn: Instruction) -> str:
    if insn.opcode in ("ld", "ldu"):
        return "load"
    if insn.opcode == "st":
        return "store"
    return "atomic"


def classify_site_privacy(space: str, offset: Optional[Affine], width: int) -> Privacy:
    if offset is None:
        return Privacy.UNKNOWN
    if any(any(is_stride_factor(f) for f in m) for m in offset):
        # A halving-stride factor is only uniform within one loop
        # iteration; cross-iteration instances of the "same" offset form
        # land on different addresses, so no disjointness proof holds.
        return Privacy.UNKNOWN
    thread_monomials = [
        m for m in offset if any(_thread_varying(f) for f in m)
    ]
    block_monomials = [
        m for m in offset
        if any(_block_varying(f) for f in m) and m not in thread_monomials
    ]
    if space == "shared":
        # Shared memory is per-block: only intra-block disjointness
        # matters, and ctaid terms are uniform within a block.
        if not thread_monomials:
            return Privacy.BLOCK_SHARED
        if thread_monomials == [_TID_X] and abs(offset[_TID_X]) >= width:
            return Privacy.THREAD_PRIVATE
        return Privacy.UNKNOWN
    # Global memory: disjointness must hold across the whole grid.  The
    # only shape we prove is the canonical global-id stride
    #     base + k*(ctaid.x*ntid.x + tid.x) + uniform terms
    # which is injective over (block, thread) whenever |k| >= width.
    if not thread_monomials and not block_monomials:
        return Privacy.BLOCK_SHARED
    if (
        thread_monomials == [_TID_X]
        and block_monomials == [_GID_PRODUCT]
        and offset[_TID_X] == offset[_GID_PRODUCT]
        and abs(offset[_TID_X]) >= width
    ):
        return Privacy.THREAD_PRIVATE
    if not thread_monomials:
        # ctaid-varying but thread-uniform: one address per block.
        return Privacy.BLOCK_SHARED
    return Privacy.UNKNOWN


def collect_access_sites(
    kernel: Kernel,
    module: Optional[Module] = None,
    evaluator: Optional[SymbolicEvaluator] = None,
    classes: Optional[Dict[int, "Classification"]] = None,
) -> List[AccessSite]:
    """Every shared/global memory access of a kernel, classified."""
    evaluator = evaluator or SymbolicEvaluator(kernel, module)
    classes = classes if classes is not None else classify_kernel(kernel)
    sites: List[AccessSite] = []
    for index, statement in enumerate(kernel.body):
        if not isinstance(statement, Instruction):
            continue
        mem = _memory_operand(statement)
        if mem is None:
            continue
        space = statement.state_space().value
        if space in ("local", "param"):
            continue
        region = evaluator.region_of_address(mem)
        affine = evaluator.address_affine(mem)
        offset: Optional[Affine] = None
        if affine is not None and region is not None:
            offset = affine_add(affine, {(region,): 1}, sign=-1)
            if any(any(_is_base_factor(f) for f in m) for m in offset):
                offset = None  # a second base leaked in: out of model
        if space == "generic":
            space = "shared" if (region or "").startswith("shared:") else "global"
        width = type_width(statement.value_type() or "u32")
        classification = classes.get(index)
        access = classification.access if classification else (
            AccessClass.ATOMIC if _site_kind(statement) == "atomic"
            else AccessClass.LOAD if _site_kind(statement) == "load"
            else AccessClass.STORE
        )
        sites.append(
            AccessSite(
                index=index,
                line=statement.line,
                kind=_site_kind(statement),
                access=access,
                space=space,
                width=width,
                region=region,
                offset_items=None if offset is None else tuple(
                    sorted(offset.items())
                ),
                privacy=classify_site_privacy(space, offset, width),
                predicated=statement.pred is not None,
            )
        )
    return sites


def prune_private_sites(kernel: Kernel, module: Optional[Module] = None) -> Set[int]:
    """Statement indices whose logging may be dropped, soundly.

    The proof obligation is *region-level*, not per-site: a site is only
    prunable when **every** access to its region is THREAD_PRIVATE with
    the **identical** affine offset, so all accesses of all sites in the
    region land in each thread's own disjoint slot and no cross-thread
    pair can exist.  A single unknown-offset or differently-strided
    access poisons the whole region.  Kernels that call device functions
    (which may alias anything) and kernels containing any unresolvable
    region are never pruned.  Distinct pointer parameters are assumed
    not to alias — the standard ``__restrict__`` caveat, documented in
    docs/static-analysis.md.  Only unpredicated plain loads/stores are
    dropped: inferred acquires/releases and atomics feed the sync order
    and are always logged.
    """
    for statement in kernel.body:
        if isinstance(statement, Instruction) and statement.opcode == "call":
            return set()
        if isinstance(statement, Instruction) and statement.opcode == "cp":
            # cp.async reads global and writes shared memory out of band;
            # those accesses are invisible to the site collector, so no
            # region of the kernel can be proven private.
            return set()
    sites = collect_access_sites(kernel, module)
    if any(site.region is None for site in sites):
        return set()
    by_region: Dict[str, List[AccessSite]] = {}
    for site in sites:
        by_region.setdefault(site.region, []).append(site)
    prunable: Set[int] = set()
    for region_sites in by_region.values():
        offsets = {site.offset_items for site in region_sites}
        if len(offsets) != 1:
            continue
        if any(site.privacy is not Privacy.THREAD_PRIVATE for site in region_sites):
            continue
        for site in region_sites:
            if site.predicated:
                continue
            if site.access in (AccessClass.LOAD, AccessClass.STORE):
                prunable.add(site.index)
    return prunable
