"""PTX program representation: modules, kernels, instructions, operands.

The structures here are produced by :mod:`repro.ptx.parser`, rewritten by
the instrumentation passes (:mod:`repro.instrument`), and executed by the
GPU simulator (:mod:`repro.gpu.interpreter`).  They print back to valid
PTX text (round-trip property-tested), which is how the instrumentation
framework re-registers rewritten binaries (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .isa import NO_DEST_OPCODES, StateSpace


# ----------------------------------------------------------------------
# Operands
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegOperand:
    """A virtual register, e.g. ``%r1`` or ``%p0``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ImmOperand:
    """An immediate constant."""

    value: Union[int, float]

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, float) else str(self.value)


@dataclass(frozen=True)
class SpecialRegOperand:
    """A special register with an optional dimension, e.g. ``%tid.x``."""

    name: str
    dim: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.name}.{self.dim}" if self.dim else self.name


@dataclass(frozen=True)
class MemOperand:
    """A memory reference ``[base + offset]``.

    ``base`` is a register name or a declared symbol (param or shared
    variable) name.
    """

    base: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset:
            return f"[{self.base}+{self.offset}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class SymbolOperand:
    """A bare symbol reference (label targets, variable addresses)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VectorOperand:
    """A vector register list, e.g. ``{%r1, %r2, %r3, %r4}`` for
    ``ld.global.v4.u32``."""

    regs: Tuple[str, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(self.regs) + "}"


Operand = Union[
    RegOperand, ImmOperand, SpecialRegOperand, MemOperand, SymbolOperand, VectorOperand
]


# ----------------------------------------------------------------------
# Instructions and labels
# ----------------------------------------------------------------------
@dataclass
class Instruction:
    """One PTX instruction.

    ``opcode`` is the base mnemonic (``ld``, ``atom``, ``bra``, ...);
    ``modifiers`` the dot-suffixes in order (``global``, ``u32``, ...);
    ``pred`` an optional guard ``(register, negated)``.
    """

    opcode: str
    modifiers: Tuple[str, ...] = ()
    operands: Tuple[Operand, ...] = ()
    pred: Optional[Tuple[str, bool]] = None
    line: int = 0

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def full_opcode(self) -> str:
        return ".".join((self.opcode,) + self.modifiers)

    def has_modifier(self, *names: str) -> bool:
        return any(name in self.modifiers for name in names)

    def state_space(self) -> StateSpace:
        """The state space a memory instruction addresses."""
        for modifier in self.modifiers:
            if modifier in ("global", "shared", "local", "param"):
                return StateSpace(modifier)
        return StateSpace.GENERIC

    def value_type(self) -> Optional[str]:
        """The scalar type modifier, if any."""
        from .isa import SCALAR_TYPES

        for modifier in reversed(self.modifiers):
            if modifier in SCALAR_TYPES:
                return modifier
        return None

    def vector_count(self) -> int:
        """Vector width: 2 for ``.v2``, 4 for ``.v4``, else 1."""
        if "v2" in self.modifiers:
            return 2
        if "v4" in self.modifiers:
            return 4
        return 1

    def atomic_operation(self) -> Optional[str]:
        """For ``atom``/``red``: the RMW operation (add, cas, exch, ...)."""
        from .isa import ATOMIC_OPERATIONS

        for modifier in self.modifiers:
            if modifier in ATOMIC_OPERATIONS:
                return modifier
        return None

    def branch_target(self) -> Optional[str]:
        if self.opcode == "bra":
            for operand in self.operands:
                if isinstance(operand, SymbolOperand):
                    return operand.name
        return None

    def __str__(self) -> str:
        text = self.full_opcode
        if self.operands:
            text += " " + ", ".join(str(op) for op in self.operands)
        text += ";"
        if self.pred:
            reg, negated = self.pred
            text = f"@{'!' if negated else ''}{reg} {text}"
        return text


def written_registers(insn: Instruction) -> Tuple[str, ...]:
    """The registers an instruction defines: its operand 0, a register
    or a vector of them (a vector load writes every one), unless the
    opcode defines none (:data:`~repro.ptx.isa.NO_DEST_OPCODES`)."""
    if insn.opcode in NO_DEST_OPCODES or not insn.operands:
        return ()
    dest = insn.operands[0]
    if isinstance(dest, RegOperand):
        return (dest.name,)
    if isinstance(dest, VectorOperand):
        return dest.regs
    return ()


@dataclass
class Label:
    """A branch target, e.g. ``$L_loop:``."""

    name: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.name}:"


Statement = Union[Instruction, Label]


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass
class RegDecl:
    """``.reg .u32 %r<10>;`` — a family of virtual registers."""

    type_name: str
    prefix: str
    count: int

    def __str__(self) -> str:
        return f".reg .{self.type_name} {self.prefix}<{self.count}>;"

    def names(self) -> List[str]:
        return [f"{self.prefix}{i}" for i in range(self.count)]


@dataclass
class SharedDecl:
    """``.shared .align 4 .b8 smem[1024];`` — a shared-memory array."""

    name: str
    size_bytes: int
    align: int = 4

    def __str__(self) -> str:
        return f".shared .align {self.align} .b8 {self.name}[{self.size_bytes}];"


@dataclass
class GlobalDecl:
    """``.global .align 4 .b8 gdata[64];`` — a module-scope global array."""

    name: str
    size_bytes: int
    align: int = 4

    def __str__(self) -> str:
        return f".global .align {self.align} .b8 {self.name}[{self.size_bytes}];"


@dataclass
class ParamDecl:
    """One kernel parameter: ``.param .u64 ptr``."""

    type_name: str
    name: str

    def __str__(self) -> str:
        return f".param .{self.type_name} {self.name}"


# ----------------------------------------------------------------------
# Kernels and modules
# ----------------------------------------------------------------------
@dataclass
class Kernel:
    """One ``.entry`` (kernel) or ``.func`` (device function) definition.

    Device functions share the representation: same declarations, same
    body statements; they differ in how they are entered (``call``) and
    exited (``ret`` returns to the caller instead of retiring threads).
    """

    name: str
    params: List[ParamDecl] = field(default_factory=list)
    regs: List[RegDecl] = field(default_factory=list)
    shared: List[SharedDecl] = field(default_factory=list)
    body: List[Statement] = field(default_factory=list)
    #: "entry" for kernels, "func" for device functions.
    kind: str = "entry"

    @property
    def instructions(self) -> List[Instruction]:
        return [s for s in self.body if isinstance(s, Instruction)]

    def static_instruction_count(self) -> int:
        """Static PTX instructions (Table 1, column 2)."""
        return len(self.instructions)

    def label_index(self) -> Dict[str, int]:
        """Map each label name to its statement index."""
        return {
            statement.name: index
            for index, statement in enumerate(self.body)
            if isinstance(statement, Label)
        }

    def __str__(self) -> str:
        lines = [f".visible .{self.kind} {self.name}("]
        lines.append(",\n".join(f"    {p}" for p in self.params))
        lines.append(")")
        lines.append("{")
        for decl in self.regs:
            lines.append(f"    {decl}")
        for decl in self.shared:
            lines.append(f"    {decl}")
        lines.append("")
        for statement in self.body:
            if isinstance(statement, Label):
                lines.append(f"{statement}")
            else:
                lines.append(f"    {statement}")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class Module:
    """One PTX translation unit (the contents of one fat-binary entry)."""

    version: str = "4.3"
    target: str = "sm_35"
    address_size: int = 64
    globals: List[GlobalDecl] = field(default_factory=list)
    kernels: List[Kernel] = field(default_factory=list)
    #: Device functions (``.func``), callable from kernels via ``call``.
    functions: List[Kernel] = field(default_factory=list)

    def kernel(self, name: str) -> Kernel:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(f"no kernel named {name!r}")

    def function(self, name: str) -> Kernel:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no device function named {name!r}")

    def static_instruction_count(self) -> int:
        return sum(
            k.static_instruction_count() for k in self.kernels + self.functions
        )

    def __str__(self) -> str:
        lines = [
            f".version {self.version}",
            f".target {self.target}",
            f".address_size {self.address_size}",
            "",
        ]
        for decl in self.globals:
            lines.append(str(decl))
        for function in self.functions:
            lines.append("")
            lines.append(str(function))
        for kernel in self.kernels:
            lines.append("")
            lines.append(str(kernel))
        return "\n".join(lines) + "\n"
