"""PTX: parsing, program representation, and control-flow analysis."""

from .ast import (
    GlobalDecl,
    ImmOperand,
    Instruction,
    Kernel,
    Label,
    MemOperand,
    Module,
    Operand,
    ParamDecl,
    RegDecl,
    RegOperand,
    SharedDecl,
    SpecialRegOperand,
    SymbolOperand,
)
from .cfg import CFG, EXIT_BLOCK, BasicBlock
from .isa import StateSpace
from .lexer import Token, tokenize
from .parser import parse_ptx
