"""AST for the J32 mini language."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Prim(enum.Enum):
    INT = "int"
    LONG = "long"
    SHORT = "short"
    BYTE = "byte"
    CHAR = "char"
    DOUBLE = "double"
    BOOLEAN = "boolean"
    VOID = "void"

    # Members are singletons that compare by identity, so they can hash
    # by it too (``Enum.__hash__`` hashes the name in Python).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class JType:
    """A J32 type: a primitive with an array dimension count."""

    prim: Prim
    dims: int = 0

    def __eq__(self, other: object) -> bool:
        # The lowering compares types at every operand, mostly against the
        # module constants below: test identity before the fields.
        if self is other:
            return True
        if other.__class__ is not JType:
            return NotImplemented
        return self.prim is other.prim and self.dims == other.dims

    @property
    def is_array(self) -> bool:
        return self.dims > 0

    @property
    def element(self) -> "JType":
        if not self.is_array:
            raise ValueError(f"{self} is not an array type")
        return JType(self.prim, self.dims - 1)

    @property
    def is_integral(self) -> bool:
        return not self.is_array and self.prim in (
            Prim.INT, Prim.LONG, Prim.SHORT, Prim.BYTE, Prim.CHAR
        )

    @property
    def is_numeric(self) -> bool:
        return self.is_integral or (not self.is_array
                                    and self.prim is Prim.DOUBLE)

    def __str__(self) -> str:
        return self.prim.value + "[]" * self.dims


INT = JType(Prim.INT)
LONG = JType(Prim.LONG)
SHORT = JType(Prim.SHORT)
BYTE = JType(Prim.BYTE)
CHAR = JType(Prim.CHAR)
DOUBLE = JType(Prim.DOUBLE)
BOOLEAN = JType(Prim.BOOLEAN)
VOID = JType(Prim.VOID)


@dataclass
class Node:
    line: int = field(default=0, kw_only=True)


# -- expressions -------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class LongLit(Expr):
    value: int = 0


@dataclass
class DoubleLit(Expr):
    value: float = 0.0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class CharLit(Expr):
    value: int = 0


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr | None = None
    rhs: Expr | None = None


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr | None = None


@dataclass
class Ternary(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None


@dataclass
class Index(Expr):
    array: Expr | None = None
    index: Expr | None = None


@dataclass
class Length(Expr):
    array: Expr | None = None


@dataclass
class NewArray(Expr):
    type: JType = INT
    dims: list[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    type: JType = INT
    operand: Expr | None = None


@dataclass
class Call(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class MathCall(Expr):
    fn: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Assign(Expr):
    """``target op= value``; op is "=" or a compound operator text."""

    target: Expr | None = None
    op: str = "="
    value: Expr | None = None


@dataclass
class IncDec(Expr):
    """``x++ / x-- / ++x / --x`` (used as statements)."""

    target: Expr | None = None
    op: str = "++"


# -- statements --------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class VarDecl(Stmt):
    type: JType = INT
    name: str = ""
    init: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class BlockStmt(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass
class IfStmt(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt | None = None
    cond: Expr | None = None


@dataclass
class ForStmt(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    update: Expr | None = None
    body: Stmt | None = None


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


# -- top level ----------------------------------------------------------------


@dataclass
class Param(Node):
    type: JType = INT
    name: str = ""


@dataclass
class FuncDecl(Node):
    ret: JType = VOID
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: BlockStmt | None = None


@dataclass
class GlobalDecl(Node):
    type: JType = INT
    name: str = ""
    init: Expr | None = None  # must be a constant literal


@dataclass
class CompilationUnit(Node):
    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FuncDecl] = field(default_factory=list)
