"""Opcode definitions and structural metadata for the repro IR.

The IR is a register machine in the style of a JIT compiler's low-level
intermediate language after lowering from bytecode: non-SSA virtual
registers, explicit basic blocks, explicit sign-extension instructions
(``EXTEND32`` is the paper's ``extend()``, ``JUST_EXTENDED`` its dummy
marker), and array accesses with Java bounds-check semantics.

Structural facts (operand counts, roles, terminator-ness, result types,
condition operators, extension widths) live here, one table each; the
sign-extension-specific semantic classification used by ``AnalyzeUSE`` /
``AnalyzeDEF`` lives in :mod:`repro.ir.semantics`.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from .types import ScalarType


class Opcode(enum.Enum):
    # -- data movement -------------------------------------------------
    CONST = "const"
    MOV = "mov"

    # -- explicit extensions (the paper's subject matter) ---------------
    EXTEND8 = "extend8"
    EXTEND16 = "extend16"
    EXTEND32 = "extend32"
    ZEXT8 = "zext8"
    ZEXT16 = "zext16"
    ZEXT32 = "zext32"
    JUST_EXTENDED = "just_extended"  # dummy marker (Section 2.1)
    TRUNC32 = "trunc32"  # l2i

    # -- 32-bit integer arithmetic (executed on full 64-bit registers) --
    ADD32 = "add32"
    SUB32 = "sub32"
    MUL32 = "mul32"
    DIV32 = "div32"
    REM32 = "rem32"
    NEG32 = "neg32"
    AND32 = "and32"
    OR32 = "or32"
    XOR32 = "xor32"
    NOT32 = "not32"
    SHL32 = "shl32"
    SHR32 = "shr32"  # arithmetic; lowered to a sign-extracting field op
    USHR32 = "ushr32"  # logical; lowered to an unsigned field extract

    # -- 64-bit integer arithmetic --------------------------------------
    ADD64 = "add64"
    SUB64 = "sub64"
    MUL64 = "mul64"
    DIV64 = "div64"
    REM64 = "rem64"
    NEG64 = "neg64"
    AND64 = "and64"
    OR64 = "or64"
    XOR64 = "xor64"
    NOT64 = "not64"
    SHL64 = "shl64"
    SHR64 = "shr64"
    USHR64 = "ushr64"

    # -- comparisons (produce 0/1) ---------------------------------------
    CMP32 = "cmp32"  # compares low 32 bits only (IA64/PPC64 both have this)
    CMP64 = "cmp64"
    CMPF = "cmpf"

    # -- floating point ---------------------------------------------------
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FREM = "frem"
    FNEG = "fneg"
    FSQRT = "fsqrt"
    FSIN = "fsin"
    FCOS = "fcos"
    FEXP = "fexp"
    FLOG = "flog"
    FABS = "fabs"
    FFLOOR = "ffloor"
    FPOW = "fpow"

    # -- conversions ------------------------------------------------------
    I2D = "i2d"  # requires a canonical (sign-extended) 32-bit source
    L2D = "l2d"
    D2I = "d2i"  # Java saturating conversion; canonical result
    D2L = "d2l"

    # -- memory -----------------------------------------------------------
    NEWARRAY = "newarray"
    ALOAD = "aload"
    ASTORE = "astore"
    ARRAYLEN = "arraylen"
    GLOAD = "gload"
    GSTORE = "gstore"

    # -- control ------------------------------------------------------------
    BR = "br"  # conditional branch: tests low 32 bits != 0
    JMP = "jmp"
    RET = "ret"
    CALL = "call"
    SINK = "sink"  # observable output (checksum accumulator)
    NOP = "nop"

    # Members are singletons that compare by identity, so they can hash
    # by it too: ``Enum.__hash__`` hashes the name in Python, once per
    # lookup in the opcode sets and tables the compiler consults.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Opcode.{self.name}"


class Role(enum.Enum):
    """Role an operand plays in its instruction.

    Drives ``AnalyzeUSE``: a VALUE operand's classification depends on the
    opcode, an ARRAY_INDEX operand is handled by ``AnalyzeARRAY``, a
    SHIFT_AMOUNT or CONDITION operand never needs its upper bits, etc.
    """

    VALUE = "value"
    ARRAY_REF = "array_ref"
    ARRAY_INDEX = "array_index"
    STORE_VALUE = "store_value"
    SHIFT_AMOUNT = "shift_amount"
    CONDITION = "condition"
    LENGTH = "length"
    ARG = "arg"
    RET_VALUE = "ret_value"


@dataclass(frozen=True)
class OpInfo:
    """Structural description of one opcode."""

    opcode: Opcode
    n_srcs: int  # -1 means variable (CALL, SINK with 0/1)
    roles: tuple[Role, ...]  # per fixed operand; variable ops use roles[-1]
    has_dest: bool
    is_terminator: bool = False
    commutative: bool = False
    has_side_effects: bool = False

    def role_of(self, index: int) -> Role:
        if index < len(self.roles):
            return self.roles[index]
        if self.roles:
            return self.roles[-1]
        raise IndexError(f"{self.opcode} has no operand roles")


def _info(
    opcode: Opcode,
    n_srcs: int,
    roles: tuple[Role, ...],
    has_dest: bool,
    **kwargs: bool,
) -> OpInfo:
    return OpInfo(opcode, n_srcs, roles, has_dest, **kwargs)


_V = Role.VALUE

OP_INFO: dict[Opcode, OpInfo] = {}


def _register(info: OpInfo) -> None:
    OP_INFO[info.opcode] = info


for _unary in (
    Opcode.MOV,
    Opcode.EXTEND8,
    Opcode.EXTEND16,
    Opcode.EXTEND32,
    Opcode.ZEXT8,
    Opcode.ZEXT16,
    Opcode.ZEXT32,
    Opcode.JUST_EXTENDED,
    Opcode.TRUNC32,
    Opcode.NEG32,
    Opcode.NOT32,
    Opcode.NEG64,
    Opcode.NOT64,
    Opcode.FNEG,
    Opcode.FSQRT,
    Opcode.FSIN,
    Opcode.FCOS,
    Opcode.FEXP,
    Opcode.FLOG,
    Opcode.FABS,
    Opcode.FFLOOR,
    Opcode.I2D,
    Opcode.L2D,
    Opcode.D2I,
    Opcode.D2L,
):
    _register(_info(_unary, 1, (_V,), True))

for _binary in (
    Opcode.ADD32,
    Opcode.SUB32,
    Opcode.MUL32,
    Opcode.DIV32,
    Opcode.REM32,
    Opcode.AND32,
    Opcode.OR32,
    Opcode.XOR32,
    Opcode.ADD64,
    Opcode.SUB64,
    Opcode.MUL64,
    Opcode.DIV64,
    Opcode.REM64,
    Opcode.AND64,
    Opcode.OR64,
    Opcode.XOR64,
    Opcode.FADD,
    Opcode.FSUB,
    Opcode.FMUL,
    Opcode.FDIV,
    Opcode.FREM,
    Opcode.FPOW,
):
    commutative = _binary in (
        Opcode.ADD32,
        Opcode.MUL32,
        Opcode.AND32,
        Opcode.OR32,
        Opcode.XOR32,
        Opcode.ADD64,
        Opcode.MUL64,
        Opcode.AND64,
        Opcode.OR64,
        Opcode.XOR64,
        Opcode.FADD,
        Opcode.FMUL,
    )
    _register(_info(_binary, 2, (_V, _V), True, commutative=commutative))

for _shift in (
    Opcode.SHL32,
    Opcode.SHR32,
    Opcode.USHR32,
    Opcode.SHL64,
    Opcode.SHR64,
    Opcode.USHR64,
):
    _register(_info(_shift, 2, (_V, Role.SHIFT_AMOUNT), True))

for _cmp in (Opcode.CMP32, Opcode.CMP64, Opcode.CMPF):
    _register(_info(_cmp, 2, (_V, _V), True))

_register(_info(Opcode.CONST, 0, (), True))
_register(_info(Opcode.NEWARRAY, 1, (Role.LENGTH,), True, has_side_effects=True))
_register(_info(Opcode.ALOAD, 2, (Role.ARRAY_REF, Role.ARRAY_INDEX), True,
                has_side_effects=True))
_register(
    _info(
        Opcode.ASTORE,
        3,
        (Role.ARRAY_REF, Role.ARRAY_INDEX, Role.STORE_VALUE),
        False,
        has_side_effects=True,
    )
)
_register(_info(Opcode.ARRAYLEN, 1, (Role.ARRAY_REF,), True))
_register(_info(Opcode.GLOAD, 0, (), True, has_side_effects=True))
_register(_info(Opcode.GSTORE, 1, (Role.STORE_VALUE,), False, has_side_effects=True))

_register(_info(Opcode.BR, 1, (Role.CONDITION,), False, is_terminator=True))
_register(_info(Opcode.JMP, 0, (), False, is_terminator=True))
_register(_info(Opcode.RET, -1, (Role.RET_VALUE,), False, is_terminator=True))
_register(_info(Opcode.CALL, -1, (Role.ARG,), True, has_side_effects=True))
_register(_info(Opcode.SINK, 1, (Role.ARG,), False, has_side_effects=True))
_register(_info(Opcode.NOP, 0, (), False))


class Cond(enum.Enum):
    """Comparison conditions (signed unless prefixed with U)."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"

    @property
    def is_unsigned(self) -> bool:
        return self in (Cond.ULT, Cond.ULE, Cond.UGT, Cond.UGE)

    def swap(self) -> "Cond":
        """Condition equivalent after swapping the two operands."""
        return _SWAPPED[self]


_SWAPPED = {
    Cond.EQ: Cond.EQ,
    Cond.NE: Cond.NE,
    Cond.LT: Cond.GT,
    Cond.LE: Cond.GE,
    Cond.GT: Cond.LT,
    Cond.GE: Cond.LE,
    Cond.ULT: Cond.UGT,
    Cond.ULE: Cond.UGE,
    Cond.UGT: Cond.ULT,
    Cond.UGE: Cond.ULE,
}

#: The comparison each condition makes.  The operands are already read
#: as signed or unsigned (``Cond.is_unsigned``) at the compare's width.
COND_OPS = {
    Cond.EQ: operator.eq,
    Cond.NE: operator.ne,
    Cond.LT: operator.lt,
    Cond.ULT: operator.lt,
    Cond.LE: operator.le,
    Cond.ULE: operator.le,
    Cond.GT: operator.gt,
    Cond.UGT: operator.gt,
    Cond.GE: operator.ge,
    Cond.UGE: operator.ge,
}

#: The register type of the destination, for every opcode whose result
#: type is fixed.  ``CONST`` and the loads fill their element's
#: ``ScalarType.register_type``, a ``MOV`` inherits its source's type,
#: and a ``CALL`` its callee's return type.
RESULT_TYPE: dict[Opcode, ScalarType] = {
    **dict.fromkeys((
        Opcode.ADD32, Opcode.SUB32, Opcode.MUL32, Opcode.DIV32, Opcode.REM32,
        Opcode.NEG32, Opcode.AND32, Opcode.OR32, Opcode.XOR32, Opcode.NOT32,
        Opcode.SHL32, Opcode.SHR32, Opcode.USHR32,
        Opcode.EXTEND8, Opcode.EXTEND16, Opcode.EXTEND32, Opcode.ZEXT8,
        Opcode.ZEXT16, Opcode.JUST_EXTENDED, Opcode.TRUNC32,
        Opcode.CMP32, Opcode.CMP64, Opcode.CMPF, Opcode.D2I, Opcode.ARRAYLEN,
    ), ScalarType.I32),
    **dict.fromkeys((
        Opcode.ADD64, Opcode.SUB64, Opcode.MUL64, Opcode.DIV64, Opcode.REM64,
        Opcode.NEG64, Opcode.AND64, Opcode.OR64, Opcode.XOR64, Opcode.NOT64,
        Opcode.SHL64, Opcode.SHR64, Opcode.USHR64, Opcode.ZEXT32, Opcode.D2L,
    ), ScalarType.I64),
    **dict.fromkeys((
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FREM,
        Opcode.FNEG, Opcode.FSQRT, Opcode.FSIN, Opcode.FCOS, Opcode.FEXP,
        Opcode.FLOG, Opcode.FABS, Opcode.FFLOOR, Opcode.FPOW,
        Opcode.I2D, Opcode.L2D,
    ), ScalarType.F64),
    Opcode.NEWARRAY: ScalarType.REF,
}

#: Opcodes that are explicit sign extensions (candidates for elimination).
EXTEND_OPS = frozenset({Opcode.EXTEND8, Opcode.EXTEND16, Opcode.EXTEND32})

#: Bit width extended *from*, per sign (``EXTEND_OPS``) or zero extension.
EXTEND_BITS = {
    Opcode.EXTEND8: 8,
    Opcode.EXTEND16: 16,
    Opcode.EXTEND32: 32,
    Opcode.ZEXT8: 8,
    Opcode.ZEXT16: 16,
    Opcode.ZEXT32: 32,
}
