"""Constant folding and propagation.

"When a constant is propagated as the source operand of a sign
extension, the sign extension will be changed to a copy instruction by
constant folding." (Section 2, step 2.)  We go one step further and fold
``extend(const)`` directly to a constant.

The pass uses UD chains: an operand is constant when *every* reaching
definition is a ``CONST`` with the same value.  Folding iterates to a
(bounded) fixpoint because folding one instruction can make another's
operand constant.  Each round decides from the chains as they stood when
it began, then puts its folds into them (:meth:`Chains.replace`); the
next round looks only at the uses of what this one folded.
"""

from __future__ import annotations

import math

from ..analysis.ud_du import Chains, ChainsHolder
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import EXTEND_BITS, EXTEND_OPS, Cond, Opcode
from ..ir.types import ScalarType, low32, sign_extend, wrap_u64

_MAX_ROUNDS = 10


def fold_constants(func: Function, holder: ChainsHolder | None = None) -> bool:
    """Fold constant computations; returns True when anything changed."""
    holder = holder if holder is not None else ChainsHolder(func)
    pending: set[int] | None = None  # uids to look at; None: all
    changed = False
    for _ in range(_MAX_ROUNDS):
        chains = holder.get()
        folds = []
        for _, instr in func.instructions():
            if pending is None or instr.uid in pending:
                folded = _try_fold(chains, instr)
                if folded is not None:
                    folds.append((instr, folded))
        if not folds:
            break
        for instr, folded in folds:
            chains.replace(instr, folded)
        pending = {use.instr.uid for _, folded in folds
                   for use in chains.uses_of(folded)}
        changed = True
    return changed


def _const_instr(instr: Instr, value: int | float,
                 type_: ScalarType) -> Instr:
    return Instr(Opcode.CONST, instr.dest, imm=value, elem=type_,
                 comment="folded")


def _try_fold(chains: Chains, instr: Instr) -> Instr | None:
    opcode = instr.opcode
    if instr.dest is None:
        return None

    operands = [chains.const_of(instr, index)
                for index in range(len(instr.srcs))]

    if opcode in _INT32_FOLD and all(isinstance(v, int) for v in operands):
        try:
            result = _INT32_FOLD[opcode](*[sign_extend(v, 32) for v in operands])
        except ZeroDivisionError:
            return None  # keep the trapping instruction
        return _const_instr(instr, sign_extend(low32(result), 32), ScalarType.I32)

    if opcode in _INT64_FOLD and all(isinstance(v, int) for v in operands):
        try:
            result = _INT64_FOLD[opcode](*[sign_extend(v, 64) for v in operands])
        except ZeroDivisionError:
            return None
        return _const_instr(instr, sign_extend(wrap_u64(result), 64),
                            ScalarType.I64)

    if opcode in EXTEND_BITS and isinstance(operands[0], int):
        bits = EXTEND_BITS[opcode]
        if opcode in EXTEND_OPS:
            return _const_instr(instr, sign_extend(operands[0], bits),
                                ScalarType.I32)
        result_type = ScalarType.I64 if opcode is Opcode.ZEXT32 else ScalarType.I32
        return _const_instr(instr, operands[0] & ((1 << bits) - 1), result_type)
    if opcode is Opcode.TRUNC32 and isinstance(operands[0], int):
        return _const_instr(instr, sign_extend(operands[0], 32),
                            ScalarType.I32)

    if opcode is Opcode.CMP32 and all(isinstance(v, int) for v in operands):
        if instr.cond.is_unsigned:
            a, b = low32(operands[0]), low32(operands[1])
        else:
            a, b = sign_extend(operands[0], 32), sign_extend(operands[1], 32)
        return _const_instr(instr, int(_eval_cond(a, b, instr.cond)),
                            ScalarType.I32)

    if opcode in _FLOAT_FOLD and all(isinstance(v, (int, float)) for v in operands) \
            and operands and all(v is not None for v in operands):
        float_srcs = all(s.type is ScalarType.F64 for s in instr.srcs)
        if float_srcs:
            try:
                result = _FLOAT_FOLD[opcode](*[float(v) for v in operands])
            except (ValueError, OverflowError, ZeroDivisionError):
                return None
            return _const_instr(instr, result, ScalarType.F64)

    if opcode is Opcode.MOV and operands[0] is not None:
        src_type = instr.srcs[0].type
        if src_type is ScalarType.F64:
            return _const_instr(instr, float(operands[0]), ScalarType.F64)
        if src_type is ScalarType.I64:
            return _const_instr(instr, sign_extend(int(operands[0]), 64),
                                ScalarType.I64)
        if src_type.is_narrow_int:
            return _const_instr(instr, sign_extend(int(operands[0]), 32),
                                ScalarType.I32)
    return None


def _eval_cond(a, b, cond: Cond) -> bool:
    if cond is Cond.EQ:
        return a == b
    if cond is Cond.NE:
        return a != b
    if cond in (Cond.LT, Cond.ULT):
        return a < b
    if cond in (Cond.LE, Cond.ULE):
        return a <= b
    if cond in (Cond.GT, Cond.UGT):
        return a > b
    return a >= b


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _trunc_rem(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


_INT32_FOLD = {
    Opcode.ADD32: lambda a, b: a + b,
    Opcode.SUB32: lambda a, b: a - b,
    Opcode.MUL32: lambda a, b: a * b,
    Opcode.DIV32: _trunc_div,
    Opcode.REM32: _trunc_rem,
    Opcode.NEG32: lambda a: -a,
    Opcode.AND32: lambda a, b: a & b,
    Opcode.OR32: lambda a, b: a | b,
    Opcode.XOR32: lambda a, b: a ^ b,
    Opcode.NOT32: lambda a: ~a,
    Opcode.SHL32: lambda a, b: a << (b & 31),
    Opcode.SHR32: lambda a, b: a >> (b & 31),
    Opcode.USHR32: lambda a, b: low32(a) >> (b & 31),
}

_INT64_FOLD = {
    Opcode.ADD64: lambda a, b: a + b,
    Opcode.SUB64: lambda a, b: a - b,
    Opcode.MUL64: lambda a, b: a * b,
    Opcode.DIV64: _trunc_div,
    Opcode.REM64: _trunc_rem,
    Opcode.NEG64: lambda a: -a,
    Opcode.AND64: lambda a, b: a & b,
    Opcode.OR64: lambda a, b: a | b,
    Opcode.XOR64: lambda a, b: a ^ b,
    Opcode.NOT64: lambda a: ~a,
    Opcode.SHL64: lambda a, b: a << (b & 63),
    Opcode.SHR64: lambda a, b: a >> (b & 63),
    Opcode.USHR64: lambda a, b: wrap_u64(a) >> (b & 63),
}

_FLOAT_FOLD = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FNEG: lambda a: -a,
    Opcode.FABS: abs,
    Opcode.FFLOOR: lambda a: float(math.floor(a)),
}
