"""Expression keys for CSE/code motion.

An expression is the lexical shape of a pure computation: opcode,
condition, element kind, immediate, and source register *names*.  Two
instructions with equal keys compute the same value whenever their
source registers hold the same values — the classic non-SSA CSE notion,
made safe by kill-tracking on register redefinition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instruction import Instr
from ..ir.opcodes import Opcode

#: Pure, rematerializable opcodes eligible for CSE and code motion.
PURE_OPS = frozenset(
    {
        Opcode.ADD32, Opcode.SUB32, Opcode.MUL32, Opcode.NEG32,
        Opcode.AND32, Opcode.OR32, Opcode.XOR32, Opcode.NOT32,
        Opcode.SHL32, Opcode.SHR32, Opcode.USHR32,
        Opcode.ADD64, Opcode.SUB64, Opcode.MUL64, Opcode.NEG64,
        Opcode.AND64, Opcode.OR64, Opcode.XOR64, Opcode.NOT64,
        Opcode.SHL64, Opcode.SHR64, Opcode.USHR64,
        Opcode.CMP32, Opcode.CMP64, Opcode.CMPF,
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FNEG,
        Opcode.FABS, Opcode.FFLOOR,
        Opcode.EXTEND8, Opcode.EXTEND16, Opcode.EXTEND32,
        Opcode.ZEXT8, Opcode.ZEXT16, Opcode.ZEXT32, Opcode.TRUNC32,
        Opcode.I2D, Opcode.L2D, Opcode.D2I, Opcode.D2L,
    }
)
# Deliberately excluded: DIV/REM (can trap), FSQRT/FSIN/... (keep code
# motion focused), loads (not pure), CONST (rematerialized by folding).


@dataclass(frozen=True)
class ExprKey:
    opcode: Opcode
    cond: object
    elem: object
    imm: object
    srcs: tuple[str, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<expr {self.opcode.value} {','.join(self.srcs)}>"


def expr_key(instr: Instr) -> ExprKey | None:
    """The expression key of an instruction, or None if not eligible."""
    if instr.opcode not in PURE_OPS or instr.dest is None:
        return None
    srcs = tuple(s.name for s in instr.srcs)
    if instr.info.commutative:
        srcs = tuple(sorted(srcs))
    return ExprKey(instr.opcode, instr.cond, instr.elem, instr.imm, srcs)


def is_idempotent_self_extend(instr: Instr) -> bool:
    """``r = extendN(r)``: recomputing it does not change the value, so
    the instruction's own definition of ``r`` does not kill the
    expression ``extendN(r)``.  This is what lets code motion hoist
    loop-invariant sign extensions (the paper's Figure 5 step 2)."""
    return (
        instr.is_extend
        and instr.dest is not None
        and len(instr.srcs) == 1
        and instr.dest.name == instr.srcs[0].name
    )


def kills_expr(instr: Instr, key: ExprKey) -> bool:
    """Does ``instr`` invalidate the cached value of ``key``?"""
    if instr.dest is None:
        return False
    if instr.dest.name not in key.srcs:
        return False
    if is_idempotent_self_extend(instr) and expr_key(instr) == key:
        return False
    return True
