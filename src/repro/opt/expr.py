"""Expression keys and the expression universe for CSE/code motion.

An expression is the lexical shape of a pure computation: opcode,
condition, element kind, immediate, and source register *names*.  Two
instructions with equal keys compute the same value whenever their
source registers hold the same values — the classic non-SSA CSE notion,
made safe by kill-tracking on register redefinition.  GCSE and BCM both
number expressions with :class:`ExprUniverse` and ask it which bits
each instruction kills and generates.

Each caller chooses which computations get a bit.  BCM numbers every
expression, since an expression computed once can still be partially
redundant.  GCSE numbers only the keys computed at least twice:
available-expression bits are independent of each other, and on code
the entry reaches a key computed once is never available at its own
instruction (the first time a path reaches it, nothing has computed
it), so it can never be fully redundant.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ..ir.function import Function
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


class ExprKey(NamedTuple):
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


def all_computations(func: Function) -> Iterable[tuple[Instr, ExprKey]]:
    """Every instruction of ``func`` with an expression key, with that
    key, in layout order."""
    for _, instr in func.instructions():
        key = expr_key(instr)
        if key is not None:
            yield instr, key


class ExprUniverse:
    """The expressions the caller names, one bit each, numbered in
    order of first appearance.

    ``computations`` yields ``(instruction, key)`` pairs in layout
    order: BCM passes every computation of the function
    (:func:`all_computations`), GCSE only those whose key occurs at
    least twice.  The masks take ``key=None`` for an instruction whose
    key has no bit.
    """

    def __init__(self,
                 computations: Iterable[tuple[Instr, ExprKey]]) -> None:
        #: expression key -> bit index
        self.bits: dict[ExprKey, int] = {}
        #: expression key -> the first instruction computing it
        self.exemplar: dict[ExprKey, Instr] = {}
        self._reading: dict[str, int] = {}  # register -> expressions
        for instr, key in computations:
            if key not in self.bits:
                self.bits[key] = len(self.bits)
                self.exemplar[key] = instr
        for key, index in self.bits.items():
            for name in key.srcs:
                self._reading[name] = self._reading.get(name, 0) | (1 << index)

    def __len__(self) -> int:
        return len(self.bits)

    def kill_mask(self, instr: Instr, key: ExprKey | None) -> int:
        """The expressions whose value ``instr`` (with numbered
        expression key ``key``, or None) changes: every one that reads
        its destination.

        A self-extension ``r = extendN(r)`` does not kill its own
        expression: recomputing it leaves ``r`` unchanged.  This is
        what lets code motion hoist loop-invariant sign extensions (the
        paper's Figure 5 step 2).
        """
        if instr.dest is None:
            return 0
        mask = self._reading.get(instr.dest.name, 0)
        if mask and key is not None and instr.is_self_extend:
            mask &= ~(1 << self.bits[key])
        return mask

    def gen_mask(self, instr: Instr, key: ExprKey | None) -> int:
        """The bit of ``key`` if its value is still available after
        ``instr`` computes it, else 0.

        It is not when the destination is one of the expression's own
        operands (``v = fadd v, x`` changes ``v``, so "fadd v, x" now
        denotes a different value), except for a self-extension.
        """
        if key is None:
            return 0
        if instr.dest.name in key.srcs and not instr.is_self_extend:
            return 0
        return 1 << self.bits[key]
