"""Algebraic simplification and branch folding.

* ``x + 0``, ``x - 0``, ``x * 1``, ``x & -1``, ``x | 0``, ``x ^ 0``,
  ``x << 0`` → ``mov x``; ``x * 0``, ``x & 0`` → ``const 0``.
* ``br`` on a constant condition → ``jmp``; unreachable blocks dropped.
"""

from __future__ import annotations

from ..analysis.ud_du import Chains, ChainsHolder
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import RESULT_TYPE, Opcode
from ..ir.types import low32, sign_extend

_NEUTRAL_RIGHT = {
    Opcode.ADD32: 0, Opcode.SUB32: 0, Opcode.MUL32: 1,
    Opcode.OR32: 0, Opcode.XOR32: 0, Opcode.AND32: -1,
    Opcode.SHL32: 0, Opcode.SHR32: 0, Opcode.USHR32: 0,
    Opcode.ADD64: 0, Opcode.SUB64: 0, Opcode.MUL64: 1,
    Opcode.OR64: 0, Opcode.XOR64: 0, Opcode.AND64: -1,
    Opcode.SHL64: 0, Opcode.SHR64: 0, Opcode.USHR64: 0,
}
_NEUTRAL_LEFT = {
    Opcode.ADD32: 0, Opcode.MUL32: 1, Opcode.OR32: 0, Opcode.XOR32: 0,
    Opcode.AND32: -1,
    Opcode.ADD64: 0, Opcode.MUL64: 1, Opcode.OR64: 0, Opcode.XOR64: 0,
    Opcode.AND64: -1,
}
_ZERO_RIGHT = {Opcode.MUL32: 0, Opcode.AND32: 0, Opcode.MUL64: 0,
               Opcode.AND64: 0}


def simplify(func: Function, holder: ChainsHolder | None = None) -> bool:
    """Apply algebraic identities and fold constant branches."""
    holder = holder if holder is not None else ChainsHolder(func)
    # The algebraic step keeps the chains in step with its rewrites;
    # branch folding changes the CFG, so it drops them.
    changed = _algebraic(func, holder.get())
    if _fold_branches(func, holder.get()):
        holder.invalidate()
        changed = True
    if changed:
        func.invalidate_cfg()
        # Unreachable blocks still feed definitions into the blocks they
        # jump to, so dropping them changes the chains.
        if func.drop_unreachable_blocks():
            holder.invalidate()
    return changed


def _norm(value: int, opcode: Opcode) -> int:
    return sign_extend(value, RESULT_TYPE[opcode].bits)


def _algebraic(func: Function, chains: Chains) -> bool:
    """Rewrite by the identities above, deciding every instruction from
    the chains as they stood before the first rewrite."""
    replacements = []
    for block in func.blocks:
        for instr in block.instrs:
            opcode = instr.opcode
            if opcode not in _NEUTRAL_RIGHT or len(instr.srcs) != 2:
                continue
            rhs = chains.const_of(instr, 1)
            lhs = chains.const_of(instr, 0)

            replacement: Instr | None = None
            if isinstance(rhs, int) and opcode in _ZERO_RIGHT \
                    and _norm(rhs, opcode) == _ZERO_RIGHT[opcode]:
                replacement = Instr(Opcode.CONST, instr.dest, imm=0,
                                    elem=RESULT_TYPE[opcode],
                                    comment="simplified")
            elif (isinstance(rhs, int)
                  and _norm(rhs, opcode) == _NEUTRAL_RIGHT[opcode]):
                replacement = Instr(Opcode.MOV, instr.dest, (instr.srcs[0],),
                                    comment="simplified")
            elif (isinstance(lhs, int) and opcode in _NEUTRAL_LEFT
                  and _norm(lhs, opcode) == _NEUTRAL_LEFT[opcode]):
                replacement = Instr(Opcode.MOV, instr.dest, (instr.srcs[1],),
                                    comment="simplified")

            if replacement is not None:
                replacements.append((instr, replacement))
    for instr, replacement in replacements:
        chains.replace(instr, replacement)
    return bool(replacements)


def _fold_branches(func: Function, chains: Chains) -> bool:
    changed = False
    for block in func.blocks:
        terminator = block.instrs[-1] if block.instrs else None
        if terminator is None or terminator.opcode is not Opcode.BR:
            continue
        value = chains.const_of(terminator, 0)
        if not isinstance(value, int):
            continue
        taken = low32(value) != 0
        target = terminator.targets[0] if taken else terminator.targets[1]
        block.instrs[-1] = Instr(Opcode.JMP, None, (), targets=(target,),
                                 comment="folded branch")
        changed = True
    if changed:
        func.invalidate_cfg()
    return changed
