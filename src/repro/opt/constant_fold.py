"""Constant folding and propagation.

"When a constant is propagated as the source operand of a sign
extension, the sign extension will be changed to a copy instruction by
constant folding." (Section 2, step 2.)  We go one step further and fold
``extend(const)`` directly to a constant.

A folded value is exactly what the 64-bit machine computes: the pass
hands each constant's register image to the reference interpreter's own
evaluator for the opcode and reads the result back at the destination's
width.  An evaluation that traps (division by zero) is not folded.

The pass uses UD chains: an operand is constant when *every* reaching
definition is a ``CONST`` with the same value.  Folding iterates to a
(bounded) fixpoint because folding one instruction can make another's
operand constant.  Each round decides from the chains as they stood when
it began, then puts its folds into them (:meth:`Chains.replace`); the
next round looks only at the uses of what this one folded.
"""

from __future__ import annotations

from functools import partial

from ..analysis.ud_du import Chains, ChainsHolder
from ..interp.interpreter import (
    _FLOAT_OPS,
    _INT32_BINOPS,
    _INT32_UNOPS,
    _INT64_BINOPS,
    _INT64_UNOPS,
    compare,
    const_image,
    extend,
)
from ..interp.memory import Trap
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import EXTEND_BITS, RESULT_TYPE, Opcode
from ..ir.types import ScalarType, sign_extend

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


def _try_fold(chains: Chains, instr: Instr) -> Instr | None:
    """``instr`` as a ``CONST`` when every operand is a constant and the
    reference interpreter computes its result without trapping."""
    opcode = instr.opcode
    if instr.dest is None:
        return None
    if opcode is Opcode.CMP32:
        evaluate = partial(compare, opcode, instr.cond)
    else:
        evaluate = _EVALUATORS.get(opcode)
    if evaluate is None:
        return None
    if opcode is Opcode.MOV:
        type_ = instr.srcs[0].type.register_type
        if type_ is ScalarType.REF:
            return None
    else:
        type_ = RESULT_TYPE[opcode]
    floating = type_ is ScalarType.F64
    images = []
    for index, src in enumerate(instr.srcs):
        imm = chains.const_of(instr, index)
        if imm is None or (src.type is ScalarType.F64) != floating:
            return None
        images.append(const_image(imm, src.type))
    try:
        image = evaluate(*images)
    except (Trap, ValueError, OverflowError):
        return None  # keep the trapping instruction
    value = image if floating else sign_extend(image, type_.bits)
    return Instr(Opcode.CONST, instr.dest, imm=value, elem=type_,
                 comment="folded")


def _same(image: int | float) -> int | float:
    return image


#: Each opcode the pass folds, with the reference interpreter's evaluator
#: of its operands' register images (``CMP32`` also reads its condition).
#: A copy or ``TRUNC32`` passes its image on; the result is read back at
#: the destination's width.
_EVALUATORS = {
    **_INT32_BINOPS, **_INT32_UNOPS, **_INT64_BINOPS, **_INT64_UNOPS,
    **{opcode: _FLOAT_OPS[opcode] for opcode in (
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FNEG, Opcode.FABS,
        Opcode.FFLOOR)},
    **{opcode: partial(extend, opcode) for opcode in EXTEND_BITS},
    Opcode.TRUNC32: _same,
    Opcode.MOV: _same,
}
