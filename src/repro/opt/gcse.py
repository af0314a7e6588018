"""Global common-subexpression elimination over available expressions.

Together with :mod:`repro.opt.licm` this forms the repo's "variant of
the partial redundancy elimination algorithm ... for common
sub-expression elimination" (Figure 5, step 2): fully redundant
computations are removed here; partially redundant loop-invariant ones
(including sign extensions, thanks to the idempotent-self-extend kill
exemption) are moved out of loops by LICM.
"""

from __future__ import annotations

from ..analysis.dataflow import DataflowProblem, Direction, Meet
from ..analysis.ud_du import ChainsHolder
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import Opcode
from .expr import ExprKey, expr_key, is_idempotent_self_extend, kills_expr


def eliminate_common_subexpressions(
        func: Function, holder: ChainsHolder | None = None) -> bool:
    func.build_cfg()
    universe: dict[ExprKey, int] = {}
    for _, instr in func.instructions():
        key = expr_key(instr)
        if key is not None and key not in universe:
            universe[key] = len(universe)
    if not universe:
        return False
    keys = list(universe)
    exprs_using: dict[str, int] = {}
    for key, bit in universe.items():
        for name in key.srcs:
            exprs_using[name] = exprs_using.get(name, 0) | (1 << bit)

    problem = DataflowProblem(
        func, Direction.FORWARD, Meet.INTERSECT, len(universe), boundary=0
    )
    for block in func.blocks:
        facts = problem.facts_for(block)
        available = 0  # locally generated, relative to block start
        killed = 0
        for instr in block.instrs:
            key = expr_key(instr)
            if instr.dest is not None:
                mask = exprs_using.get(instr.dest.name, 0)
                if is_idempotent_self_extend(instr) and key in universe:
                    mask &= ~(1 << universe[key])
                available &= ~mask
                killed |= mask
            if key is not None and _generates(instr, key):
                bit = 1 << universe[key]
                available |= bit
                killed &= ~bit
        facts.gen = available
        facts.kill = killed
    problem.solve()

    redundant: list[tuple[object, Instr]] = []
    redundant_keys: set[ExprKey] = set()
    for block in func.blocks:
        available = problem.facts_for(block).in_
        for instr in block.instrs:
            key = expr_key(instr)
            if key is not None and (available >> universe[key]) & 1:
                redundant.append((block, instr))
                redundant_keys.add(key)
            if instr.dest is not None:
                mask = exprs_using.get(instr.dest.name, 0)
                if is_idempotent_self_extend(instr) and key in universe:
                    mask &= ~(1 << universe[key])
                available &= ~mask
            if key is not None and _generates(instr, key):
                available |= 1 << universe[key]

    if not redundant:
        return False

    # First-appearance order, so temporary names do not follow hashing.
    temps = {
        key: func.new_reg(_result_type(key), "cse")
        for key in keys if key in redundant_keys
    }
    redundant_uids = {instr.uid for _, instr in redundant}

    for block in func.blocks:
        rewritten: list[Instr] = []
        for instr in block.instrs:
            key = expr_key(instr)
            if key in redundant_keys:
                temp = temps[key]
                if instr.uid in redundant_uids:
                    rewritten.append(Instr(Opcode.MOV, instr.dest, (temp,),
                                           comment="cse reuse"))
                else:
                    generator = instr.copy()
                    generator.dest = temp
                    rewritten.append(generator)
                    rewritten.append(Instr(Opcode.MOV, instr.dest, (temp,),
                                           comment="cse save"))
            else:
                rewritten.append(instr)
        block.instrs = rewritten
    func.invalidate_cfg()
    if holder is not None:
        holder.invalidate()
    return True


def _generates(instr: Instr, key: ExprKey) -> bool:
    """Does computing ``instr`` leave ``key`` available afterwards?

    Not if the destination is one of the expression's own operands
    (``v = fadd v, x`` changes ``v``, so "fadd v, x" now denotes a
    different value) — except for idempotent self-extensions.
    """
    if instr.dest is None:
        return True
    if instr.dest.name not in key.srcs:
        return True
    return is_idempotent_self_extend(instr)


def _result_type(key: ExprKey):
    from ..ir.builder import _BIN_RESULT, _UN_RESULT
    from ..ir.types import ScalarType

    if key.opcode in _BIN_RESULT:
        return _BIN_RESULT[key.opcode]
    if key.opcode in _UN_RESULT:
        return _UN_RESULT[key.opcode]
    if key.opcode in (Opcode.CMP32, Opcode.CMP64, Opcode.CMPF):
        return ScalarType.I32
    return ScalarType.I64
