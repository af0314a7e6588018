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
from .expr import ExprKey, ExprUniverse, expr_key, result_type


def eliminate_common_subexpressions(
        func: Function, holder: ChainsHolder | None = None) -> bool:
    func.build_cfg()
    universe = ExprUniverse(func)
    if not universe:
        return False

    problem = DataflowProblem(
        func, Direction.FORWARD, Meet.INTERSECT, len(universe), boundary=0
    )
    for block in func.blocks:
        facts = problem.facts_for(block)
        available = 0  # locally generated, relative to block start
        killed = 0
        for instr in block.instrs:
            key = expr_key(instr)
            kill = universe.kill_mask(instr, key)
            gen = universe.gen_mask(instr, key)
            available = (available & ~kill) | gen
            killed = (killed | kill) & ~gen
        facts.gen = available
        facts.kill = killed
    problem.solve()

    redundant: list[tuple[object, Instr]] = []
    redundant_keys: set[ExprKey] = set()
    for block in func.blocks:
        available = problem.facts_for(block).in_
        for instr in block.instrs:
            key = expr_key(instr)
            if key is not None and (available >> universe.bits[key]) & 1:
                redundant.append((block, instr))
                redundant_keys.add(key)
            available = ((available & ~universe.kill_mask(instr, key))
                         | universe.gen_mask(instr, key))

    if not redundant:
        return False

    # First-appearance order, so temporary names do not follow hashing.
    temps = {
        key: func.new_reg(result_type(key), "cse")
        for key in universe.bits if key in redundant_keys
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
