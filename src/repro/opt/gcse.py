"""Global common-subexpression elimination over available expressions.

Together with :mod:`repro.opt.licm` this forms the repo's "variant of
the partial redundancy elimination algorithm ... for common
sub-expression elimination" (Figure 5, step 2): fully redundant
computations are removed here; partially redundant loop-invariant ones
(including sign extensions, thanks to the idempotent-self-extend kill
exemption) are moved out of loops by LICM.

Each instruction's expression key is computed once per call, and only
keys computed at least twice get an availability bit (see
:mod:`repro.opt.expr` for why that is exact); a function that computes
no expression twice is left without solving anything.
"""

from __future__ import annotations

from collections import Counter

from ..analysis.cfg import reachable_labels
from ..analysis.dataflow import DataflowProblem, Direction, Meet
from ..analysis.ud_du import ChainsHolder
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import RESULT_TYPE, Opcode
from .expr import ExprKey, ExprUniverse, expr_key


def eliminate_common_subexpressions(
        func: Function, holder: ChainsHolder | None = None) -> bool:
    func.build_cfg()
    keys = [[expr_key(instr) for instr in block.instrs]
            for block in func.blocks]
    occurrences = Counter(key for block_keys in keys for key in block_keys)
    repeated = {key for key, count in occurrences.items()
                if count > 1 and key is not None}
    if not repeated:
        return False
    # From here on a key computed once reads as None: it has no bit.
    keys = [[key if key in repeated else None for key in block_keys]
            for block_keys in keys]
    universe = ExprUniverse(
        (instr, key)
        for block, block_keys in zip(func.blocks, keys)
        for instr, key in zip(block.instrs, block_keys) if key is not None
    )

    problem = DataflowProblem(
        func, Direction.FORWARD, Meet.INTERSECT, len(universe), boundary=0
    )
    for block, block_keys in zip(func.blocks, keys):
        facts = problem.facts_for(block)
        available = 0  # locally generated, relative to block start
        killed = 0
        for instr, key in zip(block.instrs, block_keys):
            kill = universe.kill_mask(instr, key)
            gen = universe.gen_mask(instr, key)
            available = (available & ~kill) | gen
            killed = (killed | kill) & ~gen
        facts.gen = available
        facts.kill = killed
    problem.solve()

    # A cycle the entry never reaches never meets the boundary, so the
    # optimistic solution leaves every expression available inside it.
    reachable = reachable_labels(func)
    redundant_uids: set[int] = set()
    redundant_keys: set[ExprKey] = set()
    for block, block_keys in zip(func.blocks, keys):
        if block.label not in reachable:
            continue
        available = problem.facts_for(block).in_
        for instr, key in zip(block.instrs, block_keys):
            if key is not None and (available >> universe.bits[key]) & 1:
                redundant_uids.add(instr.uid)
                redundant_keys.add(key)
            available = ((available & ~universe.kill_mask(instr, key))
                         | universe.gen_mask(instr, key))

    if not redundant_uids:
        return False

    # First-appearance order, so temporary names do not follow hashing.
    temps = {
        key: func.new_reg(RESULT_TYPE[key.opcode], "cse")
        for key in universe.bits if key in redundant_keys
    }

    for block, block_keys in zip(func.blocks, keys):
        rewritten: list[Instr] = []
        for instr, key in zip(block.instrs, block_keys):
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
