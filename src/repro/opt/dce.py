"""Dead code elimination over DU chains.

Removes side-effect-free instructions whose definitions have no uses,
iterating because removing one use can make its operands' definitions
dead too.
"""

from __future__ import annotations

from ..analysis.ud_du import ChainsHolder
from ..ir.function import Function

_MAX_ROUNDS = 50


def eliminate_dead_code(func: Function,
                        holder: ChainsHolder | None = None) -> bool:
    holder = holder if holder is not None else ChainsHolder(func)
    changed_any = False
    for _ in range(_MAX_ROUNDS):
        chains = holder.get()
        dead = []
        for block in func.blocks:
            for instr in block.instrs:
                if instr.dest is None or instr.has_side_effects:
                    continue
                if not chains.uses_of(instr):
                    dead.append((block, instr))
        if not dead:
            break
        for block, instr in dead:
            block.remove(instr)
        changed_any = True
        holder.invalidate()
        func.invalidate_cfg()
    return changed_any
