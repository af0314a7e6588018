"""Dead code elimination over DU chains.

Removes side-effect-free instructions whose definitions have no uses,
iterating because removing one use can make its operands' definitions
dead too.  Deletions go into the shared chains (:meth:`Chains.remove`),
and each round looks only at the definitions the last round's deletions
read.
"""

from __future__ import annotations

from ..analysis.ud_du import Chains, ChainsHolder
from ..ir.function import Function
from ..ir.instruction import Instr

_MAX_ROUNDS = 50


def eliminate_dead_code(func: Function,
                        holder: ChainsHolder | None = None) -> bool:
    holder = holder if holder is not None else ChainsHolder(func)
    candidates = [instr for _, instr in func.instructions()]
    changed = False
    for _ in range(_MAX_ROUNDS):
        chains = holder.get()
        dead = [instr for instr in candidates if _is_dead(chains, instr)]
        if not dead:
            break
        # A dead instruction's operands were live this round (it read
        # them), so no candidate is one this round deletes.
        candidates = list({
            definition.instr.uid: definition.instr
            for instr in dead for index in range(len(instr.srcs))
            for definition in chains.defs_for(instr, index)
            if not definition.is_param
        }.values())
        for instr in dead:
            chains.remove(instr)
        changed = True
    return changed


def _is_dead(chains: Chains, instr: Instr) -> bool:
    return (instr.dest is not None and not instr.has_side_effects
            and not chains.uses_of(instr))
