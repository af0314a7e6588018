"""Copy propagation.

A use of ``r`` whose every reaching definition is the same ``r = mov s``
can read ``s`` directly, provided ``s`` still holds the value it had at
the copy.  We establish that cheaply and safely by requiring ``s`` to
have exactly one definition in the function (the common case for the
expression temporaries the frontend emits), and that definition to
reach the copy; ``s``'s value is then fixed for the whole execution
after definition.  A copy that reads ``s`` before its definition ran
would otherwise hand the use a value the copy never saw.

A rewritten operand is then reached by exactly the definitions that
reach the copy's operand: ``s``'s one definition reaches the copy, and
the copy reaches the use.  So each round repoints the shared chains
(:meth:`Chains.repoint`) instead of rebuilding them.
"""

from __future__ import annotations

from ..analysis.ud_du import ChainsHolder
from ..ir.function import Function
from ..ir.opcodes import Opcode

_MAX_ROUNDS = 10


def propagate_copies(func: Function,
                     holder: ChainsHolder | None = None) -> bool:
    holder = holder if holder is not None else ChainsHolder(func)
    def_counts: dict[str, int] = {}
    for param in func.params:
        def_counts[param.name] = def_counts.get(param.name, 0) + 1
    for _, instr in func.instructions():
        if instr.dest is not None:
            def_counts[instr.dest.name] = def_counts.get(instr.dest.name, 0) + 1

    changed = False
    for _ in range(_MAX_ROUNDS):
        chains = holder.get()
        rewrites = []
        for _, instr in func.instructions():
            for index, src in enumerate(instr.srcs):
                defs = chains.defs_for(instr, index)
                if len(defs) != 1 or defs[0].instr is None:
                    continue
                definition = defs[0].instr
                if definition is instr:
                    continue
                if definition.opcode is not Opcode.MOV:
                    continue
                copied = definition.srcs[0]
                if copied.name == src.name:
                    continue
                if copied.type is not src.type:
                    continue
                if def_counts.get(copied.name, 0) != 1:
                    continue
                if not chains.defs_for(definition, 0):
                    continue
                srcs = list(instr.srcs)
                srcs[index] = copied
                instr.srcs = tuple(srcs)
                rewrites.append((instr, index, definition))
        if not rewrites:
            break
        changed = True
        for instr, index, copy in rewrites:
            # The copy's operand reads what ``instr`` now reads, as of
            # the rewrites before this one: the one definition that the
            # guard above found reaching it.
            chains.repoint(instr, index, chains.defs_for(copy, 0))
    return changed
