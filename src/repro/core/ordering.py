"""Phase (3)-2: order determination (Section 2.2).

"It is best to eliminate sign extensions starting from the most
frequently executed region" — blocks are sorted by estimated execution
frequency (loop nesting x branch probability, profile-refined when
available).  When order determination is disabled, elimination runs in
"the reverse depth first search order, the same order in which backward
dataflow analysis is performed".
"""

from __future__ import annotations

from ..analysis.cfg import reverse_depth_first_order
from ..analysis.frequency import BranchProfile, estimate_frequencies
from ..ir.function import Function
from ..ir.instruction import Instr


def order_candidates(
    func: Function,
    *,
    use_order: bool,
    profile: BranchProfile | None = None,
) -> list[Instr]:
    """Candidate extensions in elimination order."""
    if use_order:
        estimate_frequencies(func, profile)
        blocks = sorted(
            enumerate(func.blocks),
            key=lambda pair: (-pair[1].freq, pair[0]),
        )
        ordered = [block for _, block in blocks]
        return [
            instr for block in ordered for instr in block.instrs
            if instr.is_self_extend
        ]

    candidates: list[Instr] = []
    for block in reverse_depth_first_order(func):
        for instr in reversed(block.instrs):
            if instr.is_self_extend:
                candidates.append(instr)
    return candidates
