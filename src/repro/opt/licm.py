"""Loop-invariant code motion.

Moves pure computations whose operands are loop-invariant into a loop
preheader.  Covers the paper's observation that the PRE phase "moves an
expression backward in the control flow graph, and thus loop-invariant
sign extensions can be moved out of the loop": a same-register
``r = extendN(r)`` whose register has no other definition in the loop is
hoisted, which is sound because the extension only canonicalizes the
upper bits (the low 32 bits are unchanged, and executing it early on the
zero-trip path merely refines the register).

Liveness is built on demand, at a round's first question about a
register live into a loop header; most rounds find no candidate that
asks.  Every question of a round comes before its first hoist, and a
hoist ends the round, so the lazily built answer is the one the round
started with.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from ..analysis.liveness import Liveness
from ..analysis.loops import Loop, LoopForest
from ..analysis.ud_du import ChainsHolder
from ..ir.block import Block
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import Opcode
from .expr import PURE_OPS

_MAX_ROUNDS = 12


def hoist_loop_invariants(func: Function,
                          holder: ChainsHolder | None = None) -> bool:
    changed_any = False
    for _ in range(_MAX_ROUNDS):
        if not _one_round(func):
            break
        changed_any = True
    if changed_any and holder is not None:
        holder.invalidate()
    return changed_any


def _one_round(func: Function) -> bool:
    func.build_cfg()
    forest = LoopForest(func)
    if not forest.loops:
        return False
    liveness = cache(lambda: Liveness(func))
    changed = False
    # Innermost first: len(body) ascending.
    for loop in sorted(forest.loops, key=lambda l: len(l.body)):
        changed |= _hoist_from_loop(func, loop, liveness)
        if changed:
            # Structures are stale after a hoist; restart the round.
            return True
    return changed


def _hoist_from_loop(func: Function, loop: Loop,
                     liveness: Callable[[], Liveness]) -> bool:
    # Block order, not set order, so the preheader's order is stable.
    body = [block for block in func.blocks if block.label in loop.body]
    defs_in_loop: dict[str, int] = {}
    for block in body:
        for instr in block.instrs:
            if instr.dest is not None:
                name = instr.dest.name
                defs_in_loop[name] = defs_in_loop.get(name, 0) + 1

    candidates: list[tuple[Block, Instr]] = []
    for block in body:
        for instr in block.instrs:
            if _is_hoistable(instr, loop, defs_in_loop, liveness):
                candidates.append((block, instr))
    if not candidates:
        return False

    preheader = _ensure_preheader(func, loop)
    if preheader is None:
        return False
    anchor = preheader.terminator
    for block, instr in candidates:
        block.remove(instr)
        preheader.insert_before(anchor, instr)
    func.invalidate_cfg()
    return True


def _is_hoistable(instr: Instr, loop: Loop, defs_in_loop: dict[str, int],
                  liveness: Callable[[], Liveness]) -> bool:
    if instr.opcode not in PURE_OPS or instr.dest is None:
        return False
    self_extend = instr.is_self_extend
    for src in instr.srcs:
        inside = defs_in_loop.get(src.name, 0)
        if self_extend and src.name == instr.dest.name:
            inside -= 1  # the instruction's own definition
        if inside > 0:
            return False
    if defs_in_loop.get(instr.dest.name, 0) != 1:
        return False
    if self_extend:
        return True
    # The destination must be dead on loop entry, else hoisting would
    # clobber a value the loop (or a zero-trip exit) still reads.
    return not _live_into_header(loop, liveness, instr.dest.name)


def _live_into_header(loop: Loop, liveness: Callable[[], Liveness],
                      reg_name: str) -> bool:
    solved = liveness()
    bit = solved.index_of.get(reg_name)
    if bit is None:
        return False
    return bool(solved.live_in(loop.header.label) & (1 << bit))


def _ensure_preheader(func: Function, loop: Loop) -> Block | None:
    """The unique out-of-loop predecessor of the header, creating a
    dedicated preheader block when necessary."""
    header = loop.header
    outside = [p for p in header.preds if p.label not in loop.body]
    if not outside:
        return None
    if (len(outside) == 1 and len(outside[0].succs) == 1
            and outside[0].terminator.opcode is Opcode.JMP):
        return outside[0]

    preheader = func.new_block("preheader")
    preheader.append(Instr(Opcode.JMP, None, (), targets=(header.label,)))
    for pred in outside:
        terminator = pred.terminator
        terminator.targets = tuple(
            preheader.label if t == header.label else t
            for t in terminator.targets
        )
    func.invalidate_cfg()
    func.build_cfg()
    return preheader
