"""The PDE-variant insertion algorithm (Section 2.1, evaluated as
"all, using PDE").

"This algorithm inserts a sign extension at the latest point on every
possible path where each sign extension can be reached when it is moved
forward in the control flow graph."

Implementation: a forward *delay* analysis per register.  An existing
``r = extend32(r)`` turns into a pending extension that flows forward;
it materializes immediately before a use that requires a canonical
value, dies at a redefinition of ``r`` (the partial-dead-code win), and
must materialize at the end of a block whose successor cannot assume it
(some other predecessor is not pending — the paper's Figure 15 drawback:
the sunk extension is re-executed on paths that would not have needed
it, or blocks sinking altogether).
"""

from __future__ import annotations

from ..analysis.dataflow import DataflowProblem, Direction, Meet
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import Opcode
from ..ir.semantics import UseKind, classify_use
from ..ir.types import ScalarType
from ..machine.model import MachineTraits


def run_pde_insertion(func: Function,
                      traits: MachineTraits) -> tuple[int, int]:
    """Sink extensions forward; returns ``(placed, removed)``: the
    extensions materialized and the original ones they subsume."""
    func.build_cfg()
    regs: list[str] = []
    for _, instr in func.instructions():
        if (instr.opcode is Opcode.EXTEND32 and instr.is_self_extend
                and instr.dest.name not in regs):
            regs.append(instr.dest.name)
    if not regs:
        return 0, 0
    bit_of = {name: 1 << i for i, name in enumerate(regs)}
    tracked = set(regs)

    problem = DataflowProblem(
        func, Direction.FORWARD, Meet.INTERSECT, len(regs), boundary=0
    )
    for block in func.blocks:
        facts = problem.facts_for(block)
        pending = 0  # generated locally
        transparent = (1 << len(regs)) - 1
        for instr in block.instrs:
            for name in _needing_uses(instr, traits, tracked):
                pending &= ~bit_of[name]
                transparent &= ~bit_of[name]
            if instr.opcode is Opcode.EXTEND32 and instr.is_self_extend:
                pending |= bit_of[instr.dest.name]
                transparent &= ~bit_of[instr.dest.name]
            elif instr.dest is not None and instr.dest.name in tracked:
                pending &= ~bit_of[instr.dest.name]
                transparent &= ~bit_of[instr.dest.name]
        facts.gen = pending
        facts.kill = ((1 << len(regs)) - 1) & ~transparent
    problem.solve()

    removed = 0
    inserted = 0
    for block in func.blocks:
        pending = problem.facts_for(block).in_
        rewritten: list[Instr] = []
        for instr in block.instrs:
            for name in _needing_uses(instr, traits, tracked):
                if pending & bit_of[name]:
                    reg = _operand_named(instr, name)
                    rewritten.append(
                        Instr(Opcode.EXTEND32, reg, (reg,), comment="pde")
                    )
                    inserted += 1
                    pending &= ~bit_of[name]
            if instr.opcode is Opcode.EXTEND32 and instr.is_self_extend:
                pending |= bit_of[instr.dest.name]
                removed += 1
                continue  # the original extension is subsumed by pending
            if instr.dest is not None and instr.dest.name in tracked:
                pending &= ~bit_of[instr.dest.name]
            rewritten.append(instr)
        # Materialize pendings that a successor cannot assume.
        must_place = 0
        for succ in block.succs:
            must_place |= pending & ~problem.facts_for(succ).in_
        if not block.succs:
            must_place = 0  # function exit: the value's upper bits are dead
        terminator = rewritten.pop() if rewritten and rewritten[-1].is_terminator else None
        for name, bit in bit_of.items():
            if must_place & bit:
                reg = _find_reg(func, name)
                rewritten.append(
                    Instr(Opcode.EXTEND32, reg, (reg,), comment="pde edge")
                )
                inserted += 1
        if terminator is not None:
            rewritten.append(terminator)
        block.instrs = rewritten

    func.invalidate_cfg()
    return inserted, removed


def _needing_uses(instr: Instr, traits: MachineTraits,
                  tracked: set[str]) -> list[str]:
    """Uses a pending extension cannot sink past.

    REQUIRES and ARRAY_INDEX uses read the upper bits outright.  A
    PROPAGATES use (copy, addition, ...) transfers the operand's upper
    bits into another register, so sinking past it would change that
    register; the pending extension materializes before it.  Only
    upper-bit-ignoring uses are transparent.
    """
    names: list[str] = []
    for index, src in enumerate(instr.srcs):
        if src.type is not ScalarType.I32 or src.name not in tracked:
            continue
        kind = classify_use(instr, index, traits)
        if kind in (UseKind.REQUIRES, UseKind.ARRAY_INDEX,
                    UseKind.PROPAGATES):
            if src.name not in names:
                names.append(src.name)
    return names


def _operand_named(instr: Instr, name: str):
    for src in instr.srcs:
        if src.name == name:
            return src
    raise ValueError(f"{name} not an operand of {instr}")


def _find_reg(func: Function, name: str):
    for param in func.params:
        if param.name == name:
            return param
    for _, instr in func.instructions():
        if instr.dest is not None and instr.dest.name == name:
            return instr.dest
        for src in instr.srcs:
            if src.name == name:
                return src
    raise ValueError(f"unknown register {name}")