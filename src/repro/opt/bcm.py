"""Busy code motion: classic PRE with earliest down-safe placement.

The paper's step 2 "employ[s] a variant of the partial redundancy
elimination algorithm [12, 13, 14] for common sub-expression
elimination".  The default pipeline uses the GCSE + LICM combination
(equivalent power on these workloads, simpler to reason about); this
module provides the textbook alternative — Knoop/Rüthing/Steffen-style
code motion with *earliest* (busy) placement — for study and for the
``benchmarks/test_ablation_pre.py`` comparison.

Formulation (bit vectors over lexical expressions):

* ``ANTIN/ANTOUT`` — down-safety (backward, intersect): the expression
  is computed on every path before its operands change.
* ``AVIN/AVOUT`` — availability (forward, intersect).
* ``EARLIEST(i, j) = ANTIN(j) & ~AVOUT(i) & (~TRANSP(i) | ~ANTOUT(i))``
  — the first down-safe edges where the value is not already available.

Both are :class:`~repro.analysis.dataflow.DataflowProblem` instances
over the :class:`~repro.opt.expr.ExprUniverse` bits, with ``TRANSP`` the
complement of the kill set.

Insertion splits each earliest edge and computes the expression into a
fresh temporary there; full-redundancy cleanup (GCSE + copy propagation
+ DCE) then rewrites the now-available original computations.  Because
every insertion point is down-safe, no computation is speculated and no
path executes more evaluations than before.
"""

from __future__ import annotations

from ..analysis.dataflow import DataflowProblem, Direction, Meet, bit_indices
from ..ir.block import Block
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import RESULT_TYPE, Opcode
from .expr import ExprUniverse, all_computations, expr_key
from .dce import eliminate_dead_code
from .copy_prop import propagate_copies
from .gcse import eliminate_common_subexpressions


def busy_code_motion(func: Function) -> bool:
    """Run one round of BCM-style PRE; returns True when code changed."""
    func.build_cfg()
    universe = ExprUniverse(all_computations(func))
    if not universe:
        return False
    full = (1 << len(universe)) - 1

    # ANTLOC and COMP are the two problems' gen sets.
    ant = DataflowProblem(func, Direction.BACKWARD, Meet.INTERSECT,
                          len(universe), boundary=0)
    av = DataflowProblem(func, Direction.FORWARD, Meet.INTERSECT,
                         len(universe), boundary=0)
    for block in func.blocks:
        killed = 0  # expressions whose operands were defined so far
        local_antloc = 0
        available = 0
        for instr in block.instrs:
            key = expr_key(instr)
            if key is not None:
                local_antloc |= (1 << universe.bits[key]) & ~killed
            kill = universe.kill_mask(instr, key)
            killed |= kill
            available = (available & ~kill) | universe.gen_mask(instr, key)
        ant.facts_for(block).gen = local_antloc
        ant.facts_for(block).kill = killed
        av.facts_for(block).gen = available
        av.facts_for(block).kill = killed
    ant.solve()
    av.solve()

    insertions: list[tuple[Block, Block, int]] = []
    for block in func.blocks:
        facts = ant.facts_for(block)
        for succ in block.succs:
            earliest = (
                ant.facts_for(succ).in_
                & ~av.facts_for(block).out
                & (facts.kill | ~facts.out)  # ~TRANSP | ~ANTOUT
                & full
            )
            if earliest:
                insertions.append((block, succ, earliest))

    # Virtual entry edge: expressions down-safe at function entry are
    # earliest right there (nothing is available on entry).
    entry = ant.facts_for(func.entry)
    entry_bits = entry.in_ & ~entry.gen & full

    keys = list(universe.bits)

    def compute_into_temp(index: int) -> Instr:
        computed = universe.exemplar[keys[index]].copy()
        computed.dest = func.new_reg(RESULT_TYPE[computed.opcode], "pre")
        return computed

    for position, index in enumerate(bit_indices(entry_bits)):
        func.entry.instrs.insert(position, compute_into_temp(index))
    for pred, succ, bits in insertions:
        split = func.new_block("pre")
        for index in bit_indices(bits):
            split.append(compute_into_temp(index))
        split.append(Instr(Opcode.JMP, None, (), targets=(succ.label,)))
        terminator = pred.terminator
        # Retarget only one occurrence: BR may name the same successor
        # twice, and each edge was considered separately.
        new_targets = list(terminator.targets)
        new_targets[new_targets.index(succ.label)] = split.label
        terminator.targets = tuple(new_targets)
    func.invalidate_cfg()

    # Full-redundancy cleanup makes the inserted values flow into the
    # original computations (and handles plain CSE when nothing was
    # inserted at all).
    changed = bool(insertions) or bool(entry_bits)
    changed |= eliminate_common_subexpressions(func)
    changed |= propagate_copies(func)
    changed |= eliminate_dead_code(func)
    func.drop_unreachable_blocks()
    return changed
