"""Phase (3)-1: sign-extension insertion (Section 2.1).

Two kinds of insertions:

* **Requiring-use insertion** (the simple algorithm): an
  ``r = extend32(r)`` immediately before every instruction that requires
  a canonical value, unless the operand is obviously extended.  Together
  with order determination this is what moves extensions out of loops:
  the in-loop extension becomes removable because the freshly inserted
  one downstream covers the requirement (Figures 7 and 8).  Following
  the paper, this runs only on functions that contain a loop.
* **Dummy markers**: ``i = just_extended(i)`` after every array access
  whose index register survives the access.  A bounds-checked index is
  guaranteed canonical (it is in ``[0, maxlen)``), and the marker
  definition lets UD-chain reasoning use that fact.  Markers are removed
  once elimination finishes.
"""

from __future__ import annotations

from ..analysis.dominators import DominatorTree
from ..analysis.ud_du import Chains
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import Opcode, Role
from ..ir.semantics import UseKind, canonical_bits, classify_use
from ..ir.types import ScalarType
from ..machine.model import MachineTraits


def function_has_loop(func: Function) -> bool:
    func.build_cfg()
    domtree = DominatorTree(func)
    for block in func.blocks:
        for succ in block.succs:
            if domtree.dominates(succ, block):
                return True
    return False


def insert_before_requiring_uses(func: Function, traits: MachineTraits) -> int:
    """The simple insertion algorithm; returns insertions made."""
    if not function_has_loop(func):
        return 0
    chains = Chains(func)
    inserted = 0
    for block in func.blocks:
        rewritten: list[Instr] = []
        for instr in block.instrs:
            placed_here: set[str] = set()
            for index, src in enumerate(instr.srcs):
                if src.type is not ScalarType.I32:
                    continue
                if classify_use(instr, index, traits) is not UseKind.REQUIRES:
                    continue
                if src.name in placed_here:
                    continue
                if _obviously_extended(chains, instr, index, traits):
                    continue
                previous = rewritten[-1] if rewritten else None
                if (previous is not None and previous.opcode is Opcode.EXTEND32
                        and previous.is_self_extend
                        and previous.dest.name == src.name):
                    continue
                rewritten.append(
                    Instr(Opcode.EXTEND32, src, (src,), comment="inserted")
                )
                placed_here.add(src.name)
                inserted += 1
            rewritten.append(instr)
        block.instrs = rewritten
    if inserted:
        func.invalidate_cfg()
    return inserted


def insert_dummy_markers(func: Function) -> int:
    """Insert ``just_extended`` markers after array accesses."""
    inserted = 0
    for block in func.blocks:
        rewritten: list[Instr] = []
        for instr in block.instrs:
            rewritten.append(instr)
            if instr.opcode not in (Opcode.ALOAD, Opcode.ASTORE):
                continue
            index_reg = None
            for operand_index, src in enumerate(instr.srcs):
                if instr.role_of(operand_index) is Role.ARRAY_INDEX:
                    index_reg = src
                    break
            if index_reg is None or index_reg.type is not ScalarType.I32:
                continue
            # "unless an array index is overwritten immediately, as in
            # the case of i = a[i]"
            if instr.dest is not None and instr.dest.name == index_reg.name:
                continue
            if instr.is_terminator:
                continue
            rewritten.append(
                Instr(Opcode.JUST_EXTENDED, index_reg, (index_reg,),
                      comment="dummy")
            )
            inserted += 1
        block.instrs = rewritten
    if inserted:
        func.invalidate_cfg()
    return inserted


def remove_dummy_markers(func: Function) -> int:
    """Drop all remaining ``just_extended`` markers (end of phase 3)."""
    removed = 0
    for block in func.blocks:
        kept = [i for i in block.instrs if i.opcode is not Opcode.JUST_EXTENDED]
        removed += len(block.instrs) - len(kept)
        block.instrs = kept
    if removed:
        func.invalidate_cfg()
    return removed


def _obviously_extended(chains: Chains, instr: Instr, index: int,
                        traits: MachineTraits) -> bool:
    """Conservative "obviously sign-extended" check.

    Definitions that are themselves ``extend`` instructions do NOT count:
    they are elimination candidates, and the whole point of insertion is
    to place a covering extension near the use so that a hotter upstream
    one can be removed (Figure 7 inserts (11) even though (9) exists).
    """
    defs = chains.defs_for(instr, index)
    if not defs:
        return False
    for definition in defs:
        if definition.is_param:
            if not traits.abi_canonical_args:
                return False
            continue
        if definition.instr.is_extend:
            return False
        guaranteed = canonical_bits(definition.instr, traits)
        if guaranteed is None or guaranteed > 32:
            return False
    return True
