"""Step 1 of Figure 5: conversion for a 64-bit architecture.

The input IR is "32-bit form": every ``i32`` register conceptually
holds a true 32-bit value.  Conversion rewrites it to machine form,
where registers are physically 64 bits wide and explicit ``extend``
instructions maintain the invariants the machine needs:

* **gen-def** (the paper's choice, Figure 6(b)): after every definition
  of a narrow integer register, insert ``r = extendK(r)`` unless the
  defining instruction already guarantees a canonical value at width K.
  K is 32 for ordinary ``int`` computations and 8/16 for narrow loads
  whose machine load instruction does not sign-extend (the *semantic*
  extensions: a zero-extended byte load needs ``extend8`` to produce the
  Java ``byte`` value).
* **gen-use** (Figure 6(c), the reference): only the semantic sub-32-bit
  extensions are placed after definitions; 32-bit extensions are instead
  placed immediately before every use that requires a canonical value,
  unless every reaching definition is already guaranteed canonical.
"""

from __future__ import annotations

from ..analysis.ud_du import Chains
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import EXTEND_BITS, Opcode
from ..ir.semantics import (
    UseKind,
    canonical_bits,
    classify_use,
    propagates_canonical,
)
from ..ir.types import ScalarType
from ..machine.model import MachineTraits
from .config import Placement


def convert_function(func: Function, traits: MachineTraits,
                     placement: Placement = Placement.GEN_DEF) -> None:
    if placement is Placement.GEN_DEF:
        _insert_after_defs(func, traits, semantic_only=False)
    else:
        _insert_after_defs(func, traits, semantic_only=True)
        _insert_before_uses(func, traits)
    func.invalidate_cfg()


def _semantic_extend(instr: Instr) -> Opcode:
    """The extension that gives the destination its semantic value."""
    if instr.opcode in (Opcode.ALOAD, Opcode.GLOAD):
        if instr.elem is ScalarType.I8:
            return Opcode.EXTEND8
        if instr.elem is ScalarType.I16:
            return Opcode.EXTEND16
        # u16 (char) semantically zero-extends, which every machine's
        # narrow load already provides; treat as a 32-bit value.
    return Opcode.EXTEND32


def _insert_after_defs(func: Function, traits: MachineTraits,
                       semantic_only: bool) -> None:
    for block in func.blocks:
        rewritten: list[Instr] = []
        for instr in block.instrs:
            rewritten.append(instr)
            dest = instr.dest
            if dest is None or dest.type is not ScalarType.I32:
                continue
            if instr.is_extend or instr.opcode is Opcode.JUST_EXTENDED:
                continue
            extend = _semantic_extend(instr)
            width = EXTEND_BITS[extend]
            if semantic_only and width >= 32:
                continue
            if not semantic_only and propagates_canonical(instr.opcode):
                # Inductive invariant of gen-def conversion: every value
                # is canonical after its (extended) definition, so copies
                # and bitwise ops of canonical values stay canonical.
                continue
            guaranteed = canonical_bits(instr, traits)
            if guaranteed is not None and guaranteed <= width:
                continue
            rewritten.append(Instr(extend, dest, (dest,), comment="convert64"))
        block.instrs = rewritten


def _insert_before_uses(func: Function, traits: MachineTraits) -> None:
    """Gen-use placement: an ``extend32`` before each requiring use."""
    chains = Chains(func)
    for block in func.blocks:
        rewritten: list[Instr] = []
        for instr in block.instrs:
            extended_here: set[str] = set()
            for index, src in enumerate(instr.srcs):
                if src.type is not ScalarType.I32:
                    continue
                kind = classify_use(instr, index, traits)
                if kind not in (UseKind.REQUIRES, UseKind.ARRAY_INDEX):
                    continue
                if src.name in extended_here:
                    continue
                if _defs_all_canonical(chains, instr, index, traits):
                    continue
                rewritten.append(
                    Instr(Opcode.EXTEND32, src, (src,), comment="gen-use")
                )
                extended_here.add(src.name)
            rewritten.append(instr)
        block.instrs = rewritten


def _defs_all_canonical(chains: Chains, instr: Instr, index: int,
                        traits: MachineTraits) -> bool:
    defs = chains.defs_for(instr, index)
    if not defs:
        return False
    for definition in defs:
        if definition.is_param:
            if not traits.abi_canonical_args:
                return False
            continue
        guaranteed = canonical_bits(definition.instr, traits)
        if guaranteed is None or guaranteed > 32:
            return False
    return True
