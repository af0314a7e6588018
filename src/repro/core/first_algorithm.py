"""The paper's *first algorithm*: backward-dataflow elimination.

After gen-def conversion, a 32-bit sign extension ``r = extend32(r)``
can be removed when the upper 32 bits of ``r`` are not needed on any
path after it (before any redefinition).  NEED is a backward, union,
per-register demand analysis:

* a REQUIRES use (``i2d``, division, a call argument, ...) demands its
  operand;
* an array-index use demands its operand — the first algorithm cannot
  reason about effective addresses, which is its headline limitation;
* a Case-2 use (addition, ...) demands the operand iff the destination
  is demanded after the instruction;
* any definition of ``r`` cancels the demand below it.

The transfer function is demand-coupled (Case 2), so blocks are
processed with an exact backward walk inside a fixpoint over the CFG
rather than with gen/kill summaries.
"""

from __future__ import annotations

from ..analysis.cfg import postorder
from ..ir.function import Function
from ..ir.instruction import Instr
from ..ir.opcodes import Opcode
from ..ir.semantics import UseKind, classify_use
from ..ir.types import ScalarType
from ..machine.model import MachineTraits


class _NeedAnalysis:
    def __init__(self, func: Function, traits: MachineTraits) -> None:
        self.func = func
        self.traits = traits
        names: set[str] = set()
        for _, instr in func.instructions():
            if instr.dest is not None and instr.dest.type is ScalarType.I32:
                names.add(instr.dest.name)
            for src in instr.srcs:
                if src.type is ScalarType.I32:
                    names.add(src.name)
        self.bit_of = {name: 1 << i for i, name in enumerate(sorted(names))}
        self.masked_uses = _find_masking_and_uses(func)
        self.need_out: dict[str, int] = {b.label: 0 for b in func.blocks}
        self.need_in: dict[str, int] = {b.label: 0 for b in func.blocks}
        self._solve()

    def step(self, instr: Instr, need_after: int) -> int:
        """Exact backward transfer of one instruction."""
        result = need_after
        dest_needed = False
        dest = instr.dest
        if dest is not None and dest.type is ScalarType.I32:
            bit = self.bit_of[dest.name]
            dest_needed = bool(result & bit)
            result &= ~bit
        for index, src in enumerate(instr.srcs):
            if src.type is not ScalarType.I32:
                continue
            kind = classify_use(instr, index, self.traits)
            if kind is UseKind.REQUIRES or kind is UseKind.ARRAY_INDEX:
                result |= self.bit_of[src.name]
            elif kind is UseKind.PROPAGATES and dest_needed:
                if (instr.uid, index) in self.masked_uses:
                    continue  # AND with a positive constant: Case 1
                result |= self.bit_of[src.name]
        return result

    def _block_in(self, label: str) -> int:
        block = self.func.block(label)
        need = self.need_out[label]
        for instr in reversed(block.instrs):
            need = self.step(instr, need)
        return need

    def _solve(self) -> None:
        self.func.build_cfg()
        order = postorder(self.func)
        changed = True
        while changed:
            changed = False
            for block in order:
                out = 0
                for succ in block.succs:
                    out |= self.need_in[succ.label]
                if out != self.need_out[block.label]:
                    self.need_out[block.label] = out
                new_in = self._block_in(block.label)
                if new_in != self.need_in[block.label]:
                    self.need_in[block.label] = new_in
                    changed = True


def _find_masking_and_uses(func: Function) -> set[tuple[int, int]]:
    """(instr uid, operand index) pairs where an AND32's other operand
    is a non-negative 32-bit constant: the mask discards the operand's
    upper bits, so the use never demands a canonical value (the paper's
    Figure 3, statement (6))."""
    from ..analysis.ud_du import Chains
    from ..ir.types import INT32_MAX

    masked: set[tuple[int, int]] = set()
    chains = Chains(func)
    for _, instr in func.instructions():
        if instr.opcode is not Opcode.AND32:
            continue
        for index in (0, 1):
            value = chains.const_of(instr, 1 - index)
            if isinstance(value, int) and 0 <= value <= INT32_MAX:
                masked.add((instr.uid, index))
    return masked


def run_first_algorithm(func: Function, traits: MachineTraits) -> int:
    """Remove extends the backward analysis proves unneeded.

    Returns the number of extensions removed.
    """
    analysis = _NeedAnalysis(func, traits)
    removed = 0
    for block in func.blocks:
        need = analysis.need_out[block.label]
        keep: list[Instr] = []
        for instr in reversed(block.instrs):
            if instr.opcode is Opcode.EXTEND32 and instr.is_self_extend:
                bit = analysis.bit_of[instr.dest.name]
                if not need & bit:
                    removed += 1
                    need = analysis.step(instr, need)
                    continue
            need = analysis.step(instr, need)
            keep.append(instr)
        keep.reverse()
        block.instrs = keep
    if removed:
        func.invalidate_cfg()
    return removed
