"""Value-range analysis of 32-bit integer registers.

Section 3 of the paper: "These theorems depend on knowledge of the value
range, which can be determined at compile time using one of the value
range analysis techniques [4, 7]."

This implementation computes, per definition, a conservative interval of
the *semantic signed 32-bit value* the register carries, by structural
recursion over UD chains.  Cycles (loop-carried values) go to TOP, and
any arithmetic whose interval could leave the signed 32-bit range goes
to TOP (wraparound makes the interval meaningless).  So does a
definition more than ``MAX_CHAIN_DEPTH`` links up the chain being
followed, which keeps the recursion bounded however long a chain of
dependent operations is.  The result is always an over-approximation,
which keeps the theorems sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instruction import Instr
from ..ir.opcodes import EXTEND_BITS, EXTEND_OPS, Opcode
from ..ir.types import INT32_MAX, INT32_MIN, sign_extend
from ..machine.model import MachineTraits
from .ud_du import Chains, Definition


@dataclass(frozen=True)
class Interval:
    """A closed interval of signed 32-bit values."""

    lo: int
    hi: int

    @property
    def is_top(self) -> bool:
        return self.lo <= INT32_MIN and self.hi >= INT32_MAX

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def within(self, lo: int, hi: int) -> bool:
        return lo <= self.lo and self.hi <= hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.lo}, {self.hi}]"


TOP = Interval(INT32_MIN, INT32_MAX)

#: Definitions followed up one use-def chain before answering TOP.  A
#: link costs three to six Python frames, so the analysis stays well
#: inside CPython's default recursion limit and its answer never depends
#: on that limit.
MAX_CHAIN_DEPTH = 64


def _clamped(lo: int, hi: int) -> Interval:
    """Interval if it fits in the signed 32-bit range, else TOP."""
    if lo < INT32_MIN or hi > INT32_MAX or lo > hi:
        return TOP
    return Interval(lo, hi)


class ValueRanges:
    """Memoized per-definition interval computation over UD chains."""

    def __init__(self, chains: Chains, traits: MachineTraits,
                 max_array_length: int = INT32_MAX) -> None:
        self.chains = chains
        self.traits = traits
        self.max_array_length = max_array_length
        self._memo: dict[int, Interval] = {}  # Definition.index -> Interval
        self._visiting: set[int] = set()

    # -- public API -----------------------------------------------------------

    def range_of_use(self, instr: Instr, operand_index: int) -> Interval:
        """Interval of an operand: union over its reaching definitions."""
        defs = self.chains.defs_for(instr, operand_index)
        if not defs:
            return TOP
        result: Interval | None = None
        for definition in defs:
            interval = self.range_of_def(definition)
            result = interval if result is None else result.union(interval)
            if result.is_top:
                return TOP
        return result if result is not None else TOP

    def range_of_def(self, definition: Definition) -> Interval:
        if definition.is_param:
            return TOP
        cached = self._memo.get(definition.index)
        if cached is not None:
            return cached
        if definition.index in self._visiting \
                or len(self._visiting) >= MAX_CHAIN_DEPTH:
            return TOP  # loop-carried, or too far up the chain
        self._visiting.add(definition.index)
        try:
            interval = self._evaluate(definition.instr)
        finally:
            self._visiting.discard(definition.index)
        self._memo[definition.index] = interval
        return interval

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, instr: Instr) -> Interval:
        opcode = instr.opcode
        if opcode is Opcode.CONST:
            if isinstance(instr.imm, int):
                value = sign_extend(instr.imm, 32)
                return Interval(value, value)
            return TOP
        if opcode is Opcode.MOV:
            return self.range_of_use(instr, 0)
        if opcode is Opcode.JUST_EXTENDED:
            # A bounds-checked array index: in [0, maxlen - 1].
            return Interval(0, max(0, self.max_array_length - 1))
        if opcode is Opcode.ARRAYLEN:
            return Interval(0, self.max_array_length)
        if opcode in (Opcode.CMP32, Opcode.CMP64, Opcode.CMPF):
            return Interval(0, 1)
        if opcode in EXTEND_OPS:
            bits = EXTEND_BITS[opcode]
            src = self.range_of_use(instr, 0)
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            if src.within(lo, hi):
                return src
            return Interval(lo, hi)
        if opcode in (Opcode.ZEXT8, Opcode.ZEXT16):
            bits = EXTEND_BITS[opcode]
            src = self.range_of_use(instr, 0)
            if src.within(0, (1 << bits) - 1):
                return src
            return Interval(0, (1 << bits) - 1)
        if opcode is Opcode.ADD32:
            induction = self._induction_range(instr)
            if induction is not None:
                return induction
            a = self.range_of_use(instr, 0)
            b = self.range_of_use(instr, 1)
            return _clamped(a.lo + b.lo, a.hi + b.hi)
        if opcode is Opcode.SUB32:
            induction = self._induction_range(instr)
            if induction is not None:
                return induction
            a = self.range_of_use(instr, 0)
            b = self.range_of_use(instr, 1)
            return _clamped(a.lo - b.hi, a.hi - b.lo)
        if opcode is Opcode.NEG32:
            a = self.range_of_use(instr, 0)
            return _clamped(-a.hi, -a.lo)
        if opcode is Opcode.MUL32:
            a = self.range_of_use(instr, 0)
            b = self.range_of_use(instr, 1)
            if a.is_top or b.is_top:
                return TOP
            corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
            return _clamped(min(corners), max(corners))
        if opcode is Opcode.AND32:
            for operand in (0, 1):
                value = self.chains.const_of(instr, operand)
                if isinstance(value, int) and 0 <= value <= INT32_MAX:
                    return Interval(0, value)
            a = self.range_of_use(instr, 0)
            b = self.range_of_use(instr, 1)
            if a.lo >= 0 and b.lo >= 0:
                return Interval(0, min(a.hi, b.hi))
            return TOP
        if opcode is Opcode.USHR32:
            amount = self.chains.const_of(instr, 1)
            if isinstance(amount, int):
                amount &= 31
                if amount > 0:
                    return Interval(0, (1 << (32 - amount)) - 1)
            return TOP
        if opcode is Opcode.SHR32:
            amount = self.chains.const_of(instr, 1)
            src = self.range_of_use(instr, 0)
            if isinstance(amount, int):
                amount &= 31
                return Interval(src.lo >> amount, src.hi >> amount)
            return Interval(min(src.lo, -1) if src.lo < 0 else 0,
                            max(src.hi, 0) if src.hi > 0 else 0)
        if opcode is Opcode.REM32:
            divisor = self.chains.const_of(instr, 1)
            if isinstance(divisor, int) and divisor != 0:
                bound = abs(sign_extend(divisor, 32)) - 1
                dividend = self.range_of_use(instr, 0)
                lo = 0 if dividend.lo >= 0 else -bound
                return Interval(lo, bound)
            return TOP
        if opcode is Opcode.DIV32:
            divisor = self.chains.const_of(instr, 1)
            dividend = self.range_of_use(instr, 0)
            if (isinstance(divisor, int) and divisor > 0
                    and not dividend.is_top):
                lows = [dividend.lo // divisor, dividend.hi // divisor]
                # Java division truncates toward zero; bound loosely.
                return _clamped(min(lows) - 1, max(lows) + 1)
            return TOP
        return TOP

    # -- guarded induction variables ------------------------------------------

    def _induction_range(self, instr: Instr) -> Interval | None:
        """Range of a guarded induction-variable step ``k = k + c``.

        This is the loop-counter case the paper's cited range analyses
        [Blume-Eigenmann, Harrison] handle: a register whose only
        cyclic definition is a constant step, where every cyclic path
        back to the step crosses a comparison edge bounding the
        register in the step's direction.  Then

        * every value the register ever holds is bounded below by the
          non-step definitions (for a positive step; symmetrically for
          a negative one), and
        * every pre-step value either comes straight from a non-step
          definition or has passed the guard since it was last defined,

        so the post-step value lies in
        ``[init.lo + c, max(init.hi, guard_bound) + c]`` (positive
        step) or ``[min(init.lo, guard_bound) + c, init.hi + c]``
        (negative step).
        """
        dest = instr.dest
        if dest is None or not instr.srcs or instr.srcs[0].name != dest.name:
            return None
        step = self.chains.const_of(instr, 1)
        if not isinstance(step, int):
            return None
        step = sign_extend(step, 32)
        if instr.opcode is Opcode.SUB32:
            step = -step
        if step == 0 or abs(step) > (1 << 20):
            return None

        init = self._non_step_range(dest.name, instr)
        if init is None or init.is_top:
            return None

        bound = self._guard_bound(dest.name, instr, upper=step > 0)
        if bound is None:
            return None
        if step > 0:
            return _clamped(init.lo + step, max(init.hi, bound) + step)
        return _clamped(min(init.lo, bound) + step, init.hi + step)

    def _non_step_range(self, reg_name: str, step_instr: Instr) -> Interval | None:
        """Union of the ranges of every other definition of the register.

        Any definition whose range depends on the step (a mutual cycle)
        evaluates to TOP here because the step is already on the
        visiting stack, which safely rejects irregular loops.
        """
        result: Interval | None = None
        found = False
        for definition in self.chains.definitions:
            if definition.reg.name != reg_name:
                continue
            if definition.instr is step_instr:
                continue
            if self._is_value_preserving_self_def(definition.instr, reg_name):
                # ``k = extend32 k`` / ``k = just_extended k``: the
                # 32-bit semantic value is unchanged, so the definition
                # contributes nothing beyond the defs it forwards.
                continue
            found = True
            interval = self.range_of_def(definition)
            if interval.is_top:
                return None
            result = interval if result is None else result.union(interval)
        if not found:
            return None
        return result

    @staticmethod
    def _is_value_preserving_self_def(instr: Instr | None,
                                      reg_name: str) -> bool:
        return (
            instr is not None
            and instr.opcode in (Opcode.EXTEND32, Opcode.JUST_EXTENDED,
                                 Opcode.MOV)
            and len(instr.srcs) == 1
            and instr.srcs[0].name == reg_name
        )

    def _guard_bound(self, reg_name: str, step_instr: Instr,
                     upper: bool) -> int | None:
        """A bound on the register enforced on every cyclic path back to
        the step instruction, discovered from compare-and-branch guards.
        """
        step_block = self.chains.block_of(step_instr)
        func = self.chains.func
        func.build_cfg()
        for block in func.blocks:
            for position, cmp_instr in enumerate(block.instrs):
                if cmp_instr.opcode is not Opcode.CMP32 \
                        or cmp_instr.cond is None \
                        or cmp_instr.cond.is_unsigned:
                    continue
                bound_value = self._cmp_bound(cmp_instr, reg_name, upper)
                if bound_value is None:
                    continue
                cond_holds_edge, cond_fails_edge = self._branch_edges(
                    block, position, cmp_instr
                )
                if cond_holds_edge is None:
                    continue
                edge = (cond_holds_edge if bound_value[1]
                        else cond_fails_edge)
                if edge is None:
                    continue
                if not self._cycles_pass_edge(step_block, edge):
                    continue
                return bound_value[0]
        return None

    def _cmp_bound(self, cmp_instr: Instr, reg_name: str,
                   upper: bool) -> tuple[int, bool] | None:
        """(bound, on_true_edge) if this compare bounds the register.

        ``on_true_edge`` says whether the bound holds when the compare
        is true (vs when it is false).
        """
        from ..ir.opcodes import Cond

        cond = cmp_instr.cond
        names = [s.name for s in cmp_instr.srcs]
        if reg_name not in names:
            return None
        index = names.index(reg_name)
        if index == 1:
            cond = cond.swap()  # normalize to (reg COND other)
        other = 1 - index
        other_range = self.range_of_use(cmp_instr, other)
        if other_range.is_top:
            return None
        if upper:
            if cond is Cond.LT:
                return (other_range.hi - 1, True)
            if cond is Cond.LE:
                return (other_range.hi, True)
            if cond is Cond.GT:
                return (other_range.hi, False)  # !(reg > b) => reg <= b
            if cond is Cond.GE:
                return (other_range.hi - 1, False)
            return None
        if cond is Cond.GT:
            return (other_range.lo + 1, True)
        if cond is Cond.GE:
            return (other_range.lo, True)
        if cond is Cond.LT:
            return (other_range.lo, False)  # !(reg < b) => reg >= b
        if cond is Cond.LE:
            return (other_range.lo + 1, False)
        return None

    def _branch_edges(self, block, position: int, cmp_instr: Instr):
        """(true_edge, false_edge) when the compare directly feeds this
        block's conditional branch; edges are (block_label, succ_label).
        """
        terminator = block.instrs[-1]
        if terminator.opcode is not Opcode.BR:
            return (None, None)
        if not terminator.srcs or terminator.srcs[0].name != \
                (cmp_instr.dest.name if cmp_instr.dest else None):
            return (None, None)
        # The compare must be the branch condition's last definition in
        # this block.
        for later in block.instrs[position + 1:]:
            if later.dest is not None \
                    and later.dest.name == cmp_instr.dest.name:
                return (None, None)
        return (
            (block.label, terminator.targets[0]),
            (block.label, terminator.targets[1]),
        )

    def _cycles_pass_edge(self, step_block, edge: tuple[str, str]) -> bool:
        """True when removing ``edge`` breaks every cycle through the
        step's block (i.e. the guard is crossed each iteration)."""
        func = self.chains.func
        seen: set[str] = set()
        stack = []
        for succ in step_block.succs:
            if (step_block.label, succ.label) != edge:
                stack.append(succ)
        while stack:
            block = stack.pop()
            if block.label in seen:
                continue
            if block is step_block:
                return False  # found an unguarded cycle
            seen.add(block.label)
            for succ in block.succs:
                if (block.label, succ.label) != edge:
                    stack.append(succ)
        return True
