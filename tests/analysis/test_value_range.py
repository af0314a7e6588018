"""Tests for the value-range analysis."""

from repro.analysis import Chains, Interval, TOP, ValueRanges
from repro.ir import (
    Cond,
    Instr,
    Opcode,
    Program,
    ScalarType,
    build_function,
)
from repro.ir.types import INT32_MAX, INT32_MIN
from repro.machine import IA64


def _ranges_for(build):
    """Build a function with `build(b)` returning the instr to query."""
    program = Program()
    b = build_function(program, "main", [("x", ScalarType.I32)],
                       ScalarType.I32)
    target_reg = build(b)
    b.ret(target_reg)
    func = program.main
    chains = Chains(func)
    ranges = ValueRanges(chains, IA64)
    ret = func.blocks[-1].instrs[-1]
    for block in func.blocks:
        for instr in block.instrs:
            if instr.opcode is Opcode.RET:
                ret = instr
    return ranges.range_of_use(ret, 0)


class TestBasics:
    def test_constant(self):
        assert _ranges_for(lambda b: b.const(42)) == Interval(42, 42)

    def test_negative_constant(self):
        assert _ranges_for(lambda b: b.const(-7)) == Interval(-7, -7)

    def test_param_is_top(self):
        assert _ranges_for(lambda b: b.func.params[0]) == TOP

    def test_cmp_is_boolean(self):
        def build(b):
            return b.cmp(Opcode.CMP32, Cond.LT, b.func.params[0], b.const(5))
        assert build and _ranges_for(build) == Interval(0, 1)

    def test_and_with_positive_constant(self):
        def build(b):
            return b.binop(Opcode.AND32, b.func.params[0], b.const(0xFF))
        assert _ranges_for(build) == Interval(0, 255)

    def test_ushr_by_constant(self):
        def build(b):
            return b.binop(Opcode.USHR32, b.func.params[0], b.const(24))
        assert _ranges_for(build) == Interval(0, 255)

    def test_rem_by_constant(self):
        def build(b):
            return b.binop(Opcode.REM32, b.func.params[0], b.const(10))
        assert _ranges_for(build) == Interval(-9, 9)

    def test_rem_of_nonneg(self):
        def build(b):
            masked = b.binop(Opcode.AND32, b.func.params[0], b.const(0xFFFF))
            return b.binop(Opcode.REM32, masked, b.const(10))
        assert _ranges_for(build) == Interval(0, 9)


class TestArithmetic:
    def test_add_of_constants(self):
        def build(b):
            return b.binop(Opcode.ADD32, b.const(10), b.const(20))
        assert _ranges_for(build) == Interval(30, 30)

    def test_add_overflow_goes_top(self):
        def build(b):
            return b.binop(Opcode.ADD32, b.const(INT32_MAX), b.const(1))
        assert _ranges_for(build) == TOP

    def test_sub_ranges(self):
        def build(b):
            masked = b.binop(Opcode.AND32, b.func.params[0], b.const(0xFF))
            return b.binop(Opcode.SUB32, masked, b.const(1))
        assert _ranges_for(build) == Interval(-1, 254)

    def test_neg(self):
        def build(b):
            masked = b.binop(Opcode.AND32, b.func.params[0], b.const(0x7F))
            return b.unop(Opcode.NEG32, masked)
        assert _ranges_for(build) == Interval(-127, 0)

    def test_mul_bounded(self):
        def build(b):
            masked = b.binop(Opcode.AND32, b.func.params[0], b.const(0xF))
            return b.binop(Opcode.MUL32, masked, b.const(100))
        assert _ranges_for(build) == Interval(0, 1500)

    def test_extend_narrows(self):
        def build(b):
            from repro.ir import Instr
            dest = b.func.new_reg(ScalarType.I32)
            b.mov(b.func.params[0], dest)
            b.emit(Instr(Opcode.EXTEND8, dest, (dest,)))
            return dest
        assert _ranges_for(build) == Interval(-128, 127)


class TestLoops:
    def _counter_loop(self, guarded: bool):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        i = b.func.named_reg("i", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        b.mov(zero, i)
        loop = b.block("loop")
        done = b.block("done")
        b.jmp(loop)
        b.switch(loop)
        b.binop(Opcode.ADD32, i, one, i)
        if guarded:
            limit = b.const(10)
            cond = b.cmp(Opcode.CMP32, Cond.LT, i, limit)
        else:
            # Exit condition unrelated to i: no bound on the counter.
            cond = b.cmp(Opcode.CMP32, Cond.LT, b.func.params[0], one)
        b.br(cond, loop, done)
        b.switch(done)
        b.ret(i)
        func = program.main
        chains = Chains(func)
        ranges = ValueRanges(chains, IA64)
        ret = [instr for _, instr in func.instructions()
               if instr.opcode is Opcode.RET][0]
        return ranges.range_of_use(ret, 0)

    def test_guarded_counter_is_bounded(self):
        """The guarded-induction-variable rule: i in a
        do { i++ } while (i < 10) loop is bounded by the guard."""
        interval = self._counter_loop(guarded=True)
        assert not interval.is_top
        assert interval.lo >= 0
        assert interval.hi <= 10

    def test_unguarded_counter_is_top(self):
        """Without a bounding guard on the cycle, conservative TOP."""
        assert self._counter_loop(guarded=False) == TOP

    def test_count_down_guarded(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        i = b.func.named_reg("i", ScalarType.I32)
        hundred = b.const(100)
        one = b.const(1)
        zero = b.const(0)
        b.mov(hundred, i)
        loop = b.block("loop")
        done = b.block("done")
        b.jmp(loop)
        b.switch(loop)
        b.binop(Opcode.SUB32, i, one, i)
        cond = b.cmp(Opcode.CMP32, Cond.GT, i, zero)
        b.br(cond, loop, done)
        b.switch(done)
        b.ret(i)
        func = program.main
        chains = Chains(func)
        ranges = ValueRanges(chains, IA64)
        ret = [instr for _, instr in func.instructions()
               if instr.opcode is Opcode.RET][0]
        interval = ranges.range_of_use(ret, 0)
        assert not interval.is_top
        assert interval.lo >= -1  # exits at 0; bound is conservative
        assert interval.hi <= 100


class TestInterval:
    def test_union(self):
        assert Interval(0, 5).union(Interval(-3, 2)) == Interval(-3, 5)

    def test_within(self):
        assert Interval(0, 10).within(0, INT32_MAX)
        assert not Interval(-1, 10).within(0, INT32_MAX)

    def test_top_detection(self):
        assert TOP.is_top
        assert not Interval(INT32_MIN, 0).is_top


class TestConstOracle:
    def test_const_of_use(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        c = b.const(77)
        result = b.binop(Opcode.ADD32, c, c)
        b.ret(result)
        func = program.main
        chains = Chains(func)
        add = [i for _, i in func.instructions()
               if i.opcode is Opcode.ADD32][0]
        ret = func.entry.instrs[-1]
        assert chains.const_of(add, 0) == 77
        assert chains.const_of(add, 1) == 77
        assert chains.const_of(ret, 0) is None  # defined by the add
