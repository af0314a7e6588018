"""Tests for DCE, global CSE, and loop-invariant code motion."""

from repro.ir import (
    Cond,
    Instr,
    Opcode,
    Program,
    ScalarType,
    build_function,
    verify_function,
)
from repro.ir.parser import parse_program
from repro.opt import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    hoist_loop_invariants,
)
from tests.conftest import run_ideal


def _count(func, opcode):
    return sum(1 for _, i in func.instructions() if i.opcode is opcode)


class TestDCE:
    def test_removes_unused_pure_computation(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        b.binop(Opcode.MUL32, b.func.params[0], b.func.params[0])  # dead
        b.ret(b.func.params[0])
        eliminate_dead_code(program.main)
        assert _count(program.main, Opcode.MUL32) == 0

    def test_removes_transitively_dead(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        t = b.binop(Opcode.ADD32, b.func.params[0], b.func.params[0])
        b.binop(Opcode.MUL32, t, t)  # dead, makes the add dead too
        b.ret(b.func.params[0])
        eliminate_dead_code(program.main)
        assert _count(program.main, Opcode.ADD32) == 0
        assert _count(program.main, Opcode.MUL32) == 0

    def test_keeps_side_effects(self):
        program = Program()
        b = build_function(program, "main", [], None)
        n = b.const(4)
        b.newarray(ScalarType.I32, n)  # result unused but allocates
        b.ret()
        eliminate_dead_code(program.main)
        assert _count(program.main, Opcode.NEWARRAY) == 1

    def test_keeps_live_chain(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        t = b.binop(Opcode.ADD32, b.func.params[0], b.func.params[0])
        b.ret(t)
        eliminate_dead_code(program.main)
        assert _count(program.main, Opcode.ADD32) == 1


class TestGCSE:
    def test_eliminates_redundant_computation(self):
        program = Program()
        b = build_function(program, "main",
                           [("x", ScalarType.I32), ("y", ScalarType.I32)],
                           ScalarType.I32)
        x, y = b.func.params
        first = b.binop(Opcode.ADD32, x, y)
        second = b.binop(Opcode.ADD32, x, y)  # redundant
        result = b.binop(Opcode.XOR32, first, second)
        b.ret(result)
        gold = None
        changed = eliminate_common_subexpressions(program.main)
        assert changed
        # After CSE + cleanup there is a single add.
        from repro.opt import eliminate_dead_code, propagate_copies
        propagate_copies(program.main)
        eliminate_dead_code(program.main)
        assert _count(program.main, Opcode.ADD32) == 1
        del gold

    def test_respects_operand_redefinition(self):
        program = Program()
        b = build_function(program, "main",
                           [("x", ScalarType.I32), ("y", ScalarType.I32)],
                           ScalarType.I32)
        x, y = b.func.params
        v = b.func.named_reg("v", ScalarType.I32)
        b.mov(x, v)
        first = b.binop(Opcode.ADD32, v, y)
        b.mov(y, v)  # v changes: add v,y is no longer available
        second = b.binop(Opcode.ADD32, v, y)
        result = b.binop(Opcode.XOR32, first, second)
        b.sink(result)
        b.ret(result)
        gold = run_ideal(program, args=(3, 9)).observable()
        eliminate_common_subexpressions(program.main)
        assert run_ideal(program, args=(3, 9)).observable() == gold

    def test_self_updating_accumulator_not_csed(self):
        """Regression: v = fadd v, x twice must compute twice."""
        program = Program()
        b = build_function(program, "main", [], None)
        v = b.func.named_reg("v", ScalarType.F64)
        b.mov(b.const(1.0, ScalarType.F64), v)
        x = b.const(2.0, ScalarType.F64)
        b.binop(Opcode.FADD, v, x, v)
        b.binop(Opcode.FADD, v, x, v)
        b.sink(v)
        b.ret()
        gold = run_ideal(program).observable()
        eliminate_common_subexpressions(program.main)
        assert run_ideal(program).observable() == gold

    def test_not_available_across_diverging_paths(self):
        program = Program()
        b = build_function(program, "main",
                           [("p", ScalarType.I32), ("x", ScalarType.I32)],
                           ScalarType.I32)
        p, x = b.func.params
        left = b.block("left")
        join = b.block("join")
        cond = b.cmp(Opcode.CMP32, Cond.NE, p, b.const(0))
        b.br(cond, left, join)
        b.switch(left)
        b.binop(Opcode.MUL32, x, x)  # only on one path
        b.jmp(join)
        b.switch(join)
        result = b.binop(Opcode.MUL32, x, x)  # NOT fully redundant
        b.sink(result)
        b.ret(result)
        gold = run_ideal(program, args=(1, 6)).observable()
        eliminate_common_subexpressions(program.main)
        assert run_ideal(program, args=(1, 6)).observable() == gold

    #: A cycle the entry never reaches.  Availability starts full
    #: everywhere and this cycle never meets the entry's empty boundary,
    #: so everything computed in it looks available inside it.
    UNREACHABLE_CYCLE = """
func @main(i32) -> i32 params(%n) {{
entry:
  ret %n
dead:
{body}
  br %c, ->dead, ->out
out:
  ret %x
}}
"""

    def _unreachable_cycle(self, body):
        return parse_program(self.UNREACHABLE_CYCLE.format(body=body)).main

    def test_unreachable_cycle_computing_twice_is_left_alone(self):
        func = self._unreachable_cycle("""\
  %x = add32 %n, %n
  %y = add32 %n, %n
  %c = cmp32.lt %x, %y""")
        changed = eliminate_common_subexpressions(func)
        verify_function(func)  # no read of an undefined temporary
        assert not changed

    def test_unreachable_cycle_computing_once_is_left_alone(self):
        func = self._unreachable_cycle("""\
  %x = add32 %n, %n
  %c = cmp32.lt %x, %n""")
        changed = eliminate_common_subexpressions(func)
        verify_function(func)
        assert not changed


class TestLICM:
    def _loop_with_invariant(self):
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        x = b.func.params[0]
        i = b.func.named_reg("i", ScalarType.I32)
        acc = b.func.named_reg("acc", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        ten = b.const(10)
        b.mov(zero, i)
        b.mov(zero, acc)
        loop = b.block("loop")
        done = b.block("done")
        b.jmp(loop)
        b.switch(loop)
        invariant = b.binop(Opcode.MUL32, x, x)  # hoistable
        b.binop(Opcode.ADD32, acc, invariant, acc)
        b.binop(Opcode.ADD32, i, one, i)
        cond = b.cmp(Opcode.CMP32, Cond.LT, i, ten)
        b.br(cond, loop, done)
        b.switch(done)
        b.sink(acc)
        b.ret(acc)
        return program, loop

    def test_hoists_invariant_multiply(self):
        program, loop = self._loop_with_invariant()
        gold = run_ideal(program, args=(6,)).observable()
        changed = hoist_loop_invariants(program.main)
        assert changed
        assert run_ideal(program, args=(6,)).observable() == gold
        assert all(i.opcode is not Opcode.MUL32 for i in loop.instrs)

    def test_hoists_self_extend(self):
        """A loop-invariant r = extend32(r) moves to the preheader."""
        program = Program()
        b = build_function(program, "main", [("x", ScalarType.I32)],
                           ScalarType.I32)
        x = b.func.params[0]
        i = b.func.named_reg("i", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        five = b.const(5)
        b.mov(zero, i)
        loop = b.block("loop")
        done = b.block("done")
        b.jmp(loop)
        b.switch(loop)
        b.emit(Instr(Opcode.EXTEND32, x, (x,)))
        b.binop(Opcode.ADD32, i, one, i)
        cond = b.cmp(Opcode.CMP32, Cond.LT, i, five)
        b.br(cond, loop, done)
        b.switch(done)
        b.ret(x)
        changed = hoist_loop_invariants(program.main)
        assert changed
        assert all(i.opcode is not Opcode.EXTEND32 for i in loop.instrs)

    def test_does_not_hoist_variant_computation(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        i = b.func.named_reg("i", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        five = b.const(5)
        b.mov(zero, i)
        loop = b.block("loop")
        done = b.block("done")
        b.jmp(loop)
        b.switch(loop)
        square = b.binop(Opcode.MUL32, i, i)  # depends on i: stays
        b.sink(square)
        b.binop(Opcode.ADD32, i, one, i)
        cond = b.cmp(Opcode.CMP32, Cond.LT, i, five)
        b.br(cond, loop, done)
        b.switch(done)
        b.ret(i)
        gold = run_ideal(program).observable()
        hoist_loop_invariants(program.main)
        assert run_ideal(program).observable() == gold
        assert any(i.opcode is Opcode.MUL32 for i in loop.instrs)

    def test_does_not_hoist_trapping_div(self):
        program = Program()
        b = build_function(program, "main",
                           [("x", ScalarType.I32), ("y", ScalarType.I32)],
                           ScalarType.I32)
        x, y = b.func.params
        i = b.func.named_reg("i", ScalarType.I32)
        zero = b.const(0)
        one = b.const(1)
        b.mov(zero, i)
        header = b.block("header")
        body = b.block("body")
        done = b.block("done")
        b.jmp(header)
        b.switch(header)
        cond = b.cmp(Opcode.CMP32, Cond.LT, i, zero)  # loop never runs
        b.br(cond, body, done)
        b.switch(body)
        q = b.binop(Opcode.DIV32, x, y)  # would trap if y == 0
        b.sink(q)
        b.binop(Opcode.ADD32, i, one, i)
        b.jmp(header)
        b.switch(done)
        b.ret(i)
        hoist_loop_invariants(program.main)
        assert all(i.opcode is not Opcode.DIV32
                   for i in program.main.entry.instrs)
        # With y == 0 and zero iterations this must not trap.
        from repro.interp import Interpreter
        result = Interpreter(program, mode="ideal").run("main", (5, 0))
        assert result.ret_value == 0
