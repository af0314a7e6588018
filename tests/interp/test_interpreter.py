"""Unit tests for the machine-faithful interpreter."""

import pytest

from repro.interp import FuelExhausted, Interpreter, MemoryFault, Trap
from repro.ir import (
    Cond,
    Instr,
    Opcode,
    Program,
    ScalarType,
    build_function,
    wrap_u64,
)
from repro.machine import IA64, PPC64


def _program_returning(build):
    program = Program()
    b = build_function(program, "main", [], ScalarType.I32)
    result = build(b)
    b.ret(result)
    return program


def _run(program, mode="machine", args=(), **kwargs):
    return Interpreter(program, mode=mode, **kwargs).run(args=args)


class TestIntegerSemantics:
    def test_add32_full_width(self):
        """Machine mode: 32-bit add runs on the full register."""
        program = _program_returning(
            lambda b: b.binop(Opcode.ADD32, b.const(0x7FFFFFFF), b.const(1))
        )
        result = _run(program)
        # Full 64-bit add of two canonical values: upper bits hold the
        # true sum, not the wrapped 32-bit value.
        assert result.ret_value == 0x8000_0000

    def test_ideal_mode_keeps_canonical(self):
        program = _program_returning(
            lambda b: b.binop(Opcode.ADD32, b.const(0x7FFFFFFF), b.const(1))
        )
        result = _run(program, mode="ideal")
        assert result.ret_value == wrap_u64(-0x8000_0000)

    def test_java_division_truncates_toward_zero(self):
        program = _program_returning(
            lambda b: b.binop(Opcode.DIV32, b.const(-7), b.const(2))
        )
        assert _run(program, mode="ideal").ret_value == wrap_u64(-3)

    def test_java_remainder_sign(self):
        program = _program_returning(
            lambda b: b.binop(Opcode.REM32, b.const(-7), b.const(2))
        )
        assert _run(program, mode="ideal").ret_value == wrap_u64(-1)

    def test_division_by_zero_traps(self):
        program = _program_returning(
            lambda b: b.binop(Opcode.DIV32, b.const(1), b.const(0))
        )
        with pytest.raises(Trap, match="zero"):
            _run(program)

    def test_shift_amount_masked(self):
        program = _program_returning(
            lambda b: b.binop(Opcode.SHL32, b.const(1), b.const(33))
        )
        assert _run(program).ret_value == 2  # 33 & 31 == 1

    def test_shr32_sign_fills(self):
        program = _program_returning(
            lambda b: b.binop(Opcode.SHR32, b.const(-8), b.const(1))
        )
        assert _run(program).ret_value == wrap_u64(-4)

    def test_ushr32_zero_fills(self):
        program = _program_returning(
            lambda b: b.binop(Opcode.USHR32, b.const(-1), b.const(28))
        )
        assert _run(program).ret_value == 0xF

    def test_cmp32_reads_low_bits_only(self):
        # Register holds a non-canonical value; cmp32 must look at the
        # low 32 bits as a signed 32-bit number.
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        big = b.const(0x1_0000_0005, ScalarType.I64)
        narrow = b.func.new_reg(ScalarType.I32)
        b.emit(Instr(Opcode.TRUNC32, narrow, (big,)))
        five = b.const(5)
        p = b.cmp(Opcode.CMP32, Cond.EQ, narrow, five)
        b.ret(p)
        assert _run(program).ret_value == 1

    def test_unsigned_compare(self):
        program = _program_returning(
            lambda b: b.cmp(Opcode.CMP32, Cond.UGT, b.const(-1), b.const(1))
        )
        assert _run(program).ret_value == 1  # 0xFFFFFFFF > 1 unsigned


class TestConversionsAndExtends:
    def test_extend_counts_by_width(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        x = b.func.new_reg(ScalarType.I32)
        b.mov(b.const(0x1FF), x)
        b.emit(Instr(Opcode.EXTEND8, x, (x,)))
        b.emit(Instr(Opcode.EXTEND16, x, (x,)))
        b.emit(Instr(Opcode.EXTEND32, x, (x,)))
        b.ret(x)
        result = _run(program)
        assert result.extend_counts == {8: 1, 16: 1, 32: 1}

    def test_i2d_reads_full_register(self):
        """The reason extensions matter: i2d of a garbage register is
        wrong; of a canonical one, right."""
        program = Program()
        b = build_function(program, "main", [], ScalarType.F64)
        big = b.const(0x1_0000_0005, ScalarType.I64)
        narrow = b.func.new_reg(ScalarType.I32)
        b.emit(Instr(Opcode.TRUNC32, narrow, (big,)))
        d = b.unop(Opcode.I2D, narrow)  # no extension: reads 2^32 + 5
        b.ret(d)
        assert _run(program).ret_value == float(0x1_0000_0005)

    def test_i2d_after_extension_is_correct(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.F64)
        big = b.const(0x1_0000_0005, ScalarType.I64)
        narrow = b.func.new_reg(ScalarType.I32)
        b.emit(Instr(Opcode.TRUNC32, narrow, (big,)))
        b.emit(Instr(Opcode.EXTEND32, narrow, (narrow,)))
        d = b.unop(Opcode.I2D, narrow)
        b.ret(d)
        assert _run(program).ret_value == 5.0

    def test_d2i_saturates(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        d = b.const(1e18, ScalarType.F64)
        v = b.unop(Opcode.D2I, d)
        b.ret(v)
        assert _run(program).ret_value == 0x7FFF_FFFF

    def test_d2i_nan_is_zero(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        zero = b.const(0.0, ScalarType.F64)
        nan = b.binop(Opcode.FDIV, zero, zero)
        v = b.unop(Opcode.D2I, nan)
        b.ret(v)
        assert _run(program).ret_value == 0


class TestArrays:
    def test_bounds_check_unsigned(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        n = b.const(4)
        arr = b.newarray(ScalarType.I32, n)
        neg = b.const(-1)
        v = b.aload(arr, neg, ScalarType.I32)
        b.ret(v)
        with pytest.raises(Trap, match="ArrayIndexOutOfBounds"):
            _run(program, mode="ideal")

    def test_out_of_range_traps(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        n = b.const(4)
        arr = b.newarray(ScalarType.I32, n)
        idx = b.const(4)
        v = b.aload(arr, idx, ScalarType.I32)
        b.ret(v)
        with pytest.raises(Trap, match="ArrayIndexOutOfBounds"):
            _run(program)

    def test_wild_upper_bits_fault(self):
        """The unsoundness detector: low 32 bits pass the bounds check
        but the effective address uses the full register."""
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        n = b.const(4)
        arr = b.newarray(ScalarType.I32, n)
        wild = b.const(0x1_0000_0002, ScalarType.I64)
        narrow = b.func.new_reg(ScalarType.I32)
        b.emit(Instr(Opcode.TRUNC32, narrow, (wild,)))
        v = b.aload(arr, narrow, ScalarType.I32)
        b.ret(v)
        with pytest.raises(MemoryFault):
            _run(program)

    def test_narrow_elements_truncate_on_store(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        n = b.const(2)
        arr = b.newarray(ScalarType.I8, n)
        zero = b.const(0)
        value = b.const(0x1FF)
        b.astore(arr, zero, value, ScalarType.I8)
        loaded = b.aload(arr, zero, ScalarType.I8)
        b.ret(loaded)
        # IA64 byte load zero-extends the stored 0xFF.
        assert _run(program, traits=IA64).ret_value == 0xFF

    def test_load_extension_per_machine(self):
        def build():
            program = Program()
            b = build_function(program, "main", [], ScalarType.I32)
            n = b.const(2)
            arr = b.newarray(ScalarType.I32, n)
            zero = b.const(0)
            value = b.const(-1)
            b.astore(arr, zero, value, ScalarType.I32)
            loaded = b.aload(arr, zero, ScalarType.I32)
            b.ret(loaded)
            return program

        assert _run(build(), traits=IA64).ret_value == 0xFFFF_FFFF
        assert _run(build(), traits=PPC64).ret_value == wrap_u64(-1)

    def test_negative_array_size_traps(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        n = b.const(-3)
        b.newarray(ScalarType.I32, n)
        b.ret(n)
        with pytest.raises(Trap, match="NegativeArraySize"):
            _run(program)

    def test_null_dereference(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        null = b.const(0, ScalarType.REF)
        zero = b.const(0)
        v = b.aload(null, zero, ScalarType.I32)
        b.ret(v)
        with pytest.raises(Trap, match="NullPointer"):
            _run(program)


class TestDummyMarkerOracle:
    def test_dummy_asserts_canonical(self):
        program = Program()
        b = build_function(program, "main", [], ScalarType.I32)
        wild = b.const(0x1_0000_0002, ScalarType.I64)
        narrow = b.func.new_reg(ScalarType.I32)
        b.emit(Instr(Opcode.TRUNC32, narrow, (wild,)))
        b.emit(Instr(Opcode.JUST_EXTENDED, narrow, (narrow,)))
        b.ret(narrow)
        with pytest.raises(MemoryFault, match="just_extended"):
            _run(program)


class TestControlAndCalls:
    def test_call_and_return(self):
        program = Program()
        callee = build_function(program, "double_it",
                                [("x", ScalarType.I32)], ScalarType.I32)
        result = callee.binop(Opcode.ADD32, callee.func.params[0],
                              callee.func.params[0])
        callee.ret(result)
        b = build_function(program, "main", [], ScalarType.I32)
        ten = b.const(10)
        value = b.call("double_it", [ten], ScalarType.I32)
        b.ret(value)
        assert _run(program).ret_value == 20

    def test_fuel_exhaustion(self):
        program = Program()
        b = build_function(program, "main", [], None)
        loop = b.block("loop")
        b.jmp(loop)
        b.switch(loop)
        b.jmp(loop)
        with pytest.raises(FuelExhausted):
            _run(program, fuel=100)

    def test_checksum_order_sensitive(self):
        def build(first, second):
            program = Program()
            b = build_function(program, "main", [], None)
            b.sink(b.const(first))
            b.sink(b.const(second))
            b.ret()
            return program

        a = _run(build(1, 2)).checksum
        b = _run(build(2, 1)).checksum
        assert a != b

    def test_globals_roundtrip(self):
        program = Program()
        program.add_global("g", ScalarType.I32, 7)
        b = build_function(program, "main", [], ScalarType.I32)
        v = b.gload("g", ScalarType.I32)
        doubled = b.binop(Opcode.ADD32, v, v)
        b.gstore("g", doubled, ScalarType.I32)
        again = b.gload("g", ScalarType.I32)
        b.ret(again)
        assert _run(program).ret_value == 14
