"""Constant folding computes what the reference interpreter computes.

For every opcode the folder folds, on edge operands: a function that
sets the operands with ``CONST`` and returns the result runs in ideal
mode before and after folding, and both runs return the same register
image; the folded immediate is the signed value of its type's width.
An instruction whose evaluation traps (a division by zero, the floor of
an infinity) must stay unfolded.
"""

import math
import struct

import pytest

from repro.interp import Interpreter, Trap
from repro.ir.builder import build_function
from repro.ir.function import Program
from repro.ir.opcodes import Cond, Opcode
from repro.ir.types import INT32_MAX, INT32_MIN, ScalarType
from repro.opt.constant_fold import fold_constants

I32, I64, F64 = ScalarType.I32, ScalarType.I64, ScalarType.F64
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Includes the divisors 0 and -1.
INTS = [0, 1, -1, INT32_MIN, INT32_MAX, 0xFFFF_FFFF, 1 << 31,
        INT64_MIN, INT64_MAX]
SHIFTS = [-1, 0, 1, 31, 32, 33, 63, 64]
FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, -7.25, 1e308, math.inf, -math.inf,
          math.nan]

INT32_BINARY = [Opcode.ADD32, Opcode.SUB32, Opcode.MUL32, Opcode.DIV32,
                Opcode.REM32, Opcode.AND32, Opcode.OR32, Opcode.XOR32]
INT64_BINARY = [Opcode.ADD64, Opcode.SUB64, Opcode.MUL64, Opcode.DIV64,
                Opcode.REM64, Opcode.AND64, Opcode.OR64, Opcode.XOR64]
SHIFTS_BY_TYPE = {Opcode.SHL32: I32, Opcode.SHR32: I32, Opcode.USHR32: I32,
                  Opcode.SHL64: I64, Opcode.SHR64: I64, Opcode.USHR64: I64}
UNARY = [(Opcode.NEG32, I32), (Opcode.NOT32, I32), (Opcode.NEG64, I64),
         (Opcode.NOT64, I64), (Opcode.EXTEND8, I32), (Opcode.EXTEND16, I32),
         (Opcode.EXTEND32, I32), (Opcode.EXTEND32, I64), (Opcode.ZEXT8, I32),
         (Opcode.ZEXT16, I32), (Opcode.ZEXT32, I32), (Opcode.ZEXT32, I64),
         (Opcode.TRUNC32, I64)]


def _check(emit):
    """Build ``emit`` (its operands, then the instruction under test) in
    a function returning its result; run it, fold it, run it again."""
    program = Program("fold")
    b = build_function(program, "main", [], None)
    result = emit(b)
    b.ret(result)
    b.func.sig.ret = result.type
    tested = b.func.blocks[0].instrs[-2]
    try:
        unfolded = Interpreter(program, mode="ideal").run().ret_value
    except Trap:
        unfolded = None
    changed = fold_constants(b.func)
    after = b.func.blocks[0].instrs[-2]
    if unfolded is None:
        assert not changed and after is tested, f"folded a trapping {tested}"
        return
    assert after.opcode is Opcode.CONST, f"did not fold {tested}"
    if after.elem is not F64:  # written as a signed value of its width
        half = 1 << (after.elem.bits - 1)
        assert -half <= after.imm < half, f"{tested} -> {after}"
    folded = Interpreter(program, mode="ideal").run().ret_value
    assert _bits(folded) == _bits(unfolded), f"{tested} -> {after}"


def _bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


@pytest.mark.parametrize("opcode", INT32_BINARY + INT64_BINARY,
                         ids=lambda op: op.value)
def test_integer_binary(opcode):
    type_ = I32 if opcode in INT32_BINARY else I64
    for a in INTS:
        for b in INTS:
            _check(lambda fb: fb.binop(opcode, fb.const(a, type_),
                                       fb.const(b, type_)))


@pytest.mark.parametrize("opcode", list(SHIFTS_BY_TYPE),
                         ids=lambda op: op.value)
def test_shifts(opcode):
    type_ = SHIFTS_BY_TYPE[opcode]
    for a in INTS:
        for count in SHIFTS:
            _check(lambda fb: fb.binop(opcode, fb.const(a, type_),
                                       fb.const(count, I32)))


@pytest.mark.parametrize("opcode,type_", UNARY,
                         ids=lambda item: getattr(item, "value", item))
def test_unary_and_extensions(opcode, type_):
    for a in INTS:
        _check(lambda fb: fb.unop(opcode, fb.const(a, type_)))


@pytest.mark.parametrize("cond", list(Cond), ids=lambda cond: cond.value)
def test_cmp32(cond):
    for a in INTS:
        for b in INTS:
            _check(lambda fb: fb.cmp(Opcode.CMP32, cond, fb.const(a),
                                     fb.const(b)))


@pytest.mark.parametrize("type_", [I32, I64, F64], ids=lambda t: t.value)
def test_mov(type_):
    for a in (FLOATS if type_ is F64 else INTS):
        _check(lambda fb: fb.mov(fb.const(a, type_)))


@pytest.mark.parametrize("opcode", [Opcode.FADD, Opcode.FSUB, Opcode.FMUL],
                         ids=lambda op: op.value)
def test_float_binary(opcode):
    for a in FLOATS:
        for b in FLOATS:
            _check(lambda fb: fb.binop(opcode, fb.const(a, F64),
                                       fb.const(b, F64)))


@pytest.mark.parametrize("opcode", [Opcode.FNEG, Opcode.FABS, Opcode.FFLOOR],
                         ids=lambda op: op.value)
def test_float_unary(opcode):
    for a in FLOATS:
        _check(lambda fb: fb.unop(opcode, fb.const(a, F64)))


def test_division_by_zero_stays():
    for opcode, type_ in ((Opcode.DIV32, I32), (Opcode.REM32, I32),
                          (Opcode.DIV64, I64), (Opcode.REM64, I64)):
        program = Program("trap")
        b = build_function(program, "main", [], type_)
        b.ret(b.binop(opcode, b.const(7, type_), b.const(0, type_)))
        assert not fold_constants(b.func)
        assert b.func.blocks[0].instrs[-2].opcode is opcode


#: ``%c`` reaches one use from two ``CONST``s; ``%p == 0`` picks the first.
TWO_CONSTANTS = """
func @main(i32) -> {ret} params(%p) {{
entry:
  %zero = const.i32 0
  %first = cmp32.eq %p, %zero
  br %first, ->one, ->two
one:
  %c = {one}
  jmp ->join
two:
  %c = {two}
  jmp ->join
join:
{use}
  ret %r
}}
"""


@pytest.mark.parametrize("one,two,use,ret", [
    # images 0xffff_ffff_ffff_ffff and 0x0000_0000_ffff_ffff
    ("const.i32 4294967295", "const.i64 4294967295",
     "  %z = const.i64 0\n  %r = add64 %c, %z", "i64"),
    # equal as Python floats, not as register images
    ("const.f64 0.0", "const.f64 -0.0", "  %r = fneg %c", "f64"),
], ids=["i32-vs-i64", "zero-vs-negative-zero"])
def test_constants_with_one_immediate_but_two_images_are_not_one(
        one, two, use, ret):
    from repro.ir.parser import parse_program
    from tests.conftest import run_ideal

    text = TWO_CONSTANTS.format(one=one, two=two, use=use, ret=ret)
    for arg in (0, 1):
        program = parse_program(text)
        before = run_ideal(program, args=(arg,))
        fold_constants(program.main)
        after = run_ideal(program, args=(arg,))
        assert _bits(after.ret_value) == _bits(before.ret_value), arg
