"""Unit tests for the IR verifier."""

import pytest

from repro.ir import (
    Block,
    Cond,
    FuncSig,
    Function,
    Instr,
    Opcode,
    Program,
    ScalarType,
    VReg,
    VerificationError,
    build_function,
    verify_function,
    verify_program,
)


def _trivial_function(name="f"):
    func = Function(name, FuncSig((), None))
    block = func.new_block("entry")
    block.append(Instr(Opcode.RET))
    return func


def test_accepts_trivial_function():
    verify_function(_trivial_function())


def test_rejects_empty_function():
    func = Function("f", FuncSig((), None))
    with pytest.raises(VerificationError, match="no blocks"):
        verify_function(func)


def test_rejects_missing_terminator():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    block.append(Instr(Opcode.NOP))
    with pytest.raises(VerificationError, match="terminator"):
        verify_function(func)


def test_rejects_terminator_in_middle():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    block.append(Instr(Opcode.RET))
    block.append(Instr(Opcode.NOP))
    block.append(Instr(Opcode.RET))
    with pytest.raises(VerificationError, match="terminator"):
        verify_function(func)


def test_rejects_use_of_undefined_register():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    ghost = VReg("ghost", ScalarType.I32)
    dest = func.new_reg(ScalarType.I32)
    block.append(Instr(Opcode.MOV, dest, (ghost,)))
    block.append(Instr(Opcode.RET))
    with pytest.raises(VerificationError, match="undefined register"):
        verify_function(func)


def test_failure_names_function_block_and_instruction():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    ghost = VReg("ghost", ScalarType.I32)
    block.append(Instr(Opcode.MOV, func.new_reg(ScalarType.I32), (ghost,)))
    block.append(Instr(Opcode.RET))
    with pytest.raises(VerificationError) as raised:
        verify_function(func)
    assert str(raised.value) == (
        "f/entry1: %t1 = mov %ghost: use of undefined register %ghost")


def test_rejects_unknown_branch_target():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    block.append(Instr(Opcode.JMP, targets=("nowhere",)))
    with pytest.raises(VerificationError, match="unknown target"):
        verify_function(func)


def test_rejects_operand_count_mismatch():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    dest = func.new_reg(ScalarType.I32)
    block.append(Instr(Opcode.ADD32, dest, (dest,)))  # needs two operands
    block.append(Instr(Opcode.RET))
    with pytest.raises(VerificationError, match="expected 2 operands"):
        verify_function(func)


def test_rejects_const_without_immediate():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    block.append(Instr(Opcode.CONST, func.new_reg(ScalarType.I32)))
    block.append(Instr(Opcode.RET))
    with pytest.raises(VerificationError, match="CONST"):
        verify_function(func)


def test_rejects_aload_with_non_ref_array():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    i32 = func.new_reg(ScalarType.I32)
    block.append(Instr(Opcode.CONST, i32, imm=0, elem=ScalarType.I32))
    dest = func.new_reg(ScalarType.I32)
    block.append(Instr(Opcode.ALOAD, dest, (i32, i32), elem=ScalarType.I32))
    block.append(Instr(Opcode.RET))
    with pytest.raises(VerificationError, match="must be REF"):
        verify_function(func)


def test_void_call_allowed():
    program = Program()
    callee = _trivial_function("callee")
    program.add_function(callee)
    b = build_function(program, "main", [], None)
    b.emit(Instr(Opcode.CALL, None, (), callee="callee"))
    b.ret()
    verify_program(program)


def test_rejects_unknown_callee():
    program = Program()
    b = build_function(program, "main", [], None)
    b.emit(Instr(Opcode.CALL, None, (), callee="missing"))
    b.ret()
    with pytest.raises(VerificationError, match="unknown callee"):
        verify_program(program)


def test_rejects_call_arity_mismatch():
    program = Program()
    callee = Function("callee", FuncSig((ScalarType.I32,), None))
    callee.add_param("x", ScalarType.I32)
    block = callee.new_block("entry")
    block.append(Instr(Opcode.RET))
    program.add_function(callee)
    b = build_function(program, "main", [], None)
    b.emit(Instr(Opcode.CALL, None, (), callee="callee"))
    b.ret()
    with pytest.raises(VerificationError, match="arity"):
        verify_program(program)


def test_rejects_unknown_global():
    program = Program()
    b = build_function(program, "main", [], None)
    b.gload("nope", ScalarType.I32)
    b.ret()
    with pytest.raises(VerificationError, match="unknown global"):
        verify_program(program)


def test_rejects_br_with_one_target():
    func = Function("f", FuncSig((), None))
    block = func.new_block("entry")
    cond = func.new_reg(ScalarType.I32)
    block.append(Instr(Opcode.CONST, cond, imm=1, elem=ScalarType.I32))
    block.append(Instr(Opcode.BR, None, (cond,), targets=(block.label,)))
    with pytest.raises(VerificationError, match="two targets"):
        verify_function(func)
