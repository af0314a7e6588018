"""One result-type table: the builder and the IR parser agree on it."""

import pytest

from repro.ir.builder import build_function
from repro.ir.function import Program
from repro.ir.opcodes import OP_INFO, RESULT_TYPE, Cond, Opcode
from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.ir.types import ScalarType


def _reparsed_dest_type(program: Program, position: int) -> ScalarType:
    parsed = parse_program(format_program(program))
    return parsed.function("main").blocks[0].instrs[position].dest.type


def _emit(b, opcode, i, d, a):
    if opcode in (Opcode.CMP32, Opcode.CMP64):
        return b.cmp(opcode, Cond.LT, i, i)
    if opcode is Opcode.CMPF:
        return b.cmp(opcode, Cond.LT, d, d)
    if opcode is Opcode.NEWARRAY:
        return b.newarray(ScalarType.I32, i)
    if opcode is Opcode.ARRAYLEN:
        return b.arraylen(a)
    operand = d if RESULT_TYPE[opcode] is ScalarType.F64 else i
    if OP_INFO[opcode].n_srcs == 1:
        return b.unop(opcode, operand)
    return b.binop(opcode, operand, operand)


@pytest.mark.parametrize("opcode", list(RESULT_TYPE), ids=lambda op: op.value)
def test_builder_and_parser_give_the_table_type(opcode):
    program = Program("types")
    b = build_function(program, "main", [("i", ScalarType.I32),
                                         ("d", ScalarType.F64),
                                         ("a", ScalarType.REF)], None)
    i, d, a = b.func.params
    dest = _emit(b, opcode, i, d, a)
    b.ret()
    assert dest.type is RESULT_TYPE[opcode]
    assert _reparsed_dest_type(program, 0) is RESULT_TYPE[opcode]


def test_register_type():
    narrow = (ScalarType.I8, ScalarType.I16, ScalarType.U16, ScalarType.I32)
    for type_ in ScalarType:
        expected = ScalarType.I32 if type_ in narrow else type_
        assert type_.register_type is expected


@pytest.mark.parametrize("elem", list(ScalarType), ids=lambda t: t.value)
def test_loads_and_constants_fill_the_register_type(elem):
    program = Program("fills")
    program.add_global("g", elem)
    b = build_function(program, "main", [("a", ScalarType.REF),
                                         ("i", ScalarType.I32)], None)
    array, index = b.func.params
    dests = [b.aload(array, index, elem), b.gload("g", elem),
             b.const(1, elem)]
    b.ret()
    for position, dest in enumerate(dests):
        assert dest.type is elem.register_type
        assert _reparsed_dest_type(program, position) is elem.register_type
