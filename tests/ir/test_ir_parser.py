"""Tests for the textual IR parser (round-trips with the printer)."""

import pytest

from repro.ir import (
    Program,
    ScalarType,
    build_function,
    format_program,
    verify_program,
)
from repro.ir.parser import IRParseError, parse_program
from tests.conftest import make_fig7_program, run_ideal


class TestRoundTrip:
    def test_fig7_roundtrip(self):
        original = make_fig7_program(10)
        text = format_program(original)
        reparsed = parse_program(text)
        verify_program(reparsed)
        assert run_ideal(reparsed).observable() == \
            run_ideal(original).observable()

    def test_double_roundtrip_stable(self):
        original = make_fig7_program(5)
        once = format_program(parse_program(format_program(original)))
        twice = format_program(parse_program(once))
        assert once == twice


class TestHandWritten:
    def test_minimal_function(self):
        program = parse_program("""
            func @main() -> i32 params() {
            entry:
              %c = const.i32 41
              %one = const.i32 1
              %r = add32 %c, %one
              ret %r
            }
        """)
        verify_program(program)
        assert run_ideal(program).ret_value == 42

    def test_branches_and_loops(self):
        program = parse_program("""
            func @main() -> i32 params() {
            entry:
              %i = const.i32 0
              %one = const.i32 1
              %limit = const.i32 5
              jmp ->loop
            loop:
              %i = add32 %i, %one
              %p = cmp32.lt %i, %limit
              br %p, ->loop, ->done
            done:
              ret %i
            }
        """)
        assert run_ideal(program).ret_value == 5

    def test_globals_and_calls(self):
        program = parse_program("""
            program demo
            global $g: i32 = 7

            func @bump(i32) -> i32 params(%x) {
            entry:
              %one = const.i32 1
              %r = add32 %x, %one
              ret %r
            }

            func @main() -> i32 params() {
            entry:
              %v = gload.i32 $g
              %w = call @bump, %v
              ret %w
            }
        """)
        verify_program(program)
        assert program.name == "demo"
        assert run_ideal(program).ret_value == 8

    def test_arrays_and_floats(self):
        program = parse_program("""
            func @main() -> f64 params() {
            entry:
              %n = const.i32 3
              %a = newarray.f64 %n
              %zero = const.i32 0
              %x = const.f64 2.5
              astore.f64 %a, %zero, %x
              %y = aload.f64 %a, %zero
              %d = fadd %y, %x
              ret %d
            }
        """)
        assert run_ideal(program).ret_value == 5.0

    def test_comments_ignored(self):
        program = parse_program("""
            func @main() -> i32 params() {   ; header comment
            entry:  ; the entry block
              %c = const.i32 9   ; forty-two, almost
              ret %c
            }
        """)
        assert run_ideal(program).ret_value == 9


class TestCallResultTypes:
    """A call's destination takes the callee's declared return type,
    also when the callee is printed after its caller."""

    @pytest.mark.parametrize("ret_type, value", [
        (ScalarType.I64, 2**40 + 3),
        (ScalarType.F64, 2.5),
    ], ids=["i64", "f64"])
    def test_round_trip(self, ret_type, value):
        program = Program()
        caller = build_function(program, "main", [], ret_type)
        result = caller.call("callee", [], ret_type)
        caller.sink(result)
        caller.ret(result)
        callee = build_function(program, "callee", [], ret_type)
        callee.ret(callee.const(value, ret_type))
        text = format_program(program)
        assert text.index("@main") < text.index("func @callee")

        reparsed = parse_program(text)
        verify_program(reparsed)
        call = reparsed.function("main").entry.instrs[0]
        assert call.dest.type is ret_type
        assert format_program(reparsed) == text
        assert run_ideal(reparsed).observable() == \
            run_ideal(program).observable()


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(IRParseError, match="unknown opcode"):
            parse_program("""
                func @main() -> void params() {
                entry:
                  frobnicate %x
                }
            """)

    def test_unknown_register(self):
        with pytest.raises(IRParseError, match="unknown register"):
            parse_program("""
                func @main() -> void params() {
                entry:
                  sink %ghost
                }
            """)

    def test_instruction_before_label(self):
        with pytest.raises(IRParseError, match="before any label"):
            parse_program("""
                func @main() -> void params() {
                  ret
                }
            """)

    def test_missing_brace(self):
        with pytest.raises(IRParseError, match="missing closing brace"):
            parse_program("""
                func @main() -> void params() {
                entry:
                  ret
            """)

    def test_param_arity_mismatch(self):
        with pytest.raises(IRParseError, match="arity"):
            parse_program("""
                func @main(i32) -> void params() {
                entry:
                  ret
                }
            """)
