"""Tests for the J32 lexer and parser."""

import sys

import pytest

import repro
from repro.frontend import (
    LexError,
    ParseError,
    SourceError,
    compile_source,
    parse,
    tokenize,
)
from repro.frontend import ast
from repro.frontend.lexer import TokKind


class TestLexer:
    def test_keywords_and_idents(self):
        tokens = tokenize("int foo while whileFoo")
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds == [
            (TokKind.KEYWORD, "int"),
            (TokKind.IDENT, "foo"),
            (TokKind.KEYWORD, "while"),
            (TokKind.IDENT, "whileFoo"),
        ]

    def test_numbers(self):
        tokens = tokenize("42 0x7fffffff 10L 0x10L 3.5 1e-3 2d")
        values = [(t.kind, t.value) for t in tokens[:-1]]
        assert values == [
            (TokKind.INT, 42),
            (TokKind.INT, 0x7FFFFFFF),
            (TokKind.LONG, 10),
            (TokKind.LONG, 16),
            (TokKind.DOUBLE, 3.5),
            (TokKind.DOUBLE, 1e-3),
            (TokKind.DOUBLE, 2.0),
        ]

    def test_char_literals(self):
        tokens = tokenize(r"'a' '\n' '\\'")
        assert [t.value for t in tokens[:-1]] == [97, 10, 92]

    def test_operators_longest_match(self):
        tokens = tokenize("a >>> b >> c > d >>>= e")
        ops = [t.text for t in tokens if t.kind is TokKind.OP]
        assert ops == [">>>", ">>", ">", ">>>="]

    def test_operators_maximal_munch(self):
        tokens = tokenize("a>>>=b>>>c>>=d>>e")
        ops = [t.text for t in tokens if t.kind is TokKind.OP]
        assert ops == [">>>=", ">>>", ">>=", ">>"]

    def test_operator_at_end_of_input(self):
        for source, op in (("x >>>", ">>>"), ("x >>", ">>"), ("x+", "+"),
                           ("f()", ")")):
            *_, last, eof = tokenize(source)
            assert (last.kind, last.text) == (TokKind.OP, op)
            assert last.column == len(source) - len(op) + 1
            assert (eof.kind, eof.line, eof.column) == (
                TokKind.EOF, 1, len(source) + 1)

    def test_comments_skipped(self):
        tokens = tokenize("a // line\n b /* block\n more */ c")
        idents = [t.text for t in tokens if t.kind is TokKind.IDENT]
        assert idents == ["a", "b", "c"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        a, b, c = tokens[:3]
        assert (a.line, b.line, c.line) == (1, 2, 3)
        assert c.column == 3

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* nope")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int x = #;")

    @pytest.mark.parametrize("source, column", [
        ("int x = 0x;", 9), ("int x = 0X;", 9), ("long y = 0xL;", 10),
    ])
    def test_hex_without_digits(self, source, column):
        with pytest.raises(LexError, match="no digits") as err:
            tokenize(source)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("source, column", [
        ("int x = \u00b2;", 9), ("int x = \u00b3;", 9), ("int y = 1\u00b2;", 10),
        ("double d = 1.\u00b2;", 14),
    ])
    def test_superscript_digit_is_not_a_number(self, source, column):
        # isdigit() is true for these, but int() and float() refuse them.
        with pytest.raises(LexError, match="unexpected character") as err:
            tokenize(source)
        assert (err.value.line, err.value.column) == (1, column)

    def test_unicode_decimal_digit_is_a_number(self):
        three = tokenize("x = \u0663;")[2]
        assert (three.kind, three.value) == (TokKind.INT, 3)

    def test_unicode_identifiers(self):
        tokens = tokenize("int caf\u00e9 = 1; int x\u00b2y = 2;")
        idents = [t.text for t in tokens if t.kind is TokKind.IDENT]
        assert idents == ["caf\u00e9", "x\u00b2y"]
        with pytest.raises(LexError):  # a superscript cannot start one
            tokenize("int \u00b2x = 1;")

    def test_columns_after_multiline_block_comment(self):
        x, eof = tokenize("/* a\n b */ x")
        assert (x.text, x.line, x.column) == ("x", 2, 7)
        assert (eof.line, eof.column) == (2, 8)

    def test_parse_error_column_after_multiline_block_comment(self):
        with pytest.raises(ParseError) as err:
            parse("void main() {\n /* one\n two */ int x = ; }")
        assert (err.value.line, err.value.column) == (3, 17)


class TestParser:
    def test_function_shape(self):
        unit = parse("int f(int a, double b) { return a; }")
        assert len(unit.functions) == 1
        func = unit.functions[0]
        assert func.name == "f"
        assert [p.name for p in func.params] == ["a", "b"]
        assert func.ret == ast.INT

    def test_globals(self):
        unit = parse("int g = 5; int[] table; void main() { }")
        assert [g.name for g in unit.globals] == ["g", "table"]
        assert unit.globals[1].type.dims == 1

    def test_precedence(self):
        unit = parse("void main() { int x = 1 + 2 * 3; }")
        decl = unit.functions[0].body.body[0]
        assert isinstance(decl.init, ast.Binary)
        assert decl.init.op == "+"
        assert isinstance(decl.init.rhs, ast.Binary)
        assert decl.init.rhs.op == "*"

    def test_cast_vs_paren(self):
        unit = parse("void main() { int x = (int) 1.5; int y = (x); }")
        body = unit.functions[0].body.body
        assert isinstance(body[0].init, ast.Cast)
        assert isinstance(body[1].init, ast.VarRef)

    def test_array_type_and_new(self):
        unit = parse("void main() { double[][] m = new double[3][4]; }")
        decl = unit.functions[0].body.body[0]
        assert decl.type.dims == 2
        assert isinstance(decl.init, ast.NewArray)
        assert len(decl.init.dims) == 2

    def test_for_loop_components(self):
        unit = parse("void main() { for (int i = 0; i < 5; i++) { } }")
        loop = unit.functions[0].body.body[0]
        assert isinstance(loop, ast.ForStmt)
        assert isinstance(loop.init, ast.VarDecl)
        assert isinstance(loop.update, ast.IncDec)

    def test_do_while(self):
        unit = parse("void main() { int i = 0; do { i++; } while (i < 3); }")
        loop = unit.functions[0].body.body[1]
        assert isinstance(loop, ast.DoWhileStmt)

    def test_ternary(self):
        unit = parse("void main() { int x = 1 < 2 ? 3 : 4; }")
        decl = unit.functions[0].body.body[0]
        assert isinstance(decl.init, ast.Ternary)

    def test_compound_assignment(self):
        unit = parse("void main() { int x = 0; x += 5; x <<= 2; }")
        body = unit.functions[0].body.body
        assert body[1].expr.op == "+="
        assert body[2].expr.op == "<<="

    def test_math_and_length(self):
        unit = parse("void main() { int[] a = new int[3]; "
                     "double d = Math.sqrt(2.0); int n = a.length; }")
        body = unit.functions[0].body.body
        assert isinstance(body[1].init, ast.MathCall)
        assert isinstance(body[2].init, ast.Length)

    def test_invalid_assignment_target(self):
        with pytest.raises(ParseError, match="assignment target"):
            parse("void main() { 1 = 2; }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void main() { int x = 1 }")

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse("void main() { if (1 < 2) {")

    def test_precedence_climbing_matches_grammar(self):
        # Every level is left-associative; || is loosest, * / % tightest.
        unit = parse("void main() { boolean b = a || c && d | e ^ f & g "
                     "== h < i << j + k * l - m; }")
        init = unit.functions[0].body.body[0].init

        def shape(expr):
            if isinstance(expr, ast.Binary):
                return f"({shape(expr.lhs)} {expr.op} {shape(expr.rhs)})"
            return expr.name

        assert shape(init) == ("(a || (c && (d | (e ^ (f & (g == (h < "
                               "(i << ((j + (k * l)) - m)))))))))")


class TestDeepNesting:
    def test_hundred_nested_parentheses_compile(self):
        depth = 100
        source = ("int main() { int x = 2; return "
                  + "(x + " * depth + "1" + ")" * depth + "; }")
        result = repro.run(source)
        assert result.ret_value == 2 * depth + 1

    def test_ten_thousand_nested_parentheses_are_a_parse_error(self):
        source = "int main() { return " + "(" * 10_000 + "1" \
            + ")" * 10_000 + "; }"
        with pytest.raises(ParseError, match="nesting too deep") as err:
            compile_source(source)
        # The position is where parsing stood: inside the parentheses.
        assert err.value.line == 1
        assert 21 <= err.value.column <= 21 + 10_000

    def test_long_operator_chain_lowers(self):
        source = ("int main() { int x = " + " + ".join(["1"] * 1000)
                  + "; return x; }")
        program = compile_source(source)
        assert len(program.functions["main"].blocks[0].instrs) > 1000

    def test_lowering_overflow_is_a_source_error(self):
        # Each assignment in a chain costs the parser one frame and the
        # lowering four, so this chain parses but is too deep to lower.
        depth = sys.getrecursionlimit() // 2
        source = "void main() { int x = 0;\n x = " + "x = " * depth + "1; }"
        with pytest.raises(SourceError, match="too deeply") as err:
            compile_source(source)
        assert err.value.line == 2
