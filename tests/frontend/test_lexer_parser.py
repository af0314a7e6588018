"""Tests for the J32 lexer and parser."""

import pytest

from repro.frontend import LexError, ParseError, parse, tokenize
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
