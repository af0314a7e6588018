"""Recursive-descent parser for J32.

Statements and declarations are parsed by recursive descent.  Binary
operators are parsed by one precedence-climbing loop over
:data:`_PRECEDENCE`, from ``||`` (loosest) to ``* / %``; every level is
left-associative, so ``a - b - c`` is ``(a - b) - c``.  Assignment
(right-associative) and the conditional operator sit above that loop.

Nesting deeper than Python's recursion limit allows is a
:class:`ParseError` at the token where parsing stood.
"""

from __future__ import annotations

from . import ast
from .ast import JType, Prim
from .errors import ParseError
from .lexer import TokKind, Token, tokenize

_PRIMS = {p.value: p for p in Prim}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>=", ">>>="}

#: Binary operator -> precedence, loosest first.  Only operator tokens
#: have these texts, so a lookup by text alone needs no kind check.
_PRECEDENCE = {
    op: level
    for level, ops in enumerate([
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", "<=", ">", ">="],
        ["<<", ">>", ">>>"],
        ["+", "-"],
        ["*", "/", "%"],
    ], start=1)
    for op in ops
}

_PREFIX_OPS = {"-", "!", "~", "+"}

_KEYWORD, _IDENT, _OP, _EOF = (TokKind.KEYWORD, TokKind.IDENT, TokKind.OP,
                               TokKind.EOF)


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.position = 0
        #: ``tokens[position]``; :meth:`advance` and :meth:`rewind` keep it
        self.current: Token = self.tokens[0]

    # -- token helpers ---------------------------------------------------

    def peek(self, offset: int = 1) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not _EOF:
            self.position += 1
            self.current = self.tokens[self.position]
        return token

    def rewind(self, position: int) -> None:
        """Backtrack to ``position``, an index saved before a trial parse."""
        self.position = position
        self.current = self.tokens[position]

    def expect_op(self, text: str) -> Token:
        token = self.current
        if token.kind is not _OP or token.text != text:
            raise ParseError(f"expected {text!r}, got {token.text!r}",
                             token.line, token.column)
        return self.advance()

    def expect_ident(self) -> Token:
        token = self.current
        if token.kind is not _IDENT:
            raise ParseError(f"expected identifier, got {token.text!r}",
                             token.line, token.column)
        return self.advance()

    def accept_op(self, text: str) -> bool:
        token = self.current
        if token.kind is _OP and token.text == text:
            self.advance()
            return True
        return False

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.current.line, self.current.column)

    # -- types ------------------------------------------------------------

    def at_type(self) -> bool:
        token = self.current
        return token.kind is _KEYWORD and token.text in _PRIMS

    def parse_type(self) -> JType:
        token = self.advance()
        if token.text not in _PRIMS:
            raise ParseError(f"expected type, got {token.text!r}",
                             token.line, token.column)
        dims = 0
        while self.current.is_op("[") and self.peek().is_op("]"):
            self.advance()
            self.advance()
            dims += 1
        return JType(_PRIMS[token.text], dims)

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> ast.CompilationUnit:
        unit = ast.CompilationUnit()
        while self.current.kind is not _EOF:
            if self.current.is_kw("global"):
                self.advance()
                unit.globals.append(self._parse_global())
                continue
            if not self.at_type():
                raise self.error(
                    f"expected declaration, got {self.current.text!r}"
                )
            # type ident '(' => function; otherwise a global.
            save = self.position
            self.parse_type()
            is_function = (self.current.kind is _IDENT
                           and self.peek().is_op("("))
            self.rewind(save)
            if is_function:
                unit.functions.append(self._parse_function())
            else:
                unit.globals.append(self._parse_global())
        return unit

    def _parse_global(self) -> ast.GlobalDecl:
        line = self.current.line
        type_ = self.parse_type()
        name = self.expect_ident().text
        init = None
        if self.accept_op("="):
            init = self.parse_expr()
        self.expect_op(";")
        return ast.GlobalDecl(type=type_, name=name, init=init, line=line)

    def _parse_function(self) -> ast.FuncDecl:
        line = self.current.line
        ret = self.parse_type()
        name = self.expect_ident().text
        self.expect_op("(")
        params: list[ast.Param] = []
        if not self.current.is_op(")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect_ident().text
                params.append(ast.Param(type=ptype, name=pname))
                if not self.accept_op(","):
                    break
        self.expect_op(")")
        body = self._parse_block()
        return ast.FuncDecl(ret=ret, name=name, params=params, body=body,
                            line=line)

    # -- statements --------------------------------------------------------------

    def _parse_block(self) -> ast.BlockStmt:
        line = self.current.line
        self.expect_op("{")
        body: list[ast.Stmt] = []
        while True:
            token = self.current
            if token.kind is _OP and token.text == "}":
                break
            if token.kind is _EOF:
                raise self.error("unterminated block")
            body.append(self.parse_stmt())
        self.advance()
        return ast.BlockStmt(body=body, line=line)

    def parse_stmt(self) -> ast.Stmt:
        token = self.current
        if token.kind is _KEYWORD:
            parse_keyword = _KEYWORD_STATEMENTS.get(token.text)
            if parse_keyword is not None:
                return parse_keyword(self)
            if token.text in _PRIMS:
                decl = self._parse_var_decl()
                self.expect_op(";")
                return decl
        elif token.kind is _OP and token.text == "{":
            return self._parse_block()
        expr = self.parse_expr()
        self.expect_op(";")
        return ast.ExprStmt(expr=expr, line=token.line)

    def _parse_return(self) -> ast.ReturnStmt:
        line = self.advance().line
        value = None if self.current.is_op(";") else self.parse_expr()
        self.expect_op(";")
        return ast.ReturnStmt(value=value, line=line)

    def _parse_break(self) -> ast.BreakStmt:
        line = self.advance().line
        self.expect_op(";")
        return ast.BreakStmt(line=line)

    def _parse_continue(self) -> ast.ContinueStmt:
        line = self.advance().line
        self.expect_op(";")
        return ast.ContinueStmt(line=line)

    def _parse_var_decl(self) -> ast.VarDecl:
        line = self.current.line
        type_ = self.parse_type()
        name = self.expect_ident().text
        init = None
        if self.accept_op("="):
            init = self.parse_expr()
        return ast.VarDecl(type=type_, name=name, init=init, line=line)

    def _parse_if(self) -> ast.IfStmt:
        line = self.advance().line
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        then = self.parse_stmt()
        otherwise = None
        if self.current.is_kw("else"):
            self.advance()
            otherwise = self.parse_stmt()
        return ast.IfStmt(cond=cond, then=then, otherwise=otherwise, line=line)

    def _parse_while(self) -> ast.WhileStmt:
        line = self.advance().line
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        body = self.parse_stmt()
        return ast.WhileStmt(cond=cond, body=body, line=line)

    def _parse_do_while(self) -> ast.DoWhileStmt:
        line = self.advance().line
        body = self.parse_stmt()
        if not self.current.is_kw("while"):
            raise self.error("expected 'while' after do body")
        self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        self.expect_op(";")
        return ast.DoWhileStmt(body=body, cond=cond, line=line)

    def _parse_for(self) -> ast.ForStmt:
        line = self.advance().line
        self.expect_op("(")
        init: ast.Stmt | None = None
        if not self.current.is_op(";"):
            if self.at_type():
                init = self._parse_var_decl()
            else:
                init = ast.ExprStmt(expr=self.parse_expr(),
                                    line=self.current.line)
        self.expect_op(";")
        cond = None if self.current.is_op(";") else self.parse_expr()
        self.expect_op(";")
        update = None if self.current.is_op(")") else self.parse_expr()
        self.expect_op(")")
        body = self.parse_stmt()
        return ast.ForStmt(init=init, cond=cond, update=update, body=body,
                           line=line)

    # -- expressions --------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """An assignment: a conditional expression, or a variable or array
        element followed by an assignment operator and an assignment."""
        expr = self._parse_conditional()
        token = self.current
        if token.kind is _OP and token.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_expr()
            if not isinstance(expr, (ast.VarRef, ast.Index)):
                raise ParseError("invalid assignment target",
                                 token.line, token.column)
            return ast.Assign(target=expr, op=token.text, value=value,
                              line=token.line)
        return expr

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self.accept_op("?"):
            then = self.parse_expr()
            self.expect_op(":")
            otherwise = self.parse_expr()
            return ast.Ternary(cond=cond, then=then, otherwise=otherwise,
                               line=cond.line)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Operands joined by binary operators of precedence ``min_level``
        or tighter."""
        expr = self._parse_unary()
        while True:
            token = self.current
            level = _PRECEDENCE.get(token.text, 0)
            if level < min_level:
                return expr
            self.position += 1
            self.current = self.tokens[self.position]
            rhs = self._parse_binary(level + 1)
            expr = ast.Binary(op=token.text, lhs=expr, rhs=rhs,
                              line=token.line)

    def _parse_unary(self) -> ast.Expr:
        token = self.current
        if token.kind is not _OP:
            return self._parse_postfix()
        text = token.text
        if text in _PREFIX_OPS:
            self.advance()
            operand = self._parse_unary()
            if text == "+":
                return operand
            return ast.Unary(op=text, operand=operand, line=token.line)
        if text == "++" or text == "--":
            self.advance()
            target = self._parse_unary()
            return ast.IncDec(target=target, op=text, line=token.line)
        # Cast: '(' type ')' unary
        if text == "(":
            following = self.peek()
            if following.kind is _KEYWORD and following.text in _PRIMS:
                # Distinguish from parenthesized expressions: a cast's type
                # is followed by optional [] pairs and then ')'.
                save = self.position
                self.advance()
                type_ = self.parse_type()
                if self.current.is_op(")"):
                    self.advance()
                    operand = self._parse_unary()
                    return ast.Cast(type=type_, operand=operand,
                                    line=token.line)
                self.rewind(save)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self.current
            if token.kind is not _OP:
                return expr
            text = token.text
            if text == "[":
                self.advance()
                index = self.parse_expr()
                self.expect_op("]")
                expr = ast.Index(array=expr, index=index, line=token.line)
            elif text == "." and self.peek().kind is _IDENT \
                    and self.peek().text == "length":
                self.advance()
                self.advance()
                expr = ast.Length(array=expr, line=token.line)
            elif text == "++" or text == "--":
                self.advance()
                expr = ast.IncDec(target=expr, op=text, line=token.line)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.current
        kind = token.kind
        if kind is _IDENT:
            following = self.peek()
            if following.kind is _OP:
                if following.text == "(":
                    self.advance()
                    args = self._parse_args()
                    return ast.Call(name=token.text, args=args,
                                    line=token.line)
                if following.text == "." and token.text == "Math":
                    self.advance()
                    self.advance()
                    fn = self.expect_ident().text
                    args = self._parse_args()
                    return ast.MathCall(fn=fn, args=args, line=token.line)
            self.advance()
            return ast.VarRef(name=token.text, line=token.line)
        literal = _LITERALS.get(kind)
        if literal is not None:
            self.advance()
            return literal(value=token.value, line=token.line)
        if kind is _OP and token.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if kind is _KEYWORD:
            if token.text == "true" or token.text == "false":
                self.advance()
                return ast.BoolLit(value=token.text == "true",
                                   line=token.line)
            if token.text == "new":
                return self._parse_new()
        raise self.error(f"unexpected token {token.text!r}")

    def _parse_new(self) -> ast.Expr:
        token = self.advance()  # 'new'
        if not self.at_type():
            raise self.error("expected type after 'new'")
        prim_token = self.advance()
        prim = _PRIMS[prim_token.text]
        dims: list[ast.Expr] = []
        extra = 0
        while self.current.is_op("["):
            self.advance()
            if self.current.is_op("]"):
                self.advance()
                extra += 1
            else:
                if extra:
                    raise self.error("dimension after empty brackets")
                dims.append(self.parse_expr())
                self.expect_op("]")
        if not dims:
            raise self.error("array allocation needs at least one size")
        type_ = JType(prim, len(dims) + extra)
        return ast.NewArray(type=type_, dims=dims, line=token.line)

    def _parse_args(self) -> list[ast.Expr]:
        self.expect_op("(")
        args: list[ast.Expr] = []
        if not self.current.is_op(")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept_op(","):
                    break
        self.expect_op(")")
        return args


#: Statements a keyword starts, by keyword.
_KEYWORD_STATEMENTS = {
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "for": Parser._parse_for,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
}

_LITERALS = {
    TokKind.INT: ast.IntLit,
    TokKind.LONG: ast.LongLit,
    TokKind.DOUBLE: ast.DoubleLit,
    TokKind.CHAR: ast.CharLit,
}


def parse(source: str) -> ast.CompilationUnit:
    parser = Parser(source)
    try:
        return parser.parse_unit()
    except RecursionError:
        raise parser.error("nesting too deep") from None
