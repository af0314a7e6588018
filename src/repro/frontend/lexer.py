"""Lexer for the J32 mini language (a Java subset).

Token kinds: keywords, identifiers, integer/long/double/char literals,
operators, punctuation.  Comments (``//`` and ``/* */``) are skipped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import LexError

KEYWORDS = frozenset(
    {
        "int", "long", "short", "byte", "char", "double", "boolean", "void",
        "if", "else", "while", "do", "for", "return", "break", "continue",
        "new", "true", "false", "global",
    }
)

OPERATORS = frozenset({
    ">>>=", "<<=", ">>=", ">>>",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
})
# Longest first, so that multi-character operators win.
_OPERATOR_LENGTHS = sorted({len(op) for op in OPERATORS}, reverse=True)


class TokKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    LONG = "long"
    DOUBLE = "double"
    CHAR = "char"
    OP = "op"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    value: int | float | None
    line: int
    column: int

    def is_op(self, text: str) -> bool:
        return self.kind is TokKind.OP and self.text == text

    def is_kw(self, text: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind.value} {self.text!r}>"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    position = 0
    line = 1
    line_start = 0
    length = len(source)

    def column() -> int:
        return position - line_start + 1

    while position < length:
        ch = source[position]

        if ch == "\n":
            line += 1
            position += 1
            line_start = position
            continue
        if ch in " \t\r":
            position += 1
            continue
        if source.startswith("//", position):
            end = source.find("\n", position)
            position = length if end < 0 else end
            continue
        if source.startswith("/*", position):
            end = source.find("*/", position + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, column())
            line += source.count("\n", position, end)
            position = end + 2
            continue

        if ch.isalpha() or ch == "_":
            start = position
            while position < length and (source[position].isalnum()
                                         or source[position] == "_"):
                position += 1
            text = source[start:position]
            kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
            tokens.append(Token(kind, text, None, line, start - line_start + 1))
            continue

        if ch.isdigit() or (ch == "." and position + 1 < length
                            and source[position + 1].isdigit()):
            start = position
            token = _lex_number(source, position, line, start - line_start + 1)
            tokens.append(token)
            position = start + len(token.text)
            continue

        if ch == "'":
            start = position
            token, position = _lex_char(source, position, line, column())
            tokens.append(token)
            continue

        for size in _OPERATOR_LENGTHS:
            # Near the end of the source the slice is shorter than
            # ``size``, so the token's own length is what to skip.
            op = source[position:position + size]
            if op in OPERATORS:
                tokens.append(Token(TokKind.OP, op, None, line, column()))
                position += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, column())

    tokens.append(Token(TokKind.EOF, "", None, line, column()))
    return tokens


def _lex_number(source: str, position: int, line: int, column: int) -> Token:
    length = len(source)
    start = position
    is_hex = source.startswith(("0x", "0X"), position)
    if is_hex:
        position += 2
        while position < length and (source[position] in "0123456789abcdefABCDEF"):
            position += 1
        text = source[start:position]
        value = int(text, 16)
        if position < length and source[position] in "lL":
            return Token(TokKind.LONG, source[start:position + 1], value,
                         line, column)
        return Token(TokKind.INT, text, value, line, column)

    while position < length and source[position].isdigit():
        position += 1
    is_double = False
    if position < length and source[position] == "." \
            and position + 1 < length and source[position + 1].isdigit():
        is_double = True
        position += 1
        while position < length and source[position].isdigit():
            position += 1
    if position < length and source[position] in "eE":
        lookahead = position + 1
        if lookahead < length and source[lookahead] in "+-":
            lookahead += 1
        if lookahead < length and source[lookahead].isdigit():
            is_double = True
            position = lookahead
            while position < length and source[position].isdigit():
                position += 1
    text = source[start:position]
    if is_double:
        return Token(TokKind.DOUBLE, text, float(text), line, column)
    if position < length and source[position] in "lL":
        return Token(TokKind.LONG, source[start:position + 1], int(text),
                     line, column)
    if position < length and source[position] in "dD":
        return Token(TokKind.DOUBLE, source[start:position + 1], float(text),
                     line, column)
    return Token(TokKind.INT, text, int(text), line, column)


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "'": "'", "\\": "\\", "0": "\0"}


def _lex_char(source: str, position: int, line: int,
              column: int) -> tuple[Token, int]:
    start = position
    position += 1  # opening quote
    if position >= len(source):
        raise LexError("unterminated char literal", line, column)
    ch = source[position]
    if ch == "\\":
        position += 1
        if position >= len(source) or source[position] not in _ESCAPES:
            raise LexError("bad escape in char literal", line, column)
        value = ord(_ESCAPES[source[position]])
        position += 1
    else:
        value = ord(ch)
        position += 1
    if position >= len(source) or source[position] != "'":
        raise LexError("unterminated char literal", line, column)
    position += 1
    return Token(TokKind.CHAR, source[start:position], value, line, column), position
