"""Lexer for the J32 mini language (a Java subset).

Token kinds: keywords, identifiers, integer/long/double/char literals,
operators, punctuation.  Comments (``//`` and ``/* */``) are skipped.

:func:`tokenize` is a scanner over one compiled regex: each match skips
blanks and line comments, then takes one newline, block-comment start,
word, number start, char-literal start or operator (longest first).
Numbers and char literals are finished by :func:`_lex_number` and
:func:`_lex_char`.  The regex knows identifiers only in ASCII; a
character it does not know goes to the ``isalpha``/``isalnum`` rules,
so ``int café = 1;`` still lexes.
"""

from __future__ import annotations

import enum
import re

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


class TokKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    LONG = "long"
    DOUBLE = "double"
    CHAR = "char"
    OP = "op"
    EOF = "eof"


class Token:
    __slots__ = ("kind", "text", "value", "line", "column")

    def __init__(self, kind: TokKind, text: str, value: int | float | None,
                 line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.line = line
        self.column = column

    def is_op(self, text: str) -> bool:
        return self.kind is TokKind.OP and self.text == text

    def is_kw(self, text: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind.value} {self.text!r}>"


_OPERATOR_PATTERN = "|".join(
    re.escape(op) for op in sorted(OPERATORS, key=lambda op: (-len(op), op)))
# One alternative per group; ``match.lastindex`` names the one taken.
# ``\w`` is exactly ``str.isalnum()`` plus ``_`` and ``\d`` exactly
# ``str.isdecimal()``, so only an identifier's first character needs
# the non-ASCII check, which the empty last alternative hands over.
_SCAN = re.compile(
    r"(?:[ \t\r]+|//[^\n]*)*(?:"
    r"([A-Za-z_]\w*)"                  # 1 word
    r"|(\d|\.\d)"                      # 2 number start
    r"|(/\*)"                          # 3 block comment start
    r"|(" + _OPERATOR_PATTERN + r")"   # 4 operator, longest first
    r"|(\n)"                           # 5 newline
    r"|(')"                            # 6 char literal start
    r"|()"                             # 7 anything else, or the end
    r")"
)
_WORD, _NUMBER, _COMMENT, _OPERATOR, _NEWLINE, _CHAR = 1, 2, 3, 4, 5, 6
_WORD_REST = re.compile(r"\w*")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    scan = _SCAN.match
    keyword, ident, op = TokKind.KEYWORD, TokKind.IDENT, TokKind.OP
    position = 0
    line = 1
    line_start = 0
    length = len(source)

    while True:
        match = scan(source, position)
        group = match.lastindex
        start = match.start(group)
        position = match.end()
        if group == _WORD:
            text = match.group(_WORD)
            append(Token(keyword if text in KEYWORDS else ident, text, None,
                         line, start - line_start + 1))
        elif group == _OPERATOR:
            append(Token(op, match.group(_OPERATOR), None, line,
                         start - line_start + 1))
        elif group == _NEWLINE:
            line += 1
            line_start = position
        elif group == _NUMBER:
            token = _lex_number(source, start, line, start - line_start + 1)
            append(token)
            position = start + len(token.text)
        elif group == _COMMENT:
            end = source.find("*/", position)
            if end < 0:
                raise LexError("unterminated block comment", line,
                               start - line_start + 1)
            newlines = source.count("\n", position, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", position, end) + 1
            position = end + 2
        elif group == _CHAR:
            token, position = _lex_char(source, start, line,
                                        start - line_start + 1)
            append(token)
        elif start == length:
            break
        else:
            ch = source[start]
            if not (ch.isalpha() or ch == "_"):
                raise LexError(f"unexpected character {ch!r}", line,
                               start - line_start + 1)
            position = _WORD_REST.match(source, start + 1).end()
            text = source[start:position]
            append(Token(keyword if text in KEYWORDS else ident, text, None,
                         line, start - line_start + 1))

    tokens.append(Token(TokKind.EOF, "", None, line, length - line_start + 1))
    return tokens


def _lex_number(source: str, position: int, line: int, column: int) -> Token:
    # Digits are what ``int()`` and ``float()`` accept: ``isdecimal()``,
    # not ``isdigit()``, which also takes superscripts such as ``²``.
    length = len(source)
    start = position
    is_hex = source.startswith(("0x", "0X"), position)
    if is_hex:
        position += 2
        while position < length and (source[position] in "0123456789abcdefABCDEF"):
            position += 1
        text = source[start:position]
        if position == start + 2:
            raise LexError(f"hex literal {text!r} has no digits", line, column)
        value = int(text, 16)
        if position < length and source[position] in "lL":
            return Token(TokKind.LONG, source[start:position + 1], value,
                         line, column)
        return Token(TokKind.INT, text, value, line, column)

    while position < length and source[position].isdecimal():
        position += 1
    is_double = False
    if position < length and source[position] == "." \
            and position + 1 < length and source[position + 1].isdecimal():
        is_double = True
        position += 1
        while position < length and source[position].isdecimal():
            position += 1
    if position < length and source[position] in "eE":
        lookahead = position + 1
        if lookahead < length and source[lookahead] in "+-":
            lookahead += 1
        if lookahead < length and source[lookahead].isdecimal():
            is_double = True
            position = lookahead
            while position < length and source[position].isdecimal():
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
