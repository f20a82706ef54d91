"""Lexer for the OPS5-style rule DSL.

The surface syntax is s-expression shaped, close to OPS5::

    (p promote-order
       (order ^status "open" ^id <x> ^total > 100)
       -(hold ^order <x>)
       -->
       (modify 1 ^status "priority")
       (make audit ^order <x>))

Token kinds: ``(`` ``)``, ``-->``, ``-`` (negation, only before ``(``),
``^attr``, ``<var>``, predicate operators (``=`` ``<>`` ``<`` ``<=``
``>`` ``>=``), arithmetic operators, numbers, strings, booleans/nil and
bare symbols.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ParseError
from repro.wm.element import FrozenRecord

#: Token kinds produced by :func:`tokenize`.
LPAREN = "LPAREN"
RPAREN = "RPAREN"
ARROW = "ARROW"
NEGATION = "NEGATION"
ATTRIBUTE = "ATTRIBUTE"
VARIABLE = "VARIABLE"
OPERATOR = "OPERATOR"
NUMBER = "NUMBER"
STRING = "STRING"
SYMBOL = "SYMBOL"
EOF = "EOF"

_OPERATORS = ("<=", ">=", "<>", "<", ">", "=", "+", "*", "//", "/", "%")

_SYMBOL_EXTRA = "-_.?!$&"


def _is_symbol_char(ch: str) -> bool:
    return ch.isalnum() or ch in _SYMBOL_EXTRA


class Token(FrozenRecord):
    """One lexical token with its 1-based source position."""

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


class _Cursor:
    """Character cursor with line/column tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def peek(self, ahead: int = 0) -> str:
        index = self.pos + ahead
        return self.text[index] if index < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on bad input."""
    return list(iter_tokens(text))


def iter_tokens(text: str) -> Iterator[Token]:
    """Yield tokens, ending with a single :data:`EOF` token."""
    cursor = _Cursor(text)
    while not cursor.at_end():
        ch = cursor.peek()
        line, column = cursor.line, cursor.column
        if ch.isspace():
            cursor.advance()
            continue
        if ch == ";":  # comment to end of line
            while not cursor.at_end() and cursor.peek() != "\n":
                cursor.advance()
            continue
        if ch == "(":
            cursor.advance()
            yield Token(LPAREN, "(", line, column)
            continue
        if ch == ")":
            cursor.advance()
            yield Token(RPAREN, ")", line, column)
            continue
        if ch == "^":
            cursor.advance()
            name = _read_symbol(cursor)
            if not name:
                raise ParseError("expected attribute name after '^'", line, column)
            yield Token(ATTRIBUTE, name, line, column)
            continue
        if ch == "-":
            token = _lex_minus(cursor, line, column)
            yield token
            continue
        if ch == "<":
            yield _lex_angle(cursor, line, column)
            continue
        if ch == '"':
            yield _lex_string(cursor, line, column)
            continue
        if ch.isdigit() or (
            ch in "+." and cursor.peek(1).isdigit()
        ):
            yield _lex_number(cursor, line, column)
            continue
        matched_op = _match_operator(cursor)
        if matched_op is not None:
            yield Token(OPERATOR, matched_op, line, column)
            continue
        if _is_symbol_char(ch):
            name = _read_symbol(cursor)
            yield Token(SYMBOL, name, line, column)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    yield Token(EOF, "", cursor.line, cursor.column)


def _read_symbol(cursor: _Cursor) -> str:
    chars: list[str] = []
    while not cursor.at_end() and _is_symbol_char(cursor.peek()):
        chars.append(cursor.advance())
    return "".join(chars)


def _lex_minus(cursor: _Cursor, line: int, column: int) -> Token:
    """Disambiguate ``-``: negation, negative number, or operator."""
    nxt = cursor.peek(1)
    if nxt.isdigit() or (nxt == "." and cursor.peek(2).isdigit()):
        return _lex_number(cursor, line, column)
    cursor.advance()
    if cursor.peek() == "-" and cursor.peek(1) == ">":
        cursor.advance()
        cursor.advance()
        return Token(ARROW, "-->", line, column)
    if cursor.peek() == "(":
        return Token(NEGATION, "-", line, column)
    return Token(OPERATOR, "-", line, column)


def _lex_angle(cursor: _Cursor, line: int, column: int) -> Token:
    """Disambiguate ``<``: variable ``<x>`` vs operators ``<`` ``<=`` ``<>``."""
    # Look ahead for a well-formed variable: '<' symbol-chars '>'.
    ahead = 1
    name_chars: list[str] = []
    while _is_symbol_char(cursor.peek(ahead)):
        name_chars.append(cursor.peek(ahead))
        ahead += 1
    if name_chars and cursor.peek(ahead) == ">":
        for _ in range(ahead + 1):
            cursor.advance()
        return Token(VARIABLE, "".join(name_chars), line, column)
    cursor.advance()
    if cursor.peek() == "=":
        cursor.advance()
        return Token(OPERATOR, "<=", line, column)
    if cursor.peek() == ">":
        cursor.advance()
        return Token(OPERATOR, "<>", line, column)
    return Token(OPERATOR, "<", line, column)


def _lex_string(cursor: _Cursor, line: int, column: int) -> Token:
    cursor.advance()  # opening quote
    chars: list[str] = []
    while True:
        if cursor.at_end():
            raise ParseError("unterminated string literal", line, column)
        ch = cursor.advance()
        if ch == '"':
            break
        if ch == "\\":
            if cursor.at_end():
                raise ParseError("unterminated escape", line, column)
            escape = cursor.advance()
            chars.append({"n": "\n", "t": "\t"}.get(escape, escape))
        else:
            chars.append(ch)
    return Token(STRING, "".join(chars), line, column)


def _lex_number(cursor: _Cursor, line: int, column: int) -> Token:
    chars: list[str] = []
    if cursor.peek() in "+-":
        chars.append(cursor.advance())
    saw_dot = False
    while not cursor.at_end():
        ch = cursor.peek()
        if ch.isdigit():
            chars.append(cursor.advance())
        elif ch == "." and not saw_dot and cursor.peek(1).isdigit():
            saw_dot = True
            chars.append(cursor.advance())
        else:
            break
    text = "".join(chars)
    if text in ("+", "-"):
        raise ParseError(f"malformed number {text!r}", line, column)
    return Token(NUMBER, text, line, column)


def _match_operator(cursor: _Cursor) -> str | None:
    for op in _OPERATORS:
        if cursor.text.startswith(op, cursor.pos):
            # '<'-family handled by _lex_angle; here only ops that can
            # start a token at this point.
            for _ in op:
                cursor.advance()
            return op
    return None
