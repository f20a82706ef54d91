"""Recursive-descent parser for the rule DSL.

Grammar (s-expression shaped, after :mod:`repro.lang.tokens`)::

    program     := production*
    production  := '(' 'p' NAME [NUMBER] ce+ '-->' action* ')'
    ce          := ['-'] '(' RELATION test* ')'
    test        := ATTR value
                 | ATTR OPERATOR value
    value       := literal | VARIABLE
    action      := '(' 'make' RELATION (ATTR expr)* ')'
                 | '(' 'modify' NUMBER (ATTR expr)* ')'
                 | '(' 'remove' NUMBER ')'
                 | '(' 'bind' VARIABLE expr ')'
                 | '(' 'write' expr* ')'
                 | '(' 'halt' ')'
    expr        := literal | VARIABLE | '(' expr OPERATOR expr ')'

The optional number after the production name is its priority.  The
symbols ``true``, ``false`` and ``nil`` lex as symbols and parse as
``True``, ``False`` and ``None``.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang.ast import (
    Action,
    BinaryExpr,
    BindAction,
    ConditionElement,
    Constant,
    ConstantTest,
    HaltAction,
    MakeAction,
    ModifyAction,
    PredicateTest,
    RemoveAction,
    Test,
    ValueExpr,
    VariableRef,
    VariableTest,
    WriteAction,
)
from repro.lang.production import Production, check_unique_names
from repro.lang.tokens import (
    ARROW,
    ATTRIBUTE,
    EOF,
    LPAREN,
    NEGATION,
    NUMBER,
    OPERATOR,
    RPAREN,
    STRING,
    SYMBOL,
    VARIABLE,
    Token,
    tokenize,
)
from repro.wm.element import Scalar

_KEYWORD_LITERALS: dict[str, Scalar] = {
    "true": True,
    "false": False,
    "nil": None,
}

_ARITHMETIC_OPS = ("+", "-", "*", "/", "//", "%")
_PREDICATE_OPS = ("=", "<>", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ----------------------------------------------------------

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def expect(self, kind: str, what: str = "") -> Token:
        token = self.peek()
        if token.kind != kind:
            expected = what or kind.lower()
            raise ParseError(
                f"expected {expected}, found {token.kind} {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_symbol(self, text: str) -> Token:
        token = self.expect(SYMBOL, f"'{text}'")
        if token.text != text:
            raise ParseError(
                f"expected '{text}', found {token.text!r}",
                token.line,
                token.column,
            )
        return token

    def expect_int(self, what: str) -> int:
        token = self.expect(NUMBER, what)
        try:
            return int(token.text)
        except ValueError:
            message = f"{what} must be an integer, found {token.text!r}"
            raise ParseError(message, token.line, token.column) from None

    # -- grammar -----------------------------------------------------------------

    def parse_program(self) -> list[Production]:
        productions: list[Production] = []
        while self.peek().kind != EOF:
            productions.append(self.parse_production())
        check_unique_names(productions)
        return productions

    def parse_production(self) -> Production:
        self.expect(LPAREN, "'(' starting a production")
        self.expect_symbol("p")
        name = self.expect(SYMBOL, "production name").text
        priority = 0
        if self.peek().kind == NUMBER:
            priority = self.expect_int(f"priority of {name!r}")
        lhs: list[ConditionElement] = []
        while self.peek().kind in (LPAREN, NEGATION):
            lhs.append(self.parse_condition_element())
        arrow = self.peek()
        if arrow.kind != ARROW:
            raise ParseError(
                f"expected '-->' after LHS of {name!r}, found "
                f"{arrow.kind} {arrow.text!r}",
                arrow.line,
                arrow.column,
            )
        self.advance()
        rhs: list[Action] = []
        while self.peek().kind == LPAREN:
            rhs.append(self.parse_action())
        self.expect(RPAREN, "')' closing the production")
        return Production(name, tuple(lhs), tuple(rhs), priority)

    def parse_condition_element(self) -> ConditionElement:
        negated = False
        if self.peek().kind == NEGATION:
            self.advance()
            negated = True
        self.expect(LPAREN, "'(' starting a condition element")
        relation = self.expect(SYMBOL, "relation name").text
        tests: list[Test] = []
        while self.peek().kind == ATTRIBUTE:
            tests.append(self.parse_test())
        self.expect(RPAREN, "')' closing the condition element")
        return ConditionElement(relation, tuple(tests), negated)

    def parse_test(self) -> Test:
        attribute = self.expect(ATTRIBUTE).text
        token = self.peek()
        if token.kind == OPERATOR:
            op = self.advance().text
            if op not in _PREDICATE_OPS:
                raise ParseError(
                    f"operator {op!r} is not a predicate",
                    token.line,
                    token.column,
                )
            return self._finish_predicate(attribute, op)
        if token.kind == VARIABLE:
            self.advance()
            return VariableTest(attribute, token.text)
        literal = self.parse_literal("test value")
        return ConstantTest(attribute, literal)

    def _finish_predicate(self, attribute: str, op: str) -> Test:
        token = self.peek()
        if token.kind == VARIABLE:
            self.advance()
            if op == "=":
                return VariableTest(attribute, token.text)
            return PredicateTest(attribute, op, token.text, True)
        literal = self.parse_literal("predicate operand")
        if op == "=":
            return ConstantTest(attribute, literal)
        return PredicateTest(attribute, op, literal, False)

    def parse_action(self) -> Action:
        self.expect(LPAREN, "'(' starting an action")
        head = self.expect(SYMBOL, "action name").text
        if head == "make":
            relation = self.expect(SYMBOL, "relation name").text
            values = self.parse_value_list()
            self.expect(RPAREN)
            return MakeAction(relation, values)
        if head == "modify":
            index = self.expect_int("element designator")
            values = self.parse_value_list()
            self.expect(RPAREN)
            return ModifyAction(index, values)
        if head == "remove":
            index = self.expect_int("element designator")
            self.expect(RPAREN)
            return RemoveAction(index)
        if head == "bind":
            variable = self.expect(VARIABLE, "variable").text
            expr = self.parse_expr()
            self.expect(RPAREN)
            return BindAction(variable, expr)
        if head == "write":
            exprs: list[ValueExpr] = []
            while self.peek().kind != RPAREN:
                exprs.append(self.parse_expr())
            self.expect(RPAREN)
            return WriteAction(tuple(exprs))
        if head == "halt":
            self.expect(RPAREN)
            return HaltAction()
        token = self.peek()
        raise ParseError(
            f"unknown action {head!r}", token.line, token.column
        )

    def parse_value_list(self) -> tuple[tuple[str, ValueExpr], ...]:
        pairs: list[tuple[str, ValueExpr]] = []
        while self.peek().kind == ATTRIBUTE:
            attribute = self.advance().text
            pairs.append((attribute, self.parse_expr()))
        return tuple(pairs)

    def parse_expr(self) -> ValueExpr:
        token = self.peek()
        if token.kind == VARIABLE:
            self.advance()
            return VariableRef(token.text)
        if token.kind == LPAREN:
            self.advance()
            left = self.parse_expr()
            op_token = self.expect(OPERATOR, "arithmetic operator")
            if op_token.text not in _ARITHMETIC_OPS:
                raise ParseError(
                    f"operator {op_token.text!r} is not arithmetic",
                    op_token.line,
                    op_token.column,
                )
            right = self.parse_expr()
            self.expect(RPAREN, "')' closing the expression")
            return BinaryExpr(op_token.text, left, right)
        return Constant(self.parse_literal("expression"))

    def parse_literal(self, what: str) -> Scalar:
        token = self.peek()
        if token.kind == NUMBER:
            self.advance()
            text = token.text
            return float(text) if "." in text else int(text)
        if token.kind == STRING:
            self.advance()
            return token.text
        if token.kind == SYMBOL:
            self.advance()
            if token.text in _KEYWORD_LITERALS:
                return _KEYWORD_LITERALS[token.text]
            return token.text
        raise ParseError(
            f"expected {what}, found {token.kind} {token.text!r}",
            token.line,
            token.column,
        )


def parse_production(text: str) -> Production:
    """Parse exactly one production from ``text``.

    >>> p = parse_production('(p noop (item ^id <x>) --> (remove 1))')
    >>> p.name
    'noop'
    """
    parser = _Parser(tokenize(text))
    production = parser.parse_production()
    trailing = parser.peek()
    if trailing.kind != EOF:
        raise ParseError(
            f"trailing input after production: {trailing.text!r}",
            trailing.line,
            trailing.column,
        )
    return production


def parse_program(text: str) -> list[Production]:
    """Parse zero or more productions from ``text``."""
    return _Parser(tokenize(text)).parse_program()
