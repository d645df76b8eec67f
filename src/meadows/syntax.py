"""Concrete syntax: parser, canonical printer, and JSON serialization.

Grammar, lowest precedence first:

    expr     = term   { "+" term }                 left associative
    term     = factor { ("*" | "/") factor }       left associative
    factor   = "-" factor | postfix
    postfix  = atom { "^" exponent }               exponent = "-1" or a natural
    atom     = "(" expr ")" | "inv" "(" expr ")" | natural | identifier

Natural literals expand to structural numerals (0, 1, 1+1, (1+1)+1, ...)
and "^n" expands through the iterated-product definition of powers, so
the abstract syntax never stores literals or exponents.  The tree nodes
that this expansion builds in one input are bounded (``_EXPANSION_BUDGET``,
nested powers multiplying); past the bound the parser raises ParseError
at the literal or exponent.  Identifiers match [a-z][a-z0-9_]*; "inv" is
reserved for the function form of the inverse.  Blanks are space, tab,
carriage return and newline; each line ends at a newline.  One regular
expression scans the text; tokens keep their offset, and the 1-based line
and column of an error or of the parsed span are worked out from offsets.

The printer emits minimal parentheses under the same precedence table;
parsing its output reproduces the term exactly.  By default maximal
numeral subterms collapse back to decimal literals; structural mode
spells them out.  Parser and printer keep their own stacks, so nesting
depth is unbounded; the json module recurses, so JSON documents deeper
than it allows are refused with SchemaError.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from typing import NamedTuple, NoReturn, Optional

from .exceptions import ParseError, SchemaError
from .terms import (
    Add,
    Div,
    Inv,
    Mul,
    Neg,
    One,
    Term,
    Var,
    Zero,
    fold,
    numeral,
    power,
)


class Span(NamedTuple):
    """1-based start/end positions of a piece of source text."""

    start_line: int
    start_column: int
    end_line: int
    end_column: int


class ParsedInput(NamedTuple):
    term: Term
    source: str
    span: Span


class _Token(NamedTuple):
    kind: str
    text: str
    start: int  # offset in the source text


# Blanks, then a token, one other character, or the end.  After the blanks
# one of these always matches, so the scan covers every character.
_SCAN = re.compile(
    r"[ \t\r\n]*(?:(?P<ident>[a-z][a-z0-9_]*)|(?P<nat>[0-9]+)|(?P<op>[()+*/^-])|(?P<other>.)|\Z)"
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        if kind == "other":
            raise ParseError(f"unexpected character {m[kind]!r}", *_position(text, m.start(kind)))
        if kind is not None:
            tokens.append(_Token(m[kind] if kind == "op" else kind, m[kind], m.start(kind)))
    return tokens


# Tree nodes that numeral and "^n" expansion may build in one parse.  Nested
# powers multiply: ((x^1000)^1000)^1000 is 22 characters and 2 * 10^9 nodes.
_EXPANSION_BUDGET = 10**6


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.budget = _EXPANSION_BUDGET

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token is None or token.kind != kind:
            self.fail(f"expected {kind!r}")
        return self.advance()

    def fail(self, message: str) -> NoReturn:
        token = self.peek()
        if token is None:
            raise ParseError(f"{message}, found end of input", *self.end_position())
        raise ParseError(f"{message}, found {token.text!r}", *_position(self.source, token.start))

    def end_position(self) -> tuple[int, int]:
        last = self.tokens[-1]
        return _position(self.source, last.start + len(last.text))

    def natural(self, base_size: Optional[int] = None) -> int:
        """The natural at the next token: a numeral's value, or an exponent.

        Its expansion, 2n tree nodes for a numeral or n * (base_size + 1) for
        a power, is taken from the budget; past it, ParseError at the token.
        """
        token = self.advance()
        text = token.text
        # Eight digits are past the budget whatever the base, and int() refuses
        # 4,301 of them.
        if len(text) > 7 and len(text.lstrip("0")) > 7:
            n = cost = self.budget + 1
        else:
            n = int(text)
            cost = 2 * n if base_size is None else n * (base_size + 1)
        if cost > self.budget:
            what = "exponent" if base_size is not None else "numeral"
            message = f"{what} expands past {_EXPANSION_BUDGET} tree nodes in one input"
            raise ParseError(message, *_position(self.source, token.start))
        self.budget -= cost
        return n

    def parse_expr(self) -> Term:
        """Operator-precedence parsing on explicit stacks, so nesting depth is unbounded.

        ``pending`` holds open brackets ("(" or "inv"), which stop
        reductions, and operators not yet applied.  Each operand is kept
        with its tree size, which prices the powers of it.
        """
        operands: list[tuple[Term, int]] = []
        pending: list[str] = []

        def reduce(precedence: int) -> None:
            while pending and _BINDING.get(pending[-1], 0) >= precedence:
                op, (arg, size) = pending.pop(), operands.pop()
                if op == "neg":
                    operands.append((Neg(arg), size + 1))
                else:
                    left, left_size = operands.pop()
                    operands.append((_INFIX[op](left, arg), left_size + size + 1))

        while True:
            # An operand: prefix operators and opening brackets, then an atom.
            token = self.peek()
            kind = token.kind if token is not None else None
            if kind == "-" or kind == "(":
                self.advance()
                pending.append("neg" if kind == "-" else "(")
                continue
            if kind == "ident" and token.text == "inv":
                self.advance()
                self.expect("(")
                pending.append("inv")
                continue
            if kind == "ident":
                operands.append((Var(self.advance().text), 1))
            elif kind == "nat":
                n = self.natural()
                operands.append((numeral(n), max(2 * n - 1, 1)))
            else:
                self.fail("expected an expression")
            # Postfix exponents, closing brackets, then an infix operator or the end.
            while True:
                while (token := self.peek()) is not None and token.kind == "^":
                    self.advance()
                    operands.append(self.parse_exponent(*operands.pop()))
                if token is not None and token.kind in _INFIX:
                    reduce(_BINDING[token.kind])
                    pending.append(self.advance().kind)
                    break
                reduce(1)
                if not pending:
                    return operands[0][0]
                if token is None or token.kind != ")":
                    self.fail("expected ')'")
                self.advance()
                if pending.pop() == "inv":
                    arg, size = operands.pop()
                    operands.append((Inv(arg), size + 1))

    def parse_exponent(self, base: Term, size: int) -> tuple[Term, int]:
        token = self.peek()
        if token is not None and token.kind == "-":
            self.advance()
            digits = self.peek()
            if digits is None or digits.kind != "nat" or digits.text != "1":
                self.fail("expected 1 after '^-' (only ^-1 is an inverse)")
            self.advance()
            return Inv(base), size + 1
        if token is not None and token.kind == "nat":
            n = self.natural(size)
            return power(base, n), 1 + n * (size + 1)
        self.fail("expected -1 or a natural number after '^'")


# Binding strength of the pending operators; brackets are absent (0).
_BINDING = {"+": 1, "*": 2, "/": 2, "neg": 3}
_INFIX = {"+": Add, "*": Mul, "/": Div}


def parse(text: str) -> ParsedInput:
    """Parse an expression; raises ParseError with position on bad input."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    parser = _Parser(tokens, text)
    term = parser.parse_expr()
    if parser.peek() is not None:
        parser.fail("unexpected trailing input")
    span = Span(*_position(text, tokens[0].start), *parser.end_position())
    return ParsedInput(term, text, span)


def parse_term(text: str) -> Term:
    return parse(text).term


class NumeralStyle(Enum):
    DECIMAL = "decimal"
    STRUCTURAL = "structural"


def numeral_value(t: Term) -> Optional[int]:
    """The n with t = numeral(n), or None if t is not a numeral."""
    count = 0
    node = t
    while isinstance(node, Add) and isinstance(node.right, One):
        count += 1
        node = node.left
    if isinstance(node, One):
        return count + 1
    if isinstance(node, Zero) and count == 0:
        return 0
    return None


# Precedence levels for printing; higher binds tighter.
_ADD, _MUL, _NEG, _POSTFIX, _ATOM = 1, 2, 3, 4, 5
_INFIX_TEXT = {Add: (" + ", _ADD), Mul: (" * ", _MUL), Div: (" / ", _MUL)}


def render(t: Term, numerals: NumeralStyle = NumeralStyle.DECIMAL) -> str:
    """Canonical minimal-parentheses text; parse(render(t)) equals t."""
    decimal = numerals is NumeralStyle.DECIMAL

    def wrap(child: tuple, minimum: int) -> str:
        return child[0] if child[1] >= minimum else f"({child[0]})"

    # Each node folds to (text, precedence level, n if it is numeral(n),
    # (base, n) if it is power(base, n) with n >= 1), so numerals and
    # power chains are recognised in one pass.
    def visit(node: Term, a=None, b=None) -> tuple:
        kind = node.__class__
        count = chain = None
        if kind is One:
            count = 1
        elif kind is Zero:
            count = 0
        elif kind is Add and b[2] == 1 and a[2]:
            count = a[2] + 1
        elif kind is Mul and a[2] == 1:
            chain = (node.right, 1)
        elif kind is Mul and a[3] is not None and a[3][0] == node.right:
            chain = (node.right, a[3][1] + 1)
        if count is not None and (decimal or kind is not Add):
            return str(count), _ATOM, count, None
        if chain is not None and chain[1] >= 2:
            # x^2 parses to the structural unfolding 1*x*x, so collapsing the
            # chain back keeps parse(render(t)) == t while reading naturally.
            return f"{wrap(b, _POSTFIX)}^{chain[1]}", _POSTFIX, None, chain
        if kind is Var:
            return node.name, _ATOM, None, None
        if kind is Neg:
            return f"-{wrap(a, _NEG)}", _NEG, None, None
        if kind is Inv:
            return f"{wrap(a, _POSTFIX)}^-1", _POSTFIX, None, None
        op, level = _INFIX_TEXT[kind]
        return f"{wrap(a, level)}{op}{wrap(b, level + 1)}", level, count, chain

    return fold(t, visit)[0]


_SERIAL_OPS = {"zero": Zero, "one": One, "neg": Neg, "inv": Inv, "add": Add, "mul": Mul, "div": Div}
_OP_NAMES = {cls: name for name, cls in _SERIAL_OPS.items()}


def term_to_dict(t: Term) -> dict:
    """``t`` as nested dicts, the JSON form ``term_from_dict`` reads.

    One subterm object gives one dict at each of its places, such as the
    base of ``t^n``, so copy the result before editing it in place.
    """

    def visit(node: Term, *args: dict) -> dict:
        if node.__class__ is Var:
            return {"op": "var", "name": node.name}
        doc = {"op": _OP_NAMES[node.__class__]}
        if args:
            doc["args"] = list(args)
        return doc

    return fold(t, visit)


def term_from_dict(doc: object) -> Term:
    # Check every node parents first, as read, then build bottom-up; both
    # passes keep their own stack, so documents of any depth load.
    order: list = []
    stack = [doc]
    while stack:
        doc = stack.pop()
        if not isinstance(doc, dict):
            raise SchemaError(f"expected an object, got {type(doc).__name__}")
        op = doc.get("op")
        if op == "var":
            name = doc.get("name")
            if not isinstance(name, str):
                raise SchemaError("var node needs a string 'name'")
            try:
                order.append(Var(name))
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        elif isinstance(op, str) and op in _SERIAL_OPS:
            kind = _SERIAL_OPS[op]
            if kind._arity:
                args = doc.get("args")
                if not isinstance(args, list) or len(args) != kind._arity:
                    raise SchemaError(f"{op} node needs exactly {kind._arity} args")
                stack.extend(reversed(args))
            order.append(kind)
        else:
            raise SchemaError(f"unknown op tag: {op!r}")
    out: list[Term] = []
    for item in reversed(order):
        if isinstance(item, Term):
            out.append(item)
        else:
            out.append(item(*[out.pop() for _ in range(item._arity)]))
    return out[0]


def serialize(t: Term) -> str:
    """JSON document for a term: op tag, children under 'args', var 'name'."""
    doc = term_to_dict(t)
    try:
        return json.dumps(doc)
    except RecursionError:
        raise SchemaError("term is nested too deeply for the json module") from None


def deserialize(text: str) -> Term:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("document is nested too deeply for the json module") from None
    return term_from_dict(doc)
