"""Reference semantics the benchmark checks the program against.

Exact, iterative and zero-totalized: 0^-1 = 0 and q / 0 = 0, with the
three punched variants of ``meadows.partial`` as an option.  It shares
no code with ``meadows.evaluate``.  It reads three kinds of term: the
benchmark's own tuple trees (see ``workloads``), program ``Term``
objects (by class name and field) and the program's JSON documents
(``{"op": ..., "args": [...]}``).  All three are first flattened into a
prefix-order token list, so depth never touches the interpreter stack.
"""

from __future__ import annotations

from fractions import Fraction

ADD, MUL, DIV, NEG, INV, POW = "+", "*", "/", "~", "^", "pow"

_TERM_OPS = {"Add": ADD, "Mul": MUL, "Div": DIV, "Neg": NEG, "Inv": INV}
_DOC_OPS = {"add": ADD, "mul": MUL, "div": DIV, "neg": NEG, "inv": INV}


def tokens(node) -> list:
    """Prefix-order tokens: a numeral, a variable name, an operator, or (POW, n)."""
    out: list = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            out.append(n)
        elif isinstance(n, tuple):
            if n[0] == POW:
                out.append((POW, n[2]))
                stack.append(n[1])
            else:
                out.append(n[0])
                stack.extend(reversed(n[1:]))
        elif isinstance(n, dict):
            op = n["op"]
            if op in ("zero", "one"):
                out.append("0" if op == "zero" else "1")
            elif op == "var":
                out.append(n["name"])
            else:
                out.append(_DOC_OPS[op])
                stack.extend(reversed(n["args"]))
        else:
            kind = type(n).__name__
            if kind == "Zero":
                out.append("0")
            elif kind == "One":
                out.append("1")
            elif kind == "Var":
                out.append(n.name)
            elif kind in ("Neg", "Inv"):
                out.append(_TERM_OPS[kind])
                stack.append(n.arg)
            else:
                out.append(_TERM_OPS[kind])
                stack.append(n.right)
                stack.append(n.left)
    return out


def evaluate(node, env, punch: str | None = None):
    """Exact value of ``node`` under ``env``; None means undefined under ``punch``.

    ``punch`` is None (total semantics), 'inv0' (u^-1 undefined at 0),
    'divall0' (u / 0 undefined) or 'divnz0' (u / 0 undefined unless u = 0).
    Undefined propagates through every operation.
    """
    stack: list = []
    for tok in reversed(tokens(node)):
        if isinstance(tok, tuple):
            a = stack.pop()
            stack.append(None if a is None else a ** tok[1])
        elif tok.isdigit():
            stack.append(Fraction(int(tok)))
        elif tok in (ADD, MUL, DIV):
            a, b = stack.pop(), stack.pop()
            if a is None or b is None:
                stack.append(None)
            elif tok == ADD:
                stack.append(a + b)
            elif tok == MUL:
                stack.append(a * b)
            elif b != 0:
                stack.append(a / b)
            elif punch == "divall0" or (punch == "divnz0" and a != 0):
                stack.append(None)
            else:
                stack.append(Fraction(0))
        elif tok == NEG:
            a = stack.pop()
            stack.append(None if a is None else -a)
        elif tok == INV:
            a = stack.pop()
            if a is None or (a == 0 and punch == "inv0"):
                stack.append(None)
            else:
                stack.append(Fraction(0) if a == 0 else 1 / a)
        else:
            stack.append(Fraction(env[tok]))
    (value,) = stack
    return value


def variables(node) -> set[str]:
    return {t for t in tokens(node) if isinstance(t, str) and t[0].isalpha()}


def operators(node) -> set:
    return {t for t in tokens(node) if t in (ADD, MUL, DIV, NEG, INV, "0")}


def poly_value(items, point: dict[str, int]) -> int:
    """Value of a polynomial given as (monomial, coefficient) pairs at an integer point."""
    total = 0
    for mono, coeff in items:
        term = coeff
        for var, exp in mono:
            term *= point[var] ** exp
        total += term
    return total


def poly_text_value(text: str, point: dict[str, int]) -> int:
    """Value of a rendered polynomial such as ``2*x^2*y + x + 3`` at an integer point."""
    total = 0
    for monomial in text.split(" + "):
        term = 1
        for factor in monomial.split("*"):
            if factor.isdigit():
                term *= int(factor)
            else:
                var, _, exp = factor.partition("^")
                term *= point[var] ** int(exp or 1)
        total += term
    return total
