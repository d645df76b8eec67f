"""Term syntax over the union of all meadow signatures.

A term is an immutable tree built from the constants 0 and 1, variables,
addition, multiplication, additive inverse (negation), multiplicative
inverse, and division.  Individual signatures permit only a subset of
these constructors; ``conforms`` checks membership dynamically so the
same tree type serves every signature.

Every traversal in the package goes through ``nodes`` (the nodes,
parents first, gathered on an explicit stack) or ``fold`` (bottom-up over
that list), so terms of any depth can be hashed, printed, evaluated and
rewritten; equality walks both trees in step on a stack of its own.
Each node caches its hash at construction.  ``t^n`` is ``1·t·…·t`` over
one ``t`` object, which ``nodes`` lists once and ``fold`` folds once.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import is_
from typing import Callable, TypeVar

from .exceptions import ZeroNotInSignature

VAR_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

# reserved in the concrete syntax for the function form of the inverse
RESERVED_WORDS = frozenset({"inv"})

R = TypeVar("R")


class Term:
    """Base class of the term tree; instances are immutable and hashable."""

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()
    _arity = 0

    def __init__(self):  # the constants
        _SET_HASH(self, hash((self.__class__,)))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Both trees walked in step on an explicit stack; a pair of one
        object is equal without a walk, so a shared subtree is skipped."""
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        stack = [(self, other)]
        pop, push = stack.pop, stack.append
        while stack:
            a, b = pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            arity = a._arity
            if arity == 2:
                push((a.right, b.right))
                push((a.left, b.left))
            elif arity:
                push((a.arg, b.arg))
            elif a.__class__ is Var and a.name != b.name:
                return False
        return True

    def __repr__(self) -> str:
        # The fold nests tuples of strings and one pass joins them, so the
        # text of a deep term is copied once, not once per level.
        def visit(node: Term, *children: tuple) -> tuple:
            values = (repr(node.name),) if node.__class__ is Var else children
            fields: list = []
            for name, value in zip(node.__match_args__, values):
                fields += [", ", name, "=", value]
            return (type(node).__name__, "(", *fields[1:], ")")

        parts, stack = [], [fold(self, visit)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            else:
                stack.extend(reversed(item))
        return "".join(parts)

    def __add__(self, other: "Term") -> "Term":
        return Add(self, other)

    def __mul__(self, other: "Term") -> "Term":
        return Mul(self, other)

    def __neg__(self) -> "Term":
        return Neg(self)

    def __truediv__(self, other: "Term") -> "Term":
        return Div(self, other)

    def __pow__(self, exponent: int) -> "Term":
        if exponent == -1:
            return Inv(self)
        return power(self, exponent)

    def inv(self) -> "Term":
        return Inv(self)


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        if not VAR_NAME.match(name) or name in RESERVED_WORDS:
            raise ValueError(f"invalid variable name: {name!r}")
        _SET_NAME(self, name)
        _SET_HASH(self, hash((Var, name)))


class _Unary(Term):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)
    _arity = 1

    def __init__(self, arg: Term):
        _SET_ARG(self, arg)
        _SET_HASH(self, hash((self.__class__, arg._hash)))


class _Binary(Term):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _arity = 2

    def __init__(self, left: Term, right: Term):
        _SET_LEFT(self, left)
        _SET_RIGHT(self, right)
        _SET_HASH(self, hash((self.__class__, left._hash, right._hash)))


# Slot writers for the constructors; ordinary assignment is refused.
_SET_HASH = Term._hash.__set__
_SET_NAME = Var.name.__set__
_SET_ARG = _Unary.arg.__set__
_SET_LEFT = _Binary.left.__set__
_SET_RIGHT = _Binary.right.__set__


def _unchecked_var(name: str) -> Var:
    """A ``Var`` without the name check, for a leaf such as ``(x + y)^-1`` no name can be."""
    var = object.__new__(Var)
    _SET_NAME(var, name)
    _SET_HASH(var, hash((Var, name)))
    return var


class Add(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Neg(_Unary):
    __slots__ = ()


class Inv(_Unary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class _Reused:
    """Stands in ``nodes`` for the right operand of a power-chain link."""

    __slots__ = ()
    _arity = -1


_REUSED = _Reused()


def nodes(t: Term) -> list:
    """The nodes of ``t``, parents first, with ``_REUSED`` for the right subtree of each link.

    A power-chain link is a node whose right operand is not a leaf and is
    the same object as its left operand's right operand, as ``power`` builds.
    """
    order: list = []
    stack = [t]
    pop, push, emit = stack.pop, stack.append, order.append
    while stack:
        node = pop()
        emit(node)
        arity = node._arity
        if arity == 2:
            left, right = node.left, node.right
            push(left)
            if right._arity and left._arity == 2 and left.right is right:
                emit(_REUSED)
            else:
                push(right)
        elif arity:
            push(node.arg)
    return order


def fold(t: Term, visit: Callable[..., R]) -> R:
    """Bottom-up fold: ``visit(node, *child_results)`` at every node, children left to right.

    Nodes are visited in post-order, left subtree first, so effects and
    errors of ``visit`` happen in the order a left-to-right recursion
    would meet them after its children.  The base ``t`` of ``t^n`` is one
    object, folded where such a recursion first meets it and reused at each
    later link's ``_REUSED``, so ``visit`` must give equal results for equal subtrees.
    """
    out: list = []
    right = None
    for node in reversed(nodes(t)):
        arity = node._arity
        if arity == 2:
            right = out.pop()
            out[-1] = visit(node, out[-1], right)
        elif not arity:
            out.append(visit(node))
        elif arity == 1:
            out[-1] = visit(node, out[-1])
        else:  # the right operand result of the link just visited, its left operand
            out.append(right)
    return out[0]


ZERO = Zero()
ONE = One()


class SignatureId(Enum):
    """The seven signatures; enum values are the command-line names.

    CR is the commutative-ring signature {0, 1, +, *, -}.  IMD/DMD extend
    it with the inverse / division operator.  The *arithmetical* variants
    drop negation (IAMDZ, DAMDZ) and then also the constant 0 (IAMD,
    DAMD).
    """

    CR = "cr"
    IMD = "imd"
    DMD = "dmd"
    IAMDZ = "iamdz"
    DAMDZ = "damdz"
    IAMD = "iamd"
    DAMD = "damd"

    @property
    def constructors(self) -> frozenset[type]:
        return _SIGNATURE_CONSTRUCTORS[self]

    @property
    def has_zero(self) -> bool:
        return Zero in _SIGNATURE_CONSTRUCTORS[self]

    @property
    def has_neg(self) -> bool:
        return Neg in _SIGNATURE_CONSTRUCTORS[self]

    @property
    def has_inv(self) -> bool:
        return Inv in _SIGNATURE_CONSTRUCTORS[self]

    @property
    def has_div(self) -> bool:
        return Div in _SIGNATURE_CONSTRUCTORS[self]


_RING = frozenset({Zero, One, Add, Mul, Neg})

_SIGNATURE_CONSTRUCTORS: dict[SignatureId, frozenset[type]] = {
    SignatureId.CR: _RING,
    SignatureId.IMD: _RING | {Inv},
    SignatureId.DMD: _RING | {Div},
    SignatureId.IAMDZ: frozenset({Zero, One, Add, Mul, Inv}),
    SignatureId.DAMDZ: frozenset({Zero, One, Add, Mul, Div}),
    SignatureId.IAMD: frozenset({One, Add, Mul, Inv}),
    SignatureId.DAMD: frozenset({One, Add, Mul, Div}),
}


def numeral(n: int, sig: SignatureId = SignatureId.IAMDZ) -> Term:
    """The numeral term for the natural number ``n``.

    0 maps to the constant 0 (only over signatures that have it), 1 to
    the constant 1, and n >= 2 to the left-nested sum ((1 + 1) + ...) + 1.
    """
    if n < 0:
        raise ValueError("numerals are defined for natural numbers only")
    if n == 0:
        if not sig.has_zero:
            raise ZeroNotInSignature(f"numeral 0 does not exist over {sig.value}")
        return ZERO
    t: Term = ONE
    for _ in range(n - 1):
        t = Add(t, ONE)
    return t


def power(t: Term, n: int) -> Term:
    """Exponent sugar: power(t, 0) = 1 and power(t, n+1) = power(t, n) * t."""
    if n < 0:
        raise ValueError("exponents are natural numbers; use Inv for the inverse")
    result: Term = ONE
    for _ in range(n):
        result = Mul(result, t)
    return result


def constructors(t: Term) -> set[type]:
    """The constructor classes occurring in ``t``; a variable is not a constructor."""
    used = set(map(type, nodes(t)))
    used.difference_update((Var, _Reused))
    return used


def conforms(t: Term, sig: SignatureId) -> bool:
    """True iff every constructor occurring in ``t`` is permitted by ``sig``."""
    return constructors(t) <= sig.constructors


def rebuild(node: Term, *children: Term) -> Term:
    """``node`` over new children; ``node`` itself when they are the old ones."""
    old = (node.left, node.right) if node._arity == 2 else (node.arg,) if node._arity else ()
    return node if all(map(is_, children, old)) else node.__class__(*children)


def substitute(t: Term, var: str, replacement: Term) -> Term:
    """Replace every occurrence of the variable ``var`` in ``t`` by ``replacement``."""

    def visit(node: Term, *children: Term) -> Term:
        if node.__class__ is Var and node.name == var:
            return replacement
        return rebuild(node, *children)

    return fold(t, visit)


def free_vars(t: Term) -> tuple[str, ...]:
    """The variables occurring in ``t``, sorted lexicographically."""
    return tuple(sorted({node.name for node in nodes(t) if node.__class__ is Var}))


def is_closed(t: Term) -> bool:
    return not free_vars(t)


def term_size(t: Term) -> int:
    """Number of node occurrences, leaves included: the base of ``t^n`` counts n times."""
    return fold(t, lambda node, *children: 1 + sum(children))
