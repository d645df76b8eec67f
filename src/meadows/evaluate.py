"""Exact rational evaluation with totalized inverse and division.

The inverse of 0 is 0, and q / 0 is q * (1/0) = 0.  Values are exact
rationals, never floating point, so value equality is decidable.

One evaluator, ``_evaluator``, lists a term once and returns the function
that gives its value at a point, without recursion and on unreduced
integer pairs: a quotient takes a gcd only when its denominator passes
``_REDUCE_BITS``, and otherwise none is taken until a caller builds a
``Fraction``.  A caller that evaluates one term at many points builds the
function once and calls it per point.  Each caller gives the variable
values and the constructors it admits: an environment and a carrier for
``eval_total`` and ``eval_punched`` (:mod:`meadows.partial`), sampled
pairs and a carrier for ``check_model``, 0/1 points and a signature for
the decision procedures.  The evaluation also says whether it met a
punched point.
"""

from __future__ import annotations

import re
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Optional, Union

from .exceptions import CarrierViolation, UnboundVariable
from .terms import Add, Div, Inv, Mul, Neg, One, SignatureId, Term, Var, Zero, _Reused, nodes


class Carrier(Enum):
    """Value domain of an evaluator; enum values are the command-line names."""

    POSITIVE = "pos"
    NON_NEGATIVE = "nonneg"
    ALL = "all"

    def contains(self, value: Fraction) -> bool:
        if self is Carrier.POSITIVE:
            return value > 0
        if self is Carrier.NON_NEGATIVE:
            return value >= 0
        return True

    @property
    def constructors(self) -> frozenset[type]:
        """The constructors whose values stay in the carrier."""
        return _CARRIER_CONSTRUCTORS[self]


_CARRIER_CONSTRUCTORS = {
    Carrier.POSITIVE: frozenset({One, Add, Mul, Inv, Div}),
    Carrier.NON_NEGATIVE: frozenset({Zero, One, Add, Mul, Inv, Div}),
    Carrier.ALL: frozenset({Zero, One, Add, Mul, Neg, Inv, Div}),
}


class PunchId(Enum):
    """Which operation is punched, and where."""

    INV0 = "inv0"
    DIV_ALL0 = "divall0"
    DIV_NONZERO0 = "divnz0"

    @property
    def signature(self) -> SignatureId:
        return SignatureId.IAMDZ if self is PunchId.INV0 else SignatureId.DAMDZ


RATIONAL_LITERAL = re.compile(r"(-?)(\d+)(?:/(\d+))?\Z")


def parse_rational(text: str, carrier: Carrier = Carrier.ALL) -> Fraction:
    """Parse ``n``, ``-n``, ``n/m`` or ``-n/m`` into an exact rational.

    The sign is rejected unless the carrier is all rationals, and the
    parsed value must lie in the carrier.
    """
    m = RATIONAL_LITERAL.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    sign, num, den = m.groups()
    if sign and carrier is not Carrier.ALL:
        raise CarrierViolation(f"negative literal {text!r} outside the all-rationals carrier")
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    value = Fraction(int(num), int(den) if den is not None else 1)
    if sign:
        value = -value
    if not carrier.contains(value):
        raise CarrierViolation(f"{value} is outside the {carrier.value} carrier")
    return value


def exact_str(q: Union[int, Fraction]) -> str:
    """``str(q)``, with every digit even past the interpreter's limit on
    int-to-str conversion (``sys.get_int_max_str_digits``), which it
    leaves as it is: ``decimal.Decimal`` converts an int exactly."""
    try:
        return str(q)
    except ValueError:
        if q.denominator != 1:
            return f"{exact_str(q.numerator)}/{exact_str(q.denominator)}"
        return str(Decimal(q.numerator))


def eval_total(t: Term, env: Mapping[str, Fraction], carrier: Carrier = Carrier.ALL) -> Fraction:
    """Evaluate ``t`` under ``env`` with 0^-1 = 0 and q / 0 = 0.

    Raises CarrierViolation when the term or an assigned value steps
    outside the carrier (the constant 0 over positives, negation outside
    all rationals), and UnboundVariable for uncovered variables.
    """
    p, q, _ = _evaluator(t, carrier.constructors, _outside(carrier))(_lookup(env, carrier))
    return Fraction(p, q)


def _lookup(env: Mapping[str, Fraction], carrier: Carrier) -> Callable[[str], tuple[int, int]]:
    """The value of a variable in ``env`` as a pair, checked against ``carrier``.
    Each variable is read and checked once, at its first lookup."""
    pairs: dict[str, tuple[int, int]] = {}

    def value(name: str) -> tuple[int, int]:
        pair = pairs.get(name)
        if pair is None:
            if name not in env:
                raise UnboundVariable(f"no value for variable {name}")
            q = Fraction(env[name])
            if not carrier.contains(q):
                raise CarrierViolation(f"{name} = {q} is outside the {carrier.value} carrier")
            pair = pairs[name] = q.numerator, q.denominator
        return pair

    return value


def _outside(carrier: Carrier) -> Callable[[type], CarrierViolation]:
    """The error for a constructor outside ``carrier``: 0 over positives, or negation."""
    return lambda kind: CarrierViolation(
        "the constant 0 is outside the positive carrier"
        if kind is Zero
        else f"negation is not available over the {carrier.value} carrier"
    )


# A quotient whose denominator passes this bit length is reduced: nested ones,
# as in x / (x / (... / x)), otherwise grow a bit per level.
_REDUCE_BITS = 256


def _evaluator(
    t: Term,
    allowed: frozenset[type],
    refuse: Callable[[type], Exception],
    punch: Optional[PunchId] = None,
) -> Callable[[Callable[[str], tuple[int, int]]], tuple[int, int, bool]]:
    """The function of a point, ``value -> (p, q, punched)``, that gives the value
    of ``t`` as an unreduced pair (numerator, nonzero denominator), and whether
    it met a point that ``punch`` leaves undefined.

    ``t`` is listed once, here; each point walks that listing in post-order on
    one stack.  ``value(name)`` gives a variable's pair; a constructor outside
    ``allowed`` raises ``refuse(kind)`` at its post-order position, after the
    nodes before it, so an unbound variable met first is reported first.
    q / 0 (q = 1 for 0^-1) is 0, and a punched point unless q = 0 under
    DIV_NONZERO0.  The total value is all the walk computes: below the first
    punched point it is the punched value, and above it the whole term is
    undefined.  The base of ``t^n`` is walked once, its pair reused at each
    later link's ``_REUSED``, as ``fold`` does.
    """
    order = nodes(t)
    order.reverse()
    refused = None
    outside = set(map(type, order)).difference(allowed, (Var, _Reused))
    if outside:
        # The walk stops where the first refused constructor stands.
        cut = next(i for i, node in enumerate(order) if node.__class__ in outside)
        refused = order[cut].__class__
        del order[cut:]
    strict = punch is not PunchId.DIV_NONZERO0  # 0 / 0 is punched too

    def evaluate(value: Callable[[str], tuple[int, int]]) -> tuple[int, int, bool]:
        punched = False
        out: list = []
        push, pop = out.append, out.pop
        right = None
        for node in order:
            kind = node.__class__
            if kind is Var:
                push(value(node.name))
            elif kind is Mul:
                right = b = pop()
                a = out[-1]
                out[-1] = a[0] * b[0], a[1] * b[1]
            elif kind is Add:
                right = b = pop()
                a = out[-1]
                out[-1] = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
            elif kind is One:
                push((1, 1))
            elif kind is Zero:
                push((0, 1))
            elif kind is _Reused:  # the right operand of the link just walked
                push(right)
            elif kind is Neg:
                a = out[-1]
                out[-1] = -a[0], a[1]
            else:  # a quotient: u^-1 is 1 / u
                if kind is Inv:
                    a, b = (1, 1), out[-1]
                else:
                    right = b = pop()
                    a = out[-1]
                if b[0]:
                    p, q = a[0] * b[1], a[1] * b[0]
                    if q.bit_length() > _REDUCE_BITS:
                        g = gcd(p, q)
                        p, q = p // g, q // g
                    out[-1] = p, q
                else:
                    if strict or a[0]:
                        punched = True
                    out[-1] = (0, 1)
        if refused is not None:
            raise refuse(refused)
        p, q = out[0]
        return p, q, punched

    return evaluate
