"""Exact rational evaluation with totalized inverse and division.

The inverse of 0 is 0, and q / 0 is q * (1/0) = 0.  Values are exact
rationals, never floating point, so value equality is decidable.

One fold, ``_evaluate``, gives the value of a term at a point, without
recursion and on unreduced integer pairs: a quotient takes a gcd only
when its denominator passes ``_REDUCE_BITS``, and otherwise none is taken
until a caller builds a ``Fraction``.  Each caller gives the variable
values and the constructors it admits: an environment and a carrier for
``eval_total`` and ``eval_punched`` (:mod:`meadows.partial`), sampled
pairs and a carrier for ``check_model``, 0/1 points and a signature for
the decision procedures.  The fold also says whether it met a punched
point.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Container, Mapping, Optional

from .exceptions import CarrierViolation, UnboundVariable
from .terms import Add, Div, Inv, Mul, Neg, One, SignatureId, Term, Var, Zero, fold


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


def eval_total(t: Term, env: Mapping[str, Fraction], carrier: Carrier = Carrier.ALL) -> Fraction:
    """Evaluate ``t`` under ``env`` with 0^-1 = 0 and q / 0 = 0.

    Raises CarrierViolation when the term or an assigned value steps
    outside the carrier (the constant 0 over positives, negation outside
    all rationals), and UnboundVariable for uncovered variables.
    """
    p, q, _ = _evaluate(t, _lookup(env, carrier), carrier.constructors, _outside(carrier))
    return Fraction(p, q)


def _lookup(env: Mapping[str, Fraction], carrier: Carrier) -> Callable[[str], tuple[int, int]]:
    """The value of a variable in ``env`` as a pair, checked against ``carrier``."""

    def value(name: str) -> tuple[int, int]:
        if name not in env:
            raise UnboundVariable(f"no value for variable {name}")
        q = Fraction(env[name])
        if not carrier.contains(q):
            raise CarrierViolation(f"{name} = {q} is outside the {carrier.value} carrier")
        return q.numerator, q.denominator

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


def _evaluate(
    t: Term,
    value: Callable[[str], tuple[int, int]],
    allowed: Container[type],
    refuse: Callable[[type], Exception],
    punch: Optional[PunchId] = None,
) -> tuple[int, int, bool]:
    """The value of ``t`` as an unreduced pair (numerator, nonzero denominator),
    and whether it met a point that ``punch`` leaves undefined.

    ``value(name)`` gives a variable's pair; a constructor outside
    ``allowed`` raises ``refuse(kind)``.  q / 0 (q = 1 for 0^-1) is 0, and
    a punched point unless q = 0 under DIV_NONZERO0.  The total value is
    all the fold computes: below the first punched point it is the
    punched value, and above it the whole term is undefined.
    """
    punched = False
    strict = punch is not PunchId.DIV_NONZERO0  # 0 / 0 is punched too

    def visit(node: Term, a=(1, 1), b=(1, 1)) -> tuple[int, int]:
        nonlocal punched
        kind = node.__class__
        if kind is Var:
            return value(node.name)
        if kind not in allowed:
            raise refuse(kind)
        if kind is Add:
            return a[0] * b[1] + b[0] * a[1], a[1] * b[1]
        if kind is Mul:
            return a[0] * b[0], a[1] * b[1]
        if kind is Inv:  # u^-1 is 1 / u
            a, b = (1, 1), a
        elif kind is Neg:
            return -a[0], a[1]
        elif kind is not Div:
            return (1, 1) if kind is One else (0, 1)
        if b[0]:
            p, q = a[0] * b[1], a[1] * b[0]
            if q.bit_length() > _REDUCE_BITS:
                g = gcd(p, q)
                return p // g, q // g
            return p, q
        if strict or a[0]:
            punched = True
        return (0, 1)

    p, q = fold(t, visit)
    return p, q, punched
