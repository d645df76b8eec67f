"""Exact rational evaluation with totalized inverse and division.

The inverse of 0 is 0, and q / 0 is q * (1/0) = 0.  Everything is
arbitrary-precision ``fractions.Fraction``; no floating point is used
anywhere, so value equality is decidable and exact.

One evaluator serves both semantics: ``eval_total`` here and
``eval_punched`` in :mod:`meadows.partial` differ only in the value they
give to ``0^-1`` and ``q / 0``.  It folds the term bottom-up without
recursion, so terms of any depth evaluate.  ``_evaluate_columns`` is its
zero-totalized twin over columns of values, for ``check_model``.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from operator import add, mul, neg
from typing import Mapping, Optional, Sequence

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
    return _evaluate(t, env, carrier, None)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _evaluate(
    t: Term, env: Mapping[str, Fraction], carrier: Carrier, punch: Optional[PunchId]
) -> Optional[Fraction]:
    """The value of ``t``, where q / 0 (q = 1 for 0^-1) is 0 if ``punch`` is None.

    Under a punch it is undefined (None) instead, except 0 / 0 = 0 under
    DIV_NONZERO0.  Undefined swallows every operation above it.
    """

    def visit(node: Term, a: Optional[Fraction] = _ONE, b: Optional[Fraction] = _ONE):
        kind = node.__class__
        if kind is Var:
            name = node.name
            try:
                value = Fraction(env[name])
            except KeyError:
                raise UnboundVariable(f"no value for variable {name}") from None
            if not carrier.contains(value):
                raise CarrierViolation(f"{name} = {value} is outside the {carrier.value} carrier")
            return value
        if kind is Zero:
            if carrier is Carrier.POSITIVE:
                raise CarrierViolation("the constant 0 is outside the positive carrier")
            return _ZERO
        if kind is Neg and carrier is not Carrier.ALL:
            raise CarrierViolation(f"negation is not available over the {carrier.value} carrier")
        if a is None or b is None:
            return None
        if kind is Add:
            return a + b
        if kind is Mul:
            return a * b
        if kind is Neg:
            return -a
        if kind is Inv:  # u^-1 is 1 / u
            a, b = _ONE, a
        elif kind is not Div:  # One
            return _ONE
        if b != 0:
            return a / b
        return _ZERO if punch is None or punch is PunchId.DIV_NONZERO0 and a == 0 else None

    return fold(t, visit)


_LIFTED = {Add: add, Mul: mul, Neg: neg}


def _evaluate_columns(t: Term, columns: Mapping[str, Sequence], width: int) -> Sequence:
    """Zero-totalized values of ``t`` at the ``width`` assignments in ``columns``.

    No carrier checks: the caller draws the values from the carrier and
    rejects the constructors it lacks.
    """

    def visit(node: Term, *args: Sequence[Fraction]):
        kind = node.__class__
        if kind is Var:
            return columns[node.name]
        if kind in _LIFTED:
            return list(map(_LIFTED[kind], *args))
        if kind is Inv:  # u^-1 is 1 / u
            args = [_ONE] * width, *args
        elif kind is not Div:
            return [_ONE if kind is One else _ZERO] * width
        return [p / q if q else _ZERO for p, q in zip(*args)]

    return fold(t, visit)
