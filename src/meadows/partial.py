"""Partial evaluation by punching, and the syntactic definedness criterion.

Punching makes a total algebra partial by declaring an operation
undefined at chosen points: the inverse at 0, or division by 0 (for
every numerator, or only for nonzero numerators so that 0 / 0 = 0
survives).  Undefined propagates strictly through every operation,
so a term is undefined exactly when its evaluation meets a punched
point.  Punched evaluation is the evaluator of :mod:`meadows.evaluate`,
which says whether it met one.

For the inverse punch there is a static criterion: the sets Nz
(syntactically non-zero terms) and Def (syntactically defined terms)
are built inductively from 1 in Nz and 0 in Def, closed under + and *,
with the inverse preserving Nz only.  Membership in Def
guarantees a defined value; membership in Nz additionally guarantees a
positive one.

A sum is in Nz when one summand is in Nz and the other in Def.  The
literal rule, which ignores the other summand, is unsound: it puts
1 + 0^-1, undefined under the inverse punch, in Nz.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

from .evaluate import Carrier, PunchId, _evaluator, _lookup, _outside
from .exceptions import CarrierViolation, NotInSignature, SignatureMismatch
from .terms import Add, Inv, Mul, One, SignatureId, Term, conforms, fold


class Defined(NamedTuple):
    value: Fraction


class Undefined:
    """The value of a term that meets a punched point; every one is equal."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is Undefined else NotImplemented

    def __hash__(self) -> int:
        return hash(Undefined)

    def __repr__(self) -> str:
        return "Undefined()"


UNDEFINED = Undefined()
PartialValue = Union[Defined, Undefined]


class DefClass(Enum):
    """Verdict of the syntactic definedness criterion."""

    IN_NZ = "nz"
    IN_DEF_ONLY = "def"
    OUTSIDE = "outside"

    @property
    def in_def(self) -> bool:
        return self is not DefClass.OUTSIDE


def eval_punched(t: Term, env: Mapping[str, Fraction], punch: PunchId) -> PartialValue:
    """Evaluate exactly, except Undefined at the punched points.

    Inverse punch: u^-1 is Undefined when u evaluates to 0.  Division
    punches: u / v is Undefined when v evaluates to 0, either always or
    only when u is nonzero (then 0 / 0 = 0).  Undefined is strict: it
    swallows every surrounding operation.
    """
    if not conforms(t, punch.signature):
        raise SignatureMismatch(
            f"term does not conform to the {punch.signature.value} signature "
            f"required by punch {punch.value}"
        )
    for name, value in env.items():
        if value < 0:
            raise CarrierViolation(f"{name} = {value} is negative")
    evaluate = _evaluator(t, Carrier.ALL.constructors, _outside(Carrier.ALL), punch)
    p, q, punched = evaluate(_lookup(env, Carrier.ALL))
    return UNDEFINED if punched else Defined(Fraction(p, q))


def classify_def(t: Term) -> DefClass:
    """Classify a term by the inductive Nz/Def rules for the inverse punch.

    Free variables classify as Def only: a variable may be assigned 0,
    so it cannot be placed in Nz.  A sum is in Nz when one summand is in
    Nz and the other in Def; the literal rule, which ignores the other
    summand, would put the undefined 1 + 0^-1 in Nz.
    """
    if not conforms(t, SignatureId.IAMDZ):
        raise NotInSignature("the definedness criterion applies to iamdz terms")

    def visit(node: Term, a=None, b=None) -> DefClass:
        kind = node.__class__
        if kind is One:
            return DefClass.IN_NZ
        if kind is Add:
            if (a is DefClass.IN_NZ and b.in_def) or (b is DefClass.IN_NZ and a.in_def):
                return DefClass.IN_NZ
        elif kind is Mul:
            if a is DefClass.IN_NZ and b is DefClass.IN_NZ:
                return DefClass.IN_NZ
        elif kind is Inv:
            return DefClass.IN_NZ if a is DefClass.IN_NZ else DefClass.OUTSIDE
        else:  # Zero or a variable
            return DefClass.IN_DEF_ONLY
        if a.in_def and b.in_def:
            return DefClass.IN_DEF_ONLY
        return DefClass.OUTSIDE

    return fold(t, visit)
