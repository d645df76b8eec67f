"""Named equational theories of meadows and their arithmetical variants.

The commutative-ring axioms come first; the arithmetical theories are
literal set differences of them (drop x + (-x) = 0, then drop x + 0 = x),
extended with inverse or division axioms.  The rational-number
specifications add one invertibility equation on top.  One theory also
carries a conditional law (x != 0 implies x * x^-1 = 1) which is kept as
a distinguished non-equational attachment rather than squeezed into
equation shape, since the decision procedure treats it as a side
condition driving case analysis.

``check_model`` samples pseudo-random carrier values and tests every
axiom of a theory against the exact evaluator, as a soundness probe.
It draws unreduced integer pairs law by law, sample by sample, variable
by variable.  Each side of a law, and a conditional law's guard, is
listed once by the evaluator that serves ``eval_total``, and the function
it returns is called at each draw.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .evaluate import Carrier, _evaluator, _outside
from .evaluate import eval_total  # noqa: F401  (bench/tracing.py wraps theories.eval_total)
from .exceptions import SignatureMismatch
from .syntax import render
from .terms import (
    ONE,
    ZERO,
    Add,
    Div,
    Inv,
    Mul,
    Neg,
    SignatureId,
    Term,
    Var,
    constructors,
    free_vars,
    power,
)


# A law's label is its last field.  tuple.__ne__ does not call __eq__,
# so both are replaced.
def _eq_unlabelled(self, other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self[:-1] == other[:-1]


def _ne_unlabelled(self, other: object) -> bool:
    equal = _eq_unlabelled(self, other)
    return equal if equal is NotImplemented else not equal


def _hash_unlabelled(self) -> int:
    return hash(self[:-1])


class Equation(NamedTuple):
    """An equational axiom lhs = rhs, with a label for reporting.

    Equality and hashing ignore the label.
    """

    lhs: Term
    rhs: Term
    label: str = ""

    __eq__, __ne__, __hash__ = _eq_unlabelled, _ne_unlabelled, _hash_unlabelled

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({*free_vars(self.lhs), *free_vars(self.rhs)}))

    def render(self) -> str:
        return f"{render(self.lhs)} = {render(self.rhs)}"


class ConditionalLaw(NamedTuple):
    """A guarded equation: subject != 0 implies lhs = rhs.

    Equality and hashing ignore the label.
    """

    subject: Term
    lhs: Term
    rhs: Term
    label: str = ""

    __eq__, __ne__, __hash__ = _eq_unlabelled, _ne_unlabelled, _hash_unlabelled

    @property
    def variables(self) -> tuple[str, ...]:
        names = {*free_vars(self.subject), *free_vars(self.lhs), *free_vars(self.rhs)}
        return tuple(sorted(names))

    def render(self) -> str:
        return f"{render(self.subject)} != 0  =>  {render(self.lhs)} = {render(self.rhs)}"


class TheoryId(Enum):
    """Identifiers for the named axiom sets.

    Values double as command-line names.  The divisive twins of the
    alternative specification and of the general-inverse-law theory are
    included so divisive equations can be decided without leaving the
    registry.
    """

    CR = "cr"
    ACRZ = "acrz"
    ACR = "acr"
    IAMD = "iamd"
    DAMD = "damd"
    IAMDZ = "iamdz"
    DAMDZ = "damdz"
    IMD = "imd"
    DMD = "dmd"
    RATZI_SPEC = "ratzi"
    RATZD_SPEC = "ratzd"
    RATIAZ_SPEC = "ratiaz"
    RATDAZ_SPEC = "ratdaz"
    RATIAZ_ALT_SPEC = "ratiaz-alt"
    RATDAZ_ALT_SPEC = "ratdaz-alt"
    RATIAZ_GIL = "ratiaz-gil"
    RATDAZ_GIL = "ratdaz-gil"


class Theory(NamedTuple):
    id: TheoryId
    signature: SignatureId
    equations: tuple[Equation, ...]
    conditional: Optional[ConditionalLaw] = None


_X, _Y, _Z = Var("x"), Var("y"), Var("z")

CR_EQUATIONS: tuple[Equation, ...] = (
    Equation(Add(Add(_X, _Y), _Z), Add(_X, Add(_Y, _Z)), "add-assoc"),
    Equation(Add(_X, _Y), Add(_Y, _X), "add-comm"),
    Equation(Add(_X, ZERO), _X, "add-ident"),
    Equation(Add(_X, Neg(_X)), ZERO, "add-inverse"),
    Equation(Mul(Mul(_X, _Y), _Z), Mul(_X, Mul(_Y, _Z)), "mul-assoc"),
    Equation(Mul(_X, _Y), Mul(_Y, _X), "mul-comm"),
    Equation(Mul(_X, ONE), _X, "mul-ident"),
    Equation(Mul(_X, Add(_Y, _Z)), Add(Mul(_X, _Y), Mul(_X, _Z)), "distrib"),
)

# The arithmetical ring fragments are set differences, not fresh lists.
ACRZ_EQUATIONS = tuple(eq for eq in CR_EQUATIONS if eq != Equation(Add(_X, Neg(_X)), ZERO))
ACR_EQUATIONS = tuple(eq for eq in ACRZ_EQUATIONS if eq != Equation(Add(_X, ZERO), _X))

INVERSE_LAW = Equation(Mul(_X, Inv(_X)), ONE, "inverse-law")
DIVISION_LAW = Equation(Div(_X, _X), ONE, "division-law")

# Inverse axioms of the zero-carrying theories: reflection and the
# restricted inverse law, plus the divisive counterparts.
_INV_AXIOMS = (
    Equation(Inv(Inv(_X)), _X, "inv-reflection"),
    Equation(Mul(_X, Mul(_X, Inv(_X))), _X, "inv-restricted"),
)
_DIV_AXIOMS = (
    Equation(Div(ONE, Div(ONE, _X)), _X, "div-reflection"),
    Equation(Div(Mul(_X, _X), _X), _X, "div-restricted"),
    Equation(Div(_X, _Y), Mul(_X, Div(ONE, _Y)), "div-expansion"),
)

# 1 + x^2 + y^2 is strictly positive everywhere, hence invertible.
_SUM_OF_SQUARES = Add(Add(ONE, power(_X, 2)), power(_Y, 2))
INVERTIBILITY = Equation(Mul(_SUM_OF_SQUARES, Inv(_SUM_OF_SQUARES)), ONE, "invertibility")
DIV_INVERTIBILITY = Equation(Div(_SUM_OF_SQUARES, _SUM_OF_SQUARES), ONE, "invertibility")

_SHARED_FACTOR = Mul(_X, Add(_X, _Y))
ALT_INVERTIBILITY = Equation(
    Mul(_SHARED_FACTOR, Inv(_SHARED_FACTOR)), Mul(_X, Inv(_X)), "alt-invertibility"
)
DIV_ALT_INVERTIBILITY = Equation(
    Div(_SHARED_FACTOR, _SHARED_FACTOR), Div(_X, _X), "alt-invertibility"
)

GENERAL_INVERSE_LAW = ConditionalLaw(_X, Mul(_X, Inv(_X)), ONE, "general-inverse-law")
GENERAL_DIVISION_LAW = ConditionalLaw(_X, Div(_X, _X), ONE, "general-division-law")

_THEORIES: dict[TheoryId, Theory] = {
    TheoryId.CR: Theory(TheoryId.CR, SignatureId.CR, CR_EQUATIONS),
    TheoryId.ACRZ: Theory(TheoryId.ACRZ, SignatureId.IAMDZ, ACRZ_EQUATIONS),
    TheoryId.ACR: Theory(TheoryId.ACR, SignatureId.IAMD, ACR_EQUATIONS),
    TheoryId.IAMD: Theory(TheoryId.IAMD, SignatureId.IAMD, ACR_EQUATIONS + (INVERSE_LAW,)),
    TheoryId.DAMD: Theory(TheoryId.DAMD, SignatureId.DAMD, ACR_EQUATIONS + (DIVISION_LAW,)),
    TheoryId.IAMDZ: Theory(TheoryId.IAMDZ, SignatureId.IAMDZ, ACRZ_EQUATIONS + _INV_AXIOMS),
    TheoryId.DAMDZ: Theory(TheoryId.DAMDZ, SignatureId.DAMDZ, ACRZ_EQUATIONS + _DIV_AXIOMS),
    TheoryId.IMD: Theory(TheoryId.IMD, SignatureId.IMD, CR_EQUATIONS + _INV_AXIOMS),
    TheoryId.DMD: Theory(TheoryId.DMD, SignatureId.DMD, CR_EQUATIONS + _DIV_AXIOMS),
    TheoryId.RATZI_SPEC: Theory(
        TheoryId.RATZI_SPEC, SignatureId.IMD, CR_EQUATIONS + _INV_AXIOMS + (INVERTIBILITY,)
    ),
    TheoryId.RATZD_SPEC: Theory(
        TheoryId.RATZD_SPEC, SignatureId.DMD, CR_EQUATIONS + _DIV_AXIOMS + (DIV_INVERTIBILITY,)
    ),
    TheoryId.RATIAZ_SPEC: Theory(
        TheoryId.RATIAZ_SPEC, SignatureId.IAMDZ, ACRZ_EQUATIONS + _INV_AXIOMS + (INVERTIBILITY,)
    ),
    TheoryId.RATDAZ_SPEC: Theory(
        TheoryId.RATDAZ_SPEC,
        SignatureId.DAMDZ,
        ACRZ_EQUATIONS + _DIV_AXIOMS + (DIV_INVERTIBILITY,),
    ),
    TheoryId.RATIAZ_ALT_SPEC: Theory(
        TheoryId.RATIAZ_ALT_SPEC,
        SignatureId.IAMDZ,
        ACRZ_EQUATIONS + _INV_AXIOMS + (ALT_INVERTIBILITY,),
    ),
    TheoryId.RATDAZ_ALT_SPEC: Theory(
        TheoryId.RATDAZ_ALT_SPEC,
        SignatureId.DAMDZ,
        ACRZ_EQUATIONS + _DIV_AXIOMS + (DIV_ALT_INVERTIBILITY,),
    ),
    TheoryId.RATIAZ_GIL: Theory(
        TheoryId.RATIAZ_GIL,
        SignatureId.IAMDZ,
        ACRZ_EQUATIONS + _INV_AXIOMS + (ALT_INVERTIBILITY,),
        GENERAL_INVERSE_LAW,
    ),
    TheoryId.RATDAZ_GIL: Theory(
        TheoryId.RATDAZ_GIL,
        SignatureId.DAMDZ,
        ACRZ_EQUATIONS + _DIV_AXIOMS + (DIV_ALT_INVERTIBILITY,),
        GENERAL_DIVISION_LAW,
    ),
}


def theory(id: TheoryId) -> Theory:
    return _THEORIES[id]


def axioms(id: TheoryId) -> list[Equation]:
    return list(_THEORIES[id].equations)


def conditional_law(id: TheoryId) -> Optional[ConditionalLaw]:
    return _THEORIES[id].conditional


def _sample_pair(rng: random.Random, carrier: Carrier) -> tuple[int, int]:
    """A carrier value as an unreduced pair (numerator, positive denominator)."""
    if carrier is not Carrier.POSITIVE and rng.random() < 0.2:
        return 0, 1
    # Each loop is the draw rng.randint(1, 12) makes on CPython 3.10-3.13, without its calls.
    bits = rng.getrandbits
    p = bits(4)
    while p >= 12:
        p = bits(4)
    q = bits(4)
    while q >= 12:
        q = bits(4)
    p, q = p + 1, q + 1
    if carrier is Carrier.ALL and rng.random() < 0.5:
        p = -p
    return p, q


class Witness(NamedTuple):
    """A sampled assignment on which the two sides of an axiom differ."""

    assignment: dict[str, Fraction]
    left: Fraction
    right: Fraction


class AxiomCheck(NamedTuple):
    label: str
    rendered: str
    ok: bool
    witness: Optional[Witness] = None


class ModelReport(NamedTuple):
    theory: TheoryId
    carrier: Carrier
    samples: int
    seed: int
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [check for check in self.checks if not check.ok]


def check_model(
    id: TheoryId, carrier: Carrier, samples: int = 500, seed: int = 0
) -> ModelReport:
    """Test every axiom of a theory against the exact evaluator on a carrier.

    Evaluates both sides of each axiom under `samples` pseudo-random
    assignments of carrier values and records the first disagreement
    per axiom: its first failing draw and the values there.
    Deterministic given seed.  A failed law's later draws are still
    made, so that later laws see the same stream.  The conditional law
    counts only the draws at which its guard is nonzero.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    th = _THEORIES[id]
    laws: list[Equation | ConditionalLaw] = [*th.equations, *filter(None, [th.conditional])]
    used = set().union(*(constructors(t) for law in laws for t in law[:-1]))  # label last
    allowed = carrier.constructors
    unsupported = used - allowed
    if unsupported:
        names = ", ".join(sorted(op.__name__ for op in unsupported))
        raise SignatureMismatch(f"carrier {carrier.value} does not support: {names}")

    rng = random.Random(seed)
    refuse = _outside(carrier)
    checks = []
    for law in laws:
        names, witness = law.variables, None
        # Each side is listed once here and evaluated at every draw.
        lhs, rhs = _evaluator(law.lhs, allowed, refuse), _evaluator(law.rhs, allowed, refuse)
        guard = isinstance(law, ConditionalLaw) and _evaluator(law.subject, allowed, refuse)
        for _ in range(samples):
            point = {name: _sample_pair(rng, carrier) for name in names}
            if witness is not None:
                continue
            value = point.__getitem__
            if guard and not guard(value)[0]:
                continue
            p, q, _ = lhs(value)
            r, s, _ = rhs(value)
            if p * s != r * q:
                env = {name: Fraction(*pair) for name, pair in point.items()}
                witness = Witness(env, Fraction(p, q), Fraction(r, s))
        checks.append(AxiomCheck(law.label, law.render(), witness is None, witness))
    return ModelReport(id, carrier, samples, seed, tuple(checks))
