"""Decision procedures for equations between arithmetical meadow terms.

Over the zero-free signature, t = u is provable exactly when the two
sides denote the same function on positive rationals; splitting each
side into a polynomial fraction and comparing cross products reduces
the question to syntactic equality of positive polynomials
(``decide_iamd``).

With 0 in the signature and the general inverse law (x != 0 implies
x * x^-1 = 1) assumed, provability is decided by recursion on the
variables: eliminate 0 from both sides, then require the zero-free
comparison to succeed *and* the equation to survive substituting 0 for
each variable in turn (``decide_iamdz_gil``).

Divisive equations are decided by translating division away; closed
terms of any of the seven signatures are decided by exact evaluation,
which doubles as an independent oracle for the syntactic procedures.

A false verdict always carries a concrete counterexample assignment.
The search tries the all-ones assignment, zero patterns where 0 is in
the carrier, then seeded small rationals; if none of those separate the
sides, a guaranteed stage specializes the (nonzero) difference of the
cross-product polynomials one variable at a time, which must succeed
because a nonzero polynomial has only finitely many roots per variable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

from .evaluate import Carrier, eval_total
from .exceptions import NotClosed, NotInSignature
from .normalize import (
    DEFAULT_MAX_MONOMIALS,
    ClosedNormal,
    Monomial,
    PosPoly,
    split_inverse,
    zero_elim,
)
from .terms import (
    SignatureId,
    Term,
    Zero,
    conforms,
    free_vars,
    is_closed,
    substitute,
)
from .theories import TheoryId
from .translate import div_to_inv

_RANDOM_TRIES = 48
_ZERO_PATTERN_LIMIT = 256


@dataclass(frozen=True)
class MatchedNormals:
    """The two normal forms the procedure compared (equal iff verdict true)."""

    lhs: Union[PosPoly, ClosedNormal]
    rhs: Union[PosPoly, ClosedNormal]

    def render(self) -> str:
        return f"{self.lhs.render()}  vs  {self.rhs.render()}"


@dataclass(frozen=True)
class Counterexample:
    """An assignment on which the two sides evaluate to different rationals."""

    assignment: dict[str, Fraction]
    lhs_value: Fraction
    rhs_value: Fraction

    def render(self) -> str:
        binds = ", ".join(f"{v} = {q}" for v, q in sorted(self.assignment.items()))
        if not binds:
            binds = "(empty)"
        return f"{binds}  gives  {self.lhs_value} != {self.rhs_value}"


@dataclass(frozen=True)
class TraceStep:
    description: str
    decision: "Decision"


@dataclass(frozen=True)
class RecursionTrace:
    """Sub-decisions of the variable case split, all true."""

    steps: tuple[TraceStep, ...]

    def render(self) -> str:
        return "; ".join(f"{step.description}: true" for step in self.steps)


Evidence = Union[MatchedNormals, Counterexample, RecursionTrace]


@dataclass(frozen=True)
class Decision:
    verdict: bool
    evidence: Evidence


def decide_iamd(
    t: Term, u: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS, seed: int = 0
) -> Decision:
    """Decide provable equality of two zero-free arithmetical terms.

    Splits both sides into polynomial fractions t1/t2 and u1/u2 and
    compares the cross products t1*u2 and u1*t2; the equation is
    provable iff they are the same polynomial.  False verdicts carry a
    positive-rational counterexample.
    """
    if not (conforms(t, SignatureId.IAMD) and conforms(u, SignatureId.IAMD)):
        raise NotInSignature("both sides must conform to the iamd signature")
    a = split_inverse(t, max_monomials)
    b = split_inverse(u, max_monomials)
    left = a.numerator.mul(b.denominator, max_monomials)
    right = b.numerator.mul(a.denominator, max_monomials)
    if left == right:
        return Decision(True, MatchedNormals(left, right))
    variables = sorted({*free_vars(t), *free_vars(u)})
    env = _positive_witness(t, u, variables, left, right, seed)
    return Decision(
        False,
        Counterexample(env, eval_total(t, env, Carrier.POSITIVE), eval_total(u, env, Carrier.POSITIVE)),
    )


def _positive_witness(
    t: Term, u: Term, variables: list[str], left: PosPoly, right: PosPoly, seed: int
) -> dict[str, Fraction]:
    """A positive assignment separating two sides with distinct cross products."""
    ones = {v: Fraction(1) for v in variables}
    if eval_total(t, ones, Carrier.POSITIVE) != eval_total(u, ones, Carrier.POSITIVE):
        return ones
    rng = random.Random(seed)
    for _ in range(_RANDOM_TRIES):
        env = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in variables}
        if eval_total(t, env, Carrier.POSITIVE) != eval_total(u, env, Carrier.POSITIVE):
            return env
    # Guaranteed stage: the cross products differ as polynomials, and the
    # sides differ wherever the cross products do (denominators are
    # positive at positive points).  Specializing one variable at a time
    # with a value from {1..deg+1} keeps the difference nonzero, since a
    # polynomial of degree d in one variable over an integral domain has
    # at most d roots.
    diff: dict[Monomial, int] = {}
    for mono, coeff in left.items():
        diff[mono] = diff.get(mono, 0) + coeff
    for mono, coeff in right.items():
        diff[mono] = diff.get(mono, 0) - coeff
    diff = {m: c for m, c in diff.items() if c != 0}
    env = {}
    for var in sorted({v for mono in diff for v, _ in mono}):
        degree = max((dict(mono).get(var, 0) for mono in diff), default=0)
        for candidate in range(1, degree + 2):
            substituted = _substitute_int(diff, var, candidate)
            if substituted:
                env[var] = Fraction(candidate)
                diff = substituted
                break
    for v in variables:
        env.setdefault(v, Fraction(1))
    return env


def _substitute_int(diff: dict[Monomial, int], var: str, value: int) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for mono, coeff in diff.items():
        exps = dict(mono)
        exponent = exps.pop(var, 0)
        key = tuple(sorted(exps.items()))
        out[key] = out.get(key, 0) + coeff * value**exponent
    return {m: c for m, c in out.items() if c != 0}


def decide_closed(t: Term, u: Term, sig: SignatureId) -> Decision:
    """Decide equality of closed terms by exact evaluation.

    In the initial algebra of each signature's rational-meadow theory,
    closed terms are provably equal exactly when their values coincide.
    """
    if not (conforms(t, sig) and conforms(u, sig)):
        raise NotInSignature(f"both sides must conform to the {sig.value} signature")
    for side in (t, u):
        if not is_closed(side):
            raise NotClosed(f"term has free variables: {', '.join(free_vars(side))}")
    if sig in (SignatureId.IAMD, SignatureId.DAMD):
        carrier = Carrier.POSITIVE
    elif sig in (SignatureId.IAMDZ, SignatureId.DAMDZ):
        carrier = Carrier.NON_NEGATIVE
    else:
        carrier = Carrier.ALL
    lhs = ClosedNormal.from_rational(eval_total(t, {}, carrier))
    rhs = ClosedNormal.from_rational(eval_total(u, {}, carrier))
    return Decision(lhs == rhs, MatchedNormals(lhs, rhs))


def decide_iamdz_gil(
    t: Term, u: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS, seed: int = 0
) -> Decision:
    """Decide provability from the zero-carrying theory plus the general inverse law.

    Recursion on the variables of the equation, following the structure
    that makes the law decidable: eliminate 0 from both sides; if both
    collapse to 0 the sides are equal, and if exactly one collapses the
    sides differ (a zero-free term is positive at the all-ones point).
    Otherwise the zero-free comparison must succeed with every variable
    assumed nonzero, and the equation must survive substituting 0 for
    each variable in turn.
    """
    if not (conforms(t, SignatureId.IAMDZ) and conforms(u, SignatureId.IAMDZ)):
        raise NotInSignature("both sides must conform to the iamdz signature")
    variables = sorted({*free_vars(t), *free_vars(u)})
    # A derivable equation holds at every non-negative point, so any
    # separating assignment refutes it outright; searching before the
    # recursion also yields the simplest counterexamples first.
    for env in zero_pattern_assignments(variables):
        lhs = eval_total(t, env, Carrier.NON_NEGATIVE)
        rhs = eval_total(u, env, Carrier.NON_NEGATIVE)
        if lhs != rhs:
            return Decision(False, Counterexample(env, lhs, rhs))
    # A closed equation was settled by its one zero pattern, the empty one.
    rng = random.Random(seed)
    for _ in range(_RANDOM_TRIES if variables else 0):
        env = {v: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for v in variables}
        lhs = eval_total(t, env, Carrier.NON_NEGATIVE)
        rhs = eval_total(u, env, Carrier.NON_NEGATIVE)
        if lhs != rhs:
            return Decision(False, Counterexample(env, lhs, rhs))
    memo: dict[tuple[Term, Term], tuple[bool, Optional[dict[str, Fraction]]]] = {}
    verdict, env = _gil(t, u, memo, max_monomials, seed)
    if verdict:
        return Decision(True, _gil_trace(t, u, memo, max_monomials, seed))
    assert env is not None
    full = {v: Fraction(0) for v in variables}
    full.update(env)
    return Decision(
        False,
        Counterexample(
            full,
            eval_total(t, full, Carrier.NON_NEGATIVE),
            eval_total(u, full, Carrier.NON_NEGATIVE),
        ),
    )


def _gil(
    t: Term,
    u: Term,
    memo: dict[tuple[Term, Term], tuple[bool, Optional[dict[str, Fraction]]]],
    max_monomials: int,
    seed: int,
) -> tuple[bool, Optional[dict[str, Fraction]]]:
    """Verdict plus, when false, a separating non-negative assignment."""
    key = (t, u)
    if key in memo:
        return memo[key]
    s, s2 = zero_elim(t), zero_elim(u)
    result: tuple[bool, Optional[dict[str, Fraction]]]
    if isinstance(s, Zero) and isinstance(s2, Zero):
        result = (True, None)
    elif isinstance(s, Zero) or isinstance(s2, Zero):
        # One side is derivably 0, the other is zero-free and therefore
        # strictly positive at the all-ones assignment.
        survivor = s2 if isinstance(s, Zero) else s
        result = (False, {v: Fraction(1) for v in free_vars(survivor)})
    else:
        variables = sorted({*free_vars(s), *free_vars(s2)})
        if not variables:
            from .normalize import closed_normal_iamd

            same = closed_normal_iamd(s, max_monomials) == closed_normal_iamd(s2, max_monomials)
            result = (same, None) if same else (False, {})
        else:
            base = decide_iamd(s, s2, max_monomials, seed)
            if not base.verdict:
                assert isinstance(base.evidence, Counterexample)
                result = (False, dict(base.evidence.assignment))
            else:
                result = (True, None)
                for var in variables:
                    sub_verdict, sub_env = _gil(
                        substitute(s, var, Zero()),
                        substitute(s2, var, Zero()),
                        memo,
                        max_monomials,
                        seed,
                    )
                    if not sub_verdict:
                        assert sub_env is not None
                        lifted = dict(sub_env)
                        lifted[var] = Fraction(0)
                        result = (False, lifted)
                        break
    memo[key] = result
    return result


def _gil_trace(
    t: Term,
    u: Term,
    memo: dict[tuple[Term, Term], tuple[bool, Optional[dict[str, Fraction]]]],
    max_monomials: int,
    seed: int,
) -> Evidence:
    """Reconstruct top-level evidence for a true verdict."""
    s, s2 = zero_elim(t), zero_elim(u)
    if isinstance(s, Zero) and isinstance(s2, Zero):
        return MatchedNormals(ClosedNormal.zero(), ClosedNormal.zero())
    variables = sorted({*free_vars(s), *free_vars(s2)})
    if not variables:
        from .normalize import closed_normal_iamd

        return MatchedNormals(
            closed_normal_iamd(s, max_monomials), closed_normal_iamd(s2, max_monomials)
        )
    steps = [TraceStep("all variables nonzero", decide_iamd(s, s2, max_monomials, seed))]
    for var in variables:
        sub_t, sub_u = substitute(s, var, Zero()), substitute(s2, var, Zero())
        sub_verdict, _ = _gil(sub_t, sub_u, memo, max_monomials, seed)
        steps.append(
            TraceStep(
                f"{var} = 0",
                Decision(sub_verdict, _gil_trace(sub_t, sub_u, memo, max_monomials, seed)),
            )
        )
    return RecursionTrace(tuple(steps))


def zero_pattern_assignments(variables: list[str]):
    """All-ones, then every pattern of zeros over the variables.

    Used by counterexample searches in the zero-carrying setting;
    capped to keep enumeration bounded for many variables.
    """
    yield {v: Fraction(1) for v in variables}
    count = 0
    for size in range(1, len(variables) + 1):
        for zeros in combinations(variables, size):
            env = {v: Fraction(0) if v in zeros else Fraction(1) for v in variables}
            yield env
            count += 1
            if count >= _ZERO_PATTERN_LIMIT:
                return


def decide_divisive(
    t: Term,
    u: Term,
    theory: TheoryId,
    max_monomials: int = DEFAULT_MAX_MONOMIALS,
    seed: int = 0,
) -> Decision:
    """Decide a divisive equation by translating division away.

    Supported theories: the zero-free divisive theory (delegates to the
    zero-free procedure) and the divisive general-inverse-law theory
    (delegates to the zero-carrying procedure).  Verdicts and
    counterexamples transfer because the translation preserves
    zero-totalized values.
    """
    if theory is TheoryId.DAMD:
        sig, procedure = SignatureId.DAMD, decide_iamd
    elif theory is TheoryId.RATDAZ_GIL:
        sig, procedure = SignatureId.DAMDZ, decide_iamdz_gil
    else:
        raise ValueError(f"no divisive decision procedure for theory {theory.value}")
    if not (conforms(t, sig) and conforms(u, sig)):
        raise NotInSignature(f"both sides must conform to the {sig.value} signature")
    return procedure(div_to_inv(t), div_to_inv(u), max_monomials, seed)
