"""Decision procedures for equations between arithmetical meadow terms.

Over the zero-free signature, t = u is provable exactly when the two
sides denote the same function on positive rationals; splitting each
side into a polynomial fraction and comparing cross products reduces
the question to syntactic equality of positive polynomials
(``decide_iamd``).

With 0 in the signature and the general inverse law (x != 0 implies
x * x^-1 = 1) assumed, every variable is 0 or invertible, so provability
is decided by cases over the sets of variables set to 0: the zero sets
are visited in order of size, each one's reduced pair of sides derived
from its parent's (the set without its last variable) by setting one
more variable to 0, and each distinct case is decided once by the
zero-free comparison and kept as evidence (``decide_iamdz_gil``).

Divisive equations are decided by translating division away; closed
terms of any of the seven signatures are decided by comparing their
normal forms, which are their exact values (``decide_closed``), so
evaluation doubles as an independent oracle for the syntactic procedures.

A false verdict always carries a concrete counterexample assignment.
Both procedures first evaluate the two sides exactly at 0/1 points (the
all-ones point, or every zero pattern) and refute at the first point
that separates them, before normalizing or translating anything; true
verdicts come only from matched normal forms.  Otherwise the zero-carrying
search lifts the counterexample of the first failing case, and the
zero-free search specializes the two distinct cross-product polynomials
one variable at a time to small positive integers at which they differ
(``PosPoly.separating_point``), which always succeeds because a nonzero
polynomial has only finitely many roots per variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Container, Union

from .evaluate import Carrier, eval_total
from .exceptions import NotInSignature
from .normalize import DEFAULT_MAX_MONOMIALS, PosPoly, closed_normal, split_inverse, zero_elim
from .terms import (
    ZERO,
    Add,
    Div,
    Inv,
    Mul,
    One,
    SignatureId,
    Term,
    Var,
    Zero,
    conforms,
    fold,
    free_vars,
    substitute,
)
from .theories import TheoryId
from .translate import div_to_inv

_ZERO_PATTERN_LIMIT = 256


@dataclass(frozen=True)
class MatchedNormals:
    """The two normal forms the procedure compared (equal iff verdict true):
    cross-product polynomials, or the values of closed sides."""

    lhs: Union[PosPoly, Fraction]
    rhs: Union[PosPoly, Fraction]

    def render(self) -> str:
        return f"{self.lhs}  vs  {self.rhs}"


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
    """The true cases of the zero-set split, one per distinct pair of reduced
    sides, named ``"all variables nonzero"``, ``"x = 0"``, ``"x = 0, y = 0"``, ..."""

    steps: tuple[TraceStep, ...]

    def render(self) -> str:
        return "; ".join(f"{step.description}: true" for step in self.steps)


Evidence = Union[MatchedNormals, Counterexample, RecursionTrace]


@dataclass(frozen=True)
class Decision:
    verdict: bool
    evidence: Evidence


def decide_iamd(t: Term, u: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS) -> Decision:
    """Decide provable equality of two zero-free arithmetical terms.

    Both sides are evaluated exactly at the all-ones point first: zero-free
    terms are positive-valued, so sides that differ there are refuted at
    that point without being expanded.  Otherwise both sides are split into
    polynomial fractions t1/t2 and u1/u2, and the equation is provable iff
    the cross products t1*u2 and u1*t2 are the same polynomial; if not, the
    counterexample is a point of small positive integers where they differ.
    """
    if (refuted := _refuted_at_ones(t, u, SignatureId.IAMD)) is not None:
        return refuted
    a = split_inverse(t, max_monomials)
    b = split_inverse(u, max_monomials)
    left = a.numerator.mul(b.denominator, max_monomials)
    right = b.numerator.mul(a.denominator, max_monomials)
    if left == right:
        return Decision(True, MatchedNormals(left, right))
    # The sides differ wherever the cross products do, since the
    # denominators are positive at positive points.  Every variable of
    # the sides occurs in a cross product, so the point binds them all.
    point = left.separating_point(right)
    env = {v: Fraction(value) for v, value in point.items()}
    return Decision(False, _counterexample(t, u, env, Carrier.POSITIVE))


def _refuted_at_ones(t: Term, u: Term, sig: SignatureId) -> Decision | None:
    """A false verdict when zero-free sides differ at the all-ones point, else None."""
    (p, q), (r, s) = _value_at(t, (), sig), _value_at(u, (), sig)
    if p * s != r * q:
        ones = dict.fromkeys(sorted({*free_vars(t), *free_vars(u)}), Fraction(1))
        return Decision(False, Counterexample(ones, Fraction(p, q), Fraction(r, s)))
    return None


def _value_at(t: Term, zeros: Container[str], sig: SignatureId) -> tuple[int, int]:
    """The exact value of ``t`` with the variables in ``zeros`` 0 and the rest 1,
    as an unreduced pair (numerator, denominator > 0); NotInSignature at a
    constructor outside ``sig``."""
    allowed = sig.constructors
    has_zero, has_inv, has_div = Zero in allowed, Inv in allowed, Div in allowed

    def visit(node: Term, a: tuple[int, int] = (1, 1), b: tuple[int, int] = (1, 1)):
        kind = node.__class__
        if kind is Add:
            return a[0] * b[1] + b[0] * a[1], a[1] * b[1]
        if kind is Mul:
            return a[0] * b[0], a[1] * b[1]
        if kind is Inv and has_inv:  # 0^-1 = 0
            return (a[1], a[0]) if a[0] else (0, 1)
        if kind is Var:
            return (0, 1) if node.name in zeros else (1, 1)
        if kind is One:
            return 1, 1
        if kind is Div and has_div:  # q / 0 = 0
            return (a[0] * b[1], a[1] * b[0]) if b[0] else (0, 1)
        if kind is Zero and has_zero:
            return 0, 1
        raise NotInSignature(f"both sides must conform to the {sig.value} signature")

    return fold(t, visit)


def _counterexample(
    t: Term, u: Term, env: dict[str, Fraction], carrier: Carrier
) -> Counterexample:
    """Both sides evaluated at ``env``; a counterexample when the values differ."""
    return Counterexample(env, eval_total(t, env, carrier), eval_total(u, env, carrier))


def decide_closed(t: Term, u: Term, sig: SignatureId) -> Decision:
    """Decide equality of closed terms over ``sig`` by comparing their
    normal forms, which are their exact values (``closed_normal``)."""
    lhs, rhs = closed_normal(t, sig), closed_normal(u, sig)
    return Decision(lhs == rhs, MatchedNormals(lhs, rhs))


def decide_iamdz_gil(t: Term, u: Term, max_monomials: int = DEFAULT_MAX_MONOMIALS) -> Decision:
    """Decide provability from the zero-carrying theory plus the general inverse law.

    Under the law every variable is 0 or invertible, so the equation is
    provable exactly when it holds for each set S of its variables taken
    to be 0 and the rest nonzero.  The zero sets are visited in order of
    size.  Since elimination commutes with setting variables to 0 one at
    a time, the reduced pair of S is its parent's (S without its last
    variable) with that variable substituted by 0 and eliminated.  A pair
    not met before is decided once: both sides 0 is true, exactly one
    side 0 is false (a zero-free term is positive at the all-ones point),
    and otherwise the zero-free comparison decides.
    A true verdict carries these case decisions as a ``RecursionTrace``;
    a false one carries a counterexample from the first failing case, a
    minimal zero set.
    """
    variables = sorted({*free_vars(t), *free_vars(u)})
    # A derivable equation holds at every non-negative point, so any
    # separating 0/1 point refutes it outright; searching before the case
    # split also yields the simplest counterexamples first.  The first
    # point, all ones, checks both sides against the signature.
    for zeros in islice(_zero_sets(variables), _ZERO_PATTERN_LIMIT + 1):
        p, q = _value_at(t, zeros, SignatureId.IAMDZ)
        r, s = _value_at(u, zeros, SignatureId.IAMDZ)
        if p * s != r * q:
            env = {v: Fraction(0) if v in zeros else Fraction(1) for v in variables}
            return Decision(False, Counterexample(env, Fraction(p, q), Fraction(r, s)))
    if not variables:
        # A closed equation was settled by its one zero pattern, the empty one.
        return Decision(True, MatchedNormals(Fraction(p, q), Fraction(r, s)))
    steps: list[TraceStep] = []
    decided: set[tuple[Term, Term]] = set()
    # The reduced pairs of the previous size's zero sets and of this size's.
    parents, pairs = {}, {(): (zero_elim(t), zero_elim(u))}
    for zeros in _zero_sets(variables):
        if zeros:
            if len(zeros) > len(next(iter(pairs))):
                parents, pairs = pairs, {}  # the first zero set of a new size
            ps, ps2 = pairs[zeros] = parents[zeros[:-1]]
            s, s2 = substitute(ps, zeros[-1], ZERO), substitute(ps2, zeros[-1], ZERO)
            if s is ps and s2 is ps2:
                continue  # the variable no longer occurs: the parent's case
            pairs[zeros] = zero_elim(s), zero_elim(s2)
        s, s2 = pairs[zeros]
        if (s, s2) in decided:
            continue
        decided.add((s, s2))
        if isinstance(s, Zero) != isinstance(s2, Zero):
            # One side is derivably 0, the other is zero-free and therefore
            # strictly positive at the all-ones assignment.
            ones = dict.fromkeys(free_vars(s) + free_vars(s2), Fraction(1))
            return _refutation(t, u, variables, ones)
        if isinstance(s, Zero):
            decision = Decision(True, MatchedNormals(Fraction(0), Fraction(0)))
        else:
            decision = decide_iamd(s, s2, max_monomials)
            if not decision.verdict:
                assert isinstance(decision.evidence, Counterexample)
                return _refutation(t, u, variables, decision.evidence.assignment)
        case = ", ".join(f"{var} = 0" for var in zeros) or "all variables nonzero"
        steps.append(TraceStep(case, decision))
    if len(steps) == 1:
        # Every variable vanished with 0, as in x * 0 = 0: no case split.
        return steps[0].decision
    return Decision(True, RecursionTrace(tuple(steps)))


def _refutation(t: Term, u: Term, variables: list[str], env: dict[str, Fraction]) -> Decision:
    """A false verdict at ``env``, with every variable it leaves out set to 0."""
    full = {**dict.fromkeys(variables, Fraction(0)), **env}
    return Decision(False, _counterexample(t, u, full, Carrier.NON_NEGATIVE))


def _zero_sets(variables: list[str]):
    """Every set of the variables, smallest first."""
    for size in range(len(variables) + 1):
        yield from combinations(variables, size)


def decide_divisive(
    t: Term, u: Term, theory: TheoryId, max_monomials: int = DEFAULT_MAX_MONOMIALS
) -> Decision:
    """Decide a divisive equation by translating division away.

    Supported theories: the zero-free divisive theory (delegates to the
    zero-free procedure) and the divisive general-inverse-law theory
    (delegates to the zero-carrying procedure).  Verdicts and
    counterexamples transfer because the translation preserves
    zero-totalized values.
    """
    if theory is TheoryId.DAMD:
        # The all-ones fold checks the signature and refutes before translating.
        refuted = _refuted_at_ones(t, u, SignatureId.DAMD)
        return refuted or decide_iamd(div_to_inv(t), div_to_inv(u), max_monomials)
    if theory is not TheoryId.RATDAZ_GIL:
        raise ValueError(f"no divisive decision procedure for theory {theory.value}")
    if not (conforms(t, SignatureId.DAMDZ) and conforms(u, SignatureId.DAMDZ)):
        raise NotInSignature("both sides must conform to the damdz signature")
    return decide_iamdz_gil(div_to_inv(t), div_to_inv(u), max_monomials)
